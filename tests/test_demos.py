"""Every narrative script under demos/ runs to completion, and the
deterministic ones print the same bytes every time."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of stdout; demo 02 prints timings, so it has no digest
STDOUT_SHA256 = {
    "01_construct_and_recognize.py": "c3d91044365fee8e907a39504fe11d4929e26b6d90730c0bd8550837c7e514ab",
    "03_partition_classes.py": "207fd213a48166eb5ecf9b6ae8b62bfddaeda8b596d5c2608b8c50910488c549",
    "04_survival_threshold.py": "88c0bea6b0ef065ce666f0730e0ec54a317297ca01dc297990dc3786da8e2d9b",
    "05_inclusion_maximal_probe.py": "3f5ae6da57fe5d6738fc58acc017d3435c4f2f6c9c8181bae2916d2c6bd7a8f7",
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    if script.name in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.name]


def test_every_pinned_demo_exists():
    assert set(STDOUT_SHA256) <= {p.name for p in DEMOS}
