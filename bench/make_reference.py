"""Regenerate ``reference.json``: the input pools the workloads draw from and
the exit code and stdout digest of every op those pools can produce.

Run from the repository root, only when the program's output is meant to
change (stdout is byte-deterministic, so a speed-up must not need it):

    PYTHONPATH=src python3 bench/make_reference.py

Every op is also checked against the theory (see ``workloads.py``); the
file is not written if any check fails.  Takes about a minute.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import workloads as w

# Pool sizes per n: enough variety between seeds while keeping this script's
# run (which executes every pool entry) to about a minute.  No block uses
# n = 17; it stays so that the draws for n = 18 and survival keep their values.
PIPELINE_POOL = {12: 6, 13: 6, 14: 6, 15: 4, 16: 3, 17: 2, 18: 2}
SURVIVAL_POOL = 12
POOL_SEED = 20101012


def main() -> int:
    rng = random.Random(POOL_SEED)
    pipeline = w.make_pipeline_pool(rng, PIPELINE_POOL)
    survival = {
        f"{n}/{d}": [rng.randrange(1 << 32) for _ in range(SURVIVAL_POOL)]
        for n, _, _ in w.SURVIVAL_SWEEPS
        for d in w.SURVIVAL_DEFINITIONS
    }
    oracle = w.Oracle(None)
    results: list[w.OpResult] = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, specs in pipeline.items():
            for spec in specs:
                for corrupt in (False, True) if int(n) in w.CORRUPTIBLE else (False,):
                    job = w.PipelineJob(int(n), spec["sc"], spec["t"], spec["extra"], corrupt)
                    results.extend(w.run_pipeline_job(job, Path(tmp), oracle))
    for n in w.ENUMERATE_N:
        results.append(w.run_catalog_op(("enumerate", n), oracle))
    for n in (*w.CATALOG_FULL, w.CATALOG_SAMPLED):
        census = [w.run_catalog_op(("census", n, (1 << k) - 1), oracle) for k in range(n)]
        if len({r.digest for r in census}) != n:
            census[0].error = f"canonical forms at n={n} do not separate the {n} classes"
        results.extend(census)
    for n, trials, p_max in w.SURVIVAL_SWEEPS:
        for d in w.SURVIVAL_DEFINITIONS:
            for seed in survival[f"{n}/{d}"]:
                results.append(w.run_survival_op((n, trials, p_max, d, seed), oracle))
    errors = [r.error for r in results if r.error is not None]
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        return 1
    reference = {"pipeline": pipeline, "survival": survival, "outputs": oracle.recorded}
    (Path(__file__).parent / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{len(results)} ops, {len(oracle.recorded)} reference outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
