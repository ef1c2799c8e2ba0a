"""Exit codes, output contracts, and determinism of the command front end."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import deltafree as df
from deltafree.cli import main
from conftest import oracle_cli_json, oracle_set_lists


# Lets `python -m deltafree` in a child process import the package under test.
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(df.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def catalog_file(tmp_path):
    path = tmp_path / "catalog4.txt"
    fam = df.generate_family(df.Generator(4, df.word_of([3, 4], 4)))
    path.write_text(df.family_to_lines(fam))
    return str(path)


class TestGenerate:
    def test_worked_example_lines(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--n", "5", "--sc", "3,4,5")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 16
        assert lines[0] == "1"
        assert lines[-1] == "2 3 4 5"

    def test_all_odd_lines(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--n", "3", "--sc", "")
        assert code == 0
        assert out.splitlines() == ["1", "2", "3", "1 2 3"]

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--n", "4", "--sc", "3,4", "--format", "json")
        assert code == 0
        fam = df.family_from_json(out)
        assert fam == df.generate_family(df.Generator(4, df.word_of([3, 4], 4)))

    def test_full_ground_set_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--n", "4", "--sc", "1,2,3,4")
        assert code == 2
        assert "not maximal" in err

    def test_unparsable_sc_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "generate", "--n", "4", "--sc", "1,frog")
        assert code == 2


class TestCheck:
    def test_catalog_family_is_free(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1\n1 2\n1 3\n1 2 3\n")
        code, out, _ = run_cli(capsys, "check", "--file", str(path))
        assert code == 0
        assert out.strip() == "FREE"

    def test_empty_set_witness(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("-\n1\n")
        code, out, _ = run_cli(capsys, "check", "--file", str(path))
        assert code == 1
        assert "NOT-FREE" in out
        assert out.splitlines()[-2:] == ["-", "-"]

    def test_closed_definition(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        evens = df.Family(3, [w for w in range(8) if bin(w).count("1") % 2 == 0])
        path.write_text(df.family_to_lines(evens))
        code, out, _ = run_cli(capsys, "check", "--file", str(path), "--definition", "closed", "--n", "3")
        assert code == 0
        assert out.strip() == "FREE(closed)"

    def test_quadruple_definition_witness(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1\n2\n1 3\n2 3\n")
        code, out, _ = run_cli(capsys, "check", "--file", str(path), "--definition", "quadruple")
        assert code == 1
        assert out.splitlines()[0] == "NOT-FREE(quadruple)"
        assert out.splitlines()[1:] == ["witness:", "1", "2", "1 3", "2 3"]

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("3 1\n")
        code, _, err = run_cli(capsys, "check", "--file", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "check", "--file", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_json_family_file(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(df.family_to_json(df.all_odd_family(3)))
        code, out, _ = run_cli(capsys, "check", "--file", str(path))
        assert code == 0 and out.strip() == "FREE"

    def test_n_override_contradicting_json_ground_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(df.family_to_json(df.all_odd_family(3)))
        code, _, err = run_cli(capsys, "check", "--file", str(path), "--n", "5")
        assert code == 2 and "contradicts" in err


class TestClassify:
    def test_catalog_family(self, capsys, catalog_file):
        code, out, _ = run_cli(capsys, "classify", "--file", catalog_file)
        assert code == 0
        assert out.splitlines() == ["sc = {3,4}", "GENERATED"]

    def test_all_odd(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text(df.family_to_lines(df.all_odd_family(4)))
        code, out, _ = run_cli(capsys, "classify", "--file", str(path))
        assert code == 0
        assert out.splitlines() == ["sc = {}", "GENERATED"]

    def test_not_generated(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 2\n1 3\n")
        code, out, _ = run_cli(capsys, "classify", "--file", str(path))
        assert code == 1
        assert out.strip() == "NOT-GENERATED"


class TestEnumerate:
    def test_n3_with_classes(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--classes")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 7
        assert payload["class_sizes"] == [1, 3, 3]
        assert payload["all_generated"] is True
        assert len(payload["families"]) == 7

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "7")
        assert code == 2 and "error" in err


class TestPartition:
    def test_worked_example_counts(self, capsys, catalog_file):
        code, out, _ = run_cli(capsys, "partition", "--file", catalog_file, "--t", "1,2,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == {
            "even_even": 2,
            "even_odd": 2,
            "odd_even": 2,
            "odd_odd": 2,
        }
        assert payload["classes"]["odd_odd"] == [[1], [2]]
        assert payload["classes"]["even_odd"] == [[1, 4], [2, 4]]

    def test_reference_outside_ground_is_usage_error(self, capsys, catalog_file):
        code, _, _ = run_cli(capsys, "partition", "--file", catalog_file, "--t", "9")
        assert code == 2


class TestThreshold:
    def test_csv_endpoints(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "threshold", "--n", "4", "--p-min", "0", "--p-max", "1",
            "--steps", "21", "--trials", "200", "--seed", "42",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "p,estimate,stderr,trials"
        assert len(rows) == 22
        first = rows[1].split(",")
        last = rows[-1].split(",")
        assert first[0] == "0.0" and first[1] == "1.0"
        assert last[0] == "1.0" and last[1] == "0.0"

    def test_reproducible_bytes(self, capsys):
        args = ("threshold", "--n", "3", "--steps", "5", "--trials", "100", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_json_format_reports_crossing(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "threshold", "--n", "3", "--steps", "11", "--trials", "200",
            "--seed", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["points"][0]["estimate"] == 1.0
        assert "p_half" in payload

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "threshold", "--n", "3", "--p-min", "0.9", "--p-max", "0.1"
        )
        assert code == 2


def _class_name(pair) -> str:
    return f"{pair.card.name.lower()}_{pair.trace.name.lower()}"


class TestStdoutMatchesJsonDumpsOracle:
    """The CLI's JSON stdout equals json.dumps(indent=2) with innermost
    integer lists collapsed onto one line, byte for byte."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_partition(self, capsys, tmp_path, n):
        full = (1 << n) - 1
        sc = df.word_of(range(1, n // 2 + 1), n)
        family = df.generate_family(df.Generator(n, sc))
        path = tmp_path / "f.txt"
        path.write_text(df.family_to_lines(family))
        # The degenerate references 0, s, sc and the whole ground empty two classes.
        for t in (0, full ^ sc, sc, full, 1, 0b110 & full, full >> 1):
            code, out, _ = run_cli(
                capsys, "partition", "--file", str(path), "--t", ",".join(map(str, df.elements_of(t)))
            )
            split = df.partition_family(family, t)
            payload = {
                "n": n,
                "t": list(df.elements_of(t)),
                "counts": {_class_name(p): split.counts[p] for p in df.ALL_CLASSES},
                "classes": {
                    _class_name(p): oracle_set_lists(split.subfamilies[p]) for p in df.ALL_CLASSES
                },
            }
            assert code == 0
            assert out == oracle_cli_json(payload)

    @pytest.mark.parametrize("text", ["", "-\n1\n1 2\n"], ids=["empty", "with-empty-set"])
    def test_partition_small_files(self, capsys, tmp_path, text):
        path = tmp_path / "f.txt"
        path.write_text(text)
        family = df.family_from_lines(text)
        split = df.partition_family(family, 1)
        _, out, _ = run_cli(capsys, "partition", "--file", str(path), "--t", "1")
        assert out == oracle_cli_json({
            "n": family.n,
            "t": [1],
            "counts": {_class_name(p): split.counts[p] for p in df.ALL_CLASSES},
            "classes": {_class_name(p): oracle_set_lists(split.subfamilies[p]) for p in df.ALL_CLASSES},
        })

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("classes", [True, False], ids=["classes", "plain"])
    def test_enumerate(self, capsys, n, classes):
        _, out, _ = run_cli(capsys, "enumerate", "--n", str(n), *(["--classes"] if classes else []))
        report = df.enumerate_maximum_families(n)
        payload = {"n": n, "total": report.total, "all_generated": report.all_generated}
        if classes:
            payload["class_sizes"] = list(report.class_sizes)
        payload["families"] = [oracle_set_lists(f) for f in report.families]
        assert out == oracle_cli_json(payload)

    @pytest.mark.parametrize(
        "args",
        [
            ("--n", "3", "--steps", "11", "--trials", "50", "--seed", "3"),
            ("--n", "4", "--p-max", "0.02", "--steps", "3", "--trials", "20", "--definition", "union"),
            ("--n", "3", "--steps", "1", "--trials", "5", "--independent"),
        ],
    )
    def test_threshold_json(self, capsys, args):
        _, out, _ = run_cli(capsys, "threshold", *args, "--format", "json")
        _, csv, _ = run_cli(capsys, "threshold", *args)
        payload = json.loads(out)
        # The values come from the CSV printer, the layout from the oracle.
        rows = [row.split(",") for row in csv.splitlines()[1:]]
        assert [[str(pt[k]) for k in ("p", "estimate", "stderr", "trials")] for pt in payload["points"]] == rows
        assert out == oracle_cli_json(payload)

    @pytest.mark.parametrize(
        "text, definition, witness",
        [
            ("-\n1\n", "pairwise", [(), ()]),
            ("1 13\n2 13\n1 2\n", "pairwise", [(1, 2), (1, 13)]),
            ("1\n2\n1 3\n2 3\n", "quadruple", [(1,), (2,), (1, 3), (2, 3)]),
            ("1\n2\n", "closed", [(1,), (1,)]),
        ],
    )
    def test_check_witness_lines(self, capsys, tmp_path, text, definition, witness):
        path = tmp_path / "f.txt"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "check", "--file", str(path), "--definition", definition)
        assert code == 1
        assert out.splitlines()[1:] == ["witness:"] + [" ".join(map(str, w)) or "-" for w in witness]


class TestTopLevel:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_argument_is_usage_error(self, capsys):
        assert run_cli(capsys, "generate", "--bogus")[0] == 2

    @pytest.mark.parametrize(
        "option", [("--jobs", "2"), ("--cache-dir", "x")], ids=["jobs", "cache-dir"]
    )
    def test_removed_enumerate_option_is_usage_error(self, capsys, option):
        assert run_cli(capsys, "enumerate", "--n", "3", *option)[0] == 2

    def test_console_script_smoke(self):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert 'deltafree = "deltafree.cli:run"' in pyproject
        script = shutil.which("deltafree")
        command = [script] if script else [sys.executable, "-m", "deltafree"]
        proc = subprocess.run(
            [*command, "generate", "--n", "3", "--sc", "3"],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "1"

    def test_closed_stdout_exits_141_without_traceback(self, tmp_path):
        path = tmp_path / "f14.json"
        path.write_text(df.family_to_json(df.generate_family(df.Generator(14, 3))))
        # About 200 kB of output: more than a pipe buffer holds.
        proc = subprocess.Popen(
            [sys.executable, "-m", "deltafree", "partition", "--file", str(path), "--t", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=SUBPROCESS_ENV,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""
