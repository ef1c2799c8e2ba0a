"""Exit codes, output contracts, and determinism of the command front end."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import deltafree as df
from deltafree.cli import main


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
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "1"
