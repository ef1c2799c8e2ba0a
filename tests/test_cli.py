"""Exit codes, output contracts, and determinism of the command front end."""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import deltafree as df
from deltafree.cli import build_parser, main
from conftest import all_odd_family, oracle_cli_json, oracle_from_json, oracle_from_lines, oracle_set_lists


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

    @pytest.mark.parametrize(
        "sc, witness",
        [("3,4,9", "1\n2\n1 3\n2 3\n"), ("1,5", "2\n1 2\n3\n1 3\n")],
    )
    def test_quadruple_witness_on_n13_maximum_family(self, capsys, tmp_path, sc, witness):
        # 4,096 members: the witness comes from the pair counts; the bytes
        # are those the full pair scan printed
        path = tmp_path / "f.txt"
        family = df.generate_family(df.Generator(13, df.parse_element_set(sc, 13)))
        path.write_text(df.family_to_lines(family))
        code, out, _ = run_cli(capsys, "check", "--file", str(path), "--definition", "quadruple")
        assert code == 1
        assert out == "NOT-FREE(quadruple)\nwitness:\n" + witness

    @pytest.mark.parametrize("definition", ["pairwise", "closed", "quadruple", "union"])
    @pytest.mark.parametrize("spoil", [False, True], ids=["clean", "corrupt"])
    def test_one_transform_per_check(self, capsys, tmp_path, monkeypatch, definition, spoil):
        # n = 12 maximum family: 2,048 members, past every pair-scan cutoff
        family = df.generate_family(df.Generator(12, df.word_of([2, 5], 12)))
        if spoil:
            a, b = family.members[5:7]
            family = df.Family(12, family.members + (a ^ b,))
        path = tmp_path / "f.txt"
        path.write_text(df.family_to_lines(family))
        calls = []
        transform = df.core.xor_pair_counts
        monkeypatch.setattr(
            df.core, "xor_pair_counts", lambda f: calls.append(f) or transform(f)
        )
        code, _, _ = run_cli(capsys, "check", "--file", str(path), "--definition", definition)
        assert code == (0 if definition == "pairwise" and not spoil else 1)
        assert len(calls) <= 1
        if definition == "pairwise":  # a clean family is certified by its form A(s)
            assert len(calls) == spoil
        if definition == "closed":  # no empty set: (m0, m0) needs no pair counts
            assert not calls

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("3 1\n")
        code, _, err = run_cli(capsys, "check", "--file", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("text, element", [("0\n", 0), ("-3\n", -3), ("-\n-3 0\n", -3)])
    def test_file_with_no_element_in_range_names_the_element(self, capsys, tmp_path, text, element):
        path = tmp_path / "f.txt"
        path.write_text(text)
        line = text.count("\n")
        for command in (["check"], ["classify"], ["partition", "--t", "1"]):
            code, out, err = run_cli(capsys, *command, "--file", str(path))
            assert (code, out) == (2, "")
            assert err == f"error: {path}: line {line}: element {element} outside 1..24\n"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "check", "--file", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_file_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"\xff1\n")
        code, out, err = run_cli(capsys, "check", "--file", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")

    def test_json_family_file(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(df.family_to_json(all_odd_family(3)))
        code, out, _ = run_cli(capsys, "check", "--file", str(path))
        assert code == 0 and out.strip() == "FREE"

    def test_n_override_contradicting_json_ground_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(df.family_to_json(all_odd_family(3)))
        code, _, err = run_cli(capsys, "check", "--file", str(path), "--n", "5")
        assert code == 2 and "contradicts" in err


def whole_text_load(path: Path, n: int | None):
    """The family in ``path``, or the error the CLI prints after "error: ",
    as a reader that decodes the whole file first and sniffs past its
    whitespace gives them."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read {path}: {exc}"
    try:
        if text.lstrip().startswith("{"):
            family = oracle_from_json(text)
            if n is not None and n != family.n:
                return f"{path}: --n {n} contradicts file ground size {family.n}"
            return family
        return oracle_from_lines(text, n)
    except ValueError as exc:
        return f"{path}: {exc}"


class TestFileReads:
    """``--file`` reads a writer's file as a byte stream and any other file
    whole; stdout, stderr and the exit code are those of the whole-text
    read either way."""

    @staticmethod
    def family_n18(fmt: str) -> bytes:
        family = df.generate_family(df.Generator(18, df.word_of([1, 3], 18)))
        return (df.family_to_lines(family) if fmt == "lines" else df.family_to_json(family)).encode()

    def check_file(self, capsys, path: Path, n: int | None = None):
        expected = whole_text_load(path, n)
        argv = ["check", "--file", str(path)] + ([] if n is None else ["--n", str(n)])
        code, out, err = run_cli(capsys, *argv)
        if isinstance(expected, str):
            assert (code, out, err) == (2, "", f"error: {expected}\n")
        else:
            assert code in (0, 1) and err == ""
            assert df.cli._load_family(str(path), n) == expected
        return expected

    @pytest.mark.parametrize("fmt", ["lines", "json"])
    def test_byte_0xff_in_the_last_block(self, capsys, tmp_path, fmt):
        data = self.family_n18(fmt)
        at = len(data) - 20
        assert at > 2 * df.serialization._BLOCK_CHARS
        path = tmp_path / "f"
        path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        expected = self.check_file(capsys, path)
        assert expected == (
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
        )

    @pytest.mark.parametrize(
        "data, n",
        [
            ("\u00a0" + df.family_to_json(all_odd_family(3)), None),  # json past its whitespace
            ("\u00a0" + df.family_to_lines(all_odd_family(3)), None),
            (df.family_to_json(all_odd_family(3)), 5),
            (df.family_to_json(all_odd_family(3)), 3),
            # newlines are translated before the json parser counts characters
            (
                df.family_to_json(all_odd_family(3)).replace("\n", "\r\n").replace("3\r\n    ]", "x\r\n    ]"),
                None,
            ),
            (df.family_to_json(all_odd_family(3)).replace("\n", "\r\n"), None),
            (df.family_to_lines(all_odd_family(3)).replace("\n", "\r\n"), None),
            ("1 2\r\n2 1\r\n", None),
            ("1 2\n\n2 1\n", None),
            (" {", None),
            ("{", None),
            ("", None),
            (" \n", None),
            ("-", None),
            ("-", 4),
            ("1 2\n5\n", 3),
            ("\ufeff1\n", None),
        ],
    )
    def test_same_outcome_as_the_whole_text_read(self, capsys, tmp_path, data, n):
        path = tmp_path / "f"
        path.write_bytes(data.encode())
        self.check_file(capsys, path, n)

    def test_missing_file_and_directory(self, capsys, tmp_path):
        for path in (tmp_path / "nope", tmp_path):
            assert self.check_file(capsys, path).startswith(f"cannot read {path}: [Errno")


class TestClassify:
    def test_catalog_family(self, capsys, catalog_file):
        code, out, _ = run_cli(capsys, "classify", "--file", catalog_file)
        assert code == 0
        assert out.splitlines() == ["sc = {3,4}", "GENERATED"]

    def test_all_odd(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text(df.family_to_lines(all_odd_family(4)))
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
        code, _, err = run_cli(capsys, "enumerate", "--n", "8")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "classes, sha",
        [
            (False, "781a4514b511432e22629e3f1a6b8c3645ef6284600fef3faa3d77dbb6c0d390"),
            (True, "2adafac51384497eaa5615bfc8c1823ac3dc7701af5c1082c6d7fdb0202fb1fd"),
        ],
        ids=["plain", "classes"],
    )
    def test_n5_node_count_on_stderr_only(self, capsys, classes, sha):
        # the digests are of the stdout of the search with the count bound alone
        code, out, err = run_cli(capsys, "enumerate", "--n", "5", *(["--classes"] if classes else []))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha
        assert re.fullmatch(r"enumerated n=5 in \d+\.\d{3}s, 376 nodes\n", err)


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

    @pytest.mark.parametrize(
        "flag, value",
        [("--p-max", "1.5"), ("--p-min", "-0.1"), ("--p-max", "nan"), ("--p-min", "2")],
    )
    def test_probability_outside_unit_interval_names_its_flag(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "threshold", "--n", "4", flag, value, "--trials", "5")
        assert code == 2 and out == ""
        assert err == f"error: {flag} {float(value)} outside [0, 1]\n"

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "threshold", "--n", "3", "--p-min", "0.9", "--p-max", "0.1"
        )
        assert code == 2


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
                "counts": {name: len(sub) for name, sub in zip(df.CLASS_NAMES, split)},
                "classes": {
                    name: oracle_set_lists(sub) for name, sub in zip(df.CLASS_NAMES, split)
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
            "counts": {name: len(sub) for name, sub in zip(df.CLASS_NAMES, split)},
            "classes": {name: oracle_set_lists(sub) for name, sub in zip(df.CLASS_NAMES, split)},
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
            ("--n", "3", "--steps", "1", "--trials", "5"),
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
        "option",
        [("--jobs", "2"), ("--cache-dir", "x"), ("--budget", "1")],
        ids=["jobs", "cache-dir", "budget"],
    )
    def test_removed_enumerate_option_is_usage_error(self, capsys, option):
        assert run_cli(capsys, "enumerate", "--n", "3", *option)[0] == 2

    def test_removed_threshold_option_is_usage_error(self, capsys):
        assert run_cli(capsys, "threshold", "--n", "3", "--steps", "1", "--independent")[0] == 2

    def test_shared_parser_matches_a_fresh_one(self, capsys):
        # a usage error, then a valid call, then another subcommand, all on
        # the one parser of this process, against a freshly built parser each
        calls = [
            ("threshold", "--n", "3", "--steps", "1", "--independent"),
            ("threshold", "--n", "3", "--steps", "3", "--trials", "5"),
            ("generate", "--n", "4", "--sc", "3,4"),
        ]
        shared = [run_cli(capsys, *argv) for argv in calls]
        assert build_parser() is build_parser()
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 0]

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


def private_serialization_names(source: str) -> list[str]:
    """The ``_``-prefixed names that a module's ``source`` takes from
    ``deltafree.serialization``: imported from it, or read off it as an
    attribute of a name it is bound to."""
    tree = ast.parse(source)
    module_names, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = ("." * node.level) + (node.module or "")
            for alias in node.names:
                if target in (".serialization", "deltafree.serialization") and alias.name.startswith("_"):
                    found.append(alias.name)
                elif target in (".", "deltafree") and alias.name == "serialization":
                    module_names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "deltafree.serialization":
                    module_names.add(alias.asname or "deltafree")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            base = node.value
            if isinstance(base, ast.Attribute) and base.attr == "serialization":
                base = base.value  # deltafree.serialization._name
            if isinstance(base, ast.Name) and base.id in module_names:
                found.append(node.attr)
    return found


class TestFormatBoundary:
    """The file format is ``serialization``'s alone: the CLI reaches it
    only through public names, so format code cannot move back into it."""

    def test_cli_uses_no_private_serialization_name(self):
        assert private_serialization_names(Path(df.cli.__file__).read_text()) == []

    @pytest.mark.parametrize(
        "source, names",
        [
            ("from .serialization import _framing, render_text", ["_framing"]),
            ("from deltafree.serialization import (\n    _read_text as r,\n)", ["_read_text"]),
            ("from . import serialization as s\ns._EMIT_SLICE", ["_EMIT_SLICE"]),
            ("import deltafree.serialization\ndeltafree.serialization._SPARE", ["_SPARE"]),
            ("from .core import _CHECKS\nfrom .serialization import read_family", []),
        ],
    )
    def test_the_check_sees_each_way_in(self, source, names):
        assert private_serialization_names(source) == names
