"""Command-line front end.

Subcommands: ``generate`` (build a family from its defining set),
``check`` (test a family file against a freeness definition), ``classify``
(recover and verify the defining set), ``enumerate`` (exhaustive search),
``partition`` (four-class split against a reference set), ``threshold``
(survival sweep).  Exit codes: 0 the property holds / success, 1 the
property fails (a witness is printed), 2 usage or parse error.

Output on stdout is byte-deterministic for fixed arguments; timings go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .construction import Generator, generate_family, recognize_generator
from .core import _CHECKS, Family, elements_of
from .enumeration import EnumerationBudgetError, enumerate_maximum_families
from .experiments import DEFINITIONS, ExperimentConfig, estimate_survival
from .partition import ALL_CLASSES, partition_family
from .serialization import (
    INLINE_JSON_STYLE,
    LINES_STYLE,
    family_from_json,
    family_from_lines,
    family_to_json,
    family_to_lines,
    format_element_set,
    parse_element_set,
    render_sets,
)


class CliError(Exception):
    """Usage-level failure; maps to exit code 2."""


def _json_text(value: object, pad: str = "") -> str:
    """``json.dumps(value, indent=2)``, except that a list of ints prints on
    one line, ``[1, 2]``, and a Family prints as the list of its member
    sets, each on one line."""
    inner = pad + "  "
    if isinstance(value, Family):
        items = render_sets(value._arr.tolist(), INLINE_JSON_STYLE)
    elif isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{json.dumps(key)}: {_json_text(v, inner)}" for key, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    elif isinstance(value, list):
        if all(type(v) is int for v in value):
            return "[" + ", ".join(map(str, value)) + "]"
        items = [_json_text(v, inner) for v in value]
    else:
        return json.dumps(value)
    if not items:
        return "[]"
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _load_family(path: str, n: int | None) -> Family:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    try:
        if text.lstrip().startswith("{"):
            family = family_from_json(text)
            if n is not None and n != family.n:
                raise ValueError(f"--n {n} contradicts file ground size {family.n}")
            return family
        return family_from_lines(text, n)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _emit_family(family: Family, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(family_to_json(family))
    else:
        sys.stdout.write(family_to_lines(family))


def cmd_generate(args: argparse.Namespace) -> int:
    sc = parse_element_set(args.sc, args.n)
    gen = Generator(args.n, sc)
    _emit_family(generate_family(gen), args.format)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    family = _load_family(args.file, args.n)
    predicate, witness_fn = _CHECKS[args.definition]
    tag = "" if args.definition == "pairwise" else f"({args.definition})"
    if predicate(family):
        print(f"FREE{tag}")
        return 0
    witness = witness_fn(family)
    print(f"NOT-FREE{tag}")
    if witness is not None:
        print("\n".join(["witness:", *render_sets(witness, LINES_STYLE)]))
    return 1


def cmd_classify(args: argparse.Namespace) -> int:
    family = _load_family(args.file, args.n)
    gen = recognize_generator(family)
    if gen is None:
        print("NOT-GENERATED")
        return 1
    print(f"sc = {format_element_set(gen.sc)}")
    print("GENERATED")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    report = enumerate_maximum_families(args.n, budget=args.budget)
    payload: dict = {
        "n": report.n,
        "total": report.total,
        "all_generated": report.all_generated,
    }
    if args.classes:
        payload["class_sizes"] = list(report.class_sizes)
    payload["families"] = list(report.families)
    print(_json_text(payload))
    print(f"enumerated n={report.n} in {report.elapsed:.3f}s", file=sys.stderr)
    return 0 if report.all_generated else 1


def cmd_partition(args: argparse.Namespace) -> int:
    family = _load_family(args.file, args.n)
    t = parse_element_set(args.t, family.n)
    split = partition_family(family, t)
    names = {pair: f"{pair.card.name.lower()}_{pair.trace.name.lower()}" for pair in ALL_CLASSES}
    payload = {
        "n": family.n,
        "t": list(elements_of(t)),
        "counts": {names[pair]: split.counts[pair] for pair in ALL_CLASSES},
        "classes": {names[pair]: split.subfamilies[pair] for pair in ALL_CLASSES},
    }
    print(_json_text(payload))
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise CliError("--steps must be >= 1")
    if args.steps == 1:
        grid = [args.p_min]
    else:
        span = args.p_max - args.p_min
        grid = [args.p_min + span * (i / (args.steps - 1)) for i in range(args.steps)]
        grid[-1] = args.p_max
    try:
        cfg = ExperimentConfig(
            n=args.n,
            p_grid=tuple(grid),
            trials=args.trials,
            seed=args.seed,
            definition=args.definition,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    curve = estimate_survival(cfg, coupled=not args.independent)
    if args.format == "json":
        payload = {
            "n": cfg.n,
            "definition": cfg.definition,
            "seed": cfg.seed,
            "coupled": not args.independent,
        }
        payload.update(curve.as_json_dict())
        print(_json_text(payload))
    else:
        sys.stdout.write(curve.as_csv())
        crossing = "none" if curve.crossing is None else f"{curve.crossing}"
        print(f"p_half={crossing}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltafree",
        description="Construct, check, classify, enumerate, partition, and "
        "randomly probe symmetric-difference-free set families.",
    )
    parser.add_argument("--version", action="version", version=f"deltafree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build the family defined by a set")
    p.add_argument("--n", type=int, required=True, help="ground size")
    p.add_argument(
        "--sc",
        default="",
        help="defining set, e.g. '3,4,5'; empty for the all-odd family",
    )
    p.add_argument("--format", choices=("lines", "json"), default="lines")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="test a family file for a freeness property")
    p.add_argument("--file", required=True)
    p.add_argument("--definition", choices=sorted(_CHECKS), default="pairwise")
    p.add_argument("--n", type=int, default=None, help="ground size override")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="recover and verify the defining set")
    p.add_argument("--file", required=True)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="exhaustively list maximum families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", action="store_true", help="include isomorphism class sizes")
    p.add_argument("--budget", type=float, default=None, help="time budget in seconds")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("partition", help="four-class parity split against --t")
    p.add_argument("--file", required=True)
    p.add_argument("--t", required=True, help="reference set, e.g. '1,2,3'")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("threshold", help="survival curve over a probability grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--definition", choices=sorted(DEFINITIONS), default="pairwise")
    p.add_argument(
        "--independent",
        action="store_true",
        help="fresh draws per grid point instead of coupled ones",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_threshold)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, EnumerationBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so the interpreter's final flush cannot fail again, and
        # exit as a process killed by SIGPIPE would: 128 + 13.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)
