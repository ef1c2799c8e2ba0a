"""The three benchmark workloads: how each run's ops are drawn from the seed,
how each op is executed and timed, and how its output is checked.

Every op is one call to ``deltafree.cli.main(argv)`` with stdout captured,
or (for the class census, which the CLI cannot reach) one call chain of
module-level ``deltafree`` functions.  Functions are looked up on their
modules at call time, so the tracer's wrappers are seen.

An op is checked twice: against the exit code and stdout digest stored in
``reference.json`` (written by ``make_reference.py``), and against what the
theory says its output must be.  Any mismatch or exception fails the op.

Why these workloads:

* ``pipeline`` - file round trips on maximum families, n = 12..16 and 18.
  Serialization, ``Family`` construction at 2^11..2^17 members, the Walsh
  checkers and the CLI's JSON printing do the work; enumeration and the
  experiments do none.  Small n dominates the op count and n = 18 is one
  job per block, so the op percentiles see many ops while the few huge
  families still set ``peak_rss_mb`` and most of ``wall_s``.  Half of the
  lines files at n <= 14 get one extra word, so ``check`` exits 1
  and scans for a witness.
* ``catalog`` - exhaustive verification: ``enumerate --n 3/4/5 --classes``
  and a class census (``canonical_form`` + ``recognize_generator``) of every
  generated family at n = 6 and 7 plus one family per class at n = 8.
  Enumeration DFS and the canonical form do the work, on families of at
  most 128 members, with no files.
* ``survival`` - coupled ``threshold`` sweeps at n = 4, 6, 8, 10 under the
  pairwise, quadruple and union definitions.  Splitmix draws and tens of
  thousands of tiny ``Family`` constructions and small-scan checks do the
  work: ``core`` used the opposite way to ``pipeline``.

No op uses ``--jobs``, ``--cache-dir``, ``--independent`` or
``DELTAFREE_JOBS``, which the roadmap plans to delete.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from deltafree import cli, construction, enumeration

# Seconds one block of each workload typically takes on the reference machine
# (2 vCPU, Python 3.11.7, numpy 2.4.6; neighbours there slow it by up to
# 40 %, so a run may take longer).  A run executes
# round(seconds / block) blocks, so at this commit a run lasts about
# --seconds and a faster program finishes the same work sooner.  Every block
# holds the same op classes, so each class gets samples spread over the run;
# run.py reads timings from the fastest third of each class.
BLOCK_SECONDS = {"pipeline": 12.0, "catalog": 2.3, "survival": 0.6}

# Jobs per pipeline block, by ground size; n = 18 stays one job in 17.  There
# is no n = 17 job: it would add 4-5 s to a block, and two blocks (so that
# every class has two samples) must fit in a run.
PIPELINE_BLOCK = {12: 8, 13: 4, 14: 2, 15: 1, 16: 1, 18: 1}
# Sizes whose lines files may get an extra word (the witness scan is pure
# Python, so larger sizes would turn the job into a scan benchmark).
CORRUPTIBLE = (12, 13, 14)
CATALOG_FULL = (6, 7)  # every generated family is censused
CATALOG_SAMPLED = 8  # one family per class, seeded
ENUMERATE_N = (3, 4, 5)
# (n, trials, p_max): trials sized so each sweep takes about 0.1 s, p_max so
# the 21-point grid spans the drop of the survival curve at that n.
SURVIVAL_SWEEPS = ((4, 200, 1.0), (6, 100, 0.5), (8, 30, 0.2), (10, 10, 0.1))
SURVIVAL_DEFINITIONS = ("pairwise", "quadruple", "union")
SURVIVAL_STEPS = 21

CALIBRATE_EVERY_S = 0.25

_COUNTS = re.compile(r'"counts": \{([^}]*)\}')


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class OpResult:
    cls: str  # ops of one class cost the same up to noise
    key: str
    seconds: float
    code: int | None
    digest: str
    stdout_bytes: int
    error: str | None


class Oracle:
    """Reference exit codes and digests; ``table=None`` records them instead."""

    def __init__(self, table: dict[str, list] | None) -> None:
        self.table = table
        self.recorded: dict[str, list] = {}

    def compare(self, key: str, code: int, dig: str) -> str | None:
        got = [code, dig]
        if self.table is None:
            want = self.recorded.setdefault(key, got)
            return None if want == got else f"{key}: output differs between two runs"
        want = self.table.get(key)
        if want is None:
            return f"{key}: no reference output"
        if want != got:
            return f"{key}: exit {code} digest {dig}, reference exit {want[0]} digest {want[1]}"
        return None


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds


def _cli_op(cls: str, key: str, argv: list[str], oracle: Oracle, theory) -> tuple[OpResult, str]:
    """Run one CLI op; ``theory(code, stdout)`` returns an error or None."""
    try:
        code, text, seconds = run_cli(argv)
        problem = theory(code, text)
    except Exception as exc:  # a crashing op is a failed op, not a crashed run
        return OpResult(cls, key, 0.0, None, "", 0, f"{key}: raised {exc!r}"), ""
    dig = digest(text)
    error = f"{key}: {problem}" if problem else oracle.compare(key, code, dig)
    return OpResult(cls, key, seconds, code, dig, len(text), error), text


# ---------------------------------------------------------------- helpers


def in_generated(word: int, n: int, sc: int) -> bool:
    """Membership in A(sc): odd intersection with s = ground minus sc."""
    s = ((1 << n) - 1) ^ sc
    return (word & s).bit_count() % 2 == 1


def parse_set(line: str) -> int:
    if line == "-":
        return 0
    return sum(1 << (int(tok) - 1) for tok in line.split())


def format_set(word: int) -> str:
    elems = [str(i + 1) for i in range(word.bit_length()) if word >> i & 1]
    return " ".join(elems) if elems else "-"


def _witness(text: str, header: str) -> tuple[int, ...] | None:
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != header or lines[1] != "witness:":
        return None
    return tuple(parse_set(line) for line in lines[2:])


# ---------------------------------------------------------------- pipeline


@dataclass(frozen=True)
class PipelineJob:
    n: int
    sc: int
    t: int
    extra: int  # non-member word appended to the lines file when corrupt
    corrupt: bool

    @property
    def stem(self) -> str:
        return f"pipeline/n{self.n}/sc{self.sc}"


def pipeline_schedule(seed: int, seconds: float, pool: dict[str, list[dict]]) -> list[list[PipelineJob]]:
    rng = random.Random(seed)
    blocks: list[list[PipelineJob]] = []
    for _ in range(_blocks("pipeline", seconds)):
        block: list[PipelineJob] = []
        for n, count in PIPELINE_BLOCK.items():
            corrupt = [i < count // 2 for i in range(count)] if n in CORRUPTIBLE else [False] * count
            rng.shuffle(corrupt)
            for bad in corrupt:
                spec = rng.choice(pool[str(n)])
                block.append(PipelineJob(n, spec["sc"], spec["t"], spec["extra"], bad))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def run_pipeline_job(job: PipelineJob, workdir: Path, oracle: Oracle, between=lambda: None) -> list[OpResult]:
    """The job's six ops; ``between()`` runs after each op, outside its timing."""
    n, sc = job.n, job.sc
    quarter = 1 << (n - 3)
    lines_file = workdir / "family.txt"
    json_file = workdir / "family.json"
    sc_arg = ",".join(str(i + 1) for i in range(n) if sc >> i & 1)
    t_arg = ",".join(str(i + 1) for i in range(n) if job.t >> i & 1)
    variant = "corrupt" if job.corrupt else "clean"
    results: list[OpResult] = []

    def op(name: str, key: str, argv: list[str], theory) -> str:
        res, text = _cli_op(f"n{n}/{name}", f"{job.stem}/{key}", argv, oracle, theory)
        results.append(res)
        between()
        return text

    def generated(code: int, text: str) -> str | None:
        if code != 0 or text.count("\n") < 1 << (n - 1):
            return f"generate exited {code} with {text.count(chr(10))} lines"
        return None

    text = op("generate_lines", "generate_lines", ["generate", "--n", str(n), "--sc", sc_arg], generated)
    if job.corrupt:
        text += format_set(job.extra) + "\n"
    lines_file.write_text(text)
    text = op("generate_json", "generate_json", ["generate", "--n", str(n), "--sc", sc_arg, "--format", "json"], generated)
    json_file.write_text(text)

    def pairwise(code: int, text: str) -> str | None:
        if not job.corrupt:
            return None if (code, text) == (0, "FREE\n") else "generated family is not FREE"
        w = _witness(text, "NOT-FREE")
        if code != 1 or w is None or len(w) != 2:
            return "corrupted family printed no pairwise witness"
        if not all(in_generated(x, n, sc) or x == job.extra for x in (*w, w[0] ^ w[1])):
            return "corrupted family has no valid pairwise witness"
        return None

    op(f"check_pairwise_{variant}", f"x{job.extra}/check_pairwise_{variant}", ["check", "--file", str(lines_file)], pairwise)

    def closed(code: int, text: str) -> str | None:
        # A(sc) never holds A xor A = {} so it is never closed.
        w = _witness(text, "NOT-FREE(closed)")
        if code != 1 or w is None or len(w) != 2 or in_generated(w[0] ^ w[1], n, sc):
            return "maximum family has no valid closure witness"
        return None

    op("check_closed", "check_closed", ["check", "--file", str(json_file), "--definition", "closed"], closed)

    def classified(code: int, text: str) -> str | None:
        want = (1, "NOT-GENERATED\n") if job.corrupt else (0, f"sc = {{{sc_arg}}}\nGENERATED\n")
        return None if (code, text) == want else f"classify gave {text!r}, expected {want[1]!r}"

    op(f"classify_{variant}", f"x{job.extra}/classify_{variant}", ["classify", "--file", str(lines_file)], classified)

    def partitioned(code: int, text: str) -> str | None:
        block = _COUNTS.search(text)
        counts = [int(c) for c in re.findall(r"\d+", block.group(1))] if block else []
        if code != 0 or counts != [quarter] * 4:
            return f"partition counts {counts} are not four times {quarter}"
        return None

    op("partition", f"t{job.t}/partition", ["partition", "--file", str(json_file), "--t", t_arg], partitioned)
    return results


def make_pipeline_pool(rng: random.Random, sizes: dict[int, int]) -> dict[str, list[dict]]:
    """Seeded specs per n: a nonempty proper sc, a non-degenerate t (so the
    four-class split is equal) and a non-member extra word from the middle
    of the word order (so the witness scan cost varies little)."""
    pool: dict[str, list[dict]] = {}
    for n, count in sizes.items():
        full = (1 << n) - 1
        specs = []
        while len(specs) < count:
            sc = rng.randrange(1, full)
            t = rng.randrange(1, full)
            lo = 1 << (n - 1)
            extra = rng.randrange(lo, lo + (lo >> 2))
            if t in (full ^ sc, sc) or in_generated(extra, n, sc) or any(s["sc"] == sc for s in specs):
                continue
            specs.append({"sc": sc, "t": t, "extra": extra})
        pool[str(n)] = specs
    return pool


# ---------------------------------------------------------------- catalog


def catalog_schedule(seed: int, seconds: float) -> list[list[tuple]]:
    rng = random.Random(seed)
    blocks: list[list[tuple]] = []
    for _ in range(_blocks("catalog", seconds)):
        block: list[tuple] = [("enumerate", n) for n in ENUMERATE_N]
        for n in CATALOG_FULL:
            block.extend(("census", n, sc) for sc in range((1 << n) - 1))
        n = CATALOG_SAMPLED
        for k in range(n):
            block.append(("census", n, sum(1 << i for i in rng.sample(range(n), k))))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def run_catalog_op(op: tuple, oracle: Oracle) -> OpResult:
    if op[0] == "enumerate":
        n = op[1]

        def theory(code: int, text: str) -> str | None:
            report = json.loads(text)
            classes = sorted(math.comb(n, k) for k in range(n))
            if code != 0 or report["total"] != (1 << n) - 1 or not report["all_generated"]:
                return f"enumerate found {report['total']} families"
            if report["class_sizes"] != classes:
                return f"class sizes {report['class_sizes']} are not {classes}"
            return None

        res, _ = _cli_op(f"enumerate/n{n}", f"enumerate/n{n}", ["enumerate", "--n", str(n), "--classes"], oracle, theory)
        return res

    _, n, sc = op
    key = f"canonical/n{n}/k{sc.bit_count()}"
    try:
        start = perf_counter()
        family = construction.generate_family(construction.Generator(n, sc))
        canon = enumeration.canonical_form(family)
        gen = construction.recognize_generator(family)
        seconds = perf_counter() - start
    except Exception as exc:  # a crashing op is a failed op, not a crashed run
        return OpResult(f"census/n{n}", key, 0.0, None, "", 0, f"{key}: raised {exc!r}")
    dig = digest(",".join(map(str, canon.members)))
    error = None
    if gen is None or gen.sc != sc:
        error = f"{key}: recognize_generator did not return sc={sc}"
    error = error or oracle.compare(key, 0, dig)
    return OpResult(f"census/n{n}", key, seconds, 0, dig, 0, error)


# ---------------------------------------------------------------- survival


def survival_schedule(seed: int, seconds: float, pool: dict[str, list[int]]) -> list[list[tuple]]:
    rng = random.Random(seed)
    blocks: list[list[tuple]] = []
    for _ in range(_blocks("survival", seconds)):
        block = [
            (n, trials, p_max, d, rng.choice(pool[f"{n}/{d}"]))
            for n, trials, p_max in SURVIVAL_SWEEPS
            for d in SURVIVAL_DEFINITIONS
        ]
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def run_survival_op(op: tuple, oracle: Oracle) -> OpResult:
    n, trials, p_max, definition, tseed = op
    argv = [
        "threshold", "--n", str(n), "--p-max", str(p_max), "--steps", str(SURVIVAL_STEPS),
        "--trials", str(trials), "--seed", str(tseed), "--definition", definition,
    ]

    def monotone(code: int, text: str) -> str | None:
        rows = text.splitlines()
        if code != 0 or rows[0] != "p,estimate,stderr,trials" or len(rows) != SURVIVAL_STEPS + 1:
            return "threshold printed a malformed curve"
        est = [float(row.split(",")[1]) for row in rows[1:]]
        if any(b > a for a, b in zip(est, est[1:])):
            return "coupled survival curve is not monotone"
        return None

    res, _ = _cli_op(f"n{n}/{definition}", f"threshold/n{n}/{definition}/seed{tseed}", argv, oracle, monotone)
    return res


# ---------------------------------------------------------------- driver


def _blocks(workload: str, seconds: float) -> int:
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


def build_schedule(workload: str, seed: int, seconds: float, reference: dict) -> list[list]:
    """The run's ops as blocks; every block has the same mix of op classes."""
    if workload == "pipeline":
        return pipeline_schedule(seed, seconds, reference["pipeline"])
    if workload == "catalog":
        return catalog_schedule(seed, seconds)
    return survival_schedule(seed, seconds, reference["survival"])


def calibrate() -> float:
    """Seconds for a fixed mix of the work the ops do, none of it in deltafree:
    64-bit mixing in plain Python, a small table scatter, a large array pass,
    int tuples and JSON.  Neighbours on a shared machine slow this kernel as
    they slow the ops, so run.py divides op times by its pace."""
    start = perf_counter()
    x = 12345
    for _ in range(6000):
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    words = np.fromiter(sorted({(i * 2654435761) & 1023 for i in range(800)}), dtype=np.int64)
    for _ in range(20):
        table = np.zeros(128, dtype=np.uint8)
        np.bitwise_or.at(table, words >> 3, (1 << (words & 7)).astype(np.uint8))
    big = np.arange(1 << 17, dtype=np.int64)
    big ^= big >> 3
    tuple(int(v) for v in big[:20000])
    json.dumps([[i, i + 1] for i in range(3000)])
    return perf_counter() - start


def run_block(workload: str, block: list, workdir: Path, oracle: Oracle, kernel: list[float]) -> list[OpResult]:
    """Closed loop: one caller, each op starts after the previous returns.
    Between ops, the calibration kernel runs about every CALIBRATE_EVERY_S
    seconds; its times are appended to ``kernel``."""
    last = perf_counter()

    def between() -> None:
        nonlocal last
        if perf_counter() - last >= CALIBRATE_EVERY_S:
            kernel.append(calibrate())
            last = perf_counter()

    results: list[OpResult] = []
    for item in block:
        if workload == "pipeline":
            results.extend(run_pipeline_job(item, workdir, oracle, between))
            continue
        if workload == "catalog":
            results.append(run_catalog_op(item, oracle))
        else:
            results.append(run_survival_op(item, oracle))
        between()
    return results
