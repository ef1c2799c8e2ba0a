"""deltafree benchmark: one run of one workload, from a checkout's root.

    python3 bench/run.py --workload pipeline|catalog|survival|all \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics.  Set-up is timed over
several fresh interpreters; the seeded schedule then runs in one fresh
worker process (closed loop, one caller, numpy/BLAS pinned to one thread),
and the n = 21 known-hang probe runs last in its own process under a fixed
deadline, outside ``wall_s`` and the percentiles.  ``wall_s`` and the op
percentiles are read from the fastest third of each op class's samples
(``quiet_samples``) and scaled by the run's ``pace``, measured with a
calibration kernel between ops.  The line above the JSON gives the times
as measured, unscaled.

``--trace 1`` measures the per-layer metrics: a schedule of half the length
runs once untraced and once with span wrappers (``tracer.py``) in two fresh
workers.  Their stdout digests must agree, and the ratio of their
``wall_s`` is the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts ops whose
output was wrong or that raised; ``failed_share`` also counts a probe that
missed its deadline, which is the known n = 21 hang at this commit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import select
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
WORKLOADS = ("pipeline", "catalog", "survival")

SETUP_SAMPLES = 5
QUIET_SHARE = 1 / 3
KERNEL_REFERENCE_S = 0.0063  # workloads.calibrate() on the reference box, quiet
PROBE_N = 21
PROBE_DEADLINE_S = 3.0  # the spectral fix should need well under a second
PROBE_BUILD_TIMEOUT_S = 60.0
WORKER_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "failed_share": "share",
    "peak_rss_mb": "MB",
    "n21_check_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("gops_per_s"):
        return "Gop/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("self_s"):
        return "s"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("DELTAFREE_JOBS", None)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Child:
    """A worker process that is always killed and reaped on exit."""

    def __init__(self, args: list[str], env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT
        )
        self._pending = b""

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def readline(self, timeout: float) -> str | None:
        """The next stdout line ("" at end of output), or None on timeout.

        Reads the pipe unbuffered, so a line that arrived together with the
        previous one is never hidden from select() in a reader's buffer.
        """
        deadline = perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._pending:
            left = deadline - perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line.decode().strip()


def time_setup(common: list[str], env: dict[str, str]) -> float:
    """Median time from process start to ready-for-the-first-op."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        with Child([*common, "--setup-only"], env) as child:
            line = child.readline(WORKER_TIMEOUT_S)
            elapsed = perf_counter() - start
        if line != "ready":
            raise RuntimeError("set-up probe did not become ready")
        if i:  # the first start also writes bytecode caches
            samples.append(elapsed)
    return statistics.median(samples)


def run_worker(common: list[str], env: dict[str, str], trace: bool) -> dict:
    with Child([*common, *(["--trace"] if trace else [])], env) as child:
        out, _ = child.proc.communicate(timeout=WORKER_TIMEOUT_S)
        if child.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {child.proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def run_probe(seed: int, env: dict[str, str]) -> tuple[float, str]:
    """n = 21 probe: seconds from family built to answer (or deadline kill),
    and its outcome: "pass", "wrong" or "deadline"."""
    sc = random.Random(f"probe-{seed}").randrange(0, (1 << PROBE_N) - 1)
    with Child(["--probe", str(PROBE_N), str(sc)], env) as child:
        if child.readline(PROBE_BUILD_TIMEOUT_S) != "ready":
            raise RuntimeError("n=21 probe failed to build its family")
        start = perf_counter()
        answer = child.readline(PROBE_DEADLINE_S)
        if answer is None:
            child.proc.kill()
        child.proc.wait()
        elapsed = perf_counter() - start
    if answer is None:
        return elapsed, "deadline"
    return elapsed, "pass" if answer == "True" else "wrong"


def machine() -> str:
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={metadata.version('numpy')} machine={platform.machine()}"
    )


def quiet_samples(classes: list[str], seconds: list[float]) -> list[tuple[float, float]]:
    """(op seconds, weight) for the fastest third of each op class's samples.

    Ops of one class cost the same up to noise.  On a shared machine,
    neighbours slow a process by 10-40 % for seconds at a time, so the
    fastest samples of a class show the program's own pace and vary far
    less from run to run than all samples do.  Each kept sample stands for
    len(class) / len(kept) ops, so the op mix of the run is preserved.
    """
    by_class: dict[str, list[float]] = {}
    for cls, sec in zip(classes, seconds):
        by_class.setdefault(cls, []).append(sec)
    samples = []
    for values in by_class.values():
        kept = sorted(values)[: math.ceil(len(values) * QUIET_SHARE)]
        samples.extend((sec, len(values) / len(kept)) for sec in kept)
    return sorted(samples)


def pace(report: dict) -> float:
    """How slow the machine ran: the calibration kernel's quiet time in this
    run over its time on the reference box.  Whole runs can fall in a slow
    spell, which the quiet samples alone cannot see; dividing op times by
    the pace takes most of it out."""
    kernel = sorted(report["kernel"])
    quiet = kernel[: math.ceil(len(kernel) * QUIET_SHARE)]
    return statistics.fmean(quiet) / KERNEL_REFERENCE_S


def quiet_wall(report: dict) -> float:
    """Seconds the run's ops take at the pace of their quiet samples, scaled
    to the reference box."""
    samples = quiet_samples(report["classes"], report["seconds"])
    return sum(sec * weight for sec, weight in samples) / pace(report)


def percentile(samples: list[tuple[float, float]], q: float) -> float:
    """Weighted nearest-rank percentile: a latency that was actually measured."""
    target = q * sum(weight for _, weight in samples)
    seen = 0.0
    for sec, weight in samples:
        seen += weight
        if seen >= target - 1e-9:
            return sec
    return samples[-1][0]


def end_to_end(workload: str, seed: int, common: list[str], env: dict[str, str]) -> dict:
    setup_s = time_setup(common, env)
    report = run_worker(common, env, trace=False)
    probe_s, outcome = run_probe(seed, env)
    samples = quiet_samples(report["classes"], report["seconds"])
    scale = pace(report)
    ops = len(report["seconds"])
    failed = len(report["errors"]) + (outcome == "wrong")
    attempted = ops + 1
    print(f"# {workload} seed={seed}: {ops} timed ops ({ops - math.ceil(0.9 * ops)} beyond op_p90_ms) "
          f"in {len(set(report['classes']))} classes, {sum(report['seconds']):.3f} s as measured, "
          f"{len(samples)} quiet samples, pace {scale:.3f} from {len(report['kernel'])} kernel runs; "
          f"n=21 probe {outcome}", flush=True)
    metrics = {
        "setup_s": setup_s,
        "wall_s": quiet_wall(report),
        "op_p50_ms": percentile(samples, 0.5) * 1e3 / scale,
        "op_p90_ms": percentile(samples, 0.9) * 1e3 / scale,
        "failed_share": (failed + (outcome == "deadline")) / attempted,
        "peak_rss_mb": report["peak_rss_mb"],
        "n21_check_s": probe_s,
    }
    return {"errors": report["errors"], "attempted": attempted, "failed": failed,
            "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}}


def per_layer(workload: str, seed: int, common: list[str], env: dict[str, str]) -> dict:
    base = run_worker(common, env, trace=False)
    traced = run_worker(common, env, trace=True)
    errors = base["errors"] + traced["errors"]
    same = traced["digests"] == base["digests"]
    if not same:
        errors.append("traced stdout digests differ from the untraced run")
    layers = traced["layers"]
    layers["trace.overhead_share"] = quiet_wall(traced) / quiet_wall(base) - 1
    print(f"# {workload} seed={seed}: {len(traced['digests'])} traced ops, "
          f"digests {'match' if same else 'DIFFER'}", flush=True)
    return {"errors": errors, "attempted": len(traced["digests"]), "failed": len(errors),
            "metrics": {k: (v, layer_unit(k)) for k, v in layers.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "deltafree" / "__init__.py").is_file():
        print(f"error: no deltafree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    print(f"# machine: {machine()}", flush=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        # A traced run runs the schedule twice, so each pass gets half the time.
        seconds = args.seconds / 2 if args.trace else args.seconds
        common = ["--workload", workload, "--seed", str(args.seed),
                  "--seconds", str(seconds), "--workdir", str(workdir)]
        measure = per_layer if args.trace else end_to_end
        result = measure(workload, args.seed, common, env)
        for error in result["errors"]:
            print(f"FAILED {error}", file=sys.stderr)
        for name, (value, unit) in result["metrics"].items():
            print(f"#   {workload:<8} {name:<34} {value:>16.6f} {unit}")
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
