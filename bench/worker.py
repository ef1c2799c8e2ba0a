"""One fresh benchmark process: runs a workload's ops and prints a JSON result.

Started by ``run.py`` with numpy/BLAS threads pinned to 1 and ``src`` on
``PYTHONPATH``.  Modes:

* default: build the seeded schedule, run it as a closed loop and print one
  JSON line with per-op classes, durations, digests and failures, and the
  calibration kernel's times (plus per-layer
  statistics under ``--trace``);
* ``--setup-only``: do everything up to the first timed op, print ``ready``
  and exit; ``run.py`` times this from process start to measure set-up;
* ``--probe N SC``: the known-hang probe, ``is_delta_free`` on the maximum
  family of SC at ground size N.  Prints ``ready`` once the family is built, then the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"


def probe(n: int, sc: int) -> None:
    from deltafree.construction import Generator, generate_family
    from deltafree.core import is_delta_free

    family = generate_family(Generator(n, sc))
    print("ready", flush=True)
    print(is_delta_free(family), flush=True)


def layer_metrics(tracer, stdout_bytes: int) -> dict[str, float]:
    def rate(layer: str) -> float:
        st = tracer.stats[layer]
        return st.work / st.total_s if st.total_s else 0.0

    out: dict[str, float] = {}
    for layer, st in tracer.stats.items():
        out[f"{layer}.calls"] = st.calls
        out[f"{layer}.self_s"] = st.self_s
    out["cli.stdout_bytes"] = stdout_bytes
    out["serialization.read.sets_per_s"] = rate("serialization.read")
    out["serialization.write.sets_per_s"] = rate("serialization.write")
    out["core.family_init.words_per_s"] = rate("core.family_init")
    out["core.walsh.ops_computed"] = tracer.stats["core.walsh"].work
    out["core.walsh.gops_per_s"] = rate("core.walsh") / 1e9
    out["construction.generate.words_per_s"] = rate("construction.generate")
    out["enumeration.families_per_s"] = rate("enumeration.search")
    out["experiments.samples_per_s"] = rate("experiments.sweep")
    out["experiments.checker_share"] = tracer.child_share("experiments.sweep", ("core.predicate",))
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workdir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", type=int, nargs=2, metavar=("N", "SC"))
    args = parser.parse_args()
    if args.probe is not None:
        probe(*args.probe)
        return 0

    import workloads

    reference = json.loads(REFERENCE.read_text())
    schedule = workloads.build_schedule(args.workload, args.seed, args.seconds, reference)
    oracle = workloads.Oracle(reference["outputs"])
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    try:
        kernel = [workloads.calibrate()]
        results = [r for block in schedule for r in workloads.run_block(args.workload, block, workdir, oracle, kernel)]
        kernel.append(workloads.calibrate())
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    stdout_bytes = sum(r.stdout_bytes for r in results)
    report = {
        "classes": [r.cls for r in results],
        "seconds": [r.seconds for r in results],
        "kernel": kernel,
        "digests": [r.digest for r in results],
        "errors": [r.error for r in results if r.error is not None],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": None if tracer is None else layer_metrics(tracer, stdout_bytes),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
