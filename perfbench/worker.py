"""One workload in one fresh process (started by run.py).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 --mode run|setup

``--mode setup`` builds the workload's state, prints the monotonic clock
reading at which it was ready, and exits; run.py spawns it several times to
take the median set-up time.  ``--mode run`` then answers whole rounds and
prints its timings, counts and, when traced, the per-layer figures.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_runs"


def pinned_env():
    """This process's environment with BLAS and OpenMP pinned to one thread
    and the repository's sources first on the import path."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    args = parser.parse_args(argv)

    # BLAS and OpenMP read these once, when numpy loads; cli jobs inherit them
    os.environ.update(pinned_env())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import scipy
    import twomatrix

    if Path(twomatrix.__file__).resolve().parent != SRC / "twomatrix":
        raise SystemExit(f"imported twomatrix from {twomatrix.__file__}, not from {SRC}")

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    OUT_DIR.mkdir(exist_ok=True)
    workload = {
        "sweep": workloads.Sweep,
        "nearaxis": workloads.NearAxis,
        "traces": workloads.Traces,
        "cli": lambda: workloads.Cli(ROOT, dict(os.environ), OUT_DIR, tracer),
    }[args.workload]()
    # warm-up inputs and timed inputs come from different seed streams
    warm_rng = np.random.default_rng([args.seed, 0])
    rng = np.random.default_rng([args.seed, 1])
    workload.setup(warm_rng)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    if tracer is not None:
        tracer.phase = "loop"
    rec = workloads.Recorder()
    rounds = max(workload.min_rounds, round(args.seconds / workload.nominal_round_s))
    t0 = time.perf_counter()
    for _ in range(rounds):
        workload.run_round(rng, rec)
    out = {
        "ready": ready,
        "rounds": rounds,
        "loop_s": time.perf_counter() - t0,
        "answer_s": rec.answer_s,
        "oracle_s": rec.oracle_s,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "unexpected": rec.unexpected,
        "jobs": rec.jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpus": os.cpu_count(),
    }
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        out["layers"] = tracer.layer_metrics(rounds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
