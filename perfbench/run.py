"""Benchmark entry point: one workload per invocation.

    python3 perfbench/run.py --workload sweep|nearaxis|traces|cli
                             --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in its own fresh process
(perfbench/worker.py) with BLAS and OpenMP pinned to one thread; set-up time
is the median over that process and a few set-up-only processes.  The last
line of standard output is the result object; the line before it is the
run record (git sha, versions, thread settings, seed, sample counts), also
written to .perfbench_runs/.  With --trace 1 the metrics are the per-layer
figures instead of the end-to-end ones.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT_DIR, ROOT, SRC, pinned_env

WORKLOADS = ("sweep", "nearaxis", "traces", "cli")
# set-up-only processes per run, besides the workload process itself
# (traces needs none: its set-up runs three-factor warm-ups for seconds)
SETUP_PROBES = {"sweep": 2, "nearaxis": 2, "traces": 0, "cli": 4}
CLI_KINDS = ("avg", "avg_oracle", "biorth", "kernels", "traces", "correlations", "verify")
TAIL_BEYOND = 10  # the tail percentile leaves this many answers above it


def _spawn(cmd, env):
    """Run a child to its end; return (start clock, end clock, stdout)."""
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, check=False)
    end = time.monotonic()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return start, end, proc.stdout.decode()


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def _git_sha():
    """The checked-out commit, or None outside a git clone."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # a checkout that is not a clone must not report an enclosing repository
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _setup_seconds(args, env):
    """Set-up samples from set-up-only processes: for cli a fresh
    interpreter that imports the package and exits, otherwise the workload
    process up to the point where it is ready to answer."""
    samples = []
    for _ in range(SETUP_PROBES[args.workload]):
        if args.workload == "cli":
            start, end, _ = _spawn([sys.executable, "-c", "import twomatrix"], env)
            samples.append(end - start)
        else:
            start, _, out = _spawn(_worker_cmd(args, "setup"), env)
            samples.append(_last_json(out)["ready"] - start)
    return samples


def _worker_cmd(args, mode):
    return [
        sys.executable,
        str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
    ]


def _tail(values):
    """The highest order statistic with TAIL_BEYOND values above it, and
    the percentile it stands for."""
    ordered = sorted(values)
    idx = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def _cli_layers(import_s, jobs):
    out = {"cli.import_ms": 1e3 * statistics.median(import_s) if import_s else 0.0}
    for kind in CLI_KINDS:
        runs = jobs.get(kind, [])
        out[f"cli.{kind}_ms"] = 1e3 * statistics.median(s for s, _ in runs) if runs else 0.0
        out[f"cli.{kind}_rss_mb"] = max((r for _, r in runs), default=0.0)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twomatrix" / "__init__.py").is_file():
        print(f"no twomatrix sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env = pinned_env()
    OUT_DIR.mkdir(exist_ok=True)

    # traced runs report no set-up time, except cli's import probe
    setup = _setup_seconds(args, env) if not args.trace or args.workload == "cli" else []
    start, _, out = _spawn(_worker_cmd(args, "run"), env)
    res = _last_json(out)
    if args.workload != "cli":
        setup.append(res["ready"] - start)

    answers, oracles = res["answer_s"], res["oracle_s"]
    tail, tail_pct = _tail(answers)
    if args.workload == "cli":
        peak = max(r for runs in res["jobs"].values() for _, r in runs)
    else:
        peak = res["peak_rss_mb"]
    if args.trace:
        import_s = setup if args.workload == "cli" else []
        metrics = dict(res["layers"], **_cli_layers(import_s, res["jobs"]))
        units = {}
        for name in metrics:
            units[name] = "MB" if name.endswith("_mb") else "ms" if name.endswith("_ms") else "count"
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "answers_per_s": len(answers) / sum(answers),
            "answer_p50_ms": 1e3 * statistics.median(answers),
            "answer_tail_ms": 1e3 * tail,
            "oracle_per_s": len(oracles) / sum(oracles),
            "peak_rss_mb": peak,
        }
        units = {
            "setup_s": "s",
            "answers_per_s": "1/s",
            "answer_p50_ms": "ms",
            "answer_tail_ms": "ms",
            "oracle_per_s": "1/s",
            "peak_rss_mb": "MB",
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "versions": res["versions"],
        "threads": res["threads"],
        "cpus": res["cpus"],
        "rounds": res["rounds"],
        "loop_s": res["loop_s"],
        "answers": len(answers),
        "oracle_calls": len(oracles),
        "tail_percentile": tail_pct,
        "setup_samples_s": setup,
        "unexpected_failures": res["unexpected"][:20],
    }
    result = {
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
