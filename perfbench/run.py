"""Benchmark of mtopt: time each workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload triad-selective --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

Run it from the root of a checkout. It imports ``mtopt`` from ``src/`` next
to this directory, writes only under ``perfbench/out/``, and prints one JSON
object as the last line of its output. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread per process: a sweep's two workers then keep both cores
# busy and no more, and every workload times the same single-threaded kernels.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parser():
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", help="workload name, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="how long one workload measures (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics; 1: per-layer metrics (all: both)")
    p.add_argument("--update-digests", action="store_true",
                   help="store this run's sha256 digests as the reference")
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    return p


def _run_all(args, workloads, seconds) -> int:
    """Each workload in a fresh process, untraced and traced; one table at the end."""
    traces = (0, 1) if args.trace is None else (args.trace,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads:
        for trace in traces:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            if args.update_digests and trace == 0:
                cmd.append("--update-digests")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{name} trace={trace}: no result (exit {proc.returncode})", file=sys.stderr)
                total["correct"] = False
                code = code or 1
                continue
            code = code or proc.returncode
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    sys.path.insert(0, HERE)
    if args.write_spec:
        from spec import benchmark_json
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            fh.write(benchmark_json())
        return 0
    if not os.path.isfile(os.path.join(SRC, "mtopt", "__init__.py")):
        print(f"perfbench: no mtopt sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    from spec import RUN_SECONDS
    from workloads import WORKLOADS
    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    if args.workload == "all":
        return _run_all(args, list(WORKLOADS), seconds)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.trace is None:
        args.trace = 0

    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, SRC)
    import measure
    return measure.main(WORKLOADS[args.workload], args.seed, seconds, args.trace,
                        args.update_digests)


if __name__ == "__main__":
    sys.exit(main())
