"""Metric table of the benchmark; ``run.py --write-spec`` renders BENCHMARK.json from it."""

from __future__ import annotations

import json

from workloads import WORKLOADS

RUN_SECONDS = 25

# (name, unit, better, bound). The bounds are shares of the parent's median;
# README.md says how they were set.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("iter_ms_p95", "ms", "lower", 0.25),
    ("train_iters_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("rundir_mb", "MB", "lower", 0.2),
]

PER_LAYER = [
    ("benchmarks.gen_ms", "ms", "lower"),
    ("benchmarks.stream_ms_per_iter", "ms", "lower"),
    ("tensor.evaluate_ms_per_iter", "ms", "lower"),
    ("tensor.backward_ms_per_iter", "ms", "lower"),
    ("tensor.matmul_gflop_per_iter", "GFLOP", "lower"),
    ("tensor.gflop_per_s", "GFLOP/s", "higher"),
    ("models.forward_ms_per_iter", "ms", "lower"),
    ("models.backward_ms_per_iter", "ms", "lower"),
    ("models.forward_calls_per_iter", "count", "lower"),
    ("models.backward_calls_per_iter", "count", "lower"),
    ("optim.apply_ms_per_iter", "ms", "lower"),
    ("optim.step_self_ms_per_iter", "ms", "lower"),
    ("affinity.update_ms_per_iter", "ms", "lower"),
    ("affinity.rows_per_iter", "count", "lower"),
    ("grouping.partition_ms_per_iter", "ms", "lower"),
    ("grouping.groups_per_iter", "count", "lower"),
    ("runio.write_ms", "ms", "lower"),
    ("runio.rows", "count", "lower"),
    ("analysis.summarize_ms", "ms", "lower"),
    ("experiments.eval_ms", "ms", "lower"),
    ("experiments.cell_s_p50", "s", "lower"),
    ("cli.parallel_efficiency", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> str:
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
