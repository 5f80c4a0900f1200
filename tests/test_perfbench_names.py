"""Every ``mtopt`` name the benchmark harness looks up still resolves.

``perfbench/`` imports functions from ``mtopt`` by name and wraps those in
``tracer.TRACED``, and its output checks read model fields. A change in
``src/`` that breaks one of them fails here, not only when the benchmark runs.
"""

import os
import sys

import pytest

from mtopt.benchmarks import QuadraticSpec, gen_quadratic_suite
from mtopt.config import echo_dict, parse_kv_text, validate_config
from mtopt.experiments import run_experiment
from mtopt.models import Batch
from mtopt.optim import METHOD_SELECTIVE, TrainConfig, train
from mtopt.runio import RunWriter, write_run
from tests.test_optim import Collector

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_name_perfbench_looks_up_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(PERFBENCH)
    import measure  # noqa: F401  imports checks, stamped and tracer, and their mtopt names
    import tracer

    modules = tracer._modules()
    for modname, path, _ in tracer.TRACED:
        owner, attr = tracer._resolve(modules[modname], path)
        assert attr in owner.__dict__, f"mtopt.{modname}.{path}"


def test_quadratic_loss_check_agrees_with_a_trained_model(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    import checks

    model, _ = gen_quadratic_suite(QuadraticSpec(k=4, seed=3))
    train(model, (Batch(None, {}, it) for it in range(1, 31)),
          TrainConfig(method=METHOD_SELECTIVE, eta=0.05, iters=30))
    params = {name: model.partition.block(name) for name in model.partition.block_ids(model.suite.ids)}
    assert any(params[f"task.{tid}.theta"].any() for tid in model.suite.ids)
    recomputed = checks.quadratic_losses(model, params)
    for tid, loss in enumerate(model.forward_all(None), start=1):
        assert recomputed[tid] == pytest.approx(loss, rel=checks.LOSS_REL_TOL)


def test_write_run_returns_complete_csv_paths(tmp_path, monkeypatch):
    """The tracer counts a run's rows by reading the three CSVs whose paths
    ``write_run`` returns, so every row must be on disk when it returns."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    cfg = validate_config(parse_kv_text("benchmark.kind = quadratic\nquadratic.k = 3\n"
                                        "method = SELECTIVE\niters = 7\n"))
    seen = Collector()
    with RunWriter(str(tmp_path / "run")) as writer:
        def sinks(label):
            append = writer.sink(label)
            return lambda report: (seen(report), append(report))
        paths = write_run(writer, run_experiment(cfg, sinks), echo_dict(cfg))
        rows = tracer._count("runio.write", (), paths)  # as the tracer does, before the writer exits
    assert sorted(paths) == ["affinity", "config", "groups", "steps", "summary"]
    assert all(os.path.isfile(path) for path in paths.values())
    assert len(seen.steps) == 7 and seen.affinity_rows
    steps_rows = sum(3 * (1 + len(report.substeps)) for report in seen.steps)
    assert rows == steps_rows + len(seen.affinity_rows) + len(seen.steps)


def test_tracer_installs_and_training_never_reaches_the_tape(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    cfg = validate_config(parse_kv_text("benchmark.kind = regression\nregression.preset = triad\n"
                                        "method = SELECTIVE\niters = 20\nbatch.size = 16\n"))
    reports = Collector()
    with tracer.Tracer() as t:
        run_experiment(cfg, lambda label: reports)
    tracer.assert_untraced()
    names = {span[0] for span in t.spans}
    assert {"models.forward", "models.backward", "optim.step"} <= names
    assert "tensor.evaluate" not in names and "tensor.backward" not in names
    # the per-layer affinity, grouping and optimizer metrics read these spans
    assert {"affinity.update", "grouping.partition", "optim.apply"} <= names
    # one affinity.update span per sub-step; decay_update returns tracker rows
    # as lists, not log-row tuples, so the row count the tracer takes from it
    # (affinity.rows_per_iter) is 0
    updates = [span for span in t.spans if span[0] == "affinity.update"]
    assert len(updates) == sum(len(report.substeps) for report in reports.steps)
    assert sum(span[4] for span in updates) == 0
    # one step span per iteration, every repartition inside the training loop,
    # and the group count the step spans report equals the trained one
    assert sum(span[0] == "optim.step" for span in t.spans) == 20
    for span in t.spans:
        if span[0] == "grouping.partition":
            parent = span[3]
            while parent >= 0 and t.spans[parent][0] != "optim.train":
                parent = t.spans[parent][3]
            assert parent >= 0
    mean_m = sum(report.partition.m for report in reports.steps) / len(reports.steps)
    assert tracer.layer_metrics(t.spans)["grouping.groups_per_iter"] == mean_m
