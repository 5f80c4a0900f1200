"""Every ``mtopt`` name the benchmark harness looks up still resolves.

``perfbench/`` imports functions from ``mtopt`` by name and wraps those in
``tracer.TRACED``, and its output checks read model fields. A change in
``src/`` that breaks one of them fails here, not only when the benchmark runs.
"""

import os
import sys

import pytest

from mtopt.benchmarks import QuadraticSpec, gen_quadratic_suite
from mtopt.models import Batch
from mtopt.optim import METHOD_SELECTIVE, TrainConfig, train

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
    for tid, loss in model.forward_all(None).items():
        assert recomputed[tid] == pytest.approx(loss, rel=checks.LOSS_REL_TOL)
