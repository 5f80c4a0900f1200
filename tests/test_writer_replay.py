"""Drawn runs, written through ``RunWriter``, replay from their own steps.csv.

``perfbench/replay.py`` reads only the CSV text. On each draw it checks the
forward and backward counts of every method; for SELECTIVE, the only method
that re-partitions, it also checks every affinity row bit for bit and every
logged partition. Draws cover both model families, 2 to 5 tasks, every
update order, both optimizers, any decay rate and tasks weighted 0. A task
weighted 0 changes nothing in its singleton sub-step, so its tracker row
stays exactly 0.0, which puts the grouping's strict edge test
``min(d, d^T) > 0`` on its boundary.
"""

import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtopt.benchmarks import QuadraticSpec, RegressionSuiteSpec, gen_quadratic_suite, gen_regression_suite
from mtopt.grouping import ORDERS, make_partition
from mtopt.models import build_shared_trunk
from mtopt.optim import METHOD_JOINT, METHOD_SELECTIVE, METHODS, TrainConfig, train
from mtopt.runio import RunWriter
from tests.test_perfbench_names import PERFBENCH

ITERS = 12


@pytest.fixture(scope="module")
def replay():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        mp.syspath_prepend(PERFBENCH)
        import replay
        yield replay


def drawn_model(family: str, k: int, seed: int):
    """A k-task model of the family and ``ITERS`` batches for it."""
    if family == "quadratic":
        model, batch = gen_quadratic_suite(QuadraticSpec(k=k, seed=seed))
        return model, [batch] * ITERS
    ds, suite = gen_regression_suite(RegressionSuiteSpec(k=k, n_train=64, n_eval=1, seed=seed))
    model = build_shared_trunk(4, 1, suite, seed=seed, in_dim=ds.train_x.shape[1])
    return model, ds.stream(8, ITERS, seed)


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(["quadratic", "mlp"]), k=st.integers(2, 5),
       method=st.sampled_from(METHODS), order=st.sampled_from(ORDERS),
       optimizer=st.sampled_from(["sgd", "adam"]), beta=st.floats(1e-3, 0.999),
       seed=st.integers(0, 2 ** 16),
       zero_weights=st.lists(st.booleans(), min_size=5, max_size=5))
def test_written_runs_replay_from_their_steps(replay, family, k, method, order, optimizer, beta,
                                              seed, zero_weights):
    weights = {tid: 0.0 if zero else 1.0 for tid, zero in zip(range(1, k + 1), zero_weights)}
    cfg = TrainConfig(method=method, eta=0.05, beta=beta, iters=ITERS, optimizer=optimizer,
                      seed=seed, order_mode=order, weights=weights, random_groups=2,
                      fixed_partition=make_partition([(1,), tuple(range(2, k + 1))]))
    model, batches = drawn_model(family, k, seed)
    with tempfile.TemporaryDirectory() as out:
        with RunWriter(out) as writer:
            train(model, batches, cfg, writer.sink("main"))
        rows = {name: replay.read_rows(os.path.join(out, f"{name}.csv"))
                for name in ("steps", "affinity", "groups")}
    steps = replay.iterations(rows["steps"])
    assert len(steps) == ITERS
    assert replay.count_problems(steps, method == METHOD_JOINT) == []
    if method != METHOD_SELECTIVE:
        return
    replayed, partitions = replay.replay_affinity(steps, k, cfg.beta)
    assert replay.compare_affinity(replayed, rows["affinity"], rel=0.0) == []
    assert replay.compare_partitions(partitions, rows["groups"], k) == []
