import weakref

import numpy as np
import pytest

from mtopt import optim, runio
from mtopt.affinity import affinity_rows, loss_ratios
from mtopt.analysis import descent_eta_bound, descent_substeps
from mtopt.benchmarks import QuadraticSpec, gen_quadratic_suite, gen_regression_suite, triad_spec
from mtopt.grouping import everything, make_partition, singletons
from mtopt.models import Batch, Gradient, ModelError, TaskSuite, build_shared_trunk
from mtopt.optim import (Adam, METHOD_FIXED, METHOD_JOINT, METHOD_RANDOM,
                         METHOD_SELECTIVE, METHOD_SEPARATE, METHODS, NumericAbort,
                         PlainSGD, TrainConfig, TrainError, grad_norms, joint_step,
                         selective_group_step, train)
from tests.test_models import scalar_pair


def quad_batches(n):
    for it in range(1, n + 1):
        yield Batch(None, {}, it)


class Collector:
    """A sink that keeps every report ``train`` hands it, and each affinity
    row as (iter, substep, source, target, b_instant, b_decayed, verdict,
    skipped)."""

    def __init__(self):
        self.steps, self.affinity_rows = [], []

    def __call__(self, report):
        self.steps.append(report)
        before = report.initial_losses
        for idx, sub in enumerate(report.substeps, start=1):
            if sub.rows is None:
                break
            ratios = loss_ratios(before, sub.losses_after)
            before = sub.losses_after
            self.affinity_rows.extend((report.iteration, idx) + row
                                      for row in affinity_rows(sub.group, ratios, sub.rows))


def fresh_quadratic(seed=0, k=3, rho=None):
    return gen_quadratic_suite(QuadraticSpec(k=k, seed=seed, rho=rho))


def test_count_contract_two_groups():
    model, batch = fresh_quadratic()
    cfg = TrainConfig(method=METHOD_FIXED, eta=1e-3, iters=1, order_mode="FORWARD",
                      fixed_partition=make_partition([(1, 2), (3,)]))
    report = selective_group_step(model, batch, cfg.fixed_partition, cfg, PlainSGD(), None, 1)
    assert (report.forwards, report.backwards, report.opt_steps) == (3, 2, 2)


def test_count_contract_separate_and_joint():
    model, batch = fresh_quadratic()
    cfg = TrainConfig(method=METHOD_SEPARATE, eta=1e-3, iters=1, order_mode="FORWARD")
    report = selective_group_step(model, batch, singletons(3), cfg, PlainSGD(), None, 1)
    assert (report.forwards, report.backwards, report.opt_steps) == (4, 3, 3)

    model, batch = fresh_quadratic()
    jcfg = TrainConfig(method=METHOD_JOINT, eta=1e-3, iters=1)
    jreport = joint_step(model, batch, jcfg, PlainSGD(), 1)
    assert (jreport.forwards, jreport.backwards, jreport.opt_steps) == (1, 1, 1)


def test_joint_step_is_exact_sgd_on_weighted_sum():
    model, batch = fresh_quadratic(seed=3)
    weights = model.suite.weights()
    model.forward_all(batch)
    grads = model.backward_group((1, 2, 3), weights)
    want = model.partition.shared["shared.theta"] - 0.01 * grads["shared.theta"]
    cfg = TrainConfig(method=METHOD_JOINT, eta=0.01, iters=1)
    joint_step(model, batch, cfg, PlainSGD(), 1)
    assert model.partition.shared["shared.theta"].tobytes() == want.tobytes()


def test_joint_step_at_stationary_point_changes_nothing():
    model, batch = scalar_pair()
    model.partition.set_block("shared.theta", np.array([1.0]))  # both optima at 1
    before = model.partition.shared["shared.theta"].copy()
    cfg = TrainConfig(method=METHOD_JOINT, eta=0.1, iters=1)
    joint_step(model, batch, cfg, PlainSGD(), 1)
    assert model.partition.shared["shared.theta"].tobytes() == before.tobytes()


def test_positive_pair_step_decreases_both_losses():
    model, batch = scalar_pair()
    cfg = TrainConfig(method=METHOD_FIXED, eta=0.1, iters=1, order_mode="FORWARD",
                      fixed_partition=everything(2))
    report = selective_group_step(model, batch, everything(2), cfg, PlainSGD(), None, 1)
    after = report.substeps[-1].losses_after
    assert after[0] < report.initial_losses[0]
    assert after[1] < report.initial_losses[1]


def test_substep_never_touches_other_tasks_blocks():
    model, batch = fresh_quadratic(seed=4)
    weights = model.suite.weights()
    frozen = {name: model.partition.block(name).copy()
              for name in model.partition.per_task[3]}
    model.forward_all(batch)
    grads = model.backward_group((1, 2), weights)
    assert all(not name.startswith("task.3") for name in grads)
    PlainSGD().apply(model.partition, grads, 0.05)
    for name, before in frozen.items():
        assert model.partition.block(name).tobytes() == before.tobytes()


def _final_bytes(model):
    return {k: v.tobytes() for k, v in model.partition.all_blocks().items()}


def test_frozen_all_in_one_matches_joint_bitwise():
    run = {}
    for method, extra in ((METHOD_JOINT, {}),
                          (METHOD_FIXED, {"fixed_partition": everything(3)})):
        model, _ = fresh_quadratic(seed=7)
        cfg = TrainConfig(method=method, eta=0.02, iters=100, seed=11, **extra)
        train(model, quad_batches(100), cfg)
        run[method] = _final_bytes(model)
    assert run[METHOD_JOINT] == run[METHOD_FIXED]


def test_frozen_singletons_match_separate_bitwise():
    run = {}
    for method, extra in ((METHOD_SEPARATE, {}),
                          (METHOD_FIXED, {"fixed_partition": singletons(3)})):
        model, _ = fresh_quadratic(seed=8)
        cfg = TrainConfig(method=method, eta=0.02, iters=100, seed=11, **extra)
        train(model, quad_batches(100), cfg)
        run[method] = _final_bytes(model)
    assert run[METHOD_SEPARATE] == run[METHOD_FIXED]


def test_selective_with_hostile_affinity_degenerates_to_separate():
    # opposed targets keep all tracked affinities non-positive, so the
    # partition stays singletons and trajectories match SEPARATE exactly
    final = {}
    for method in (METHOD_SELECTIVE, METHOD_SEPARATE):
        model, _ = fresh_quadratic(seed=9, k=2, rho=-1.0)
        cfg = TrainConfig(method=method, eta=0.05, iters=50, seed=3, beta=0.01)
        sink = Collector()
        train(model, quad_batches(50), cfg, sink)
        final[method] = _final_bytes(model)
        if method == METHOD_SELECTIVE:
            assert len(sink.steps) == 50
            assert all(s.partition.m == 2 for s in sink.steps)  # M stays K
    assert final[METHOD_SELECTIVE] == final[METHOD_SEPARATE]


def test_train_rejects_t_zero_and_runs_t_one():
    with pytest.raises(TrainError):
        TrainConfig(method=METHOD_JOINT, iters=0)
    model, _ = fresh_quadratic(seed=10)
    sink = Collector()
    log = train(model, quad_batches(1), TrainConfig(method=METHOD_JOINT, eta=1e-3, iters=1), sink)
    assert log.iterations == len(sink.steps) == 1


def test_non_finite_final_forward_names_the_last_substep():
    """JOINT has no trailing forward, so the forward after the last batch is
    the first to see the step that overflowed."""
    model, _ = fresh_quadratic(k=2)
    with pytest.raises(NumericAbort) as info:
        train(model, quad_batches(1), TrainConfig(method=METHOD_JOINT, eta=1e300, iters=1))
    assert str(info.value) == "iteration 1, substep 1, group 1 2: task 1 quadratic loss is non-finite"
    assert (info.value.iteration, info.value.substep) == (1, 1)


def family_run(family, iters):
    """A model of the family and a stream of ``iters`` batches for it."""
    if family == "quadratic":
        return fresh_quadratic()[0], quad_batches(iters)
    ds, _ = gen_regression_suite(triad_spec(seed=0))
    return trunk_model(), ds.stream(16, iters, 0)


FAMILIES = ("quadratic", "mlp")


@pytest.mark.parametrize("family", FAMILIES)
def test_no_gradient_outlives_its_iteration(family, monkeypatch):
    """The sink keeps only weak references to each sub-step's gradient; by
    the next iteration's first backward every one of them is dead."""
    model, batches = family_run(family, 6)
    refs, checked = [], []
    backward = model.backward_group

    def check(group, weights):
        checked.append(all(ref() is None for ref in refs))
        return backward(group, weights)

    def sink(report):
        checked.append(all(ref() is None for ref in refs))
        refs[:] = [weakref.ref(sub.grads.flat) for sub in report.substeps]
    monkeypatch.setattr(model, "backward_group", check)
    log = train(model, batches, TrainConfig(method=METHOD_SELECTIVE, iters=6), sink)
    assert log.last[:2] == (6, len(refs)) and refs
    assert len(checked) == log.backwards + log.iterations and all(checked)


@pytest.mark.parametrize("family", FAMILIES)
def test_gradient_norms_are_taken_by_the_run_log_writer_only(family, tmp_path, monkeypatch):
    """Training without a sink computes no gradient norm, and writing a run
    computes one per sub-step."""
    original, calls = optim.grad_norms, []

    def counted(grads):
        calls.append(grads.group)
        return original(grads)
    for module in (optim, runio):
        monkeypatch.setattr(module, "grad_norms", counted)
    cfg = TrainConfig(method=METHOD_SELECTIVE, iters=8)
    train(*family_run(family, 8), cfg)
    assert calls == []
    with runio.RunWriter(str(tmp_path)) as writer:
        log = train(*family_run(family, 8), cfg, writer.sink("main"))
    assert len(calls) == log.opt_steps > log.iterations


def test_batch_stream_ending_early_is_a_train_error():
    model, _ = fresh_quadratic()
    sink = Collector()
    with pytest.raises(TrainError, match="batch stream ended at iteration 3 of 5"):
        train(model, quad_batches(2), TrainConfig(method=METHOD_SELECTIVE, iters=5), sink)
    assert len(sink.steps) == 2


@pytest.mark.parametrize("field, value", [("repartition_stride", 0), ("grouping_rule", "pairs"),
                                          ("order_mode", "SIDEWAYS"), ("eta", float("nan")),
                                          ("eta", float("inf")), ("eta", -float("inf")),
                                          ("weights", {1: 1.0, 2: float("nan"), 3: 1.0}),
                                          ("weights", {1: float("inf")}), ("weights", {1: -1.0})])
def test_train_config_refuses_what_would_fail_mid_training(field, value):
    with pytest.raises(TrainError, match=field.split("_")[0]):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("weights", [{1: 1.0}, {1: 1.0, 2: 1.0, 4: 1.0}], ids=["too-few", "wrong-id"])
def test_train_refuses_weights_not_naming_tasks_1_to_k_before_the_first_batch(weights):
    model, _ = fresh_quadratic(k=3)
    pulled = []
    batches = (pulled.append(it) or Batch(None, {}, it) for it in range(1, 4))
    with pytest.raises(TrainError, match="weights"):
        train(model, batches, TrainConfig(iters=3, weights=weights))
    assert pulled == []


def test_two_runs_same_seed_are_identical():
    logs, sinks = [], []
    for _ in range(2):
        model, _ = fresh_quadratic(seed=12)
        cfg = TrainConfig(method=METHOD_SELECTIVE, eta=0.05, beta=0.05, iters=40, seed=5)
        sinks.append(Collector())
        logs.append(train(model, quad_batches(40), cfg, sinks[-1]))
    a, b = sinks
    assert [s.initial_losses for s in a.steps] == [s.initial_losses for s in b.steps]
    assert a.affinity_rows == b.affinity_rows
    assert [s.partition for s in a.steps] == [s.partition for s in b.steps]
    assert logs[0].final_losses == logs[1].final_losses


@pytest.mark.parametrize("family", ["quadratic", "mlp"])
@pytest.mark.parametrize("method", METHODS)
def test_each_batch_makes_the_calls_its_report_counts(monkeypatch, family, method):
    """The forwards, backwards and optimizer steps each batch really makes
    are the report's counts: M + 1, M and M for M groups, or 1, 1 and 1 for
    JOINT."""
    if family == "quadratic":
        model, _ = fresh_quadratic(seed=2)
        batches = quad_batches(12)
    else:
        ds, suite = gen_regression_suite(triad_spec(seed=0))
        model = build_shared_trunk(8, 2, suite, seed=0, in_dim=ds.train_x.shape[1])
        batches = ds.stream(16, 12, 0)
    calls = [0, 0, 0]

    def counted(slot, fn):
        def call(*args):
            calls[slot] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(model, "forward_all", counted(0, model.forward_all))
    monkeypatch.setattr(model, "backward_group", counted(1, model.backward_group))
    monkeypatch.setattr(PlainSGD, "apply", counted(2, PlainSGD.apply))
    seen = []

    def sink(report):
        m = report.partition.m
        want = (1, 1, 1) if method == METHOD_JOINT else (m + 1, m, m)
        seen.append((tuple(calls), (report.forwards, report.backwards, report.opt_steps), want))
        calls[:] = [0, 0, 0]

    extra = {METHOD_FIXED: {"fixed_partition": make_partition([(1, 3), (2,)])},
             METHOD_RANDOM: {"random_groups": 2}}.get(method, {})
    train(model, batches, TrainConfig(method=method, eta=0.01, iters=12, seed=3, **extra), sink)
    assert len(seen) == 12
    for real, counts, want in seen:
        assert real == counts == want


def test_random_method_uses_requested_group_count():
    model, _ = fresh_quadratic(seed=13)
    cfg = TrainConfig(method=METHOD_RANDOM, eta=1e-3, iters=10, seed=1, random_groups=2)
    sink = Collector()
    train(model, quad_batches(10), cfg, sink)
    assert len(sink.steps) == 10
    assert all(s.partition.m == 2 for s in sink.steps)
    for report in sink.steps:
        assert (report.forwards, report.backwards, report.opt_steps) == (3, 2, 2)


def test_numeric_abort_reports_iteration():
    ds, suite = gen_regression_suite(triad_spec(seed=0))
    model = build_shared_trunk(8, 2, suite, seed=0, in_dim=ds.train_x.shape[1])
    cfg = TrainConfig(method=METHOD_JOINT, eta=1e6, iters=200, seed=0)
    with pytest.raises(NumericAbort) as err:
        train(model, ds.stream(16, 200, 0), cfg)
    assert err.value.iteration >= 1
    assert "non-finite" in str(err.value)


def test_unit_weights_are_the_default():
    """Training without weights and with explicit unit weights gives the same
    losses, gradient norms and affinity rows, bit for bit."""
    ds, suite = gen_regression_suite(triad_spec(seed=0))
    runs = []
    for weights in (None, {1: 1.0, 2: 1.0, 3: 1.0}):
        model = build_shared_trunk(8, 2, suite, seed=0, in_dim=ds.train_x.shape[1])
        cfg = TrainConfig(method=METHOD_SELECTIVE, eta=0.05, beta=0.01, iters=30, weights=weights)
        sink = Collector()
        log = train(model, ds.stream(16, 30, 0), cfg, sink)
        runs.append(repr([(s.initial_losses, [(r.group, r.losses_after, grad_norms(r.grads))
                                               for r in s.substeps])
                          for s in sink.steps] + [log.final_losses] + sink.affinity_rows))
    assert runs[0] == runs[1]  # repr keeps every bit of a float and compares NaN equal


def test_adam_shared_moments_advance_per_substep():
    model, batch = fresh_quadratic(seed=14)
    opt = Adam()
    cfg = TrainConfig(method=METHOD_SEPARATE, eta=1e-3, iters=1, optimizer="adam",
                      order_mode="FORWARD")
    selective_group_step(model, batch, singletons(3), cfg, opt, None, 1)
    assert opt.steps[0] == 3   # the shared set: one advance per sub-step
    assert opt.steps[1] == 1


def test_adam_allocates_moments_once_per_block():
    model, batch = fresh_quadratic(seed=14)
    opt = Adam()
    cfg = TrainConfig(method=METHOD_SEPARATE, eta=1e-3, iters=1, optimizer="adam",
                      order_mode="FORWARD")
    selective_group_step(model, batch, singletons(3), cfg, opt, None, 1)
    m, v = opt.m, opt.v
    selective_group_step(model, batch, singletons(3), cfg, opt, None, 2)
    assert opt.m is m and opt.v is v  # m and v of every block, allocated once
    assert opt.m.shape == opt.v.shape == model.partition.buffer.shape


class SetBlockSGD:
    """SGD through ``set_block``: one checked copy per block."""

    def apply(self, partition, grads, eta):
        for name in sorted(grads):
            partition.set_block(name, partition.block(name) - eta * grads[name])


class SetBlockAdam:
    """Adam's moment math with one (m, v, t) per block, each update written
    through ``set_block``."""

    beta1, beta2, eps = Adam.beta1, Adam.beta2, Adam.eps

    def __init__(self):
        self.moments = {}

    def apply(self, partition, grads, eta):
        for name in sorted(grads):
            g = grads[name]
            m, v, t = self.moments.get(name, (np.zeros_like(g), np.zeros_like(g), 0))
            t += 1
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            self.moments[name] = (m, v, t)
            mhat = m / (1.0 - self.beta1 ** t)
            vhat = v / (1.0 - self.beta2 ** t)
            partition.set_block(name, partition.block(name) - eta * mhat / (np.sqrt(vhat) + self.eps))


def as_gradient(partition, group, grads):
    """A gradient from one array per block, laid out as ``backward_group``
    lays it out: as the buffer, with +0.0 outside the group's sets."""
    names = set(partition.block_ids(group))
    return Gradient(partition, partition.members(group),
                    np.concatenate([grads[n].ravel() if n in names else np.zeros(v.size)
                                    for n, v in partition.all_blocks().items()]))


def trunk_model():
    ds, suite = gen_regression_suite(triad_spec(seed=0))
    return build_shared_trunk(8, 2, suite, seed=0, in_dim=ds.train_x.shape[1])


@pytest.mark.parametrize("fast, slow, eta", [(PlainSGD, SetBlockSGD, 0.05), (Adam, SetBlockAdam, 1e-3)])
def test_in_place_step_equals_the_set_block_path_bitwise(fast, slow, eta):
    models = trunk_model(), trunk_model()
    opts = fast(), slow()
    rng = np.random.default_rng(5)
    for group in [(1,), (2, 3), (1, 2, 3), (3,), (1, 3)] * 3:
        names = models[0].partition.block_ids(group)
        grads = {n: rng.standard_normal(models[0].partition.block(n).shape) for n in names}
        for model, opt in zip(models, opts):
            version = model.partition.version
            opt.apply(model.partition, as_gradient(model.partition, group, grads), eta)
            assert model.partition.version > version
    blocks = [m.partition.all_blocks() for m in models]
    assert sorted(blocks[0]) == sorted(blocks[1])
    for name, value in blocks[0].items():
        assert value.tobytes() == blocks[1][name].tobytes(), name


@pytest.mark.parametrize("opt", [PlainSGD, Adam])
def test_in_place_step_refuses_a_gradient_of_the_wrong_shape(opt):
    model = trunk_model()
    grads = {n: np.ones(model.partition.block(n).shape) for n in model.partition.block_ids()}
    grads["trunk.0.b"] = np.ones(9)
    version = model.partition.version
    with pytest.raises(ModelError, match="gradient of shape"):
        opt().apply(model.partition, as_gradient(model.partition, (), grads), 0.1)
    assert model.partition.version == version  # refused before any write


def test_grad_norms_equal_the_ndarray_sum_form_bitwise():
    model = trunk_model()
    rng = np.random.default_rng(6)
    group = (1, 3)
    grads = {n: rng.standard_normal(model.partition.block(n).shape) * 10.0 ** rng.integers(-8, 8)
             for n in model.partition.block_ids(group)}

    def norm(names):
        return float(np.sqrt(sum(float((grads[n] * grads[n]).sum()) for n in names)))
    shared, task = grad_norms(as_gradient(model.partition, group, grads))
    assert repr(shared) == repr(norm(model.partition.shared))
    assert repr(task) == repr({tid: norm(model.partition.per_task[tid]) for tid in group})


def descent_violations(substeps):
    return sum(not lhs <= rhs + slack for lhs, rhs, slack, _ in substeps)


def test_descent_holds_for_singletons_within_regime():
    model, batch = fresh_quadratic(seed=15, k=2)
    assert 0.05 <= descent_eta_bound(model, singletons(2))
    assert descent_violations(descent_substeps(model, singletons(2), 0.05, 50, batch)) == 0


def test_descent_holds_for_aligned_groups():
    partition = make_partition([(1, 2), (3,)])
    for seed in range(5):
        model, batch = fresh_quadratic(seed=seed, rho=0.95)
        h = model.hessian_bound()
        eta = 0.9 * min(2.0 / (h * 3), 1.0 / (h * 2))
        assert eta <= descent_eta_bound(model, partition)
        assert descent_violations(descent_substeps(model, partition, eta, 100, batch)) == 0


def test_descent_with_opposing_gradients_flags_cross_term():
    model, batch = fresh_quadratic(seed=16, k=2, rho=-1.0)
    h = model.hessian_bound()
    eta = 0.9 * min(2.0 / (h * 2), 1.0 / h)
    substeps = list(descent_substeps(model, singletons(2), eta, 20, batch))
    assert descent_violations(substeps) == 0  # the bound covers hostile geometry too
    # opposed tasks make the cross term positive somewhere along the run
    assert any(cross > 0 for *_, cross in substeps)


def test_numeric_abort_names_substep_and_group():
    model, _ = fresh_quadratic(seed=18)
    cfg = TrainConfig(method=METHOD_SEPARATE, eta=1e200, iters=1, order_mode="FORWARD")
    with pytest.raises(NumericAbort, match="substep 1, group 1:") as err:
        train(model, quad_batches(1), cfg)
    assert (err.value.iteration, err.value.substep) == (1, 1)

    model, _ = fresh_quadratic(seed=18)  # JOINT meets the overflow at the next first forward
    with pytest.raises(NumericAbort, match="iteration 2, substep 0:"):
        train(model, quad_batches(2), TrainConfig(method=METHOD_JOINT, eta=1e200, iters=2))


def test_numeric_abort_names_the_backward_that_overflowed():
    # a dead relu unit hides a huge head weight from the forward, but the head
    # matmul's adjoint to the trunk overflows
    model = build_shared_trunk(4, 1, TaskSuite(2), seed=0, activation="relu")
    model.partition.set_block("trunk.0.b", np.full(4, -1e3))
    model.partition.set_block("head.1.w", np.full((4, 1), 1e308))
    rng = np.random.default_rng(0)
    batch = Batch(rng.standard_normal((8, 4)), {1: np.full((8, 1), 1e3), 2: np.zeros((8, 1))}, 5)
    cfg = TrainConfig(method=METHOD_SEPARATE, eta=1e-3, iters=1, order_mode="FORWARD")
    with pytest.raises(NumericAbort, match=r"^iteration 1, substep 1, group 1: backward on batch 5: "
                                           r"backward through op 'matmul' \(node \d+\) produced a "
                                           r"non-finite gradient$") as err:
        train(model, [batch], cfg)
    assert (err.value.iteration, err.value.substep) == (1, 1)
