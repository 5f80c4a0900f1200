"""The one-buffer parameter layout: block views, flat gradients, segment steps
and the batched head products they rely on."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtopt import optim
from mtopt.benchmarks import (QuadraticSpec, gen_quadratic_suite, gen_regression_suite,
                              load_csv_dataset, triad_spec)
from mtopt.models import Batch, ModelError, TaskSuite, build_shared_trunk, restore, snapshot
from mtopt.optim import Adam, PlainSGD, TrainConfig, train
from tests.test_optim import Collector, SetBlockAdam, SetBlockSGD, as_gradient, trunk_model
from tests.test_tensor import assert_closed_form_matches_interpreter, mlp_case


def mixed_trunk(cols=(2, 1, 2, 1), seed=0):
    """A depth-2 trunk whose heads have ``cols`` outputs, and a batch of 6 rows."""
    return mlp_case(2, 5, "tanh", cols, 6, seed)


@settings(max_examples=60, deadline=None)
@given(cols=st.lists(st.integers(1, 2), min_size=2, max_size=5),
       groups=st.lists(st.lists(st.booleans(), min_size=5, max_size=5), min_size=1, max_size=8),
       masked=st.lists(st.booleans(), min_size=5, max_size=5),
       adam=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_segment_steps_equal_the_per_block_reference_bitwise(cols, groups, masked, adam, seed):
    """Random groups, non-adjacent ones among them, tasks whose gradients are
    zero (a zero loss weight) and zero parameters: both optimizers' segment
    steps equal one ``set_block`` per block, and Adam's counters equal the
    per-block ones."""
    k = len(cols)
    models = [mlp_case(2, 3, "tanh", cols, 4, seed)[0] for _ in range(2)]
    for model in models:
        model.partition.set_block("head.1.w", np.zeros_like(model.partition.block("head.1.w")))
    fast, slow = (Adam(), SetBlockAdam()) if adam else (PlainSGD(), SetBlockSGD())
    rng = np.random.default_rng(seed)
    members = {tid: 0 for tid in range(1, k + 1)}
    for flags in groups:
        group = tuple(tid for tid, on in zip(range(1, k + 1), flags) if on) or (k,)
        for tid in group:
            members[tid] += 1
        names = models[0].partition.block_ids(group)
        grads = {n: rng.standard_normal(models[0].partition.block(n).shape) for n in names}
        for tid in group:
            if masked[tid - 1]:
                for n in models[0].partition.per_task[tid]:
                    grads[n] = np.zeros_like(grads[n])
        fast.apply(models[0].partition, as_gradient(models[0].partition, group, grads), 1e-2)
        slow.apply(models[1].partition, grads, 1e-2)
    for name, value in models[0].partition.all_blocks().items():
        assert value.tobytes() == models[1].partition.block(name).tobytes(), name
    if adam:
        assert fast.steps == {0: len(groups), **members}
        for name, (m, v, t) in slow.moments.items():
            start, stop, _, tid = models[0].partition._spans[name]
            assert t == fast.steps[tid], name
            assert fast.m[start:stop].tobytes() == m.tobytes(), name
            assert fast.v[start:stop].tobytes() == v.tobytes(), name


def test_adam_selective_training_equals_the_per_block_reference(monkeypatch):
    """SELECTIVE with Adam, one task weighted 0: the shared counter advances
    per sub-step and each task's per membership, as per-block moments do."""
    ds, _ = gen_regression_suite(triad_spec(seed=0))
    cfg = TrainConfig(method="SELECTIVE", eta=3e-3, beta=0.05, iters=40, optimizer="adam",
                      seed=2, weights={1: 1.0, 2: 0.0, 3: 1.0})
    runs = []
    for reference in (False, True):
        if reference:
            monkeypatch.setitem(optim.OPTIMIZERS, "adam", SetBlockAdam)
        model, sink = trunk_model(), Collector()
        train(model, ds.stream(16, 40, 0), cfg, sink)
        runs.append((repr([(s.partition.groups, s.initial_losses,
                            [(r.losses_after, optim.grad_norms(r.grads)) for r in s.substeps])
                           for s in sink.steps]),
                     {n: v.tobytes() for n, v in model.partition.all_blocks().items()}))
    assert runs[0] == runs[1]
    assert any(len(g) > 1 for s in sink.steps for g in s.partition.groups)  # adjacent members merge


@pytest.mark.parametrize("make", [lambda: mixed_trunk(),
                                  lambda: gen_quadratic_suite(QuadraticSpec(k=4, seed=3))])
def test_backward_returns_a_fresh_gradient_per_call(make):
    """``analysis.descent_substeps`` holds every group's gradient at once, so
    no backward may write into another's array or into the parameters."""
    model, batch = make()
    model.forward_all(batch)
    weights = model.suite.weights()
    grads = [model.backward_group(group, weights) for group in [(1, 2), (2, 3), (1, 2), (1, 3)]]
    kept = [g.flat.copy() for g in grads]
    grads.append(model.backward_group((1, 2), weights))
    for a, b in itertools.combinations([g.flat for g in grads] + [model.partition.buffer], 2):
        assert not np.shares_memory(a, b)
    for g, before in zip(grads, kept):
        assert g.flat.tobytes() == before.tobytes()
    assert grads[0].flat.tobytes() == grads[2].flat.tobytes() == grads[4].flat.tobytes()
    for name in grads[3]:
        assert np.shares_memory(grads[3][name], grads[3].flat)
        assert grads[3][name].shape == model.partition.block(name).shape


@pytest.mark.parametrize("make", [lambda: mixed_trunk(),
                                  lambda: gen_quadratic_suite(QuadraticSpec(k=4, seed=3, task_dim=3))])
def test_every_block_is_a_view_of_the_partition_buffer(make):
    model, _ = make()
    partition = model.partition
    for name, view in model.partition.all_blocks().items():
        assert view.base is partition.buffer, name
    # the shared blocks, then each task's, in ``per_task`` order, tile the buffer
    order = list(partition.shared) + [n for blocks in partition.per_task.values() for n in blocks]
    tiled = np.concatenate([partition.block(n).ravel() for n in order])
    assert tiled.tobytes() == partition.buffer.tobytes()
    if hasattr(model, "_theta"):
        assert model._theta.base is partition.buffer
        for tid, row in zip(model.suite.ids, model._theta):
            assert np.shares_memory(row, partition.per_task[tid][f"task.{tid}.theta"])
    else:
        for heads in model._heads:
            assert heads.w.base is partition.buffer and heads.b.base is partition.buffer
            for tid, w, b in zip(heads.tids, heads.w, heads.b):
                assert w.tobytes() == partition.block(f"head.{tid}.w").tobytes()
                assert b.ravel().tobytes() == partition.block(f"head.{tid}.b").tobytes()
        assert [h.tids for h in model._heads] == [(2, 4), (1, 3)]  # one stack per head width


@pytest.mark.parametrize("make", [lambda: mixed_trunk(),
                                  lambda: gen_quadratic_suite(QuadraticSpec(k=3, seed=4))])
def test_writes_round_trip_and_bump_the_version(make):
    """``set_block``, ``restore`` of a whole-buffer ``snapshot`` and every
    optimizer step write through the views and bump ``version``: the
    quadratic's memoized forward and the MLP's stale-forward guard depend
    on it."""
    model, batch = make()
    partition = model.partition
    before = partition.buffer.copy()
    losses = model.forward_all(batch)
    snap = snapshot(model)
    for name in partition.block_ids(model.suite.ids):
        version = partition.version
        partition.set_block(name, partition.block(name) + 0.25)
        assert partition.version == version + 1, name
        with pytest.raises(ModelError, match="fresh forward"):
            model.backward_group((1,), model.suite.weights())
    assert model.forward_all(batch) != losses
    version = partition.version
    restore(model, snap)
    assert partition.version == version + 1
    assert partition.buffer.tobytes() == before.tobytes()
    assert model.forward_all(batch) == losses
    for opt in (PlainSGD(), Adam()):
        version = partition.version
        opt.apply(partition, model.backward_group((1, 2), model.suite.weights()), 1e-3)
        assert partition.version == version + 1
        assert partition.buffer.tobytes() != before.tobytes()
        with pytest.raises(ModelError, match="fresh forward"):
            model.backward_group((1,), model.suite.weights())
        model.forward_all(batch)


def random_run(make, iters=150):
    """RANDOM at 32 tasks in two groups: nearly every sub-step runs a new group."""
    cfg = TrainConfig(method="RANDOM", eta=1e-3, iters=iters, seed=1, random_groups=2)
    (model, batch), sink = make(), Collector()
    train(model, [batch] * cfg.iters, cfg, sink)
    return model, {g for s in sink.steps for g in s.partition.groups}


@pytest.mark.parametrize("make", [lambda: mlp_case(1, 4, "tanh", (1,) * 32, 4, 5),
                                  lambda: gen_quadratic_suite(QuadraticSpec(k=32, seed=5))],
                         ids=["mlp", "quadratic"])
def test_no_model_keeps_per_group_state(make):
    """Nothing on the model or its partition grows with the groups it ran."""
    def sizes(model):
        return {f"{owner}.{name}": len(value) if hasattr(value, "__len__") else None
                for owner, obj in (("model", model), ("partition", model.partition))
                for name, value in vars(obj).items()}
    one, _ = random_run(make, iters=1)
    model, groups = random_run(make)
    assert len(groups) > 100
    assert sizes(model) == sizes(one)


def both_families(k=4):
    return [lambda: mixed_trunk(), lambda: gen_quadratic_suite(QuadraticSpec(k=k, seed=3, task_dim=2))]


@pytest.mark.parametrize("make", both_families())
def test_any_iterable_of_task_ids_is_a_group(make):
    """A list, a set and an unsorted tuple give the sorted tuple's gradient
    bytes; an unknown task id is refused."""
    model, batch = make()
    model.forward_all(batch)
    weights = {1: 0.5, 2: 2.0, 3: 1.0, 4: 1.5}
    want = model.backward_group((1, 2, 4), weights)
    for group in ([4, 1, 2], {2, 4, 1}, (4, 2, 1), iter([2, 1, 4])):
        got = model.backward_group(group, weights)
        assert got.group == (1, 2, 4)
        assert got.flat.tobytes() == want.flat.tobytes(), group
    for bad in ([1, 5], (0,), {9}):
        with pytest.raises(ModelError, match="no parameter sets"):
            model.backward_group(bad, weights)


@pytest.mark.parametrize("make", both_families())
def test_every_gradient_is_zero_outside_its_group(make):
    """Each gradient is laid out as the buffer and holds +0.0 outside the
    shared set and its members' sets; a block outside them is no key."""
    model, batch = make()
    model.forward_all(batch)
    spans = model.partition._spans
    for group in [(1, 2, 3, 4), (1,), (1, 2, 3, 4), (2, 4), (1, 2, 3, 4), (3,), (1, 3)]:
        grads = model.backward_group(group, model.suite.weights())
        assert grads.flat.shape == model.partition.buffer.shape
        outside = np.ones(grads.flat.size, dtype=bool)
        for name in grads:
            start, stop, _, key = spans[name]
            assert key == 0 or key in group, name
            outside[start:stop] = False
        assert grads.flat[outside].tobytes() == np.zeros(outside.sum()).tobytes(), group
        for tid in set(model.suite.ids) - set(group):
            with pytest.raises(KeyError):
                grads[next(iter(model.partition.per_task[tid]))]
        del grads  # its memory is free for the next gradient


@pytest.mark.parametrize("make", both_families())
def test_sgd_leaves_parameters_outside_the_group_bitwise(make):
    """p - eta * (+0.0) is p: a step leaves -0.0, +0.0, infinities and every
    other parameter outside the group as it was."""
    model, batch = make()
    partition = model.partition
    model.forward_all(batch)
    grads = model.backward_group((2, 3), model.suite.weights())
    specials = np.array([-0.0, np.inf, -np.inf, 0.0, 1e-300, -5e-324])
    for tid in (1, 4):
        start, stop = partition._regions[tid]
        partition.buffer[start:stop] = np.resize(specials, stop - start)
    before = partition.buffer.copy()
    PlainSGD().apply(partition, grads, 0.5)
    for tid in (1, 4):
        start, stop = partition._regions[tid]
        assert partition.buffer[start:stop].tobytes() == before[start:stop].tobytes(), tid
    for tid in (0, 2, 3):
        start, stop = partition._regions[tid]
        assert partition.buffer[start:stop].tobytes() != before[start:stop].tobytes(), tid


@pytest.mark.parametrize("make", both_families())
def test_adam_leaves_the_moments_outside_the_group_alone(make):
    """Adam steps only the group's sets: the moments, step counts and
    parameters of every other task stay as they were."""
    model, batch = make()
    partition, opt, weights = model.partition, Adam(), model.suite.weights()
    for group in [(1, 2, 3, 4), (1, 2, 3, 4)]:
        model.forward_all(batch)
        opt.apply(partition, model.backward_group(group, weights), 1e-2)
    kept = partition.buffer.copy(), opt.m.copy(), opt.v.copy(), dict(opt.steps)
    model.forward_all(batch)
    opt.apply(partition, model.backward_group((2, 3), weights), 1e-2)
    assert opt.steps == {**kept[3], 0: 3, 2: 3, 3: 3}
    for tid in (1, 4):
        start, stop = partition._regions[tid]
        for now, then in zip((partition.buffer, opt.m, opt.v), kept):
            assert now[start:stop].tobytes() == then[start:stop].tobytes(), tid
    for tid in (0, 2, 3):
        start, stop = partition._regions[tid]
        assert opt.m[start:stop].tobytes() != kept[1][start:stop].tobytes(), tid


def test_a_gradient_steps_only_the_partition_it_was_laid_out_for():
    model, other = trunk_model(), trunk_model()
    grads = {n: np.ones(model.partition.block(n).shape) for n in model.partition.block_ids((1,))}
    with pytest.raises(ModelError, match="another parameter partition"):
        PlainSGD().apply(other.partition, as_gradient(model.partition, (1,), grads), 0.1)
    assert other.partition.version == 0


def test_csv_suite_with_two_head_widths_trains(tmp_path):
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((24, 7))
    path = tmp_path / "two_widths.csv"
    path.write_text("x1,x2,x3,a,b1,b2,c\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n"
                                                  for row in rows))
    ds, suite = load_csv_dataset(path, ["x1", "x2", "x3"], {1: ["a"], 2: ["b1", "b2"], 3: ["c"]})
    model = build_shared_trunk(6, 2, suite, seed=1, in_dim=3, out_dims={1: 1, 2: 2, 3: 1})
    assert [h.tids for h in model._heads] == [(1, 3), (2,)]  # one stack per head width
    cfg = TrainConfig(method="SELECTIVE", eta=0.05, beta=0.05, iters=30, seed=0)
    log = train(model, ds.stream(8, 30, 0), cfg)
    assert log.iterations == 30
    assert list(log.final_losses) == [1, 2, 3]
    assert_closed_form_matches_interpreter(model, ds.eval_batch(), {1: 1.0, 2: 0.5, 3: 2.0})


GRID = [(n, w, k, od) for n in (16, 32) for w in (8, 32) for k in (3, 16) for od in (1, 2)]


@pytest.mark.parametrize("n, w, k, od", GRID + [(1024, 256, 3, 1)])
def test_batched_head_products_equal_the_per_head_loop(n, w, k, od):
    """The heads stack bitwise only because ``np.matmul`` over a (k, w, od)
    stack runs one product per slice, and a row-wise reduce sums each row as
    a full reduce does. A numpy or BLAS upgrade that breaks this fails here
    first, naming the op; then the model is checked against the loop."""
    rng = np.random.default_rng([n, w, k, od])
    region = rng.standard_normal((k, w * od + od))  # the heads as the buffer lays them out
    stack = region[:, :w * od].reshape(k, w, od)
    h, g = np.tanh(rng.standard_normal((n, w))), rng.standard_normal((k, n, od))
    sq = g * g
    checks = {
        "batched forward product": (np.matmul(h, stack), [h @ m for m in stack]),
        "batched weight gradient": (np.matmul(h.T, g), [h.T @ gi for gi in g]),
        "batched bias gradient": (np.add.reduce(g, axis=1), [gi.sum(axis=0) for gi in g]),
        "row-wise loss reduce": (np.add.reduce(sq.reshape(k, n * od), axis=1), [s.sum() for s in sq]),
        "adjoint written through out=": ([np.matmul(gi, m.T, out=np.empty((n, w)))
                                          for gi, m in zip(g, stack)],
                                         [gi @ m.T for gi, m in zip(g, stack)]),
    }
    for op, (batched, loop) in checks.items():
        for i, want in enumerate(loop):
            assert np.asarray(batched[i]).tobytes() == np.asarray(want).tobytes(), f"{op}, head {i + 1}"

    model = build_shared_trunk(w, 1, TaskSuite(k), seed=0, in_dim=w,
                               out_dims=dict.fromkeys(range(1, k + 1), od))
    targets = {tid: rng.standard_normal((n, od)) for tid in range(1, k + 1)}
    x = rng.standard_normal((n, w))
    losses = model.forward_all(Batch(x, targets, 0))
    p = model.partition
    z = x @ p.block("trunk.0.w")
    z += p.block("trunk.0.b")
    top = np.tanh(z)
    grads = model.backward_group(tuple(range(1, k + 1)), model.suite.weights())
    for tid in range(1, k + 1):
        d = top @ p.block(f"head.{tid}.w")
        d += p.block(f"head.{tid}.b")
        d -= targets[tid]
        sq = d * d
        assert losses[tid] == float(sq.sum() / sq.size), f"loss of head {tid}"
        gt = d * (2.0 / d.size)
        gt *= 1.0  # the unit loss weight, applied as the closed form applies it
        assert grads[f"head.{tid}.w"].tobytes() == (top.T @ gt).tobytes(), f"weight gradient, head {tid}"
        assert grads[f"head.{tid}.b"].tobytes() == gt.sum(axis=0).tobytes(), f"bias gradient, head {tid}"
