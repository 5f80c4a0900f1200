import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtopt.affinity import group_update_affinity
from mtopt.models import (Batch, ModelError, ParamPartition, QuadraticModel,
                          TaskSuite, build_shared_trunk, restore, snapshot)
from mtopt.optim import Adam, PlainSGD
from mtopt.tensor import NonFiniteValue, backward, evaluate


def scalar_pair(a1=1.0, a2=1.0, with_task_params=False):
    """Two scalar tasks L_i = 0.5*(theta_s [+ theta_i] - a_i)^2."""
    width = 1 if with_task_params else 0
    a, c, b = np.ones((2, 1, 1)), np.ones((2, 1, width)), np.array([[a1], [a2]])
    return QuadraticModel(a, c, b), Batch(None, {}, 0)


def test_suite_validation():
    with pytest.raises(ModelError, match="at least 2"):
        TaskSuite(1)


def test_partition_rejects_duplicate_blocks():
    with pytest.raises(ModelError, match="more than one"):
        ParamPartition(shared={"w": np.zeros(2)}, per_task={1: {"w": np.zeros(2)}})


def test_trunk_structure_and_determinism():
    suite = TaskSuite(3)
    m1 = build_shared_trunk(8, 2, suite, seed=5)
    m2 = build_shared_trunk(8, 2, suite, seed=5)
    assert len(m1.partition.shared) == 4  # 2 layers x (weight, bias)
    assert sorted(m1.partition.per_task) == [1, 2, 3]
    for name, arr in m1.partition.all_blocks().items():
        assert arr.tobytes() == m2.partition.all_blocks()[name].tobytes()


def test_trunk_zero_input_zero_heads_gives_zero_prediction_loss():
    suite = TaskSuite(2)
    model = build_shared_trunk(4, 1, suite, seed=0, in_dim=3)
    for tid in suite.ids:
        for name in model.partition.per_task[tid]:
            model.partition.set_block(name, np.zeros_like(model.partition.block(name)))
    batch = Batch(np.zeros((5, 3)), {1: np.ones((5, 1)), 2: np.zeros((5, 1))}, 0)
    losses = model.forward_all(batch)
    # heads emit exactly 0, so each loss is the loss of the zero prediction
    assert losses[0] == pytest.approx(1.0)
    assert losses[1] == 0.0


def test_forward_does_not_mutate_parameters():
    suite = TaskSuite(2)
    model = build_shared_trunk(4, 1, suite, seed=1, in_dim=2)
    before = {k: v.copy() for k, v in model.partition.all_blocks().items()}
    batch = Batch(np.ones((3, 2)), {1: np.ones((3, 1)), 2: np.ones((3, 1))}, 0)
    model.forward_all(batch)
    for k, v in model.partition.all_blocks().items():
        assert v.tobytes() == before[k].tobytes()


def test_duplicated_rows_leave_mean_losses_unchanged():
    suite = TaskSuite(2)
    model = build_shared_trunk(4, 1, suite, seed=2, in_dim=2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 2))
    t = {1: rng.standard_normal((4, 1)), 2: rng.standard_normal((4, 1))}
    one = model.forward_all(Batch(x, t, 0))
    two = model.forward_all(Batch(np.vstack([x, x]), {k: np.vstack([v, v]) for k, v in t.items()}, 1))
    for tid in suite.ids:
        assert one[tid - 1] == pytest.approx(two[tid - 1], rel=1e-12)


def test_quadratic_hand_values_and_stationarity():
    model, batch = scalar_pair()
    losses = model.forward_all(batch)
    assert losses == (0.5, 0.5)
    grads = model.backward_group((1,), {1: 1.0, 2: 1.0})
    assert grads["shared.theta"] == pytest.approx(np.array([-1.0]))
    # joint least-squares solution: theta_s = 1 -> summed shared gradient is 0
    model.partition.set_block("shared.theta", np.array([1.0]))
    model.forward_all(batch)
    g = model.backward_group((1, 2), {1: 1.0, 2: 1.0})
    assert g["shared.theta"] == pytest.approx(np.array([0.0]))


def test_quadratic_loss_matches_direct_formula():
    rng = np.random.default_rng(3)
    a, c, b = rng.standard_normal((2, 5, 3)), rng.standard_normal((2, 5, 2)), rng.standard_normal((2, 5))
    model = QuadraticModel(a, c, b)
    model.partition.set_block("shared.theta", rng.standard_normal(3))
    model.partition.set_block("task.1.theta", rng.standard_normal(2))
    losses = model.forward_all(None)
    for t in (1, 2):
        s = model.partition.shared["shared.theta"]
        ti = model.partition.per_task[t][f"task.{t}.theta"]
        direct = 0.5 * np.sum((a[t - 1] @ s + c[t - 1] @ ti - b[t - 1]) ** 2)
        assert abs(losses[t - 1] - direct) < 1e-12


def test_quadratic_analytic_gradient_matches_tape():
    rng = np.random.default_rng(4)
    model = QuadraticModel(rng.standard_normal((3, 6, 4)), rng.standard_normal((3, 6, 2)),
                           rng.standard_normal((3, 6)))
    model.partition.set_block("shared.theta", rng.standard_normal(4))
    model.forward_all(None)
    analytic = model.backward_group((1, 2, 3), {1: 1.0, 2: 1.0, 3: 1.0})

    graph, loss_nodes, bindings = model.tape_graph()
    evaluate(graph, bindings)
    tape = backward(graph, {nid: 1.0 for nid in loss_nodes.values()},
                    set(bindings))
    assert np.max(np.abs(tape["shared.theta2d"].ravel() - analytic["shared.theta"])) < 1e-10
    for t in model.suite.ids:
        assert np.max(np.abs(tape[f"task.{t}.theta2d"].ravel()
                             - analytic[f"task.{t}.theta"])) < 1e-10


def test_dimension_mismatch_rejected():
    """Every bad set of stacks gives one ``ModelError`` naming the shapes,
    never a numpy error from the forward or the buffer's reshape."""
    for shapes in [((3, 2), (2, 3, 1), (2, 3)),           # A not rank 3
                   ((2, 3, 2), (2, 3), (2, 3)),           # C not rank 3
                   ((2, 3, 2), (2, 3, 1), (6,)),          # b rank 1
                   ((2, 3, 2), (2, 3, 1), (2, 3, 1)),     # b rank 3
                   ((3, 3, 2), (2, 3, 1), (2, 3)),        # A has another k
                   ((2, 3, 2), (3, 3, 1), (2, 3)),        # C has another k
                   ((2, 3, 2), (2, 3, 1), (3, 3)),        # b has another k
                   ((2, 4, 2), (2, 3, 1), (2, 3)),        # A has other rows
                   ((2, 3, 2), (2, 4, 1), (2, 3)),        # C has other rows
                   ((2, 3, 2), (2, 3, 1), (2, 4))]:       # b has other rows
        with pytest.raises(ModelError, match="stacks, got") as info:
            QuadraticModel(*(np.ones(shape) for shape in shapes))
        assert all(str(shape) in str(info.value) for shape in shapes), info.value
    for k in (1, 0):
        with pytest.raises(ModelError, match="at least 2 tasks"):
            QuadraticModel(np.ones((k, 3, 2)), np.ones((k, 3, 1)), np.ones((k, 3)))


def test_quadratic_inputs_are_read_only_maps_of_live_rows():
    model, batch = scalar_pair(a1=2.0, with_task_params=True)
    with pytest.raises(TypeError):
        model.b[1] = np.array([5.0])
    assert model.forward_all(batch)[0] == 2.0
    model = QuadraticModel(model._a, model._c, np.stack([-model.b[1], model.b[2]]))
    assert model.forward_all(batch)[0] == 2.0  # 0.5 * (0 + 2)^2
    model.partition.set_block("task.1.theta", np.array([-2.0]))
    assert model.forward_all(batch) == (0.0, 0.5)


def test_writing_into_quadratic_data_raises():
    model, batch = scalar_pair(a1=2.0, with_task_params=True)
    for data in (model.a, model.c, model.b):
        with pytest.raises(ValueError, match="read-only"):
            data[1][0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            np.negative(data[2], out=data[2])
    assert model.forward_all(batch) == (2.0, 0.5)
    # the model keeps the caller's own stacks without a copy, so they are read-only too
    a, c, b = np.ones((2, 1, 1)), np.ones((2, 1, 1)), np.array([[2.0], [1.0]])
    model = QuadraticModel(a, c, b)
    for stack in (a, c, b):
        with pytest.raises(ValueError, match="read-only"):
            stack[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            np.negative(stack, out=stack)
    assert model.forward_all(batch) == (2.0, 0.5)


def test_every_parameter_write_makes_the_quadratic_forward_recompute():
    """The forward is memoized on ``partition.version``, so each mutation
    path must bump it: a stale memo would return the losses before the write,
    or the gradient products the backward scales and sums."""
    def fresh():
        model, _ = scalar_pair(a1=2.0, a2=-1.0, with_task_params=True)
        return model, model.forward_all(None)

    def optimizer_step(opt):
        def step(model):
            opt.apply(model.partition, model.backward_group((1, 2), {1: 1.0, 2: 1.0}), 0.1)
        return step

    def restore_after_a_forward(model):
        snap = snapshot(model)
        model.partition.set_block("shared.theta", np.array([1.0]))
        model.forward_all(None)  # the memo now holds this state's losses
        restore(model, snap)

    paths = {"PlainSGD.apply": optimizer_step(PlainSGD()), "Adam.apply": optimizer_step(Adam()),
             "set_block": lambda m: m.partition.set_block("task.2.theta", np.array([0.5])),
             "restore": restore_after_a_forward,
             "an oracle call": lambda m: group_update_affinity(m, None, (1, 2), 1, 0.1)}
    for name, write in paths.items():
        model, before = fresh()
        write(model)
        s = float(model.partition.shared["shared.theta"][0])
        t = {tid: float(model.partition.per_task[tid][f"task.{tid}.theta"][0]) for tid in (1, 2)}
        want = (0.5 * (s + t[1] - 2.0) ** 2, 0.5 * (s + t[2] + 1.0) ** 2)
        assert model.forward_all(None) == want, name
        if name in ("restore", "an oracle call"):  # both leave the state as it was
            assert want == before, name
        else:
            assert want != before, name
        grads = model.backward_group((1, 2), {1: 0.5, 2: 2.0})
        same, _ = scalar_pair(a1=2.0, a2=-1.0, with_task_params=True)
        restore(same, snapshot(model))
        assert same.forward_all(None) == want, name
        assert grads.flat.tobytes() == same.backward_group((1, 2), {1: 0.5, 2: 2.0}).flat.tobytes(), name


def test_quadratic_backward_needs_a_fresh_forward():
    model, _ = scalar_pair(with_task_params=True)
    weights = {1: 1.0, 2: 1.0}
    with pytest.raises(ModelError, match="without a fresh forward"):
        model.backward_group((1,), weights)  # no forward yet
    model.forward_all(None)
    model.partition.set_block("task.1.theta", np.array([0.5]))
    with pytest.raises(ModelError, match="without a fresh forward"):
        model.backward_group((1,), weights)  # the forward is of the state before the write


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 32), st.integers(1, 16), st.integers(1, 16), st.integers(0, 16),
       st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_stacked_forward_and_backward_equal_per_task_reference(k, rows, d, p, seed, log_scale):
    """Losses and gradients are bitwise those of one task at a time, for a
    random group and for all tasks, with some weights 0.0 (SINGLE's mask)."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    model = QuadraticModel(scale * rng.standard_normal((k, rows, d)),
                           rng.standard_normal((k, rows, p)), rng.standard_normal((k, rows)))
    suite = model.suite
    model.partition.set_block("shared.theta", rng.standard_normal(d))
    for t in suite.ids:
        model.partition.set_block(f"task.{t}.theta", scale * rng.standard_normal(p))
    s = model.partition.shared["shared.theta"]
    res = {t: model.a[t] @ s + model.c[t] @ model.partition.per_task[t][f"task.{t}.theta"] - model.b[t]
           for t in suite.ids}
    losses = model.forward_all(None)
    assert losses == tuple(0.5 * float(r @ r) for r in res.values())

    weights = {t: float(rng.uniform(0.1, 2.0)) if rng.random() < 0.75 else 0.0 for t in suite.ids}
    for group in (tuple(t for t in suite.ids if rng.random() < 0.6) or (1,), suite.ids):
        grads = model.backward_group(group, weights)
        gs = np.zeros(d)
        for t in group:
            gs = gs + weights[t] * (model.a[t].T @ res[t])
            assert grads[f"task.{t}.theta"].tobytes() == (weights[t] * (model.c[t].T @ res[t])).tobytes()
        assert grads["shared.theta"].tobytes() == gs.tobytes()
        assert sorted(grads) == sorted(["shared.theta"] + [f"task.{t}.theta" for t in group])

    bad = int(rng.integers(1, k + 1))
    b = model._b.copy()
    for t in range(bad, k + 1):  # the error names the first non-finite task
        b[t - 1, int(rng.integers(rows))] = float(rng.choice([np.inf, -np.inf, np.nan]))
    broken = QuadraticModel(model._a, model._c, b)
    for name, value in model.partition.all_blocks().items():
        broken.partition.set_block(name, value)
    with pytest.raises(NonFiniteValue, match=f"task {bad} quadratic loss"):
        broken.forward_all(None)


def test_snapshot_restore_round_trip_bitwise():
    suite = TaskSuite(2)
    model = build_shared_trunk(4, 2, suite, seed=9, in_dim=3)
    batch = Batch(np.ones((2, 3)), {1: np.ones((2, 1)), 2: np.ones((2, 1))}, 0)
    base = model.forward_all(batch)
    snap = snapshot(model)
    for name in model.partition.block_ids((1, 2)):
        model.partition.set_block(name, model.partition.block(name) + 0.5)
    assert model.forward_all(batch) != base
    restore(model, snap)
    again = model.forward_all(batch)
    assert again == base


def test_restore_onto_mismatched_blocks_fails():
    """A snapshot restores only onto a buffer of its own shape."""
    suite = TaskSuite(2)
    model = build_shared_trunk(4, 1, suite, seed=12, in_dim=2)
    other = build_shared_trunk(4, 1, TaskSuite(3), seed=12, in_dim=2)
    version = model.partition.version
    before = model.partition.buffer.copy()
    for snap in (snapshot(other), snapshot(model)[:-1], snapshot(model).reshape(1, -1)):
        with pytest.raises(ModelError, match="snapshot of shape"):
            restore(model, snap)
    assert model.partition.version == version
    assert model.partition.buffer.tobytes() == before.tobytes()


def test_missing_target_is_reported_with_task_id():
    suite = TaskSuite(2)
    model = build_shared_trunk(4, 1, suite, seed=13, in_dim=2)
    with pytest.raises(ModelError, match="task 2"):
        model.forward_all(Batch(np.ones((2, 2)), {1: np.ones((2, 1))}, 7))


def test_batch_row_count_validation():
    with pytest.raises(ModelError, match="task 1"):
        Batch(np.ones((3, 2)), {1: np.ones((2, 1))}, 0)
