import inspect
import itertools
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from mtopt import models, tensor
from mtopt.benchmarks import gen_regression_suite, triad_spec
from mtopt.models import ACTIVATIONS, Batch, ModelError, TaskSuite, build_shared_trunk
from mtopt.optim import TrainConfig, train
from mtopt.tensor import (Graph, GraphError, NonFiniteValue, ShapeMismatch,
                          backward, evaluate, finite_difference_grad)


def scalar_square():
    g = Graph()
    x = g.leaf("x")
    y = g.mark_output(g.reduce_sum(g.mul(x, x)))
    return g, y


def test_scalar_square_forward():
    g, y = scalar_square()
    out = evaluate(g, {"x": np.array(3.0)})
    assert float(out[y]) == 9.0


def test_matmul_of_ones_gives_row_sums():
    g = Graph()
    out = g.mark_output(g.matmul(g.leaf("a"), g.leaf("b")))
    vals = evaluate(g, {"a": np.ones((2, 3)), "b": np.ones((3, 1))})
    assert vals[out].shape == (2, 1)
    assert np.all(vals[out] == 3.0)


def test_mse_of_identical_inputs_is_zero():
    g = Graph()
    out = g.mark_output(g.squared_error(g.leaf("p"), g.leaf("t")))
    vals = evaluate(g, {"p": np.array([1.0, 2.0]), "t": np.array([1.0, 2.0])})
    assert float(vals[out]) == 0.0


def test_backward_square_at_three():
    g, y = scalar_square()
    evaluate(g, {"x": np.array(3.0)})
    grads = backward(g, y, {"x"})
    assert float(grads["x"]) == 6.0


def test_backward_half_square_residual():
    # L = 0.5 * (theta - a)^2 at theta=0, a=1 -> dL/dtheta = -1
    g = Graph()
    r = g.sub(g.leaf("theta"), g.const(np.array(1.0)))
    loss = g.mark_output(g.scale(g.mul(r, r), 0.5))
    evaluate(g, {"theta": np.array(0.0)})
    grads = backward(g, loss, {"theta"})
    assert float(grads["theta"]) == -1.0


def test_finite_difference_square():
    grads = finite_difference_grad(lambda b: float(b["x"]) ** 2, {"x": np.array(3.0)}, 1e-4)
    assert abs(float(grads["x"]) - 6.0) < 1e-7


def test_finite_difference_relu_away_from_kink():
    grads = finite_difference_grad(lambda b: max(float(b["x"]), 0.0), {"x": np.array(1.0)}, 1e-4)
    assert float(grads["x"]) == pytest.approx(1.0, abs=1e-12)


def _two_layer_mlp(rng, n=4, din=3, width=5):
    g = Graph()
    h = g.tanh(g.bias_add(g.matmul(g.leaf("x"), g.leaf("w0")), g.leaf("b0")))
    pred = g.bias_add(g.matmul(h, g.leaf("w1")), g.leaf("b1"))
    loss = g.mark_output(g.squared_error(pred, g.leaf("t")))
    bindings = {
        "x": rng.standard_normal((n, din)),
        "w0": rng.standard_normal((din, width)) / np.sqrt(din),
        "b0": rng.standard_normal(width) * 0.1,
        "w1": rng.standard_normal((width, 2)) / np.sqrt(width),
        "b1": rng.standard_normal(2) * 0.1,
        "t": rng.standard_normal((n, 2)),
    }
    return g, loss, bindings


@pytest.mark.parametrize("seed", range(20))
def test_mlp_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    g, loss, bindings = _two_layer_mlp(rng)
    evaluate(g, bindings)
    wanted = {"w0", "b0", "w1", "b1"}
    grads = backward(g, loss, wanted)

    def f(b):
        return float(evaluate(g, b)[loss])

    fd = finite_difference_grad(f, bindings, 1e-5)
    evaluate(g, bindings)  # leave the cache consistent with the bindings
    for name in wanted:
        scale = max(1.0, float(np.max(np.abs(fd[name]))))
        assert np.max(np.abs(grads[name] - fd[name])) / scale < 1e-5


def _op_case(kind, rng):
    """One scalarized graph exercising a single op kind, plus its bindings."""
    g = Graph()
    n, m, p = (int(rng.integers(2, 5)) for _ in range(3))
    if kind == "matmul":
        out = g.matmul(g.leaf("a"), g.leaf("b"))
        bindings = {"a": rng.standard_normal((n, m)), "b": rng.standard_normal((m, p))}
    elif kind in ("add", "sub", "mul"):
        op = getattr(g, kind)
        out = op(g.leaf("a"), g.leaf("b"))
        bindings = {"a": rng.standard_normal((n, m)), "b": rng.standard_normal((n, m))}
    elif kind == "scale":
        out = g.scale(g.leaf("a"), rng.uniform(-2.0, 2.0))
        bindings = {"a": rng.standard_normal((n, m))}
    elif kind == "bias_add":
        out = g.bias_add(g.leaf("a"), g.leaf("b"))
        bindings = {"a": rng.standard_normal((n, m)), "b": rng.standard_normal(m)}
    elif kind in ("relu", "tanh"):
        out = getattr(g, kind)(g.leaf("a"))
        a = rng.standard_normal((n, m))
        a = a + np.sign(a) * 1e-3  # keep clear of the relu kink
        bindings = {"a": a}
    elif kind == "reduce_sum":
        out = g.reduce_sum(g.leaf("a"))
        bindings = {"a": rng.standard_normal((n, m))}
    elif kind == "squared_error":
        out = g.squared_error(g.leaf("a"), g.leaf("b"))
        bindings = {"a": rng.standard_normal((n, m)), "b": rng.standard_normal((n, m))}
    else:
        raise AssertionError(kind)
    if kind not in ("reduce_sum", "squared_error"):
        out = g.reduce_sum(out)
    return g, g.mark_output(out), bindings


ALL_KINDS = ["matmul", "add", "sub", "mul", "bias_add", "relu", "tanh",
             "reduce_sum", "squared_error", "scale"]


def test_every_op_kind_the_graph_builds_has_a_gradient_case():
    built = set(re.findall(r'_new\("(\w+)"', inspect.getsource(Graph)))
    assert set(ALL_KINDS) == built - {"leaf", "const"}


@pytest.mark.parametrize("case", range(100))
def test_every_op_kind_matches_finite_differences(case):
    kind = ALL_KINDS[case % len(ALL_KINDS)]
    rng = np.random.default_rng(1000 + case)
    g, loss, bindings = _op_case(kind, rng)
    evaluate(g, bindings)
    grads = backward(g, loss, set(bindings))

    def f(b):
        return float(evaluate(g, b)[loss])

    fd = finite_difference_grad(f, bindings, 1e-5)
    for name in bindings:
        scale = max(1.0, float(np.max(np.abs(fd[name]))))
        assert np.max(np.abs(grads[name] - fd[name])) / scale < 1e-5, (kind, name)


def test_evaluate_is_deterministic_bitwise():
    rng = np.random.default_rng(7)
    g, loss, bindings = _two_layer_mlp(rng)
    a = evaluate(g, bindings)[loss].copy()
    b = evaluate(g, bindings)[loss].copy()
    assert a.tobytes() == b.tobytes()


def test_unwanted_blocks_absent_from_gradient_map():
    rng = np.random.default_rng(11)
    g, loss, bindings = _two_layer_mlp(rng)
    evaluate(g, bindings)
    grads = backward(g, loss, {"w1"})
    assert set(grads) == {"w1"}


def test_shape_mismatch_names_op_and_shapes():
    g = Graph()
    g.mark_output(g.matmul(g.leaf("a"), g.leaf("b")))
    with pytest.raises(ShapeMismatch, match=r"matmul.*\(2, 3\).*\(2, 1\)"):
        evaluate(g, {"a": np.ones((2, 3)), "b": np.ones((2, 1))})


def test_non_finite_result_fails():
    g = Graph()
    g.mark_output(g.reduce_sum(g.mul(g.leaf("x"), g.leaf("x"))))
    with pytest.raises(NonFiniteValue):
        evaluate(g, {"x": np.array([1e200, 1e200])})


def test_backward_after_a_failed_forward_raises():
    g = Graph()
    y = g.mark_output(g.reduce_sum(g.matmul(g.leaf("x"), g.leaf("w"))))
    w = np.array([[0.3], [-0.2]])
    evaluate(g, {"x": np.ones((2, 2)), "w": w})
    with pytest.raises(NonFiniteValue):
        evaluate(g, {"x": np.array([[np.inf, 1.0], [1.0, 1.0]]), "w": w})
    with pytest.raises(GraphError, match="before evaluate"):
        backward(g, y, {"w"})  # not the gradient at the previous, finite forward


def test_model_backward_after_a_failed_forward_raises():
    model = build_shared_trunk(4, 1, TaskSuite(2), seed=0)
    rng = np.random.default_rng(0)
    targets = {1: np.zeros((3, 1)), 2: np.zeros((3, 1))}
    model.forward_all(Batch(rng.standard_normal((3, 4)), targets, 1))
    with pytest.raises(NonFiniteValue):
        model.forward_all(Batch(np.full((3, 4), np.nan), targets, 2))
    with pytest.raises(ModelError, match="fresh forward"):
        model.backward_group((1,), {1: 1.0, 2: 1.0})


def test_non_scalar_loss_rejected():
    g = Graph()
    out = g.mark_output(g.add(g.leaf("a"), g.leaf("b")))
    evaluate(g, {"a": np.ones(2), "b": np.ones(2)})
    with pytest.raises(GraphError, match="not scalar"):
        backward(g, out, {"a"})


def test_wanted_must_be_a_leaf():
    g, loss = scalar_square()
    evaluate(g, {"x": np.array(2.0)})
    with pytest.raises(GraphError, match="not leaves"):
        backward(g, loss, {"nope"})


def test_unbound_leaf_rejected():
    g, _ = scalar_square()
    with pytest.raises(GraphError, match="unbound"):
        evaluate(g, {})


def test_finite_difference_requires_positive_h():
    with pytest.raises(ValueError):
        finite_difference_grad(lambda b: 0.0, {"x": np.array(1.0)}, 0.0)


def test_overflowing_gradient_names_the_backward_op():
    g = Graph()
    loss = g.mark_output(g.scale(g.reduce_sum(g.matmul(g.leaf("a"), g.leaf("b"))), 1e300))
    bindings = {"a": np.array([[1e-300]]), "b": np.array([[1e300]])}
    assert float(evaluate(g, bindings)[loss]) == 1e300  # the forward is finite
    with pytest.raises(NonFiniteValue, match=r"^backward through op 'matmul' \(node 2\) produced a "
                                             r"non-finite gradient$"):
        backward(g, loss, {"a", "b"})


# -- MLPModel's closed form against the interpreter, bitwise ------------------
#
# ``MLPModel`` trains on its tape compiled by hand: the plan of numpy calls
# the interpreter makes for each op, in the interpreter's order. The tests
# below hold it to the interpreter's losses, gradients and errors.


def refuse(*args):
    raise AssertionError("the closed form ran the tape interpreter")


def assert_bitwise(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def mlp_case(depth, width, activation, cols, rows, seed, in_dim=3):
    """A trunk as ``build_shared_trunk`` builds it, and a batch of ``rows``;
    task i's head has ``cols[i - 1]`` outputs."""
    suite = TaskSuite(len(cols))
    model = build_shared_trunk(width, depth, suite, seed=seed, in_dim=in_dim,
                               out_dims=dict(zip(suite.ids, cols)), activation=activation)
    rng = np.random.default_rng([seed, rows])
    targets = {tid: rng.uniform(-1.0, 1.0, size=(rows, c)) for tid, c in zip(suite.ids, cols)}
    return model, Batch(rng.standard_normal((rows, in_dim)), targets, seed)


def triad(activation, rows, seed=0):
    """A three-task trunk as the triad runs build it, with a batch of ``rows``."""
    return mlp_case(2, 8, activation, (1, 1, 1), rows, seed, in_dim=8)


def tape_bindings(model, batch):
    bindings = model.partition.all_blocks()
    bindings["input"] = batch.inputs
    bindings.update((f"target.{tid}", t) for tid, t in batch.targets.items())
    return bindings


def tape_seeds(model, group, weights):
    return {model.loss_nodes[tid]: weights[tid] for tid in sorted(group)}


def every_group(ids):
    return [g for r in range(1, len(ids) + 1) for g in itertools.combinations(ids, r)]


def assert_closed_form_matches_interpreter(model, batch, weights):
    """The losses and every group's gradients (names, order and bits) equal
    the interpreter's, and the closed form never runs the interpreter."""
    outs = evaluate(model.graph, tape_bindings(model, batch))
    want_losses = {tid: float(outs[nid]) for tid, nid in model.loss_nodes.items()}
    groups = every_group(model.suite.ids)
    want = [backward(model.graph, tape_seeds(model, g, weights), set(model.partition.block_ids(g)))
            for g in groups]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(models, "evaluate", refuse)
        m.setattr(models, "backward", refuse)
        assert repr(model.forward_all(batch)) == repr(want_losses)
        for group, grads in zip(groups, want):
            got = model.backward_group(group, weights)
            assert list(got) == list(grads), group
            assert_bitwise(list(got.values()), list(grads.values()))


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(1, 4), width=st.integers(1, 12), activation=st.sampled_from(ACTIVATIONS),
       cols=st.lists(st.integers(1, 3), min_size=2, max_size=5), rows=st.integers(1, 40),
       seed=st.integers(0, 2 ** 16),
       weights=st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.01, 10.0),
                        min_size=5, max_size=5))
def test_closed_form_mlp_matches_the_interpreter_bitwise(depth, width, activation, cols, rows,
                                                         seed, weights):
    model, batch = mlp_case(depth, width, activation, cols, rows, seed)
    assert_closed_form_matches_interpreter(model, batch, dict(zip(model.suite.ids, weights)))


@pytest.mark.parametrize("case", range(100))
def test_plan_matches_interpreter_on_every_op_kind(case):
    """Every op kind of the MLP tape (matmul, bias_add, tanh or relu,
    squared_error) over 100 shapes, every group, and weights with zeros."""
    rng = np.random.default_rng(3000 + case)
    cols = [int(c) for c in rng.integers(1, 4, size=2 + case % 4)]
    model, batch = mlp_case(1 + case % 4, int(rng.integers(1, 13)), ACTIVATIONS[case // 4 % 2],
                            cols, int(rng.integers(1, 41)), case)
    weights = {tid: float(rng.choice([0.0, 0.5, 1.0, 2.5])) for tid in model.suite.ids}
    assert_closed_form_matches_interpreter(model, batch, weights)


@pytest.mark.parametrize("seed", range(5))
def test_plan_matches_interpreter_on_two_layer_mlp(seed):
    model, batch = triad("tanh", rows=16, seed=seed)
    assert_closed_form_matches_interpreter(model, batch, model.suite.weights())


@pytest.mark.parametrize("head_loss", ["squared_error"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_pruned_sweep_matches_reference_for_every_loss_subset(head_loss, activation):
    """``backward_group`` returns exactly the shared blocks and the group's
    heads, with the interpreter's gradients, for every subset of the losses."""
    model, batch = triad(activation, rows=32)
    assert {model.graph.nodes[nid].op for nid in model.loss_nodes.values()} == {head_loss}
    assert_closed_form_matches_interpreter(model, batch, {tid: 0.5 + tid for tid in model.suite.ids})


def test_plan_follows_the_train_and_eval_batch_sizes():
    model, train_batch = triad("tanh", rows=32)
    _, eval_batch = triad("tanh", rows=256)
    for batch in (train_batch, eval_batch, train_batch):
        assert_closed_form_matches_interpreter(model, batch, model.suite.weights())


def test_a_finite_training_run_never_runs_the_interpreter(monkeypatch):
    for name in ("evaluate", "backward"):
        monkeypatch.setattr(tensor, name, refuse)
        monkeypatch.setattr(models, name, refuse)
    ds, suite = gen_regression_suite(triad_spec(seed=0))
    model = build_shared_trunk(8, 2, suite, seed=0, in_dim=ds.train_x.shape[1])
    cfg = TrainConfig(method="SELECTIVE", eta=0.05, beta=0.01, iters=30)
    assert train(model, ds.stream(16, 30, 0), cfg).iterations == 30


def error_of(run, *args):
    with pytest.raises((GraphError, ShapeMismatch, NonFiniteValue)) as err:
        run(*args)
    return type(err.value), str(err.value)


def with_prefix(error, prefix):
    """The interpreter's error as the model re-raises it."""
    kind, message = error
    return (kind, f"{prefix}: {message}") if kind is NonFiniteValue else error


def assert_forward_fails_as_the_interpreter_does(model, batch):
    want = error_of(evaluate, model.graph, tape_bindings(model, batch))
    assert error_of(model.forward_all, batch) == with_prefix(want, f"forward on batch {batch.sample_id}")
    return want


def overflowing_trunk(model, batch, sign):
    model.partition.set_block("trunk.0.w", np.full((3, 4), sign * 1e308))
    return Batch(np.full_like(batch.inputs, 2.0), batch.targets, batch.sample_id)


def poisoned(array, value):
    array = array.copy()
    array.flat[0] = value
    return array


BAD_BATCHES = {  # the bad batch of a depth-2, width-4, three-task trunk on 5 rows of 3 inputs
    "overflow-hidden-by-tanh": ("tanh", lambda m, b: overflowing_trunk(m, b, 1.0),
                                (NonFiniteValue, "op 'matmul' (node 2) produced a non-finite value")),
    "overflow-hidden-by-relu": ("relu", lambda m, b: overflowing_trunk(m, b, -1.0),
                                (NonFiniteValue, "op 'matmul' (node 2) produced a non-finite value")),
    "nan-input": ("tanh", lambda m, b: Batch(poisoned(b.inputs, np.nan), b.targets, 4),
                  (NonFiniteValue, "op 'leaf' (node 0) produced a non-finite value")),
    "inf-target": ("relu", lambda m, b: Batch(b.inputs, {**b.targets, 2: poisoned(b.targets[2], np.inf)}, 4),
                   (NonFiniteValue, "op 'leaf' (node 21) produced a non-finite value")),
    "input-width": ("tanh", lambda m, b: Batch(np.ones((5, 4)), b.targets, 4),
                    (ShapeMismatch, "matmul: inner extents differ: (5, 4) @ (3, 4)")),
    "target-columns": ("tanh", lambda m, b: Batch(b.inputs, {**b.targets, 3: np.ones((5, 2))}, 4),
                       (ShapeMismatch, "squared_error: shapes differ: (5, 1) vs (5, 2)")),
    "1d-input": ("tanh", lambda m, b: Batch(np.ones(5), b.targets, 4),
                 (ShapeMismatch, "matmul: need 2-d operands, got (5,) and (3, 4)")),
    "1d-target": ("relu", lambda m, b: Batch(b.inputs, {**b.targets, 1: np.ones(5)}, 4),
                  (ShapeMismatch, "squared_error: shapes differ: (5, 1) vs (5,)")),
    "empty-batch": ("tanh", lambda m, b: Batch(np.ones((0, 3)), {t: np.ones((0, 1)) for t in b.targets}, 4),
                    (NonFiniteValue, "op 'squared_error' (node 16) produced a non-finite value")),
}


@pytest.mark.parametrize("case", BAD_BATCHES)
def test_closed_form_forward_fails_as_the_interpreter_does(case):
    activation, make_bad, want = BAD_BATCHES[case]
    model, batch = mlp_case(2, 4, activation, (1, 1, 1), 5, seed=1)
    model.forward_all(batch)
    assert assert_forward_fails_as_the_interpreter_does(model, make_bad(model, batch)) == want
    with pytest.raises(ModelError, match="fresh forward"):
        model.backward_group((1,), model.suite.weights())


def test_closed_form_backward_fails_as_the_interpreter_does():
    # a dead relu unit hides a huge head weight from the forward, but the head
    # matmul's adjoint to the trunk overflows
    model, _ = mlp_case(1, 4, "relu", (1, 1), 8, seed=0, in_dim=4)
    model.partition.set_block("trunk.0.b", np.full(4, -1e3))
    model.partition.set_block("head.1.w", np.full((4, 1), 1e308))
    rng = np.random.default_rng(0)
    batch = Batch(rng.standard_normal((8, 4)), {1: np.full((8, 1), 1e3), 2: np.zeros((8, 1))}, 5)
    weights = model.suite.weights()
    model.forward_all(batch)  # finite
    evaluate(model.graph, tape_bindings(model, batch))
    want = error_of(backward, model.graph, tape_seeds(model, (1,), weights),
                    set(model.partition.block_ids((1,))))
    assert want == (NonFiniteValue, "backward through op 'matmul' (node 7) produced a non-finite gradient")
    assert error_of(model.backward_group, (1,), weights) == with_prefix(want, "backward on batch 5")


# -- the interpreter's own errors ---------------------------------------------


def test_unbound_leaf_error_matches_interpreter():
    g, loss, bindings = _two_layer_mlp(np.random.default_rng(3))
    evaluate(g, bindings)
    del bindings["b1"]
    assert error_of(evaluate, g, bindings) == (GraphError, "leaf 'b1' is unbound")


def test_shape_mismatch_error_matches_interpreter():
    g, loss, bindings = _two_layer_mlp(np.random.default_rng(3))
    evaluate(g, bindings)
    bindings["w1"] = np.ones((4, 2))
    assert error_of(evaluate, g, bindings) == (
        ShapeMismatch, "matmul: inner extents differ: (4, 5) @ (4, 2)")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_non_finite_input_error_matches_interpreter(kind, bad):
    g, loss, bindings = _op_case(kind, np.random.default_rng(7))
    evaluate(g, bindings)
    bindings["a"] = bindings["a"].copy()
    bindings["a"][0, 0] = bad
    assert error_of(evaluate, g, bindings) == (
        NonFiniteValue, "op 'leaf' (node 0) produced a non-finite value")


def test_non_finite_operand_of_an_empty_result_is_caught():
    g = Graph()
    loss = g.mark_output(g.reduce_sum(g.matmul(g.leaf("a"), g.leaf("b"))))
    a, b = np.ones((2, 3)), np.ones((3, 0))
    assert float(evaluate(g, {"a": a, "b": b})[loss]) == 0.0
    a[0, 0] = np.inf  # the (2, 0) product and its sum stay finite
    assert error_of(evaluate, g, {"a": a, "b": b}) == (
        NonFiniteValue, "op 'leaf' (node 0) produced a non-finite value")


def test_overflow_hidden_by_tanh_is_caught():
    g, loss, bindings = _two_layer_mlp(np.random.default_rng(3))
    evaluate(g, bindings)
    bindings["w0"] = bindings["w0"] * 1e308  # the first matmul overflows; tanh maps inf to 1
    assert error_of(evaluate, g, bindings) == (
        NonFiniteValue, "op 'matmul' (node 2) produced a non-finite value")
