import inspect
import itertools
import re

import numpy as np
import pytest

from mtopt import tensor
from mtopt.models import Batch, ModelError, TaskSuite, build_shared_trunk
from mtopt.tensor import (Graph, GraphError, NonFiniteValue, ShapeMismatch,
                          backward, evaluate, finite_difference_grad, interpret,
                          interpret_backward)


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


# -- the compiled plan against the interpreter, bitwise ------------------------


def refuse(*args):
    raise AssertionError("the plan fell back to the interpreter")


def assert_bitwise(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_plan_matches_interpreter(g, bindings, sweeps, monkeypatch):
    """Forward values and every (seeds, wanted) gradient of the plan equal the
    interpreter's; the leaf shapes must already be known to the plan, which
    must not fall back to the interpreter."""
    interpret(g, bindings)
    want_vals = list(g.values)
    want_grads = [interpret_backward(g, seeds, wanted) for seeds, wanted in sweeps]
    with monkeypatch.context() as m:
        m.setattr(tensor, "interpret", refuse)
        m.setattr(tensor, "interpret_backward", refuse)
        evaluate(g, bindings)
        assert_bitwise(g.values, want_vals)
        for (seeds, wanted), want in zip(sweeps, want_grads):
            got = backward(g, seeds, wanted)
            assert list(got) == list(want)
            assert_bitwise(list(got.values()), list(want.values()))


@pytest.mark.parametrize("case", range(100))
def test_plan_matches_interpreter_on_every_op_kind(case, monkeypatch):
    kind = ALL_KINDS[case % len(ALL_KINDS)]
    g, loss, bindings = _op_case(kind, np.random.default_rng(1000 + case))
    evaluate(g, bindings)
    sweeps = [(loss, set(bindings))] + [({loss: 0.5}, {name}) for name in bindings]
    assert_plan_matches_interpreter(g, bindings, sweeps, monkeypatch)


@pytest.mark.parametrize("seed", range(5))
def test_plan_matches_interpreter_on_two_layer_mlp(seed, monkeypatch):
    g, loss, bindings = _two_layer_mlp(np.random.default_rng(seed))
    evaluate(g, bindings)
    wanted = {"w0", "b0", "w1", "b1"}
    sweeps = [(loss, wanted), (loss, {"b1"}), (loss, {"x", "t"})]
    assert_plan_matches_interpreter(g, bindings, sweeps, monkeypatch)


def triad(activation, rows, seed=0):
    """A three-task trunk as the triad runs build it, with a batch of ``rows``."""
    model = build_shared_trunk(8, 2, TaskSuite(3), seed=seed, activation=activation)
    rng = np.random.default_rng(seed + rows)
    bindings = model.partition.all_blocks()
    bindings["input"] = rng.standard_normal((rows, 8))
    for tid in model.suite.ids:
        bindings[f"target.{tid}"] = rng.uniform(0.1, 1.0, size=(rows, 1))
    return model, bindings


@pytest.mark.parametrize("head_loss", ["squared_error"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_pruned_sweep_matches_reference_for_every_loss_subset(head_loss, activation, monkeypatch):
    model, bindings = triad(activation, rows=32)
    assert {model.graph.nodes[nid].op for nid in model.loss_nodes.values()} == {head_loss}
    evaluate(model.graph, bindings)
    sweeps = []
    for r in (1, 2, 3):
        for group in itertools.combinations(model.suite.ids, r):
            seeds = {model.loss_nodes[tid]: 0.5 + tid for tid in group}
            sweeps.append((seeds, set(model.partition.block_ids(group))))
            sweeps.append((seeds, set(bindings)))
    assert_plan_matches_interpreter(model.graph, bindings, sweeps, monkeypatch)


def test_plan_follows_the_train_and_eval_batch_sizes(monkeypatch):
    model, train_batch = triad("tanh", rows=32)
    _, eval_batch = triad("tanh", rows=256)
    sweeps = [({model.loss_nodes[1]: 1.0}, set(model.partition.block_ids((1,))))]
    for bindings in (train_batch, eval_batch):
        evaluate(model.graph, bindings)  # new leaf shapes: the interpreter checks them
        assert_plan_matches_interpreter(model.graph, bindings, sweeps, monkeypatch)
    assert_plan_matches_interpreter(model.graph, train_batch, sweeps, monkeypatch)


def error_of(run, *args):
    with pytest.raises((GraphError, ShapeMismatch, NonFiniteValue)) as err:
        run(*args)
    return type(err.value), str(err.value)


def assert_same_error(g, bindings):
    """evaluate, after the plan has seen the graph, fails as the interpreter does."""
    want = error_of(interpret, g, bindings)
    assert error_of(evaluate, g, bindings) == want
    return want


def test_unbound_leaf_error_matches_interpreter():
    g, loss, bindings = _two_layer_mlp(np.random.default_rng(3))
    evaluate(g, bindings)
    del bindings["b1"]
    assert assert_same_error(g, bindings) == (GraphError, "leaf 'b1' is unbound")


def test_shape_mismatch_error_matches_interpreter():
    g, loss, bindings = _two_layer_mlp(np.random.default_rng(3))
    evaluate(g, bindings)
    bindings["w1"] = np.ones((4, 2))
    assert assert_same_error(g, bindings) == (
        ShapeMismatch, "matmul: inner extents differ: (4, 5) @ (4, 2)")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_non_finite_input_error_matches_interpreter(kind, bad):
    g, loss, bindings = _op_case(kind, np.random.default_rng(7))
    evaluate(g, bindings)
    bindings["a"] = bindings["a"].copy()
    bindings["a"][0, 0] = bad
    assert assert_same_error(g, bindings) == (
        NonFiniteValue, "op 'leaf' (node 0) produced a non-finite value")


def test_non_finite_operand_of_an_empty_result_is_caught():
    g = Graph()
    loss = g.mark_output(g.reduce_sum(g.matmul(g.leaf("a"), g.leaf("b"))))
    a, b = np.ones((2, 3)), np.ones((3, 0))
    assert float(evaluate(g, {"a": a, "b": b})[loss]) == 0.0
    a[0, 0] = np.inf  # the (2, 0) product and its sum stay finite
    assert assert_same_error(g, {"a": a, "b": b}) == (
        NonFiniteValue, "op 'leaf' (node 0) produced a non-finite value")


def test_overflow_hidden_by_tanh_is_caught():
    g, loss, bindings = _two_layer_mlp(np.random.default_rng(3))
    evaluate(g, bindings)
    bindings["w0"] = bindings["w0"] * 1e308  # the first matmul overflows; tanh maps inf to 1
    assert assert_same_error(g, bindings) == (
        NonFiniteValue, "op 'matmul' (node 2) produced a non-finite value")


def test_plan_is_rebuilt_when_nodes_are_added():
    g, y = scalar_square()
    evaluate(g, {"x": np.array(3.0)})
    z = g.mark_output(g.scale(y, 2.0))
    assert float(evaluate(g, {"x": np.array(3.0)})[z]) == 18.0
    assert float(backward(g, z, {"x"})["x"]) == 12.0
