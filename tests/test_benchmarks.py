import numpy as np
import pytest

from mtopt.benchmarks import (BenchmarkError, QuadraticSpec, RegressionSuiteSpec,
                              gen_quadratic_suite, gen_regression_suite,
                              load_csv_dataset, property_instance, triad_spec)
from mtopt.models import build_shared_trunk
from mtopt.optim import TrainConfig, train
from mtopt.tensor import backward, evaluate
from tests.test_optim import Collector


def shared_grad(model, tid):
    model.forward_all(None)
    return model.backward_group((tid,), model.suite.weights())["shared.theta"]


@pytest.mark.parametrize("rho,k", [(1.0, 2), (-1.0, 2), (0.5, 3), (0.0, 4), (-0.3, 3)])
def test_alignment_recipe_hits_rho_exactly(rho, k):
    model, _ = gen_quadratic_suite(QuadraticSpec(k=k, rows=10, seed=1, rho=rho))
    for i in model.suite.ids:
        for j in model.suite.ids:
            if i < j:
                bi, bj = model.b[i], model.b[j]
                cos = bi @ bj / (np.linalg.norm(bi) * np.linalg.norm(bj))
                assert cos == pytest.approx(rho, abs=1e-6)


def test_rho_one_aligns_gradients_and_rho_minus_one_opposes():
    model, _ = gen_quadratic_suite(QuadraticSpec(k=2, seed=2, rho=1.0))
    g1, g2 = shared_grad(model, 1), shared_grad(model, 2)
    assert g1 @ g2 > 0
    model, _ = gen_quadratic_suite(QuadraticSpec(k=2, seed=2, rho=-1.0))
    g1, g2 = shared_grad(model, 1), shared_grad(model, 2)
    assert g1 @ g2 < 0


def test_rho_zero_mean_dot_product_vanishes():
    dots = []
    for seed in range(200):
        model, _ = gen_quadratic_suite(QuadraticSpec(k=2, seed=seed, rho=0.0))
        dots.append(float(shared_grad(model, 1) @ shared_grad(model, 2)))
    dots = np.array(dots)
    se = dots.std(ddof=1) / np.sqrt(len(dots))
    assert abs(dots.mean()) < 3 * se


def test_infeasible_rho_fails_with_explanation():
    with pytest.raises(BenchmarkError, match="infeasible.*PSD"):
        gen_quadratic_suite(QuadraticSpec(k=4, seed=0, rho=-0.9))


def test_quadratic_generator_is_bitwise_reproducible():
    a, _ = gen_quadratic_suite(QuadraticSpec(k=3, seed=9))
    b, _ = gen_quadratic_suite(QuadraticSpec(k=3, seed=9))
    for tid in a.suite.ids:
        assert a.a[tid].tobytes() == b.a[tid].tobytes()
        assert a.b[tid].tobytes() == b.b[tid].tobytes()


def test_generated_suite_analytic_gradients_match_tape():
    model, _ = gen_quadratic_suite(QuadraticSpec(k=3, seed=4))
    rng = np.random.default_rng(0)
    model.partition.set_block("shared.theta", rng.standard_normal(6))
    model.forward_all(None)
    analytic = model.backward_group((1, 2, 3), model.suite.weights())
    graph, loss_nodes, bindings = model.tape_graph()
    evaluate(graph, bindings)
    tape = backward(graph, {nid: 1.0 for nid in loss_nodes.values()}, set(bindings))
    assert np.max(np.abs(tape["shared.theta2d"].ravel()
                         - analytic["shared.theta"])) < 1e-10


def test_property_instance_normalization_and_sign_control():
    for seed in (21, 3, 4):  # seeds 3 and 4 need a target's sign flipped
        model, _ = property_instance(3, seed=seed, align=(1, -1))
        g = {tid: shared_grad(model, tid) for tid in (1, 2, 3)}
        for tid in (1, 2, 3):
            assert np.linalg.norm(g[tid]) == pytest.approx(1.0, rel=1e-9)
        assert g[1] @ g[3] > 0
        assert g[2] @ g[3] < 0


def test_regression_generator_is_bitwise_reproducible():
    d1, _ = gen_regression_suite(triad_spec(seed=3))
    d2, _ = gen_regression_suite(triad_spec(seed=3))
    assert d1.train_x.tobytes() == d2.train_x.tobytes()
    for tid in d1.train_targets:
        assert d1.train_targets[tid].tobytes() == d2.train_targets[tid].tobytes()


def test_regression_split_is_disjoint_and_sized():
    spec = triad_spec(seed=1)
    ds, suite = gen_regression_suite(spec)
    assert ds.train_x.shape == (spec.n_train, spec.input_dim)
    assert ds.eval_x.shape == (spec.n_eval, spec.input_dim)
    assert suite.k == 3


def test_noise_free_decoupled_tasks_can_be_overfit():
    # single-task training (others weight-masked) drives each loss below 1e-6
    spec = RegressionSuiteSpec(k=3, input_dim=8, hidden=8, conflict=0.0, noise=0.0,
                               n_train=32, n_eval=32, seed=0)
    ds, suite = gen_regression_suite(spec)
    for tid in suite.ids:
        model = build_shared_trunk(32, 2, suite, seed=[0, 2], in_dim=8)
        mask = {t: (1.0 if t == tid else 0.0) for t in suite.ids}
        cfg = TrainConfig(method="JOINT", eta=0.003, iters=25000, optimizer="adam",
                          seed=0, weights=mask)
        log = train(model, ds.stream(32, 25000, 0), cfg)
        assert log.final_losses[tid] < 1e-6


def test_triad_reference_run_keeps_aligned_pair_positive():
    # pinned reference: tracked affinity between the aligned pair turns and
    # stays positive after warmup, and the pair groups together far more
    # often than either pair with the conflict task
    ds, suite = gen_regression_suite(triad_spec(seed=0))
    model = build_shared_trunk(8, 2, suite, seed=[0, 2], in_dim=8)
    cfg = TrainConfig(method="SELECTIVE", eta=0.05, beta=0.01, iters=2000, seed=0)
    sink = Collector()
    train(model, ds.stream(32, 2000, 0), cfg, sink)
    series = {(1, 2): [], (2, 1): []}
    for row in sink.affinity_rows:
        key = (row[2], row[3])
        if key in series:
            series[key].append(row[5])
    for key, vals in series.items():
        warm = vals[len(vals) // 5:]
        assert np.mean([v > 0 for v in warm]) >= 0.8, key

    def freq(i, j):
        return np.mean([1.0 if any(i in g and j in g for g in s.partition.groups) else 0.0
                        for s in sink.steps])

    assert freq(1, 2) > freq(1, 3)
    assert freq(1, 2) > freq(2, 3)


def test_minibatch_stream_is_deterministic():
    ds, _ = gen_regression_suite(triad_spec(seed=5))
    a = [b.inputs.tobytes() for b in ds.stream(16, 5, seed=7)]
    b = [b.inputs.tobytes() for b in ds.stream(16, 5, seed=7)]
    assert a == b


@pytest.mark.parametrize("batch_size", [16, 40])
def test_full_batch_stream_yields_the_training_set_without_drawing(batch_size, monkeypatch):
    ds, _ = gen_regression_suite(RegressionSuiteSpec(n_train=16, n_eval=4))
    made, default_rng = [], np.random.default_rng

    def spy(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    batches = list(ds.stream(batch_size, 3, seed=7))
    assert [b.sample_id for b in batches] == [1, 2, 3]
    for b in batches:
        assert b.inputs.tobytes() == ds.train_x.tobytes()
        assert {t: y.tobytes() for t, y in b.targets.items()} == \
            {t: y.tobytes() for t, y in ds.train_targets.items()}
    assert made[0].bit_generator.state == default_rng([7, 0]).bit_generator.state


# -- CSV ----------------------------------------------------------------------


def test_csv_load_shapes(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x1,x2,y1,y2\n1,2,3,4\n5,6,7,8\n9,10,11,12\n")
    ds, suite = load_csv_dataset(p, ["x1", "x2"], {1: ["y1"], 2: ["y2"]})
    assert ds.train_x.shape == (3, 2)
    assert ds.train_targets[1].shape == (3, 1)
    assert suite.k == 2


def test_csv_missing_column_named(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x1,y1\n1,2\n")
    with pytest.raises(BenchmarkError, match="missing column 'x2'"):
        load_csv_dataset(p, ["x1", "x2"], {1: ["y1"]})


def test_csv_non_numeric_cell_names_row_and_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x1,y1\n1,2\noops,3\n")
    with pytest.raises(BenchmarkError, match="row 3, column 'x1'"):
        load_csv_dataset(p, ["x1"], {1: ["y1"]})


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(8)
    inputs = rng.standard_normal((4, 2))
    targets = {1: rng.standard_normal((4, 1)), 2: rng.standard_normal((4, 2))}
    p = tmp_path / "out.csv"
    cols = {1: ["t1"], 2: ["t2a", "t2b"]}
    rows = np.hstack([inputs, targets[1], targets[2]])
    lines = ["x1,x2,t1,t2a,t2b"] + [",".join(format(v, ".17g") for v in row) for row in rows]
    p.write_text("\n".join(lines) + "\n")
    ds, _ = load_csv_dataset(p, ["x1", "x2"], cols)
    assert ds.train_x.tobytes() == inputs.tobytes()
    for tid in targets:
        assert ds.train_targets[tid].tobytes() == targets[tid].tobytes()
