import warnings

import numpy as np
import pytest

from mtopt import analysis
from mtopt.analysis import (AnalysisError, TaskResult, delta_m,
                            delta_m_from_losses, grouping_frequency,
                            mean_group_count, run_property_suite, summarize_run)
from mtopt.benchmarks import gen_quadratic_suite, QuadraticSpec
from mtopt.optim import TrainConfig, train
from mtopt.models import Batch
from mtopt.tensor import NonFiniteValue
from tests import metric_fixtures as fx
from tests.test_optim import Collector


def results(metrics, baselines, lower):
    return [TaskResult(m, b, l, name=str(i + 1))
            for i, (m, b, l) in enumerate(zip(metrics, baselines, lower))]


def test_delta_m_identical_performance_is_zero():
    r = results([1.0, 2.0], [1.0, 2.0], [True, True])
    assert delta_m(r) == 0.0


def test_delta_m_taskonomy_fixture():
    r = results(fx.TASKONOMY_SELECTIVE, fx.TASKONOMY_SINGLE, fx.TASKONOMY_LOWER_IS_BETTER)
    assert delta_m(r) == pytest.approx(fx.TASKONOMY_EXPECTED_PCT, abs=0.02)


def test_delta_m_nyud_mixed_directions_fixture():
    r = results(fx.NYUD_SELECTIVE, fx.NYUD_SINGLE, fx.NYUD_LOWER_IS_BETTER)
    assert delta_m(r) == pytest.approx(fx.NYUD_EXPECTED_PCT, abs=0.02)


def test_delta_m_sign_convention():
    better_lower = results([0.5], [1.0], [True]) + results([1.0], [1.0], [True])
    assert delta_m(better_lower) > 0
    worse_higher = results([0.5], [1.0], [False]) + results([1.0], [1.0], [False])
    assert delta_m(worse_higher) < 0


def test_delta_m_scale_invariance_per_task():
    base = results([0.4, 3.0], [0.5, 2.0], [True, True])
    scaled = results([4.0, 3.0], [5.0, 2.0], [True, True])
    assert delta_m(base) == pytest.approx(delta_m(scaled), rel=1e-12)


def test_delta_m_zero_baseline_names_task():
    with pytest.raises(AnalysisError, match="task 2"):
        delta_m(results([1.0, 1.0], [1.0, 0.0], [True, True]))


def test_delta_m_from_losses_rejects_mismatched_tasks():
    with pytest.raises(AnalysisError, match="differ"):
        delta_m_from_losses({1: 1.0}, {1: 1.0, 2: 2.0})


def quad_log(method, **kw):
    model, _ = gen_quadratic_suite(QuadraticSpec(k=3, seed=0))
    cfg = TrainConfig(method=method, eta=0.01, iters=20, seed=0, **kw)
    batches = (Batch(None, {}, it) for it in range(1, 21))
    log = train(model, batches, cfg)
    log.eval_losses = dict(log.final_losses)
    return log


def test_separate_run_mean_group_count_is_k():
    log = quad_log("SEPARATE")
    assert mean_group_count(log) == 3.0
    freq = grouping_frequency(log)
    assert np.allclose(np.diag(freq), 1.0)
    assert np.allclose(freq - np.diag(np.diag(freq)), 0.0)


@pytest.mark.parametrize("method, extra", [("SELECTIVE", {}), ("RANDOM", {"random_groups": 3})])
def test_run_totals_equal_the_per_iteration_reference(method, extra):
    """The summaries read from the log's totals equal the same figures
    computed over every report of the run, bit for bit."""
    model, _ = gen_quadratic_suite(QuadraticSpec(k=5, seed=2, rho=0.5))
    cfg = TrainConfig(method=method, eta=0.02, beta=0.05, iters=37, seed=4, **extra)
    sink = Collector()
    log = train(model, (Batch(None, {}, it) for it in range(1, 38)), cfg, sink)
    reports = sink.steps
    assert mean_group_count(log) == float(np.mean([r.partition.m for r in reports]))
    counts = np.zeros((5, 5))
    for report in reports:
        for group in report.partition.groups:
            for i in group:
                for j in group:
                    counts[i - 1, j - 1] += 1
    assert grouping_frequency(log).tobytes() == (counts / len(reports)).tobytes()
    assert summarize_run(log)["counts"] == {
        "forwards": sum(r.forwards for r in reports),
        "backwards": sum(r.backwards for r in reports),
        "opt_steps": sum(r.opt_steps for r in reports)}
    assert summarize_run(log)["iterations"] == log.iterations == 37


def test_summarize_is_pure():
    log = quad_log("SELECTIVE")
    a = summarize_run(log)
    b = summarize_run(log)
    assert a == b


# -- property suites -----------------------------------------------------------


def test_suite_t1_t2_smoke():
    for sid in ("T1", "T2"):
        rep = run_property_suite(sid, instances=30, seed=0)
        assert rep.violations == 0, rep


def test_suite_t3_smoke_and_both_regimes():
    assert run_property_suite("T3", 30, seed=0).violations == 0


def test_suite_t4_smoke():
    rep = run_property_suite("T4", instances=3, seed=0)
    assert rep.violations == 0


def test_suite_t5_smoke():
    rep = run_property_suite("T5", instances=30, seed=0)
    assert rep.violations == 0


def test_suite_a1_smoke():
    rep = run_property_suite("A1", instances=30, seed=0)
    assert rep.violations == 0


def test_margin_hook_makes_suites_fail():
    rep = run_property_suite("T3", instances=10, seed=0, margin_scale=1e-4)
    assert rep.violations > 0


def test_unknown_suite_and_bad_instance_count():
    with pytest.raises(AnalysisError):
        run_property_suite("T9", 10)
    with pytest.raises(AnalysisError):
        run_property_suite("T1", 0)


@pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("nan")])
def test_margin_scale_must_be_finite_and_positive(scale):
    with pytest.raises(AnalysisError, match="margin scale"):
        run_property_suite("T4", 1, margin_scale=scale)


def test_non_finite_suite_value_raises_without_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="quadratic loss is non-finite"):
            run_property_suite("T4", 3, margin_scale=0.1)


def test_t4_counts_a_nan_side_of_the_descent_inequality_as_a_violation(monkeypatch):
    # the check is not (lhs <= rhs + slack): lhs > rhs + slack is False for a NaN rhs
    monkeypatch.setattr(analysis, "descent_substeps",
                        lambda *args: [(1.0, float("nan"), 0.0, 0.0)])
    assert run_property_suite("T4", 1).violations == 1
