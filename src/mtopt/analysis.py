"""Multi-task performance metric, run summaries, and analytic check suites.

The check suites exercise the document-level guarantees of the method on
seeded convex quadratic instances, where every quantity has a closed form:

* T1 — affinity ordering implies gradient-alignment ordering
* T2 — gradient-alignment ordering implies post-update loss ordering
* T3 — the gap between the self-inclusive and plain probe equals
        eta * ||g_target||^2 / loss_target up to second order
* T4 — the per-sub-step descent inequality within the step-size regime
* T5 — two-step versus joint updates: near-equality one way, advantage the
        other way
* A1 — group probes with task updates dominate shared-only probes; the
        singleton probe towards an outside target is exactly the pairwise one
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import (group_shared_affinity, group_update_affinity,
                       inter_task_affinity, two_step_affinity)
from .benchmarks import QuadraticSpec, gen_quadratic_suite, property_instance
from .grouping import make_partition
from .optim import RunLog, check_descent


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class TaskResult:
    metric: float
    baseline: float
    lower_is_better: bool
    name: str = ""


def delta_m(results: list[TaskResult]) -> float:
    """Average per-task relative change versus the baseline, in percent.

    Sign-adjusted so that improving any task raises the value regardless of
    the metric's direction.
    """
    if not results:
        raise AnalysisError("delta_m needs at least one task result")
    total = 0.0
    for i, r in enumerate(results, start=1):
        if r.baseline == 0.0:
            raise AnalysisError(f"task {r.name or i}: zero baseline value")
        sign = -1.0 if r.lower_is_better else 1.0
        total += sign * (r.metric - r.baseline) / r.baseline
    return 100.0 * total / len(results)


def delta_m_from_losses(losses: dict[int, float], baseline: dict[int, float]) -> float:
    if set(losses) != set(baseline):
        raise AnalysisError(f"task sets differ: {sorted(losses)} vs {sorted(baseline)}")
    return delta_m([TaskResult(losses[t], baseline[t], lower_is_better=True, name=str(t))
                    for t in sorted(losses)])


def mean_group_count(log: RunLog) -> float:
    if not log.steps:
        raise AnalysisError("run log has no partition history")
    return float(np.mean([report.partition.m for report in log.steps]))


def grouping_frequency(log: RunLog) -> np.ndarray:
    """Fraction of iterations each unordered pair shared a group."""
    k = log.k
    counts = np.zeros((k, k))
    for report in log.steps:
        for group in report.partition.groups:
            for i in group:
                for j in group:
                    counts[i - 1, j - 1] += 1
    return counts / max(1, len(log.steps))


def summarize_run(log: RunLog) -> dict:
    """Pure summary of one run log."""
    return {
        "method": log.method,
        "seed": log.seed,
        "k": log.k,
        "iterations": len(log.steps),
        "final_losses": {str(t): v for t, v in sorted(log.final_losses.items())},
        "eval_losses": ({str(t): v for t, v in sorted(log.eval_losses.items())}
                        if log.eval_losses else None),
        "mean_group_count": mean_group_count(log),
        "grouping_frequency": grouping_frequency(log).tolist(),
        "counts": {
            "forwards": sum(s.forwards for s in log.steps),
            "backwards": sum(s.backwards for s in log.steps),
            "opt_steps": sum(s.opt_steps for s in log.steps),
        },
    }


# -- analytic property suites -------------------------------------------------

SUITE_IDS = ("T1", "T2", "T3", "T4", "T5", "A1")

SUITE_TITLES = {
    "T1": "affinity ordering implies gradient-alignment ordering",
    "T2": "gradient alignment ordering implies post-update loss ordering",
    "T3": "self-inclusion gap equals eta*||g||^2/loss to second order",
    "T4": "per-sub-step descent inequality inside step-size regime",
    "T5": "two-step vs joint update comparison",
    "A1": "task-update probes dominate shared-only probes",
}

DEFAULT_ETA = {"T1": 1e-4, "T2": 1e-4, "T3": 1e-3, "T4": None, "T5": 1e-3, "A1": 1e-3}


@dataclass
class SuiteReport:
    suite: str
    instances: int
    violations: int
    max_residual: float
    regime: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _shared_grads(model) -> dict[int, np.ndarray]:
    w = model.suite.weights()
    model.forward_all(None)
    return {tid: model.backward_group((tid,), w)["shared.theta"] for tid in model.suite.ids}


def _suite_t1_t2(suite: str, instances: int, eta: float, seed: int, margin_scale: float) -> SuiteReport:
    margin = 10.0 * eta * eta * margin_scale
    violations = 0
    worst = 0.0
    for n in range(instances):
        model, batch = property_instance(3, seed + n)
        g = _shared_grads(model)
        dot_i = float(g[1] @ g[3])
        dot_j = float(g[2] @ g[3])
        aff_i = group_shared_affinity(model, batch, (1, 3), 3, eta)
        aff_j = group_shared_affinity(model, batch, (2, 3), 3, eta)
        for (a_hi, a_lo, d_hi, d_lo) in ((aff_i, aff_j, dot_i, dot_j),
                                         (aff_j, aff_i, dot_j, dot_i)):
            if suite == "T1":
                if a_hi >= a_lo + margin:
                    slack = d_hi - d_lo
                    worst = min(worst, slack)
                    if slack < 0.0:
                        violations += 1
            else:
                # post-update losses compare exactly as the affinities do
                # (same denominator), so the conclusion is an affinity order
                if d_hi >= d_lo + margin:
                    slack = a_hi - a_lo
                    worst = min(worst, slack)
                    if slack < -1e-15:
                        violations += 1
    return SuiteReport(suite, instances, violations, abs(worst),
                       {"eta": eta, "margin": margin})


def _suite_t3(instances: int, eta: float, seed: int, margin_scale: float) -> SuiteReport:
    tol = (0.002 if eta <= 1e-3 else 2.0 * eta) * margin_scale
    violations = 0
    worst = 0.0
    for n in range(instances):
        model, batch = property_instance(2, seed + n)
        losses = model.forward_all(batch)
        g = _shared_grads(model)
        gap = (group_shared_affinity(model, batch, (1, 2), 2, eta)
               - inter_task_affinity(model, batch, 1, 2, eta))
        predicted = eta * float(g[2] @ g[2]) / losses[2]
        rel = abs(gap - predicted) / predicted
        worst = max(worst, rel)
        if rel >= tol:
            violations += 1
    return SuiteReport("T3", instances, violations, worst, {"eta": eta, "rel_tol": tol})


def _suite_t4(instances: int, seed: int, margin_scale: float) -> SuiteReport:
    violations = 0
    worst = 0.0
    steps = 200
    partition = make_partition([(1, 2), (3,)])
    for n in range(instances):
        model, batch = gen_quadratic_suite(QuadraticSpec(k=3, seed=seed + n, rho=0.95))
        h = model.hessian_bound()
        eta = 0.9 * min(2.0 / (h * 3), 1.0 / (h * 2)) / margin_scale
        report = check_descent(model, partition, eta, steps, batch)
        violations += report.violations
        for c in report.checks:
            worst = max(worst, c.lhs - c.rhs)
    return SuiteReport("T4", instances, violations, worst,
                       {"steps": steps, "partition": "1,2|3"})


def _suite_t5(instances: int, eta: float, seed: int, margin_scale: float) -> SuiteReport:
    violations = 0
    worst = 0.0
    tol_pair = 10.0 * eta * eta * margin_scale
    for n in range(instances):
        model, batch = property_instance(3, seed + n, align=(1, -1))
        losses = model.forward_all(batch)
        scale = max(1.0, 1.0 / losses[3])
        joint = group_update_affinity(model, batch, (1, 2, 3), 3, eta)
        pair_first = two_step_affinity(model, batch, (1, 3), (2,), 3, eta)
        pair_last = two_step_affinity(model, batch, (2,), (1, 3), 3, eta)
        near = abs(joint - pair_first)
        worst = max(worst, near - tol_pair * scale, joint - tol_pair - pair_last)
        if near >= tol_pair * scale:
            violations += 1
        if pair_last < joint - tol_pair:
            violations += 1
    return SuiteReport("T5", instances, violations, worst,
                       {"eta": eta, "tol": tol_pair})


def _suite_a1(instances: int, eta: float, seed: int, margin_scale: float) -> SuiteReport:
    violations = 0
    worst = 0.0
    for n in range(instances):
        model, batch = property_instance(2, seed + n)
        plain = inter_task_affinity(model, batch, 1, 2, eta)
        single = group_update_affinity(model, batch, (1,), 2, eta)
        if single != plain:  # exact: the target's loss ignores the source's head
            violations += 1
            worst = max(worst, abs(single - plain))
        with_updates = group_update_affinity(model, batch, (1, 2), 2, eta)
        shared_only = group_shared_affinity(model, batch, (1, 2), 2, eta)
        slack = with_updates - shared_only
        worst = max(worst, -slack)
        if slack < -1e-15 * margin_scale:
            violations += 1
    return SuiteReport("A1", instances, violations, worst, {"eta": eta})


def run_property_suite(suite: str, instances: int, seed: int = 0,
                       eta: float | None = None, margin_scale: float = 1.0) -> SuiteReport:
    """Run one analytic check suite over seeded quadratic instances.

    ``margin_scale`` tightens (or loosens) the stated margins; it exists so
    the failure path of the verification command can be exercised.
    """
    if suite not in SUITE_IDS:
        raise AnalysisError(f"unknown suite '{suite}' (have {', '.join(SUITE_IDS)})")
    if instances < 1:
        raise AnalysisError("instances must be >= 1")
    eta = DEFAULT_ETA[suite] if eta is None else eta
    if suite in ("T1", "T2"):
        return _suite_t1_t2(suite, instances, eta, seed, margin_scale)
    if suite == "T3":
        return _suite_t3(instances, eta, seed, margin_scale)
    if suite == "T4":
        return _suite_t4(instances, seed, margin_scale)
    if suite == "T5":
        return _suite_t5(instances, eta, seed, margin_scale)
    return _suite_a1(instances, eta, seed, margin_scale)
