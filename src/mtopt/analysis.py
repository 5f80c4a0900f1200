"""Multi-task performance metric, run summaries, and analytic check suites.

The check suites exercise the document-level guarantees of the method on
seeded convex quadratic instances, where every quantity has a closed form:

* T1 — affinity ordering implies gradient-alignment ordering
* T2 — gradient-alignment ordering implies post-update loss ordering
* T3 — the gap between the self-inclusive and plain probe equals
        eta * ||g_target||^2 / loss_target up to second order
* T4 — the per-sub-step descent inequality within the step-size regime; T4
        owns the descent check (:func:`descent_substeps`)
* T5 — two-step versus joint updates: near-equality one way, advantage the
        other way
* A1 — group probes with task updates dominate shared-only probes; the
        singleton probe towards an outside target is exactly the pairwise one

The ``SUITES`` table owns each suite's title, eta, default instance count and runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .affinity import (group_shared_affinity, group_update_affinity,
                       inter_task_affinity, two_step_affinity)
from .benchmarks import QuadraticSpec, gen_quadratic_suite, property_instance, shared_grads
from .grouping import GroupPartition, make_partition
from .optim import PlainSGD, RunLog


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
    if not log.iterations:
        raise AnalysisError("run log has no partition history")
    total = sum(n * len(groups) for groups, n in log.grouping_counts.items())
    return total / log.iterations  # exact int sum: equals np.mean bit for bit


def grouping_frequency(log: RunLog) -> np.ndarray:
    """Fraction of iterations each unordered pair shared a group."""
    counts = [[0] * log.k for _ in range(log.k)]  # Python ints: exact
    for groups, n in log.grouping_counts.items():
        for group in groups:
            for i in group:
                row = counts[i - 1]
                for j in group:
                    row[j - 1] += n
    return np.array(counts, dtype=float) / max(1, log.iterations)


def task_keyed(losses: tuple[float, ...]) -> dict[str, float]:
    """A tuple of k losses in task-id order as summary.json keeps it: ``{"1": loss, ...}``."""
    return {str(t): v for t, v in enumerate(losses, start=1)}


def summarize_run(log: RunLog) -> dict:
    """Pure summary of one run log."""
    return {
        "method": log.method,
        "seed": log.seed,
        "k": log.k,
        "iterations": log.iterations,
        "final_losses": task_keyed(log.final_losses),
        "eval_losses": task_keyed(log.eval_losses) if log.eval_losses else None,
        "mean_group_count": mean_group_count(log),
        "grouping_frequency": grouping_frequency(log).tolist(),
        "counts": {
            "forwards": log.forwards,
            "backwards": log.backwards,
            "opt_steps": log.opt_steps,
        },
    }


# -- analytic property suites -------------------------------------------------


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


Checks = tuple[dict, list[tuple[bool, float]]]


def _suite_t1_t2(t2: bool, instances: int, eta: float, seed: int, margin_scale: float) -> Checks:
    margin = 10.0 * eta * eta * margin_scale
    checks = []
    for n in range(instances):
        model, batch = property_instance(3, seed + n)
        g = shared_grads(model)
        dots = (float(g[1] @ g[3]), float(g[2] @ g[3]))
        affs = (group_shared_affinity(model, batch, (1, 3), 3, eta),
                group_shared_affinity(model, batch, (2, 3), 3, eta))
        # T2: post-update losses compare exactly as the affinities do (same
        # denominator), so its conclusion is an affinity order
        premise, conclusion, tol = (dots, affs, -1e-15) if t2 else (affs, dots, 0.0)
        for hi, lo in ((0, 1), (1, 0)):
            if premise[hi] >= premise[lo] + margin:
                slack = conclusion[hi] - conclusion[lo]
                checks.append((slack < tol, -slack))
    return {"eta": eta, "margin": margin}, checks


def _suite_t3(instances: int, eta: float, seed: int, margin_scale: float) -> Checks:
    tol = 0.002 * margin_scale
    checks = []
    for n in range(instances):
        model, batch = property_instance(2, seed + n)
        losses = model.forward_all(batch)
        g = shared_grads(model)
        gap = (group_shared_affinity(model, batch, (1, 2), 2, eta)
               - inter_task_affinity(model, batch, 1, 2, eta))
        predicted = eta * float(g[2] @ g[2]) / losses[1]
        rel = abs(gap - predicted) / predicted
        checks.append((rel >= tol, rel))
    return {"eta": eta, "rel_tol": tol}, checks


def descent_eta_bound(model, partition: GroupPartition) -> float:
    """The step-size regime of the descent inequality, min(2/(H*K), 1/(H*max|G|))
    with H the largest per-task Hessian eigenvalue; inf when H = 0."""
    h = model.hessian_bound()
    gmax = max(len(g) for g in partition.groups)
    return min(2.0 / (h * partition.k), 1.0 / (h * gmax)) if h > 0 else float("inf")


def descent_substeps(model, partition: GroupPartition, eta: float, steps: int, batch):
    """Both sides of the per-sub-step descent inequality along a plain-SGD run
    with a fixed partition in forward order: yields (lhs, rhs, slack, cross
    term) per sub-step, where the inequality reads lhs <= rhs + slack."""
    weights = model.suite.weights()
    optimizer = PlainSGD()
    shared = sorted(model.partition.shared)
    losses = model.forward_all(batch)
    for _ in range(steps):
        for group in partition.ordered_groups():
            total_before = sum(weights[t] * losses[t - 1] for t in model.suite.ids)
            all_grads = {g: model.backward_group(g, weights) for g in partition.groups}
            shared_grads = {g: np.concatenate([gr[n].ravel() for n in shared])
                            for g, gr in all_grads.items()}
            grads = all_grads[group]
            gs = shared_grads[group]
            gsum = np.sum(list(shared_grads.values()), axis=0)
            ts = [grads[n].ravel() for tid in sorted(group) for n in sorted(model.partition.per_task[tid])]
            gts_sq = float(sum(np.sum(v * v) for v in ts))
            optimizer.apply(model.partition, grads, eta)
            losses = model.forward_all(batch)
            lhs = sum(weights[t] * losses[t - 1] for t in model.suite.ids)
            cross = -eta * float(gs @ (gsum - gs))
            yield (lhs, total_before + cross - 0.5 * eta * gts_sq,
                   1e-12 * max(1.0, abs(total_before)), cross)


def _suite_t4(instances: int, _eta: float | None, seed: int, margin_scale: float) -> Checks:
    steps = 200
    partition = make_partition([(1, 2), (3,)])
    checks = []
    for n in range(instances):
        model, batch = gen_quadratic_suite(QuadraticSpec(k=3, seed=seed + n, rho=0.95))
        eta = 0.9 * descent_eta_bound(model, partition) / margin_scale
        # not (lhs <= ...): a NaN side counts as a violation
        checks.extend((not lhs <= rhs + slack, lhs - rhs) for lhs, rhs, slack, _
                      in descent_substeps(model, partition, eta, steps, batch))
    return {"steps": steps, "partition": "1,2|3"}, checks


def _suite_t5(instances: int, eta: float, seed: int, margin_scale: float) -> Checks:
    tol_pair = 10.0 * eta * eta * margin_scale
    checks = []
    for n in range(instances):
        model, batch = property_instance(3, seed + n, align=(1, -1))
        scale = max(1.0, 1.0 / model.forward_all(batch)[2])
        joint = group_update_affinity(model, batch, (1, 2, 3), 3, eta)
        pair_first = two_step_affinity(model, batch, (1, 3), (2,), 3, eta)
        pair_last = two_step_affinity(model, batch, (2,), (1, 3), 3, eta)
        near = abs(joint - pair_first)
        checks.append((near >= tol_pair * scale, near - tol_pair * scale))
        checks.append((pair_last < joint - tol_pair, joint - tol_pair - pair_last))
    return {"eta": eta, "tol": tol_pair}, checks


def _suite_a1(instances: int, eta: float, seed: int, margin_scale: float) -> Checks:
    checks = []
    for n in range(instances):
        model, batch = property_instance(2, seed + n)
        plain = inter_task_affinity(model, batch, 1, 2, eta)
        single = group_update_affinity(model, batch, (1,), 2, eta)
        # exact: the target's loss ignores the source's head
        checks.append((single != plain, abs(single - plain)))
        with_updates = group_update_affinity(model, batch, (1, 2), 2, eta)
        shared_only = group_shared_affinity(model, batch, (1, 2), 2, eta)
        slack = with_updates - shared_only
        checks.append((slack < -1e-15 * margin_scale, -slack))
    return {"eta": eta}, checks


class Suite(NamedTuple):
    """A suite's title, eta and default instance count. ``run(instances, eta,
    seed, margin_scale)`` returns the regime dict and one (violated, residual) pair per check."""

    title: str
    eta: float | None  # T4 derives its step size from each instance's Hessian
    instances: int
    run: Callable[[int, float | None, int, float], Checks]


SUITES = {
    "T1": Suite("affinity ordering implies gradient-alignment ordering",
                1e-4, 200, partial(_suite_t1_t2, False)),
    "T2": Suite("gradient alignment ordering implies post-update loss ordering",
                1e-4, 200, partial(_suite_t1_t2, True)),
    "T3": Suite("self-inclusion gap equals eta*||g||^2/loss to second order", 1e-3, 100, _suite_t3),
    "T4": Suite("per-sub-step descent inequality inside step-size regime", None, 50, _suite_t4),
    "T5": Suite("two-step vs joint update comparison", 1e-3, 100, _suite_t5),
    "A1": Suite("task-update probes dominate shared-only probes", 1e-3, 100, _suite_a1),
}


def run_property_suite(suite: str, instances: int, seed: int = 0,
                       margin_scale: float = 1.0) -> SuiteReport:
    """Run one analytic check suite over seeded quadratic instances at its eta.

    ``margin_scale`` tightens (or loosens) the stated margins; it exists so
    the failure path of the verification command can be exercised.
    """
    if suite not in SUITES:
        raise AnalysisError(f"unknown suite '{suite}' (have {', '.join(SUITES)})")
    if instances < 1:
        raise AnalysisError("instances must be >= 1")
    if seed < 0:
        raise AnalysisError(f"seed must be >= 0, got {seed}")
    if not 0.0 < margin_scale < np.inf:
        raise AnalysisError(f"margin scale must be finite and > 0, got {margin_scale}")
    spec = SUITES[suite]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises NonFiniteValue
        regime, checks = spec.run(instances, spec.eta, seed, margin_scale)
    worst = max([0.0, *(residual for _, residual in checks)])  # NaN residuals drop out
    return SuiteReport(suite, instances, sum(violated for violated, _ in checks), worst, regime)
