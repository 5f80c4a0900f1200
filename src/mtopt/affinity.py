"""Inter-task affinity: instantaneous ratios, a decayed tracker, and slow
exact oracles.

An affinity toward a target is the target's relative loss reduction after a
hypothetical (or actual) gradient step:

    1 - loss_after / loss_before

measured on the same batch at both states. During training each sub-step
yields one such ratio per target, shared by every member of the updated
group, at no extra cost; :func:`loss_ratios` states that expression once.
:func:`decay_update` folds a sub-step's losses into the tracker in one pass,
taking each ratio once and each member pair's sign verdict inline, and
returns the rows it wrote. :func:`affinity_rows` derives a sub-step's log
rows from its ratios and those rows when a run is written.
:func:`instant_inter_group` and :func:`instant_intra_group` compute the same
ratios and verdicts as dicts; they are the reference that fold is tested
against. The oracles here redo the probe explicitly on the parameter buffer
and restore a copy of it, an independent reference path for property checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import Batch, restore, snapshot

EPS_LOSS = 1e-12  # ratios are undefined at (near-)zero loss; such targets are skipped

POSITIVE = "POSITIVE"
CONFLICT = "CONFLICT"
NO_VERDICT = "NONE"


class AffinityError(ValueError):
    pass


@dataclass
class AffinityTracker:
    """Decay-averaged affinity for all ordered task pairs.

    The matrix is (k, k), 0-indexed by task id - 1; the diagonal is never read.
    ``decayed`` starts at zero, which the partition rule treats as "separate".
    """

    k: int
    beta: float
    decayed: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise AffinityError(f"decay rate must be in (0,1), got {self.beta}")
        self.decayed = np.zeros((self.k, self.k))


def _ratio(before: tuple[float, ...], after: tuple[float, ...], j: int) -> float:
    return float("nan") if before[j - 1] < EPS_LOSS else 1.0 - after[j - 1] / before[j - 1]


def instant_inter_group(before: tuple[float, ...], after: tuple[float, ...],
                        group, targets) -> dict[int, float]:
    """Ratio of each task outside the updated group (its head untouched).

    Every member shares a target's one ratio; it is NaN where the loss
    before is below ``EPS_LOSS``.
    """
    for j in targets:
        if j in group:
            raise AffinityError(f"target {j} is inside the updated group")
    return {j: _ratio(before, after, j) for j in sorted(targets)}


def instant_intra_group(before: tuple[float, ...], after: tuple[float, ...],
                        group) -> tuple[dict[int, float], dict[tuple, str]]:
    """Ratio of each member of the updated group, with sign verdicts.

    A member's ratio is shared by every other member, as toward an outside
    target. A pair's verdict, kept under both orders, needs both ratios;
    a pair with a NaN ratio gets none.
    """
    ratios = {j: _ratio(before, after, j) for j in sorted(group)}
    verdicts: dict[tuple, str] = {}
    for i, ri in ratios.items():
        for j, rj in ratios.items():
            if i != j and not (math.isnan(ri) or math.isnan(rj)):
                verdicts[i, j] = POSITIVE if ri >= 0.0 and rj >= 0.0 else CONFLICT
    return ratios, verdicts


def loss_ratios(before: tuple[float, ...], after: tuple[float, ...]) -> list[float]:
    """Each task's ratio over one sub-step, from two tuples of k losses in
    task-id order; NaN where the loss before is below ``EPS_LOSS``."""
    nan = float("nan")
    return [nan if b < EPS_LOSS else 1.0 - a / b for b, a in zip(before, after)]


def decay_update(tracker: AffinityTracker, group, before: tuple[float, ...],
                 after: tuple[float, ...]) -> list[list[float]]:
    """Fold one sub-step's losses, two tuples of k losses in task-id order,
    into the tracker, member by member, and return each member's tracker row
    as the fold left it, in ``group`` order.

    Each pair (member -> other task) takes the target's ratio. Pairs toward
    outside targets and member pairs whose two ratios are both >= 0
    (POSITIVE) take the standard exponential average; other member pairs
    (CONFLICT) are pushed down by the larger of the two members' magnitudes,
    symmetrically in both directions. Skipped pairs (a NaN ratio on the
    target, or on either member) keep their previous tracked value. Only the
    members' rows change, so the order they are folded in does not matter.
    """
    beta, decayed, isnan = tracker.beta, tracker.decayed, math.isnan
    ratios = loss_ratios(before, after)
    rows = []
    for s in group:
        rs = ratios[s - 1]
        row = decayed[s - 1].tolist()  # Python floats: the same IEEE operations, less overhead
        for t, r in enumerate(ratios, start=1):
            if t == s or isnan(r):
                continue
            if t not in group:
                push = r
            elif isnan(rs):
                continue
            elif r >= 0.0 and rs >= 0.0:
                push = r
            else:  # CONFLICT; x - y is x + (-y) in IEEE arithmetic, so one update serves both
                push = -max(abs(r), abs(rs))
            row[t - 1] = (1.0 - beta) * row[t - 1] + beta * push
        decayed[s - 1] = row
        rows.append(row)
    return rows


def affinity_rows(group, ratios: list[float], rows: list[list[float]]) -> list[tuple]:
    """The log rows of one sub-step, in (source, target) order: (source,
    target, instant, decayed, verdict, skipped) for each member and every
    other task.

    ``ratios`` are the sub-step's :func:`loss_ratios`, and ``rows`` what
    :func:`decay_update` returned for it. The skip and verdict rule is
    :func:`decay_update`'s; a skipped row's instant value is NaN.
    """
    out: list[tuple] = []
    nan, isnan = float("nan"), math.isnan
    for s, row in sorted(zip(group, rows)):  # members are distinct: the rows are never compared
        rs = ratios[s - 1]
        for t, r in enumerate(ratios, start=1):
            if t == s:
                continue
            inside = t in group
            skipped = isnan(r) or (inside and isnan(rs))
            verdict = (NO_VERDICT if skipped or not inside
                       else POSITIVE if r >= 0.0 and rs >= 0.0 else CONFLICT)
            out.append((s, t, nan if skipped else r, row[t - 1], verdict, skipped))
    return out


# -- slow oracles ----------------------------------------------------------


def _probe(model, batch: Batch, target: int, steps) -> float:
    """Relative loss change of ``target`` after one SGD step per
    (group, eta, shared_only), each from the state the one before left,
    with the whole parameter buffer restored afterwards. A step updates the
    shared set (the buffer's head) when ``shared_only``, else the whole buffer;
    p - eta * (+0.0) is p outside the group, as in ``PlainSGD.apply``."""
    before = model.forward_all(batch)[target - 1]
    if before < EPS_LOSS:
        raise AffinityError(f"target {target} loss {before} too small for an affinity ratio")
    weights = model.suite.weights()
    saved = snapshot(model)
    for group, eta, shared_only in steps:
        flat = model.backward_group(group, weights).flat
        stop = model.partition._regions[0][1] if shared_only else flat.size
        model.partition.buffer[:stop] -= eta * flat[:stop]
        model.partition.version += 1
        after = model.forward_all(batch)[target - 1]
    restore(model, saved)
    return 1.0 - after / before


def inter_task_affinity(model, batch: Batch, source: int, target: int, eta: float) -> float:
    """Relative loss change of ``target`` after a shared-only step along
    ``source``'s gradient (the classic pairwise probe)."""
    return _probe(model, batch, target, [((source,), eta, True)])


def group_shared_affinity(model, batch: Batch, group, target: int, eta: float) -> float:
    """Group probe that moves only the shared parameters (task heads frozen)."""
    return _probe(model, batch, target, [(tuple(group), eta, True)])


def group_update_affinity(model, batch: Batch, group, target: int, eta: float) -> float:
    """Group probe that also steps the members' task-specific parameters —
    exactly what a live sub-step does, hence trackable during optimization."""
    return _probe(model, batch, target, [(tuple(group), eta, False)])


def two_step_affinity(model, batch: Batch, first, second, target: int, eta: float) -> float:
    """Composition of two sequential group probes toward one target:
    1 - (1 - B1)(1 - B2) = 1 - loss_final / loss_initial.

    The second step's gradients are taken at the state the first step left
    behind. Groups may overlap (a repeated singleton composes with itself).
    """
    return _probe(model, batch, target, [(tuple(first), eta, False), (tuple(second), eta, False)])
