"""Inter-task affinity: instantaneous measurements, a decayed tracker, and
slow exact oracles.

An affinity from source to target is the relative loss reduction of the
target after a hypothetical (or actual) gradient step:

    1 - loss_after / loss_before

measured on the same batch at both states. During training the measurements
come for free from the per-group sub-steps; the oracles here redo the probe
explicitly with snapshot/restore so properties can be checked against an
independent reference path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import Batch, restore, snapshot

EPS_LOSS = 1e-12  # ratios are undefined at (near-)zero loss; such pairs are skipped

POSITIVE = "POSITIVE"
CONFLICT = "CONFLICT"
NO_VERDICT = "NONE"


class AffinityError(ValueError):
    pass


@dataclass(frozen=True)
class Measurement:
    source: int
    target: int
    value: float
    intra: bool
    skipped: bool = False


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

    def decayed_pair(self, source: int, target: int) -> float:
        return float(self.decayed[source - 1, target - 1])


def instant_inter_group(before: dict[int, float], after: dict[int, float],
                        group, targets, eps: float = EPS_LOSS) -> list[Measurement]:
    """Affinity from an updated group to tasks outside it (their heads untouched).

    The one measured ratio per target is assigned to every ordered pair
    (member -> target).
    """
    out: list[Measurement] = []
    members = sorted(group)
    for j in sorted(targets):
        if j in group:
            raise AffinityError(f"target {j} is inside the updated group")
        denom = before[j]
        if denom < eps:
            out.extend(Measurement(i, j, float("nan"), intra=False, skipped=True) for i in members)
            continue
        val = 1.0 - after[j] / denom
        out.extend(Measurement(i, j, val, intra=False) for i in members)
    return out


def instant_intra_group(before: dict[int, float], after: dict[int, float],
                        group, eps: float = EPS_LOSS) -> tuple[list[Measurement], dict[frozenset, str]]:
    """Affinity between members of the updated group, with sign verdicts.

    A pair's verdict needs both directions; if either denominator is below
    ``eps`` the whole pair is recorded as skipped.
    """
    members = sorted(group)
    ratio: dict[int, float] = {}
    bad: set[int] = set()
    for j in members:
        if before[j] < eps:
            bad.add(j)
        else:
            ratio[j] = 1.0 - after[j] / before[j]
    measurements: list[Measurement] = []
    verdicts: dict[frozenset, str] = {}
    for i in members:
        for j in members:
            if i == j:
                continue
            if i in bad or j in bad:
                measurements.append(Measurement(i, j, float("nan"), intra=True, skipped=True))
            else:
                measurements.append(Measurement(i, j, ratio[j], intra=True))
    for ai in range(len(members)):
        for bi in range(ai + 1, len(members)):
            i, j = members[ai], members[bi]
            if i in bad or j in bad:
                continue
            both_ok = ratio[j] >= 0.0 and ratio[i] >= 0.0
            verdicts[frozenset((i, j))] = POSITIVE if both_ok else CONFLICT
    return measurements, verdicts


def decay_update(tracker: AffinityTracker, measurements: list[Measurement],
                 verdicts: dict[frozenset, str]) -> list[tuple]:
    """Fold measurements into the tracker.

    Inter-group pairs and intra pairs judged POSITIVE take the standard
    exponential average; CONFLICT pairs are pushed down by the larger of the
    two magnitudes, symmetrically in both directions. Skipped pairs keep
    their previous tracked value. Returns log rows
    (source, target, instant, decayed, verdict, skipped).
    """
    beta = tracker.beta
    by_pair = {(m.source, m.target): m for m in measurements}
    rows: list[tuple] = []
    for m in sorted(measurements, key=lambda m: (m.source, m.target)):
        s, t = m.source - 1, m.target - 1
        verdict = NO_VERDICT
        if m.intra and not m.skipped:
            verdict = verdicts[frozenset((m.source, m.target))]
        if m.skipped:
            rows.append((m.source, m.target, float("nan"), float(tracker.decayed[s, t]), verdict, True))
            continue
        if verdict == CONFLICT:
            other = by_pair[(m.target, m.source)]
            mag = max(abs(m.value), abs(other.value))
            tracker.decayed[s, t] = (1.0 - beta) * tracker.decayed[s, t] - beta * mag
        else:
            tracker.decayed[s, t] = (1.0 - beta) * tracker.decayed[s, t] + beta * m.value
        rows.append((m.source, m.target, m.value, float(tracker.decayed[s, t]), verdict, False))
    return rows


# -- slow oracles ----------------------------------------------------------


def _probe(model, batch: Batch, target: int, eta: float, group,
           include_task_update: bool) -> float:
    weights = model.suite.weights()
    before = model.forward_all(batch)[target]
    if before < EPS_LOSS:
        raise AffinityError(f"target {target} loss {before} too small for an affinity ratio")
    grads = model.backward_group(group, weights)
    block_ids = model.partition.block_ids(group)
    snap = snapshot(model, block_ids)
    shared = set(model.partition.shared)
    for name, g in grads.items():
        if not include_task_update and name not in shared:
            continue
        model.partition.set_block(name, model.partition.block(name) - eta * g)
    after = model.forward_all(batch)[target]
    restore(model, snap)
    return 1.0 - after / before


def inter_task_affinity(model, batch: Batch, source: int, target: int, eta: float) -> float:
    """Relative loss change of ``target`` after a shared-only step along
    ``source``'s gradient (the classic pairwise probe)."""
    return _probe(model, batch, target, eta, (source,), include_task_update=False)


def group_shared_affinity(model, batch: Batch, group, target: int, eta: float) -> float:
    """Group probe that moves only the shared parameters (task heads frozen)."""
    return _probe(model, batch, target, eta, tuple(group), include_task_update=False)


def group_update_affinity(model, batch: Batch, group, target: int, eta: float) -> float:
    """Group probe that also steps the members' task-specific parameters —
    exactly what a live sub-step does, hence trackable during optimization."""
    return _probe(model, batch, target, eta, tuple(group), include_task_update=True)


def two_step_affinity(model, batch: Batch, first, second, target: int, eta: float,
                      eta2: float | None = None) -> float:
    """Composition of two sequential group probes toward one target:
    1 - (1 - B1)(1 - B2) = 1 - loss_final / loss_initial.

    The second step's gradients are taken at the state the first step left
    behind. Groups may overlap (a repeated singleton composes with itself).
    """
    first, second = tuple(first), tuple(second)
    eta2 = eta if eta2 is None else eta2
    weights = model.suite.weights()
    before = model.forward_all(batch)[target]
    if before < EPS_LOSS:
        raise AffinityError(f"target {target} loss {before} too small for an affinity ratio")
    block_ids = model.partition.block_ids(sorted(set(first) | set(second)))
    snap = snapshot(model, block_ids)
    grads = model.backward_group(first, weights)
    for name, g in grads.items():
        model.partition.set_block(name, model.partition.block(name) - eta * g)
    model.forward_all(batch)
    grads = model.backward_group(second, weights)
    for name, g in grads.items():
        model.partition.set_block(name, model.partition.block(name) - eta2 * g)
    after = model.forward_all(batch)[target]
    restore(model, snap)
    return 1.0 - after / before
