"""Training only: every method is one loop of per-group sequential sub-steps.

One batch is processed as a sequence of per-group sub-steps. Each sub-step
backpropagates the weighted loss sum of one group, steps exactly the shared
blocks plus that group's task blocks, re-forwards, and feeds the loss ratios
into the affinity tracker. The methods differ only in their partition
schedule, which :func:`train` owns: SELECTIVE re-derives the partition from
the tracked affinity after the batch, SEPARATE keeps singletons, FIXED keeps
a given partition, RANDOM draws a new one per batch, and JOINT keeps one
group of all tasks and skips the trailing forward, so it neither measures
nor tracks affinity. :func:`train` also shuffles the update order, and
:func:`selective_group_step` runs one batch in the order it is given.

Training keeps no per-iteration record: :func:`train` hands each finished
iteration's report to a sink and keeps only the run's totals in its
:class:`RunLog`, so memory stays flat in run length. The loop builds no log
rows: each sub-step's record keeps the tracker rows its fold wrote, from
which, with the sub-step's losses, :func:`affinity.affinity_rows` derives the
log rows when a run is written.

A sub-step's gradient is the flat :class:`models.Gradient` its backward
returned, laid out as the parameter buffer, with +0.0 outside the shared
set and the group's task sets, so one offset table serves parameters,
gradients and Adam's moments. SGD steps the whole buffer in place; Adam
steps the group's sets, merged where adjacent with equal step counts. The
sub-step's record keeps that gradient, and the logged gradient norms are
derived from it by :func:`grad_norms` when a run is written, so a run
without a sink computes none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .affinity import AffinityTracker, decay_update
from .grouping import (GROUPING_RULES, GroupPartition, ORDER_RANDOM, ORDERS, everything,
                       make_partition, partition_tasks, shuffle_order, singletons)
from .models import Batch, Gradient, ModelError, ParamPartition
from .tensor import NonFiniteValue

METHOD_SELECTIVE = "SELECTIVE"
METHOD_JOINT = "JOINT"
METHOD_SEPARATE = "SEPARATE"
METHOD_FIXED = "FIXED"
METHOD_RANDOM = "RANDOM"
METHODS = (METHOD_SELECTIVE, METHOD_JOINT, METHOD_SEPARATE, METHOD_FIXED, METHOD_RANDOM)


class TrainError(ValueError):
    pass


class NumericAbort(ArithmeticError):
    """A loss or gradient went non-finite; training stops loudly.

    ``substep`` is 0 for the batch's first forward and i for the backward,
    update and trailing forward of the i-th group in update order; a forward
    after training counts as the last sub-step of the last iteration.
    """

    def __init__(self, iteration: int, substep: int, group: tuple[int, ...] | None,
                 detail: str):
        where = "" if group is None else f", group {' '.join(map(str, group))}"
        super().__init__(f"iteration {iteration}, substep {substep}{where}: {detail}")
        self.iteration = iteration
        self.substep = substep

    @classmethod
    def after(cls, log: RunLog, detail: str) -> NumericAbort:
        """A failure in a forward at the state the last sub-step left."""
        return cls(*log.last, detail)


@dataclass(frozen=True)
class TrainConfig:
    method: str = METHOD_SELECTIVE
    eta: float = 0.05
    beta: float = 1e-3
    iters: int = 100
    optimizer: str = "sgd"
    seed: int = 0
    order_mode: str = ORDER_RANDOM
    weights: dict[int, float] | None = None
    fixed_partition: GroupPartition | None = None
    random_groups: int | None = None
    repartition_stride: int = 1
    grouping_rule: str = GROUPING_RULES[0]
    track_affinity: bool | None = None  # None: on for SELECTIVE only

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise TrainError(f"eta must be positive and finite, got {self.eta}")
        if not 0.0 < self.beta < 1.0:
            raise TrainError(f"beta must be in (0,1), got {self.beta}")
        if self.iters < 1:
            raise TrainError(f"iters must be >= 1, got {self.iters}")
        if self.method not in METHODS:
            raise TrainError(f"unknown method '{self.method}'")
        if self.method == METHOD_FIXED and self.fixed_partition is None:
            raise TrainError("FIXED method needs a partition")
        if self.method == METHOD_RANDOM and not self.random_groups:
            raise TrainError("RANDOM method needs a group count")
        if self.optimizer not in OPTIMIZERS:
            raise TrainError(f"unknown optimizer '{self.optimizer}'")
        if self.order_mode not in ORDERS:
            raise TrainError(f"unknown order mode '{self.order_mode}'")
        if self.grouping_rule not in GROUPING_RULES:
            raise TrainError(f"unknown grouping rule '{self.grouping_rule}'")
        if self.repartition_stride < 1:
            raise TrainError(f"repartition stride must be >= 1, got {self.repartition_stride}")
        for tid, w in (self.weights or {}).items():  # 0.0 is allowed: SINGLE masks tasks with it
            if not (math.isfinite(w) and w >= 0.0):
                raise TrainError(f"weights must be finite and >= 0, got {w} for task {tid}")


def _begin_step(partition: ParamPartition, grads: Gradient):
    """Check that ``grads`` was laid out for ``partition`` and fits its
    buffer; counts the step about to write the buffer."""
    if grads.partition is not partition:
        raise ModelError("the gradient was laid out for another parameter partition")
    size = partition.buffer.size
    if grads.flat.shape != (size,):
        raise ModelError(f"gradient of shape {grads.flat.shape} for a buffer of {size} floats")
    partition.version += 1


class PlainSGD:
    kind = "sgd"

    def apply(self, partition: ParamPartition, grads: Gradient, eta: float):
        """Step the whole buffer: p - eta * (+0.0) is p for every p outside
        the group, -0.0 and infinities included."""
        _begin_step(partition, grads)
        # the same IEEE operations as set_block(name, p - eta * g)
        partition.buffer -= eta * grads.flat


class Adam:
    """Adaptive moments over the partition's buffer.

    ``m`` and ``v`` are flat, laid out as the buffer and the gradient, and
    allocated at the first step. ``steps`` counts the steps of the shared
    set (key 0) and of each task's set. The shared count advances once per
    sub-step, so a batch with M groups moves it M times, and a task's count
    advances once per sub-step of a group that holds the task; that is the
    only state-consistent reading of per-group optimizer sub-steps. Only the
    group's sets step, since the moments of the others must not decay; sets
    adjacent in the buffer whose counts agree step as one.
    """

    kind = "adam"
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self):
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.steps: dict[int, int] = {}

    def apply(self, partition: ParamPartition, grads: Gradient, eta: float):
        _begin_step(partition, grads)
        if self.m is None:
            self.m, self.v = np.zeros(partition.buffer.size), np.zeros(partition.buffer.size)
            self.steps = dict.fromkeys([0, *partition.per_task], 0)
        keys = (0, *grads.group)
        for key in keys:
            self.steps[key] += 1
        runs: list[list[int]] = []  # [start, stop, count], in buffer order
        for start, stop, t in sorted((*partition._regions[key], self.steps[key]) for key in keys):
            if runs and runs[-1][1] == start and runs[-1][2] == t:
                runs[-1][1] = stop
            else:
                runs.append([start, stop, t])
        for start, stop, t in runs:
            g = grads.flat[start:stop]
            m, v = self.m[start:stop], self.v[start:stop]
            mhat, vhat = np.empty((2, stop - start))
            m *= self.beta1  # in place, the same operations as beta1 * m + (1 - beta1) * g
            m += np.multiply(g, 1.0 - self.beta1, out=mhat)
            v *= self.beta2
            v += np.multiply(np.multiply(g, g, out=vhat), 1.0 - self.beta2, out=vhat)
            np.divide(m, 1.0 - self.beta1 ** t, out=mhat)
            np.divide(v, 1.0 - self.beta2 ** t, out=vhat)
            mhat *= eta
            np.sqrt(vhat, out=vhat)
            vhat += self.eps
            mhat /= vhat
            partition.buffer[start:stop] -= mhat  # eta * mhat / (sqrt(vhat) + eps)


OPTIMIZERS = {PlainSGD.kind: PlainSGD, Adam.kind: Adam}


@dataclass
class SubstepRecord:
    """One group's sub-step. ``losses_after`` is the trailing forward's tuple
    of k losses in task-id order, or None for JOINT, which skips it; ``grads``
    is the gradient the step applied, from which a run log derives the
    gradient norms at write time; ``rows`` holds the members' tracker rows as
    :func:`decay_update` left them, in ``group`` order, or None untracked.
    ``grads`` takes no part in equality or the repr: compare :func:`grad_norms`."""

    group: tuple[int, ...]
    losses_after: tuple[float, ...] | None
    grads: Gradient = field(repr=False, compare=False)
    rows: list[list[float]] | None


@dataclass
class StepReport:
    """One batch: its first forward's tuple of k losses in task-id order, then each sub-step."""

    iteration: int
    partition: GroupPartition
    initial_losses: tuple[float, ...]
    substeps: list[SubstepRecord]
    forwards: int
    backwards: int
    opt_steps: int


Sink = Callable[[StepReport], None]


@dataclass
class RunLog:
    """The totals of one training run.

    The per-iteration reports go to the sink given to :func:`train`; the
    log keeps the counts summaries need, the number of iterations each
    distinct grouping ran (``analysis`` derives the mean group count and the
    pair counts from them), the last report's (iteration, sub-step count,
    last group), which :meth:`NumericAbort.after` names, and the final and
    eval losses as tuples of k losses in task-id order."""

    method: str
    seed: int
    k: int
    iterations: int = 0
    forwards: int = 0
    backwards: int = 0
    opt_steps: int = 0
    grouping_counts: dict[tuple[tuple[int, ...], ...], int] = field(default_factory=dict)
    last: tuple[int, int, tuple[int, ...]] | None = None
    final_losses: tuple[float, ...] = ()
    eval_losses: tuple[float, ...] | None = None

    def add(self, report: StepReport):
        self.iterations += 1
        self.forwards += report.forwards
        self.backwards += report.backwards
        self.opt_steps += report.opt_steps
        groups = report.partition.groups
        self.grouping_counts[groups] = self.grouping_counts.get(groups, 0) + 1
        self.last = report.iteration, len(report.substeps), report.substeps[-1].group


def grad_norms(grads: Gradient) -> tuple[float, dict[int, float]]:
    """Gradient norms of the shared set and of each member's set. Each sums
    the per-block squares in block order, each block reduced on its span of
    one square of the flat gradient; one sum over the concatenated gradient
    would round differently. ``np.add.reduce`` is what ``ndarray.sum`` calls,
    and ``math.sqrt`` rounds as ``np.sqrt`` does."""
    sq = grads.flat * grads.flat
    blocks = grads.partition._blocks

    def norm(key: int) -> float:
        total = 0  # sum()'s start: 0 + x is exactly x
        for start, stop in blocks[key]:
            total += float(np.add.reduce(sq[start:stop]))
        return math.sqrt(total)
    return norm(0), {tid: norm(tid) for tid in grads.group}


def selective_group_step(model, batch: Batch, partition: GroupPartition, config: TrainConfig,
                         optimizer, tracker: AffinityTracker | None, iteration: int) -> StepReport:
    """One batch of per-group sequential sub-steps, in ``partition``'s order.

    Each sub-step's record carries the tracker rows its fold wrote, or None
    when untracked. JOINT skips the trailing forward, so it takes no tracker.
    The counts must keep the contract: M + 1 forwards and M backwards and
    optimizer steps for M groups, or one of each for JOINT."""
    weights = config.weights or model.suite.weights()
    joint = config.method == METHOD_JOINT
    idx, group = 0, None
    try:
        losses0 = model.forward_all(batch)
        forwards, backwards, opt_steps = 1, 0, 0
        current = losses0
        substeps: list[SubstepRecord] = []
        for idx, group in enumerate(partition.ordered_groups(), start=1):
            grads = model.backward_group(group, weights)
            backwards += 1
            optimizer.apply(model.partition, grads, config.eta)
            opt_steps += 1
            after = None
            if not joint:
                after = model.forward_all(batch)
                forwards += 1
            rows = None if tracker is None else decay_update(tracker, group, current, after)
            substeps.append(SubstepRecord(group, after, grads, rows))
            current = after
    except NonFiniteValue as e:
        raise NumericAbort(iteration, idx, group, str(e)) from e
    got, m = (forwards, backwards, opt_steps), partition.m
    want = (1, 1, 1) if joint else (m + 1, m, m)
    if got != want:
        raise TrainError(f"count contract broken at iteration {iteration}: "
                         f"got forwards/backwards/steps {got}, want {want}")
    return StepReport(iteration, partition, losses0, substeps, forwards, backwards, opt_steps)


def joint_step(model, batch: Batch, config: TrainConfig, optimizer, iteration: int) -> StepReport:
    """All tasks in one backward and one optimizer step; no trailing forward."""
    return selective_group_step(model, batch, everything(model.suite.k),
                                replace(config, method=METHOD_JOINT), optimizer, None, iteration)


def _random_partition(k: int, m: int, rng: np.random.Generator) -> GroupPartition:
    if not 1 <= m <= k:
        raise TrainError(f"random group count must be in 1..{k}, got {m}")
    return make_partition(tuple(int(t) for t in chunk)
                          for chunk in np.array_split(rng.permutation(np.arange(1, k + 1)), m))


def train(model, batches, config: TrainConfig, sink: Sink | None = None) -> RunLog:
    """Run ``config.iters`` batches from the stream and return the run's totals.

    Each iteration redraws RANDOM's partition, shuffles the update order,
    steps, and re-derives SELECTIVE's partition when ``repartition_stride``
    is due. Each finished iteration's report goes to ``sink(report)``, in
    iteration order, and is released once the sink returns, so no
    sub-step's gradient outlives its iteration; an iteration cut short by a
    :class:`NumericAbort` reaches no sink.

    The stream must yield batches deterministically; the update-order rng is
    derived from the seed on a separate stream, so runs are reproducible
    end to end. Overflow is not warned about: it surfaces as a non-finite
    loss, which raises :class:`NumericAbort`.
    """
    k = model.suite.k
    log = RunLog(method=config.method, seed=config.seed, k=k)
    optimizer = OPTIMIZERS[config.optimizer]()
    order_rng = np.random.default_rng([config.seed, 1])
    track = config.track_affinity
    if track is None:
        track = config.method == METHOD_SELECTIVE
    tracker = AffinityTracker(k, config.beta) if track and config.method != METHOD_JOINT else None
    partition = {METHOD_JOINT: everything(k),
                 METHOD_FIXED: config.fixed_partition}.get(config.method, singletons(k))
    if partition.k != k:
        raise TrainError(f"fixed partition covers {partition.k} tasks, model has {k}")
    if config.weights is not None and sorted(config.weights) != list(range(1, k + 1)):
        raise TrainError(f"weights name tasks {sorted(config.weights)}, model has 1..{k}")

    stream = iter(batches)
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, config.iters + 1):
            try:
                batch = next(stream)
            except StopIteration:
                raise TrainError(f"batch stream ended at iteration {iteration} of {config.iters}")
            if config.method == METHOD_RANDOM:
                partition = _random_partition(k, config.random_groups, order_rng)
            partition = shuffle_order(partition, order_rng, config.order_mode)
            report = selective_group_step(model, batch, partition, config, optimizer,
                                          tracker, iteration)
            if (config.method == METHOD_SELECTIVE and tracker is not None
                    and iteration % config.repartition_stride == 0):
                partition = partition_tasks(tracker, config.grouping_rule)
            log.add(report)
            if sink is not None:
                sink(report)
            del report  # no gradient outlives its iteration
        try:
            log.final_losses = model.forward_all(batch)
        except NonFiniteValue as e:
            raise NumericAbort.after(log, str(e)) from e
    return log
