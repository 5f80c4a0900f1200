"""Shared-trunk multi-task models with an explicit shared/per-task parameter split.

Two model families share one interface, and both train in closed form:

* ``MLPModel`` — a trunk of affine layers (tanh or relu) with one affine
  head per task, for synthetic regression experiments.
* ``QuadraticModel`` — convex losses 0.5*||A_i s + C_i t_i - b_i||^2, the
  workhorse for every analytic property check. It is built from the
  (k, rows, ·) stacks of A, C and b, which it owns read-only from then on,
  and takes k from them. One forward per parameter version computes every
  task's loss and keeps its gradient products; the backward only scales
  and sums those in group order.

Each keeps a tape for reference: ``MLPModel.graph`` is its objective as the
tape interpreter runs it, bitwise equal to the closed form, and
``QuadraticModel.tape_graph`` restates the quadratic's losses.

Both expose ``forward_all``, which returns a tuple of k losses in task-id
order (task t at index t - 1), and ``backward_group``, and keep no state per
group; :func:`snapshot` / :func:`restore` copy the whole buffer exactly, for
the slow affinity oracles. Each family fixes its task loss: the MLP's heads
are all scored by squared error, the quadratic's by its closed form.

Parameters live in one float64 buffer (:class:`ParamPartition`): the
shared blocks first, then each task's blocks in task-id order, and every
named block is a view of it. The MLP also reads each run of adjacent heads
of one output width as (n, width, out) and (n, 1, out) stacks, and the
quadratic its task blocks as one (k, task_dim) array. A gradient
(:class:`Gradient`) is one flat array laid out as the buffer: it holds the
shared blocks and the group's task blocks at their parameter offsets and
+0.0 everywhere else, and indexing it by one of those blocks' names gives a
view. Each ``backward_group`` call returns a fresh gradient, so gradients
of several groups can be held at once; a group is any iterable of task ids.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .tensor import Graph, NonFiniteValue, as_array, backward, evaluate

ACTIVATIONS = ("tanh", "relu")


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class TaskSuite:
    """``k`` tasks with ids 1..k; the model family fixes each task's loss."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ModelError("a task suite needs at least 2 tasks")

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.k + 1))

    def weights(self) -> dict[int, float]:
        """Unit loss weights; ``TrainConfig.weights`` is the only way to weight a loss."""
        return {tid: 1.0 for tid in self.ids}


@dataclass
class Batch:
    inputs: np.ndarray | None
    targets: dict[int, np.ndarray]
    sample_id: int = 0

    def __post_init__(self):
        if self.inputs is not None:
            n = self.inputs.shape[0]
            for tid, t in self.targets.items():
                if t.shape[0] != n:
                    raise ModelError(
                        f"batch {self.sample_id}: target of task {tid} has {t.shape[0]} rows, inputs have {n}"
                    )


class ParamPartition:
    """Named parameter blocks, split into the shared trunk and per-task sets.

    Every block is a view of one float64 ``buffer``: the shared blocks first,
    in order, then each task's blocks, task after task in ``per_task`` order,
    so each set is one contiguous region. Writes go through the views in
    place and bump ``version``, which guards stale forwards. The same
    offsets serve the buffer, every gradient and Adam's moments: ``_spans``
    maps a block to its (start, stop, shape, set key), ``_regions`` a set
    key (0 for the shared set, else a task id) to its (start, stop), and
    ``_blocks`` a set key to its blocks' (start, stop) in order.
    """

    def __init__(self, shared: dict[str, np.ndarray], per_task: dict[int, dict[str, np.ndarray]]):
        sets = [(0, shared), *per_task.items()]  # 0 stands for the shared set
        self.buffer = np.concatenate([v.ravel() for _, blocks in sets for v in blocks.values()],
                                     dtype=np.float64)
        self.version = 0
        self._index: dict[str, np.ndarray] = {}
        self._spans: dict[str, tuple[int, int, tuple[int, ...], int]] = {}
        self._regions: dict[int, tuple[int, int]] = {}
        self._blocks: dict[int, list[tuple[int, int]]] = {}
        views = []
        pos = 0
        for key, blocks in sets:
            start, out = pos, {}
            for name, value in blocks.items():
                if name in self._index:
                    raise ModelError(f"block '{name}' appears in more than one parameter set")
                view = self.buffer[pos:pos + value.size]
                out[name] = self._index[name] = view if value.ndim == 1 else view.reshape(value.shape)
                self._spans[name] = (pos, pos + value.size, value.shape, key)
                self._blocks.setdefault(key, []).append((pos, pos + value.size))
                pos += value.size
            self._regions[key] = (start, pos)
            views.append(out)
        self.shared = views[0]
        self.per_task = dict(zip(per_task, views[1:]))

    def all_blocks(self) -> dict[str, np.ndarray]:
        return dict(self._index)

    def block(self, name: str) -> np.ndarray:
        try:
            return self._index[name]
        except KeyError:
            raise ModelError(f"unknown parameter block '{name}'") from None

    def block_ids(self, group=None) -> list[str]:
        """Shared block names plus, when given, the task blocks of ``group``."""
        names = sorted(self.shared)
        if group is not None:
            for tid in sorted(group):
                names.extend(sorted(self.per_task[tid]))
        return names

    def set_block(self, name: str, value: np.ndarray):
        target = self.block(name)
        if target.shape != value.shape:
            raise ModelError(f"block '{name}': shape {value.shape} != {target.shape}")
        target[...] = value
        self.version += 1

    def members(self, group) -> tuple[int, ...]:
        """The task ids of ``group``, any iterable of them, sorted and checked."""
        ids = set(group)
        unknown = ids.difference(self.per_task)
        if unknown:
            raise ModelError(f"no parameter sets for tasks {sorted(unknown)}")
        return tuple(sorted(ids))


class Gradient(Mapping):
    """One backward's gradient over the shared set and the task sets of
    ``group`` (sorted task ids). ``flat`` is a fresh array laid out as the
    partition's buffer, holding +0.0 outside those sets; indexing it by the
    name of a block in those sets gives a view of ``flat``."""

    __slots__ = ("partition", "group", "flat")

    def __init__(self, partition: ParamPartition, group: tuple[int, ...], flat: np.ndarray):
        self.partition, self.group, self.flat = partition, group, flat

    def __getitem__(self, name: str) -> np.ndarray:
        start, stop, shape, key = self.partition._spans[name]
        if key and key not in self.group:
            raise KeyError(name)
        return self.flat[start:stop].reshape(shape)

    def __iter__(self):
        """The shared blocks, then each member's, in ascending task id."""
        yield from self.partition.shared
        for tid in self.group:
            yield from self.partition.per_task[tid]

    def __len__(self) -> int:
        return len(self.partition.shared) + sum(len(self.partition.per_task[tid]) for tid in self.group)


def snapshot(model) -> np.ndarray:
    return model.partition.buffer.copy()


def restore(model, saved: np.ndarray):
    """Copy a whole-buffer :func:`snapshot` back, bumping ``version``."""
    buffer = model.partition.buffer
    if saved.shape != buffer.shape:
        raise ModelError(f"snapshot of shape {saved.shape}, the buffer's is {buffer.shape}")
    buffer[...] = saved
    model.partition.version += 1


class _Heads(NamedTuple):
    """The heads of one output width, as row-stacked views of the buffer:
    ``w`` (k, width, out) and ``b`` (k, 1, out)."""

    tids: tuple[int, ...]
    w: np.ndarray
    b: np.ndarray


class MLPModel:
    """Shared MLP trunk + one affine head per task, trained in closed form.

    ``forward_all`` and ``backward_group`` make the numpy calls the tape
    interpreter makes for each op of ``graph``, in the interpreter's order, so
    every loss and gradient is bitwise the interpreter's. Where the
    interpreter would allocate a new array for a bias add, a squared error or
    a ``tanh`` adjoint, they write into the array just allocated (``z = h @ w;
    z += b``), and the activation overwrites its pre-activation; that gives
    the same bits. The forward runs the heads of one output width as one
    stack: a batched ``np.matmul`` runs one product per head, and a row-wise
    reduce sums each head's squares as the interpreter's full reduce does.
    The backward takes a group's heads one at a time and computes no adjoint
    toward the input.

    They check only what could go unseen: the pre-activations (``tanh`` and
    ``relu`` can hide an infinity; every other op carries it to a loss), the
    losses, the batch's shapes against the weights (numpy would broadcast an
    ``(n,)`` target against an ``(n, 1)`` prediction; checked once per
    batch), and the gradients they return. Where a check fails, the model
    runs the interpreter on ``graph`` with the same bindings, and the
    interpreter raises the error that names the failing op.
    """

    def __init__(self, suite: TaskSuite, partition: ParamPartition, activation: str):
        self.suite = suite
        self.partition = partition
        self.activation = activation
        shared = partition.shared
        self._trunk = [(shared[f"trunk.{i}.w"], shared[f"trunk.{i}.b"]) for i in range(len(shared) // 2)]
        self._trunk_t = [w.T for w, _ in self._trunk]
        self._heads: list[_Heads] = []
        for out, run in groupby(partition.per_task,  # adjacent tasks of one head width: one stack
                                lambda tid: partition.block(f"head.{tid}.w").shape[1]):
            tids = tuple(run)
            start, stop = partition._regions[tids[0]]
            rows = partition.buffer[start:start + len(tids) * (stop - start)].reshape(len(tids), -1)
            w = rows[:, :-out].reshape(len(tids), -1, out)
            self._heads.append(_Heads(tids, w, rows[:, None, -out:]))
        self._trunk_spans = [tuple(slice(*partition._spans[f"trunk.{i}.{p}"][:2]) for p in "wb")
                             for i in range(len(self._trunk))]
        # per task: its head stack, its row there and its transposed head weight
        self._head_of = {tid: (c, i, heads.w[i].T) for c, heads in enumerate(self._heads)
                         for i, tid in enumerate(heads.tids)}
        self._forward_version: int | None = None
        # the last batch checked, its inputs and its targets stacked per head stack
        self._bound: tuple[Batch | None, np.ndarray | None, list[np.ndarray]] = (None, None, [])
        self._acts: list[np.ndarray] = []  # the input, then each layer's activation
        self._residuals: list[np.ndarray] = []  # prediction - target, per head stack

    @cached_property
    def _tape(self) -> tuple[Graph, dict[int, int]]:
        g = Graph()
        h = g.leaf("input")
        for layer in range(len(self._trunk)):
            h = g.bias_add(g.matmul(h, g.leaf(f"trunk.{layer}.w")), g.leaf(f"trunk.{layer}.b"))
            h = g.tanh(h) if self.activation == "tanh" else g.relu(h)
        loss_nodes: dict[int, int] = {}
        for tid in self.suite.ids:
            pred = g.bias_add(g.matmul(h, g.leaf(f"head.{tid}.w")), g.leaf(f"head.{tid}.b"))
            loss_nodes[tid] = g.mark_output(g.squared_error(pred, g.leaf(f"target.{tid}")))
        return g, loss_nodes

    @property
    def graph(self) -> Graph:
        """The objective as the tape interpreter runs it, built at first use;
        a run whose checks all pass never builds it."""
        return self._tape[0]

    @property
    def loss_nodes(self) -> dict[int, int]:
        """Each task's loss node in :attr:`graph`."""
        return self._tape[1]

    def _replay(self, batch: Batch, group=None, weights=None):
        """Run the interpreter where a closed-form check failed; it raises."""
        bindings = self.partition.all_blocks()
        bindings["input"] = batch.inputs
        bindings.update((f"target.{tid}", batch.targets[tid]) for tid in self.suite.ids)
        stage = "forward" if group is None else "backward"
        try:
            evaluate(self.graph, bindings)
            if group is not None:
                seeds = {self.loss_nodes[tid]: weights[tid] for tid in sorted(group)}
                backward(self.graph, seeds, set(self.partition.block_ids(group)))
        except NonFiniteValue as e:
            raise NonFiniteValue(f"{stage} on batch {batch.sample_id}: {e}") from e
        raise AssertionError(f"the tape interpreter passed a {stage} the closed form refused")

    def _bind(self, batch: Batch) -> tuple[Batch, np.ndarray, list[np.ndarray]]:
        """Check ``batch`` against the weights and stack its targets per head stack."""
        if batch.inputs is None:
            raise ModelError("MLP model needs batch inputs")
        for tid in self.suite.ids:
            if tid not in batch.targets:
                raise ModelError(f"batch {batch.sample_id}: no target for task {tid}")
        x = as_array(batch.inputs)
        fits = x.ndim == 2 and x.shape[1] == self._trunk[0][0].shape[0]
        if not (fits and all(batch.targets[tid].shape == (len(x), heads.w.shape[2])
                             for heads in self._heads for tid in heads.tids)):
            self._replay(batch)
        # np.stack's bytes, without its per-array Python work
        stacks = [np.concatenate([batch.targets[tid] for tid in heads.tids], dtype=np.float64)
                  .reshape(len(heads.tids), len(x), heads.w.shape[2]) for heads in self._heads]
        self._bound = (batch, x, stacks)
        return self._bound

    def forward_all(self, batch: Batch) -> tuple[float, ...]:
        self._forward_version = None  # a failed forward leaves nothing to differentiate
        _, x, stacks = self._bound if self._bound[0] is batch else self._bind(batch)
        acts, residuals, losses = [x], [], []
        with np.errstate(all="ignore"):  # failures are checked
            for w, b in self._trunk:
                z = acts[-1] @ w
                z += b
                if not np.isfinite(z).all():
                    self._replay(batch)
                acts.append(np.tanh(z, out=z) if self.activation == "tanh" else np.maximum(z, 0.0, out=z))
            for heads, target in zip(self._heads, stacks):
                d = np.matmul(acts[-1], heads.w)
                d += heads.b
                d -= target
                sq = d * d
                size = d.size // len(d)
                means = np.add.reduce(sq.reshape(len(d), size), axis=1)
                means /= size
                residuals.append(d)
                losses += means.tolist()  # the stacks follow task-id order
        if not all(map(math.isfinite, losses)):
            self._replay(batch)
        self._acts, self._residuals = acts, residuals
        self._forward_version = self.partition.version
        return tuple(losses)

    def backward_group(self, group, weights: dict[int, float]) -> Gradient:
        """Gradient of sum_i w_i * L_i over shared + the group's task blocks.

        Uses the cached forward; parameters must not have changed since. Each
        call writes a fresh gradient. Members go in descending task id, the
        interpreter's reverse node order: each writes its head gradient into
        its own task set and adds its adjoint into the trunk's.
        """
        if self._forward_version != self.partition.version:
            raise ModelError("backward_group without a fresh forward")
        group = self.partition.members(group)
        acts = self._acts
        head_t = acts[-1].T
        flat = np.zeros(self.partition.buffer.size)
        up = None  # the adjoint of the current layer's activation
        # Two arrays as wide as the trunk serve the whole backward: fewer
        # pages to fault in than one fresh array per product.
        with np.errstate(all="ignore"):
            for tid in reversed(group):
                c, i, w_t = self._head_of[tid]
                d = self._residuals[c]
                g = d[i] * (2.0 / (d.size // len(d)))
                g *= weights[tid]
                start, stop = self.partition._regions[tid]  # the head weight, then its bias
                bias = stop - d.shape[2]
                np.matmul(head_t, g, out=flat[start:bias].reshape(len(head_t), -1))
                np.add.reduce(g, axis=0, out=flat[bias:stop])
                if up is None:
                    up = g @ w_t
                    spare = np.empty_like(up)  # takes turns with up to hold each later (n, width) result
                else:
                    up += np.matmul(g, w_t, out=spare)
            for layer in reversed(range(len(self._trunk))):
                h = acts[layer + 1]
                if self.activation == "tanh":  # up * (1 - h * h), written into h * h
                    np.multiply(h, h, out=spare)
                    np.subtract(1.0, spare, out=spare)
                    spare *= up
                    up, spare = spare, up
                else:  # relu: subgradient at 0 taken as 0; h > 0 exactly where z > 0
                    up *= h > 0.0
                w, b = self._trunk_spans[layer]
                np.add.reduce(up, axis=0, out=flat[b])
                np.matmul(acts[layer].T, up, out=flat[w].reshape(self._trunk[layer][0].shape))
                if layer:
                    up, spare = np.matmul(up, self._trunk_t[layer], out=spare), up
        if not np.isfinite(flat).all():
            self._replay(self._bound[0], group, weights)
        return Gradient(self.partition, group, flat)


def build_shared_trunk(width: int, depth: int, suite: TaskSuite, seed: int,
                       in_dim: int | None = None, out_dims: dict[int, int] | None = None,
                       activation: str = ACTIVATIONS[0]) -> MLPModel:
    """Deterministically initialized trunk of `depth` affine+activation layers.

    Heads are single affine layers, each scored by the squared error against
    its task's target; initialization is uniform in
    [-1/sqrt(fan_in), 1/sqrt(fan_in)] from a generator seeded with ``seed``.
    Task blocks lie in task-id order, so each head stack is a run of adjacent
    tasks of one width, and the stacks' losses join up in task-id order.
    """
    if width < 1 or depth < 1:
        raise ModelError("width and depth must be >= 1")
    if activation not in ACTIVATIONS:
        raise ModelError(f"unknown activation '{activation}'")
    in_dim = width if in_dim is None else in_dim
    out_dims = out_dims or {tid: 1 for tid in suite.ids}
    rng = np.random.default_rng(seed)

    def init(fan_in: int, shape) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    shared: dict[str, np.ndarray] = {}
    dims = [in_dim] + [width] * depth
    for layer in range(depth):
        shared[f"trunk.{layer}.w"] = init(dims[layer], (dims[layer], dims[layer + 1]))
        shared[f"trunk.{layer}.b"] = init(dims[layer], (dims[layer + 1],))
    per_task = {tid: {f"head.{tid}.w": init(width, (width, out_dims[tid])),
                      f"head.{tid}.b": init(width, (out_dims[tid],))} for tid in suite.ids}
    return MLPModel(suite, ParamPartition(shared=shared, per_task=per_task), activation)


class QuadraticModel:
    """Tasks L_i = 0.5*||A_i s + C_i t_i - b_i||^2 with closed-form gradients.

    The caller hands over A as a (k, rows, shared_dim) stack, C as
    (k, rows, task_dim) and b as (k, rows); the task count k is their
    length, and one forward serves every task. The model keeps the stacks
    without a copy and marks them read-only, so a write through the
    caller's arrays raises too. ``a``, ``c`` and ``b`` are read-only maps
    from a task id to its row, and another target means another model. The
    blocks ``task.{tid}.theta`` are the rows of the buffer's task region,
    which the forward reads as one (k, task_dim) array; the optimizers and
    ``ParamPartition.set_block`` write them in place and bump
    ``partition.version``.

    Data-free: the batch argument is accepted for interface compatibility and
    ignored. So ``forward_all`` is memoized on ``partition.version``: a
    forward at the version of the last one (a batch's first forward after
    the previous sub-step's trailing one) returns the same tuple of k losses
    in task-id order again. Each recompute also keeps every task's A_i^T r_i
    and C_i^T r_i (r_i its residual), so ``backward_group`` only scales them
    by the weights and sums them in group order. The tape route is available
    through :meth:`tape_graph` for cross-checking gradients.
    """

    def __init__(self, a: np.ndarray, c: np.ndarray, b: np.ndarray):
        if (a.ndim, c.ndim, b.ndim) != (3, 3, 2) or not a.shape[:2] == c.shape[:2] == b.shape:
            raise ModelError(f"A, C and b must be (k, rows, shared_dim), (k, rows, task_dim) and "
                             f"(k, rows) stacks, got {a.shape}, {c.shape} and {b.shape}")
        self.suite = TaskSuite(len(a))
        for stack in (a, c, b):
            stack.flags.writeable = False
        self._a, self._c, self._b = a, c, b
        ids, sd, td = self.suite.ids, a.shape[2], c.shape[2]
        self.a, self.c, self.b = (MappingProxyType(dict(zip(ids, m))) for m in (a, c, b))
        zeros = np.zeros(td)  # copied into the buffer once per task
        self.partition = ParamPartition(shared={"shared.theta": np.zeros(sd)},
                                        per_task={tid: {f"task.{tid}.theta": zeros} for tid in ids})
        self._theta = self.partition.buffer[sd:].reshape(len(ids), td)
        # each task's A_i^T r_i and C_i^T r_i, as (k, shared_dim) and (k, task_dim)
        self._products: tuple[np.ndarray, np.ndarray] | None = None
        self._losses: tuple[float, ...] = ()
        self._forward_version: int | None = None

    def forward_all(self, batch: Batch | None = None) -> tuple[float, ...]:
        if self._forward_version != self.partition.version:
            s = self.partition.shared["shared.theta"]
            res = self._a @ s + np.matvec(self._c, self._theta) - self._b
            losses = tuple((0.5 * np.vecdot(res, res)).tolist())
            if not all(map(math.isfinite, losses)):
                bad = next(tid for tid, v in enumerate(losses, start=1) if not math.isfinite(v))
                raise NonFiniteValue(f"task {bad} quadratic loss is non-finite")
            # np.vecmat runs A[i].T @ r[i]'s product per slice: the same bytes
            self._products = (np.vecmat(res, self._a), np.vecmat(res, self._c))
            self._losses = losses
            self._forward_version = self.partition.version
        return self._losses

    def backward_group(self, group, weights: dict[int, float]) -> Gradient:
        """A fresh gradient of sum_i w_i * L_i over shared + the group's task blocks."""
        if self._forward_version != self.partition.version:
            raise ModelError("backward_group without a fresh forward")
        group = self.partition.members(group)
        flat = np.zeros(self.partition.buffer.size)  # laid out as the buffer, as _theta is
        shared = flat[:self._a.shape[2]]
        task = flat[self._a.shape[2]:].reshape(self._theta.shape)
        shared_terms, task_terms = self._products
        for tid in group:
            shared += weights[tid] * shared_terms[tid - 1]
            np.multiply(weights[tid], task_terms[tid - 1], out=task[tid - 1])
        return Gradient(self.partition, group, flat)

    def hessian_bound(self) -> float:
        """Largest eigenvalue of any task's full Hessian [A C]^T [A C]."""
        top = 0.0
        for tid in self.suite.ids:
            m = np.hstack([self.a[tid], self.c[tid]])
            top = max(top, float(np.linalg.eigvalsh(m.T @ m)[-1]))
        return top

    def tape_graph(self) -> tuple[Graph, dict[int, int], dict[str, np.ndarray]]:
        """Equivalent tape objective for gradient cross-checks."""
        g = Graph()
        loss_nodes = {}
        consts: dict[str, np.ndarray] = {}
        s = g.leaf("shared.theta2d")
        for tid in self.suite.ids:
            a = g.const(self.a[tid])
            c = g.const(self.c[tid])
            b = g.const(self.b[tid].reshape(-1, 1))
            t = g.leaf(f"task.{tid}.theta2d")
            r = g.sub(g.add(g.matmul(a, s), g.matmul(c, t)), b)
            loss = g.scale(g.reduce_sum(g.mul(r, r)), 0.5)
            loss_nodes[tid] = g.mark_output(loss)
        consts["shared.theta2d"] = self.partition.shared["shared.theta"].reshape(-1, 1)
        for tid in self.suite.ids:
            consts[f"task.{tid}.theta2d"] = self.partition.per_task[tid][f"task.{tid}.theta"].reshape(-1, 1)
        return g, loss_nodes, consts
