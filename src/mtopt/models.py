"""Shared-trunk multi-task models with an explicit shared/per-task parameter split.

Two model families share one interface, and both train in closed form:

* ``MLPModel`` — a trunk of affine layers (tanh or relu) with one affine
  head per task, for synthetic regression experiments.
* ``QuadraticModel`` — convex losses 0.5*||A_i s + C_i t_i - b_i||^2, the
  workhorse for every analytic property check. Its tasks share one shape,
  so it stores them stacked and computes every task's loss in one forward.

Each keeps a tape for reference: ``MLPModel.graph`` is its objective as the
tape interpreter runs it, bitwise equal to the closed form, and
``QuadraticModel.tape_graph`` restates the quadratic's losses.

Both expose ``forward_all`` / ``backward_group`` and support exact
snapshot/restore of selected parameter blocks, which the slow affinity
oracles rely on. Each family fixes its task loss: the MLP's heads are all
scored by squared error, and the quadratic's losses are its closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

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


@dataclass
class ParamPartition:
    """Named parameter blocks, split into the shared trunk and per-task sets."""

    shared: dict[str, np.ndarray]
    per_task: dict[int, dict[str, np.ndarray]]
    version: int = 0  # bumped on every in-place mutation; guards stale tapes
    _index: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = dict(self.shared)
        for tid, blocks in self.per_task.items():
            for name, value in blocks.items():
                if name in self._index:
                    raise ModelError(f"block '{name}' appears in more than one parameter set")
                self._index[name] = value

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

    def writable(self, name: str, shape) -> np.ndarray:
        """The block ``name``, checked to take a value of ``shape`` in place.
        The caller writes it and bumps ``version``."""
        try:
            target = self._index[name]
        except KeyError:
            raise ModelError(f"unknown parameter block '{name}'") from None
        if target.shape != shape:
            raise ModelError(f"block '{name}': shape {shape} != {target.shape}")
        return target

    def set_block(self, name: str, value: np.ndarray):
        self.writable(name, value.shape)[...] = value
        self.version += 1


def snapshot(model, block_ids) -> dict[str, np.ndarray]:
    return {name: model.partition.block(name).copy() for name in block_ids}


def restore(model, snap: dict[str, np.ndarray]):
    for name, value in snap.items():
        model.partition.set_block(name, value)


class MLPModel:
    """Shared MLP trunk + one affine head per task, trained in closed form.

    ``forward_all`` and ``backward_group`` make the numpy call the tape
    interpreter makes for each op of ``graph``, in the interpreter's order, so
    every loss and gradient is bitwise the interpreter's. Where the
    interpreter would allocate a new array for a bias add, a squared error or
    a ``tanh`` adjoint, they write into the array just allocated (``z = h @ w;
    z += b``), and the activation overwrites its pre-activation; that gives
    the same bits. The backward computes no adjoint toward the input.

    They check only what could go unseen: the pre-activations (``tanh`` and
    ``relu`` can hide an infinity; every other op carries it to a loss), the
    losses, the batch's shapes against the weights (numpy would broadcast an
    ``(n,)`` target against an ``(n, 1)`` prediction), and the gradients they
    return. Where a check fails, the model runs the interpreter on ``graph``
    with the same bindings, and the interpreter raises the error that names
    the failing op.
    """

    def __init__(self, suite: TaskSuite, partition: ParamPartition, graph: Graph,
                 loss_nodes: dict[int, int], activation: str):
        self.suite = suite
        self.partition = partition
        self.graph = graph
        self.loss_nodes = loss_nodes
        self.activation = activation
        self._trunk = [(f"trunk.{i}.w", f"trunk.{i}.b") for i in range(len(partition.shared) // 2)]
        self._heads = {tid: (f"head.{tid}.w", f"head.{tid}.b") for tid in suite.ids}
        self._forward_version: int | None = None
        self._batch: Batch | None = None
        self._acts: list[np.ndarray] = []  # the input, then each layer's activation
        self._residuals: dict[int, np.ndarray] = {}  # prediction - target, per task

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

    def forward_all(self, batch: Batch) -> dict[int, float]:
        self._forward_version = None  # a failed forward leaves nothing to differentiate
        if batch.inputs is None:
            raise ModelError("MLP model needs batch inputs")
        for tid in self.suite.ids:
            if tid not in batch.targets:
                raise ModelError(f"batch {batch.sample_id}: no target for task {tid}")
        shared, heads = self.partition.shared, self.partition.per_task
        x = as_array(batch.inputs)
        targets = {tid: as_array(batch.targets[tid]) for tid in self.suite.ids}
        fits = x.ndim == 2 and x.shape[1] == shared["trunk.0.w"].shape[0]
        if not (fits and all(targets[tid].shape == (len(x), heads[tid][w].shape[1])
                             for tid, (w, _) in self._heads.items())):
            self._replay(batch)
        acts, residuals, losses = [x], {}, {}
        with np.errstate(all="ignore"):  # failures are checked
            for w, b in self._trunk:
                z = acts[-1] @ shared[w]
                z += shared[b]
                if not np.isfinite(z).all():
                    self._replay(batch)
                acts.append(np.tanh(z, out=z) if self.activation == "tanh" else np.maximum(z, 0.0, out=z))
            for tid, (w, b) in self._heads.items():
                d = acts[-1] @ heads[tid][w]
                d += heads[tid][b]
                d -= targets[tid]
                sq = d * d
                residuals[tid] = d
                losses[tid] = float(sq.sum() / sq.size)
        if not all(map(math.isfinite, losses.values())):
            self._replay(batch)
        self._acts, self._residuals, self._batch = acts, residuals, batch
        self._forward_version = self.partition.version
        return losses

    def backward_group(self, group, weights: dict[int, float]) -> dict[str, np.ndarray]:
        """Gradients of sum_i w_i * L_i over shared + the group's task blocks.

        Uses the cached forward; parameters must not have changed since. The
        heads' adjoints to the trunk are summed in descending task id, the
        interpreter's reverse node order.
        """
        if self._forward_version != self.partition.version:
            raise ModelError("backward_group without a fresh forward")
        shared, acts = self.partition.shared, self._acts
        grads: dict[str, np.ndarray] = {}
        up = None  # the adjoint of the current layer's activation
        # Every temporary as wide as the trunk is dropped as soon as it is
        # used, so a backward holds at most two: fewer pages to fault in.
        with np.errstate(all="ignore"):
            for tid in sorted(group, reverse=True):
                w, b = self._heads[tid]
                d = self._residuals[tid]
                g = d * (2.0 / d.size)
                g *= weights[tid]
                grads[w] = acts[-1].T @ g
                grads[b] = g.sum(axis=0)
                if up is None:
                    up = g @ self.partition.per_task[tid][w].T
                else:
                    up += g @ self.partition.per_task[tid][w].T
            for layer in reversed(range(len(self._trunk))):
                w, b = self._trunk[layer]
                h = acts[layer + 1]
                if self.activation == "tanh":  # up * (1 - h * h), written into h * h
                    slope = h * h
                    np.subtract(1.0, slope, out=slope)
                    slope *= up
                    up = slope
                else:  # relu: subgradient at 0 taken as 0; h > 0 exactly where z > 0
                    up *= h > 0.0
                grads[b] = up.sum(axis=0)
                grads[w] = acts[layer].T @ up
                if layer:
                    up = up @ shared[w].T
        out = {name: grads[name] for pair in self._trunk for name in pair}
        out.update((name, grads[name]) for tid in sorted(group) for name in self._heads[tid])
        if not all(np.isfinite(g).all() for g in out.values()):
            self._replay(self._batch, group, weights)
        return out


def build_shared_trunk(width: int, depth: int, suite: TaskSuite, seed: int,
                       in_dim: int | None = None, out_dims: dict[int, int] | None = None,
                       activation: str = "tanh") -> MLPModel:
    """Deterministically initialized trunk of `depth` affine+activation layers.

    Heads are single affine layers, each scored by the squared error against
    its task's target; initialization is uniform in
    [-1/sqrt(fan_in), 1/sqrt(fan_in)] from a generator seeded with ``seed``.
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
    per_task: dict[int, dict[str, np.ndarray]] = {}
    for tid in suite.ids:
        per_task[tid] = {
            f"head.{tid}.w": init(width, (width, out_dims[tid])),
            f"head.{tid}.b": init(width, (out_dims[tid],)),
        }
    partition = ParamPartition(shared=shared, per_task=per_task)

    g = Graph()
    h = g.leaf("input")
    for layer in range(depth):
        h = g.bias_add(g.matmul(h, g.leaf(f"trunk.{layer}.w")), g.leaf(f"trunk.{layer}.b"))
        h = g.tanh(h) if activation == "tanh" else g.relu(h)
    loss_nodes: dict[int, int] = {}
    for tid in suite.ids:
        pred = g.bias_add(g.matmul(h, g.leaf(f"head.{tid}.w")), g.leaf(f"head.{tid}.b"))
        loss_nodes[tid] = g.mark_output(g.squared_error(pred, g.leaf(f"target.{tid}")))
    return MLPModel(suite, partition, g, loss_nodes, activation)


class QuadraticModel:
    """Tasks L_i = 0.5*||A_i s + C_i t_i - b_i||^2 with closed-form gradients.

    A, C and b are stacked (k, rows, ·) arrays, so all tasks share one row
    count and one task dim, and one forward serves every task. The stacks
    are read-only: ``a``, ``c`` and ``b`` are read-only maps from a task id
    to its row, and another target means another model. The blocks
    ``task.{tid}.theta`` are row views of one (k, task_dim) array, written in
    place by the optimizers and ``ParamPartition.set_block``, which bump
    ``partition.version``.

    Data-free: the batch argument is accepted for interface compatibility and
    ignored. So ``forward_all`` is memoized on ``partition.version``: a
    forward at the version of the last one (a batch's first forward after
    the previous sub-step's trailing one) returns its losses again, in a
    fresh dict. The tape route is available through :meth:`tape_graph` for
    cross-checking gradients.
    """

    def __init__(self, suite: TaskSuite, a: dict[int, np.ndarray], c: dict[int, np.ndarray],
                 b: dict[int, np.ndarray]):
        self.suite = suite
        ids = suite.ids
        first = None
        for tid in ids:
            ai, ci, bi = a[tid], c[tid], b[tid]
            if ai.ndim != 2 or ci.ndim != 2 or bi.ndim != 1:
                raise ModelError(f"task {tid}: A must be 2-d, C 2-d, b 1-d")
            if ai.shape[0] != bi.shape[0] or ci.shape[0] != bi.shape[0]:
                raise ModelError(
                    f"task {tid}: row counts differ (A {ai.shape}, C {ci.shape}, b {bi.shape})")
            dims = (bi.shape[0], ai.shape[1], ci.shape[1])
            first = first or dims
            if dims != first:
                raise ModelError(
                    f"task {tid}: (rows, shared dim, task dim) {dims} != {first} of task {ids[0]}")
        self._a, self._c, self._b = (np.stack([m[tid] for tid in ids]) for m in (a, c, b))
        for stack in (self._a, self._c, self._b):
            stack.flags.writeable = False
        self.a, self.c, self.b = (MappingProxyType(dict(zip(ids, m))) for m in (self._a, self._c, self._b))
        self._ids = ids
        self._names = {tid: f"task.{tid}.theta" for tid in ids}
        self._theta = np.zeros((len(ids), first[2]))
        self.partition = ParamPartition(
            shared={"shared.theta": np.zeros(first[1])},
            per_task={tid: {self._names[tid]: t} for tid, t in zip(ids, self._theta)})
        self._residuals: np.ndarray | None = None
        self._losses: list[float] = []
        self._forward_version: int | None = None

    def forward_all(self, batch: Batch | None = None) -> dict[int, float]:
        if self._forward_version != self.partition.version:
            s = self.partition.shared["shared.theta"]
            res = self._a @ s + (self._c @ self._theta[:, :, None])[:, :, 0] - self._b
            losses = 0.5 * np.vecdot(res, res)
            finite = np.isfinite(losses)
            if not finite.all():
                raise NonFiniteValue(f"task {self._ids[int(finite.argmin())]} quadratic loss is non-finite")
            self._residuals, self._losses = res, losses.tolist()
            self._forward_version = self.partition.version
        return dict(zip(self._ids, self._losses))

    def backward_group(self, group, weights: dict[int, float]) -> dict[str, np.ndarray]:
        if self._forward_version != self.partition.version:
            raise ModelError("backward_group without a fresh forward")
        gs = np.zeros(self._a.shape[2])
        out: dict[str, np.ndarray] = {}
        for tid in sorted(group):
            r = self._residuals[tid - 1]
            gs = gs + weights[tid] * (self._a[tid - 1].T @ r)
            out[self._names[tid]] = weights[tid] * (self._c[tid - 1].T @ r)
        out["shared.theta"] = gs
        return out

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
