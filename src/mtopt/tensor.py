"""Dense float64 arrays with reverse-mode automatic differentiation.

The engine is a small static tape: a graph of operation nodes is built once,
then evaluated against leaf bindings as many times as needed. Forward values
are cached on the graph (``graph.values``, indexed by node id) so a backward
sweep can reuse them. Everything is float64; a non-finite value aborts the
evaluation, and a non-finite gradient aborts the sweep.

Two drivers run a tape, with the same numpy call per op:

* The interpreter (:func:`interpret`, :func:`interpret_backward`) visits
  every node, checks the operand shapes and the finiteness of every value
  and adjoint it computes, and names the first op that fails. It is the
  oracle the plan is tested against, and the plan's fallback.
* The plan that :func:`evaluate` and :func:`backward` run is compiled once
  per graph and cached on it. The forward is a straight-line list of the
  op calls. It skips the shape checks for leaf shapes the interpreter has
  already passed, and checks finiteness only where a NaN or infinity could
  go unseen: at the nodes nothing consumes, and at the inputs of ``tanh``
  and ``relu``, which can hide one (``tanh(inf) == 1``, ``relu(-inf) ==
  0``); every other op carries it into its output. The backward keeps one
  sweep per (seed nodes, wanted leaves). It visits only the nodes on a path
  from a seeded loss to a wanted leaf, computes only the adjoints those
  paths need, and checks the gradients it returns.

The plan computes each value and adjoint in the interpreter's order, so its
results are bitwise equal. On any failure (an unbound leaf, new leaf shapes,
a non-finite value or gradient) the interpreter runs instead and raises the
error with its own message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Graph misuse: unbound leaf, non-scalar loss seed, unknown node."""


class ShapeMismatch(ValueError):
    """Operand shapes incompatible for the requested op."""


class NonFiniteValue(FloatingPointError):
    """An exposed operation produced NaN or infinity."""


def as_array(value) -> np.ndarray:
    out = np.asarray(value, dtype=np.float64)
    return out


@dataclass
class Node:
    nid: int
    op: str
    inputs: tuple[int, ...] = ()
    name: str | None = None          # leaf binding key
    const: np.ndarray | None = None  # fixed value for "const" nodes


@dataclass
class Graph:
    """Operation tape. Build once, evaluate per binding set.

    ``values`` holds the forward cache of the most recent :func:`evaluate`
    call; a graph (and its cache) belongs to a single run at a time. The
    compiled plan is cached on the graph and rebuilt when nodes are added.
    """

    nodes: list[Node] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)
    values: list[np.ndarray] | None = None
    _plan: _Plan | None = field(default=None, init=False, repr=False, compare=False)

    def _new(self, op: str, inputs: tuple[int, ...] = (), **kw) -> int:
        for i in inputs:
            if not 0 <= i < len(self.nodes):
                raise GraphError(f"unknown input node {i} for op {op}")
        node = Node(nid=len(self.nodes), op=op, inputs=inputs, **kw)
        self.nodes.append(node)
        return node.nid

    # -- construction -----------------------------------------------------

    def leaf(self, name: str) -> int:
        return self._new("leaf", name=name)

    def const(self, value) -> int:
        return self._new("const", const=as_array(value))

    def matmul(self, a: int, b: int) -> int:
        return self._new("matmul", (a, b))

    def add(self, a: int, b: int) -> int:
        return self._new("add", (a, b))

    def sub(self, a: int, b: int) -> int:
        return self._new("sub", (a, b))

    def mul(self, a: int, b: int) -> int:
        return self._new("mul", (a, b))

    def scale(self, a: int, factor: float) -> int:
        return self._new("scale", (a,), const=as_array(factor))

    def bias_add(self, x: int, b: int) -> int:
        """Add a rank-1 bias to every row of a matrix."""
        return self._new("bias_add", (x, b))

    def relu(self, a: int) -> int:
        return self._new("relu", (a,))

    def tanh(self, a: int) -> int:
        return self._new("tanh", (a,))

    def reduce_sum(self, a: int) -> int:
        return self._new("reduce_sum", (a,))

    def squared_error(self, pred: int, target: int) -> int:
        """Mean over all entries of (pred - target)^2."""
        return self._new("squared_error", (pred, target))

    def mark_output(self, nid: int) -> int:
        if nid not in self.outputs:
            self.outputs.append(nid)
        return nid


_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}  # failures are checked


def _require(cond: bool, op: str, detail: str):
    if not cond:
        raise ShapeMismatch(f"{op}: {detail}")


# -- the numpy calls of each op, shared by the interpreter and the plan --------


def _squared_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a - b
    sq = d * d
    return np.asarray(sq.sum() / sq.size)  # np.mean's reduction, without its dispatch


def _kernel(node: Node):
    """The numpy call of an op node, as a function of the value list."""
    op, ins = node.op, node.inputs
    a = ins[0]
    if op == "scale":
        c = node.const
        return lambda v: v[a] * c
    if op == "relu":
        return lambda v: np.maximum(v[a], 0.0)
    if op == "tanh":
        return lambda v: np.tanh(v[a])
    if op == "reduce_sum":
        return lambda v: np.asarray(v[a].sum())
    b = ins[1]
    if op == "matmul":
        return lambda v: v[a] @ v[b]
    if op == "add":
        return lambda v: v[a] + v[b]
    if op == "sub":
        return lambda v: v[a] - v[b]
    if op == "mul":
        return lambda v: v[a] * v[b]
    if op == "bias_add":
        return lambda v: v[a] + v[b][None, :]
    if op == "squared_error":
        return lambda v: _squared_error(v[a], v[b])
    raise GraphError(f"unknown op kind '{op}'")


def _adjoint(node: Node, pos: int):
    """The adjoint an op node passes to its input ``pos``, as a function of
    the node's own adjoint and the value list."""
    op, ins = node.op, node.inputs
    a = ins[0]
    if op == "scale":
        c = node.const
        return lambda g, v: g * c
    if op == "relu":  # subgradient at 0 taken as 0
        return lambda g, v: g * (v[a] > 0.0)
    if op == "tanh":
        y = node.nid
        return lambda g, v: g * (1.0 - v[y] * v[y])
    if op == "reduce_sum":
        return lambda g, v: np.broadcast_to(g, v[a].shape).copy()
    b = ins[1]
    if op == "matmul":
        return (lambda g, v: g @ v[b].T) if pos == 0 else (lambda g, v: v[a].T @ g)
    if op == "add":
        return lambda g, v: g
    if op == "sub":
        return (lambda g, v: g) if pos == 0 else (lambda g, v: -g)
    if op == "bias_add":
        return (lambda g, v: g) if pos == 0 else (lambda g, v: g.sum(axis=0))
    if op == "mul":
        other = ins[1 - pos]
        return lambda g, v: g * v[other]
    if op == "squared_error":
        def step(g, v):
            d = (2.0 / v[a].size) * (v[a] - v[b])
            return (g if pos == 0 else -g) * d
        return step
    raise GraphError(f"no gradient rule for op '{op}'")


def _all_finite(x: np.ndarray) -> bool:
    return bool(np.isfinite(x).all())


# -- the interpreter: every node, every check ---------------------------------


def _forward(node: Node, vals: list[np.ndarray], bindings) -> np.ndarray:
    op = node.op
    if op == "leaf":
        if node.name not in bindings:
            raise GraphError(f"leaf '{node.name}' is unbound")
        return as_array(bindings[node.name])
    if op == "const":
        return node.const
    if len(node.inputs) == 2:
        a, b = vals[node.inputs[0]], vals[node.inputs[1]]
        if op == "matmul":
            _require(a.ndim == 2 and b.ndim == 2, op, f"need 2-d operands, got {a.shape} and {b.shape}")
            _require(a.shape[1] == b.shape[0], op, f"inner extents differ: {a.shape} @ {b.shape}")
        elif op in ("add", "sub", "mul", "squared_error"):
            _require(a.shape == b.shape, op, f"shapes differ: {a.shape} vs {b.shape}")
        elif op == "bias_add":
            _require(a.ndim == 2 and b.ndim == 1, op, f"need matrix+vector, got {a.shape} and {b.shape}")
            _require(a.shape[1] == b.shape[0], op, f"bias length {b.shape[0]} != row width {a.shape[1]}")
    return _kernel(node)(vals)


def interpret(graph: Graph, bindings: dict[str, np.ndarray]) -> dict[int, np.ndarray]:
    """Run the tape forward node by node, checking every operand shape and
    every value; cache the values on the graph and return the outputs."""
    vals: list[np.ndarray] = [None] * len(graph.nodes)  # type: ignore[list-item]
    with np.errstate(**_QUIET):
        for node in graph.nodes:
            out = _forward(node, vals, bindings)
            if not np.all(np.isfinite(out)):
                raise NonFiniteValue(f"op '{node.op}' (node {node.nid}) produced a non-finite value")
            vals[node.nid] = out
    graph.values = vals
    return {nid: vals[nid] for nid in graph.outputs}


def _seed_map(loss) -> dict[int, float]:
    return {loss: 1.0} if isinstance(loss, int) else dict(loss)


def _wanted_leaves(graph: Graph, wanted) -> list[tuple[str, int]]:
    return [(n.name, n.nid) for n in graph.nodes if n.op == "leaf" and n.name in wanted]


def _gradients(adj, vals, leaves) -> dict[str, np.ndarray]:
    """The adjoints of the wanted leaves; zero where no seed reaches one."""
    return {name: np.asarray(np.zeros_like(vals[nid]) if adj[nid] is None else adj[nid],
                             dtype=np.float64)
            for name, nid in leaves}


def interpret_backward(graph: Graph, loss, wanted: set[str]) -> dict[str, np.ndarray]:
    """Reverse sweep over every node, checking every adjoint it accumulates.

    ``loss`` is a node id, or a mapping node id -> seed weight for a weighted
    sum of scalar nodes (one sweep, mathematically the gradient of the sum).
    Only leaves named in ``wanted`` appear in the result.
    """
    vals = graph.values
    if vals is None:
        raise GraphError("backward called before evaluate")
    seeds = _seed_map(loss)
    leaf_names = {n.name for n in graph.nodes if n.op == "leaf"}
    missing = set(wanted) - leaf_names
    if missing:
        raise GraphError(f"wanted blocks are not leaves: {sorted(missing)}")

    adj: list[np.ndarray | None] = [None] * len(graph.nodes)
    for nid, w in seeds.items():
        if not 0 <= nid < len(graph.nodes):
            raise GraphError(f"unknown loss node {nid}")
        if vals[nid].shape != ():
            raise GraphError(f"loss node {nid} is not scalar (shape {vals[nid].shape})")
        adj[nid] = as_array(w)

    with np.errstate(**_QUIET):
        for node in reversed(graph.nodes):
            g = adj[node.nid]
            if g is None or node.op in ("leaf", "const"):
                continue
            for pos, i in enumerate(node.inputs):
                c = _adjoint(node, pos)(g, vals)
                adj[i] = c if adj[i] is None else adj[i] + c
                if not np.all(np.isfinite(adj[i])):
                    raise NonFiniteValue(f"backward through op '{node.op}' (node {node.nid}) "
                                         f"produced a non-finite gradient")

    return _gradients(adj, vals, _wanted_leaves(graph, wanted))


# -- the plan: compiled once per graph ------------------------------------------


class _Plan:
    """A graph's forward as a list of bound op calls, and its pruned sweeps."""

    def __init__(self, graph: Graph):
        nodes = graph.nodes
        self.size = len(nodes)
        self.template = [n.const if n.op == "const" else None for n in nodes]
        self.leaves = [(n.nid, n.name) for n in nodes if n.op == "leaf"]
        self.steps = [(n.nid, _kernel(n)) for n in nodes if n.op not in ("leaf", "const")]
        consumed = {i for n in nodes for i in n.inputs}
        self.watch = {n.nid for n in nodes if n.nid not in consumed}
        self.watch.update(n.inputs[0] for n in nodes if n.op in ("tanh", "relu"))
        self.checked: dict[tuple, list] = {}  # leaf shapes -> [(node id, finiteness test)]
        self.sweeps: dict[tuple, _Sweep | None] = {}

    def admit(self, graph: Graph):
        """Record the leaf shapes of a forward the interpreter has passed."""
        vals = graph.values
        watch = set(self.watch)
        for node in graph.nodes:  # an empty result hides its operands' values
            if vals[node.nid].size == 0:
                watch.update(i for i in node.inputs if vals[i].size)
        key = tuple(vals[nid].shape for nid, _ in self.leaves)
        self.checked[key] = [(nid, math.isfinite if vals[nid].ndim == 0 else _all_finite)
                             for nid in sorted(watch)]

    def forward(self, bindings) -> list[np.ndarray] | None:
        """The node values, or None where only the interpreter can tell."""
        vals = list(self.template)
        try:
            for nid, name in self.leaves:
                vals[nid] = as_array(bindings[name])
        except KeyError:
            return None
        watch = self.checked.get(tuple(vals[nid].shape for nid, _ in self.leaves))
        if watch is None:
            return None
        with np.errstate(**_QUIET):
            for nid, step in self.steps:
                vals[nid] = step(vals)
        for nid, finite in watch:
            if not finite(vals[nid]):
                return None
        return vals

    def sweep(self, graph: Graph, seeds: tuple[int, ...], wanted) -> _Sweep | None:
        key = (seeds, frozenset(wanted))
        if key not in self.sweeps:
            leaf_names = {name for _, name in self.leaves}
            valid = all(0 <= s < self.size for s in seeds) and key[1] <= leaf_names
            self.sweeps[key] = _Sweep(graph, seeds, key[1]) if valid else None
        return self.sweeps[key]


class _Sweep:
    """The reverse sweep from given seed nodes to given leaves, pruned to the
    nodes on a path between them."""

    def __init__(self, graph: Graph, seeds: tuple[int, ...], wanted: frozenset[str]):
        nodes = graph.nodes
        upstream = set(seeds)  # nodes some seed depends on
        for node in reversed(nodes):
            if node.nid in upstream:
                upstream.update(node.inputs)
        downstream = set()  # nodes that depend on a wanted leaf
        for node in nodes:
            if node.op == "leaf" and node.name in wanted or downstream.intersection(node.inputs):
                downstream.add(node.nid)
        path = upstream & downstream
        self.all_seeds = seeds
        self.seeds = [s for s in seeds if s in path]
        self.steps = [(node.nid, i, _adjoint(node, pos))
                      for node in reversed(nodes)
                      if node.nid in path and node.op not in ("leaf", "const")
                      for pos, i in enumerate(node.inputs) if i in path]
        self.leaves = _wanted_leaves(graph, wanted)

    def run(self, vals: list[np.ndarray], weights: dict[int, float]) -> dict[str, np.ndarray] | None:
        """The gradients, or None where only the reference sweep can tell."""
        for s in self.all_seeds:
            if vals[s].shape != ():
                return None
        adj: list[np.ndarray | None] = [None] * len(vals)
        for s in self.seeds:
            adj[s] = as_array(weights[s])
        with np.errstate(**_QUIET):
            for src, dst, step in self.steps:
                c = step(adj[src], vals)
                prev = adj[dst]
                adj[dst] = c if prev is None else prev + c
        out = _gradients(adj, vals, self.leaves)
        if out and not np.isfinite(np.concatenate(list(out.values()), axis=None)).all():
            return None
        return out


def _compiled(graph: Graph) -> _Plan:
    plan = graph._plan
    if plan is None or plan.size != len(graph.nodes):
        plan = graph._plan = _Plan(graph)
    return plan


def evaluate(graph: Graph, bindings: dict[str, np.ndarray]) -> dict[int, np.ndarray]:
    """Run the tape forward, cache every node value, return the outputs.

    A failed forward drops the cached values, so a backward after it raises
    instead of differentiating the previous forward's values."""
    plan = _compiled(graph)
    try:
        vals = plan.forward(bindings)
        if vals is None:
            out = interpret(graph, bindings)
            plan.admit(graph)
            return out
    except BaseException:
        graph.values = None
        raise
    graph.values = vals
    return {nid: vals[nid] for nid in graph.outputs}


def backward(graph: Graph, loss, wanted: set[str]) -> dict[str, np.ndarray]:
    """Reverse sweep from scalar loss node(s) to the wanted leaves.

    ``loss`` is a node id, or a mapping node id -> seed weight for a weighted
    sum of scalar nodes (one sweep, mathematically the gradient of the sum).
    Only leaves named in ``wanted`` appear in the result.
    """
    seeds = _seed_map(loss)
    sweep = _compiled(graph).sweep(graph, tuple(seeds), wanted)
    if sweep is not None and graph.values is not None:
        grads = sweep.run(graph.values, seeds)
        if grads is not None:
            return grads
    return interpret_backward(graph, loss, wanted)


def finite_difference_grad(f, bindings: dict[str, np.ndarray], h: float) -> dict[str, np.ndarray]:
    """Central-difference gradient of a scalar function of the bindings.

    Independent of the tape: ``f`` is called 2 * n_coordinates times with
    perturbed copies. Used as the oracle the reverse sweep is checked against.
    """
    if h <= 0:
        raise ValueError("finite_difference_grad: h must be positive")
    work = {k: as_array(v).copy() for k, v in bindings.items()}
    grads: dict[str, np.ndarray] = {}
    for key, arr in work.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = float(f(work))
            flat[idx] = orig - h
            down = float(f(work))
            flat[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NonFiniteValue(f"non-finite evaluation while differencing '{key}'")
            gf[idx] = (up - down) / (2.0 * h)
        grads[key] = g
    return grads
