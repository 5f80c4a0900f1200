"""Dense float64 arrays with reverse-mode automatic differentiation.

The engine is a small static tape: a graph of operation nodes is built once,
then evaluated against leaf bindings as many times as needed. Forward values
are cached on the graph (``graph.values``, indexed by node id) so a backward
sweep can reuse them. Everything is float64.

:func:`evaluate` and :func:`backward` interpret the tape node by node. They
check the operand shapes of every op and the finiteness of every value and
adjoint they compute, and raise at the first that fails, naming its op and
node. A finite training run never calls them. They are the reference both model
families are tested against: ``MLPModel`` trains in closed form with the
numpy call the interpreter makes for each op of its tape, in the
interpreter's order, and ``QuadraticModel.tape_graph`` restates the
quadratic's losses. They are also the code that names the failing op: where
a model's own check fails, it runs the interpreter, which raises the error.
"""

from __future__ import annotations

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
    call; a graph (and its cache) belongs to a single run at a time.
    """

    nodes: list[Node] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)
    values: list[np.ndarray] | None = None

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


def _require(cond: bool, op: str, detail: str):
    if not cond:
        raise ShapeMismatch(f"{op}: {detail}")


def _value(node: Node, v: list[np.ndarray], bindings) -> np.ndarray:
    """The value of a node: its op's numpy call, after the operand shape checks."""
    op, ins = node.op, node.inputs
    if op == "leaf":
        if node.name not in bindings:
            raise GraphError(f"leaf '{node.name}' is unbound")
        return as_array(bindings[node.name])
    if op == "const":
        return node.const
    a = v[ins[0]]
    if op == "scale":
        return a * node.const
    if op == "relu":
        return np.maximum(a, 0.0)
    if op == "tanh":
        return np.tanh(a)
    if op == "reduce_sum":
        return np.asarray(a.sum())
    b = v[ins[1]]
    if op == "matmul":
        _require(a.ndim == 2 and b.ndim == 2, op, f"need 2-d operands, got {a.shape} and {b.shape}")
        _require(a.shape[1] == b.shape[0], op, f"inner extents differ: {a.shape} @ {b.shape}")
        return a @ b
    if op == "bias_add":
        _require(a.ndim == 2 and b.ndim == 1, op, f"need matrix+vector, got {a.shape} and {b.shape}")
        _require(a.shape[1] == b.shape[0], op, f"bias length {b.shape[0]} != row width {a.shape[1]}")
        return a + b[None, :]
    if op in ("add", "sub", "mul", "squared_error"):
        _require(a.shape == b.shape, op, f"shapes differ: {a.shape} vs {b.shape}")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "squared_error":
        d = a - b
        sq = d * d
        return np.asarray(sq.sum() / sq.size)  # np.mean's reduction, without its dispatch
    raise GraphError(f"unknown op kind '{op}'")


def _adjoint(node: Node, pos: int, g: np.ndarray, v: list[np.ndarray]) -> np.ndarray:
    """The adjoint a node passes to its input ``pos``, given its own adjoint ``g``."""
    op, ins = node.op, node.inputs
    a = ins[0]
    if op == "scale":
        return g * node.const
    if op == "relu":  # subgradient at 0 taken as 0
        return g * (v[a] > 0.0)
    if op == "tanh":
        return g * (1.0 - v[node.nid] * v[node.nid])
    if op == "reduce_sum":
        return np.broadcast_to(g, v[a].shape).copy()
    b = ins[1]
    if op == "matmul":
        return g @ v[b].T if pos == 0 else v[a].T @ g
    if op == "add":
        return g
    if op == "sub":
        return g if pos == 0 else -g
    if op == "bias_add":
        return g if pos == 0 else g.sum(axis=0)
    if op == "mul":
        return g * v[ins[1 - pos]]
    if op == "squared_error":
        d = (2.0 / v[a].size) * (v[a] - v[b])
        return (g if pos == 0 else -g) * d
    raise GraphError(f"no gradient rule for op '{op}'")


def evaluate(graph: Graph, bindings: dict[str, np.ndarray]) -> dict[int, np.ndarray]:
    """Run the tape forward node by node, checking every operand shape and
    every value; cache the values on the graph and return the outputs.

    A failed forward leaves no cached values, so a backward after it raises
    instead of differentiating the previous forward's values."""
    graph.values = None
    vals: list[np.ndarray] = [None] * len(graph.nodes)  # type: ignore[list-item]
    with np.errstate(all="ignore"):  # failures are checked
        for node in graph.nodes:
            out = _value(node, vals, bindings)
            if not np.isfinite(out).all():
                raise NonFiniteValue(f"op '{node.op}' (node {node.nid}) produced a non-finite value")
            vals[node.nid] = out
    graph.values = vals
    return {nid: vals[nid] for nid in graph.outputs}


def backward(graph: Graph, loss, wanted: set[str]) -> dict[str, np.ndarray]:
    """Reverse sweep over every node, checking every adjoint it accumulates.

    ``loss`` is a node id, or a mapping node id -> seed weight for a weighted
    sum of scalar nodes (one sweep, mathematically the gradient of the sum).
    Only leaves named in ``wanted`` appear in the result, in node order; a
    wanted leaf no seed reaches gets a zero gradient.
    """
    vals = graph.values
    if vals is None:
        raise GraphError("backward called before evaluate")
    seeds = {loss: 1.0} if isinstance(loss, int) else dict(loss)
    leaves = [(n.name, n.nid) for n in graph.nodes if n.op == "leaf" and n.name in wanted]
    missing = set(wanted) - {name for name, _ in leaves}
    if missing:
        raise GraphError(f"wanted blocks are not leaves: {sorted(missing)}")

    adj: list[np.ndarray | None] = [None] * len(graph.nodes)
    for nid, w in seeds.items():
        if not 0 <= nid < len(graph.nodes):
            raise GraphError(f"unknown loss node {nid}")
        if vals[nid].shape != ():
            raise GraphError(f"loss node {nid} is not scalar (shape {vals[nid].shape})")
        adj[nid] = as_array(w)

    with np.errstate(all="ignore"):
        for node in reversed(graph.nodes):
            g = adj[node.nid]
            if g is None or node.op in ("leaf", "const"):
                continue
            for pos, i in enumerate(node.inputs):
                c = _adjoint(node, pos, g, vals)
                adj[i] = c if adj[i] is None else adj[i] + c
                if not np.isfinite(adj[i]).all():
                    raise NonFiniteValue(f"backward through op '{node.op}' (node {node.nid}) "
                                         f"produced a non-finite gradient")

    return {name: np.asarray(np.zeros_like(vals[nid]) if adj[nid] is None else adj[nid],
                             dtype=np.float64)
            for name, nid in leaves}


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
