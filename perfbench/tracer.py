"""Spans around the public functions of each ``mtopt`` module, and the
per-layer metrics derived from them.

A :class:`Tracer` replaces each traced function wherever a caller looks it
up: the attribute of every ``mtopt`` module that holds it, or the class that
defines a method. Each call records a span (name, start, end, parent) in
memory, plus a count where the boundary has one. ``uninstall`` puts every
original back, and :func:`assert_untraced` checks that nothing is left
wrapped before an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

MODULES = ("affinity", "analysis", "benchmarks", "cli", "config", "experiments",
           "grouping", "models", "optim", "runio", "tensor")

# (module, attribute path, span name). Functions imported by name into other
# modules are replaced there too, since that is where their callers look.
TRACED = [
    ("cli", "main", "cli.main"),
    ("config", "validate_config", "config.validate"),
    ("experiments", "run_experiment", "experiments.run"),
    ("benchmarks", "gen_regression_suite", "benchmarks.gen"),
    ("benchmarks", "gen_quadratic_suite", "benchmarks.gen"),
    ("benchmarks", "TabularDataset.stream", "benchmarks.stream"),
    ("benchmarks", "TabularDataset.eval_batch", "benchmarks.eval_batch"),
    ("models", "build_shared_trunk", "models.build"),
    ("models", "MLPModel.forward_all", "models.forward"),
    ("models", "MLPModel.backward_group", "models.backward"),
    ("models", "QuadraticModel.forward_all", "models.forward"),
    ("models", "QuadraticModel.backward_group", "models.backward"),
    ("tensor", "evaluate", "tensor.evaluate"),
    ("tensor", "backward", "tensor.backward"),
    ("optim", "train", "optim.train"),
    ("optim", "selective_group_step", "optim.step"),
    ("optim", "joint_step", "optim.step"),
    ("optim", "PlainSGD.apply", "optim.apply"),
    ("optim", "Adam.apply", "optim.apply"),
    ("affinity", "instant_inter_group", "affinity.update"),
    ("affinity", "instant_intra_group", "affinity.update"),
    ("affinity", "decay_update", "affinity.update"),
    ("grouping", "partition_tasks", "grouping.partition"),
    ("runio", "write_run", "runio.write"),
    ("analysis", "summarize_run", "analysis.summarize"),
]

GENERATORS = {"benchmarks.stream"}


def _modules():
    return {name: importlib.import_module(f"mtopt.{name}") for name in MODULES}


def _resolve(mod, path):
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _matmul_flops(graph, seeds) -> int:
    """Multiply-add flops of the tape's matmuls: forward, or the reverse sweep
    from ``seeds`` (two products per matmul on a path to a seeded loss)."""
    vals = graph.values
    if seeds is None:
        nodes = [n for n in graph.nodes if n.op == "matmul"]
        factor = 1
    else:
        live = set(seeds)
        for node in reversed(graph.nodes):
            if node.nid in live:
                live.update(node.inputs)
        nodes = [n for n in graph.nodes if n.op == "matmul" and n.nid in live]
        factor = 2
    flops = 0
    for n in nodes:
        a, b = vals[n.inputs[0]], vals[n.inputs[1]]
        flops += 2 * a.shape[0] * a.shape[1] * b.shape[1]
    return factor * flops


def _count(name, args, out):
    """Work counted at a span's boundary, after its end stamp."""
    if name == "optim.step":
        report = out[0] if isinstance(out, tuple) else out
        return report.partition.m
    if name == "affinity.update" and isinstance(out, list) and out and isinstance(out[0], tuple):
        return len(out)  # decay_update's log rows
    if name == "tensor.evaluate":
        return _matmul_flops(args[0], None)
    if name == "tensor.backward":
        seeds = args[1]
        return _matmul_flops(args[0], [seeds] if isinstance(seeds, int) else list(seeds))
    if name == "runio.write":
        rows = 0
        for key in ("steps", "affinity", "groups"):
            with open(out[key], encoding="utf-8") as fh:
                rows += sum(1 for _ in fh) - 2
        return rows
    return 0


class Tracer:
    """Records spans as [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._flops_cache: dict = {}

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def timed():
                    while True:
                        idx = tracer._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(idx)
                        yield item
                return timed()
            gen_wrapper.__perfbench_span__ = name
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.spans[idx][4] = tracer._counted(name, args, out)
            return out
        wrapper.__perfbench_span__ = name
        return wrapper

    def _counted(self, name, args, out):
        if name not in ("tensor.evaluate", "tensor.backward"):
            return _count(name, args, out)
        graph = args[0]
        seeds = None if name == "tensor.evaluate" else args[1]
        key = (name, id(graph), graph.values[0].shape,
               seeds if seeds is None or isinstance(seeds, int) else tuple(sorted(seeds)))
        if key not in self._flops_cache:
            self._flops_cache[key] = _count(name, args, out)
        return self._flops_cache[key]

    def install(self):
        mods = _modules()
        for modname, path, span in TRACED:
            owner, attr = _resolve(mods[modname], path)
            orig = owner.__dict__[attr]
            wrapped = self._wrap(span, orig)
            if isinstance(owner, type):
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in mods.values():  # every module that imported it by name
                if mod.__dict__.get(attr) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def assert_untraced():
    """Raise if any ``mtopt`` function or method is still wrapped by a tracer."""
    for mod in _modules().values():
        for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
            for attr, value in vars(owner).items():
                if getattr(value, "__perfbench_span__", None):
                    raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")


def self_times(spans) -> list[float]:
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced command (a run, or a serial sweep).

    ``*_per_iter`` figures cover spans inside ``optim.train`` and divide by
    the training iterations (step spans); the per-run figures are medians
    over the command's cells (one ``experiments.run`` each).
    """
    selfs = self_times(spans)
    n = len(spans)
    in_train = [False] * n
    in_step = [False] * n
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            in_train[i] = in_train[p] or spans[p][0] == "optim.train"
            in_step[i] = in_step[p] or spans[p][0] == "optim.step"

    iters = sum(1 for s in spans if s[0] == "optim.step")
    tot: dict[str, float] = {}
    cnt: dict[str, float] = {}
    calls: dict[str, int] = {}
    tape_s = 0.0
    for i, s in enumerate(spans):
        name = s[0]
        if in_train[i]:
            tot[name] = tot.get(name, 0.0) + selfs[i]
            cnt[name] = cnt.get(name, 0) + s[4]
            if name in ("tensor.evaluate", "tensor.backward"):
                tape_s += s[2] - s[1]
        if in_step[i]:
            calls[name] = calls.get(name, 0) + 1

    def per_iter_ms(name):
        return 1e3 * tot.get(name, 0.0) / iters if iters else 0.0

    flops = cnt.get("tensor.evaluate", 0) + cnt.get("tensor.backward", 0)

    # per-cell figures: an experiments.run span opens a cell, and the spans
    # after it (its run-log write included) belong to it
    cells: list[dict] = []
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        if name == "experiments.run":
            cells.append({"run": i, "gen": 0.0, "eval": 0.0, "write": 0.0, "rows": 0,
                          "summ": 0.0, "s": dur})
            continue
        if not cells:
            continue
        c = cells[-1]
        if name == "benchmarks.gen":
            c["gen"] += dur
        elif s[3] == c["run"] and name in ("models.forward", "benchmarks.eval_batch"):
            c["eval"] += dur
        elif name == "runio.write":
            c["write"] += selfs[i]
            c["rows"] += s[4]
            c["s"] += dur
        elif name == "analysis.summarize":
            c["summ"] += selfs[i]

    def cell_median(key, scale=1.0):
        return scale * statistics.median(c[key] for c in cells) if cells else 0.0

    return {
        "benchmarks.gen_ms": cell_median("gen", 1e3),
        "benchmarks.stream_ms_per_iter": per_iter_ms("benchmarks.stream"),
        "tensor.evaluate_ms_per_iter": per_iter_ms("tensor.evaluate"),
        "tensor.backward_ms_per_iter": per_iter_ms("tensor.backward"),
        "tensor.matmul_gflop_per_iter": flops / iters / 1e9 if iters else 0.0,
        "tensor.gflop_per_s": flops / tape_s / 1e9 if tape_s else 0.0,
        "models.forward_ms_per_iter": per_iter_ms("models.forward"),
        "models.backward_ms_per_iter": per_iter_ms("models.backward"),
        "models.forward_calls_per_iter": calls.get("models.forward", 0) / iters if iters else 0.0,
        "models.backward_calls_per_iter": calls.get("models.backward", 0) / iters if iters else 0.0,
        "optim.apply_ms_per_iter": per_iter_ms("optim.apply"),
        "optim.step_self_ms_per_iter": per_iter_ms("optim.step"),
        "affinity.update_ms_per_iter": per_iter_ms("affinity.update"),
        "affinity.rows_per_iter": cnt.get("affinity.update", 0) / iters if iters else 0.0,
        "grouping.partition_ms_per_iter": per_iter_ms("grouping.partition"),
        "grouping.groups_per_iter": cnt.get("optim.step", 0) / iters if iters else 0.0,
        "runio.write_ms": cell_median("write", 1e3),
        "runio.rows": cell_median("rows"),
        "analysis.summarize_ms": cell_median("summ", 1e3),
        "experiments.eval_ms": cell_median("eval", 1e3),
        "experiments.cell_s_p50": cell_median("s"),
    }


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent,count\n")
        for s in spans:
            fh.write(f"{s[0]},{s[1]!r},{s[2]!r},{s[3]},{s[4]}\n")
