"""Output checks on a cell's run directory, against computations made apart from ``mtopt``.

Each check returns a list of problems (empty when it passes). The loss
checks recompute losses in plain numpy from parameters and batches taken
from the stamped training pass, whose eval and final losses must therefore
also equal the ones the timed ``mtopt`` command wrote.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from replay import (compare_affinity, compare_partitions, count_problems, iterations,
                    read_rows, replay_affinity)

BYTE_COMPARED = ("steps.csv", "affinity.csv", "groups.csv", "summary.json")
LOSS_REL_TOL = 1e-9


def digests(rundir: str) -> dict[str, str]:
    out = {}
    for name in BYTE_COMPARED:
        with open(os.path.join(rundir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _rel_problems(what: str, got: dict, want: dict) -> list[str]:
    problems = []
    for tid in sorted(want):
        g, w = float(got[tid]), float(want[tid])
        if not abs(g - w) <= LOSS_REL_TOL * max(abs(w), 1e-300):
            problems.append(f"{what} task {tid}: logged {g!r}, recomputed {w!r}")
    return problems


def mlp_losses(params: dict, x: np.ndarray, targets: dict, depth: int, activation: str) -> dict:
    """Plain-numpy forward of the shared trunk and the affine heads: mean squared error."""
    h = x
    for layer in range(depth):
        h = h @ params[f"trunk.{layer}.w"] + params[f"trunk.{layer}.b"]
        h = np.tanh(h) if activation == "tanh" else np.maximum(h, 0.0)
    out = {}
    for tid, y in targets.items():
        d = h @ params[f"head.{tid}.w"] + params[f"head.{tid}.b"] - y
        out[tid] = float(np.mean(d * d))
    return out


def quadratic_losses(model, params: dict) -> dict:
    """0.5 * ||A_i s + C_i t_i - b_i||^2 from the suite's matrices and the given parameters."""
    s = params["shared.theta"]
    return {tid: 0.5 * float(np.sum((model.a[tid] @ s + model.c[tid] @ params[f"task.{tid}.theta"]
                                     - model.b[tid]) ** 2))
            for tid in model.suite.ids}


def _params(model) -> dict:
    return {name: model.partition.block(name) for name in model.partition.block_ids(model.suite.ids)}


class CellChecks:
    """Runs the checks of one cell; ``results`` lists (check name, problems)."""

    def __init__(self, rundir: str, cfg):
        self.rundir = rundir
        self.cfg = cfg
        self.results: list[tuple[str, list[str]]] = []

    def _summary(self) -> dict:
        with open(os.path.join(self.rundir, "summary.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def _record(self, name, fn):
        try:
            problems = fn()
        except (OSError, ValueError, KeyError, IndexError) as e:
            problems = [f"{type(e).__name__}: {e}"]
        self.results.append((name, problems))

    def run_dir_checks(self):
        """Count rule and, for tracked runs, the affinity and partition replays."""
        cfg = self.cfg
        self._record("files", self._files)
        if self.results[-1][1]:
            return
        steps = iterations(read_rows(os.path.join(self.rundir, "steps.csv")))
        joint = cfg.method in ("JOINT", "SINGLE")
        self._record("count_rule", lambda: count_problems(steps, joint))
        if cfg.method == "SELECTIVE":
            k = self._summary()["k"]
            rows, partitions = replay_affinity(steps, k, cfg.beta)
            self._record("affinity_replay", lambda: compare_affinity(
                rows, read_rows(os.path.join(self.rundir, "affinity.csv"))))
            self._record("partition_replay", lambda: compare_partitions(
                partitions, read_rows(os.path.join(self.rundir, "groups.csv")), k))

    def _files(self):
        missing = [n for n in BYTE_COMPARED + ("config.json",)
                   if not os.path.isfile(os.path.join(self.rundir, n))]
        return [f"missing {n}" for n in missing]

    def loss_checks(self, cell_pass):
        """Iteration-1 losses and eval (MLP) or final (quadratic) losses."""
        self._record("initial_losses", lambda: self._initial(cell_pass))
        self._record("final_losses", lambda: self._final(cell_pass))

    def _logged_initial(self):
        """Iteration-1 losses of each log in file order (SINGLE has one log per task)."""
        out = []
        for entry in iterations(read_rows(os.path.join(self.rundir, "steps.csv"))):
            if entry["iter"] == 1:
                out.append(entry["initial"])
        return out

    def _initial(self, cell_pass):
        cfg = self.cfg
        logged = self._logged_initial()
        if len(logged) != len(cell_pass.trainings):
            return [f"{len(logged)} logs, {len(cell_pass.trainings)} trainings"]
        problems = []
        for got, tr in zip(logged, cell_pass.trainings):
            if cfg.benchmark_kind == "quadratic":
                want = {tid: 0.5 * float(np.sum(tr.model.b[tid] ** 2)) for tid in tr.model.suite.ids}
            else:
                batch = tr.first_batch
                want = mlp_losses(tr.initial_params, batch.inputs, batch.targets,
                                  cfg.model_depth, cfg.model_activation)
            problems += _rel_problems("iteration-1 loss", got, want)
        return problems

    def _final(self, cell_pass):
        cfg = self.cfg
        summary = self._summary()
        if cfg.benchmark_kind == "quadratic":
            tr = cell_pass.trainings[0]
            want = quadratic_losses(tr.model, _params(tr.model))
            got = {int(t): v for t, v in summary["final_losses"].items()}
            return _rel_problems("final loss", got, want)
        ds = cell_pass.dataset
        got = {int(t): v for t, v in summary["eval_losses"].items()}
        want = {}
        for tr in cell_pass.trainings:
            losses = mlp_losses(_params(tr.model), ds.eval_x, ds.eval_targets,
                                cfg.model_depth, cfg.model_activation)
            if tr.eval_task is None:
                want.update(losses)
            else:
                want[tr.eval_task] = losses[tr.eval_task]
        if set(got) != set(want):
            return [f"eval tasks {sorted(got)} != {sorted(want)}"]
        return _rel_problems("eval loss", got, want)


def sweep_index_problems(outdir: str, cells) -> list[str]:
    """Every expected cell is listed in index.csv with status ok."""
    rows = read_rows(os.path.join(outdir, "index.csv"))
    status = {r["cell"]: r["status"] for r in rows}
    problems = [f"cell {c.subdir}: status {status.get(c.subdir, 'absent')}"
                for c in cells if status.get(c.subdir) != "ok"]
    if len(rows) != len(cells):
        problems.append(f"index has {len(rows)} cells, expected {len(cells)}")
    return problems
