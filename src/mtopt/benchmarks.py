"""Synthetic multi-task problems with controllable inter-task structure.

Everything here is a pure function of its spec: same spec, same bytes.
The quadratic family is data-free (a placeholder batch satisfies the
"same sample at both states" premise of every affinity ratio trivially);
the regression family is the desk-scale stand-in for real task suites.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .models import Batch, QuadraticModel, TaskSuite


MIN_TASK_GRAD = 0.3  # resample a target until its task-head gradient is not degenerate


class BenchmarkError(ValueError):
    pass


def _unit_spectral(m: np.ndarray) -> np.ndarray:
    top = float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0
    return m / top if top > 0 else m


def _aligned_targets(k: int, rows: int, rho: float, rng: np.random.Generator) -> list[np.ndarray]:
    """Unit target vectors with every pairwise cosine exactly rho, for a
    (k, rows, rho) that :class:`QuadraticSpec` has found feasible."""
    gram = (1.0 - rho) * np.eye(k) + rho * np.ones((k, k))
    evals, evecs = np.linalg.eigh(gram)
    factor = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None)))
    q, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    return [q @ factor[i] for i in range(k)]


@dataclass(frozen=True)
class QuadraticSpec:
    k: int = 2
    shared_dim: int = 6
    task_dim: int = 2
    rows: int = 8
    seed: int = 0
    rho: float | None = None          # pairwise target alignment; implies one shared design matrix

    def __post_init__(self):
        if self.k < 2:
            raise BenchmarkError("need at least 2 tasks")
        if min(self.shared_dim, self.rows) < 1 or self.task_dim < 0:
            raise BenchmarkError("dimensions must be positive (task_dim may be 0)")
        if self.rho is None:
            return
        # k unit targets with pairwise cosine rho exist iff the equi-correlation
        # Gram matrix is PSD (rho >= -1/(k-1)) and there are at least k rows
        k, rho = self.k, self.rho
        if not -1.0 <= rho <= 1.0:
            raise BenchmarkError(f"alignment must be in [-1,1], got {rho}")
        if k > 2 and rho < -1.0 / (k - 1) - 1e-12:
            raise BenchmarkError(
                f"pairwise alignment {rho} is infeasible for {k} tasks: "
                f"the equi-correlation matrix is not PSD below -1/(k-1) = {-1.0 / (k - 1):.4f}")
        if self.rows < k:
            raise BenchmarkError(f"need at least {k} target rows for {k} aligned tasks, "
                                 f"got {self.rows}")


def gen_quadratic_suite(spec: QuadraticSpec) -> tuple[QuadraticModel, Batch]:
    """Convex suite L_i = 0.5*||A_i s + C_i t_i - b_i||^2 at the origin.

    Design matrices are normalized to unit spectral norm, and each target is
    scaled so its task's initial shared gradient has norm 1, so the analytic
    property margins (stated in multiples of eta^2 at unit scale) apply.
    """
    rng = np.random.default_rng([spec.seed, 0])
    k = spec.k
    suite = TaskSuite(k)
    shared_a = None
    if spec.rho is not None:
        shared_a = _unit_spectral(rng.standard_normal((spec.rows, spec.shared_dim)))
    a, c, b = {}, {}, {}
    for tid in suite.ids:
        a[tid] = shared_a if shared_a is not None else _unit_spectral(
            rng.standard_normal((spec.rows, spec.shared_dim)))
        c[tid] = _unit_spectral(rng.standard_normal((spec.rows, spec.task_dim)))
    if spec.rho is not None:
        raw = _aligned_targets(k, spec.rows, spec.rho, rng)
    else:
        raw = []
        for tid in suite.ids:
            for _ in range(64):
                v = rng.standard_normal(spec.rows)
                v /= np.linalg.norm(v)
                sg = np.linalg.norm(a[tid].T @ v)
                tg = np.linalg.norm(c[tid].T @ v) if spec.task_dim else MIN_TASK_GRAD
                if sg >= 0.2 and tg >= MIN_TASK_GRAD * sg:
                    break
            else:
                raise BenchmarkError(f"could not draw a non-degenerate target for task {tid}")
            raw.append(v)
    for tid, v in zip(suite.ids, raw):
        sg = np.linalg.norm(a[tid].T @ v)
        if sg < 1e-9:
            raise BenchmarkError(f"task {tid}: target is orthogonal to the design range")
        b[tid] = v / sg
    model = QuadraticModel(suite, a, c, b)
    return model, Batch(inputs=None, targets={}, sample_id=0)


def shared_grads(model: QuadraticModel) -> dict[int, np.ndarray]:
    """Each task's gradient of its own loss with respect to the shared block."""
    weights = model.suite.weights()
    model.forward_all(None)
    return {tid: model.backward_group((tid,), weights)["shared.theta"] for tid in model.suite.ids}


def property_instance(k: int, seed: int,
                      align: tuple[int, ...] | None = None) -> tuple[QuadraticModel, Batch]:
    """Normalized quadratic instance for the analytic check suites.

    ``align`` gives required signs of each leading task's shared-gradient dot
    product with the last task (the probe target); the instance is built
    again with those targets sign-flipped to enforce it, resampling the rare
    exactly-orthogonal draw.
    """
    for attempt in range(32):
        model, batch = gen_quadratic_suite(QuadraticSpec(k=k, seed=seed * 1000 + attempt))
        grads = shared_grads(model)
        if align is None:
            return model, batch
        anchor = grads[k]
        dots = [float(grads[pos] @ anchor) for pos in range(1, len(align) + 1)]
        if all(abs(dot) >= 1e-6 for dot in dots):
            b = dict(model.b)
            for pos, (dot, want) in enumerate(zip(dots, align), start=1):
                if np.sign(dot) != np.sign(want):
                    b[pos] = -b[pos]
            model = QuadraticModel(model.suite, dict(model.a), dict(model.c), b)
            model.forward_all(batch)
            return model, batch
    raise BenchmarkError(f"could not build an aligned instance for seed {seed}")


# -- regression suites -------------------------------------------------------


@dataclass(frozen=True)
class RegressionSuiteSpec:
    """K regression tasks over a common nonlinear latent.

    The first k-1 tasks form the aligned cluster: each reads the shared
    latent plus an opposed nuisance component (alternating sign across the
    cluster, so their summed gradients cancel the nuisance) and its own noise
    draw. The last task is the conflicting one: its target is an independent
    latent minus ``conflict`` times the shared one, amplified by
    ``conflict_scale`` so its gradients dominate naive joint sums. conflict=0
    merely decouples it.
    """

    k: int = 3
    input_dim: int = 8
    hidden: int = 8
    conflict: float = 1.0
    conflict_scale: float = 4.0
    nuisance: float = 0.8
    noise: float = 0.1
    n_train: int = 512
    n_eval: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise BenchmarkError("need at least 2 tasks")
        if not 0.0 <= self.conflict <= 1.0:
            raise BenchmarkError(f"conflict must be in [0,1], got {self.conflict}")
        if self.noise < 0 or self.nuisance < 0 or self.conflict_scale <= 0:
            raise BenchmarkError("noise and nuisance must be >= 0, conflict_scale > 0")
        if self.n_train < 1 or self.n_eval < 1:
            raise BenchmarkError("sample counts must be positive")


@dataclass
class TabularDataset:
    train_x: np.ndarray
    train_targets: dict[int, np.ndarray]
    eval_x: np.ndarray
    eval_targets: dict[int, np.ndarray]

    def stream(self, batch_size: int, iters: int, seed: int):
        """Deterministic minibatch stream (sampling with replacement).

        A batch size at or above the dataset size switches to full-batch
        iterations with no resampling.
        """
        rng = np.random.default_rng([seed, 0])
        n = self.train_x.shape[0]
        for it in range(1, iters + 1):
            if batch_size >= n:
                yield Batch(inputs=self.train_x, targets=dict(self.train_targets),
                            sample_id=it)
                continue
            rows = rng.integers(0, n, size=batch_size)
            yield Batch(inputs=self.train_x[rows],
                        targets={tid: t[rows] for tid, t in self.train_targets.items()},
                        sample_id=it)

    def eval_batch(self) -> Batch:
        return Batch(inputs=self.eval_x, targets=dict(self.eval_targets), sample_id=-1)


def gen_regression_suite(spec: RegressionSuiteSpec) -> tuple[TabularDataset, TaskSuite]:
    rng = np.random.default_rng([spec.seed, 1])
    n = spec.n_train + spec.n_eval
    x = rng.standard_normal((n, spec.input_dim))

    def draw_latent() -> np.ndarray:
        w = rng.standard_normal((spec.input_dim, spec.hidden)) / np.sqrt(spec.input_dim)
        v = rng.standard_normal(spec.hidden)
        v /= np.linalg.norm(v)
        return np.tanh(x @ w) @ v

    latent, other, nuis = draw_latent(), draw_latent(), draw_latent()
    targets: dict[int, np.ndarray] = {}
    for idx, tid in enumerate(range(1, spec.k)):
        sign = 1.0 if idx % 2 == 0 else -1.0
        y = latent + sign * spec.nuisance * nuis + spec.noise * rng.standard_normal(n)
        targets[tid] = y.reshape(-1, 1)
    y = (spec.conflict_scale * (other - spec.conflict * latent)
         + spec.noise * rng.standard_normal(n))
    targets[spec.k] = y.reshape(-1, 1)
    ds = TabularDataset(
        train_x=x[:spec.n_train],
        train_targets={tid: t[:spec.n_train] for tid, t in targets.items()},
        eval_x=x[spec.n_train:],
        eval_targets={tid: t[spec.n_train:] for tid, t in targets.items()},
    )
    return ds, TaskSuite(spec.k)


def triad_spec(seed: int = 0) -> RegressionSuiteSpec:
    """Preset: two aligned tasks plus one conflicting, amplitude-heavy task
    (the spec defaults)."""
    return RegressionSuiteSpec(seed=seed)


# -- CSV ingestion ------------------------------------------------------------
#
# Format: one header row, comma separated, UTF-8, '.' decimal separator,
# no quoting of numeric fields.


def load_csv_dataset(path, input_cols: list[str],
                     target_cols: dict[int, list[str]]) -> tuple[TabularDataset, TaskSuite]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
    except UnicodeDecodeError as e:
        raise BenchmarkError(f"{path}: not UTF-8 text (byte {e.start})") from None
    if not lines:
        raise BenchmarkError(f"{path}: empty file")
    header = lines[0]
    index = {name: i for i, name in enumerate(header)}
    needed = list(input_cols) + [c for cols in target_cols.values() for c in cols]
    for name in needed:
        if name not in index:
            raise BenchmarkError(f"{path}: missing column '{name}' (header: {header})")
        if header.count(name) > 1:
            raise BenchmarkError(f"{path}: column '{name}' appears {header.count(name)} times in the header")
    rows = []
    for rnum, row in enumerate(lines[1:], start=2):
        parsed = {}
        for name in needed:
            cell = row[index[name]] if index[name] < len(row) else ""
            try:
                parsed[name] = float(cell)
            except ValueError:
                raise BenchmarkError(
                    f"{path}: row {rnum}, column '{name}': not numeric ({cell!r})") from None
            if not math.isfinite(parsed[name]):
                raise BenchmarkError(f"{path}: row {rnum}, column '{name}': not finite ({cell!r})")
        rows.append(parsed)
    if not rows:
        raise BenchmarkError(f"{path}: no data rows")
    x = np.array([[r[c] for c in input_cols] for r in rows])
    targets = {tid: np.array([[r[c] for c in cols] for r in rows])
               for tid, cols in target_cols.items()}
    ds = TabularDataset(train_x=x, train_targets=targets, eval_x=x, eval_targets=targets)
    return ds, TaskSuite(len(target_cols))
