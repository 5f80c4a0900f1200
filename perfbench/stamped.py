"""Train a cell through ``mtopt``'s public functions with a stamped batch stream.

The stream records a ``perf_counter`` stamp each time the training loop asks
for the next batch, so the gap between two stamps is one training iteration
as the loop sees it. Nothing in ``mtopt`` is wrapped: the stamps come from
the input the loop is given. Set-up is timed from config parsing to the
first pull; extra set-ups stop at that pull by raising out of the stream.

Every ``probe_every`` pulls, and at the first and the last, the stream
times the host-state probe (``hoststate.py``). That time is taken off the
stamps. Each interval carries the lower of the probe readings around it,
and a set-up the lower of those just before it and at the first pull;
``measure.py`` keeps and scales samples by them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from hoststate import probe_ms
from mtopt.benchmarks import (QuadraticSpec, RegressionSuiteSpec, gen_quadratic_suite,
                              gen_regression_suite, triad_spec)
from mtopt.config import parse_kv_text, validate_config
from mtopt.models import Batch, build_shared_trunk
from mtopt.optim import TrainConfig, train


class _SetupDone(Exception):
    """Raised by the stream at its first pull to end a set-up-only pass."""


@dataclass
class Training:
    """One call of ``train``: what the output checks need from it."""
    eval_task: int | None          # SINGLE trains one task per call
    initial_params: dict
    first_batch: object
    model: object


@dataclass
class CellPass:
    setup_s: float = 0.0
    setup_probe_ms: float = 0.0    # the lower probe reading around the set-up
    intervals_ms: list[float] = field(default_factory=list)
    intervals_probe_ms: list[float] = field(default_factory=list)  # the same, per interval
    probe_ms: list[float] = field(default_factory=list)
    iterations: int = 0
    trainings: list[Training] = field(default_factory=list)
    dataset: object = None
    cfg: object = None


class _Clock:
    """Stamps of batch pulls with the probe timings (and ``on_first``) taken out."""

    def __init__(self, every: int, start: float = 0.0):
        self.every = every
        self.stamps: list[float] = []
        self.probes: list[tuple[int, float]] = []   # (pull index, probe ms)
        self.paused = start

    def now(self) -> float:
        return perf_counter() - self.paused

    def pause(self, fn):
        t0 = perf_counter()
        out = fn()
        self.paused += perf_counter() - t0
        return out

    def pull(self):
        self.stamps.append(self.now())
        if (len(self.stamps) - 1) % self.every == 0:
            self._probe()

    def end(self):
        """Probe after the last pull, unless that pull already did."""
        if self.probes[-1][0] != len(self.stamps) - 1:
            self._probe()

    def _probe(self):
        self.probes.append((len(self.stamps) - 1, self.pause(probe_ms)))

    def intervals(self) -> tuple[list[float], list[float]]:
        """Interval times in ms, and the lower of the probe readings around each."""
        times, probes = [], []
        for (i, pi), (j, pj) in zip(self.probes, self.probes[1:]):
            times.extend(1e3 * (b - a) for a, b in zip(self.stamps[i:j], self.stamps[i + 1:j + 1]))
            probes.extend([min(pi, pj)] * (j - i))
        return times, probes


def _stamped(stream, clock: _Clock, on_first, abort: bool):
    """Yield the stream's batches, stamping each pull; ``on_first`` sees batch 1
    after the first stamp, before the loop trains on it."""
    it = iter(stream)
    while True:
        clock.pull()
        if abort:
            raise _SetupDone
        try:
            batch = next(it)
        except StopIteration:
            return
        if len(clock.stamps) == 1:
            clock.pause(lambda: on_first(batch))
        yield batch


def _quadratic_batches(iters: int):
    for it in range(1, iters + 1):
        yield Batch(inputs=None, targets={}, sample_id=it)


def _suite(cfg):
    if cfg.benchmark_kind == "quadratic":
        q = cfg.quadratic
        model, _ = gen_quadratic_suite(QuadraticSpec(
            k=q["k"], shared_dim=q["shared_dim"], task_dim=q["task_dim"], rows=q["rows"],
            rho=q["rho"], seed=cfg.seed if q["seed"] is None else q["seed"]))
        return None, model
    r = cfg.regression
    seed = cfg.seed if r["seed"] is None else r["seed"]
    if r["preset"] == "triad":
        spec = triad_spec(seed=seed)
    else:
        spec = RegressionSuiteSpec(k=r["k"], input_dim=r["input_dim"], hidden=r["hidden"],
                                   conflict=r["conflict"], conflict_scale=r["conflict_scale"],
                                   nuisance=r["nuisance"], noise=r["noise"],
                                   n_train=r["train"], n_eval=r["eval"], seed=seed)
    return gen_regression_suite(spec)


def _model(cfg, dataset, suite):
    return build_shared_trunk(cfg.model_width, cfg.model_depth, suite, seed=[cfg.seed, 2],
                              in_dim=dataset.train_x.shape[1],
                              out_dims={tid: dataset.train_targets[tid].shape[1]
                                        for tid in suite.ids},
                              activation=cfg.model_activation)


def _train_config(cfg, method, weights):
    return TrainConfig(method=method, eta=cfg.eta, beta=cfg.beta, iters=cfg.iters,
                       optimizer=cfg.optimizer, seed=cfg.seed, order_mode=cfg.order,
                       weights=weights, fixed_partition=cfg.fixed_partition,
                       random_groups=cfg.random_groups,
                       repartition_stride=cfg.repartition_stride,
                       grouping_rule=cfg.grouping_rule, track_affinity=cfg.track_affinity)


def run_cell(config_text: str, probe_every: int, setup_only: bool = False) -> CellPass:
    """Set up and train one cell as ``mtopt run`` would, stamping each batch pull."""
    out = CellPass()
    before = probe_ms()
    t0 = perf_counter()
    cfg = validate_config(parse_kv_text(config_text))
    out.cfg = cfg
    if cfg.benchmark_kind == "quadratic":
        dataset, model = _suite(cfg)
        plan = [(cfg.method, cfg.weights, None, lambda: model)]
    else:
        dataset, suite = _suite(cfg)
        if cfg.method == "SINGLE":
            plan = [("JOINT", {t: (1.0 if t == tid else 0.0) for t in suite.ids}, tid,
                     lambda: _model(cfg, dataset, suite)) for tid in suite.ids]
        else:
            plan = [(cfg.method, cfg.weights, None, lambda: _model(cfg, dataset, suite))]
    out.dataset = dataset
    for method, weights, eval_task, make in plan:
        model = make()
        stream = (_quadratic_batches(cfg.iters) if dataset is None
                  else dataset.stream(cfg.batch_size, cfg.iters, cfg.seed))
        # On the first training the clock counts from t0, so its first stamp is the set-up time.
        clock = _Clock(probe_every, start=0.0 if out.trainings else t0)
        tr = Training(eval_task, {}, None, model)

        def on_first(batch, tr=tr, model=model):
            tr.first_batch = batch
            tr.initial_params = {name: model.partition.block(name).copy()
                                 for name in model.partition.block_ids(model.suite.ids)}

        try:
            train(model, _stamped(stream, clock, on_first, setup_only),
                  _train_config(cfg, method, weights))
            clock.end()  # train pulls exactly cfg.iters batches, so the stream never ends itself
        except _SetupDone:
            pass
        if not out.trainings:
            out.setup_s = clock.stamps[0]
            out.setup_probe_ms = min(before, clock.probes[0][1])
        if setup_only:
            return out
        times, probes = clock.intervals()
        out.intervals_ms.extend(times)
        out.intervals_probe_ms.extend(probes)
        out.probe_ms.extend(p for _, p in clock.probes)
        out.iterations += cfg.iters
        out.trainings.append(tr)
    return out
