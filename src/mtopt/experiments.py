"""Wire a validated configuration into models, data streams, and training runs.

The SINGLE method is the per-task baseline used by the performance metric:
for every task a fresh copy of the same architecture (same init seed) is
trained with all other loss weights masked to zero, which reduces exactly to
training that task alone. The task keeps its own weight (1.0 when the config
sets no weights). Its trainings run in sorted label order (``task1, task10,
task11, task2, ...``), the order a run directory lists them in, so a writer
that appends each iteration as it finishes writes them in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .benchmarks import BenchmarkError, gen_quadratic_suite, gen_regression_suite, load_csv_dataset
from .config import METHOD_SINGLE, ConfigError, ExperimentConfig, generator_spec, task_count
from .models import Batch, build_shared_trunk
from .optim import METHOD_JOINT, NumericAbort, RunLog, Sink, TrainConfig, train
from .tensor import NonFiniteValue


@dataclass
class RunResult:
    method: str
    seed: int
    k: int
    logs: dict[str, RunLog]
    final_losses: dict[int, float]
    eval_losses: dict[int, float]


def _setup(cfg: ExperimentConfig):
    """(model factory, batch-stream factory, eval batch); the data-free
    quadratic benchmark has no eval batch and trains one model."""
    if cfg.benchmark_kind == "quadratic":
        try:  # the spec is checked; a draw can still fail, e.g. on a degenerate target
            model = gen_quadratic_suite(generator_spec(cfg))[0]
        except BenchmarkError as e:
            raise ConfigError(f"quadratic benchmark: {e}") from None

        def batches(iters):
            for it in range(1, iters + 1):
                yield Batch(inputs=None, targets={}, sample_id=it)

        return (lambda: model), batches, None

    if cfg.benchmark_kind == "regression":
        dataset, suite = gen_regression_suite(generator_spec(cfg))
    else:
        try:
            dataset, suite = load_csv_dataset(cfg.csv_path, cfg.csv_inputs, cfg.csv_targets)
        except (OSError, BenchmarkError) as e:
            raise ConfigError(f"field 'csv.path': {e}") from None

    def make_model():
        return build_shared_trunk(cfg.model_width, cfg.model_depth, suite,
                                  seed=[cfg.seed, 2], in_dim=dataset.train_x.shape[1],
                                  out_dims={tid: dataset.train_targets[tid].shape[1]
                                            for tid in suite.ids},
                                  activation=cfg.model_activation)

    def batches(iters):
        return dataset.stream(cfg.batch_size, iters, cfg.seed)

    return make_model, batches, dataset.eval_batch()


def _train(cfg: ExperimentConfig, setup, method: str, weights, sink: Sink | None) -> RunLog:
    make_model, batches, eval_batch = setup
    model = make_model()
    tc = TrainConfig(method=method, eta=cfg.eta, beta=cfg.beta, iters=cfg.iters,
                     optimizer=cfg.optimizer, seed=cfg.seed, order_mode=cfg.order,
                     weights=weights, fixed_partition=cfg.fixed_partition,
                     random_groups=cfg.random_groups,
                     repartition_stride=cfg.repartition_stride,
                     grouping_rule=cfg.grouping_rule, track_affinity=cfg.track_affinity)
    log = train(model, batches(cfg.iters), tc, sink)
    try:
        log.eval_losses = (dict(log.final_losses) if eval_batch is None
                           else model.forward_all(eval_batch))
    except NonFiniteValue as e:
        raise NumericAbort.after(log, f"eval {e}") from e
    return log


def run_experiment(cfg: ExperimentConfig, sinks: Callable[[str], Sink]) -> RunResult:
    """Set up and train every run of ``cfg``, one log per label.

    ``sinks(label)`` gives the sink of the run with that label; it is called
    after set-up has succeeded, just before that run trains.
    """
    setup = _setup(cfg)
    k = task_count(cfg)

    def run(label, method, weights):
        return _train(cfg, setup, method, weights, sinks(label))

    if cfg.method != METHOD_SINGLE:
        log = run("main", cfg.method, cfg.weights)
        return RunResult(cfg.method, cfg.seed, k, {"main": log},
                         log.final_losses, log.eval_losses)
    own = cfg.weights or {t: 1.0 for t in range(1, k + 1)}
    logs = {tid: run(f"task{tid}", METHOD_JOINT,
                     {t: (own[t] if t == tid else 0.0) for t in range(1, k + 1)})
            for tid in sorted(range(1, k + 1), key=lambda t: f"task{t}")}
    return RunResult(METHOD_SINGLE, cfg.seed, k,
                     {f"task{tid}": log for tid, log in logs.items()},
                     {tid: log.final_losses[tid] for tid, log in logs.items()},
                     {tid: log.eval_losses[tid] for tid, log in logs.items()})
