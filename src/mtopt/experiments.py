"""Wire a validated configuration into models, data streams, and training runs.

The SINGLE method is the per-task baseline used by the performance metric:
for every task a fresh copy of the same architecture (same init seed) is
trained with all other loss weights masked to zero, which reduces exactly to
training that task alone. The task keeps its own weight (1.0 when the config
sets no weights).
"""

from __future__ import annotations

from dataclasses import dataclass

from .benchmarks import BenchmarkError, gen_quadratic_suite, gen_regression_suite, load_csv_dataset
from .config import METHOD_SINGLE, ConfigError, ExperimentConfig, generator_spec, task_count
from .models import Batch, build_shared_trunk
from .optim import METHOD_JOINT, NumericAbort, RunLog, TrainConfig, train
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
        try:
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


def _train(cfg: ExperimentConfig, setup, method: str, weights) -> RunLog:
    make_model, batches, eval_batch = setup
    model = make_model()
    tc = TrainConfig(method=method, eta=cfg.eta, beta=cfg.beta, iters=cfg.iters,
                     optimizer=cfg.optimizer, seed=cfg.seed, order_mode=cfg.order,
                     weights=weights, fixed_partition=cfg.fixed_partition,
                     random_groups=cfg.random_groups,
                     repartition_stride=cfg.repartition_stride,
                     grouping_rule=cfg.grouping_rule, track_affinity=cfg.track_affinity)
    log = train(model, batches(cfg.iters), tc)
    try:
        log.eval_losses = (dict(log.final_losses) if eval_batch is None
                           else model.forward_all(eval_batch))
    except NonFiniteValue as e:
        raise NumericAbort.after(log, f"eval {e}") from e
    return log


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    setup = _setup(cfg)
    k = task_count(cfg)
    if cfg.method != METHOD_SINGLE:
        log = _train(cfg, setup, cfg.method, cfg.weights)
        return RunResult(cfg.method, cfg.seed, k, {"main": log},
                         log.final_losses, log.eval_losses)
    own = cfg.weights or {t: 1.0 for t in range(1, k + 1)}
    logs = {tid: _train(cfg, setup, METHOD_JOINT,
                        {t: (own[t] if t == tid else 0.0) for t in range(1, k + 1)})
            for tid in range(1, k + 1)}
    return RunResult(METHOD_SINGLE, cfg.seed, k,
                     {f"task{tid}": log for tid, log in logs.items()},
                     {tid: log.final_losses[tid] for tid, log in logs.items()},
                     {tid: log.eval_losses[tid] for tid, log in logs.items()})
