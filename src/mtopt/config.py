"""Experiment configuration: flat key=value text with dotted namespaces.

Strict by construction — unknown keys are rejected, every value is validated
before any compute, and the parsed result echoes back as nested JSON so a
run directory always carries its exact inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .benchmarks import BenchmarkError, QuadraticSpec, RegressionSuiteSpec
from .grouping import GROUPING_RULES, ORDERS, GroupPartition, parse_groups
from .models import ACTIVATIONS
from .optim import METHOD_FIXED, METHOD_RANDOM, METHODS, OPTIMIZERS, TrainConfig

METHOD_SINGLE = "SINGLE"  # per-task baselines trained independently

ALL_METHODS = METHODS + (METHOD_SINGLE,)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    # training fields: the TrainConfig defaults
    method: str = TrainConfig.method
    order: str = TrainConfig.order_mode
    eta: float = TrainConfig.eta
    beta: float = TrainConfig.beta
    iters: int = TrainConfig.iters
    optimizer: str = TrainConfig.optimizer
    seed: int = TrainConfig.seed
    weights: dict[int, float] | None = None
    fixed_partition: GroupPartition | None = None
    random_groups: int | None = None
    repartition_stride: int = TrainConfig.repartition_stride
    grouping_rule: str = TrainConfig.grouping_rule
    track_affinity: bool | None = None
    benchmark_kind: str = "regression"
    quadratic: dict = field(default_factory=dict)
    regression: dict = field(default_factory=dict)
    csv_path: str | None = None
    csv_inputs: list[str] = field(default_factory=list)
    csv_targets: dict[int, list[str]] = field(default_factory=dict)
    model_width: int = 16
    model_depth: int = 2
    model_activation: str = ACTIVATIONS[0]
    batch_size: int = 32
    verbosity: int = 1
    raw: dict[str, str] = field(default_factory=dict)


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line.strip()!r}")
        key, value = body.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        out[key] = value
    return out


def read_kv_file(path) -> dict[str, str]:
    """:func:`parse_kv_text` of a UTF-8 file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_kv_text(fh.read())
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text (byte {e.start})") from None


def _want(raw, key, conv, default=None, check=None, describe=""):
    if key not in raw:
        return default
    try:
        value = conv(raw[key])
    except (ValueError, TypeError):
        raise ConfigError(f"field '{key}': cannot parse {raw[key]!r} ({describe})") from None
    if check is not None and not check(value):
        raise ConfigError(f"field '{key}': invalid value {raw[key]!r} ({describe})")
    return value


def _float(text: str) -> float:
    """A finite float: infinities and NaN are refused where they are parsed."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _bool(text: str) -> bool:
    t = text.lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(text)


# key: (ExperimentConfig attribute, parser, check, description);
# the defaults are the ExperimentConfig field defaults
SCALAR_KEYS = {
    "method": ("method", str, lambda v: v in ALL_METHODS,
               "optimization method: " + "|".join(ALL_METHODS)),
    "order": ("order", str, lambda v: v in ORDERS, "group update order: " + "|".join(ORDERS)),
    "eta": ("eta", _float, lambda v: v > 0, "learning rate (> 0)"),
    "beta": ("beta", _float, lambda v: 0 < v < 1, "affinity decay rate in (0,1)"),
    "iters": ("iters", int, lambda v: v >= 1, "training iterations (>= 1)"),
    "optimizer": ("optimizer", str, lambda v: v in OPTIMIZERS, "|".join(OPTIMIZERS)),
    "seed": ("seed", int, lambda v: v >= 0, "base random seed (>= 0)"),
    "random.groups": ("random_groups", int, lambda v: v >= 1, "group count for RANDOM"),
    "repartition.stride": ("repartition_stride", int, lambda v: v >= 1,
                           "iterations between repartitions (>= 1)"),
    "grouping.rule": ("grouping_rule", str, lambda v: v in GROUPING_RULES,
                      "|".join(GROUPING_RULES)),
    "track.affinity": ("track_affinity", _bool, None, "true|false, force affinity tracking on/off"),
    "benchmark.kind": ("benchmark_kind", str, lambda v: v in ("quadratic", "regression", "csv"),
                       "quadratic|regression|csv"),
    "model.width": ("model_width", int, lambda v: v >= 1, "trunk width"),
    "model.depth": ("model_depth", int, lambda v: v >= 1, "trunk depth"),
    "model.activation": ("model_activation", str, lambda v: v in ACTIVATIONS,
                         "|".join(ACTIVATIONS)),
    "batch.size": ("batch_size", int, lambda v: v >= 1, "minibatch size"),
    "log.verbosity": ("verbosity", int, lambda v: v in (0, 1), "0 (quiet) or 1"),
}
# section: (generator spec, {key: (spec field, parser, check, description)});
# the defaults are the spec defaults
SECTIONS = {
    "quadratic": (QuadraticSpec, {
        "k": ("k", int, lambda v: v >= 2, "task count"),
        "shared_dim": ("shared_dim", int, lambda v: v >= 1, "shared parameter dimension"),
        "task_dim": ("task_dim", int, lambda v: v >= 0, "per-task parameter dimension"),
        "rows": ("rows", int, lambda v: v >= 1, "residual rows"),
        "rho": ("rho", _float, lambda v: -1 <= v <= 1, "pairwise target alignment in [-1,1]"),
    }),
    "regression": (RegressionSuiteSpec, {
        "k": ("k", int, lambda v: v >= 2, "task count"),
        "input_dim": ("input_dim", int, lambda v: v >= 1, "input dimension"),
        "hidden": ("hidden", int, lambda v: v >= 1, "ground-truth latent width"),
        "conflict": ("conflict", _float, lambda v: 0 <= v <= 1, "conflict knob in [0,1]"),
        "conflict_scale": ("conflict_scale", _float, lambda v: v > 0,
                           "conflict task target amplitude (> 0)"),
        "nuisance": ("nuisance", _float, lambda v: v >= 0,
                     "opposed nuisance amplitude in the aligned cluster"),
        "noise": ("noise", _float, lambda v: v >= 0, "target noise level"),
        "train": ("n_train", int, lambda v: v >= 1, "training sample count"),
        "eval": ("n_eval", int, lambda v: v >= 1, "evaluation sample count"),
    }),
}
KNOWN_KEYS = {
    **{key: entry[-1] for key, entry in SCALAR_KEYS.items()},
    **{f"{name}.{key}": entry[-1]
       for name, (_, keys) in SECTIONS.items() for key, entry in keys.items()},
    "weights": "comma-separated task loss weights",
    "fixed.partition": "partition for FIXED, e.g. 1,2|3",
    "quadratic.seed": "generator seed >= 0 (defaults to seed)",
    "regression.seed": "generator seed >= 0 (defaults to seed)",
    "regression.preset": "named preset: triad (the regression defaults)",
    "csv.path": "dataset file",
    "csv.inputs": "comma-separated input columns",
}
# csv.targets.<task id> carries that task's target columns; validated separately.
LIST_KEYS = ("weights", "fixed.partition", "csv.inputs")  # and every csv.targets.<task id>


def _section(raw, name: str) -> dict:
    spec_type, keys = SECTIONS[name]
    defaults = spec_type()
    out = {key: _want(raw, f"{name}.{key}", conv, getattr(defaults, attr), check, describe)
           for key, (attr, conv, check, describe) in keys.items()}
    out["seed"] = _want(raw, f"{name}.seed", int, None, lambda v: v >= 0,
                        KNOWN_KEYS[f"{name}.seed"])
    return out


def generator_spec(cfg: ExperimentConfig) -> QuadraticSpec | RegressionSuiteSpec:
    """The generator spec of a quadratic or regression benchmark."""
    spec_type, keys = SECTIONS[cfg.benchmark_kind]
    section = getattr(cfg, cfg.benchmark_kind)
    seed = cfg.seed if section["seed"] is None else section["seed"]
    return spec_type(seed=seed, **{entry[0]: section[key] for key, entry in keys.items()})


def task_count(cfg: ExperimentConfig) -> int:
    if cfg.benchmark_kind == "csv":
        return len(cfg.csv_targets)
    return getattr(cfg, cfg.benchmark_kind)["k"]


def validate_config(raw: dict[str, str]) -> ExperimentConfig:
    for key in raw:
        if key in KNOWN_KEYS or key.startswith("csv.targets."):
            continue
        raise ConfigError(f"unknown config key '{key}'")

    cfg = ExperimentConfig(raw=dict(raw))
    for key, (attr, conv, check, describe) in SCALAR_KEYS.items():
        setattr(cfg, attr, _want(raw, key, conv, getattr(cfg, attr), check, describe))
    if "weights" in raw:
        try:
            values = [_float(x) for x in raw["weights"].split(",")]
        except ValueError:
            raise ConfigError(f"field 'weights': cannot parse {raw['weights']!r}") from None
        if any(w <= 0 for w in values):
            raise ConfigError("field 'weights': weights must be positive")
        cfg.weights = {i + 1: w for i, w in enumerate(values)}
    if "fixed.partition" in raw:
        try:
            cfg.fixed_partition = parse_groups(raw["fixed.partition"])
        except ValueError as e:
            raise ConfigError(f"field 'fixed.partition': {e}") from None
    if cfg.method == METHOD_FIXED and cfg.fixed_partition is None:
        raise ConfigError("field 'fixed.partition': required for method FIXED")
    if cfg.method == METHOD_RANDOM and cfg.random_groups is None:
        raise ConfigError("field 'random.groups': required for method RANDOM")

    cfg.quadratic = _section(raw, "quadratic")
    cfg.regression = _section(raw, "regression")
    cfg.regression["preset"] = _want(raw, "regression.preset", str, None, lambda v: v == "triad",
                                     KNOWN_KEYS["regression.preset"])
    if cfg.regression["preset"]:
        # the triad preset is the spec defaults; only the seed may vary
        for key in sorted(raw):
            if key.startswith("regression.") and key not in ("regression.preset",
                                                             "regression.seed"):
                raise ConfigError(f"field '{key}': not allowed with regression.preset")

    cfg.csv_path = raw.get("csv.path")
    if "csv.inputs" in raw:
        cfg.csv_inputs = [c.strip() for c in raw["csv.inputs"].split(",") if c.strip()]
    target_keys: dict[int, str] = {}
    for key, value in raw.items():
        if key.startswith("csv.targets."):
            tail = key[len("csv.targets."):]
            try:
                tid = int(tail)
            except ValueError:
                raise ConfigError(f"field '{key}': task id '{tail}' is not an integer") from None
            if tid in target_keys:
                raise ConfigError(f"fields '{target_keys[tid]}' and '{key}' both name task {tid}")
            target_keys[tid] = key
            cfg.csv_targets[tid] = [c.strip() for c in value.split(",") if c.strip()]
            if not cfg.csv_targets[tid]:
                raise ConfigError(f"field '{key}': names no column")
    if cfg.benchmark_kind == "csv":
        if not cfg.csv_path:
            raise ConfigError("field 'csv.path': required for csv benchmarks")
        if not cfg.csv_inputs:
            raise ConfigError("field 'csv.inputs': required for csv benchmarks")
        ids = sorted(cfg.csv_targets)
        if ids != list(range(1, len(ids) + 1)):
            raise ConfigError(f"field 'csv.targets': task ids must be contiguous from 1, got {ids}")
        if len(ids) < 2:
            raise ConfigError(f"field 'csv.targets.<task>': at least 2 tasks required, "
                              f"got {len(ids)}")
    else:
        try:
            generator_spec(cfg)
        except BenchmarkError as e:
            raise ConfigError(f"{cfg.benchmark_kind} benchmark: {e}") from None

    k = task_count(cfg)
    if cfg.weights is not None and len(cfg.weights) != k:
        raise ConfigError(f"field 'weights': {len(cfg.weights)} weights for {k} tasks")
    if cfg.fixed_partition is not None and cfg.fixed_partition.k != k:
        raise ConfigError(f"field 'fixed.partition': covers {cfg.fixed_partition.k} tasks, "
                          f"the benchmark has {k}")
    if cfg.random_groups is not None and cfg.random_groups > k:
        raise ConfigError(f"field 'random.groups': {cfg.random_groups} groups for {k} tasks")
    if cfg.method == METHOD_SINGLE and cfg.benchmark_kind == "quadratic":
        raise ConfigError("method SINGLE needs a data benchmark (regression or csv)")
    return cfg


def echo_dict(cfg: ExperimentConfig) -> dict:
    """Nested echo of the raw keys (dots become levels), values as typed."""
    nested: dict = {}
    for key, value in sorted(cfg.raw.items()):
        parts = key.split(".")
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return nested


def echo_keys(echo: dict, prefix: str = "") -> dict[str, str]:
    """The raw keys of an :func:`echo_dict`, levels joined by dots again."""
    raw = {}
    for key, value in echo.items():
        raw.update(echo_keys(value, f"{prefix}{key}.") if isinstance(value, dict)
                   else {prefix + key: value})
    return raw
