import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtopt.config import (KNOWN_KEYS, ConfigError, ExperimentConfig, echo_dict, echo_keys,
                          parse_kv_text, validate_config)

KEYS = st.sampled_from(sorted(KNOWN_KEYS) + [f"csv.targets.{tid}" for tid in range(-1, 5)])
VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(-2.0, 2.0).map(str),
    st.sampled_from(["SELECTIVE", "JOINT", "SEPARATE", "FIXED", "RANDOM", "SINGLE", "FORWARD",
                     "adam", "cliques", "relu", "quadratic", "regression", "csv", "triad",
                     "true", "no", "1,2|3", "1,2", "2,1,1", "1,1", "1e9", "x,y", ""]),
    st.sampled_from(["inf", "-inf", "nan", "1e999", "0.5,inf", "nan,1"]),
    st.text(max_size=12),
)
JUNK = st.one_of(st.just(""), st.text(max_size=20),
                 st.tuples(st.text(max_size=8), VALUES).map(" = ".join))


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(KEYS, VALUES, max_size=8), JUNK)
@example({"eta": "inf"}, "")
@example({"weights": "1,nan,1"}, "")
@example({"fixed.partition": "1,1|2"}, "")
@example({"csv.targets.1": ","}, "")
def test_parse_then_validate_returns_a_config_or_raises_config_error(pairs, junk):
    text = "\n".join([f"{key} = {value}" for key, value in pairs.items()] + [junk])
    try:
        cfg = validate_config(parse_kv_text(text))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    floats = [cfg.eta, cfg.beta, *(cfg.weights or {}).values(),
              *(v for section in (cfg.quadratic, cfg.regression) for v in section.values()
                if isinstance(v, float))]
    assert all(math.isfinite(v) for v in floats), floats
    if cfg.fixed_partition is not None:
        tasks = [t for group in cfg.fixed_partition.groups for t in group]
        assert len(tasks) == len(set(tasks)), tasks
    assert all(cfg.csv_targets.values()), cfg.csv_targets
    assert echo_keys(echo_dict(cfg)) == cfg.raw  # what config.json echoes reads back


CSV = "benchmark.kind = csv\ncsv.path = data.csv\n"


@pytest.mark.parametrize("text, message", [
    ("method = FIXED\n", "field 'fixed.partition': required for method FIXED"),
    ("method = RANDOM\n", "field 'random.groups': required for method RANDOM"),
    ("benchmark.kind = csv\n", "field 'csv.path': required for csv benchmarks"),
    (CSV, "field 'csv.inputs': required for csv benchmarks"),
    (CSV + "csv.inputs = x\n", "field 'csv.targets.<task>': at least 2 tasks required, got 0"),
    (CSV + "csv.inputs = x\ncsv.targets.1 = y\n",
     "field 'csv.targets.<task>': at least 2 tasks required, got 1"),
    (CSV + "csv.inputs = x\ncsv.targets.2 = y\n",
     "field 'csv.targets': task ids must be contiguous from 1, got [2]"),
    (CSV + "csv.inputs = x\ncsv.targets.1 = y1\ncsv.targets.2 = y2\ncsv.targets.01 = y3\n",
     "fields 'csv.targets.1' and 'csv.targets.01' both name task 1"),
], ids=["fixed", "random", "csv-path", "csv-inputs", "csv-targets", "csv-one-target",
        "csv-target-ids", "csv-target-twice"])
def test_a_missing_required_key_is_named(text, message):
    with pytest.raises(ConfigError) as info:
        validate_config(parse_kv_text(text))
    assert str(info.value) == message
