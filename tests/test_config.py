from hypothesis import given, settings
from hypothesis import strategies as st

from mtopt.config import KNOWN_KEYS, ConfigError, ExperimentConfig, parse_kv_text, validate_config

KEYS = st.sampled_from(sorted(KNOWN_KEYS) + [f"csv.targets.{tid}" for tid in range(-1, 5)])
VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(-2.0, 2.0).map(str),
    st.sampled_from(["SELECTIVE", "JOINT", "SEPARATE", "FIXED", "RANDOM", "SINGLE", "FORWARD",
                     "adam", "cliques", "relu", "quadratic", "regression", "csv", "triad",
                     "true", "no", "1,2|3", "1,2", "2,1,1", "1e9", "nan", "inf", "x,y", ""]),
    st.text(max_size=12),
)
JUNK = st.one_of(st.just(""), st.text(max_size=20),
                 st.tuples(st.text(max_size=8), VALUES).map(" = ".join))


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(KEYS, VALUES, max_size=8), JUNK)
def test_parse_then_validate_returns_a_config_or_raises_config_error(pairs, junk):
    text = "\n".join([f"{key} = {value}" for key, value in pairs.items()] + [junk])
    try:
        cfg = validate_config(parse_kv_text(text))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
