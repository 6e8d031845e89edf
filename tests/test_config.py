import pytest

from edgeoffload.config import (
    default_config_text,
    offload_config,
    parse_kv_text,
    read_kv_file,
    split_scenario,
    train_config,
)
from edgeoffload.errors import ConfigError
from edgeoffload.model import DEFAULT_RANGES


def test_parse_kv_basics():
    kv = parse_kv_text("a = 1\n# comment\nb.min = 2  # trailing\n\nc=x\n")
    assert kv == {"a": "1", "b.min": "2", "c": "x"}


def test_parse_kv_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_kv_text("just words\n")
    with pytest.raises(ConfigError):
        parse_kv_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_kv_text("= 1\n")


def test_read_kv_file_missing(tmp_path):
    with pytest.raises(ConfigError):
        read_kv_file(tmp_path / "nope.cfg")


def test_shipped_defaults_parse():
    assert parse_kv_text(default_config_text("split"))
    with pytest.raises(ConfigError):
        default_config_text("bogus")


def test_offload_config_defaults_and_overrides():
    n, ranges = offload_config({})
    assert n == 2
    n, ranges = offload_config({"n_vehicles": "5", "tx_power": "7"})
    assert n == 5
    assert ranges["tx_power"] == (7.0, 7.0)
    _, ranges = offload_config({"gain.min": "1e-6", "gain.max": "1e-5"})
    assert ranges["gain"] == (1e-6, 1e-5)


def test_offload_config_rejects_a_bare_key_next_to_its_bounds():
    with pytest.raises(ConfigError, match="tx_power"):
        offload_config({"tx_power": "5", "tx_power.min": "1", "tx_power.max": "10"})
    with pytest.raises(ConfigError, match="tx_power"):
        offload_config({"tx_power": "5", "tx_power.max": "10"})


def test_offload_config_fills_a_missing_bound_from_the_defaults():
    _, ranges = offload_config({"gain.min": "1e-6"})
    assert ranges["gain"] == (1e-6, DEFAULT_RANGES["gain"][1])
    _, ranges = offload_config({"local_freq.max": "2e9"})
    assert ranges["local_freq"] == (DEFAULT_RANGES["local_freq"][0], 2e9)
    with pytest.raises(ConfigError, match="gain"):  # inverted against the default max
        offload_config({"gain.min": "1e-3"})


def test_offload_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        offload_config({"warp_factor": "9"})


def test_train_config_chi_alias():
    cfg = train_config({"chi_l": "0.5"})
    assert cfg.chi_r == 0.5
    with pytest.raises(ConfigError):
        train_config({"chi_l": "0.5", "chi_r": "0.5"})


def test_train_config_hidden_sizes():
    cfg = train_config({"hidden_sizes": "8,4"})
    assert cfg.hidden_sizes == (8, 4)
    with pytest.raises(ConfigError):
        train_config({"hidden_sizes": "8,big"})


@pytest.mark.parametrize("value", [",", " , ,"])
def test_train_config_refuses_hidden_sizes_with_no_entry(value):
    with pytest.raises(ConfigError, match="needs at least one entry"):
        train_config({"hidden_sizes": value})


def test_train_config_rejects_negative_seed():
    assert train_config({"seed": "0"}).seed == 0
    with pytest.raises(ConfigError, match="seed"):
        train_config({"seed": "-1"})
    with pytest.raises(ConfigError, match="seed"):
        train_config({}, seed=-1)


@pytest.mark.parametrize("key, value", [
    ("hidden_sizes", "0"), ("hidden_sizes", "-3"), ("hidden_sizes", "8,0"),
    ("learning_rate", "-1"), ("learning_rate", "0"), ("learning_rate", "nan"),
    ("adam_beta1", "1"), ("adam_beta1", "-0.1"), ("adam_beta2", "1.5"), ("adam_beta2", "nan"),
    ("adam_epsilon", "0"), ("adam_epsilon", "-1e-8"),
    ("chi_c", "nan"), ("chi_c", "inf"), ("chi_r", "nan"), ("chi_r", "inf"),
    ("learning_rate", "inf"), ("adam_epsilon", "nan"), ("adam_epsilon", "inf"),
])
def test_train_config_rejects_values_that_cannot_train(key, value):
    with pytest.raises(ConfigError, match=key):
        train_config({key: value})


def test_train_config_accepts_the_edges_of_its_bounds():
    cfg = train_config({"hidden_sizes": "1", "adam_beta1": "0", "adam_beta2": "0.9999"})
    assert (cfg.hidden_sizes, cfg.adam_beta1, cfg.adam_beta2) == ((1,), 0.0, 0.9999)


def test_train_config_overrides_win():
    cfg = train_config({"epochs": "100"}, epochs=7)
    assert cfg.epochs == 7


def test_split_scenario_defaults():
    sc, eta_step = split_scenario(None)
    assert sc.profile.n_layers == 6
    assert sc.split_index == 2
    assert eta_step == 0.05


def test_split_scenario_rejects_bad_eta_step():
    kv = parse_kv_text(default_config_text("split"))
    kv["eta_step"] = "0"
    with pytest.raises(ConfigError):
        split_scenario(kv)


# 0.3 ends its grid at 0.8999999999999999; 0.15 takes 7 steps, the last one short
@pytest.mark.parametrize("step", ["0.3", "0.4", "0.7", "0.15"])
def test_split_scenario_rejects_an_eta_step_whose_grid_misses_one(step):
    with pytest.raises(ConfigError, match="equal steps"):
        split_scenario({"eta_step": step})


@pytest.mark.parametrize("step", ["0.05", "0.1", "0.2", "0.25", "0.125", "0.01"])
def test_split_scenario_accepts_an_eta_step_that_divides_one(step):
    assert split_scenario({"eta_step": step})[1] == float(step)


def test_split_scenario_overlays_the_shipped_scenario():
    sc, _ = split_scenario({"miss_penalty": "3.5"})
    assert sc.acc.miss_penalty == 3.5
    assert sc.profile.n_layers == 6
    sc, _ = split_scenario({"n_layers": "2", "split_index": "1"})
    assert sc.profile.n_layers == 2
    # layer keys go up to n_layers only
    with pytest.raises(ConfigError, match="layer3"):
        split_scenario({"n_layers": "2", "split_index": "1", "layer3.cycles": "1e6"})
    with pytest.raises(ConfigError, match="layerfoo"):
        split_scenario({"layerfoo": "1"})


def test_split_scenario_needs_the_keys_of_every_added_layer():
    with pytest.raises(ConfigError, match="missing config key 'layer7.cycles'"):
        split_scenario({"n_layers": "7"})
    with pytest.raises(ConfigError, match="missing config key 'layer7.bytes'"):
        split_scenario({"n_layers": "7", "layer7.cycles": "1e6"})
