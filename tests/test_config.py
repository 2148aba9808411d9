"""Tests for configuration parsing, presets, and seed stream discipline."""

import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gmop import ConfigError, child_rng, load_config, load_preset, save_config
from gmop.config import PRESET_NAMES, RNG_STREAMS, NetworkConfig
from gmop.errors import InvalidParameterError


def preset_doc(name: str = "S1") -> dict:
    """A mutable JSON document equivalent to the named preset."""
    return load_preset(name).to_dict()


# ---------------------------------------------------------------------------
# presets


def test_preset_names():
    assert PRESET_NAMES == ("S1", "S2", "S3", "S4")
    for name in PRESET_NAMES:
        load_preset(name)


def test_preset_s1_fields():
    cfg = load_preset("S1")
    assert cfg.network.n == 50
    assert cfg.network.k_ws == 3
    assert cfg.network.p_ws == 0.2
    assert cfg.network.hub_node == 1
    assert cfg.network.hub_fraction == 0.5
    assert cfg.network.normalize_in_weights is True
    assert cfg.model.theta == 1.0
    assert cfg.model.sigma_y == 0.1
    assert cfg.model.modes == 2
    assert cfg.model.init_mean_ranges == ((0.0, 1.0), (-1.0, 0.0))
    assert cfg.model.init_variances == (1.0, 1.0)
    assert cfg.model.init_weights == (0.5, 0.5)
    assert cfg.policy.delta_mu == 0.6
    assert cfg.policy.delta_sigma == 0.1
    assert cfg.policy.nu == 0.1
    assert cfg.policy.weight_policy == "identity"
    assert cfg.stubborn is None
    assert cfg.run.horizon == 2000
    assert cfg.run.trailing_window == 1000
    assert cfg.run.gain_mode == "exact"
    assert cfg.run.observation == "shared"


def test_preset_s2_only_noise_differs():
    s1, s2 = load_preset("S1"), load_preset("S2")
    assert s2.model.sigma_y == 1.0
    assert s2.stubborn is None
    assert s2.network == s1.network
    assert s2.policy == s1.policy
    assert (s2.run.horizon, s2.run.trailing_window) == (
        s1.run.horizon,
        s1.run.trailing_window,
    )


def test_preset_s3_adds_stubborn_agent():
    s1, s3 = load_preset("S1"), load_preset("S3")
    assert s3.stubborn is not None
    assert s3.stubborn.node == 1
    assert s3.stubborn.mu_dagger == -1.0
    assert s3.model.sigma_y == s1.model.sigma_y
    assert s3.network == s1.network


def test_preset_s4_combines_noise_and_stubborn():
    s4 = load_preset("S4")
    assert s4.model.sigma_y == 1.0
    assert s4.stubborn is not None
    assert s4.stubborn.mu_dagger == -1.0


def test_presets_share_seeds():
    seeds = {(c.network.seed, c.run.seed) for c in map(load_preset, PRESET_NAMES)}
    assert len(seeds) == 1  # same graph and same draws across settings


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        load_preset("S9")


# ---------------------------------------------------------------------------
# file loading


def test_load_config_accepts_preset_names():
    assert load_config("S1") == load_preset("S1")


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("no_such_file.json")


def test_readme_config_example_is_preset_s1(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Custom configs", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    path = tmp_path / "example.json"
    path.write_text(example)
    assert load_config(path) == load_preset("S1")


def test_config_json_round_trip(tmp_path):
    cfg = load_preset("S3")
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_save_config_bytes_deterministic(tmp_path):
    cfg = load_preset("S2")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_config(cfg, p1)
    save_config(cfg, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    with pytest.raises(ConfigError, match="top-level config must be an object"):
        load_config(path)


def write_doc(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_unknown_keys_rejected_with_path(tmp_path):
    doc = preset_doc()
    doc["network"]["bogus"] = 1
    with pytest.raises(ConfigError, match="network"):
        load_config(write_doc(tmp_path, doc))


def test_missing_section_rejected(tmp_path):
    doc = preset_doc()
    del doc["model"]
    with pytest.raises(ConfigError, match="model"):
        load_config(write_doc(tmp_path, doc))


def test_stubborn_section_optional(tmp_path):
    doc = preset_doc("S3")
    del doc["stubborn"]
    cfg = load_config(write_doc(tmp_path, doc))
    assert cfg.stubborn is None


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda d: d["run"].__setitem__("horizon", 0), "run.horizon"),
        (lambda d: d["run"].__setitem__("horizon", "many"), "run.horizon"),
        (lambda d: d["run"].__setitem__("trailing_window", 5000), "trailing_window"),
        (lambda d: d["run"].__setitem__("gain_mode", "fast"), "run.gain_mode"),
        (lambda d: d["network"].__setitem__("n", 2), "network.n"),
        (lambda d: d["network"].__setitem__("k_ws", 99), "network.k_ws"),
        (lambda d: d["network"].__setitem__("p_ws", 1.5), "network.p_ws"),
        (lambda d: d["network"].__setitem__("hub_fraction", -0.1), "hub_fraction"),
        (lambda d: d["network"].__setitem__("seed", -1), "network.seed"),
        (lambda d: d["network"].__setitem__("normalize_in_weights", "yes"),
         "normalize_in_weights"),
        (lambda d: d["model"].__setitem__("sigma_y", 0.0), "model.sigma_y"),
        (lambda d: d["policy"].__setitem__("delta_mu", 0.0), "policy.delta_mu"),
        (lambda d: d["policy"].__setitem__("nu", -0.5), "policy.nu"),
        (lambda d: d["policy"].__setitem__("weight_policy", "magic"),
         "policy.weight_policy"),
        (lambda d: d["stubborn"].__setitem__("node", 99), "stubborn.node"),
    ],
)
def test_invalid_values_rejected_with_field_path(tmp_path, mutate, path_fragment):
    doc = preset_doc("S3")  # S3 has the stubborn section whose node is checked
    mutate(doc)
    with pytest.raises(ConfigError, match=path_fragment.replace(".", r"\.")):
        load_config(write_doc(tmp_path, doc))


def test_booleans_are_not_numbers(tmp_path):
    doc = preset_doc()
    doc["run"]["horizon"] = True
    with pytest.raises(ConfigError, match="run.horizon"):
        load_config(write_doc(tmp_path, doc))


def test_model_mode_lists_must_align(tmp_path):
    doc = preset_doc()
    doc["model"]["init_variances"] = [1.0]
    with pytest.raises(ConfigError, match="init_variances"):
        load_config(write_doc(tmp_path, doc))
    doc = preset_doc()
    doc["model"]["init_weights"] = [0.3, 0.3]
    with pytest.raises(ConfigError, match="init_weights"):
        load_config(write_doc(tmp_path, doc))


# ---------------------------------------------------------------------------
# seed streams


def test_child_rng_streams_are_reproducible():
    a = child_rng(23, "observations").random(5)
    b = child_rng(23, "observations").random(5)
    np.testing.assert_array_equal(a, b)


def test_child_rng_streams_are_distinct():
    draws = {
        stream: tuple(child_rng(23, stream).random(3)) for stream in RNG_STREAMS
    }
    assert len(set(draws.values())) == len(RNG_STREAMS)


def test_child_rng_rejects_unknown_stream():
    with pytest.raises(ConfigError):
        child_rng(23, "weather")


# ---------------------------------------------------------------------------
# golden bytes and messages


# SHA-256 of save_config's output for each preset (the run's config.json).
PRESET_CONFIG_SHA256 = {
    "S1": "244b0dc7b8500594a0bdb304ba61c7c3a9e8904c5bb9a8e420270a0b4d2d7f0b",
    "S2": "67af9421e30b83f7b867167209f8523b8d548352730f07c713c890f2d1105788",
    "S3": "7f9334ec2fb701e3ac8b74c9ddc16ea1c5cb2c6f02f3584321f00359d13035d5",
    "S4": "b930d6b2c456edf187f8389bac42a2b1ac6c8b38c324aca5884f7f291282c795",
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_config_json_matches_golden_digest(tmp_path, name):
    path = tmp_path / "config.json"
    save_config(load_preset(name), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PRESET_CONFIG_SHA256[name]


DELETE = "<delete>"

# (preset, section or None for the top level, key, new value or DELETE, message)
SINGLE_FAULTS = [
    ("S1", "network", "n", 2, "network.n must be at least 3, got 2"),
    ("S1", "network", "n", 3.0, "network.n must be an integer, got 3.0"),
    ("S1", "network", "k_ws", 99, "network.k_ws must lie in [1, n), got 99"),
    ("S1", "network", "p_ws", 1.5, "network.p_ws must lie in [0, 1], got 1.5"),
    ("S1", "network", "p_ws", float("nan"), "network.p_ws must be finite, got nan"),
    ("S1", "network", "hub_node", 0, "network.hub_node must lie in [1, n], got 0"),
    ("S1", "network", "hub_fraction", -0.1,
     "network.hub_fraction must lie in [0, 1], got -0.1"),
    ("S1", "network", "seed", -1, "network.seed must be >= 0, got -1"),
    ("S1", "network", "normalize_in_weights", "yes",
     "network.normalize_in_weights must be true or false, got 'yes'"),
    ("S1", "network", "bogus", 1, "unknown key 'bogus' at network"),
    ("S1", "network", "seed", DELETE, "missing key 'seed' at network"),
    ("S1", "model", "sigma_y", 0.0, "model.sigma_y must be positive, got 0.0"),
    ("S1", "model", "init_mean_ranges", [],
     "model.init_mean_ranges must list at least one [lo, hi] pair"),
    ("S1", "model", "init_variances", [1.0, 1.0, 1.0],
     "model.init_variances must list one value per mode (2)"),
    ("S1", "model", "init_mean_ranges", [[0.0, 1.0], [1.0, 0.0]],
     "model.init_mean_ranges[1] has hi < lo"),
    ("S1", "model", "init_mean_ranges", [0.0, 1.0],
     "model.init_mean_ranges[0] must be a [lo, hi] pair"),
    ("S1", "model", "init_mean_ranges", [[0.0, "x"], [-1.0, 0.0]],
     "model.init_mean_ranges[0][1] must be a number, got 'x'"),
    ("S1", "model", "init_variances", [1.0, 0.0],
     "model.init_variances[1] must be positive"),
    ("S1", "model", "init_variances", "x",
     "model.init_variances must list one value per mode (2)"),
    ("S1", "model", "init_weights", [0.3, 0.3],
     "model.init_weights must sum to 1, got 0.6"),
    ("S1", "model", "init_weights", [1.5, -0.5], "model.init_weights[1] must be >= 0"),
    ("S1", "model", "init_weights", [1.0],
     "model.init_weights must list one value per mode (2)"),
    ("S1", "policy", "delta_mu", 0.0, "policy.delta_mu must be positive, got 0.0"),
    ("S1", "policy", "delta_sigma", -0.1, "policy.delta_sigma must be >= 0, got -0.1"),
    ("S1", "policy", "nu", -0.5, "policy.nu must be >= 0, got -0.5"),
    ("S1", "policy", "weight_policy", "magic",
     "policy.weight_policy must be one of ('identity', 'geometric'), got 'magic'"),
    ("S1", "policy", "weight_policy", 1,
     "policy.weight_policy must be a string, got 1"),
    ("S3", "stubborn", "enabled", True, "unknown key 'enabled' at stubborn"),
    ("S3", "stubborn", "node", DELETE, "missing key 'node' at stubborn"),
    ("S3", "stubborn", "node", 0, "stubborn.node must be >= 1, got 0"),
    ("S3", "stubborn", "node", 99, "stubborn.node must lie in [1, 50], got 99"),
    ("S3", "stubborn", "mu_dagger", "low",
     "stubborn.mu_dagger must be a number, got 'low'"),
    ("S1", "run", "horizon", 0, "run.horizon must be >= 1, got 0"),
    ("S1", "run", "horizon", True, "run.horizon must be an integer, got True"),
    ("S1", "run", "trailing_window", 5000,
     "run.trailing_window must lie in [1, horizon], got 5000"),
    ("S1", "run", "seed", -1, "run.seed must be >= 0, got -1"),
    ("S1", "run", "output_dir", 5, "run.output_dir must be a string, got 5"),
    ("S1", "run", "gain_mode", "fast",
     "run.gain_mode must be one of ('exact', 'steady'), got 'fast'"),
    ("S1", "run", "observation", "private",
     "run.observation must be one of ('shared', 'independent'), got 'private'"),
    ("S1", None, "network", DELETE, "missing key 'network' at config"),
    ("S1", None, "extra", {}, "unknown key 'extra' at config"),
    ("S1", None, "policy", [], "policy must be an object"),
]


@pytest.mark.parametrize(
    "preset, section, key, value, message",
    SINGLE_FAULTS,
    ids=[f"{p}-{s or 'config'}.{k}={v!r}" for p, s, k, v, _ in SINGLE_FAULTS],
)
def test_single_fault_message_is_exact(tmp_path, preset, section, key, value, message):
    doc = preset_doc(preset)
    target = doc if section is None else doc[section]
    if value == DELETE:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_doc(tmp_path, doc))
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# rules on direct construction


def test_network_config_validates_on_construction():
    with pytest.raises(InvalidParameterError, match=r"^n must be at least 3, got 2$"):
        NetworkConfig(n=2, k_ws=1, p_ws=0.0, hub_node=1, hub_fraction=0.0, seed=0)


def test_replace_revalidates_run_config():
    run = load_preset("S1").run
    with pytest.raises(
        InvalidParameterError,
        match=r"^trailing_window must lie in \[1, horizon\], got 0$",
    ):
        replace(run, trailing_window=0)


@pytest.mark.parametrize(
    "preset, section, changes, message",
    [
        ("S1", "model", {"theta": math.nan}, "theta must be finite, got nan"),
        ("S1", "model", {"theta": math.inf}, "theta must be finite, got inf"),
        ("S1", "model", {"sigma_y": math.inf}, "sigma_y must be finite, got inf"),
        ("S1", "model", {"init_variances": (math.inf, 1.0)},
         "init_variances[0] must be finite, got inf"),
        ("S1", "model", {"init_mean_ranges": ((0.0, math.inf), (-1.0, 0.0))},
         "init_mean_ranges[0] must be finite, got [0.0, inf]"),
        ("S3", "stubborn", {"mu_dagger": math.nan}, "mu_dagger must be finite, got nan"),
    ],
    ids=["theta=nan", "theta=inf", "sigma_y=inf", "init_variances", "init_mean_ranges",
         "mu_dagger=nan"],
)
def test_non_finite_values_rejected_on_construction(preset, section, changes, message):
    with pytest.raises(InvalidParameterError) as excinfo:
        replace(getattr(load_preset(preset), section), **changes)
    assert str(excinfo.value) == message


def test_null_init_weights_load_as_uniform(tmp_path):
    doc = preset_doc()
    doc["model"]["init_weights"] = None
    assert load_config(write_doc(tmp_path, doc)).model.init_weights == (0.5, 0.5)


def test_null_stubborn_section_means_disabled(tmp_path):
    doc = preset_doc("S3")
    doc["stubborn"] = None
    assert load_config(write_doc(tmp_path, doc)).stubborn is None


def test_given_init_weights_are_rescaled_once(tmp_path):
    doc = preset_doc()
    doc["model"]["init_weights"] = [0.3, 0.7 + 4e-10]
    model = load_config(write_doc(tmp_path, doc)).model
    total = 0.3 + (0.7 + 4e-10)
    assert model.init_weights == (0.3 / total, (0.7 + 4e-10) / total)
    # replace re-runs the checks but never divides the weights again.
    assert replace(model, theta=2.0).init_weights == model.init_weights
