"""Run configuration: strict JSON schema, presets, and seeded substreams.

A configuration document has five sections: network (graph construction),
model (source and initial beliefs), policy (social mixing), stubborn, and
run. Each section is a frozen dataclass that checks its own ranges and
choices on construction (and so on ``dataclasses.replace``). One reader turns
a JSON section into its dataclass: the allowed keys, the required keys (the
fields without a default) and the JSON types come from the dataclass fields,
and a failed rule comes back as a ``ConfigError`` naming the dotted path of
the offending field. The presets S1..S4 pin the four standard experiment
settings; S2 and S4 raise the observation noise to 1, S3 and S4 pin node 1's
means to -1.

Seeding is split per stage. network.seed drives topology, hub selection,
and edge weights; run.seed drives belief initialization and observations.
Each named stream hashes the stage seed with a fixed label index, so
replicate studies can vary run.seed while every replicate sees the same
network instance, and changing the horizon never changes the graph.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Any, Callable, get_args, get_origin, get_type_hints

import numpy as np

from .dynamics import GAIN_MODES, OBSERVATIONS, PolicyConfig
from .errors import ConfigError, InvalidParameterError

__all__ = [
    "NetworkConfig",
    "ModelConfig",
    "StubbornConfig",
    "RunConfig",
    "SimulationConfig",
    "PRESET_NAMES",
    "load_config",
    "load_preset",
    "save_config",
    "child_rng",
]

#: Fixed label space for seeded substreams, shared by both stage seeds.
RNG_STREAMS = {
    "topology": 0,
    "hub": 1,
    "weights": 2,
    "init": 3,
    "observations": 4,
}


def child_rng(seed: int, stream: str) -> np.random.Generator:
    """Deterministic generator for one labeled substream of a stage seed."""
    try:
        key = RNG_STREAMS[stream]
    except KeyError:
        raise ConfigError(f"unknown rng stream {stream!r}") from None
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _require(ok: bool, message: str, *args: Any) -> None:
    """Raise InvalidParameterError(message.format(*args)) unless ok."""
    if not ok:
        raise InvalidParameterError(message.format(*args))


def _per_mode(values: Any, modes: int) -> bool:
    return isinstance(values, tuple) and len(values) == modes


@dataclass(frozen=True)
class NetworkConfig:
    n: int
    k_ws: int
    p_ws: float
    hub_node: int
    hub_fraction: float
    seed: int
    normalize_in_weights: bool = True

    def __post_init__(self) -> None:
        n = self.n
        _require(n >= 3, "n must be at least 3, got {}", n)
        _require(1 <= self.k_ws < n, "k_ws must lie in [1, n), got {}", self.k_ws)
        _require(0.0 <= self.p_ws <= 1.0, "p_ws must lie in [0, 1], got {}", self.p_ws)
        _require(
            1 <= self.hub_node <= n,
            "hub_node must lie in [1, n], got {}", self.hub_node,
        )
        _require(
            0.0 <= self.hub_fraction <= 1.0,
            "hub_fraction must lie in [0, 1], got {}", self.hub_fraction,
        )
        _require(self.seed >= 0, "seed must be >= 0, got {}", self.seed)


@dataclass(frozen=True)
class ModelConfig:
    """Source and initial beliefs, one mode per init_mean_ranges pair;
    init_weights=None means uniform weights."""

    theta: float
    sigma_y: float
    init_mean_ranges: tuple[tuple[float, float], ...]
    init_variances: tuple[float, ...]
    init_weights: tuple[float, ...] | None = None

    @property
    def modes(self) -> int:
        """Number of mixture modes, the length of init_mean_ranges."""
        return len(self.init_mean_ranges)

    def __post_init__(self) -> None:
        for name in ("theta", "sigma_y"):
            value = getattr(self, name)
            _require(math.isfinite(value), "{} must be finite, got {}", name, value)
        _require(self.sigma_y > 0.0, "sigma_y must be positive, got {}", self.sigma_y)
        ranges = self.init_mean_ranges
        _require(
            isinstance(ranges, tuple) and len(ranges) >= 1,
            "init_mean_ranges must list at least one [lo, hi] pair",
        )
        m = len(ranges)
        if self.init_weights is None:
            object.__setattr__(self, "init_weights", (1.0 / m,) * m)
        variances, weights = self.init_variances, self.init_weights
        for i, pair in enumerate(ranges):
            _require(
                isinstance(pair, tuple) and len(pair) == 2,
                "init_mean_ranges[{}] must be a [lo, hi] pair", i,
            )
            _require(
                all(map(math.isfinite, pair)),
                "init_mean_ranges[{}] must be finite, got {}", i, list(pair),
            )
            _require(pair[0] <= pair[1], "init_mean_ranges[{}] has hi < lo", i)
        _require(
            _per_mode(variances, m),
            "init_variances must list one value per mode ({})", m,
        )
        for i, v in enumerate(variances):
            _require(math.isfinite(v), "init_variances[{}] must be finite, got {}", i, v)
            _require(v > 0.0, "init_variances[{}] must be positive", i)
        _require(
            _per_mode(weights, m), "init_weights must list one value per mode ({})", m
        )
        for i, w in enumerate(weights):
            _require(w >= 0.0, "init_weights[{}] must be >= 0", i)
        total = sum(weights)
        _require(
            abs(total - 1.0) <= 1e-9, "init_weights must sum to 1, got {!r}", total
        )


@dataclass(frozen=True)
class StubbornConfig:
    """One agent, 1-based node, whose means stay pinned at mu_dagger."""

    node: int
    mu_dagger: float

    def __post_init__(self) -> None:
        _require(self.node >= 1, "node must be >= 1, got {}", self.node)
        _require(
            math.isfinite(self.mu_dagger),
            "mu_dagger must be finite, got {}", self.mu_dagger,
        )


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    horizon: int
    trailing_window: int
    gain_mode: str = "exact"
    observation: str = "shared"
    seed: int
    output_dir: str

    def __post_init__(self) -> None:
        h, w = self.horizon, self.trailing_window
        _require(h >= 1, "horizon must be >= 1, got {}", h)
        _require(1 <= w <= h, "trailing_window must lie in [1, horizon], got {}", w)
        _require(
            self.gain_mode in GAIN_MODES,
            "gain_mode must be one of {}, got {!r}", GAIN_MODES, self.gain_mode,
        )
        _require(
            self.observation in OBSERVATIONS,
            "observation must be one of {}, got {!r}", OBSERVATIONS, self.observation,
        )
        _require(self.seed >= 0, "seed must be >= 0, got {}", self.seed)


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    network: NetworkConfig
    model: ModelConfig
    policy: PolicyConfig
    stubborn: StubbornConfig | None = None
    run: RunConfig

    def __post_init__(self) -> None:
        if self.stubborn is not None:
            node, n = self.stubborn.node, self.network.n
            _require(node <= n, "stubborn.node must lie in [1, {}], got {}", n, node)

    def to_dict(self) -> dict:
        """The JSON document of this config, keys in field order."""
        return _plain(self)


def _plain(value: Any) -> Any:
    """dataclasses.asdict with tuples turned into lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false, got {value!r}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    return value


_SCALAR_READERS = {int: _as_int, float: _as_number, bool: _as_bool, str: _as_str}


def _unwrap(hint: Any) -> Any:
    """T for a `T | None` hint, else the hint itself."""
    return get_args(hint)[0] if isinstance(hint, UnionType) else hint


def _reader(hint: Any) -> Callable[[Any, str], Any]:
    """The JSON type check for one field type; lists become tuples."""
    hint = _unwrap(hint)  # `T | None`: null passes through below
    if get_origin(hint) is not tuple:
        return _SCALAR_READERS[hint]
    read_item = _reader(get_args(hint)[0])

    def read_list(value: Any, path: str) -> Any:
        # Anything but a list passes through, so the dataclass rejects its shape.
        if not isinstance(value, list):
            return value
        return tuple(read_item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read_list


@functools.cache
def _schema(cls: type) -> tuple[dict[str, Any], tuple[str, ...]]:
    """Field name -> type hint, in field order, and the fields without a default."""
    hints = get_type_hints(cls)
    required = tuple(f.name for f in fields(cls) if f.default is MISSING)
    return {f.name: hints[f.name] for f in fields(cls)}, required


@functools.cache
def _readers(cls: type) -> dict[str, Callable[[Any, str], Any]]:
    return {name: _reader(hint) for name, hint in _schema(cls)[0].items()}


def _check_keys(section: dict, path: str, cls: type) -> None:
    """Keys must be fields of cls, and every field without a default is required."""
    hints, required = _schema(cls)
    unknown = section.keys() - hints.keys()
    if unknown:
        raise ConfigError(f"unknown key '{min(unknown)}' at {path}")
    for name in required:
        if name not in section:
            raise ConfigError(f"missing key '{name}' at {path}")


def _read_section(doc: dict, name: str, cls: type) -> Any:
    """Build cls from doc[name]: keys and JSON types from its fields, rules from cls."""
    section = doc[name]
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    _check_keys(section, name, cls)
    values = {
        key: read(section[key], f"{name}.{key}")
        for key, read in _readers(cls).items()
        if key in section
    }
    try:
        return cls(**values)
    except InvalidParameterError as exc:
        raise ConfigError(f"{name}.{exc}") from None


def _parse_config(doc: Any) -> SimulationConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be an object")
    _check_keys(doc, "config", SimulationConfig)
    hints, required = _schema(SimulationConfig)
    # An optional section (stubborn) that is absent or null keeps its default.
    sections = {
        name: _read_section(doc, name, _unwrap(hint))
        for name, hint in hints.items()
        if name in required or doc.get(name) is not None
    }
    if doc["model"].get("init_weights") is not None:
        # Given weights are rescaled to sum to one here, once; in ModelConfig
        # every dataclasses.replace would divide them again.
        model = sections["model"]
        total = sum(model.init_weights)
        sections["model"] = replace(
            model, init_weights=tuple(w / total for w in model.init_weights)
        )
    try:
        return SimulationConfig(**sections)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from None


PRESET_NAMES = ("S1", "S2", "S3", "S4")


def load_preset(name: str) -> SimulationConfig:
    """Return one of the standard settings S1..S4."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return SimulationConfig(
        network=NetworkConfig(
            n=50, k_ws=3, p_ws=0.2, hub_node=1, hub_fraction=0.5, seed=7
        ),
        model=ModelConfig(
            theta=1.0, sigma_y=1.0 if name in ("S2", "S4") else 0.1,
            init_mean_ranges=((0.0, 1.0), (-1.0, 0.0)),
            init_variances=(1.0, 1.0), init_weights=(0.5, 0.5),
        ),
        policy=PolicyConfig(delta_mu=0.6, delta_sigma=0.1, nu=0.1),
        stubborn=(
            StubbornConfig(node=1, mu_dagger=-1.0) if name in ("S3", "S4") else None
        ),
        run=RunConfig(
            horizon=2000, trailing_window=1000, seed=23, output_dir=f"runs/{name}"
        ),
    )


def load_config(source: str | Path) -> SimulationConfig:
    """Load a config from a preset name or a strict-schema JSON file."""
    if isinstance(source, str) and source in PRESET_NAMES:
        return load_preset(source)
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"no such config file or preset: {source}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return _parse_config(doc)


def save_config(config: SimulationConfig, path: str | Path) -> None:
    """Write a config as JSON that load_config reads back identically."""
    Path(path).write_text(json.dumps(config.to_dict(), indent=2) + "\n")
