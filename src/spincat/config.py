"""Experiment configuration: schema validation, presets, dataclass loading."""

import difflib
import json
from dataclasses import dataclass, fields

import numpy as np

from .spin_ops import _real

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["spin", "nu_Q", "p", "checkpoints"],
    "properties": {
        "name": {"type": "string"},
        "spin": {"type": "number", "exclusiveMinimum": 0, "maximum": 20, "multipleOf": 0.5},
        "nu_Q": {"type": "number", "minimum": 1},
        "p": {"type": "integer", "minimum": -2**53, "maximum": 2**53},  # integers doubles hold exactly
        "vartheta": {"type": "number", "minimum": 0, "maximum": np.pi},
        "varphi": {"type": "number"},
        "checkpoints": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0, "maximum": 2**53},  # as p
            "minItems": 1, "uniqueItems": True,
        },
        "mode": {"enum": ["coherence", "fid"]},
        "noise_sigma": {"type": "number", "minimum": 0, "maximum": 1000},
        "seed": {"type": "integer", "minimum": 0},
        "n_theta": {"type": "integer", "minimum": 8, "maximum": 2048},
        "n_phi": {"type": "integer", "minimum": 8, "maximum": 2048},
    },
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    spin: float
    nu_Q: float
    p: int
    checkpoints: tuple
    name: str = "custom"
    vartheta: float = np.pi / 2
    varphi: float = 0.0
    mode: str = "coherence"
    noise_sigma: float = 0.0
    seed: int = 0
    n_theta: int = 64
    n_phi: int = 128

    def __post_init__(self):
        # a preset, dataclasses.replace and a file all obey CONFIG_SCHEMA; its "integer" takes
        # integral floats such as 16.0 and numpy integers, stored here as int
        _check_schema(vars(self), "ExperimentConfig")
        for key, spec in CONFIG_SCHEMA["properties"].items():
            if spec.get("type") == "integer":
                object.__setattr__(self, key, int(getattr(self, key)))
        object.__setattr__(self, "checkpoints", tuple(map(int, self.checkpoints)))
        # n Gauss-Legendre nodes are exact to degree 2n - 1; n azimuths alias |Q| >= n
        for key in ("n_theta", "n_phi"):
            if (n := getattr(self, key)) <= 2 * self.spin:
                raise ConfigError(f"{key}: must exceed 2I = {2 * self.spin:g}, got {n}")

    def to_dict(self) -> dict:
        return {f.name: (list(v) if isinstance(v, tuple) else v)
                for f in fields(self) for v in [getattr(self, f.name)]}


def _suggest(key: str, names=CONFIG_SCHEMA["properties"]) -> str:
    close = difflib.get_close_matches(key, names, n=1)
    return f" (did you mean '{close[0]}'?)" if close else ""


_TYPES = {"string": str, "number": (int, float), "integer": (int, float, np.integer),
          "array": (list, tuple)}
_KEYWORDS = {
    "type": lambda v, t: isinstance(v, _TYPES[t]) and not isinstance(v, bool) and (
        np.isfinite(_real(v)) if t == "number" else not isinstance(v, float) or v.is_integer()),
    "enum": lambda v, e: v in e,
    "minimum": lambda v, m: v >= m,
    "exclusiveMinimum": lambda v, m: v > m,
    "maximum": lambda v, m: v <= m,
    "multipleOf": lambda v, m: (v / m).is_integer(),   # exact for m = 0.5, after the bounds
    "minItems": lambda v, n: len(v) >= n,
    "items": lambda v, spec: all(_broken(x, spec) is None for x in v),
    "uniqueItems": lambda v, u: not u or len(set(v)) == len(v),   # after items: 1 == 1.0
}


def _broken(v, spec: dict):
    """First keyword of a property's schema that v breaks, or None; type comes first. A bool is
    no number, a "number" reads as `require_real` reads it, an "integer" is any whole number."""
    return next((w for w, ok in _KEYWORDS.items() if w in spec and not ok(v, spec[w])), None)


def _check_schema(data, source: str):
    """Raise ConfigError naming the first field of data that CONFIG_SCHEMA rejects."""
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: configuration must be a JSON object")
    for key, value in data.items():
        if key not in CONFIG_SCHEMA["properties"]:
            raise ConfigError(f"{source}: unknown key '{key}'{_suggest(key)}")
        spec = CONFIG_SCHEMA["properties"][key]
        if word := _broken(value, spec):
            raise ConfigError(f"{source}: {key}: {value!r} fails {word} {spec[word]!r}")
    if missing := [key for key in CONFIG_SCHEMA["required"] if key not in data]:
        raise ConfigError(f"{source}: {missing[0]}: required key is missing")


def validate_config(data: dict, source: str = "<config>") -> ExperimentConfig:
    """Validate a raw configuration mapping and build an ExperimentConfig.
    Errors name the field, and suggest the closest key for an unknown one."""
    _check_schema(data, source)
    try:
        return ExperimentConfig(**data)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


# Sodium-23 single-crystal presets: prepare a coherent state on the
# equator and let it evolve to the cat time and back to revival, or just
# inspect the initial state.
PRESETS = {
    "na23-cat-p1": ExperimentConfig(spin=1.5, nu_Q=15220.0, p=1,
                                    checkpoints=(1, 2), name="na23-cat-p1"),
    "na23-cat-p0": ExperimentConfig(spin=1.5, nu_Q=15220.0, p=0,
                                    checkpoints=(1, 2), name="na23-cat-p0"),
    "na23-init": ExperimentConfig(spin=1.5, nu_Q=15220.0, p=1,
                                  checkpoints=(0,), name="na23-init"),
}


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return validate_config(data, source=str(path))


def get_preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}'{_suggest(name, PRESETS)}; "
                          f"available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]
