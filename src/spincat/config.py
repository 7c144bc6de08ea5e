"""Experiment configuration: schema validation, presets, dataclass loading."""

import difflib
import json
import math
from dataclasses import dataclass, field, fields

import jsonschema
import numpy as np

from .states import NA23_EPSILON

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["spin", "nu_Q", "p", "checkpoints"],
    "properties": {
        "name": {"type": "string"},
        "spin": {"type": "number", "exclusiveMinimum": 0, "maximum": 20},
        "nu_Q": {"type": "number", "exclusiveMinimum": 0},
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
        "p": {"type": "integer"},
        "vartheta": {"type": "number", "minimum": 0, "maximum": np.pi},
        "varphi": {"type": "number"},
        "checkpoints": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "mode": {"enum": ["coherence", "fid"]},
        "noise_sigma": {"type": "number", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "n_theta": {"type": "integer", "minimum": 8},
        "n_phi": {"type": "integer", "minimum": 8},
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
    epsilon: float = NA23_EPSILON
    vartheta: float = np.pi / 2
    varphi: float = 0.0
    mode: str = "coherence"
    noise_sigma: float = 0.0
    seed: int = 0
    n_theta: int = 64
    n_phi: int = 128

    def __post_init__(self):
        if round(2 * self.spin) != 2 * self.spin or self.spin <= 0:
            raise ConfigError("spin must be a positive integer or half-integer")
        object.__setattr__(self, "checkpoints", tuple(self.checkpoints))

    def to_dict(self) -> dict:
        return {f.name: (list(v) if isinstance(v, tuple) else v)
                for f in fields(self) for v in [getattr(self, f.name)]}


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


def _suggest(key: str) -> str:
    close = difflib.get_close_matches(key, CONFIG_SCHEMA["properties"], n=1)
    return f" (did you mean '{close[0]}'?)" if close else ""


def validate_config(data: dict, source: str = "<config>") -> ExperimentConfig:
    """Validate a raw configuration mapping and build an ExperimentConfig.

    Error messages carry the offending JSON path and, for unknown keys, a
    closest-match suggestion.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: configuration must be a JSON object")
    for key in data:
        if key not in CONFIG_SCHEMA["properties"]:
            raise ConfigError(f"{source}: unknown key '{key}'{_suggest(key)}")
        value = data[key]
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{source}: {key}: {value} is not a finite number")
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.path))
    if errors:
        e = errors[0]
        path = "/".join(str(p) for p in e.path) or "<root>"
        raise ConfigError(f"{source}: {path}: {e.message}")
    try:
        return ExperimentConfig(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return validate_config(data, source=str(path))


def get_preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        close = difflib.get_close_matches(name, PRESETS, n=1)
        hint = f" (did you mean '{close[0]}'?)" if close else ""
        raise ConfigError(f"unknown preset '{name}'{hint}; "
                          f"available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]
