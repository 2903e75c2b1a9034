"""key=value config files for training runs, plus the seed env override.

Files are UTF-8 text, one `key=value` per line, '#' comments and blank lines
allowed. Keys are TrainConfig field names; anything else is an error. The
environment variable GINIGRAPH_SEED, when set, overrides the seed from any
source.
"""

from __future__ import annotations

import dataclasses
import os

from .errors import ConfigError
from .graph import open_text
from .trainer import TrainConfig

SEED_ENV_VAR = "GINIGRAPH_SEED"

_TRUE = {"true", "on", "yes", "1"}
_FALSE = {"false", "off", "no", "0"}


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ConfigError(f"{key}: expected a boolean (on/off), got {raw!r}")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key=value lines into typed TrainConfig keyword arguments."""
    types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        kind = types[key]
        try:
            if kind in ("bool", bool):
                values[key] = _parse_bool(value, key)
            elif kind in ("int", int):
                values[key] = int(value)
            elif kind in ("float", float):
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def load_config(path) -> TrainConfig:
    """Read a config file into a validated TrainConfig (env seed applied)."""
    with open_text(path, ConfigError) as fh:
        values = parse_config_text(fh.read(), source=str(path))
    config = TrainConfig(**values)
    config = apply_env_seed(config)
    config.validate()
    return config


def apply_env_seed(config: TrainConfig) -> TrainConfig:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return config
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
    return dataclasses.replace(config, seed=seed)
