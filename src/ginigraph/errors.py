"""Exception taxonomy shared across the package.

Every error raised on purpose derives from GiniGraphError so the CLI can map
failure classes to exit codes in one place.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np


class GiniGraphError(Exception):
    """Base class for all deliberate failures."""


class ContractError(GiniGraphError):
    """A caller violated an API precondition (shapes, ranges, modes)."""


class DimensionError(ContractError):
    """Operands have incompatible shapes."""


class DomainError(ContractError):
    """An input is outside the mathematical domain of an operation."""


class ConfigError(GiniGraphError):
    """A config file or CLI flag combination is invalid."""


class DataFormatError(GiniGraphError):
    """An input file does not follow the documented format."""


class NumericalError(GiniGraphError):
    """A computation produced NaN/Inf or otherwise left the finite regime."""


_KINDS = {"bool": bool, "str": str, "int": numbers.Integral}


def is_finite_number(value) -> bool:
    """True for a finite int or float; a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _fits(value, kind: str) -> bool:
    if kind.endswith(" | None"):
        return value is None or _fits(value, kind.removesuffix(" | None"))
    if kind.startswith("tuple[") and kind.endswith(", ...]"):
        return isinstance(value, tuple) and all(_fits(v, kind[6:-6]) for v in value)
    if kind.startswith("list["):
        return isinstance(value, list) and all(_fits(v, kind[5:-1]) for v in value)
    if kind == "float":
        return is_finite_number(value)
    if kind not in _KINDS:  # a nested settings dataclass, named by its class
        return type(value).__name__ == kind
    if isinstance(value, bool) != (kind == "bool"):
        return False  # a bool is no number, and nothing else is a bool
    return isinstance(value, _KINDS[kind])


def check_field_types(settings, error: type[GiniGraphError]) -> None:
    """Raise error unless each field of the dataclass holds its annotated type.

    The annotations are postponed (strings). A float field takes ints and must
    be finite; a list[X] or tuple[X, ...] field holds items of type X; a field
    annotated with a class name holds an instance of that class.
    """
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        if not _fits(value, f.type):
            raise error(f"{f.name}: expected {f.type}, got {value!r}")


def check_index(index, n: int, error: type[GiniGraphError] = ContractError,
                what: str = "index") -> np.ndarray:
    """index as a 1-D int64 array of positions in [0, n), or error.

    It must hold integers (an empty list, which numpy reads as float64, is
    allowed): a bool mask, a float or a negative position is refused rather
    than selected by, truncated or wrapped.
    """
    arr = np.asarray(index)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise error(f"{what} must hold integer positions, got dtype {arr.dtype}")
    if arr.ndim != 1:
        raise error(f"{what} must be 1-D, got shape {arr.shape}")
    arr = arr.astype(np.int64, copy=False)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise error(f"{what} out of range [0, {n})")
    return arr


def check_length(values, n: int, what: str) -> np.ndarray:
    """values (labels, scores, group ids) as a 1-D array of n finite numbers, or ContractError."""
    arr = np.asarray(values)
    if arr.shape != (n,):
        raise ContractError(f"{what} must be 1-D with {n} entries, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
        raise ContractError(f"{what} must be finite numbers (dtype {arr.dtype})")
    return arr


def known_keys(raw, settings, what: str) -> dict:
    """A copy of the JSON object raw, whose keys must be fields of settings."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object, got {raw!r}")
    unknown = set(raw) - {f.name for f in dataclasses.fields(settings)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return dict(raw)
