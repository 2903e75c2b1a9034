"""Exception taxonomy shared across the package.

Every error raised on purpose derives from GiniGraphError so the CLI can map
failure classes to exit codes in one place.
"""

from __future__ import annotations

import dataclasses
import math
import numbers


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


_KINDS = {"bool": bool, "str": str, "int": numbers.Integral, "float": numbers.Real}


def _fits(value, kind: str) -> bool:
    if kind.endswith(" | None"):
        return value is None or _fits(value, kind.removesuffix(" | None"))
    if kind == "tuple[int, ...]":
        return isinstance(value, tuple) and all(_fits(v, "int") for v in value)
    if kind.startswith("list["):
        return isinstance(value, list) and all(_fits(v, kind[5:-1]) for v in value)
    if kind not in _KINDS:  # a nested settings dataclass, named by its class
        return type(value).__name__ == kind
    if isinstance(value, bool) != (kind == "bool"):
        return False  # a bool is no number, and nothing else is a bool
    return isinstance(value, _KINDS[kind]) and (kind != "float" or math.isfinite(value))


def check_field_types(settings, error: type[GiniGraphError]) -> None:
    """Raise error unless each field of the dataclass holds its annotated type.

    The annotations are postponed (strings). A float field takes ints and must
    be finite; a list field holds items of its type; a field annotated with a
    class name holds an instance of that class.
    """
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        if not _fits(value, f.type):
            raise error(f"{f.name}: expected {f.type}, got {value!r}")
