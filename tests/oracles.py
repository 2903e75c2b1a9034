"""Reference computations the tests check the program against.

None of these runs in the program itself: the finite-difference gradient
check, the plain-number Nash-welfare penalty and the Markov tail statistics
are oracles of the acceptance suite and of the unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ginigraph.autodiff import Tape, Tensor
from ginigraph.errors import ContractError, DimensionError, DomainError, NumericalError
from ginigraph.graph import SimilaritySet

Array = np.ndarray


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing an analytic gradient against central differences."""

    max_rel_error: float
    worst_index: tuple[int, int]
    passed: bool
    analytic: Array
    numeric: Array


def finite_diff_check(
    evaluator: Callable[[Array], tuple[float, Array]],
    point: Array,
    step: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Check an analytic gradient with central differences, coordinate by coordinate.

    evaluator(x) must return (loss value, analytic gradient at x). The relative
    error per coordinate is |analytic - numeric| / max(1, |analytic|); the
    check passes when the worst coordinate is within tolerance.
    """
    point = np.asarray(point, dtype=np.float64)
    if step <= 0:
        raise ContractError("step must be positive")
    _, analytic = evaluator(point)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != point.shape:
        raise DimensionError("analytic gradient shape does not match the point")
    numeric = np.zeros_like(point)
    for idx in np.ndindex(point.shape):
        bumped = point.copy()
        bumped[idx] += step
        f_plus, _ = evaluator(bumped)
        bumped[idx] = point[idx] - step
        f_minus, _ = evaluator(bumped)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalError("non-finite loss during finite differencing")
        numeric[idx] = (f_plus - f_minus) / (2.0 * step)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    worst = np.unravel_index(np.argmax(rel), rel.shape) if rel.size else (0, 0)
    max_rel = float(rel[worst]) if rel.size else 0.0
    return GradCheckReport(
        max_rel_error=max_rel,
        worst_index=(int(worst[0]), int(worst[1])) if rel.size else (0, 0),
        passed=max_rel <= tolerance,
        analytic=analytic,
        numeric=numeric,
    )


def tape_evaluator(build: Callable[[Tensor], Tensor]) -> Callable[[Array], tuple[float, Array]]:
    """Lift build(leaf)->scalar into the (value, gradient) form finite_diff_check wants."""

    def evaluator(x: Array) -> tuple[float, Array]:
        tape = Tape()
        leaf = tape.leaf(x, "x")
        out = build(leaf)
        tape.backward(out)
        grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.values)
        return float(out.values[0, 0]), grad.copy()

    return evaluator


# ---------------------------------------------------------------------------
# Group welfare
# ---------------------------------------------------------------------------


def nswp_value(values) -> float:
    """Plain-number version of the group welfare penalty of losses.group_welfare_loss.

    Unlike the tape path, no floor is added: callers pass positive statistics
    directly, so (2, 1) -> 0.5 holds exactly.
    """
    vals = [float(v) for v in values]
    m = len(vals)
    if m < 2:
        raise ContractError("need at least two groups")
    if min(vals) <= 0:
        raise DomainError("group statistics must be positive")
    total = 0.0
    for i in range(m):
        for j in range(m):
            if i != j:
                total += (vals[i] / vals[j] - 1.0) * (vals[j] / vals[i] - 1.0)
    return -total / (m * (m - 1))


# ---------------------------------------------------------------------------
# Tail statistics of the pairwise L2 gaps
# ---------------------------------------------------------------------------


def _l2_gaps(similarity: SimilaritySet, z: Array, epsilon: float) -> Array:
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    z = np.asarray(z, dtype=np.float64)
    diff = z[similarity.rows] - z[similarity.cols]
    return np.sqrt(np.sum(diff * diff, axis=1))


def tail_fraction(similarity: SimilaritySet, z: Array, epsilon: float) -> float:
    """Fraction of stored pairs whose L2 gap is at least epsilon."""
    gaps = _l2_gaps(similarity, z, epsilon)
    return float(np.mean(gaps >= epsilon)) if gaps.size else 0.0


def tail_bound(similarity: SimilaritySet, z: Array, epsilon: float) -> float:
    """Markov bound mean(gap)/epsilon on the tail fraction."""
    gaps = _l2_gaps(similarity, z, epsilon)
    return float(np.mean(gaps) / epsilon) if gaps.size else 0.0
