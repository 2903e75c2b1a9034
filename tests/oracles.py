"""Reference computations the tests check the program against.

None of these runs in the program itself: the finite-difference gradient
check, the one-set-at-a-time trace tensors, the attention head and the pair
gaps of the tail surrogates as chains of separate tape ops (with the
multi-segment softmax the attention chain needs), pretraining that
propagates into every row, the plain-number Nash-welfare penalty and the
Markov tail statistics are oracles of the acceptance suite and of the unit
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ginigraph import autodiff as ad
from ginigraph.autodiff import Tape, Tensor
from ginigraph.errors import ContractError, DimensionError, DomainError, NumericalError
from ginigraph.graph import Graph, GroupPairs, SimilaritySet
from ginigraph.losses import utility_loss
from ginigraph.models import (
    ModelParams,
    as_leaves,
    backbone_embed,
    graph_operators,
    init_backbone,
    readout_logits,
)
from ginigraph.trainer import AdamState, TrainConfig, _ensure_masks, embed

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
# Trace tensors, one pair set at a time
# ---------------------------------------------------------------------------


def smoothness_loss(z: Tensor, similarity: SimilaritySet) -> Tensor:
    """Laplacian quadratic form over the similarity pairs, as a tape scalar."""
    return ad.quadratic_pair_forms(z, similarity)[0]


def group_trace_tensors(z: Tensor, ctx: GroupPairs) -> list[Tensor]:
    """Per-group smoothness traces, one pass per group's set; each equals metrics.trace_form."""
    return [smoothness_loss(z, group) for group in ctx.sets]


# ---------------------------------------------------------------------------
# The attention head as a chain of separate tape ops
# ---------------------------------------------------------------------------


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= x.shape[0]):
        raise DimensionError(f"slice [{start}:{stop}] out of range for {x.shape}")
    out = x.values[start:stop].copy()

    def back(g: Array) -> Array:
        gx = np.zeros_like(x.values)
        gx[start:stop] = g
        return gx

    return ad._unary(x, out, "slice-rows", back)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    v = x.values
    out = np.where(v > 0, v, slope * v)
    return ad._unary(x, out, "leaky-relu", lambda g: g * np.where(v > 0, 1.0, slope))


def edge_spmm(weights: Tensor, x: Tensor, pattern: sp.csr_matrix) -> Tensor:
    """out = A(w) @ x, where A has the fixed CSR pattern and the entry weights w (nnz,1).

    The backward gives dx = A(w)^T g and dw_p = g[r] . x[indices[p]] for the
    entry p in row r.
    """
    ad._same_tape(weights, x)
    if weights.shape != (pattern.nnz, 1):
        raise DimensionError(f"edge weights must be ({pattern.nnz},1), got {weights.shape}")
    if x.shape[0] != pattern.shape[1]:
        raise DimensionError(f"edge_spmm mismatch: {pattern.shape} @ {x.shape}")
    mat = sp.csr_matrix(
        (weights.values[:, 0], pattern.indices, pattern.indptr), shape=pattern.shape
    )
    out = ad._ensure_finite(mat @ x.values, "edge-spmm")

    def backward(g: Array) -> None:
        rows = np.repeat(g, np.diff(pattern.indptr), axis=0)
        dw = np.einsum("ij,ij->i", rows, x.values[pattern.indices])
        ad._accumulate(weights, dw[:, None])
        ad._accumulate(x, mat.T @ g)

    return Tensor(out, x.tape, op="edge-spmm", backward=backward)


def _check_segments(segments: Array, num_segments: int, rows: int) -> Array:
    segments = np.asarray(segments, dtype=np.int64)
    if segments.ndim != 1 or segments.size != rows:
        raise DimensionError("segments must be 1-D with one id per row")
    if segments.size and (segments.min() < 0 or segments.max() >= num_segments):
        raise DimensionError("segment id out of range")
    return segments


def segment_softmax(x: Tensor, segments: Array, num_segments: int) -> Tensor:
    """Softmax of a column vector within each segment (max-shifted for stability)."""
    if x.shape[1] != 1:
        raise DimensionError("segment_softmax expects a column vector")
    segments = _check_segments(segments, num_segments, x.shape[0])
    v = x.values[:, 0]
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segments, v)
    shifted = np.exp(v - seg_max[segments])
    denom = np.bincount(segments, weights=shifted, minlength=num_segments)
    out = (shifted / denom[segments])[:, None]

    def back(g: Array) -> Array:
        y = out[:, 0]
        gy = g[:, 0]
        seg_dot = np.bincount(segments, weights=y * gy, minlength=num_segments)
        return (y * (gy - seg_dot[segments]))[:, None]

    return ad._unary(x, ad._ensure_finite(out, "segment-softmax"), "segment-softmax", back)


def attention_chain(t: Tensor, a: Tensor, edges: sp.csr_matrix, slope: float) -> Tensor:
    """What autodiff.attention_aggregate computes, as the chain of ops it fuses.

    Per-node scores t a_c and t a_n gathered onto the entries of the CSR
    pattern edges, LeakyReLU, the gate product with edges.data, the softmax
    over each row and the weighted sparse product.
    """
    hidden, n = t.shape[1], edges.shape[0]
    centers = np.repeat(np.arange(n), np.diff(edges.indptr))
    center_score = t @ slice_rows(a, 0, hidden)
    neighbor_score = t @ slice_rows(a, hidden, 2 * hidden)
    raw = leaky_relu(
        ad.add(
            ad.gather_rows(center_score, centers),
            ad.gather_rows(neighbor_score, edges.indices),
        ),
        slope,
    )
    gated = ad.hadamard(raw, t.tape.leaf(edges.data[:, None], "sim", constant=True))
    alpha = segment_softmax(gated, centers, n)
    return edge_spmm(alpha, t, edges)


# ---------------------------------------------------------------------------
# The pair gaps and the softmax surrogate as chains of separate tape ops
# ---------------------------------------------------------------------------


def subtract(a: Tensor, b: Tensor) -> Tensor:
    ad._binary_same_shape(a, b, "subtract")
    out = ad._ensure_finite(a.values - b.values, "subtract")

    def backward(g: Array) -> None:
        ad._accumulate(a, g)
        ad._accumulate(b, -g)

    return Tensor(out, a.tape, op="subtract", backward=backward)


def row_sum(x: Tensor) -> Tensor:
    """Sum each row to a column vector (n,k) -> (n,1)."""
    out = x.values.sum(axis=1, keepdims=True)
    return ad._unary(x, out, "row-sum", lambda g: np.repeat(g, x.shape[1], axis=1))


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root; gradient is defined as 0 at exactly 0."""
    if np.any(x.values < 0.0):
        raise DomainError("sqrt requires nonnegative inputs")
    out = np.sqrt(x.values)

    def back(g: Array) -> Array:
        gx = np.zeros_like(out)
        nz = out > 0
        gx[nz] = g[nz] / (2.0 * out[nz])
        return gx

    return ad._unary(x, out, "sqrt", back)


def pair_gap_chain(z: Tensor, similarity: SimilaritySet) -> Tensor:
    """What autodiff.pair_gaps computes, as the chain of ops it fuses."""
    diff = subtract(ad.gather_rows(z, similarity.rows), ad.gather_rows(z, similarity.cols))
    return sqrt(row_sum(ad.hadamard(diff, diff)))


def softmax_surrogate_chain(z: Tensor, similarity: SimilaritySet, temperature: float) -> Tensor:
    """losses.surrogate_loss's softmax mode as the chain it ran on: a one-segment softmax."""
    gaps = pair_gap_chain(z, similarity)
    one_segment = np.zeros(gaps.shape[0], dtype=np.int64)
    weights = segment_softmax(ad.scale(gaps, 1.0 / temperature), one_segment, 1)
    return ad.sum_all(ad.hadamard(weights, gaps))


# ---------------------------------------------------------------------------
# Pretraining over every row
# ---------------------------------------------------------------------------


def full_row_pretrain(graph: Graph, config: TrainConfig) -> tuple[dict[str, Array], Array]:
    """trainer.pretrain's loop on the full graph_operators: (weights, embeddings).

    Every epoch propagates into all n rows, also those the train-mask loss
    never reads.
    """
    config.validate()
    graph = _ensure_masks(graph, config.seed)
    rng = np.random.default_rng(config.seed)
    weights = init_backbone(config.backbone, graph.features.shape[1], config.hidden, rng)
    operators = graph_operators(graph)
    adam = AdamState(weights)
    for _ in range(config.pretrain_epochs):
        tape = Tape()
        leaves = as_leaves(tape, weights)
        logits = readout_logits(backbone_embed(config.backbone, leaves, operators), leaves)
        tape.backward(utility_loss(logits, graph.labels, graph.train_mask, tape))
        adam.step(
            weights,
            {k: leaves[k].grad for k in weights},
            config.learning_rate,
            config.weight_decay,
        )
        tape.release()
    encoder = ModelParams(config.backbone, weights)
    return weights, embed(encoder, graph, operators=operators)[0]


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
