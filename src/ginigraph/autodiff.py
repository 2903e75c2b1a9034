"""Reverse-mode automatic differentiation on float64 numpy matrices.

Every value is a 2-D float64 array (scalars are 1x1). A Tape records the
operations of one forward pass in creation order; Tape.backward walks the
record in reverse and accumulates gradients into every reachable node, so a
single forward graph supports several backward sweeps (each sweep resets the
stored gradients first).

A leaf made with constant=True (input features, labels, fixed similarities)
never receives a gradient: the ops skip computing the gradient of a constant
operand, and spmm of a constant is itself a constant with no backward.

Forward values never depend on whether tracing is on: a Tape built with
tracing=False runs the identical numpy code and simply skips recording.
Every operation checks its output for NaN/Inf and raises NumericalError on
the first non-finite entry, which is how training detects divergence.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, DimensionError, DomainError, NumericalError
from .graph import SimilaritySet, laplacian_apply

Array = np.ndarray


def _as_matrix(values) -> Array:
    """Coerce input to a float64 matrix; scalars become 1x1."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2:
        raise DimensionError(
            f"expected a scalar or 2-D array, got shape {arr.shape}; reshape explicitly"
        )
    return arr


def _ensure_finite(arr: Array, op: str) -> Array:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values produced by op '{op}'")
    return arr


class Tape:
    """Operation record for one forward pass."""

    def __init__(self, tracing: bool = True):
        self.tracing = tracing
        self._nodes: list[Tensor] = []

    def leaf(self, values, name: str | None = None, constant: bool = False) -> "Tensor":
        """Create an input node: a parameter, or with constant=True a value with no gradient."""
        return Tensor(_as_matrix(values).copy(), self, name=name, constant=constant)

    def _record(self, t: "Tensor") -> None:
        if self.tracing:
            self._nodes.append(t)

    def release(self) -> None:
        """Drop the operation record once no further sweep is needed.

        Every recorded tensor points back at its tape, so the record forms a
        reference cycle that only the cyclic collector would free; dropping it
        lets each tensor go as soon as the caller lets go of it. The tape
        records nothing afterwards and refuses backward.
        """
        self._nodes = []
        self.tracing = False

    def backward(self, root: "Tensor") -> None:
        """Accumulate d(root)/d(node) into node.grad for every reachable node.

        root must be scalar (1x1). Clears all gradients on the tape first, so
        repeated calls give independent sweeps over the same forward graph.
        """
        if not self.tracing:
            raise ContractError("backward on a non-tracing tape")
        if root.tape is not self:
            raise ContractError("root tensor belongs to a different tape")
        if root.values.shape != (1, 1):
            raise ContractError(f"backward root must be 1x1, got {root.values.shape}")
        for node in self._nodes:
            node.grad = None
        root.grad = np.ones((1, 1), dtype=np.float64)
        for node in reversed(self._nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)


class Tensor:
    """A node on a tape: a matrix value plus the closure that backpropagates it."""

    __slots__ = ("values", "tape", "name", "op", "constant", "grad", "_backward")

    def __init__(
        self,
        values: Array,
        tape: Tape,
        *,
        name: str | None = None,
        op: str = "leaf",
        backward: Callable[[Array], None] | None = None,
        constant: bool = False,
    ):
        self.values = values
        self.tape = tape
        self.name = name
        self.op = op
        self.constant = constant
        self.grad: Array | None = None
        self._backward = backward
        if not constant:  # nothing flows into a constant, so no sweep visits it
            tape._record(self)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def __repr__(self) -> str:
        label = self.name or self.op
        return f"Tensor({label}, shape={self.values.shape})"

    def __matmul__(self, other):
        return matmul(self, other)


def _accumulate(t: Tensor, g: Array) -> None:
    if t.constant:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ContractError("operands recorded on different tapes")
    return tape


def _unary(x: Tensor, out: Array, op: str, back: Callable[[Array], Array]) -> Tensor:
    def backward(g: Array) -> None:
        _accumulate(x, back(g))

    return Tensor(_ensure_finite(out, op), x.tape, op=op, backward=backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul mismatch: {a.shape} @ {b.shape}")
    out = _ensure_finite(a.values @ b.values, "matmul")

    def backward(g: Array) -> None:
        if not a.constant:
            _accumulate(a, g @ b.values.T)
        if not b.constant:
            _accumulate(b, a.values.T @ g)

    return Tensor(out, tape, op="matmul", backward=backward)


def spmm(mat: sp.spmatrix, x: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a tensor: out = mat @ x."""
    if mat.shape[1] != x.shape[0]:
        raise DimensionError(f"spmm mismatch: {mat.shape} @ {x.shape}")
    mat = mat.tocsr()
    out = _ensure_finite(np.asarray(mat @ x.values), "spmm")
    if x.constant:
        return Tensor(out, x.tape, op="spmm", constant=True)

    def backward(g: Array) -> None:
        _accumulate(x, np.asarray(mat.T @ g))

    return Tensor(out, x.tape, op="spmm", backward=backward)


def _binary_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    _same_tape(a, b)
    if a.shape != b.shape:
        raise DimensionError(f"{op} needs equal shapes, got {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_same_shape(a, b, "add")
    out = _ensure_finite(a.values + b.values, "add")

    def backward(g: Array) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return Tensor(out, a.tape, op="add", backward=backward)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _binary_same_shape(a, b, "subtract")
    out = _ensure_finite(a.values - b.values, "subtract")

    def backward(g: Array) -> None:
        _accumulate(a, g)
        _accumulate(b, -g)

    return Tensor(out, a.tape, op="subtract", backward=backward)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _binary_same_shape(a, b, "hadamard")
    out = _ensure_finite(a.values * b.values, "hadamard")

    def backward(g: Array) -> None:
        if not a.constant:
            _accumulate(a, g * b.values)
        if not b.constant:
            _accumulate(b, g * a.values)

    return Tensor(out, a.tape, op="hadamard", backward=backward)


def divide(a: Tensor, b: Tensor) -> Tensor:
    _binary_same_shape(a, b, "divide")
    if np.any(b.values == 0.0):
        raise DomainError("divide by zero")
    out = _ensure_finite(a.values / b.values, "divide")

    def backward(g: Array) -> None:
        _accumulate(a, g / b.values)
        _accumulate(b, -g * a.values / (b.values * b.values))

    return Tensor(out, a.tape, op="divide", backward=backward)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _unary(x, x.values * c, "scale", lambda g: g * c)


def add_const(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _unary(x, x.values + c, "add-const", lambda g: g)


def broadcast_scale(x: Tensor, s: Tensor) -> Tensor:
    """Multiply a matrix by a 1x1 tensor (both receive gradients)."""
    _same_tape(x, s)
    if s.shape != (1, 1):
        raise DimensionError(f"broadcast_scale factor must be 1x1, got {s.shape}")
    out = _ensure_finite(x.values * s.values[0, 0], "broadcast-scale")

    def backward(g: Array) -> None:
        _accumulate(x, g * s.values[0, 0])
        _accumulate(s, np.array([[np.sum(g * x.values)]]))

    return Tensor(out, x.tape, op="broadcast-scale", backward=backward)


def broadcast_add(x: Tensor, s: Tensor) -> Tensor:
    """Add a 1x1 tensor to every entry of a matrix."""
    _same_tape(x, s)
    if s.shape != (1, 1):
        raise DimensionError(f"broadcast_add term must be 1x1, got {s.shape}")
    out = _ensure_finite(x.values + s.values[0, 0], "broadcast-add")

    def backward(g: Array) -> None:
        _accumulate(x, g)
        _accumulate(s, np.array([[np.sum(g)]]))

    return Tensor(out, x.tape, op="broadcast-add", backward=backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= x.shape[0]):
        raise DimensionError(f"slice [{start}:{stop}] out of range for {x.shape}")
    out = x.values[start:stop].copy()

    def back(g: Array) -> Array:
        gx = np.zeros_like(x.values)
        gx[start:stop] = g
        return gx

    return _unary(x, out, "slice-rows", back)


def _scatter_rows(index: Array, values: Array, num_rows: int) -> Array:
    """out[index[e]] += values[e] for e in order, as one flattened bincount.

    bincount adds its weights in input order starting from zero, the order of
    an unbuffered ufunc add.at, so the result is bitwise equal to one.
    """
    k = values.shape[1]
    flat = (index[:, None] * k + np.arange(k)).ravel()
    out = np.bincount(flat, weights=values.ravel(), minlength=num_rows * k)
    return out.reshape(num_rows, k)


def gather_rows(x: Tensor, index: Array) -> Tensor:
    """Select rows by integer index (repeats allowed); backward scatter-adds."""
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise DimensionError("gather index must be 1-D")
    if index.size and (index.min() < 0 or index.max() >= x.shape[0]):
        raise DimensionError("gather index out of range")
    out = x.values[index].copy()

    return _unary(x, out, "gather-rows", lambda g: _scatter_rows(index, g, x.shape[0]))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def sum_all(x: Tensor) -> Tensor:
    out = np.array([[np.sum(x.values)]])
    return _unary(x, out, "sum-all", lambda g: np.full_like(x.values, g[0, 0]))


def mean_all(x: Tensor) -> Tensor:
    n = x.values.size
    out = np.array([[np.sum(x.values) / n]])
    return _unary(x, out, "mean-all", lambda g: np.full_like(x.values, g[0, 0] / n))


def row_sum(x: Tensor) -> Tensor:
    """Sum each row to a column vector (n,k) -> (n,1)."""
    out = x.values.sum(axis=1, keepdims=True)
    return _unary(x, out, "row-sum", lambda g: np.repeat(g, x.shape[1], axis=1))


# ---------------------------------------------------------------------------
# Elementwise nonlinearities
# ---------------------------------------------------------------------------


def sigmoid_values(v: Array) -> Array:
    """Elementwise logistic 1 / (1 + e^-v) on a plain array, without overflow."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ez = np.exp(v[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    v = x.values
    out = np.where(v > 0, v, slope * v)
    return _unary(x, out, "leaky-relu", lambda g: g * np.where(v > 0, 1.0, slope))


def elu(x: Tensor) -> Tensor:
    v = x.values
    out = np.where(v > 0, v, np.expm1(np.minimum(v, 0.0)))
    return _unary(x, out, "elu", lambda g: g * np.where(v > 0, 1.0, out + 1.0))


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x) computed without overflow: max(x,0) + log1p(e^-|x|)."""
    v = x.values
    out = np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))

    return _unary(x, out, "softplus", lambda g: g * sigmoid_values(v))


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

    return _unary(x, out, "sqrt", back)


# ---------------------------------------------------------------------------
# Segment operations (grouped rows, used by attention and pooling)
# ---------------------------------------------------------------------------


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

    return _unary(x, _ensure_finite(out, "segment-softmax"), "segment-softmax", back)


# ---------------------------------------------------------------------------
# Edge-weighted sparse product (message passing with per-edge weights)
# ---------------------------------------------------------------------------


def edge_spmm(weights: Tensor, x: Tensor, pattern: sp.csr_matrix) -> Tensor:
    """out = A(w) @ x, where A has the fixed CSR pattern and the entry weights w (nnz,1).

    w[p] is the weight at CSR position p: row r for indptr[r] <= p < indptr[r+1],
    column indices[p]; the pattern's own data is not read. The backward gives
    dx = A(w)^T g and dw_p = g[r] . x[indices[p]]; the rows x[indices] are
    gathered once, by the first sweep over this graph.
    """
    _same_tape(weights, x)
    if weights.shape != (pattern.nnz, 1):
        raise DimensionError(f"edge weights must be ({pattern.nnz},1), got {weights.shape}")
    if x.shape[0] != pattern.shape[1]:
        raise DimensionError(f"edge_spmm mismatch: {pattern.shape} @ {x.shape}")
    mat = sp.csr_matrix(
        (weights.values[:, 0], pattern.indices, pattern.indptr), shape=pattern.shape
    )
    out = _ensure_finite(mat @ x.values, "edge-spmm")
    neighbors = None

    def backward(g: Array) -> None:
        nonlocal neighbors
        if neighbors is None:
            neighbors = x.values[pattern.indices]
        # g[r] for each position: row r repeated once per entry of that row
        dw = np.einsum("ij,ij->i", np.repeat(g, np.diff(pattern.indptr), axis=0), neighbors)
        _accumulate(weights, dw[:, None])
        _accumulate(x, mat.T @ g)

    return Tensor(out, x.tape, op="edge-spmm", backward=backward)


# ---------------------------------------------------------------------------
# Fused sparse quadratic form
# ---------------------------------------------------------------------------


def pair_trace_values(z: Array, rows: Array, cols: Array, weights: Array) -> float:
    """sum_p w_p ||z[rows_p] - z[cols_p]||_2^2 on plain arrays."""
    diff = z[rows] - z[cols]
    return float(np.sum(weights * np.sum(diff * diff, axis=1)))


def quadratic_pair_form(z: Tensor, pairs: SimilaritySet) -> Tensor:
    """sum_p w_p * ||z[i_p] - z[j_p]||_2^2 over the set's unordered pairs, as a scalar.

    This is Tr(Z^T L Z) for the Laplacian L = D - S of the same pairs. The
    forward sums pair by pair (pair_trace_values, the expression of
    metrics.trace_form); the backward is the one sparse product 2 g L Z on the
    set's own CSR matrix and degree vector (graph.laplacian_apply), so the
    dense Laplacian is never materialized.
    """
    if z.shape[0] != pairs.n:
        raise DimensionError(f"pair set over {pairs.n} nodes, embeddings have {z.shape[0]} rows")
    out = np.array([[pair_trace_values(z.values, *pairs.pair_arrays())]])

    def back(g: Array) -> Array:
        return (2.0 * g[0, 0]) * laplacian_apply(pairs, z.values)

    return _unary(z, _ensure_finite(out, "quadratic-pair-form"), "quadratic-pair-form", back)

