"""Reverse-mode automatic differentiation on float64 numpy matrices.

Every value is a 2-D float64 array (scalars are 1x1). A Tape records the
operations of one forward pass in creation order; Tape.backward walks the
record in reverse and accumulates gradients into every reachable node, so a
single forward graph supports several backward sweeps (each sweep resets the
stored gradients first).

A leaf made with constant=True (input features, labels, fixed similarities)
never receives a gradient: the ops skip computing the gradient of a constant
operand.

A tape has one mode: it records every op. A forward pass that needs no
sweep (an evaluation) runs on a plain Tape and releases it when done.
Every operation checks its output for NaN/Inf and raises NumericalError on
the first non-finite entry, which is how training detects divergence.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, DimensionError, DomainError, NumericalError, check_index
from .graph import GroupPairs, SimilaritySet, laplacian_apply

Array = np.ndarray

LEAKY_SLOPE = 0.2  # attention_aggregate's negative slope, GAT's fixed value


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
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values produced by op '{op}'")
    return arr


class Tape:
    """Operation record for one forward pass."""

    def __init__(self):
        self.tracing = True
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
            raise ContractError("backward on a released tape")
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
    """Add g to t's gradient; the first write stores a copy of g.

    g must have t's shape exactly: a copy, unlike an add into zeros, would
    keep a broadcastable shape such as (1, 1) instead of refusing it.
    """
    if t.constant:
        return
    if g.shape != t.values.shape:
        raise ContractError(f"gradient of shape {g.shape} for a value of shape {t.values.shape}")
    if t.grad is None:
        t.grad = g.copy()
    else:
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


def spmm(mat: sp.csr_matrix, x: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a tensor: out = mat @ x.

    The backward multiplies by mat.T, a CSC view over mat's own arrays, so
    no sweep copies the matrix.
    """
    if mat.shape[1] != x.shape[0]:
        raise DimensionError(f"spmm mismatch: {mat.shape} @ {x.shape}")
    out = _ensure_finite(np.asarray(mat @ x.values), "spmm")

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
    index = check_index(index, x.shape[0], DimensionError, "gather index")
    out = np.take(x.values, index, axis=0)

    return _unary(x, out, "gather-rows", lambda g: _scatter_rows(index, g, x.shape[0]))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def mean_all(x: Tensor) -> Tensor:
    n = x.values.size
    out = np.array([[np.sum(x.values) / n]])
    return _unary(x, out, "mean-all", lambda g: np.full_like(x.values, g[0, 0] / n))


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


def elu(x: Tensor) -> Tensor:
    v = x.values
    out = np.where(v > 0, v, np.expm1(np.minimum(v, 0.0)))
    slope = None

    def back(g: Array) -> Array:
        nonlocal slope
        if slope is None:  # built by the first sweep, reused by the others
            slope = np.where(v > 0, 1.0, out + 1.0)
        return g * slope

    return _unary(x, out, "elu", back)


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x) computed without overflow: max(x,0) + log1p(e^-|x|)."""
    v = x.values
    out = np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))

    return _unary(x, out, "softplus", lambda g: g * sigmoid_values(v))


# ---------------------------------------------------------------------------
# Similarity-gated attention: one fused op on a per-run plan
# ---------------------------------------------------------------------------


class AttentionPlan:
    """The per-run constants of attention over a symmetric message pattern.

    edges is the pattern's canonical CSR: entry p is the message i <- j, with
    i the row of p, j = indices[p] and the gate S_ij = data[p]. It must be
    symmetric, with no empty row. Built once, the plan holds:

    - centers (the row of each entry), counts (entries per row) and gates;
    - transpose, the permutation that puts edges^T's entry q at edges' entry
      transpose[q]; the pattern is symmetric, so edges^T has edges' indptr and
      indices, and weighted(w[transpose]) is the transpose of weighted(w);
    - center_sum and neighbour_sum, n x E selection matrices: center_sum @ v
      sums v over each row's entries and neighbour_sum @ v over each column's,
      in entry order, so bitwise equal to a bincount;
    - uniform, the weights 1/count on each row's entries: the head's product
      when attention is off.
    """

    def __init__(self, edges: sp.csr_matrix):
        n, nnz = edges.shape[0], edges.nnz
        self.edges = edges
        self.counts = np.diff(edges.indptr)
        self.centers = np.repeat(np.arange(n), self.counts)
        self.gates = edges.data
        self.transpose = np.lexsort((self.centers, edges.indices))
        if not (
            np.all(self.counts > 0)
            and np.array_equal(edges.indices[self.transpose], self.centers)
            and np.array_equal(self.centers[self.transpose], edges.indices)
        ):
            raise ContractError("attention needs a canonical symmetric pattern with no empty row")
        ones = np.ones(nnz)
        self.center_sum = sp.csr_matrix((ones, np.arange(nnz), edges.indptr), shape=(n, nnz))
        self.neighbour_sum = sp.csr_matrix((ones, self.transpose, edges.indptr), shape=(n, nnz))
        self.uniform = self.weighted((1.0 / self.counts)[self.centers])

    def weighted(self, weights: Array) -> sp.csr_matrix:
        """The pattern with entry p weighted by weights[p]."""
        edges = self.edges
        return sp.csr_matrix((weights, edges.indices, edges.indptr), shape=edges.shape)


def attention_aggregate(t: Tensor, a: Tensor, plan: AttentionPlan) -> Tensor:
    """A(alpha) t: the rows of t aggregated over the plan's pattern with attention weights.

    Entry (i, j) scores LeakyReLU((t a_c)_i + (t a_n)_j) * S_ij, with
    a = [a_c; a_n] (GAT's decomposed form of a^T [t_i || t_j]) and the
    negative slope LEAKY_SLOPE; alpha is the softmax of the scores over each
    row. The forward and every gradient are bitwise those of the chain of
    separate ops: gathers, add, LeakyReLU, the gate product, a segment
    softmax and the weighted sparse product.
    """
    _same_tape(t, a)
    h = t.shape[1]
    if a.shape != (2 * h, 1):
        raise DimensionError(f"score vector must have shape ({2 * h}, 1), got {a.shape}")
    if t.shape[0] != plan.edges.shape[0]:
        raise DimensionError(f"attention over {plan.edges.shape[0]} nodes, got {t.shape[0]} rows")
    edges, centers, indices = plan.edges, plan.centers, plan.edges.indices
    a_c, a_n = a.values[:h].copy(), a.values[h:].copy()
    u = np.take((t.values @ a_c).ravel(), centers) + np.take((t.values @ a_n).ravel(), indices)
    slope_factor = np.where(u > 0, 1.0, LEAKY_SLOPE)
    score = np.where(u > 0, u, LEAKY_SLOPE * u) * plan.gates
    shifted = np.exp(score - np.take(np.maximum.reduceat(score, edges.indptr[:-1]), centers))
    alpha = shifted / np.take(plan.center_sum @ shifted, centers)
    out = _ensure_finite(plan.weighted(alpha) @ t.values, "attention")
    neighbours = transposed = None

    def backward(g: Array) -> None:
        nonlocal neighbours, transposed
        if neighbours is None:  # built by the first sweep, reused by the others
            neighbours = np.take(t.values, indices, axis=0)
            transposed = plan.weighted(np.take(alpha, plan.transpose))
        # g[i] for each entry: row i repeated once per entry of that row
        d_alpha = np.einsum("ij,ij->i", np.take(g, centers, axis=0), neighbours)
        d_score = alpha * (d_alpha - np.take(plan.center_sum @ (alpha * d_alpha), centers))
        d_u = d_score * plan.gates * slope_factor
        d_center = (plan.center_sum @ d_u).reshape(-1, 1)
        d_neighbour = (plan.neighbour_sum @ d_u).reshape(-1, 1)
        _accumulate(a, np.vstack([t.values.T @ d_center, t.values.T @ d_neighbour]))
        _accumulate(t, transposed @ g + d_neighbour @ a_n.T + d_center @ a_c.T)

    return Tensor(out, t.tape, op="attention", backward=backward)


# ---------------------------------------------------------------------------
# Laplacian quadratic forms over pair sets
# ---------------------------------------------------------------------------


def pair_trace_values(z: Array, pairs: SimilaritySet, selections=()) -> list[float]:
    """Traces sum_p w_p ||z[i_p] - z[j_p]||_2^2 on plain arrays, from one pass over the pairs.

    The first sums over all of the set's stored pairs; one more follows per
    selection (an index array over the stored pairs), each summing only the
    selected pairs' terms, in stored order.
    """
    diff = np.take(z, pairs.rows, axis=0) - np.take(z, pairs.cols, axis=0)
    terms = pairs.weights * np.sum(diff * diff, axis=1)
    return [float(np.sum(terms))] + [float(np.sum(terms[s])) for s in selections]


def quadratic_pair_forms(
    z: Tensor, pairs: SimilaritySet, groups: GroupPairs | None = None
) -> list[Tensor]:
    """Tr(Z^T L Z) over the set's pairs, then over each group's pairs, as 1x1 tensors.

    groups is GroupPartition.within_pairs(pairs): trace g sums the stored
    pairs groups.selections[g] picks. One pass forms every pair's term
    (pair_trace_values, the expression of metrics.trace_form); each trace's
    backward is the one sparse product 2 g L Z on its own set's CSR matrix
    and degree vector (graph.laplacian_apply), so the dense Laplacian is
    never materialized.
    """
    if z.shape[0] != pairs.n:
        raise DimensionError(f"pair set over {pairs.n} nodes, embeddings have {z.shape[0]} rows")
    if groups is not None and groups.similarity is not pairs:
        raise ContractError("group pairs were selected from another similarity set")
    selections, subsets = (groups.selections, groups.sets) if groups is not None else ((), ())
    values = pair_trace_values(z.values, pairs, selections)

    def trace(value: float, subset: SimilaritySet) -> Tensor:
        out = _ensure_finite(np.array([[value]]), "quadratic-pair-form")
        return _unary(z, out, "quadratic-pair-form",
                      lambda g: (2.0 * g[0, 0]) * laplacian_apply(subset, z.values))

    return [trace(v, subset) for v, subset in zip(values, (pairs, *subsets))]
