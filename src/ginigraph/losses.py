"""The training objectives and their differentiable surrogates.

- utility: mean binary cross-entropy of node logits on an index set, computed
  through softplus so large logits cannot overflow.
- smoothness: the similarity-weighted Laplacian quadratic form
  sum_pairs w ||z_i - z_j||_2^2, which the trainer takes, together with the
  per-group traces, from autodiff.quadratic_pair_forms: one pass over the
  pairs per epoch, and each trace's gradient 2 L Z one sparse product.
- tail surrogates: smooth stand-ins that focus on the largest pairwise gaps
  instead of their mean (softmax weighting with a temperature, or the mean of
  the top fraction of gaps), on the gap column of autodiff.pair_gaps.
- group welfare: a Nash-social-welfare style penalty on per-group smoothness
  traces; each ordered pair (g, h) contributes -(t_g/t_h - 1)(t_h/t_g - 1),
  which is (r - 1)^2 / r >= 0 for the ratio r, zero iff the traces match.
  It takes the trace tensors, so a caller can read them off the tape as well.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ContractError, DomainError
from .graph import SimilaritySet

Array = np.ndarray

TRACE_FLOOR = 1e-8


def utility_loss(logits: Tensor, labels: Array, index: Array, tape: Tape) -> Tensor:
    """Mean BCE over index: y softplus(-z) + (1 - y) softplus(z)."""
    index = np.asarray(index, dtype=np.int64)
    if index.size == 0:
        raise ContractError("utility loss over an empty index set")
    y = np.asarray(labels, dtype=np.float64)[index]
    if np.any((y != 0.0) & (y != 1.0)):
        raise DomainError("utility loss needs binary labels on the index set")
    z = ad.gather_rows(logits, index)
    y_pos = tape.leaf(y[:, None], "y", constant=True)
    y_neg = tape.leaf((1.0 - y)[:, None], "1-y", constant=True)
    terms = ad.add(
        ad.hadamard(y_pos, ad.softplus(ad.scale(z, -1.0))),
        ad.hadamard(y_neg, ad.softplus(z)),
    )
    return ad.mean_all(terms)


def surrogate_loss(
    z: Tensor,
    similarity: SimilaritySet,
    mode: str,
    temperature: float = 1.0,
    fraction: float = 0.05,
) -> Tensor:
    """Smooth emphasis on the worst pairwise gaps.

    softmax: sum_p softmax(gap/temperature)_p * gap_p, a soft maximum that
    approaches the largest gap as temperature -> 0.
    topk: mean of the ceil(fraction * P) largest gaps; the selection is made
    on forward values, the selected gaps stay differentiable.
    """
    gaps = ad.pair_gaps(z, similarity)
    if mode == "softmax":
        if temperature <= 0:
            raise ContractError("temperature must be positive")
        weights = ad.softmax(ad.scale(gaps, 1.0 / temperature))
        return ad.sum_all(ad.hadamard(weights, gaps))
    if mode == "topk":
        if not 0 < fraction <= 1:
            raise ContractError("fraction must be in (0, 1]")
        k = max(1, math.ceil(fraction * gaps.shape[0]))
        largest = np.argsort(-gaps.values[:, 0], kind="stable")[:k]
        return ad.mean_all(ad.gather_rows(gaps, largest))
    raise ContractError(f"unknown surrogate mode '{mode}' (softmax or topk)")


# ---------------------------------------------------------------------------
# Group welfare
# ---------------------------------------------------------------------------


def group_welfare_loss(group_traces: list[Tensor]) -> Tensor:
    """Nash-welfare penalty on trace ratios, averaged over ordered group pairs.

    group_traces are the per-group traces of autodiff.quadratic_pair_forms;
    each gets TRACE_FLOOR added first, so a group with no spread cannot
    divide by zero.
    """
    m = len(group_traces)
    if m < 2:
        raise ContractError("group welfare needs at least two groups")
    traces = [ad.add_const(t, TRACE_FLOOR) for t in group_traces]
    total: Tensor | None = None
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            forward = ad.add_const(ad.divide(traces[i], traces[j]), -1.0)
            backward = ad.add_const(ad.divide(traces[j], traces[i]), -1.0)
            term = ad.hadamard(forward, backward)
            total = term if total is None else ad.add(total, term)
    return ad.scale(total, -1.0 / (m * (m - 1)))


def combine_losses(terms: list[Tensor], betas) -> Tensor:
    """Weighted sum beta_1 L_1 + ... over matching lists."""
    if len(terms) != len(betas) or not terms:
        raise ContractError("terms and betas must align and be nonempty")
    total = ad.scale(terms[0], float(betas[0]))
    for term, beta in zip(terms[1:], betas[1:]):
        total = ad.add(total, ad.scale(term, float(beta)))
    return total
