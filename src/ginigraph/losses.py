"""The training objectives.

- utility: mean binary cross-entropy of node logits on an index set, computed
  through softplus so large logits cannot overflow.
- smoothness, the one individual fairness term: InFoRM's similarity-weighted
  Laplacian quadratic form Tr(Z^T L Z) = sum_pairs w ||z_i - z_j||_2^2, which
  the trainer takes, together with the per-group traces, from
  autodiff.quadratic_pair_forms: one pass over the pairs per epoch, and each
  trace's gradient 2 L Z one sparse product.
- group welfare: a Nash-social-welfare style penalty on per-group smoothness
  traces; each ordered pair (g, h) contributes -(t_g/t_h - 1)(t_h/t_g - 1),
  which is (r - 1)^2 / r >= 0 for the ratio r, zero iff the traces match.
  It takes the trace tensors, so a caller can read them off the tape as well.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DomainError, check_index, check_length

Array = np.ndarray

TRACE_FLOOR = 1e-8


def utility_loss(logits: Tensor, labels: Array, index: Array) -> Tensor:
    """Mean BCE over index: softplus(s z) with the sign s = 1 - 2y.

    For binary y that is y softplus(-z) + (1 - y) softplus(z), term by term.
    labels holds one entry per logit row.
    """
    index = check_index(index, logits.shape[0])
    if index.size == 0:
        raise ContractError("utility loss over an empty index set")
    y = check_length(labels, logits.shape[0], "labels").astype(np.float64)[index]
    if np.any((y != 0.0) & (y != 1.0)):
        raise DomainError("utility loss needs binary labels on the index set")
    sign = logits.tape.leaf((1.0 - 2.0 * y)[:, None], "1-2y", constant=True)
    return ad.mean_all(ad.softplus(ad.hadamard(sign, ad.gather_rows(logits, index))))


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
