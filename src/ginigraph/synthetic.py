"""Desk-scale synthetic benchmark: a stochastic block model with planted
labels, label/group-correlated features, and an imbalanced sensitive group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, check_field_types, check_int
from .graph import Graph, split_nodes

Array = np.ndarray


@dataclass(frozen=True)
class SbmSpec:
    """Generator settings; defaults give the 1000-node benchmark graph.

    Labels follow block parity (block_id mod 2). Features are unit Gaussian
    noise with the label written onto column 0 and the sensitive group onto
    column 1, at the given signal strengths. sensitive_ratio is the
    majority-group share (0.78 -> 78:22, exact up to rounding).

    group_mix sets how strongly the minority group concentrates in the
    highest-index blocks: that fraction of the minority fills blocks from the
    last one backwards, and the remainder spreads over the other blocks in
    proportion to their sizes. Real sensitive attributes correlate with
    community structure, and that correlation is what lets a model act on
    group-level geometry; a block-independent minority leaves no such handle.
    With the default sizes the minority exactly occupies the two small
    blocks, one per class label.

    label_noise flips that fraction of labels after features are drawn, so
    the flipped nodes contradict both their community and their features.
    That keeps classification imperfect (real benchmarks sit near AUC
    0.75-0.9) and leaves the utility loss with a persistent gradient instead
    of letting it converge to zero.
    """

    block_sizes: tuple[int, ...] = (390, 390, 110, 110)
    p_within: float = 0.1
    p_between: float = 0.02
    feature_dim: int = 8
    label_signal: float = 1.0
    group_signal: float = 0.6
    sensitive_ratio: float = 0.78
    group_mix: float = 1.0
    label_noise: float = 0.1

    def validate(self) -> None:
        check_field_types(self, ContractError)
        if len(self.block_sizes) < 1 or min(self.block_sizes) <= 0:
            raise ContractError("block sizes must be positive")
        for p in (self.p_within, self.p_between):
            if not 0.0 <= p <= 1.0:
                raise ContractError("edge probabilities must lie in [0, 1]")
        if self.feature_dim < 2:
            raise ContractError("need at least 2 feature dimensions")
        if not 0.0 < self.sensitive_ratio < 1.0:
            raise ContractError("sensitive_ratio must lie in (0, 1)")
        if not 0.0 <= self.group_mix <= 1.0:
            raise ContractError("group_mix must lie in [0, 1]")
        if not 0.0 <= self.label_noise < 0.5:
            raise ContractError("label_noise must lie in [0, 0.5)")

    @property
    def n(self) -> int:
        return int(sum(self.block_sizes))

    def expected_edges(self) -> float:
        """Sum of p * pairs over block pairs."""
        sizes = np.asarray(self.block_sizes, dtype=np.float64)
        within = float(np.sum(sizes * (sizes - 1) / 2.0)) * self.p_within
        total_pairs = self.n * (self.n - 1) / 2.0
        between = (total_pairs - float(np.sum(sizes * (sizes - 1) / 2.0))) * self.p_between
        return within + between


def _assign_sensitive(spec: SbmSpec, rng: np.random.Generator) -> Array:
    """Exact-count minority assignment, packed into the highest-index blocks."""
    sizes = np.asarray(spec.block_sizes, dtype=np.int64)
    n = int(sizes.sum())
    minority_total = min(int(round(n * (1.0 - spec.sensitive_ratio))), n)

    counts = np.zeros(sizes.size, dtype=np.int64)
    packed = int(round(spec.group_mix * minority_total))
    for block in range(sizes.size - 1, -1, -1):
        take = min(packed, int(sizes[block]))
        counts[block] = take
        packed -= take
        if packed <= 0:
            break
    rest = minority_total - int(counts.sum())
    free = sizes - counts
    if rest > 0 and free.sum() > 0:
        share = free.astype(np.float64) / float(free.sum())
        extra = np.minimum(np.floor(rest * share).astype(np.int64), free)
        counts += extra
        rest -= int(extra.sum())
    block = 0
    while rest > 0:  # rounding remainder; minority_total <= n guarantees room
        if counts[block] < sizes[block]:
            counts[block] += 1
            rest -= 1
        block = (block + 1) % sizes.size

    sensitive = np.zeros(n, dtype=np.int64)
    start = 0
    for block, size in enumerate(sizes):
        members = rng.choice(int(size), size=int(counts[block]), replace=False)
        sensitive[start + members] = 1
        start += int(size)
    return sensitive


# Pairs per rng.random call when drawing the upper triangle: consecutive calls
# give the same stream as one call over all n(n-1)/2 pairs, and blocks of this
# size keep the draw's memory at a few MB instead of the n²/2 pair arrays.
_PAIR_BLOCK = 1 << 16


def _draw_edges(blocks: Array, p_within: float, p_between: float, rng) -> Array:
    """Each upper-triangle pair (i < j) is an edge with its block pair's probability.

    The pairs are drawn in np.triu_indices order, in blocks of whole rows
    holding at most _PAIR_BLOCK pairs (or one row).
    """
    n = blocks.size
    chosen = [np.empty((0, 2), dtype=np.int64)]
    row = 0
    while row < n - 1:
        stop = min(n - 1, row + max(1, _PAIR_BLOCK // (n - 1 - row)))
        i, j = np.triu_indices(stop - row, k=1, m=n - row)
        i += row
        j += row
        p = np.where(blocks[i] == blocks[j], p_within, p_between)
        hit = rng.random(p.size) < p
        chosen.append(np.column_stack([i[hit], j[hit]]).astype(np.int64))
        row = stop
    return np.concatenate(chosen)


def sbm_generate(spec: SbmSpec, seed: int = 0) -> Graph:
    """Sample one benchmark graph, including a 50/25/25 labeled split."""
    spec.validate()
    rng = np.random.default_rng(check_int(seed, "seed"))
    n = spec.n
    blocks = np.repeat(np.arange(len(spec.block_sizes)), spec.block_sizes)
    labels = blocks % 2

    sensitive = _assign_sensitive(spec, rng)

    features = rng.normal(0.0, 1.0, size=(n, spec.feature_dim))
    features[:, 0] += spec.label_signal * (2.0 * labels - 1.0)
    features[:, 1] += spec.group_signal * (2.0 * sensitive - 1.0)

    # flips happen after the feature draw: a flipped node keeps community and
    # feature evidence for its old class, making its label irreducibly noisy
    flip = rng.random(n) < spec.label_noise
    labels = np.where(flip, 1 - labels, labels)

    edges = _draw_edges(blocks, spec.p_within, spec.p_between, rng)

    graph = Graph(edges=edges, features=features, labels=labels, sensitive=sensitive)
    train, val, test = split_nodes(graph, seed)
    return replace(graph, train_mask=train, val_mask=val, test_mask=test)
