"""Robustness harness perturbations: homophily rewiring and feature noise."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DomainError, check_int
from .graph import Graph

Array = np.ndarray

REWIRE_RETRIES = 20


@dataclass(frozen=True)
class RewireResult:
    """Rewired graph plus bookkeeping: how many edges changed vs were kept."""

    graph: Graph
    rewired: int
    kept: int


def check_rho(rho: float) -> None:
    """ContractError unless rho, the share of edges to rewire, lies in [0, 1]."""
    if not 0.0 <= rho <= 1.0:
        raise ContractError("rho must lie in [0, 1]")


def check_sigma(sigma: float) -> None:
    """DomainError unless sigma, the noise scale, is finite and nonnegative."""
    if not 0.0 <= sigma < np.inf:
        raise DomainError(f"sigma must be finite and nonnegative, got {sigma!r}")


def rewire_homophily(graph: Graph, rho: float, seed: int = 0) -> RewireResult:
    """Replace one endpoint of floor(rho * |E|) random edges with a same-label node.

    For each selected edge one endpoint (chosen at random) is kept as the
    source; the other is replaced by a node drawn uniformly among nodes whose
    label matches the source's. Draws that would create a self-loop or a
    duplicate edge are rejected up to 20 times, after which the edge is kept
    unchanged and counted. The edge count never changes.
    """
    check_rho(rho)
    check_int(seed, "seed")
    edges = graph.edges.copy()
    m = edges.shape[0]
    budget = math.floor(rho * m)
    if budget == 0:
        return RewireResult(graph=replace(graph, edges=edges), rewired=0, kept=0)
    rng = np.random.default_rng(seed)
    selected = rng.choice(m, size=budget, replace=False)
    edge_set = {(int(i), int(j)) for i, j in edges}
    by_label: dict[int, Array] = {
        int(lbl): np.flatnonzero(graph.labels == lbl) for lbl in np.unique(graph.labels)
    }
    rewired = kept = 0
    for e in selected:
        u, v = int(edges[e, 0]), int(edges[e, 1])
        source = u if rng.integers(2) == 0 else v
        candidates = by_label[int(graph.labels[source])]
        placed = False
        for _ in range(REWIRE_RETRIES):
            cand = int(candidates[rng.integers(candidates.size)])
            if cand == source:
                continue
            new_edge = (min(source, cand), max(source, cand))
            if new_edge in edge_set:
                continue
            edge_set.discard((u, v))
            edge_set.add(new_edge)
            edges[e] = new_edge
            placed = True
            break
        if placed:
            rewired += 1
        else:
            kept += 1
    return RewireResult(graph=replace(graph, edges=edges), rewired=rewired, kept=kept)


def perturb_noise(features: Array, sigma: float, seed: int = 0) -> Array:
    """Additive elementwise Gaussian noise; sigma = 0 returns the input unchanged."""
    check_sigma(sigma)
    check_int(seed, "seed")
    features = np.asarray(features, dtype=np.float64)
    if not np.isfinite(features).all():
        raise DomainError("features must be finite")
    if sigma == 0.0:
        return features.copy()
    rng = np.random.default_rng(seed)
    noised = features + rng.normal(0.0, sigma, size=features.shape)
    if not np.all(np.isfinite(noised)):
        raise DomainError(f"sigma {sigma!r} overflows the features to infinity")
    return noised
