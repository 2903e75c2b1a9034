"""Shared builders for random graphs and similarity sets."""

from __future__ import annotations

import contextlib
import warnings

import numpy as np
import pytest

from ginigraph.graph import Graph, SimilaritySet

# hypothesis reports a failing example through this module, whose import
# (libcst -> mypy_extensions.TypedDict) raises a DeprecationWarning; under the
# error::DeprecationWarning filter that would end the session in INTERNALERROR
# instead of a failure report, so it is imported once here with that warning
# ignored for this import only. Without libcst (not a test dependency)
# hypothesis skips that report, and there is nothing to import.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def build_random_similarity(
    rng: np.random.Generator, n: int, density: float = 0.5
) -> SimilaritySet:
    """Random symmetric similarity set with at least one stored pair."""
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < density
    if not np.any(keep):
        keep[int(rng.integers(i.size))] = True
    weights = rng.uniform(0.05, 1.0, size=int(keep.sum()))
    return SimilaritySet(n, i[keep], j[keep], weights)


def build_random_graph(
    rng: np.random.Generator, n: int, dim: int = 4, p: float = 0.3
) -> Graph:
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < p
    if not np.any(keep):
        keep[0] = True
    edges = np.column_stack([i[keep], j[keep]])
    labels = rng.integers(0, 2, size=n)
    return Graph(
        edges=edges,
        features=rng.normal(size=(n, dim)),
        labels=labels,
        sensitive=rng.integers(0, 2, size=n),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def similarity_factory():
    return build_random_similarity


@pytest.fixture
def graph_factory():
    return build_random_graph
