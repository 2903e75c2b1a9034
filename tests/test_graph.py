"""Graph container, similarity sets, and file-format tests."""

from __future__ import annotations

import re
import tracemalloc
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginigraph import autodiff as ad
from ginigraph import graph as graph_module
from ginigraph.errors import (
    ConfigError, ContractError, DataFormatError, DimensionError, DomainError,
)
from ginigraph.graph import (
    _SELECT_ROWS,
    Graph,
    GroupPartition,
    SimilaritySet,
    attr_similarity,
    build_similarity,
    graph_summary,
    laplacian_apply,
    load_graph,
    normalized_adjacency,
    read_edge_list,
    read_embedding_csv,
    read_feature_table,
    read_json,
    read_partition_csv,
    read_scores_csv,
    read_similarity_csv,
    split_nodes,
    topo_similarity,
    write_edge_list,
    write_embedding_csv,
    write_feature_table,
    write_graph,
    write_partition_csv,
    write_scores_csv,
    write_similarity_csv,
)
from ginigraph.losses import utility_loss
from ginigraph.metrics import compute_report, equal_opportunity_gap, f1_score, rank_auc
from ginigraph.models import load_checkpoint
from ginigraph.sweep import SweepSpec
from ginigraph.trainer import EpochRecord, TrainConfig, train, write_training_log

from conftest import build_random_graph, build_random_similarity


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------


def test_graph_validation_rejects_bad_edges():
    base = dict(features=np.zeros((3, 2)), labels=[0, 1, 1], sensitive=[0, 0, 1])
    with pytest.raises(ContractError, match="out of range"):
        Graph(edges=[[0, 3]], **base)
    with pytest.raises(ContractError, match="i < j"):
        Graph(edges=[[2, 1]], **base)
    with pytest.raises(ContractError, match="i < j"):
        Graph(edges=[[1, 1]], **base)
    for edges in ([[0, 1], [0, 1]], [[0, 1], [1, 2], [0, 1]]):
        with pytest.raises(ContractError, match="duplicate"):
            Graph(edges=edges, **base)
    empty = Graph(edges=np.zeros((0, 2)), **base).adjacency()
    assert empty.shape == (3, 3) and empty.nnz == 0 and empty.dtype == np.float64


def test_graph_masks_must_be_disjoint():
    with pytest.raises(ContractError):
        Graph(
            edges=[[0, 1]],
            features=np.zeros((3, 2)),
            labels=[0, 1, 1],
            sensitive=[0, 0, 1],
            train_mask=[0, 1],
            val_mask=[1],
        )


def _utility_loss_at(index):
    tape = ad.Tape()
    logits = tape.leaf(np.array([[0.5], [-1.0], [2.0], [0.0]]))
    return utility_loss(logits, [0, 1, 1, 0], index).values


# Each public index argument over n = 4 nodes, as a call on the index.
INDEX_ENTRY_POINTS = {
    "gather_rows": lambda index: ad.gather_rows(
        ad.Tape().leaf(np.arange(8.0).reshape(4, 2)), index
    ).values,
    "utility_loss": _utility_loss_at,
    "graph_mask": lambda index: Graph(
        edges=[[0, 1]], features=np.zeros((4, 2)), labels=[0, 1, 1, 0], sensitive=[0, 0, 1, 1],
        train_mask=index,
    ).train_mask,
    "similarity_restrict": lambda index: SimilaritySet(
        4, [0, 1, 2], [1, 2, 3], [0.5, 0.6, 0.7]
    ).restrict(index).matrix.toarray(),
    "partition_restrict": lambda index: GroupPartition([0, 1, 0, 1]).restrict(index).group_ids,
}


def _index_outcome(call, index):
    """The bytes a call returns, or the class and message of the ContractError it raises."""
    try:
        return "value", call(index).tobytes()
    except ContractError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
@pytest.mark.parametrize(
    "index, message",
    [
        (np.array([False, True, False, True]), "integer positions"),
        ([0.9, 2.7], "integer positions"),
        ([1.0, 3.0], "integer positions"),
        ([-1, 0], "out of range"),
        ([0, 4], "out of range"),
        ([[0, 1]], "1-D"),
        ([], None),
        (np.array([3, 1], dtype=np.int32), None),
    ],
    ids=["bool-mask", "float", "integral-float", "minus-one", "n", "2-D", "empty", "int32"],
)
def test_every_index_argument_is_checked_alike(entry, index, message):
    """An int64 array of positions in [0, n), or the site's ContractError class.

    An accepted index (message None) acts as the same positions in int64.
    """
    call = INDEX_ENTRY_POINTS[entry]
    if message is None:
        as_int64 = np.asarray(index, dtype=np.int64)
        assert _index_outcome(call, index) == _index_outcome(call, as_int64)
        return
    error = DimensionError if entry == "gather_rows" else ContractError
    with pytest.raises(error, match=message):
        call(index)


FOUR_ROWS = np.arange(8.0).reshape(4, 2)
FOUR_PAIRS = SimilaritySet(4, [0, 1, 2], [1, 2, 3], [0.5, 0.6, 0.7])


def _train_with_one_group_of(size):
    rng = np.random.default_rng(0)
    graph = Graph(edges=[[0, 1], [1, 2], [2, 3]], features=rng.normal(size=(4, 3)),
                  labels=[0, 1, 1, 0], sensitive=[0, 0, 1, 1])
    config = TrainConfig(hidden=2, pretrain_epochs=1, max_epochs=1, patience=1, top_k=2)
    return train(graph, FOUR_PAIRS, GroupPartition(np.zeros(size, dtype=int)), config)


# Each per-node vector of the wrong length, or a label outside the class set,
# beside 4 logit or embedding rows.
LENGTH_AND_LABEL_CASES = {
    "utility_loss-3-labels": lambda: utility_loss(
        ad.Tape().leaf(FOUR_ROWS[:, :1]), [0, 1, 1], [3]
    ),
    "utility_loss-5-labels": lambda: utility_loss(
        ad.Tape().leaf(FOUR_ROWS[:, :1]), [0, 1, 1, 0, 1], [3]
    ),
    "f1_score-3-scores": lambda: f1_score([0.2, 0.6, 0.9], [0, 1, 1, 0]),
    "equal_opportunity_gap-3-scores": lambda: equal_opportunity_gap(
        [0.2, 0.6, 0.9], [0, 1, 1, 0], [0, 0, 1, 1]
    ),
    "compute_report-2-scores": lambda: compute_report(
        FOUR_ROWS, FOUR_PAIRS, None, scores=[0.2, 0.8], labels=[0, 1, 1, 0]
    ),
    "compute_report-3-node-partition": lambda: compute_report(
        FOUR_ROWS, FOUR_PAIRS, GroupPartition([0, 0, 0]),
        scores=[0.1, 0.9, 0.5, 0.3], labels=[0, 1, 1, 0],
    ),
    "compute_report-label-2": lambda: compute_report(
        FOUR_ROWS, FOUR_PAIRS, None, scores=[0.1, 0.9, 0.5, 0.3], labels=[0, 1, 2, 0]
    ),
    "rank_auc-label-2": lambda: rank_auc([0.1, 0.9, 0.5, 0.3], [0, 1, 2, 0]),
    "train-5-node-partition": lambda: _train_with_one_group_of(5),
}


@pytest.mark.parametrize("case", sorted(LENGTH_AND_LABEL_CASES))
def test_every_label_and_length_argument_is_checked(case):
    """Labels, scores and group ids hold one entry per row, and labels are 0 or 1.

    (compute_report also takes -1 for an unlabeled node.) Before the checks,
    these raised IndexError or ValueError, or returned an AUC of 1.5.
    """
    with pytest.raises(ContractError):
        LENGTH_AND_LABEL_CASES[case]()


def test_adjacency_and_homophily():
    graph = Graph(
        edges=[[0, 1], [1, 2], [0, 3]],
        features=np.zeros((4, 2)),
        labels=[0, 0, 1, -1],
        sensitive=[0, 1, 0, 1],
    )
    adj = graph.adjacency().toarray()
    assert adj[0, 1] == adj[1, 0] == 1.0
    assert adj.sum() == 6.0
    # labeled-both edges: (0,1) same, (1,2) different; (0,3) skipped
    assert graph.homophily() == 0.5


def test_normalized_adjacency_rows_behave():
    graph = Graph(
        edges=[[0, 1]],
        features=np.zeros((2, 1)),
        labels=[0, 1],
        sensitive=[0, 0],
    )
    a_hat = normalized_adjacency(graph.adjacency()).toarray()
    np.testing.assert_allclose(a_hat, np.full((2, 2), 0.5))


def test_normalized_adjacency_is_exactly_symmetric(rng, graph_factory):
    # spmm multiplies by A and A_hat themselves in the backward, as their own
    # transposes: the values and the sum order must both agree
    graph = graph_factory(rng, 30, p=0.2)
    for mat in (graph.adjacency(), normalized_adjacency(graph.adjacency())):
        assert (mat != mat.T).nnz == 0
        g = rng.normal(size=(30, 4))
        assert np.array_equal(mat @ g, mat.T @ g)


def test_split_nodes_covers_labeled_and_is_deterministic(rng):
    labels = np.array([0, 1, -1, 1, 0, 1, -1, 0, 1, 0])
    graph = Graph(
        edges=[[0, 1]],
        features=np.zeros((10, 2)),
        labels=labels,
        sensitive=np.zeros(10, dtype=int),
    )
    train, val, test = split_nodes(graph, seed=3)
    joined = np.sort(np.concatenate([train, val, test]))
    np.testing.assert_array_equal(joined, np.flatnonzero(labels >= 0))
    again = split_nodes(graph, seed=3)
    for a, b in zip((train, val, test), again):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# GroupPartition
# ---------------------------------------------------------------------------


def test_partition_compacts_ids_and_restricts():
    part = GroupPartition.from_values([5, 5, 9, 5, 9])
    assert part.m == 2
    np.testing.assert_array_equal(part.members(0), [0, 1, 3])
    np.testing.assert_array_equal(part.sizes(), [3, 2])
    sub = part.restrict([0, 1, 3])
    assert sub.m == 1  # the 9-group vanished, ids re-compacted
    with pytest.raises(ContractError):
        part.members(2)


# ---------------------------------------------------------------------------
# SimilaritySet
# ---------------------------------------------------------------------------


def test_similarity_set_normalizes_and_validates():
    s = SimilaritySet(4, rows=[2, 0], cols=[1, 3], weights=[0.5, 1.0])
    np.testing.assert_array_equal(s.rows, [0, 1])
    np.testing.assert_array_equal(s.cols, [3, 2])
    np.testing.assert_array_equal(s.matrix[[1, 2, 0, 1], [2, 1, 1, 1]], [[0.5, 0.5, 0.0, 0.0]])
    with pytest.raises(ContractError):
        SimilaritySet(3, [0], [0], [0.5])
    with pytest.raises(ContractError):
        SimilaritySet(3, [0, 1], [1, 0], [0.5, 0.5])
    with pytest.raises(DomainError):
        SimilaritySet(3, [0], [1], [0.0])
    with pytest.raises(DomainError):
        SimilaritySet(3, [0], [1], [1.5])


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_similarity_set_canonical_order_ignores_input_order_and_orientation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < rng.random()
    i, j = i[keep], j[keep]
    w = rng.uniform(0.01, 1.0, size=i.size)
    canonical = SimilaritySet(n, i, j, w)
    order = rng.permutation(i.size)
    swap = rng.random(i.size) < 0.5
    rows, cols = np.where(swap, j, i)[order], np.where(swap, i, j)[order]
    shuffled = SimilaritySet(n, rows, cols, w[order])
    for a, b in (
        (canonical.rows, i), (canonical.cols, j), (canonical.weights, w),
        *((getattr(canonical, name), getattr(shuffled, name))
          for name in ("rows", "cols", "weights", "degree")),
        *((getattr(canonical.matrix, name), getattr(shuffled.matrix, name))
          for name in ("indptr", "indices", "data")),
    ):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if i.size:
        with pytest.raises(ContractError, match="duplicate"):
            SimilaritySet(n, np.append(rows, cols[0]), np.append(cols, rows[0]),
                          np.append(w[order], 0.5))
    empty = SimilaritySet(n, [], [], [])
    assert empty.num_pairs == 0 and empty.matrix.nnz == 0
    assert empty.rows.dtype == np.int64 and not empty.degree.any()


def test_similarity_set_and_graph_reject_non_finite_values():
    with pytest.raises(DomainError):
        SimilaritySet(3, [0], [1], [np.nan])
    for bad in (np.nan, np.inf):
        features = np.zeros((3, 2))
        features[1, 0] = bad
        with pytest.raises(DomainError):
            Graph(edges=[[0, 1]], features=features, labels=[0, 1, 1], sensitive=[0, 0, 1])


def test_similarity_degree_matches_dense(rng):
    s = build_random_similarity(rng, 9)
    dense = s.matrix.toarray()
    np.testing.assert_allclose(s.degree, dense.sum(axis=1))
    i, j = np.nonzero(np.triu(dense, 1))
    round_trip = SimilaritySet(9, i, j, dense[i, j])
    np.testing.assert_array_equal(round_trip.matrix.toarray(), dense)


def test_similarity_restrict_matches_dense_slice(rng):
    s = build_random_similarity(rng, 10)
    index = np.array([1, 3, 4, 8])
    sub = s.restrict(index)
    np.testing.assert_allclose(sub.matrix.toarray(), s.matrix.toarray()[np.ix_(index, index)])


def test_within_pairs_are_the_restricted_pairs_in_global_indices(rng):
    s = build_random_similarity(rng, 12)
    part = GroupPartition.from_values(rng.integers(0, 3, size=12))
    pairs = part.within_pairs(s)
    assert pairs.similarity is s
    assert len(pairs.sets) == len(pairs.selections) == part.m
    stored = (s.rows, s.cols, s.weights)
    for g, (group, selection) in enumerate(zip(pairs.sets, pairs.selections)):
        assert group.n == s.n
        rows, cols, weights = group.rows, group.cols, group.weights
        members = part.members(g)
        sub = s.restrict(members)
        np.testing.assert_array_equal(rows, members[sub.rows])
        np.testing.assert_array_equal(cols, members[sub.cols])
        np.testing.assert_array_equal(weights, sub.weights)
        # the selection picks the same pairs among the stored ones, in order
        for mine, full in zip((rows, cols, weights), stored):
            np.testing.assert_array_equal(mine, full[selection])
    with pytest.raises(ContractError):
        GroupPartition(np.zeros(11, dtype=int)).within_pairs(s)


def test_laplacian_apply_matches_dense(rng):
    s = build_random_similarity(rng, 8)
    z = rng.normal(size=(8, 3))
    dense = s.matrix.toarray()
    lap = np.diag(dense.sum(axis=1)) - dense
    np.testing.assert_allclose(laplacian_apply(s, z), lap @ z, rtol=1e-12)


# ---------------------------------------------------------------------------
# Similarity construction
# ---------------------------------------------------------------------------


def brute_cosine(mat):
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    unit = np.divide(mat, norms, out=np.zeros_like(mat), where=norms > 0)
    cos = unit @ unit.T
    np.fill_diagonal(cos, 0.0)
    return cos


def test_topo_similarity_full_topk_matches_brute_force(rng, graph_factory):
    graph = graph_factory(rng, 12)
    s = topo_similarity(graph, top_k=graph.n)
    cos = brute_cosine(graph.adjacency().toarray())
    expected = np.where(cos > 0, np.minimum(cos, 1.0), 0.0)
    np.testing.assert_allclose(s.matrix.toarray(), expected, atol=1e-12)


def test_topk_keeps_union_of_per_node_selections(rng):
    feats = rng.normal(size=(10, 6))
    k = 2
    s = attr_similarity(feats, top_k=k)
    cos = brute_cosine(feats)
    keep = np.zeros_like(cos, dtype=bool)
    for i in range(10):
        order = np.argsort(-cos[i])
        chosen = [j for j in order if cos[i, j] > 0][:k]
        keep[i, chosen] = True
    keep |= keep.T
    expected = np.where(keep, np.maximum(cos, 0.0), 0.0)
    np.testing.assert_allclose(s.matrix.toarray(), expected, atol=1e-12)


# Integer features in {-1, 0, 1}: many exact cosine ties, several at a row's
# top-k boundary, and negative cosines. The pairs were recorded from the dense
# top-k union with numpy's argpartition; for k=4 they differ from a
# stable-sort tie rule, so this pins which tied neighbour each row keeps.
TIE_FEATURES = [
    [1, -1, -1], [-1, -1, 1], [1, 0, -1], [-1, -1, 0], [0, 0, -1], [-1, 1, 1], [-1, -1, 0],
    [0, 1, 0], [0, 0, 0], [0, -1, 1], [1, 1, 1], [-1, -1, 0], [0, 1, 1], [-1, 1, -1],
    [-1, 1, 1], [-1, -1, -1],
]
TIE_PAIRS = {
    2: (
        [0, 0, 1, 1, 1, 2, 3, 3, 3, 3, 4, 5, 5, 5, 6, 6, 7, 7, 7, 10, 12],
        [2, 4, 3, 6, 9, 4, 6, 9, 11, 15, 13, 7, 12, 14, 11, 15, 10, 12, 13, 12, 14],
    ),
    4: (
        [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 7, 7,
         7, 7, 9, 10, 10, 11, 12, 13],
        [2, 4, 6, 15, 3, 5, 6, 9, 11, 14, 4, 13, 15, 6, 9, 11, 15, 13, 15, 7, 10, 12, 13, 14, 9,
         11, 15, 10, 12, 13, 14, 11, 12, 14, 15, 14, 14],
    ),
}


@pytest.mark.parametrize("k", sorted(TIE_PAIRS))
def test_topk_ties_keep_the_recorded_pairs(k):
    feats = np.array(TIE_FEATURES, dtype=np.float64)
    s = attr_similarity(feats, top_k=k)
    rows, cols = TIE_PAIRS[k]
    np.testing.assert_array_equal(s.rows, rows)
    np.testing.assert_array_equal(s.cols, cols)
    np.testing.assert_allclose(s.weights, brute_cosine(feats)[rows, cols], atol=1e-12)


def test_attr_similarity_ignores_masked_columns(rng):
    feats = rng.normal(size=(8, 5))
    altered = feats.copy()
    altered[:, 2] = rng.normal(size=8) * 100
    a = attr_similarity(feats, top_k=8, masked_columns=(2,))
    b = attr_similarity(altered, top_k=8, masked_columns=(2,))
    np.testing.assert_allclose(a.matrix.toarray(), b.matrix.toarray())
    with pytest.raises(ContractError):
        attr_similarity(feats, top_k=8, masked_columns=(7,))


def test_zero_feature_rows_produce_no_pairs():
    feats = np.zeros((4, 3))
    feats[0] = [1.0, 0.0, 0.0]
    s = attr_similarity(feats, top_k=4)
    assert s.num_pairs == 0


def test_attr_similarity_rejects_non_finite_features():
    for bad in (np.nan, np.inf, -np.inf):
        feats = np.random.default_rng(0).normal(size=(6, 3))
        feats[2] = bad
        with pytest.raises(DomainError, match="finite"):
            attr_similarity(feats, top_k=2)


def test_top_k_must_be_a_positive_integer(rng, graph_factory):
    graph = graph_factory(rng, 8)
    for similarity in (lambda k: topo_similarity(graph, k),
                       lambda k: attr_similarity(graph.features, k)):
        for bad in (2.5, 2.0, True, False, "2", None, 0, -1, np.int64(0)):
            with pytest.raises(ContractError, match="top_k"):
                similarity(bad)
        for good in (np.int64(2), np.int32(2)):
            got, want = similarity(good), similarity(2)
            for name in ("rows", "cols", "weights"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_dense_limit_refuses_one_node_more(monkeypatch):
    monkeypatch.setattr(graph_module, "DENSE_SIMILARITY_LIMIT", 6)
    rng = np.random.default_rng(1)
    for n, allowed in ((6, True), (7, False)):
        graph = build_random_graph(rng, n, p=0.5)
        for run in (lambda: topo_similarity(graph, 3),
                    lambda: attr_similarity(graph.features, 3)):
            if allowed:
                assert run().n == n
            else:
                with pytest.raises(ContractError, match="up to 6 nodes"):
                    run()


def test_single_node_similarity_has_no_pairs():
    graph = Graph(edges=np.zeros((0, 2)), features=[[1.0, 2.0]], labels=[0], sensitive=[0])
    for s in (topo_similarity(graph, 5), attr_similarity(graph.features, 5)):
        assert s.n == 1 and s.num_pairs == 0 and s.matrix.shape == (1, 1)


def one_shot_topk_union(vectors, top_k):
    """The top-k union with one argpartition over the whole negated score matrix."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    unit = vectors / np.where(norms > 0, norms, 1.0)
    scores = unit @ unit.T
    n = scores.shape[0]
    np.fill_diagonal(scores, 0.0)
    scores[scores <= 0.0] = 0.0
    k = min(top_k, n - 1)
    rows = np.repeat(np.arange(n), k)
    cols = np.argpartition(-scores, kth=k - 1, axis=1)[:, :k].ravel()
    picked = scores[rows, cols] > 0.0
    rows, cols = rows[picked], cols[picked]
    i, j = np.divmod(np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols)), n)
    return i, j, np.minimum(scores[i, j], 1.0)


@pytest.mark.parametrize("k", ["1", "3", "10", "n-1"])
def test_row_blocked_topk_matches_one_shot_selection(k):
    rng = np.random.default_rng(4)
    n = int(2.5 * _SELECT_ROWS) + 9  # three blocks, the last one partial
    top_k = n - 1 if k == "n-1" else int(k)
    graph = build_random_graph(rng, n, dim=3, p=0.02)
    ties = rng.integers(-1, 2, size=(n, 3)).astype(np.float64)
    # 8 and 16 columns, the widths of the SBM features and the audited
    # embeddings, at an n that is no multiple of 8: there OpenBLAS rounds a
    # row block's product unit[blk] @ unit.T differently from the one full
    # product, so a blocked attr product would move weights and pairs here
    wide = [rng.normal(size=(n, d)) for d in (8, 16)]
    cases = [
        (topo_similarity(graph, top_k), graph.adjacency().toarray()),
        (attr_similarity(ties, top_k), ties),
        (attr_similarity(graph.features, top_k), graph.features),
        *((attr_similarity(feats, top_k), feats) for feats in wide),
    ]
    for s, vectors in cases:
        for got, want in zip((s.rows, s.cols, s.weights), one_shot_topk_union(vectors, top_k)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_topo_similarity_holds_no_more_than_two_n_by_n_arrays():
    n = 1500
    graph = build_random_graph(np.random.default_rng(0), n, p=0.05)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        topo_similarity(graph, 10)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8


def test_build_similarity_dispatches_on_mode(rng, graph_factory):
    graph = graph_factory(rng, 12)
    for built, direct in (
        (build_similarity(graph, "topo", 3), topo_similarity(graph, 3)),
        (
            build_similarity(graph, "attr", 3, masked_columns=(0,)),
            attr_similarity(graph.features, 3, (0,)),
        ),
    ):
        for name in ("rows", "cols", "weights"):
            np.testing.assert_array_equal(getattr(built, name), getattr(direct, name))
    with pytest.raises(ConfigError):
        build_similarity(graph, "cosine", 3)
    with pytest.raises(ConfigError, match="attr mode only"):
        build_similarity(graph, "topo", 3, masked_columns=(99,))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_topo_similarity_is_symmetric_in_storage(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 15))
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < 0.4
    if not keep.any():
        keep[0] = True
    graph = Graph(
        edges=np.column_stack([i[keep], j[keep]]),
        features=rng.normal(size=(n, 3)),
        labels=rng.integers(0, 2, size=n),
        sensitive=np.zeros(n, dtype=int),
    )
    s = topo_similarity(graph, top_k=3)
    assert np.all(s.rows < s.cols)
    assert np.all(s.weights > 0) and np.all(s.weights <= 1.0)
    dense = s.matrix.toarray()
    np.testing.assert_array_equal(dense, dense.T)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def test_edge_list_round_trip_and_dedup(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# comment\n0 1\n2 1   # trailing comment\n1 0\n3 3\n\n2 4\n")
    edges, dropped = read_edge_list(path, 5)
    np.testing.assert_array_equal(edges, [[0, 1], [1, 2], [2, 4]])
    assert dropped == 2  # one duplicate (1 0) and one self-loop (3 3)
    write_edge_list(path, edges)
    again, dropped2 = read_edge_list(path, 5)
    np.testing.assert_array_equal(again, edges)
    assert dropped2 == 0


def test_edge_list_rejects_malformed_lines(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1 2\n")
    with pytest.raises(DataFormatError, match=":1"):
        read_edge_list(path, 30)
    path.write_text("0 x\n")
    with pytest.raises(DataFormatError):
        read_edge_list(path, 30)
    path.write_text("-1 2\n")
    with pytest.raises(DataFormatError):
        read_edge_list(path, 30)


def test_edge_list_parse_edge_cases(tmp_path, rng):
    path = tmp_path / "edges.txt"
    path.write_text("0 1 2\n1 2 3\n")  # every line has three columns
    with pytest.raises(DataFormatError, match=":1: expected 'i j'"):
        read_edge_list(path, 30)
    path.write_text("0 1\n# comment\n\n2 3 4\n")
    with pytest.raises(DataFormatError, match=":4: expected 'i j'"):
        read_edge_list(path, 30)
    path.write_text("0 1\n1 99999999999999999999\n")
    with pytest.raises(DataFormatError, match=":2: node id exceeds int64"):
        read_edge_list(path, 30)
    for text in ("1.5 2\n", "1e3 2\n"):  # numpy would parse these through a float
        path.write_text("0 1\n" + text)
        with pytest.raises(DataFormatError, match=":2: non-integer endpoint"):
            read_edge_list(path, 30)
    for text in ("1_0 2\n", "\u0662 3\n"):  # int() reads these, numpy does not
        path.write_text("0 1\n" + text)
        with pytest.raises(DataFormatError, match=":2: node ids must be plain decimal integers"):
            read_edge_list(path, 30)
    for text in ("# only a comment\n\n", ""):
        path.write_text(text)
        edges, dropped = read_edge_list(path, 30)
        assert edges.shape == (0, 2) and edges.dtype == np.int64 and dropped == 0
    path.write_text("3 3\n4 4\n")
    edges, dropped = read_edge_list(path, 30)
    assert edges.shape == (0, 2) and dropped == 2
    # random lines with repeats, reversals and self-loops against a set of pairs
    raw = rng.integers(0, 30, size=(400, 2))
    path.write_text("".join(f"{a}\t{b}  # e\n" for a, b in raw))
    kept = sorted({(min(a, b), max(a, b)) for a, b in raw.tolist() if a != b})
    edges, dropped = read_edge_list(path, 30)
    np.testing.assert_array_equal(edges, kept)
    assert dropped == len(raw) - len(kept)


def test_feature_table_round_trip(tmp_path, rng):
    path = tmp_path / "features.csv"
    feats = rng.normal(size=(5, 3))
    labels = np.array([0, 1, -1, 1, 0])
    sens = np.array([0, 1, 1, 0, 0])
    write_feature_table(path, feats, labels, sens)
    f2, l2, s2 = read_feature_table(path)
    np.testing.assert_array_equal(f2, feats)  # 17 significant digits round-trip
    np.testing.assert_array_equal(l2, labels)
    np.testing.assert_array_equal(s2, sens)


def test_feature_table_rejects_bad_rows(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("id,label,sensitive,f0\n0,2,0,1.0\n")
    with pytest.raises(DataFormatError, match="label"):
        read_feature_table(path)
    path.write_text("id,label,sensitive,f0\n0,1,0,1.0\n0,0,0,2.0\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        read_feature_table(path)
    path.write_text("id,label,sensitive,f0\n1,1,0,1.0\n")
    with pytest.raises(DataFormatError, match="cover"):
        read_feature_table(path)
    path.write_text("node,label,sensitive,f0\n")
    with pytest.raises(DataFormatError, match="header"):
        read_feature_table(path)
    for row in ("0,1,0,1_0.5", "\u0660,1,0,1.0"):  # int() and float() read both
        path.write_text(f"id,label,sensitive,f0\n{row}\n")
        with pytest.raises(DataFormatError, match=":2: malformed field"):
            read_feature_table(path)


def test_load_graph_checks_edge_bounds(tmp_path, rng):
    write_feature_table(tmp_path / "features.csv", rng.normal(size=(3, 2)), [0, 1, 1], [0, 0, 1])
    (tmp_path / "edges.txt").write_text("0 1\n0 5\n")
    with pytest.raises(DataFormatError, match=":2: node id 5 exceeds the largest id 2"):
        load_graph(tmp_path / "edges.txt", tmp_path / "features.csv")
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
    graph, dropped = load_graph(tmp_path / "edges.txt", tmp_path / "features.csv")
    assert graph.n == 3 and graph.num_edges == 2 and dropped == 0
    summary = graph_summary(graph)
    assert summary["nodes"] == 3 and summary["labeled_nodes"] == 3


def test_write_graph_round_trips_through_load_graph(tmp_path, rng, graph_factory):
    graph = graph_factory(rng, 7)
    write_graph(tmp_path / "new" / "dir", graph)
    loaded, dropped = load_graph(tmp_path / "new" / "dir" / "edges.txt",
                                 tmp_path / "new" / "dir" / "features.csv")
    assert dropped == 0
    for name in ("edges", "features", "labels", "sensitive"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(graph, name))


def test_similarity_csv_round_trip_is_exact(tmp_path, rng):
    s = build_random_similarity(rng, 7)
    path = tmp_path / "sim.csv"
    write_similarity_csv(path, s)
    s2 = read_similarity_csv(path, 7)
    np.testing.assert_array_equal(s.rows, s2.rows)
    np.testing.assert_array_equal(s.cols, s2.cols)
    np.testing.assert_array_equal(s.weights, s2.weights)
    with pytest.raises(DataFormatError):
        read_similarity_csv(path, 3)  # index out of range for smaller n


def test_embedding_csv_round_trip(tmp_path, rng):
    z = rng.normal(size=(6, 4))
    path = tmp_path / "emb.csv"
    write_embedding_csv(path, z)
    np.testing.assert_array_equal(read_embedding_csv(path), z)


# -0, a tiny and the largest double, and a value that needs all 17 digits
MAX = 1.7976931348623157e308
EXTREMES_CSV = "-0,1e-300,1.7976931348623157e+308,0.10000000000000001"
EDGE_HEADER = "# i j (0-based, one undirected edge per line)"
NAN = float("nan")
LOG_ROWS = [
    EpochRecord(0, -0.0, 1e-300, MAX, 0.1, 1.0, 1.9, NAN, 0.5, NAN),
    EpochRecord(1, 1.0, 2.0, 3.0, 1 / 3, 1.0, 1.0, 0.75, 1e-300, 2.5),
]

# Each writer: its call, the exact text it writes, and a reader with the
# arrays it must give back bit for bit (None for the training log).
WRITERS = {
    "edges": (
        lambda path: write_edge_list(path, [[0, 1], [0, 3], [2, 3]]),
        f"{EDGE_HEADER}\n0 1\n0 3\n2 3\n",
        lambda path: read_edge_list(path, 4)[:1],
        (np.array([[0, 1], [0, 3], [2, 3]]),),
    ),
    "features": (
        lambda path: write_feature_table(
            path, [[-0.0, 1e-300], [MAX, 0.1]], [1, -1], [0, 2]
        ),
        "id,label,sensitive,f0,f1\n0,1,0,-0,1e-300\n"
        "1,-1,2,1.7976931348623157e+308,0.10000000000000001\n",
        read_feature_table,
        (np.array([[-0.0, 1e-300], [MAX, 0.1]]), np.array([1, -1]), np.array([0, 2])),
    ),
    "similarity": (
        lambda path: write_similarity_csv(path, SimilaritySet(3, [1, 0], [2, 2], [1e-300, 0.1])),
        "i,j,weight\n0,2,0.10000000000000001\n1,2,1e-300\n",
        lambda path: attrgetter("rows", "cols", "weights")(read_similarity_csv(path, 3)),
        (np.array([0, 1]), np.array([2, 2]), np.array([0.1, 1e-300])),
    ),
    "similarity-empty": (
        lambda path: write_similarity_csv(path, SimilaritySet(3, [], [], [])),
        "i,j,weight\n",
        lambda path: attrgetter("rows", "cols", "weights")(read_similarity_csv(path, 3)),
        (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)),
    ),
    "embedding": (
        lambda path: write_embedding_csv(path, [[-0.0, 1e-300, MAX, 0.1]]),
        f"id,e0,e1,e2,e3\n0,{EXTREMES_CSV}\n",
        lambda path: (read_embedding_csv(path),),
        (np.array([[-0.0, 1e-300, MAX, 0.1]]),),
    ),
    "scores": (
        lambda path: write_scores_csv(path, [-0.0, 1e-300, MAX, 0.1]),
        "id,score\n" + "".join(f"{i},{v}\n" for i, v in enumerate(EXTREMES_CSV.split(","))),
        lambda path: (read_scores_csv(path),),
        (np.array([-0.0, 1e-300, MAX, 0.1]),),
    ),
    "partition": (
        lambda path: write_partition_csv(path, [1, 0, 2, 1]),
        "id,group\n0,1\n1,0\n2,2\n3,1\n",
        lambda path: (read_partition_csv(path).group_ids,),
        (np.array([1, 0, 2, 1]),),
    ),
    "training-log": (
        lambda path: write_training_log(path, LOG_ROWS),
        "epoch,l1,l2,l3,beta1,beta2,beta3,val_auc,if_value,gd\n"
        "0,-0,1e-300,1.7976931348623157e+308,0.10000000000000001,1,1.8999999999999999,nan,0.5,nan\n"
        "1,1,2,3,0.33333333333333331,1,1,0.75,1e-300,2.5\n",
        None,
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writers_write_exact_bytes_that_read_back_bitwise(tmp_path, name):
    write, text, read, values = WRITERS[name]
    path = tmp_path / "table"
    write(path)
    assert path.read_bytes() == text.encode()
    for a, b in zip(read(path), values, strict=True) if read else ():
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_partition_codes_are_read_as_exact_integers(tmp_path):
    path = tmp_path / "groups.csv"
    # 2**53 + 1 has no float64 of its own: read through a float it becomes 2**53
    path.write_text("id,group\n0,9007199254740993\n1,9007199254740992\n2,9007199254740993\n")
    np.testing.assert_array_equal(read_partition_csv(path).group_ids, [1, 0, 1])
    path.write_text("id,group\n0,1.5\n1,0\n")
    with pytest.raises(DataFormatError, match=":2: malformed field"):
        read_partition_csv(path)


# Each id-keyed table: its header, a row template, its reader, and what it says
# of a nan or inf value (the group column holds integers, which have none).
ID_TABLES = {
    "features": ("id,label,sensitive,f0", "{i},1,0,{v}", read_feature_table, "non-finite"),
    "embedding": ("id,e0", "{i},{v}", read_embedding_csv, "non-finite"),
    "scores": ("id,score", "{i},{v}", read_scores_csv, "non-finite"),
    "partition": ("id,group", "{i},{v}", read_partition_csv, "malformed field"),
}


@pytest.mark.parametrize("table", sorted(ID_TABLES))
@pytest.mark.parametrize(
    "rows, reason",
    [
        ([(0, "1"), (1, "2"), (1, "5")], "duplicate"),
        ([(0, "1"), (1, "nan")], "non-finite"),
        ([(0, "-inf"), (1, "1")], "non-finite"),
        ([], "no data rows"),
    ],
    ids=["repeated-id", "nan", "inf", "header-only"],
)
def test_id_tables_reject_repeats_non_finite_values_and_empty_tables(
    tmp_path, table, rows, reason
):
    header, row, reader, non_finite = ID_TABLES[table]
    path = tmp_path / f"{table}.csv"
    path.write_text("\n".join([header] + [row.format(i=i, v=v) for i, v in rows]) + "\n")
    with pytest.raises(DataFormatError, match=non_finite if reason == "non-finite" else reason):
        reader(path)


def test_tables_sort_rows_by_id_and_name_the_bad_line(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("id,e0,e1\n1,3.0,4.0\n\n0,1.0,2.0\n")
    np.testing.assert_array_equal(read_embedding_csv(path), [[1.0, 2.0], [3.0, 4.0]])
    path.write_text("id,e0,e1\n0,1.0,2.0\n\n1,3.0\n")
    with pytest.raises(DataFormatError, match=":4: expected 3 fields, got 2"):
        read_embedding_csv(path)
    path.write_text("id , score\n1,0.5\n0,0.25\n")
    np.testing.assert_array_equal(read_scores_csv(path), [0.25, 0.5])
    path.write_text("i,j,weight\n0,1,0.5\n0,99999999999999999999,0.5\n")
    with pytest.raises(DataFormatError, match="out of range"):
        read_similarity_csv(path, 3)
    path.write_text("i,j,weight\n0,1,nan\n")
    with pytest.raises(DataFormatError, match=":2: non-finite"):
        read_similarity_csv(path, 3)


# Every reader of an input file, with a valid input for it and the errors it
# may raise. A file that is not UTF-8 must end in DataFormatError (exit 4);
# any other mutation of it must end in one of the reader's errors: a data file
# in DataFormatError, a settings file also in ConfigError (exit 2).
SETTINGS_ERRORS = (DataFormatError, ConfigError)
FILE_READERS = {
    "features": (
        "id,label,sensitive,f0,f1\n0,0,0,0.5,-1\n1,1,1,2,0\n2,-1,0,1e-3,3\n",
        read_feature_table,
        DataFormatError,
    ),
    "embedding": ("id,e0,e1\n0,0.5,-1\n1,2,0\n2,1e-3,3\n", read_embedding_csv, DataFormatError),
    "similarity": (
        "i,j,weight\n0,1,0.5\n1,2,1\n",
        lambda path: read_similarity_csv(path, 3),
        DataFormatError,
    ),
    "scores": ("id,score\n0,0.25\n1,0.5\n2,0.75\n", read_scores_csv, DataFormatError),
    "partition": ("id,group\n0,1\n1,0\n2,1\n", read_partition_csv, DataFormatError),
    "edges": (
        "# i j\n0 1\n1 2 # comment\n0 2\n", lambda path: read_edge_list(path, 3), DataFormatError
    ),
    "config": (
        '{"seed": 3, "max_epochs": 5, "attention": false, "beta2": 0.5}',
        lambda path: read_json(path, TrainConfig.from_json_dict),
        SETTINGS_ERRORS,
    ),
    "spec": (
        '{"beta2": [0.5, 1], "base_seed": 2, "config": {"hidden": 4}, "sbm": {"block_sizes": [9]}}',
        lambda path: read_json(path, SweepSpec.from_json_dict),
        SETTINGS_ERRORS,
    ),
    "checkpoint": (
        '{"format": "ginigraph-checkpoint v3", "variant": "gcn", "attention": false,'
        ' "backbone": {"W1": [[0.5]], "W2": [[-1.0]], "b_out": [[0.0]], "w_out": [[2.0]]},'
        ' "fair": {"W": [[1e-3]], "a": [[0.25], [-0.5]], "b_out": [[0.0]], "w_out": [[3.0]]}}',
        load_checkpoint,
        DataFormatError,
    ),
}


@pytest.mark.parametrize("name", sorted(FILE_READERS))
def test_readers_name_the_path_of_a_non_utf8_file(tmp_path, name):
    text, read, _ = FILE_READERS[name]
    path = tmp_path / "input"
    path.write_bytes(text.encode()[:10] + b"\xff" + text.encode()[10:])
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: not UTF-8")):
        read(path)


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@pytest.mark.parametrize("name", sorted(FILE_READERS))
@given(edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_mutated_input_files_raise_only_domain_errors(mutation_dir, name, edits):
    text, read, errors = FILE_READERS[name]
    data = bytearray(text.encode())
    for position, byte in edits:
        data[position % len(data)] = byte
    path = mutation_dir / name
    path.write_bytes(bytes(data))
    try:
        read(path)
    except SETTINGS_ERRORS as exc:
        assert isinstance(exc, errors)
