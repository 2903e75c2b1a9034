"""Fairness and utility metric tests.

The two five-node embedding fixtures below were worked out by hand: under a
uniform 0.5 similarity over all node pairs, both share the same worst-case
smoothness constant (19.5, attained at the hub/leaf pair) while their weighted
L1 gap totals differ (168 vs 174 over ordered pairs), so their Gini values
separate (168/440 vs 174/470).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata
from hypothesis import given, settings
from hypothesis import strategies as st

import ginigraph
from ginigraph.clustering import kmeans
from ginigraph.errors import ContractError, DomainError, GiniGraphError
from ginigraph.graph import GroupPartition, SimilaritySet
from ginigraph.metrics import (
    MetricsReport,
    _average_ranks,
    average_gdif,
    compute_report,
    embedding_gini,
    equal_opportunity_gap,
    f1_score,
    gdif,
    group_ginis,
    group_traces,
    lipschitz_constant,
    rank_auc,
    trace_form,
)
from ginigraph.perturb import perturb_noise

from conftest import build_random_similarity

HUB_LEAF_Z1 = np.array(
    [
        [10.0, 10.0, 10.0, 10.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)
HUB_LEAF_Z2 = np.array(
    [
        [10.0, 10.0, 10.0, 10.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, 2.0],
    ]
)


def uniform_similarity(n: int = 5, weight: float = 0.5) -> SimilaritySet:
    i, j = np.triu_indices(n, k=1)
    return SimilaritySet(n, i, j, np.full(i.size, weight))


def ordered_l1_numerator(similarity: SimilaritySet, z: np.ndarray) -> float:
    diff = z[similarity.rows] - z[similarity.cols]
    return 2.0 * float(np.sum(similarity.weights * np.abs(diff).sum(axis=1)))


# ---------------------------------------------------------------------------
# Worked five-node fixture
# ---------------------------------------------------------------------------


def test_lipschitz_matches_hand_computation_for_both_embeddings():
    s = uniform_similarity()
    assert abs(lipschitz_constant(s, HUB_LEAF_Z1, delta=0.0) - 19.5) < 1e-9
    assert abs(lipschitz_constant(s, HUB_LEAF_Z2, delta=0.0) - 19.5) < 1e-9


def test_gini_numerators_separate_where_lipschitz_cannot():
    s = uniform_similarity()
    num1 = ordered_l1_numerator(s, HUB_LEAF_Z1)
    num2 = ordered_l1_numerator(s, HUB_LEAF_Z2)
    assert num1 == 168.0
    assert num2 == 174.0
    assert num1 != num2


def test_gini_values_match_hand_computation():
    s = uniform_similarity()
    np.testing.assert_allclose(embedding_gini(s, HUB_LEAF_Z1), 168.0 / 440.0, atol=1e-12)
    np.testing.assert_allclose(embedding_gini(s, HUB_LEAF_Z2), 174.0 / 470.0, atol=1e-12)


def test_lipschitz_empty_set_and_delta_guard():
    empty = SimilaritySet(3, [], [], [])
    assert lipschitz_constant(empty, np.ones((3, 2))) == 0.0
    with pytest.raises(DomainError):
        lipschitz_constant(uniform_similarity(), HUB_LEAF_Z1, delta=-1e-3)


# ---------------------------------------------------------------------------
# Trace form
# ---------------------------------------------------------------------------


def test_trace_form_matches_dense_laplacian(rng):
    s = build_random_similarity(rng, 12)
    z = rng.normal(size=(12, 4))
    dense = s.matrix.toarray()
    lap = np.diag(dense.sum(axis=1)) - dense
    np.testing.assert_allclose(trace_form(s, z), np.trace(z.T @ lap @ z), rtol=1e-10)


def test_trace_form_zero_for_constant_embedding(rng):
    s = build_random_similarity(rng, 6)
    z = np.tile(rng.normal(size=(1, 3)), (6, 1))
    assert trace_form(s, z) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Gini properties
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_gini_in_unit_interval_and_scale_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    s = build_random_similarity(rng, n)
    z = rng.normal(size=(n, int(rng.integers(1, 5))))
    if np.sum(np.abs(z)) == 0.0:
        return
    g = embedding_gini(s, z)
    assert 0.0 <= g <= 1.0
    # ||z_i - z_j||_1 <= ||z_i||_1 + ||z_j||_1, up to rounding at equality
    assert g <= s.degree.max() / n * (1 + 1e-12)
    for c in (0.25, 3.0, 1e6):
        assert abs(embedding_gini(s, c * z) - g) < 1e-10


def test_gini_zero_for_identical_rows_and_error_for_zero_mass(rng):
    s = build_random_similarity(rng, 5)
    z = np.tile(rng.normal(size=(1, 3)), (5, 1))
    assert embedding_gini(s, z) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        embedding_gini(s, np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# Disparity ratios
# ---------------------------------------------------------------------------


@given(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_gdif_at_least_one_and_symmetric(a, b):
    r = gdif(a, b)
    assert r >= 1.0
    assert r == gdif(b, a)
    af = max(a, 1e-12)
    bf = max(b, 1e-12)
    if abs(af - bf) > 1e-9 * max(af, bf):
        assert r > 1.0


def test_gdif_equality_iff_equal_inputs():
    assert gdif(2.5, 2.5) == 1.0
    assert gdif(0.0, 0.0) == 1.0  # both floored to the same tiny value
    assert gdif(1.0, 2.0) == 2.0
    with pytest.raises(DomainError):
        gdif(-1.0, 2.0)


@pytest.mark.parametrize("a, b", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, -np.inf)])
def test_gdif_rejects_non_finite_statistics(a, b):
    with pytest.raises(DomainError):
        gdif(a, b)


def test_average_gdif_fixture_and_contract():
    np.testing.assert_allclose(average_gdif([1.0, 2.0, 4.0]), 8.0 / 3.0, rtol=1e-15)
    assert average_gdif([3.0, 3.0]) == 1.0
    with pytest.raises(ContractError):
        average_gdif([1.0])


def test_group_statistics_match_manual_restriction(rng):
    s = build_random_similarity(rng, 10)
    z = rng.normal(size=(10, 3)) + 1.0
    part = GroupPartition.from_values(np.array([0, 0, 0, 1, 1, 1, 1, 0, 0, 1]))
    traces = group_traces(s, z, part)
    ginis = group_ginis(s, z, part)
    for g in range(2):
        members = part.members(g)
        sub = s.restrict(members)
        assert traces[g] == trace_form(sub, z[members])
        assert ginis[g] == embedding_gini(sub, z[members])


# ---------------------------------------------------------------------------
# Utility metrics
# ---------------------------------------------------------------------------


def test_rank_auc_fixture():
    auc = rank_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert auc == pytest.approx(0.75, abs=1e-15)


def brute_auc(scores, labels):
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    wins = ties = 0
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (pos.size * neg.size)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_rank_auc_matches_pair_counting(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = np.round(rng.normal(size=n), 1)  # coarse rounding forces ties
    np.testing.assert_allclose(
        rank_auc(scores, labels), brute_auc(scores, labels), rtol=1e-12
    )


def test_rank_auc_requires_both_classes():
    with pytest.raises(DomainError):
        rank_auc([0.2, 0.4], [1, 1])


SPECIAL_SCORES = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -2.5, 1e-300])


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_average_ranks_equal_scipy_rankdata_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    scores = np.round(rng.normal(size=n), 1)  # ties
    special = rng.random(n) < 0.4
    scores[special] = SPECIAL_SCORES[rng.integers(0, SPECIAL_SCORES.size, size=int(special.sum()))]
    ranks = _average_ranks(scores)
    assert ranks.dtype == np.float64
    assert ranks.tobytes() == rankdata(scores).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rank_auc_refuses_a_non_finite_score(bad):
    with pytest.raises(ContractError, match="scores must be finite numbers"):
        rank_auc([bad, 0.5, 0.2, 0.1], [0, 1, 0, 1])


def test_importing_the_cli_loads_no_scipy_stats():
    # scipy.stats took most of a process's start-up time and import memory
    src = str(Path(ginigraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, ginigraph.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_f1_score_fixture_and_degenerate():
    # pred = [1, 0, 1, 1]; labels = [1, 1, 0, 1] -> tp=2 fp=1 fn=1
    assert f1_score([0.9, 0.2, 0.7, 0.6], [1, 1, 0, 1]) == pytest.approx(2 * 2 / 6)
    assert f1_score([0.1, 0.2], [0, 0]) == 0.0


def test_equal_opportunity_gap_fixture_and_warnings():
    scores = np.array([0.9, 0.8, 0.2, 0.9, 0.1, 0.3])
    labels = np.array([1, 1, 1, 1, 1, 0])
    groups = np.array([0, 0, 0, 1, 1, 1])
    # group 0 TPR = 2/3, group 1 TPR = 1/2 -> gap in percentage points
    gap = equal_opportunity_gap(scores, labels, groups)
    assert gap == pytest.approx(100.0 * (2 / 3 - 1 / 2))
    with pytest.warns(UserWarning) as caught:
        result = equal_opportunity_gap(
            np.array([0.9, 0.1]), np.array([1, 0]), np.array([0, 1])
        )
    assert result is None
    messages = [str(c.message) for c in caught]
    assert any("no positives" in m for m in messages)
    assert any("fewer than two groups" in m for m in messages)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def test_compute_report_matches_direct_calls(rng):
    s = build_random_similarity(rng, 8)
    z = rng.normal(size=(8, 3)) + 0.5
    part = GroupPartition.from_values(np.array([0, 1, 0, 1, 0, 1, 0, 1]))
    scores = rng.random(8)
    labels = np.array([0, 1, 0, 1, 1, 0, 1, 0])
    report = compute_report(z, s, part, scores=scores, labels=labels)
    assert report.individual_unfairness == trace_form(s, z)
    assert report.gini == embedding_gini(s, z)
    assert report.lipschitz == lipschitz_constant(s, z)
    assert report.auc == rank_auc(scores, labels)
    assert report.f1 == f1_score(scores, labels)
    assert report.gd_trace == average_gdif(group_traces(s, z, part))
    assert report.gd_gini == average_gdif(group_ginis(s, z, part))
    assert report.group_sizes == (4, 4)


def test_compute_report_degrades_for_zero_mass_embedding(rng):
    s = build_random_similarity(rng, 6)
    part = GroupPartition.from_values(np.array([0, 0, 0, 1, 1, 1]))
    report = compute_report(np.zeros((6, 2)), s, part)
    assert report.gini is None
    assert report.gd_gini is None
    assert report.gd_trace == 1.0  # both group traces floored equal
    assert report.individual_unfairness == 0.0
    assert any("zero-mass" in w for w in report.warnings)


def test_compute_report_without_scores_or_partition(rng):
    s = build_random_similarity(rng, 5)
    z = rng.normal(size=(5, 2))
    report = compute_report(z, s, None)
    assert report.auc is None and report.f1 is None and report.eo is None
    assert report.gd_trace is None and report.group_sizes == ()
    single = compute_report(z, s, GroupPartition.from_values(np.zeros(5, dtype=int)))
    assert single.gd_trace is None
    assert any("single-group" in w for w in single.warnings)


@pytest.mark.parametrize("given_arg, missing", [("scores", "labels"), ("labels", "scores")])
def test_compute_report_notes_utility_inputs_given_alone(rng, given_arg, missing):
    s = build_random_similarity(rng, 4)
    values = {"scores": np.array([0.9, 0.1, 0.8, 0.2]), "labels": np.array([1, 0, 1, 0])}
    report = compute_report(rng.normal(size=(4, 2)), s, None, **{given_arg: values[given_arg]})
    assert report.auc is None and report.f1 is None and report.eo is None
    assert f"utility metrics skipped: {given_arg} without {missing}" in report.warnings


def test_compute_report_excludes_unlabeled_nodes_from_utility(rng):
    s = build_random_similarity(rng, 6)
    z = rng.normal(size=(6, 2))
    scores = np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3])
    labels = np.array([1, 0, -1, -1, 1, 0])
    report = compute_report(z, s, None, scores=scores, labels=labels)
    keep = labels >= 0
    assert report.auc == rank_auc(scores[keep], labels[keep])


def test_report_serialization():
    report = MetricsReport(
        auc=0.9,
        f1=0.8,
        eo=None,
        individual_unfairness=2500.0,
        gini=0.3,
        gd_trace=1.2,
        gd_gini=1.1,
        lipschitz=5.0,
    )
    blob = report.to_json_dict()
    assert blob["individual_unfairness"] == 2500.0
    assert blob["eo"] is None


# ---------------------------------------------------------------------------
# Malformed arrays at the public entry points
# ---------------------------------------------------------------------------

API_SIM = build_random_similarity(np.random.default_rng(5), 6)
API_Z = np.random.default_rng(6).normal(size=(6, 3))
API_SCORES = np.array([0.9, 0.2, 0.7, 0.4, 0.6, 0.1])
API_LABELS = np.array([1, 0, 1, 0, 1, 0])
API_GROUPS = np.array([0, 0, 0, 1, 1, 1])
API_PARTITION = GroupPartition(API_GROUPS)
NON_FINITE = (np.nan, np.inf, -np.inf)

# name -> (the well-formed array, the call on a replacement for it, the
# defects that make the replacement malformed: a non-finite entry, a length
# off by one, an extra axis)
ARRAY_ENTRY_POINTS = {
    "rank_auc scores": (API_SCORES, lambda v: rank_auc(v, API_LABELS), "nla"),
    "rank_auc labels": (API_LABELS, lambda v: rank_auc(API_SCORES, v), "nla"),
    "f1_score scores": (API_SCORES, lambda v: f1_score(v, API_LABELS), "nla"),
    "f1_score labels": (API_LABELS, lambda v: f1_score(API_SCORES, v), "nla"),
    "equal_opportunity_gap scores": (
        API_SCORES, lambda v: equal_opportunity_gap(v, API_LABELS, API_GROUPS), "nla"),
    "equal_opportunity_gap labels": (
        API_LABELS, lambda v: equal_opportunity_gap(API_SCORES, v, API_GROUPS), "nla"),
    "equal_opportunity_gap group ids": (
        API_GROUPS, lambda v: equal_opportunity_gap(API_SCORES, API_LABELS, v), "nla"),
    "compute_report z": (
        API_Z, lambda v: compute_report(v, API_SIM, API_PARTITION, API_SCORES, API_LABELS), "nla"),
    "compute_report scores": (
        API_SCORES, lambda v: compute_report(API_Z, API_SIM, API_PARTITION, v, API_LABELS), "nla"),
    "compute_report labels": (
        API_LABELS, lambda v: compute_report(API_Z, API_SIM, API_PARTITION, API_SCORES, v), "nla"),
    "trace_form": (API_Z, lambda v: trace_form(API_SIM, v), "nla"),
    "embedding_gini": (API_Z, lambda v: embedding_gini(API_SIM, v), "nla"),
    "lipschitz_constant": (API_Z, lambda v: lipschitz_constant(API_SIM, v), "nla"),
    "group_traces": (API_Z, lambda v: group_traces(API_SIM, v, API_PARTITION), "nla"),
    "group_ginis": (API_Z, lambda v: group_ginis(API_SIM, v, API_PARTITION), "nla"),
    # any number of points, codes or feature rows is well formed
    "kmeans": (API_Z, lambda v: kmeans(v, 2), "na"),
    "GroupPartition.from_values": (API_GROUPS, GroupPartition.from_values, "na"),
    "perturb_noise": (API_Z, lambda v: perturb_noise(v, 0.1), "n"),
}


def malformed(base: np.ndarray, defect: str, data) -> np.ndarray:
    """base with one defect: n(on-finite entry), l(ength off by one) or a(n extra axis)."""
    if defect == "n":
        bad = base.astype(np.float64)
        bad.flat[data.draw(st.integers(0, bad.size - 1))] = data.draw(st.sampled_from(NON_FINITE))
        return bad
    if defect == "l":
        return base[:-1] if data.draw(st.booleans()) else np.concatenate([base, base[:1]])
    return np.stack([base, base], axis=-1) if base.ndim == 1 else base[None]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_array_entry_points_refuse_malformed_arrays(data):
    name = data.draw(st.sampled_from(sorted(ARRAY_ENTRY_POINTS)))
    base, call, defects = ARRAY_ENTRY_POINTS[name]
    call(base)  # well formed: no error
    bad = malformed(base, data.draw(st.sampled_from(defects)), data)
    with pytest.raises(GiniGraphError):
        call(bad)


def test_group_values_and_kmeans_points_refuse_nan():
    with pytest.raises(ContractError, match="group values must be finite numbers"):
        GroupPartition.from_values([np.nan, np.nan, 1.0, 2.0])
    with pytest.raises(ContractError, match="x must be .* of finite numbers"):
        kmeans([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]], 2)


def test_perturb_noise_blames_the_features_not_sigma():
    with pytest.raises(DomainError, match="features must be finite"):
        perturb_noise(np.array([[1.0, np.nan]]), 0.1)
