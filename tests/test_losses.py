"""Objective-term tests: values against numpy oracles, gradients against FD."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginigraph import autodiff as ad
from ginigraph.autodiff import Tape
from ginigraph.errors import ContractError, DomainError
from ginigraph.graph import GroupPartition, SimilaritySet
from ginigraph.losses import (
    TRACE_FLOOR,
    combine_losses,
    group_welfare_loss,
    surrogate_loss,
    utility_loss,
)
from ginigraph.metrics import trace_form

from conftest import build_random_similarity
from oracles import (
    finite_diff_check,
    group_trace_tensors,
    nswp_value,
    smoothness_loss,
    softmax_surrogate_chain,
)


def np_gaps(similarity, z):
    diff = z[similarity.rows] - z[similarity.cols]
    return np.sqrt(np.sum(diff * diff, axis=1))


def embedding_evaluator(build_loss, shape):
    """Adapt a tape-builder over an embedding matrix to finite_diff_check form."""

    def evaluator(z_values):
        tape = Tape()
        z = tape.leaf(z_values.reshape(shape), "z")
        loss = build_loss(tape, z)
        tape.backward(loss)
        return float(loss.values[0, 0]), z.grad.reshape(z_values.shape).copy()

    return evaluator


# ---------------------------------------------------------------------------
# Utility loss
# ---------------------------------------------------------------------------


def test_utility_loss_matches_softplus_oracle(rng):
    logits_values = rng.normal(size=(8, 1)) * 3
    labels = np.array([1, 0, 1, 1, 0, 0, 1, 0])
    index = np.array([0, 2, 3, 5])
    tape = Tape()
    loss = utility_loss(tape.leaf(logits_values), labels, index, tape)
    z = logits_values[index, 0]
    y = labels[index]
    expected = np.mean(y * np.logaddexp(0.0, -z) + (1 - y) * np.logaddexp(0.0, z))
    np.testing.assert_allclose(loss.values[0, 0], expected, rtol=1e-12)


def test_utility_loss_is_safe_for_huge_logits(rng):
    tape = Tape()
    logits = tape.leaf(np.array([[1e4], [-1e4]]))
    loss = utility_loss(logits, np.array([0, 1]), np.array([0, 1]), tape)
    np.testing.assert_allclose(loss.values[0, 0], 1e4, rtol=1e-12)


def test_utility_loss_guards(rng):
    tape = Tape()
    logits = tape.leaf(rng.normal(size=(4, 1)))
    with pytest.raises(ContractError):
        utility_loss(logits, np.array([1, 0, 1, 0]), np.array([], dtype=int), tape)
    with pytest.raises(DomainError):
        utility_loss(logits, np.array([1, -1, 1, 0]), np.array([0, 1]), tape)


def test_utility_loss_gradient(rng):
    labels = np.array([1, 0, 0, 1, 1])
    index = np.arange(5)

    def build(tape, z):
        return utility_loss(z, labels, index, tape)

    point = rng.normal(size=(5, 1))
    report = finite_diff_check(embedding_evaluator(build, (5, 1)), point, step=1e-6)
    assert report.passed, report


# ---------------------------------------------------------------------------
# Smoothness and pairwise gaps
# ---------------------------------------------------------------------------


def test_smoothness_loss_matches_trace_form(rng):
    # one expression: the tape's value and the audit's are equal, not close
    for n, c in ((10, 4), (7, 1), (25, 3), (40, 16)):
        s = build_random_similarity(rng, n, density=rng.uniform(0.05, 0.9))
        z_values = rng.normal(scale=rng.uniform(0.1, 10.0), size=(n, c))
        assert smoothness_loss(Tape().leaf(z_values), s).values[0, 0] == trace_form(s, z_values)
    s = build_random_similarity(rng, 10)
    z_values = rng.normal(size=(10, 4))
    tape = Tape()
    z = tape.leaf(z_values)
    loss = smoothness_loss(z, s)
    tape.backward(loss)
    dense = s.matrix.toarray()
    lap = np.diag(dense.sum(axis=1)) - dense
    np.testing.assert_allclose(z.grad, 2.0 * lap @ z_values, rtol=1e-10)


def test_pair_gap_tensor_matches_oracle(rng):
    s = build_random_similarity(rng, 7)
    z_values = rng.normal(size=(7, 3))
    tape = Tape()
    gaps = ad.pair_gaps(tape.leaf(z_values), s)
    np.testing.assert_allclose(gaps.values[:, 0], np_gaps(s, z_values), rtol=1e-12)
    with pytest.raises(ContractError):
        ad.pair_gaps(tape.leaf(z_values[:3]), SimilaritySet(3, [], [], []))


# ---------------------------------------------------------------------------
# Tail surrogates
# ---------------------------------------------------------------------------


def test_softmax_surrogate_matches_oracle_and_bounds(rng):
    s = build_random_similarity(rng, 9)
    z_values = rng.normal(size=(9, 3))
    gaps = np_gaps(s, z_values)
    tape = Tape()
    loss = surrogate_loss(tape.leaf(z_values), s, "softmax", temperature=0.7)
    w = np.exp(gaps / 0.7 - np.max(gaps / 0.7))
    w /= w.sum()
    np.testing.assert_allclose(loss.values[0, 0], float(w @ gaps), rtol=1e-12)
    # soft maximum sits between the mean and the max gap
    assert gaps.mean() - 1e-12 <= loss.values[0, 0] <= gaps.max() + 1e-12
    cold = surrogate_loss(tape.leaf(z_values), s, "softmax", temperature=1e-4)
    np.testing.assert_allclose(cold.values[0, 0], gaps.max(), rtol=1e-9)


def test_softmax_surrogate_is_the_one_segment_chain_up_to_summation_order(rng):
    # np.sum adds pairwise where the one-segment softmax's bincount adds in order
    s = build_random_similarity(rng, 12)
    z_values = rng.normal(size=(12, 4))
    results = []
    for build in (lambda z: surrogate_loss(z, s, "softmax", temperature=0.3),
                  lambda z: softmax_surrogate_chain(z, s, 0.3)):
        tape = Tape()
        z = tape.leaf(z_values)
        loss = build(z)
        tape.backward(loss)
        results.append((loss.values, z.grad))
    for fused, chain in zip(*results):
        np.testing.assert_allclose(fused, chain, rtol=1e-12, atol=1e-15)


def test_topk_surrogate_matches_oracle(rng):
    s = build_random_similarity(rng, 10)
    z_values = rng.normal(size=(10, 3))
    gaps = np_gaps(s, z_values)
    tape = Tape()
    k = max(1, int(np.ceil(0.3 * gaps.size)))
    loss = surrogate_loss(tape.leaf(z_values), s, "topk", fraction=0.3)
    expected = np.mean(np.sort(gaps)[::-1][:k])
    np.testing.assert_allclose(loss.values[0, 0], expected, rtol=1e-12)
    everything = surrogate_loss(tape.leaf(z_values), s, "topk", fraction=1.0)
    np.testing.assert_allclose(everything.values[0, 0], gaps.mean(), rtol=1e-12)


def test_surrogate_guards(rng):
    s = build_random_similarity(rng, 5)
    tape = Tape()
    z = tape.leaf(rng.normal(size=(5, 2)))
    with pytest.raises(ContractError):
        surrogate_loss(z, s, "softmax", temperature=0.0)
    with pytest.raises(ContractError):
        surrogate_loss(z, s, "topk", fraction=0.0)
    with pytest.raises(ContractError):
        surrogate_loss(z, s, "maxpool")


@pytest.mark.parametrize("mode", ["softmax", "topk"])
def test_surrogate_gradients(rng, mode):
    s = build_random_similarity(rng, 8)

    def build(tape, z):
        return surrogate_loss(z, s, mode)

    point = rng.normal(size=(8, 3))
    report = finite_diff_check(embedding_evaluator(build, (8, 3)), point, step=1e-6)
    assert report.passed, report


# ---------------------------------------------------------------------------
# Group welfare penalty
# ---------------------------------------------------------------------------


def test_nswp_two_group_fixture_is_exact():
    assert nswp_value([2.0, 1.0]) == 0.5


def test_nswp_zero_iff_equal_and_guards():
    assert nswp_value([3.0, 3.0, 3.0]) == 0.0
    assert nswp_value([1.0, 1.0000001]) > 0.0
    with pytest.raises(DomainError):
        nswp_value([1.0, 0.0])
    with pytest.raises(ContractError):
        nswp_value([1.0])


@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=300, deadline=None)
def test_nswp_nonnegative_and_permutation_invariant(values):
    base = nswp_value(values)
    assert base >= 0.0
    assert nswp_value(list(reversed(values))) == pytest.approx(base, rel=1e-9, abs=1e-12)


@given(
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=0.5, allow_nan=False),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_nswp_one_sided_perturbation_strictly_increases(level, shrink, m):
    balanced = [level] * m
    assert nswp_value(balanced) == 0.0
    perturbed = list(balanced)
    perturbed[0] = level * (1.0 - shrink)
    assert nswp_value(perturbed) > 0.0


def test_group_welfare_tensor_matches_floored_oracle(rng):
    s = build_random_similarity(rng, 10)
    part = GroupPartition.from_values(rng.integers(0, 3, size=10))
    if part.m < 2:  # pragma: no cover - partition of 3 values is ~always 3 groups
        pytest.skip("degenerate draw")
    ctx = part.within_pairs(s)
    z_values = rng.normal(size=(10, 3))
    tape = Tape()
    z = tape.leaf(z_values)
    loss = group_welfare_loss(group_trace_tensors(z, ctx))
    raw = [
        trace_form(s.restrict(part.members(g)), z_values[part.members(g)])
        for g in range(part.m)
    ]
    floored = [t + TRACE_FLOOR for t in raw]
    np.testing.assert_allclose(loss.values[0, 0], nswp_value(floored), rtol=1e-10)
    assert loss.values[0, 0] >= 0.0


def test_group_welfare_floors_zero_traces(rng):
    s = build_random_similarity(rng, 6)
    part = GroupPartition.from_values(np.array([0, 0, 0, 1, 1, 1]))
    ctx = part.within_pairs(s)
    tape = Tape()
    z_values = np.zeros((6, 2))
    z_values[3:] = rng.normal(size=(3, 2))
    traces = group_trace_tensors(tape.leaf(z_values), ctx)
    # the traces are unfloored and equal trace_form; the penalty floors them
    assert [t.values[0, 0] for t in traces] == [trace_form(g, z_values) for g in ctx.sets]
    assert traces[0].values[0, 0] == 0.0
    loss = group_welfare_loss(traces)
    floored = [t.values[0, 0] + TRACE_FLOOR for t in traces]
    np.testing.assert_allclose(loss.values[0, 0], nswp_value(floored), rtol=1e-10)


def test_group_welfare_requires_two_groups(rng):
    s = build_random_similarity(rng, 4)
    ctx = GroupPartition.from_values(np.zeros(4, dtype=int)).within_pairs(s)
    tape = Tape()
    with pytest.raises(ContractError):
        group_welfare_loss(group_trace_tensors(tape.leaf(rng.normal(size=(4, 2))), ctx))


def test_group_welfare_gradient(rng):
    s = build_random_similarity(rng, 9)
    part = GroupPartition.from_values(np.array([0, 1, 2, 0, 1, 2, 0, 1, 2]))
    ctx = part.within_pairs(s)

    def build(tape, z):
        return group_welfare_loss(group_trace_tensors(z, ctx))

    point = rng.normal(size=(9, 3))
    report = finite_diff_check(embedding_evaluator(build, (9, 3)), point, step=1e-6)
    assert report.passed, report


# ---------------------------------------------------------------------------
# Combination
# ---------------------------------------------------------------------------


def test_combine_losses_matches_scalar_arithmetic(rng):
    tape = Tape()
    values = rng.normal(size=3)
    terms = [tape.leaf(np.array([[v]])) for v in values]
    betas = [1.0, 0.5, 2.5]
    total = combine_losses(terms, betas)
    np.testing.assert_allclose(total.values[0, 0], float(np.dot(values, betas)), rtol=1e-12)
    only_first = combine_losses(terms, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(only_first.values[0, 0], values[0], rtol=1e-15)
    with pytest.raises(ContractError):
        combine_losses(terms, [1.0, 2.0])
    with pytest.raises(ContractError):
        combine_losses([], [])


def test_combine_losses_routes_gradients_by_weight(rng):
    tape = Tape()
    z = tape.leaf(rng.normal(size=(4, 2)))
    s = build_random_similarity(rng, 4)
    term = smoothness_loss(z, s)
    total = combine_losses([term], [2.0])
    tape.backward(total)
    dense = s.matrix.toarray()
    lap = np.diag(dense.sum(axis=1)) - dense
    np.testing.assert_allclose(z.grad, 2.0 * 2.0 * lap @ z.values, rtol=1e-10)
