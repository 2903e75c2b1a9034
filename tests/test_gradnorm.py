"""Adaptive loss-weight controller tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginigraph.errors import ContractError, NumericalError
from ginigraph.gradnorm import BETA_TOTAL, GradNormController


def test_constructor_normalizes_and_validates():
    c = GradNormController([1.0, 1.0, 1.0])
    np.testing.assert_array_equal(c.betas, [1.0, 1.0, 1.0])
    c2 = GradNormController([2.0, 2.0], total=2.0)
    np.testing.assert_allclose(c2.betas, [1.0, 1.0])
    with pytest.raises(ContractError):
        GradNormController([1.0])
    with pytest.raises(ContractError):
        GradNormController([1.0, -1.0])
    with pytest.raises(ContractError):
        GradNormController([1.0, 1.0], beta_lr=0.0)


def test_balanced_case_is_identity():
    c = GradNormController([1.0, 1.0, 1.0])
    out = c.gradnorm_step([2.5, 2.5, 2.5], [0.7, 0.7, 0.7])
    np.testing.assert_array_equal(out, [1.0, 1.0, 1.0])
    # stays the identity across repeated balanced steps
    for _ in range(5):
        out = c.gradnorm_step([0.3, 0.3, 0.3], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(out, [1.0, 1.0, 1.0])


def test_oversized_gradient_term_is_downweighted():
    c = GradNormController([1.0, 1.0], total=2.0)
    out = c.gradnorm_step([2.0, 1.0], [1.0, 1.0])
    assert out[0] < 1.0 < out[1]
    np.testing.assert_allclose(out.sum(), 2.0, atol=1e-12)


def test_slow_task_gets_more_weight():
    # equal gradient norms, but task 0 has a high loss ratio (training slowly)
    c = GradNormController([1.0, 1.0], total=2.0)
    out = c.gradnorm_step([1.0, 1.0], [2.0, 0.5])
    assert out[0] > 1.0 > out[1]


def test_step_records_initial_losses_once():
    c = GradNormController([1.0, 1.0, 1.0])
    first = c.step([4.0, 2.0, 1.0], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(c.initial_losses, [4.0, 2.0, 1.0])
    # first call: all rates are 1, equal norms -> identity
    np.testing.assert_array_equal(first, [1.0, 1.0, 1.0])
    # second call: task 0 has not improved, others halved -> task 0 boosted
    second = c.step([4.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    assert second[0] > second[1]
    np.testing.assert_array_equal(c.initial_losses, [4.0, 2.0, 1.0])


def test_floor_keeps_weights_strictly_positive():
    c = GradNormController([1.0, 1.0], beta_lr=5.0, total=2.0)
    out = c.gradnorm_step([10.0, 0.1], [1.0, 1.0])
    assert np.all(out > 0.0)
    np.testing.assert_allclose(out.sum(), 2.0, atol=1e-12)


def test_shape_and_sign_guards():
    c = GradNormController([1.0, 1.0])
    with pytest.raises(ContractError):
        c.gradnorm_step([1.0], [1.0, 1.0])
    with pytest.raises(ContractError):
        c.gradnorm_step([1.0, -0.5], [1.0, 1.0])
    with pytest.raises(ContractError):
        c.step([1.0, 2.0, 3.0], [1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_losses_and_norms_raise(bad):
    c = GradNormController([1.0, 1.0])
    before = c.betas.copy()
    with pytest.raises(NumericalError):
        c.step([1.0, bad], [1.0, 1.0])
    assert c.initial_losses is None
    with pytest.raises(NumericalError):
        c.step([1.0, 1.0], [bad, 1.0])
    with pytest.raises(NumericalError):
        c.gradnorm_step([1.0, 1.0], [1.0, bad])
    np.testing.assert_array_equal(c.betas, before)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_long_runs_preserve_total_and_positivity(seed):
    rng = np.random.default_rng(seed)
    c = GradNormController([1.0, 1.0, 1.0])
    for _ in range(25):
        betas = c.gradnorm_step(rng.uniform(0.0, 10.0, size=3), rng.uniform(0.0, 3.0, size=3))
        assert np.all(betas > 0.0)
        assert abs(betas.sum() - BETA_TOTAL) < 1e-9
