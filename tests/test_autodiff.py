"""Tape engine tests: forward oracles, gradient checks, and error contracts."""

from __future__ import annotations

import gc
import inspect
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ginigraph import autodiff as ad
from ginigraph.autodiff import Tape
from ginigraph.errors import ContractError, DimensionError, DomainError, NumericalError
from ginigraph.graph import GroupPartition, SimilaritySet, laplacian_apply
from ginigraph.metrics import group_traces, trace_form

from conftest import build_random_similarity
from oracles import (
    attention_chain,
    edge_spmm,
    finite_diff_check,
    leaky_relu,
    segment_softmax,
    slice_rows,
    tape_evaluator,
)


def checked(build, point, tol=1e-6, step=1e-6):
    report = finite_diff_check(tape_evaluator(build), point, step=step, tolerance=tol)
    assert report.passed, f"max rel err {report.max_rel_error} at {report.worst_index}"
    return report


def smooth_point(rng, rows, cols):
    """Entries bounded away from 0 so kinked activations stay differentiable."""
    signs = np.where(rng.random((rows, cols)) < 0.5, -1.0, 1.0)
    return signs * rng.uniform(0.2, 1.5, size=(rows, cols))


# ---------------------------------------------------------------------------
# Forward oracles
# ---------------------------------------------------------------------------


def test_forward_matches_numpy_oracles(rng):
    tape = Tape()
    a = tape.leaf(rng.normal(size=(3, 4)))
    b = tape.leaf(rng.normal(size=(3, 4)))
    np.testing.assert_allclose(ad.add(a, b).values, a.values + b.values)
    np.testing.assert_allclose(ad.hadamard(a, b).values, a.values * b.values)
    np.testing.assert_allclose(ad.scale(a, 2.5).values, 2.5 * a.values)
    c = tape.leaf(rng.normal(size=(4, 2)))
    np.testing.assert_allclose((a @ c).values, a.values @ c.values)
    np.testing.assert_allclose(ad.mean_all(a).values, [[a.values.mean()]])


def test_scalar_leaf_is_one_by_one():
    tape = Tape()
    t = tape.leaf(3.5)
    assert t.shape == (1, 1)
    with pytest.raises(DimensionError):
        tape.leaf(np.arange(3.0))


def test_nonlinearities_forward(rng):
    tape = Tape()
    x = tape.leaf(np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]]))
    v = x.values
    np.testing.assert_allclose(
        leaky_relu(x, 0.2).values, np.where(v > 0, v, 0.2 * v)
    )
    np.testing.assert_allclose(ad.elu(x).values, np.where(v > 0, v, np.expm1(v)))
    np.testing.assert_allclose(ad.softplus(x).values, np.log1p(np.exp(v)))


def test_softplus_is_overflow_safe():
    tape = Tape()
    x = tape.leaf(np.array([[800.0, -800.0]]))
    out = ad.softplus(x).values
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out[0, 0], 800.0)
    np.testing.assert_allclose(out[0, 1], 0.0, atol=1e-300)


def test_sigmoid_values_is_overflow_safe():
    v = np.array([-800.0, -2.0, 0.0, 0.5, 800.0])
    with np.errstate(over="raise"):
        out = ad.sigmoid_values(v)
    np.testing.assert_allclose(out[1:4], 1.0 / (1.0 + np.exp(-v[1:4])))
    assert out[0] == 0.0 and out[-1] == 1.0


def test_tracing_off_gives_identical_values(rng):
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))

    def run(tracing):
        tape = Tape(tracing=tracing)
        out = ad.elu(tape.leaf(x) @ tape.leaf(w))
        return ad.mean_all(out).values

    np.testing.assert_array_equal(run(True), run(False))


def test_backward_requires_tracing_and_scalar_root(rng):
    quiet = Tape(tracing=False)
    out = ad.mean_all(quiet.leaf(rng.normal(size=(2, 2))))
    with pytest.raises(ContractError):
        quiet.backward(out)
    tape = Tape()
    mat = tape.leaf(rng.normal(size=(2, 2)))
    with pytest.raises(ContractError):
        tape.backward(mat)


# ---------------------------------------------------------------------------
# Gradient checks
# ---------------------------------------------------------------------------


def test_matmul_chain_gradient(rng):
    w = rng.normal(size=(4, 3))

    def build(x):
        return ad.mean_all(ad.softplus(x @ x.tape.leaf(w)))

    checked(build, rng.normal(size=(5, 4)))


@pytest.mark.parametrize(
    "op",
    [
        lambda x: ad.mean_all(leaky_relu(x, 0.2)),
        lambda x: ad.mean_all(ad.elu(x)),
        lambda x: ad.mean_all(ad.softplus(x)),
        lambda x: ad.mean_all(ad.hadamard(x, x)),
    ],
)
def test_unary_op_gradients(rng, op):
    checked(op, smooth_point(rng, 4, 3))


def test_positive_domain_gradients(rng):
    point = rng.uniform(0.5, 2.0, size=(3, 3))
    divisor = rng.uniform(0.5, 2.0, size=(3, 3))
    checked(lambda x: ad.mean_all(ad.divide(x, x.tape.leaf(divisor))), point)
    checked(lambda x: ad.mean_all(ad.divide(x.tape.leaf(divisor), x)), point)


def test_broadcast_ops_gradients(rng):
    mat = rng.normal(size=(3, 4))

    def build_scale(x):
        return ad.mean_all(ad.hadamard(ad.broadcast_scale(x.tape.leaf(mat), x), x.tape.leaf(mat)))

    checked(build_scale, np.array([[0.7]]))

    def build_add(x):
        return ad.mean_all(ad.softplus(ad.broadcast_add(x.tape.leaf(mat), x)))

    checked(build_add, np.array([[0.3]]))


def test_gather_and_slice_gradients(rng):
    index = np.array([0, 2, 2, 1, 0])

    def build(x):
        picked = ad.gather_rows(x, index)
        return ad.mean_all(ad.hadamard(picked, picked))

    checked(build, rng.normal(size=(3, 4)))

    def build_slice(x):
        part = slice_rows(x, 1, 3)
        return ad.mean_all(ad.hadamard(part, part))

    checked(build_slice, rng.normal(size=(4, 2)))


def test_segment_ops_gradients(rng):
    # the multi-segment softmax of the attention chain's oracle
    segments = np.array([0, 0, 1, 1, 1, 2])
    checked(
        lambda x: ad.mean_all(ad.hadamard(segment_softmax(x, segments, 3), x)),
        rng.normal(size=(6, 1)),
    )


# Node 3 has only its self-loop; node 0 is the center of three edges. The
# weights of edge_spmm follow the CSR order of the pattern.
PATTERN = sp.csr_matrix(
    (np.ones(8), (np.array([1, 0, 2, 0, 3, 1, 0, 2]), np.array([0, 2, 2, 1, 3, 1, 0, 0]))),
    shape=(4, 4),
)
PATTERN_ROWS = np.repeat(np.arange(4), np.diff(PATTERN.indptr))


def test_edge_spmm_matches_dense_product(rng):
    w = rng.normal(size=(PATTERN.nnz, 1))
    x = rng.normal(size=(4, 3))
    dense = np.zeros((4, 4))
    dense[PATTERN_ROWS, PATTERN.indices] = w[:, 0]
    tape = Tape()
    out = edge_spmm(tape.leaf(w), tape.leaf(x), PATTERN)
    np.testing.assert_allclose(out.values, dense @ x, rtol=1e-12, atol=1e-15)


def test_edge_spmm_gradients(rng):
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(PATTERN.nnz, 1))

    def build_weights(v):
        out = edge_spmm(v, v.tape.leaf(x), PATTERN)
        return ad.mean_all(ad.hadamard(out, out))

    checked(build_weights, w)

    def build_x(v):
        out = edge_spmm(v.tape.leaf(w), v, PATTERN)
        return ad.mean_all(ad.hadamard(out, out))

    checked(build_x, x)


def test_edge_spmm_rejects_mismatched_shapes():
    tape = Tape()
    with pytest.raises(DimensionError):
        edge_spmm(tape.leaf(np.ones((3, 1))), tape.leaf(np.ones((4, 2))), PATTERN)
    with pytest.raises(DimensionError):
        edge_spmm(tape.leaf(np.ones((PATTERN.nnz, 1))), tape.leaf(np.ones((5, 2))), PATTERN)


# ---------------------------------------------------------------------------
# The fused attention op against the chain it replaces
# ---------------------------------------------------------------------------

# Node 4 has only its self-loop. Row 0's neighbours 1 and 2 have equal gates,
# so equal rows t_1 = t_2 tie their scores exactly.
TIES = SimilaritySet(5, [0, 0, 1, 2], [1, 2, 2, 3], [0.5, 0.5, 0.9, 0.3])


def attention_plan(similarity):
    return ad.AttentionPlan(similarity.matrix + sp.identity(similarity.n, format="csr"))


def attention_case(rng, case):
    if case == "random":
        similarity = build_random_similarity(rng, 9, density=0.4)
        t = rng.normal(size=(9, 4))
    else:
        similarity = TIES
        t = rng.normal(size=(5, 3))
        t[2] = t[1]
        t[3] = 0.0  # entry (3, 3) scores exactly 0, the LeakyReLU kink
    return similarity, t, rng.normal(size=(2 * t.shape[1], 1))


@pytest.mark.parametrize("case", ["random", "ties"])
def test_attention_aggregate_is_the_op_chain_bit_for_bit(rng, case):
    similarity, t, a = attention_case(rng, case)
    plan = attention_plan(similarity)
    assert np.array_equal(plan.edges.indptr[1:] - plan.edges.indptr[:-1], plan.counts)
    cotangents = [rng.normal(size=t.shape) for _ in range(3)]
    ops = {
        "fused": lambda tl, al: ad.attention_aggregate(tl, al, plan, 0.2),
        "chain": lambda tl, al: attention_chain(tl, al, plan.edges, 0.2),
    }
    results = {}
    for name, op in ops.items():
        tape = Tape()
        t_leaf, a_leaf = tape.leaf(t), tape.leaf(a)
        out = op(t_leaf, a_leaf)
        arrays = [out.values]
        # several sweeps over one forward, as a GradNorm epoch runs them
        for cotangent in cotangents:
            tape.backward(ad.mean_all(ad.hadamard(out, tape.leaf(cotangent, constant=True))))
            arrays += [t_leaf.grad.copy(), a_leaf.grad.copy()]
        results[name] = arrays
    for fused, chain in zip(results["fused"], results["chain"]):
        assert fused.shape == chain.shape and fused.tobytes() == chain.tobytes()


def test_attention_aggregate_gradients(rng):
    similarity, _, a = attention_case(rng, "random")
    plan = attention_plan(similarity)
    t = smooth_point(rng, 9, 4)
    weights = rng.normal(size=t.shape)

    def weighted_sum(out):
        return ad.mean_all(ad.hadamard(out, out.tape.leaf(weights, constant=True)))

    checked(lambda x: weighted_sum(ad.attention_aggregate(x, x.tape.leaf(a), plan, 0.2)),
            t, tol=1e-4)
    checked(lambda x: weighted_sum(ad.attention_aggregate(x.tape.leaf(t), x, plan, 0.2)),
            a, tol=1e-4)


def test_attention_aggregate_rejects_rows_of_another_graph():
    tape = Tape()
    with pytest.raises(DimensionError):
        ad.attention_aggregate(
            tape.leaf(np.ones((4, 3))), tape.leaf(np.ones((6, 1))), attention_plan(TIES), 0.2
        )


def test_attention_plan_needs_a_canonical_symmetric_pattern():
    with pytest.raises(ContractError):  # asymmetric
        ad.AttentionPlan(sp.csr_matrix(np.array([[1.0, 0.5], [0.0, 1.0]])))
    with pytest.raises(ContractError):  # row 1 is empty
        ad.AttentionPlan(sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]])))
    unsorted = sp.csr_matrix(
        (np.ones(3), np.array([1, 0, 0]), np.array([0, 2, 3])), shape=(2, 2)
    )
    with pytest.raises(ContractError):  # row 0 lists its columns out of order
        ad.AttentionPlan(unsorted)


# ---------------------------------------------------------------------------
# Every backward hands each operand a gradient of that operand's shape
# ---------------------------------------------------------------------------


def tape_ops() -> set[str]:
    """The public functions of autodiff that record tensors on a tape."""
    return {
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn)
        and fn.__module__ == ad.__name__
        and not name.startswith("_")
        and "Tensor" in str(inspect.signature(fn).return_annotation)
    }


def _leaves(tape, rng, *shapes):
    return [tape.leaf(rng.uniform(0.5, 1.5, size=shape)) for shape in shapes]


SPARSE = sp.random(3, 4, density=0.6, random_state=3, format="csr")
PARTITION = GroupPartition(np.array([0, 0, 0, 1, 1]))

OP_BUILDERS = {
    "matmul": lambda tape, rng: ad.matmul(*_leaves(tape, rng, (3, 4), (4, 2))),
    "spmm": lambda tape, rng: ad.spmm(SPARSE, *_leaves(tape, rng, (4, 2))),
    "add": lambda tape, rng: ad.add(*_leaves(tape, rng, (3, 2), (3, 2))),
    "hadamard": lambda tape, rng: ad.hadamard(*_leaves(tape, rng, (3, 2), (3, 2))),
    "divide": lambda tape, rng: ad.divide(*_leaves(tape, rng, (3, 2), (3, 2))),
    "scale": lambda tape, rng: ad.scale(*_leaves(tape, rng, (3, 2)), 2.0),
    "add_const": lambda tape, rng: ad.add_const(*_leaves(tape, rng, (3, 2)), 1.0),
    "broadcast_scale": lambda tape, rng: ad.broadcast_scale(*_leaves(tape, rng, (3, 2), (1, 1))),
    "broadcast_add": lambda tape, rng: ad.broadcast_add(*_leaves(tape, rng, (3, 2), (1, 1))),
    "gather_rows": lambda tape, rng: ad.gather_rows(*_leaves(tape, rng, (4, 2)), [0, 2, 2, 1]),
    "mean_all": lambda tape, rng: ad.mean_all(*_leaves(tape, rng, (3, 2))),
    "elu": lambda tape, rng: ad.elu(*_leaves(tape, rng, (3, 2))),
    "softplus": lambda tape, rng: ad.softplus(*_leaves(tape, rng, (3, 2))),
    "attention_aggregate": lambda tape, rng: ad.attention_aggregate(
        *_leaves(tape, rng, (5, 3), (6, 1)), attention_plan(TIES), 0.2
    ),
    "quadratic_pair_forms": lambda tape, rng: ad.quadratic_pair_forms(
        *_leaves(tape, rng, (5, 2)), TIES, PARTITION.within_pairs(TIES)
    ),
}


def test_every_tape_op_has_a_shape_check():
    assert set(OP_BUILDERS) == tape_ops()


@pytest.mark.parametrize("op", sorted(OP_BUILDERS))
def test_every_backward_hands_each_operand_its_own_shape(rng, monkeypatch, op):
    handed = []
    accumulate = ad._accumulate

    def recording(t, g):
        handed.append((t.values.shape, np.shape(g)))
        accumulate(t, g)

    monkeypatch.setattr(ad, "_accumulate", recording)
    tape = Tape()
    outs = OP_BUILDERS[op](tape, rng)
    leaves = list(tape._nodes)  # the operands, recorded before the op's outputs
    for out in outs if isinstance(outs, list) else [outs]:
        tape.backward(ad.mean_all(out))
        assert all(leaf.grad is not None for leaf in leaves if leaf.op == "leaf")
    assert handed and all(value == grad for value, grad in handed)


def test_accumulate_copies_the_first_write_and_refuses_another_shape():
    tape = Tape()
    x = tape.leaf(np.zeros((3, 2)))
    g = np.ones((3, 2))
    ad._accumulate(x, g)
    g[0, 0] = 5.0
    ad._accumulate(x, g)
    np.testing.assert_array_equal(x.grad, [[6.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
    with pytest.raises(ContractError):
        ad._accumulate(x, np.ones((1, 1)))


def test_scatter_rows_is_bitwise_equal_to_add_at(rng):
    index = rng.integers(0, 5, size=200)
    values = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-8, 8, size=(200, 1))
    expected = np.zeros((7, 3))
    np.add.at(expected, index, values)
    assert np.array_equal(ad._scatter_rows(index, values, 7), expected)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "index",
    [[2, 2, 0, 2], [4, 0, 3, 1, 1], np.zeros(0, dtype=np.int64), np.array([3, 1, 3], np.int32)],
    ids=["repeated", "unsorted", "empty", "int32"],
)
def test_take_rows_is_bytewise_fancy_indexing(rng, order, index):
    x = np.asarray(rng.normal(size=(5, 3)), order=order)
    taken, indexed = np.take(x, index, axis=0), x[index]
    assert taken.shape == indexed.shape and taken.tobytes() == indexed.tobytes()
    # the row sums that follow a gather add in memory order, so the layouts match too
    assert taken.flags.c_contiguous and indexed.flags.c_contiguous


def test_sweep_factors_reused_on_one_tape_equal_fresh_tapes(rng):
    """elu and attention build their sweep factors once; later sweeps reuse them."""
    similarity, t, a = attention_case(rng, "random")
    plan = attention_plan(similarity)
    cotangents = [rng.normal(size=t.shape) for _ in range(3)]

    def forward(tape):
        t_leaf, a_leaf = tape.leaf(t), tape.leaf(a)
        out = ad.elu(ad.attention_aggregate(ad.elu(t_leaf), a_leaf, plan, 0.2))
        return t_leaf, a_leaf, out

    def sweep(tape, out, cotangent):
        tape.backward(ad.mean_all(ad.hadamard(out, tape.leaf(cotangent, constant=True))))

    shared = Tape()
    t_leaf, a_leaf, out = forward(shared)
    reused = []
    for cotangent in cotangents:
        sweep(shared, out, cotangent)
        reused += [t_leaf.grad.copy(), a_leaf.grad.copy()]
    fresh = []
    for cotangent in cotangents:
        tape = Tape()
        t_leaf, a_leaf, out = forward(tape)
        sweep(tape, out, cotangent)
        fresh += [t_leaf.grad, a_leaf.grad]
    assert all(r.tobytes() == f.tobytes() for r, f in zip(reused, fresh))


def test_spmm_gradient(rng):
    mat = sp.random(5, 4, density=0.5, random_state=7, format="csr")

    def build(x):
        out = ad.spmm(mat, x)
        return ad.mean_all(ad.hadamard(out, out))

    checked(build, rng.normal(size=(4, 3)))



def dense_laplacian(n, rows, cols, weights):
    s = np.zeros((n, n))
    s[rows, cols] = weights
    s[cols, rows] = weights
    return np.diag(s.sum(axis=1)) - s


def test_quadratic_pair_form_equals_dense_trace(rng):
    for _ in range(20):
        n = int(rng.integers(3, 12))
        i, j = np.triu_indices(n, k=1)
        keep = rng.random(i.size) < 0.6
        rows, cols = i[keep], j[keep]
        weights = rng.uniform(0.1, 1.0, size=rows.size)
        z = rng.normal(size=(n, 3))
        lap = dense_laplacian(n, rows, cols, weights)
        expected = float(np.trace(z.T @ lap @ z))
        tape = Tape()
        out = ad.quadratic_pair_forms(tape.leaf(z), SimilaritySet(n, rows, cols, weights))[0]
        np.testing.assert_allclose(out.values[0, 0], expected, rtol=1e-12)


def test_quadratic_pair_form_backward_is_two_l_z(rng):
    n = 8
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < 0.5
    rows, cols, weights = i[keep], j[keep], rng.uniform(0.1, 1.0, size=int(keep.sum()))
    z = rng.normal(size=(n, 4))
    tape = Tape()
    leaf = tape.leaf(z)
    tape.backward(ad.quadratic_pair_forms(leaf, SimilaritySet(n, rows, cols, weights))[0])
    lap = dense_laplacian(n, rows, cols, weights)
    np.testing.assert_allclose(leaf.grad, 2.0 * lap @ z, rtol=1e-10, atol=1e-12)


def test_quadratic_pair_form_gradient_on_a_group_subset(rng):
    # a group's pair set keeps the global n: nodes 0, 4 and 6 lie outside the
    # group {1, 2, 3, 5}, and node 6 is in no pair at all
    rows = np.array([1, 1, 2, 3, 0, 4])
    cols = np.array([2, 3, 5, 5, 4, 5])
    weights = rng.uniform(0.1, 1.0, size=rows.size)
    in_group = np.isin(rows, [1, 2, 3, 5]) & np.isin(cols, [1, 2, 3, 5])
    group = SimilaritySet(7, rows[in_group], cols[in_group], weights[in_group])
    report = checked(
        lambda z: ad.quadratic_pair_forms(z, group)[0], rng.normal(size=(7, 3)), tol=1e-4
    )
    assert not report.analytic[[0, 4, 6]].any()


def test_quadratic_pair_forms_equal_trace_form_per_set_bit_for_bit(rng):
    # every pair of 7 nodes; group 2 = {6} has no pair inside it
    n = 7
    rows, cols = np.triu_indices(n, k=1)
    similarity = SimilaritySet(n, rows, cols, rng.uniform(0.1, 1.0, size=rows.size))
    partition = GroupPartition(np.array([0, 1, 0, 0, 1, 1, 2]))
    groups = partition.within_pairs(similarity)
    assert [group.num_pairs for group in groups.sets] == [3, 3, 0]
    z = rng.normal(size=(n, 3))
    tape = Tape()
    leaf = tape.leaf(z)
    traces = ad.quadratic_pair_forms(leaf, similarity, groups)
    expected = [trace_form(similarity, z)] + [trace_form(group, z) for group in groups.sets]
    assert [t.values[0, 0] for t in traces] == expected
    assert group_traces(similarity, z, partition) == expected[1:]
    # each trace keeps its own backward, 2 L Z on its own pair set
    for trace, pairs in zip(traces, (similarity, *groups.sets)):
        tape.backward(trace)
        assert np.array_equal(leaf.grad, 2.0 * laplacian_apply(pairs, z))


def test_quadratic_pair_form_rejects_a_set_of_another_size(rng):
    tape = Tape()
    with pytest.raises(DimensionError):
        ad.quadratic_pair_forms(
            tape.leaf(rng.normal(size=(4, 2))), SimilaritySet(5, [0], [1], [1.0])
        )
    # group pairs selected from another set, even an equal one
    pairs = SimilaritySet(5, [0], [1], [1.0])
    groups = PARTITION.within_pairs(SimilaritySet(5, [0], [1], [1.0]))
    with pytest.raises(ContractError, match="another similarity set"):
        ad.quadratic_pair_forms(tape.leaf(rng.normal(size=(5, 2))), pairs, groups)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_quadratic_pair_form_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < 0.7
    if not keep.any():
        keep[0] = True
    tape = Tape()
    out = ad.quadratic_pair_forms(
        tape.leaf(rng.normal(size=(n, 3))),
        SimilaritySet(n, i[keep], j[keep], rng.uniform(0.01, 1.0, size=int(keep.sum()))),
    )[0]
    assert out.values[0, 0] >= 0.0


# ---------------------------------------------------------------------------
# Backward mechanics
# ---------------------------------------------------------------------------


def test_reused_tensor_accumulates_gradient(rng):
    tape = Tape()
    x = tape.leaf(np.array([[2.0]]))
    out = ad.add(ad.hadamard(x, x), x)  # x^2 + x -> d/dx = 2x + 1
    tape.backward(out)
    np.testing.assert_allclose(x.grad, [[5.0]])


def test_repeated_backward_sweeps_are_independent(rng):
    tape = Tape()
    x = tape.leaf(rng.normal(size=(3, 2)))
    a = ad.mean_all(ad.hadamard(x, x))
    b = ad.mean_all(x)
    tape.backward(a)
    first = x.grad.copy()
    tape.backward(b)
    np.testing.assert_allclose(x.grad, np.full_like(x.values, 1 / 6))
    tape.backward(a)
    np.testing.assert_allclose(x.grad, first)


def test_constant_leaves_get_no_gradient_and_leave_the_others_unchanged(rng):
    x_values, s_values = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
    w_values, c_values = rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
    mat = sp.random(5, 5, density=0.5, random_state=1, format="csr")

    def run(constant):
        tape = Tape()
        x, s, c = (tape.leaf(v, constant=constant) for v in (x_values, s_values, c_values))
        w = tape.leaf(w_values)
        h = ad.hadamard(ad.hadamard(s, ad.spmm(mat, x) @ w), s) @ c
        out = ad.mean_all(ad.elu(ad.add(h, x @ w)))
        tape.backward(out)
        return out, w, (x, s, c)

    plain_out, plain_w, plain_leaves = run(False)
    out, w, leaves = run(True)
    assert all(leaf.grad is None for leaf in leaves)
    assert all(leaf.grad is not None for leaf in plain_leaves)
    np.testing.assert_array_equal(out.values, plain_out.values)
    np.testing.assert_array_equal(w.grad, plain_w.grad)


def test_released_tape_frees_its_tensors_without_gc(rng):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        refs = {}
        for release in (False, True):
            tape = Tape()
            x = tape.leaf(rng.normal(size=(3, 2)))
            y = ad.hadamard(x, x)
            tape.backward(ad.mean_all(y))
            refs[release] = weakref.ref(y.values)
            if release:
                tape.release()
            del tape, x, y
        # unreleased, the tape <-> tensor cycle keeps the arrays alive
        assert refs[False]() is not None
        assert refs[True]() is None
    finally:
        if was_enabled:
            gc.enable()
    released = Tape()
    released.release()
    with pytest.raises(ContractError):
        released.backward(released.leaf(np.ones((1, 1))))


def test_mixed_tapes_are_rejected(rng):
    t1, t2 = Tape(), Tape()
    with pytest.raises(ContractError):
        ad.add(t1.leaf(np.zeros((2, 2))), t2.leaf(np.zeros((2, 2))))


def test_shape_mismatches_are_rejected(rng):
    tape = Tape()
    a = tape.leaf(np.zeros((2, 3)))
    b = tape.leaf(np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        ad.add(a, b)
    with pytest.raises(DimensionError):
        ad.matmul(a, a)
    with pytest.raises(DimensionError):
        ad.gather_rows(a, np.array([0, 5]))


def test_domain_errors(rng):
    tape = Tape()
    with pytest.raises(DomainError):
        ad.divide(tape.leaf(np.ones((1, 1))), tape.leaf(np.zeros((1, 1))))


def test_nonfinite_forward_raises_numerical_error():
    tape = Tape()
    x = tape.leaf(np.array([[1e300]]))
    with pytest.raises(NumericalError), np.errstate(over="ignore"):
        ad.hadamard(x, x)  # 1e600 overflows to inf




# ---------------------------------------------------------------------------
# finite_diff_check itself
# ---------------------------------------------------------------------------


def test_finite_diff_check_flags_wrong_gradient(rng):
    point = rng.normal(size=(2, 2))

    def wrong(x):
        return float(np.sum(x * x)), 3.0 * x  # true gradient is 2x

    report = finite_diff_check(wrong, point, tolerance=1e-4)
    assert not report.passed
    assert report.max_rel_error > 1e-2
    assert report.analytic.shape == point.shape
    assert report.numeric.shape == point.shape


def test_finite_diff_check_validates_inputs(rng):
    def ok(x):
        return float(np.sum(x)), np.ones_like(x)

    with pytest.raises(ContractError):
        finite_diff_check(ok, np.zeros((2, 2)), step=0.0)

    def bad_shape(x):
        return float(np.sum(x)), np.ones((1, 1))

    with pytest.raises(DimensionError):
        finite_diff_check(bad_shape, np.zeros((2, 2)))

    def explodes(x):
        return float("nan"), np.ones_like(x)

    with pytest.raises(NumericalError):
        finite_diff_check(explodes, np.zeros((2, 2)))
