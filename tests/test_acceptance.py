"""Acceptance gate: fixture values, algebraic identities, gradient checks,
and directional outcomes on the synthetic benchmark, each within a stated
wall-clock budget.

The benchmark tests share one session-scoped run matrix (six training
configurations over five seeds) so the expensive runs happen once.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import build_random_graph, build_random_similarity
from oracles import group_trace_tensors, nswp_value, smoothness_loss, tail_bound, tail_fraction
from ginigraph.autodiff import Tape
from ginigraph.benchmark import BENCHMARK_VARIANTS, run_matrix
from ginigraph.errors import DimensionError
from ginigraph.graph import GroupPartition, SimilaritySet, laplacian_apply, topo_similarity
from ginigraph.gradnorm import GradNormController
from ginigraph.losses import combine_losses, group_welfare_loss, surrogate_loss, utility_loss
from ginigraph.metrics import (
    average_gdif,
    embedding_gini,
    gdif,
    lipschitz_constant,
    rank_auc,
    trace_form,
)
from ginigraph.models import (
    as_leaves,
    attention_edges,
    backbone_embed,
    fair_head_embed,
    graph_operators,
    init_backbone,
    init_fair_head,
    readout_logits,
)
from ginigraph.perturb import perturb_noise, rewire_homophily
from ginigraph.synthetic import SbmSpec, sbm_generate
from ginigraph.trainer import TrainConfig, train, write_training_log


# ---------------------------------------------------------------------------
# 1. Hub-and-leaf fixture: one worst-case bound, two inequality profiles
# ---------------------------------------------------------------------------

# Five nodes: a hub far from four leaves. Both embeddings share the hub pair
# that attains the worst case, but the second doubles the other leaves.
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


def uniform_half_similarity(n: int = 5) -> SimilaritySet:
    i, j = np.triu_indices(n, k=1)
    return SimilaritySet(n, i, j, np.full(i.size, 0.5))


def weighted_l1_sum(similarity: SimilaritySet, z: np.ndarray) -> float:
    """Ordered double sum of S[i,j] * ||z_i - z_j||_1."""
    gaps = np.abs(z[similarity.rows] - z[similarity.cols]).sum(axis=1)
    return 2.0 * float(np.sum(similarity.weights * gaps))


def test_worst_case_bound_hides_profile_differences():
    started = time.monotonic()
    similarity = uniform_half_similarity()
    lip1 = lipschitz_constant(similarity, HUB_LEAF_Z1, delta=0.0)
    lip2 = lipschitz_constant(similarity, HUB_LEAF_Z2, delta=0.0)
    assert abs(lip1 - 19.5) < 1e-9
    assert abs(lip2 - 19.5) < 1e-9
    assert lip1 == lip2
    # the distribution-wide numerators still tell the two sets apart
    num1 = weighted_l1_sum(similarity, HUB_LEAF_Z1)
    num2 = weighted_l1_sum(similarity, HUB_LEAF_Z2)
    assert num1 != num2
    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# 2. Laplacian quadratic form equals the pairwise gap sum
# ---------------------------------------------------------------------------


def test_trace_identity_on_random_instances(rng):
    started = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(2, 51))
        c = int(rng.integers(1, 9))
        similarity = build_random_similarity(rng, n)
        z = rng.normal(size=(n, c))
        lhs = float(np.sum(z * laplacian_apply(similarity, z)))
        gaps = np.sum((z[similarity.rows] - z[similarity.cols]) ** 2, axis=1)
        rhs = float(np.sum(similarity.weights * gaps))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# 3. Weighted norm chain between the L2 and L1 gap sums
# ---------------------------------------------------------------------------


def test_weighted_norm_chain(rng):
    started = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        c = int(rng.integers(1, 9))
        similarity = build_random_similarity(rng, n)
        z = rng.normal(size=(n, c)) * float(rng.uniform(0.1, 10.0))
        diffs = z[similarity.rows] - z[similarity.cols]
        l2_sum = float(np.sum(similarity.weights * np.linalg.norm(diffs, axis=1)))
        l1_sum = float(np.sum(similarity.weights * np.abs(diffs).sum(axis=1)))
        assert l2_sum <= l1_sum + 1e-12
        assert l1_sum <= np.sqrt(c) * l2_sum + 1e-12
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# 4. Gradient correctness through every backbone and loss term
# ---------------------------------------------------------------------------

GRAD_BETAS = (1.0, 0.7, 0.5)


def flatten_params(weights: dict[str, np.ndarray]):
    """Stack all weights into one column vector plus a layout for unflattening."""
    layout = [(name, weights[name].shape) for name in sorted(weights)]
    vec = np.concatenate([weights[name].ravel() for name, _ in layout])
    return vec[:, None], layout


def unflatten_params(vec: np.ndarray, layout) -> dict[str, np.ndarray]:
    flat = np.asarray(vec, dtype=np.float64).ravel()
    expected = sum(shape[0] * shape[1] for _, shape in layout)
    if flat.size != expected:
        raise DimensionError("vector length does not match the layout")
    out: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in layout:
        size = shape[0] * shape[1]
        out[name] = flat[offset : offset + size].reshape(shape).copy()
        offset += size
    return out


def test_flatten_unflatten_round_trip(rng):
    weights = init_backbone("jk", 5, 4, rng)
    vec, layout = flatten_params(weights)
    assert vec.shape[1] == 1
    restored = unflatten_params(vec, layout)
    assert set(restored) == set(weights)
    for name in weights:
        np.testing.assert_array_equal(restored[name], weights[name])
    with pytest.raises(DimensionError):
        unflatten_params(vec[:-1], layout)


def build_grad_instance(seed: int):
    rng = np.random.default_rng(seed)
    graph = build_random_graph(rng, 20, dim=6, p=0.3)
    similarity = build_random_similarity(rng, 20, density=0.4)
    partition = GroupPartition.from_values(rng.integers(0, 2, size=20))
    return graph, similarity, partition


def loss_value_and_grad(
    flat: np.ndarray,
    layout,
    variant: str,
    which: str,
    graph,
    similarity,
    ctx,
    operators,
    edges,
    want_grad: bool = False,
):
    weights = unflatten_params(flat, layout)
    tape = Tape()
    leaves = as_leaves(tape, weights)
    z0 = backbone_embed(variant, leaves, operators)
    h = fair_head_embed(z0, leaves, edges, tape, attention=True)

    def term_for(name: str):
        if name == "utility":
            return utility_loss(readout_logits(h, leaves), graph.labels, np.arange(graph.n), tape)
        if name == "smoothness":
            return smoothness_loss(h, similarity)
        if name == "welfare":
            return group_welfare_loss(group_trace_tensors(h, ctx))
        if name == "softmax":
            return surrogate_loss(h, similarity, "softmax", temperature=1.0)
        if name == "topk":
            return surrogate_loss(h, similarity, "topk", fraction=0.2)
        raise AssertionError(name)

    if which == "objective":
        terms = [term_for(t) for t in ("utility", "smoothness", "welfare")]
        root = combine_losses(terms, GRAD_BETAS)
    else:
        root = term_for(which)
    value = float(root.values[0, 0])
    if not want_grad:
        return value, None
    tape.backward(root)
    parts = []
    for name, shape in layout:
        grad = leaves[name].grad
        parts.append(np.zeros(int(np.prod(shape))) if grad is None else grad.ravel())
    return value, np.concatenate(parts)


GRAD_SUITE_ELAPSED: dict[str, float] = {}


@pytest.mark.parametrize("variant", ["gcn", "gin", "jk"])
def test_gradients_match_finite_differences(variant):
    started = time.monotonic()
    graph, similarity, partition = build_grad_instance(11)
    ctx = partition.within_pairs(similarity)
    operators = graph_operators(graph)
    edges = attention_edges(similarity)
    rng = np.random.default_rng(7)
    weights = init_backbone(variant, graph.features.shape[1], 8, rng)
    weights.update(init_fair_head(8, rng))
    flat, layout = flatten_params(weights)
    flat = flat.ravel()
    eps = 1e-6
    for which in ("utility", "smoothness", "welfare", "softmax", "topk", "objective"):
        _, grad = loss_value_and_grad(
            flat, layout, variant, which, graph, similarity, ctx, operators, edges,
            want_grad=True,
        )
        fd = np.empty_like(flat)
        for k in range(flat.size):
            bumped = flat.copy()
            bumped[k] = flat[k] + eps
            up, _ = loss_value_and_grad(
                bumped, layout, variant, which, graph, similarity, ctx, operators, edges
            )
            bumped[k] = flat[k] - eps
            down, _ = loss_value_and_grad(
                bumped, layout, variant, which, graph, similarity, ctx, operators, edges
            )
            fd[k] = (up - down) / (2.0 * eps)
        err = np.linalg.norm(fd - grad) / max(np.linalg.norm(fd), np.linalg.norm(grad), 1e-12)
        assert err < 1e-4, f"{variant}/{which}: relative gradient error {err:.2e}"
    GRAD_SUITE_ELAPSED[variant] = time.monotonic() - started


def test_gradient_suite_runtime_budget():
    # runs after the three parametrized checks above (file order)
    assert len(GRAD_SUITE_ELAPSED) == 3
    assert sum(GRAD_SUITE_ELAPSED.values()) < 120.0


def test_trace_gradient_closed_form(rng):
    for _ in range(20):
        n = int(rng.integers(2, 30))
        c = int(rng.integers(1, 6))
        similarity = build_random_similarity(rng, n)
        z = rng.normal(size=(n, c))
        tape = Tape()
        zt = tape.leaf(z, "z")
        tape.backward(smoothness_loss(zt, similarity))
        expected = 2.0 * laplacian_apply(similarity, z)
        np.testing.assert_allclose(zt.grad, expected, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# 5. Welfare program properties
# ---------------------------------------------------------------------------


def test_welfare_nonnegative_and_zero_iff_equal(rng):
    started = time.monotonic()
    for _ in range(500):
        m = int(rng.integers(2, 7))
        traces = rng.uniform(0.1, 5.0, size=m)
        value = nswp_value(traces)
        assert value >= 0.0
        if np.ptp(traces) > 1e-9:
            assert value > 0.0
    for m in (2, 3, 6):
        assert nswp_value(np.full(m, 1.7)) == 0.0
    assert nswp_value((2.0, 1.0)) == 0.5
    # one-sided perturbations from a balanced point strictly hurt welfare
    for _ in range(50):
        m = int(rng.integers(2, 7))
        base = float(rng.uniform(0.5, 3.0))
        traces = np.full(m, base)
        traces[int(rng.integers(m))] += float(rng.uniform(0.01, 1.0))
        assert nswp_value(traces) > 0.0
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# 6. Convexity of the trace form
# ---------------------------------------------------------------------------


def test_trace_form_jensen_inequality(rng):
    started = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(2, 20))
        c = int(rng.integers(1, 6))
        similarity = build_random_similarity(rng, n)
        za = rng.normal(size=(n, c))
        zb = rng.normal(size=(n, c))
        lam = float(rng.uniform())
        mixed = trace_form(similarity, lam * za + (1.0 - lam) * zb)
        bound = lam * trace_form(similarity, za) + (1.0 - lam) * trace_form(similarity, zb)
        assert mixed <= bound + 1e-10
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# 7. Markov bound on the large-gap fraction
# ---------------------------------------------------------------------------


def test_tail_fraction_obeys_markov_bound(rng):
    started = time.monotonic()
    for _ in range(200):
        n = int(rng.integers(2, 25))
        c = int(rng.integers(1, 6))
        similarity = build_random_similarity(rng, n)
        z = rng.normal(size=(n, c)) * float(rng.uniform(0.2, 4.0))
        gaps = np.linalg.norm(z[similarity.rows] - z[similarity.cols], axis=1)
        for epsilon in (0.1, 0.5, 1.0, 2.0):
            fraction = tail_fraction(similarity, z, epsilon)
            assert fraction <= float(np.mean(gaps)) / epsilon + 1e-12
            assert fraction <= tail_bound(similarity, z, epsilon) + 1e-12
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# 8. Metric invariants and fixtures
# ---------------------------------------------------------------------------


def test_metric_invariants_and_fixtures(rng):
    started = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(2, 20))
        c = int(rng.integers(1, 6))
        similarity = build_random_similarity(rng, n)
        z = rng.normal(size=(n, c))
        if np.sum(np.abs(z)) == 0.0:
            continue
        g = embedding_gini(similarity, z)
        assert 0.0 <= g <= 1.0
        scale = float(rng.uniform(0.1, 100.0))
        assert abs(embedding_gini(similarity, scale * z) - g) <= 1e-10
        a, b = rng.uniform(0.1, 5.0, size=2)
        assert gdif(a, b) >= 1.0
    assert gdif(0.8, 0.8) == 1.0
    assert average_gdif((1.0, 2.0, 4.0)) == 8.0 / 3.0
    assert rank_auc(
        np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1])
    ) == 0.75
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# 9-11. Synthetic benchmark: directional training outcomes
# ---------------------------------------------------------------------------

BENCHMARK_SEEDS = 5


@pytest.fixture(scope="session")
def benchmark_matrix():
    """Train all six configurations over the shared seeds once per session.

    Records test AUC plus graph-wide trace metrics; the test-mask-restricted
    trace ratio is a high-variance subsample of the small group, so the
    directional comparisons use the graph-wide values the trainer logs.
    """
    rows: dict[str, list[dict]] = {name: [] for name in BENCHMARK_VARIANTS}
    for _, name, result in run_matrix(range(BENCHMARK_SEEDS)):
        final = result.history[-1]
        rows[name].append(
            {
                "auc": result.report.auc,
                "if": final.if_value,
                "gd": final.gd,
                "seconds": result.wall_seconds,
                "betas_valid_every_epoch": all(
                    abs(r.beta1 + r.beta2 + r.beta3 - 3.0) <= 1e-9
                    and min(r.beta1, r.beta2, r.beta3) > 0.0
                    for r in result.history
                ),
            }
        )
    return rows


def variant_seconds(rows, names) -> float:
    return sum(entry["seconds"] for name in names for entry in rows[name])


@pytest.mark.slow
def test_benchmark_full_vs_vanilla(benchmark_matrix):
    rows = benchmark_matrix
    vanilla_if = np.mean([e["if"] for e in rows["vanilla"]])
    full_if = np.mean([e["if"] for e in rows["full"]])
    vanilla_gap = np.mean([abs(e["gd"] - 1.0) for e in rows["vanilla"]])
    full_gap = np.mean([abs(e["gd"] - 1.0) for e in rows["full"]])
    auc_drop = np.mean([e["auc"] for e in rows["vanilla"]]) - np.mean(
        [e["auc"] for e in rows["full"]]
    )
    assert 1.0 - full_if / vanilla_if >= 0.5
    assert 1.0 - full_gap / vanilla_gap >= 0.5
    assert auc_drop <= 0.05
    # shared-budget accounting: these two variants plus the fixed-weight runs
    assert variant_seconds(rows, ("vanilla", "full", "fixed")) <= 25 * 60


@pytest.mark.slow
def test_benchmark_gradnorm_direction(benchmark_matrix):
    rows = benchmark_matrix
    # balanced case: equal norms and rates leave the weights untouched
    controller = GradNormController([1.0, 1.0, 1.0], beta_lr=0.025)
    stepped = controller.gradnorm_step(np.ones(3), np.ones(3))
    np.testing.assert_array_equal(stepped, np.ones(3))
    assert all(e["betas_valid_every_epoch"] for e in rows["full"])
    wins = sum(
        1 for a, b in zip(rows["full"], rows["fixed"]) if a["if"] <= b["if"]
    )
    assert wins >= 4


@pytest.mark.slow
def test_benchmark_ablation_directions(benchmark_matrix):
    rows = benchmark_matrix
    attention_wins = sum(
        1 for a, b in zip(rows["full"], rows["no_attention"]) if a["if"] <= b["if"]
    )
    no_l3_worse = sum(
        1
        for a, b in zip(rows["full"], rows["no_l3"])
        if abs(b["gd"] - 1.0) > abs(a["gd"] - 1.0)
    )
    no_l2_worse = sum(
        1 for a, b in zip(rows["full"], rows["no_l2"]) if b["if"] > a["if"]
    )
    assert attention_wins >= 4
    assert no_l3_worse >= 4
    assert no_l2_worse >= 4
    assert variant_seconds(
        rows, ("full", "no_attention", "no_l3", "no_l2")
    ) <= 30 * 60


# ---------------------------------------------------------------------------
# 12. Harness contracts: rewiring, noise, determinism
# ---------------------------------------------------------------------------


def test_harness_contracts(tmp_path, rng):
    started = time.monotonic()
    spec = SbmSpec(block_sizes=(60, 60), p_within=0.2, p_between=0.05, feature_dim=4)
    graph = sbm_generate(spec, 0)

    def same_label_fraction(g):
        return float(np.mean(g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]))

    base_fraction = same_label_fraction(rewire_homophily(graph, 0.0, 0).graph)
    rewired_fractions = []
    for seed in range(10):
        rewired = rewire_homophily(graph, 0.8, seed).graph
        assert rewired.num_edges == graph.num_edges
        rewired_fractions.append(same_label_fraction(rewired))
    assert np.mean(rewired_fractions) > base_fraction

    sigma = 0.3
    base = rng.normal(size=(200, 50))
    noised = perturb_noise(base, sigma, 4)
    sample_std = float(np.std(noised - base))
    assert abs(sample_std - sigma) <= 0.05 * sigma

    tiny = SbmSpec(block_sizes=(16, 16), p_within=0.3, p_between=0.05, feature_dim=3)
    small = sbm_generate(tiny, 1)
    similarity = topo_similarity(small, 5)
    partition = GroupPartition.from_values(small.sensitive)
    config = TrainConfig(
        seed=3, hidden=4, pretrain_epochs=5, max_epochs=5, patience=5, top_k=5
    )
    logs = []
    for run in range(2):
        result = train(small, similarity, partition, config)
        path = tmp_path / f"run{run}.csv"
        write_training_log(path, result.history)
        logs.append(path.read_bytes())
    assert logs[0] == logs[1]
    assert time.monotonic() - started < 120.0
