"""Encoder and attention-head tests against plain-numpy forward oracles."""

from __future__ import annotations

import re

import numpy as np
import pytest

from ginigraph import autodiff as ad
from ginigraph.autodiff import Tape, finite_diff_check
from ginigraph.errors import ContractError, DataFormatError, DimensionError
from ginigraph.graph import normalized_adjacency
from ginigraph.models import (
    BACKBONES,
    LEAKY_SLOPE,
    ModelParams,
    as_leaves,
    attention_edges,
    backbone_embed,
    fair_head_embed,
    flatten_params,
    graph_operators,
    init_backbone,
    init_fair_head,
    load_checkpoint,
    readout_logits,
    save_checkpoint,
    unflatten_params,
)

from conftest import build_random_similarity


def np_elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def np_leaky(x):
    return np.where(x >= 0, x, LEAKY_SLOPE * x)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_init_backbone_shapes(rng):
    for variant in BACKBONES:
        weights = init_backbone(variant, in_dim=7, hidden=5, rng=rng)
        assert weights["w_out"].shape == (5, 1)
        assert weights["b_out"].shape == (1, 1)
        if variant == "gcn":
            assert weights["W1"].shape == (7, 5) and weights["W2"].shape == (5, 5)
        if variant == "gin":
            assert weights["eps1"].shape == (1, 1) and weights["U1"].shape == (7, 5)
        if variant == "jk":
            assert weights["P1"].shape == (5, 5) and weights["P2"].shape == (5, 5)
    with pytest.raises(ContractError):
        init_backbone("sage", 4, 4, rng)
    with pytest.raises(ContractError):
        init_backbone("gcn", 0, 4, rng)


def test_init_fair_head_shapes(rng):
    fair = init_fair_head(6, rng)
    assert fair["W"].shape == (6, 6)
    assert fair["a"].shape == (12, 1)
    assert fair["w_out"].shape == (6, 1)


def test_init_fair_head_scale_multiplies_the_draw():
    base = init_fair_head(5, np.random.default_rng(3))
    small = init_fair_head(5, np.random.default_rng(3), scale=0.1)
    for name in ("W", "a", "w_out"):
        np.testing.assert_allclose(small[name], 0.1 * base[name], rtol=0, atol=0)
    np.testing.assert_array_equal(small["b_out"], np.zeros((1, 1)))
    with pytest.raises(ContractError):
        init_fair_head(5, np.random.default_rng(3), scale=0.0)


# ---------------------------------------------------------------------------
# Encoder forwards vs numpy oracles
# ---------------------------------------------------------------------------


def _setup(rng, graph_factory, variant, hidden=4):
    graph = graph_factory(rng, 9, dim=5)
    weights = init_backbone(variant, graph.features.shape[1], hidden, rng)
    ops = graph_operators(graph)
    tape = Tape(tracing=False)
    leaves = as_leaves(tape, weights)
    x = tape.leaf(graph.features, "x")
    z = backbone_embed(variant, leaves, x, ops)
    return graph, weights, ops, z


def test_gcn_forward_matches_oracle(rng, graph_factory):
    graph, w, ops, z = _setup(rng, graph_factory, "gcn")
    a_hat = normalized_adjacency(graph).toarray()
    h1 = np_elu(a_hat @ graph.features @ w["W1"])
    expected = np_elu(a_hat @ h1 @ w["W2"])
    np.testing.assert_allclose(z.values, expected, rtol=1e-12)


def test_gin_forward_matches_oracle(rng, graph_factory):
    graph = graph_factory(rng, 8, dim=4)
    weights = init_backbone("gin", 4, 3, rng)
    weights["eps1"][:] = 0.3
    weights["eps2"][:] = -0.2
    ops = graph_operators(graph)
    tape = Tape(tracing=False)
    z = backbone_embed("gin", as_leaves(tape, weights), tape.leaf(graph.features), ops)
    adj = graph.adjacency().toarray()
    h = graph.features
    for r in (1, 2):
        mixed = h + weights[f"eps{r}"][0, 0] * h + adj @ h
        h = np_elu(np_elu(mixed @ weights[f"U{r}"]) @ weights[f"V{r}"])
    np.testing.assert_allclose(z.values, h, rtol=1e-12)


def test_jk_forward_matches_oracle(rng, graph_factory):
    graph, w, ops, z = _setup(rng, graph_factory, "jk")
    a_hat = normalized_adjacency(graph).toarray()
    h1 = np_elu(a_hat @ graph.features @ w["W1"])
    h2 = np_elu(a_hat @ h1 @ w["W2"])
    expected = np_elu(h1 @ w["P1"] + h2 @ w["P2"])
    np.testing.assert_allclose(z.values, expected, rtol=1e-12)


def test_gin_zero_weights_give_zero_embeddings(rng, graph_factory):
    graph = graph_factory(rng, 6, dim=3)
    weights = init_backbone("gin", 3, 4, rng)
    for name in ("U1", "V1", "U2", "V2"):
        weights[name][:] = 0.0
    tape = Tape(tracing=False)
    z = backbone_embed(
        "gin", as_leaves(tape, weights), tape.leaf(graph.features), graph_operators(graph)
    )
    np.testing.assert_array_equal(z.values, np.zeros((6, 4)))


def test_readout_logits_match_affine_map(rng, graph_factory):
    graph, w, ops, z = _setup(rng, graph_factory, "gcn")
    tape = Tape(tracing=False)
    leaves = as_leaves(tape, w)
    logits = readout_logits(tape.leaf(z.values), leaves)
    np.testing.assert_allclose(
        logits.values, z.values @ w["w_out"] + w["b_out"][0, 0], rtol=1e-12
    )
    assert logits.shape == (graph.n, 1)


# ---------------------------------------------------------------------------
# Attention head
# ---------------------------------------------------------------------------


def manual_fair_head(z0, weights, edges, attention=True):
    t = z0 @ weights["W"]
    h = t.shape[1]
    a = weights["a"]
    src = t[edges.neighbors]
    if attention:
        raw = np_leaky(t[edges.centers] @ a[:h] + src @ a[h:])
        gated = raw * edges.sim_values[:, None]
        alpha = np.zeros_like(gated)
        for i in range(edges.n):
            mask = edges.centers == i
            g = gated[mask, 0]
            e = np.exp(g - g.max())
            alpha[mask, 0] = e / e.sum()
    else:
        counts = np.bincount(edges.centers, minlength=edges.n)
        alpha = (1.0 / counts[edges.centers])[:, None]
    agg = np.zeros((edges.n, h))
    np.add.at(agg, edges.centers, alpha * src)
    return np_elu(agg)


def test_attention_edges_include_self_loops(rng):
    s = build_random_similarity(rng, 7)
    edges = attention_edges(s)
    assert edges.centers.size == 2 * s.num_pairs + 7
    assert np.all(edges.sim_values[-7:] == 1.0)
    # every node has at least its self-loop
    assert set(np.unique(edges.centers)) == set(range(7))


@pytest.mark.parametrize("attention", [True, False])
def test_fair_head_matches_oracle(rng, attention):
    s = build_random_similarity(rng, 8)
    weights = init_fair_head(4, rng)
    z0 = rng.normal(size=(8, 4))
    edges = attention_edges(s)
    tape = Tape(tracing=False)
    out = fair_head_embed(z0=tape.leaf(z0), leaves=as_leaves(tape, weights),
                          edges=edges, tape=tape, attention=attention)
    np.testing.assert_allclose(
        out.values, manual_fair_head(z0, weights, edges, attention), rtol=1e-10
    )


def single_pair_similarity(weight):
    from ginigraph.graph import SimilaritySet

    return SimilaritySet(3, [0], [1], [weight])


def test_fair_head_output_responds_to_similarity(rng):
    weights = init_fair_head(3, rng)
    z0 = rng.normal(size=(3, 3))
    weak = attention_edges(single_pair_similarity(0.1))
    strong = attention_edges(single_pair_similarity(0.9))
    tape = Tape(tracing=False)
    out_weak = fair_head_embed(tape.leaf(z0), as_leaves(tape, weights), weak, tape)
    out_strong = fair_head_embed(tape.leaf(z0), as_leaves(tape, weights), strong, tape)
    assert not np.allclose(out_weak.values, out_strong.values)


def test_fair_head_rejects_wrong_score_vector_shape(rng):
    s = build_random_similarity(rng, 4)
    weights = init_fair_head(3, rng)
    weights["a"] = weights["a"][:4]
    tape = Tape(tracing=False)
    with pytest.raises(DimensionError):
        fair_head_embed(
            tape.leaf(rng.normal(size=(4, 3))),
            as_leaves(tape, weights),
            attention_edges(s),
            tape,
        )


def test_fair_head_gradient_passes_finite_differences(rng):
    s = build_random_similarity(rng, 6)
    weights = init_fair_head(3, rng)
    z0 = rng.normal(size=(6, 3))
    edges = attention_edges(s)

    def evaluator(a_flat):
        tape = Tape()
        leaves = as_leaves(tape, {**weights, "a": a_flat.reshape(6, 1)})
        out = fair_head_embed(tape.leaf(z0), leaves, edges, tape)
        scalar = ad.sum_all(ad.hadamard(out, out))
        tape.backward(scalar)
        return float(scalar.values[0, 0]), leaves["a"].grad.copy()

    report = finite_diff_check(evaluator, weights["a"].copy(), step=1e-6, tolerance=1e-5)
    assert report.passed, report


# ---------------------------------------------------------------------------
# Parameter plumbing and checkpoints
# ---------------------------------------------------------------------------


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


def test_checkpoint_round_trip_exact(tmp_path, rng):
    params = ModelParams(
        variant="gin",
        backbone=init_backbone("gin", 6, 4, rng),
        fair=init_fair_head(4, rng),
    )
    path = tmp_path / "model.txt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert loaded.variant == "gin"
    assert loaded.hidden == 4
    for section, other in (("backbone", loaded.backbone), ("fair", loaded.fair)):
        mine = getattr(params, section)
        assert set(mine) == set(other)
        for name in mine:
            np.testing.assert_array_equal(mine[name], other[name])


def test_checkpoint_without_fair_head(tmp_path, rng):
    params = ModelParams(variant="gcn", backbone=init_backbone("gcn", 3, 2, rng))
    path = tmp_path / "model.txt"
    save_checkpoint(path, params)
    assert load_checkpoint(path).fair == {}


def test_checkpoint_rejects_bad_header(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("some-other-format v9\n")
    with pytest.raises(DataFormatError, match="header"):
        load_checkpoint(path)
    path.write_text("ginigraph-checkpoint v1\nvariant gcn\nsection backbone 1\nbogus\n")
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "old, new",
    [
        ("variant gcn", "variant foo"),
        ("section backbone 4", "section backbone four"),
        ("matrix W1 3 2", "matrix W1 3 x"),
        ("ROW", "0.5 abc"),
        ("ROW", "nan 0.5"),
        ("ROW", "0.5"),
        ("ROW", None),
    ],
    ids=["variant", "count", "shape", "value", "nan", "short-row", "truncated"],
)
def test_checkpoint_rejects_malformed_files_when_loading(tmp_path, rng, old, new):
    path = tmp_path / "model.txt"
    save_checkpoint(path, ModelParams(variant="gcn", backbone=init_backbone("gcn", 3, 2, rng)))
    lines = path.read_text().splitlines()
    at = lines.index("matrix W1 3 2") + 1 if old == "ROW" else lines.index(old)
    lines = lines[: at + 1] if new is None else lines[:at] + [new] + lines[at + 1 :]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=re.escape(str(path))):
        load_checkpoint(path)
