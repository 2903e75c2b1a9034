"""Encoder and attention-head tests against plain-numpy forward oracles."""

from __future__ import annotations

import re

import numpy as np
import pytest

from ginigraph import autodiff as ad
from ginigraph.autodiff import Tape
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
    graph_operators,
    init_backbone,
    init_fair_head,
    load_checkpoint,
    readout_logits,
    save_checkpoint,
    train_row_operators,
)

from conftest import build_random_similarity
from oracles import finite_diff_check


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
    z = backbone_embed(variant, as_leaves(tape, weights), ops)
    return graph, weights, ops, z


def test_gcn_forward_matches_oracle(rng, graph_factory):
    graph, w, ops, z = _setup(rng, graph_factory, "gcn")
    a_hat = normalized_adjacency(graph.adjacency()).toarray()
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
    z = backbone_embed("gin", as_leaves(tape, weights), ops)
    adj = graph.adjacency().toarray()
    h = graph.features
    for r in (1, 2):
        mixed = h + weights[f"eps{r}"][0, 0] * h + adj @ h
        h = np_elu(np_elu(mixed @ weights[f"U{r}"]) @ weights[f"V{r}"])
    np.testing.assert_allclose(z.values, h, rtol=1e-12)


def test_jk_forward_matches_oracle(rng, graph_factory):
    graph, w, ops, z = _setup(rng, graph_factory, "jk")
    a_hat = normalized_adjacency(graph.adjacency()).toarray()
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
    z = backbone_embed("gin", as_leaves(tape, weights), graph_operators(graph))
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


ROWS = np.array([9, 5, 2, 0])  # descending, as a caller's train mask may be


def test_train_row_operators_keep_only_the_given_rows(rng, graph_factory):
    graph = graph_factory(rng, 12, p=0.4)
    operators = graph_operators(graph)
    parts = ("indptr", "indices", "data")
    before = {name: [getattr(operators[name], part).copy() for part in parts]
              for name in ("adj", "norm_adj")}
    cut = train_row_operators(operators, ROWS)
    for name in ("adj", "norm_adj"):
        source, kept = operators[name], cut[name]
        assert kept.shape == source.shape
        for i in range(graph.n):
            got = slice(kept.indptr[i], kept.indptr[i + 1])
            if i in ROWS:
                want = slice(source.indptr[i], source.indptr[i + 1])
                assert np.array_equal(kept.indices[got], source.indices[want])
                assert np.array_equal(kept.data[got], source.data[want])
            else:
                assert got.start == got.stop
        for part, copy in zip(parts, before[name]):
            assert np.array_equal(getattr(source, part), copy)
    for name in ("features", "adj_x", "norm_adj_x"):
        assert cut[name] is operators[name]


@pytest.mark.parametrize("variant", BACKBONES)
def test_train_row_operators_embed_the_given_rows_bitwise(rng, graph_factory, variant):
    graph = graph_factory(rng, 12, p=0.4)
    weights = init_backbone(variant, graph.features.shape[1], 4, rng)
    operators = graph_operators(graph)
    z = [
        backbone_embed(variant, as_leaves(Tape(tracing=False), weights), ops).values
        for ops in (operators, train_row_operators(operators, ROWS))
    ]
    assert np.array_equal(z[1][ROWS], z[0][ROWS])


# ---------------------------------------------------------------------------
# Attention head
# ---------------------------------------------------------------------------


def manual_fair_head(z0, weights, edges, attention=True):
    t = z0 @ weights["W"]
    h = t.shape[1]
    a = weights["a"]
    n = edges.shape[0]
    centers = np.repeat(np.arange(n), np.diff(edges.indptr))
    src = t[edges.indices]
    if attention:
        raw = np_leaky(t[centers] @ a[:h] + src @ a[h:])
        gated = raw * edges.data[:, None]
        alpha = np.zeros_like(gated)
        for i in range(n):
            mask = centers == i
            g = gated[mask, 0]
            e = np.exp(g - g.max())
            alpha[mask, 0] = e / e.sum()
    else:
        counts = np.bincount(centers, minlength=n)
        alpha = (1.0 / counts[centers])[:, None]
    agg = np.zeros((n, h))
    np.add.at(agg, centers, alpha * src)
    return np_elu(agg)


def test_attention_edges_include_self_loops(rng):
    s = build_random_similarity(rng, 7)
    edges = attention_edges(s).edges
    assert edges.nnz == 2 * s.num_pairs + 7
    # row i lists i's neighbours and i itself, columns ascending
    for i in range(7):
        row = edges.indices[edges.indptr[i] : edges.indptr[i + 1]]
        assert i in row and np.all(np.diff(row) > 0)
    # data holds the similarities, with 1.0 on the diagonal
    np.testing.assert_array_equal(edges.toarray(), s.matrix.toarray() + np.eye(7))


@pytest.mark.parametrize("attention", [True, False])
def test_fair_head_matches_oracle(rng, attention):
    s = build_random_similarity(rng, 8)
    weights = init_fair_head(4, rng)
    z0 = rng.normal(size=(8, 4))
    plan = attention_edges(s)
    tape = Tape(tracing=False)
    out = fair_head_embed(z0=tape.leaf(z0), leaves=as_leaves(tape, weights),
                          edges=plan, tape=tape, attention=attention)
    np.testing.assert_allclose(
        out.values, manual_fair_head(z0, weights, plan.edges, attention), rtol=1e-10
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
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_exact(tmp_path, rng):
    params = ModelParams(
        variant="gin",
        backbone=init_backbone("gin", 6, 4, rng),
        fair=init_fair_head(4, rng),
        attention=False,
    )
    params.fair["W"][0] = [5e-324, -0.0, np.finfo(np.float64).max, 1.0 / 3.0]
    path = tmp_path / "model.json"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert loaded.variant == "gin" and loaded.attention is False
    assert loaded.backbone["w_out"].shape[0] == 4
    for section, other in (("backbone", loaded.backbone), ("fair", loaded.fair)):
        mine = getattr(params, section)
        assert set(mine) == set(other)
        for name, value in mine.items():
            assert (value.shape, value.tobytes()) == (other[name].shape, other[name].tobytes())


def test_checkpoint_without_fair_head(tmp_path, rng):
    params = ModelParams(variant="gcn", backbone=init_backbone("gcn", 3, 2, rng))
    path = tmp_path / "model.json"
    save_checkpoint(path, params)
    assert load_checkpoint(path).fair == {}


def test_checkpoint_rejects_bad_header(tmp_path, rng):
    path = tmp_path / "model.json"
    path.write_text("ginigraph-checkpoint v1\nvariant gcn\nsection backbone 0\nsection fair 0\n")
    with pytest.raises(DataFormatError, match=re.escape(str(path))):
        load_checkpoint(path)
    save_checkpoint(path, ModelParams(variant="gcn", backbone=init_backbone("gcn", 3, 2, rng)))
    v3 = path.read_text()
    # a v2 file is the v3 layout without the attention flag
    v2 = v3.replace("checkpoint v3", "checkpoint v2").replace('"attention": true, ', "")
    for text in (v2, v3.replace("checkpoint v3", "checkpoint v9")):
        path.write_text(text)
        with pytest.raises(DataFormatError, match="not a 'ginigraph-checkpoint v3' object"):
            load_checkpoint(path)


GCN_3_2 = {"W1": (3, 2), "W2": (2, 2), "w_out": (2, 1), "b_out": (1, 1)}
HEAD_2 = {"W": (2, 2), "a": (4, 1), "w_out": (2, 1), "b_out": (1, 1)}
W1_ROW = '"W1": [[0.5, 0.5]'


def _swap(old, new):
    return lambda text: text.replace(old, new, 1)


# edits of the checkpoint text of the GCN_3_2 layout with every weight 0.5
CHECKPOINT_EDITS = {
    "variant": _swap('"variant": "gcn"', '"variant": "foo"'),
    "shape": _swap('"W1": [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]', '"W1": [0.5, 0.5, 0.5]'),
    "value": _swap(W1_ROW, '"W1": [[0.5, "abc"]'),
    "nan": _swap(W1_ROW, '"W1": [[NaN, 0.5]'),
    "Infinity": _swap(W1_ROW, '"W1": [[Infinity, 0.5]'),
    "bool": _swap(W1_ROW, '"W1": [[true, 0.5]'),
    "short-row": _swap(W1_ROW, '"W1": [[0.5]'),
    "truncated": lambda text: text[: len(text) // 2],
    "section": _swap('"fair": {}', '"head": {}'),
    "other-variant": _swap('"variant": "gcn"', '"variant": "gin"'),
    "duplicate-key": _swap('"variant": "gcn"', '"variant": "gcn", "variant": "gcn"'),
    "attention-string": _swap('"attention": true', '"attention": "on"'),
    "attention-number": _swap('"attention": true', '"attention": 1'),
    "attention-missing": _swap('"attention": true, ', ""),
}
CHECKPOINT_LAYOUTS = {
    "only-W1": ({"W1": (1, 2)}, {}),
    "W2-shape": ({**GCN_3_2, "W2": (2, 3)}, {}),
    "hidden-mismatch": ({**GCN_3_2, "w_out": (3, 1)}, {}),
    "extra-matrix": ({**GCN_3_2, "P1": (2, 2)}, {}),
    "head-shape": (GCN_3_2, {**HEAD_2, "a": (2, 1)}),
    "head-width": (GCN_3_2, {"W": (3, 3), "a": (6, 1), "w_out": (3, 1), "b_out": (1, 1)}),
}


@pytest.mark.parametrize("case", [*CHECKPOINT_EDITS, *CHECKPOINT_LAYOUTS])
def test_checkpoint_rejects_malformed_files_when_loading(tmp_path, case):
    path = tmp_path / "model.json"
    layout = CHECKPOINT_LAYOUTS.get(case, (GCN_3_2, {}))
    backbone, fair = (
        {name: np.full(shape, 0.5) for name, shape in part.items()} for part in layout
    )
    params = ModelParams("gcn", {name: np.full(shape, 0.5) for name, shape in GCN_3_2.items()})
    # construction refuses these layouts, so the loader must refuse the file
    params.backbone, params.fair = backbone, fair
    save_checkpoint(path, params)
    if case in CHECKPOINT_EDITS:
        text = path.read_text()
        edited = CHECKPOINT_EDITS[case](text)
        assert edited != text
        path.write_text(edited)
    with pytest.raises(DataFormatError, match=re.escape(str(path))):
        load_checkpoint(path)


@pytest.mark.parametrize("case", sorted(CHECKPOINT_LAYOUTS))
def test_model_params_refuse_a_malformed_layout_when_constructed(case):
    backbone, fair = (
        {name: np.full(shape, 0.5) for name, shape in part.items()}
        for part in CHECKPOINT_LAYOUTS[case]
    )
    with pytest.raises(ContractError, match="matrix"):
        ModelParams("gcn", backbone, fair)


def test_hand_built_params_name_a_missing_or_misshapen_matrix(rng):
    with pytest.raises(ContractError, match="backbone matrix W1 is missing"):
        ModelParams("gcn", {})
    misshapen = init_backbone("gcn", 3, 2, rng)
    misshapen["W2"] = misshapen["W2"].T[:1]
    with pytest.raises(ContractError, match=re.escape("backbone matrix W2 has shape (1, 2)")):
        ModelParams("gcn", misshapen)
    with pytest.raises(ContractError, match="unknown backbone"):
        ModelParams("mlp", init_backbone("gcn", 3, 2, rng))


def test_checkpoint_layouts_of_every_variant_load(tmp_path, rng):
    for variant in BACKBONES:
        path = tmp_path / f"{variant}.json"
        params = ModelParams(variant, init_backbone(variant, 5, 3, rng), init_fair_head(3, rng))
        save_checkpoint(path, params)
        assert load_checkpoint(path).backbone["w_out"].shape[0] == 3
