"""Two-stage trainer tests: optimizer algebra, determinism, ablation switches."""

from __future__ import annotations

import runpy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ginigraph import trainer as trainer_module
from ginigraph.autodiff import Tape
from ginigraph.errors import ConfigError, ContractError
from ginigraph.gradnorm import GradNormController
from ginigraph.graph import Graph, GroupPartition, attr_similarity
from ginigraph.losses import combine_losses, group_welfare_loss, utility_loss
from ginigraph.metrics import average_gdif, compute_report, rank_auc, trace_form
from ginigraph.models import (
    BACKBONES,
    ModelParams,
    as_leaves,
    attention_edges,
    fair_head_embed,
    init_backbone,
    init_fair_head,
    readout_logits,
)
from ginigraph.trainer import (
    LOG_COLUMNS,
    AdamState,
    TrainConfig,
    _probe_sweeps,
    _val_auc,
    _weighted_gradient,
    embed,
    evaluate,
    pretrain,
    train,
    write_training_log,
)

from oracles import full_row_pretrain, group_trace_tensors, smoothness_loss


def separable_graph(seed: int, n: int = 40, dim: int = 6) -> Graph:
    """Two feature-separated label clusters with mostly within-cluster edges."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n // 2)
    features = rng.normal(size=(n, dim))
    features[:, 0] += np.where(labels == 1, 2.5, -2.5)
    sensitive = (rng.random(n) < 0.4).astype(int)
    i, j = np.triu_indices(n, k=1)
    p = np.where(labels[i] == labels[j], 0.25, 0.02)
    keep = rng.random(i.size) < p
    return Graph(
        edges=np.column_stack([i[keep], j[keep]]),
        features=features,
        labels=labels,
        sensitive=sensitive,
    )


def quick_config(**overrides) -> TrainConfig:
    base = dict(
        hidden=8,
        pretrain_epochs=60,
        max_epochs=50,
        patience=50,
        top_k=10,
        seed=7,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def fixture_data():
    graph = separable_graph(11)
    similarity = attr_similarity(graph.features, top_k=10)
    partition = GroupPartition.from_values(graph.sensitive)
    return graph, similarity, partition


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_validation_guards():
    with pytest.raises(ConfigError):
        TrainConfig(backbone="sage").validate()
    with pytest.raises(ConfigError):
        TrainConfig(hidden=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(beta2=-0.5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(surrogate="topk").validate()
    with pytest.raises(ConfigError):
        TrainConfig(gradnorm_scope="all").validate()
    with pytest.raises(ConfigError):
        TrainConfig(head_scale=0.0).validate()
    TrainConfig().validate()  # defaults are valid


def test_the_benchmark_train_configs_build_and_validate():
    # every field the benchmark passes must stay a TrainConfig field with a valid
    # value; perfbench/spec.py pins the benchmark's inputs, so it is read, never edited
    spec = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"))
    assert spec["TRAIN_VARIANTS"]
    for variant in spec["TRAIN_VARIANTS"].values():
        TrainConfig(seed=0, **{**spec["TRAIN_CONFIG"], **variant}).validate()


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_zero_decay_is_identity(rng):
    weights = {"W": rng.normal(size=(3, 3))}
    before = weights["W"].copy()
    state = AdamState(weights, lr=0.1, weight_decay=0.0)
    state.step({"W": np.zeros((3, 3))})
    np.testing.assert_array_equal(weights["W"], before)


def test_adam_first_step_is_normalized_gradient(rng):
    g = rng.normal(size=(4, 2))
    weights = {"W": np.zeros((4, 2))}
    state = AdamState(weights, lr=0.01, weight_decay=0.0)
    state.step({"W": g})
    # from zero moments the bias corrections cancel: step = -lr * g / (|g| + eps)
    np.testing.assert_allclose(weights["W"], -0.01 * g / (np.abs(g) + 1e-8), rtol=1e-6)


def test_adam_descends_against_constant_gradient():
    weights = {"W": np.array([[1.0]])}
    state = AdamState(weights, lr=0.05, weight_decay=0.0)
    for _ in range(50):
        state.step({"W": np.array([[2.0]])})
    assert weights["W"][0, 0] < 1.0 - 0.05  # moved opposite to the gradient sign


def test_adam_decoupled_decay_shrinks_without_gradient():
    weights = {"W": np.array([[4.0]])}
    state = AdamState(weights, lr=0.1, weight_decay=0.5)
    state.step({"W": np.zeros((1, 1))})
    np.testing.assert_allclose(weights["W"], [[4.0 * (1 - 0.1 * 0.5)]])


def test_adam_rejects_shape_mismatch(rng):
    weights = {"W": np.zeros((2, 2))}
    state = AdamState(weights, lr=0.1, weight_decay=0.0)
    with pytest.raises(ContractError):
        state.step({"W": np.zeros((3, 2))})


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------


def test_pretrain_zero_epochs_returns_initial_weights():
    graph = separable_graph(3, n=20)
    config = quick_config(pretrain_epochs=0)
    weights, z0 = pretrain(graph, config)
    reference = init_backbone(
        config.backbone, graph.features.shape[1], config.hidden, np.random.default_rng(config.seed)
    )
    for name in reference:
        np.testing.assert_array_equal(weights[name], reference[name])
    assert z0.shape == (20, config.hidden)


def test_pretrain_learns_separable_labels(fixture_data):
    graph, _, _ = fixture_data
    config = quick_config(pretrain_epochs=150)
    weights, _ = pretrain(graph, config)
    params = ModelParams(variant=config.backbone, backbone=weights)
    masked = train_masked(graph, config)
    _, scores = embed(params, masked)
    test = masked.test_mask
    assert rank_auc(scores[test], masked.labels[test]) > 0.95


def isolated_train_node_graph() -> Graph:
    """separable_graph(5) without node 0's edges, split by the caller: the train mask descends."""
    graph = separable_graph(5)
    n = graph.n
    graph = replace(
        graph,
        edges=graph.edges[(graph.edges != 0).all(axis=1)],
        train_mask=np.arange(n - 2, -1, -2),
        val_mask=np.arange(1, n // 2, 2),
        test_mask=np.arange(n // 2 + 1, n, 2),
    )
    assert graph.adjacency()[0].nnz == 0 and graph.train_mask[-1] == 0
    return graph


@pytest.mark.parametrize("backbone", BACKBONES)
@pytest.mark.parametrize("split", ["auto", "isolated train node, descending mask"])
def test_pretrain_is_bitwise_the_full_row_loop(backbone, split):
    graph = separable_graph(11) if split == "auto" else isolated_train_node_graph()
    config = quick_config(backbone=backbone)
    weights, embeddings = pretrain(graph, config)
    expected_weights, expected_embeddings = full_row_pretrain(graph, config)
    assert sorted(weights) == sorted(expected_weights)
    for name in weights:
        assert np.array_equal(weights[name], expected_weights[name]), name
    assert np.array_equal(embeddings, expected_embeddings)


def train_masked(graph: Graph, config: TrainConfig) -> Graph:
    """Reproduce the auto-split the trainer applies when masks are missing."""
    from ginigraph.trainer import _ensure_masks

    return _ensure_masks(graph, config.seed)


# ---------------------------------------------------------------------------
# Full training runs
# ---------------------------------------------------------------------------


def test_train_smoke_run_populates_history(fixture_data):
    graph, similarity, partition = fixture_data
    result = train(graph, similarity, partition, quick_config(max_epochs=20))
    assert result.epochs_run == 20
    assert len(result.history) == 20
    for record in result.history:
        betas = np.array([record.beta1, record.beta2, record.beta3])
        assert np.all(betas > 0.0)
        np.testing.assert_allclose(betas.sum(), 3.0, atol=1e-9)
    assert result.report.individual_unfairness >= 0.0
    assert result.wall_seconds > 0.0
    blob = result.to_json_dict()
    assert blob["seed"] == 7
    assert len(blob["final_betas"]) == 3
    assert blob["final_metrics"]["auc"] is not None


def test_train_is_bitwise_deterministic(tmp_path, fixture_data):
    graph, similarity, partition = fixture_data
    config = quick_config(max_epochs=15)
    a = train(graph, similarity, partition, config)
    b = train(graph, similarity, partition, quick_config(max_epochs=15))
    assert a.history == b.history
    for name in a.params.fair:
        np.testing.assert_array_equal(a.params.fair[name], b.params.fair[name])
    write_training_log(tmp_path / "a.csv", a.history)
    write_training_log(tmp_path / "b.csv", b.history)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def counted_pretrain(monkeypatch) -> list:
    """The configs that trainer's pretrain is called with from now on."""
    calls = []
    pretrain = trainer_module.pretrain

    def counted(graph, config):
        calls.append(config)
        return pretrain(graph, config)

    monkeypatch.setattr(trainer_module, "pretrain", counted)
    return calls


def test_train_on_a_shared_pretraining_logs_bitwise_equal(tmp_path, fixture_data, monkeypatch):
    graph, similarity, partition = fixture_data
    alone = train(graph, similarity, partition, quick_config(max_epochs=5))
    calls = counted_pretrain(monkeypatch)
    pretrainings = {}
    first, shared = (
        train(graph, similarity, partition, quick_config(max_epochs=5, beta2=beta2), pretrainings)
        for beta2 in (0.5, 1.0)
    )
    # the masks train fills in do not hide the caller's graph from the cache
    ((held, (weights, _)),) = pretrainings.values()
    assert len(calls) == 1 and held is graph
    write_training_log(tmp_path / "shared.csv", shared.history)
    write_training_log(tmp_path / "alone.csv", alone.history)
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
    for name in weights:
        np.testing.assert_array_equal(shared.params.backbone[name], weights[name])
        # each result owns its backbone, so runs sharing a pretraining stay apart
        assert shared.params.backbone[name] is not weights[name]
        assert shared.params.backbone[name] is not first.params.backbone[name]


def test_train_on_a_warm_cache_never_runs_the_encoder(fixture_data, monkeypatch):
    graph, similarity, partition = fixture_data
    config = quick_config(max_epochs=3)
    pretrainings = {}
    train(graph, similarity, partition, config, pretrainings)
    encoder_runs = []
    backbone_embed = trainer_module.backbone_embed

    def counted(*args):
        encoder_runs.append(args[0])
        return backbone_embed(*args)

    monkeypatch.setattr(trainer_module, "backbone_embed", counted)
    result = train(graph, similarity, partition, config, pretrainings)
    assert encoder_runs == []
    # the closing head forward on the cached Z is the saved model's forward pass
    h, scores = embed(result.params, graph, similarity)
    assert h.tobytes() == result.embeddings.tobytes()
    assert scores.tobytes() == result.scores.tobytes()


def test_one_cache_gives_each_graph_its_own_pretraining(tmp_path, monkeypatch):
    config = quick_config(max_epochs=3)
    data = []
    for seed in (21, 22):
        graph = separable_graph(seed)
        similarity = attr_similarity(graph.features, top_k=10)
        data.append((graph, similarity, GroupPartition.from_values(graph.sensitive)))
    alone = [train(*run, config) for run in data]
    calls = counted_pretrain(monkeypatch)
    pretrainings = {}
    shared = [train(*run, config, pretrainings) for run in data]
    assert len(calls) == 2
    held = [entry[0] for entry in pretrainings.values()]
    assert len(held) == 2 and all(a is b for a, (b, _, _) in zip(held, data))
    for a, b in zip(alone, shared):
        write_training_log(tmp_path / "alone.csv", a.history)
        write_training_log(tmp_path / "shared.csv", b.history)
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
        np.testing.assert_array_equal(a.embeddings, b.embeddings)


def test_train_builds_the_adjacency_once(fixture_data, monkeypatch):
    graph, similarity, partition = fixture_data
    config = quick_config(max_epochs=3)
    graph = train_masked(graph, config)
    built = []
    adjacency = Graph.adjacency

    def counted(self):
        built.append(self)
        return adjacency(self)

    monkeypatch.setattr(Graph, "adjacency", counted)
    train(graph, similarity, partition, config)
    assert len(built) == 1


def test_training_log_format(tmp_path, fixture_data):
    graph, similarity, partition = fixture_data
    result = train(graph, similarity, partition, quick_config(max_epochs=3))
    path = tmp_path / "log.csv"
    write_training_log(path, result.history)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(LOG_COLUMNS)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and len(first) == len(LOG_COLUMNS)


def test_vanilla_run_disables_fairness_terms(fixture_data):
    graph, similarity, partition = fixture_data
    result = train(graph, similarity, partition, quick_config(beta2=0.0, beta3=0.0))
    for record in result.history:
        assert record.l2 == 0.0 and record.l3 == 0.0
        assert record.beta2 == 0.0 and record.beta3 == 0.0
        assert record.beta1 == 1.0


def test_vanilla_run_matches_pure_backbone_utility(fixture_data):
    graph, similarity, partition = fixture_data
    config = quick_config(pretrain_epochs=150, max_epochs=150, patience=150)
    vanilla = train(
        graph, similarity, partition, quick_config(
            pretrain_epochs=150, max_epochs=150, patience=150, beta2=0.0, beta3=0.0
        )
    )
    weights, _ = pretrain(graph, config)
    backbone_only = ModelParams(variant=config.backbone, backbone=weights)
    masked = train_masked(graph, config)
    pure = evaluate(*embed(backbone_only, masked), masked, similarity, partition)
    assert abs(vanilla.report.auc - pure.auc) <= 0.02


def test_missing_partition_disables_group_term(fixture_data):
    graph, similarity, _ = fixture_data
    with pytest.warns(UserWarning, match="fewer than two groups"):
        result = train(graph, similarity, None, quick_config(max_epochs=5))
    for record in result.history:
        assert record.l3 == 0.0 and record.beta3 == 0.0
    assert np.isnan(result.history[-1].gd)


@pytest.mark.parametrize(
    "overrides",
    [dict(), dict(beta3=0.0), dict(beta2=0.0, beta3=0.0)],
    ids=["full", "no_l3", "vanilla"],
)
def test_logged_gd_is_the_trace_form_gdif_of_each_epoch(fixture_data, monkeypatch, overrides):
    graph, similarity, partition = fixture_data
    heads = []

    def recording(*args, **kwargs):
        out = fair_head_embed(*args, **kwargs)
        heads.append(out.values)
        return out

    monkeypatch.setattr(trainer_module, "fair_head_embed", recording)
    result = train(graph, similarity, partition, quick_config(max_epochs=4, **overrides))
    ctx = partition.within_pairs(similarity)
    # one head forward per epoch, then the final forward
    expected = [average_gdif([trace_form(group, h) for group in ctx.sets]) for h in heads[:-1]]
    assert [record.gd for record in result.history] == expected
    # the logged IF is the trace of the same head output, also when L2 is off
    assert [record.if_value for record in result.history] == [
        trace_form(similarity, h) for h in heads[:-1]
    ]
    assert all(np.isfinite(record.gd) for record in result.history)


def test_fixed_betas_without_gradnorm(fixture_data):
    graph, similarity, partition = fixture_data
    result = train(
        graph, similarity, partition,
        quick_config(gradnorm=False, beta2=0.7, beta3=0.3, max_epochs=8),
    )
    for record in result.history:
        assert record.beta1 == 1.0
        assert record.beta2 == 0.7
        assert record.beta3 == 0.3


def test_probe_sweeps_give_the_weighted_total_gradient(fixture_data):
    graph, similarity, partition = fixture_data
    config = quick_config(pretrain_epochs=10)
    graph = train_masked(graph, config)
    _, z0 = pretrain(graph, config)
    weights = init_fair_head(config.hidden, np.random.default_rng(3), scale=0.5)
    tape = Tape()
    leaves = as_leaves(tape, weights)
    h = fair_head_embed(tape.leaf(z0), leaves, attention_edges(similarity))
    terms = [
        utility_loss(readout_logits(h, leaves), graph.labels, graph.train_mask),
        smoothness_loss(h, similarity),
        group_welfare_loss(group_trace_tensors(h, partition.within_pairs(similarity))),
    ]
    controller = GradNormController([1.0, 1.0, 1.0])
    term_grads, norms = _probe_sweeps(terms, leaves)
    controller.step([float(t.values[0, 0]) for t in terms], norms)
    betas = controller.step([float(t.values[0, 0]) for t in terms], 2.0 * norms)
    combined = _weighted_gradient(term_grads, betas)
    tape.backward(combine_losses(terms, betas))
    for name, leaf in leaves.items():
        scale = np.abs(leaf.grad).max()
        np.testing.assert_allclose(combined[name], leaf.grad, rtol=1e-12, atol=1e-12 * scale)


def test_weighted_gradient_counts_none_as_zero():
    grads = [
        {"a": np.ones((2, 1)), "b": None, "c": None},
        {"a": None, "b": np.ones((1, 1)), "c": None},
    ]
    total = _weighted_gradient(grads, [2.0, 3.0])
    np.testing.assert_array_equal(total["a"], [[2.0], [2.0]])
    np.testing.assert_array_equal(total["b"], [[3.0]])
    assert total["c"] is None


def test_val_auc_is_nan_only_for_domain_errors(monkeypatch):
    scores = np.linspace(0.1, 0.9, 6)
    labels = np.array([1, 1, 1, 0, 0, 0])
    assert np.isnan(_val_auc(scores, labels, np.array([0, 1, 2])))
    assert _val_auc(scores, labels, np.arange(6)) == 0.0

    def broken(scores, labels):
        raise ContractError("scores and labels must align")

    monkeypatch.setattr(trainer_module, "rank_auc", broken)
    with pytest.raises(ContractError):
        _val_auc(scores, labels, np.arange(6))


def test_total_loss_not_higher_at_end_for_utility_only(fixture_data):
    graph, similarity, partition = fixture_data
    result = train(
        graph, similarity, partition,
        quick_config(beta2=0.0, beta3=0.0, max_epochs=80, patience=80),
    )
    first, last = result.history[0], result.history[-1]
    total_first = first.beta1 * first.l1 + first.beta2 * first.l2 + first.beta3 * first.l3
    total_last = last.beta1 * last.l1 + last.beta2 * last.l2 + last.beta3 * last.l3
    assert total_last <= total_first


@pytest.mark.parametrize("patience, reason", [(50, "max_epochs"), (3, "patience")])
def test_result_json_says_why_training_stopped(fixture_data, patience, reason):
    graph, similarity, partition = fixture_data
    result = train(graph, similarity, partition, quick_config(max_epochs=10, patience=patience))
    assert result.to_json_dict()["stop_reason"] == reason
    assert result.epochs_run == (10 if reason == "max_epochs" else patience + 1)


def test_early_stopping_respects_patience(fixture_data):
    graph, similarity, partition = fixture_data
    result = train(
        graph, similarity, partition,
        quick_config(max_epochs=200, patience=5, pretrain_epochs=120),
    )
    assert result.epochs_run < 200


def test_train_rejects_mismatched_similarity(fixture_data):
    graph, _, partition = fixture_data
    wrong = attr_similarity(np.random.default_rng(0).normal(size=(10, 3)), top_k=5)
    with pytest.raises(ContractError):
        train(graph, wrong, partition, quick_config())


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_zero_model_scores_half_and_auc_half(fixture_data):
    graph, similarity, partition = fixture_data
    config = quick_config()
    weights = init_backbone("gcn", graph.features.shape[1], 8, np.random.default_rng(0))
    for name in weights:
        weights[name][:] = 0.0
    params = ModelParams(variant="gcn", backbone=weights)
    masked = train_masked(graph, config)
    report = evaluate(*embed(params, masked), masked, similarity, partition)
    assert report.auc == 0.5
    assert report.individual_unfairness == 0.0
    assert report.gini is None  # zero-mass embedding degrades with a note
    assert any("zero-mass" in w for w in report.warnings)


def test_identical_embedding_rows_audit_as_perfectly_fair(rng):
    from conftest import build_random_similarity

    s = build_random_similarity(rng, 8)
    part = GroupPartition.from_values(np.array([0, 1] * 4))
    z = np.tile(rng.normal(size=(1, 4)) + 1.0, (8, 1))
    report = compute_report(z, s, part)
    assert report.individual_unfairness == 0.0
    assert report.gd_trace == 1.0
    assert report.gini == 0.0


def test_evaluate_matches_independent_metric_calls(fixture_data):
    graph, similarity, partition = fixture_data
    config = quick_config(max_epochs=10)
    result = train(graph, similarity, partition, config)
    masked = train_masked(graph, config)
    h, scores = embed(result.params, masked, similarity)
    # the run's closing head forward on its cached Z is embed's forward pass
    assert h.tobytes() == result.embeddings.tobytes()
    assert scores.tobytes() == result.scores.tobytes()
    index = masked.test_mask
    manual = compute_report(
        h[index],
        similarity.restrict(index),
        partition.restrict(index),
        scores=scores[index],
        labels=masked.labels[index],
    )
    assert result.report.auc == manual.auc
    assert result.report.individual_unfairness == manual.individual_unfairness
    assert result.report.gd_trace == manual.gd_trace
    assert result.report.lipschitz == manual.lipschitz


def test_embed_requires_similarity_for_fair_head(fixture_data):
    graph, similarity, partition = fixture_data
    result = train(graph, similarity, partition, quick_config(max_epochs=2))
    with pytest.raises(ContractError):
        embed(result.params, graph, similarity=None)


def test_attention_off_changes_embeddings(fixture_data):
    graph, similarity, partition = fixture_data
    result = train(graph, similarity, partition, quick_config(max_epochs=5))
    on, _ = embed(replace(result.params, attention=True), graph, similarity)
    off, _ = embed(replace(result.params, attention=False), graph, similarity)
    assert not np.allclose(on, off)
