"""Experiment-harness tests: benchmark generator, clustering, perturbations,
sweeps, config files, and the command-line surface."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginigraph import cli
from ginigraph.benchmark import BENCHMARK_BASE, BENCHMARK_SBM, BENCHMARK_VARIANTS, run_matrix
from ginigraph.clustering import kmeans, kmeans_elbow
from ginigraph.errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    DomainError,
    GiniGraphError,
    NumericalError,
)
from ginigraph import sweep, synthetic, trainer
from ginigraph.graph import (
    Graph,
    GroupPartition,
    build_similarity,
    load_graph,
    read_embedding_csv,
    read_json,
    read_scores_csv,
    topo_similarity,
    write_embedding_csv,
    write_feature_table,
    write_partition_csv,
    write_scores_csv,
)
from ginigraph.metrics import REPORT_FIELDS, MetricsReport
from ginigraph.models import fair_head_embed, load_checkpoint
from ginigraph.perturb import perturb_noise, rewire_homophily
from ginigraph.sweep import (
    GRID_AXES,
    METRIC_KEYS,
    SweepRow,
    SweepSpec,
    _build_run_data,
    _point_config,
    _point_slug,
    aggregate_dir,
    aggregate_records,
    run_sweep,
    write_metrics_table,
    write_sweep_table,
)
from ginigraph.synthetic import SbmSpec, sbm_generate
from ginigraph.trainer import TrainConfig, train, write_training_log

TINY_SBM = SbmSpec(
    block_sizes=(20, 20),
    p_within=0.25,
    p_between=0.05,
    feature_dim=4,
    label_signal=2.0,
    group_signal=0.5,
    sensitive_ratio=0.7,
)

TINY_TRAIN = dict(
    hidden=4, pretrain_epochs=4, max_epochs=4, patience=4, top_k=5, learning_rate=1e-3
)


# ---------------------------------------------------------------------------
# Synthetic benchmark generator
# ---------------------------------------------------------------------------


def test_sbm_edge_count_concentrates_on_expectation():
    spec = SbmSpec(block_sizes=(60, 60), p_within=0.1, p_between=0.01, feature_dim=3)
    counts = [sbm_generate(spec, seed).num_edges for seed in range(10)]
    expected = spec.expected_edges()
    assert abs(np.mean(counts) - expected) < 4.0 * np.sqrt(expected) / np.sqrt(10)


def test_sbm_sensitive_ratio_and_labels():
    spec = SbmSpec(block_sizes=(250, 250), feature_dim=3, label_noise=0.0)
    shares = []
    for seed in range(5):
        graph = sbm_generate(spec, seed)
        shares.append(float(np.mean(graph.sensitive == 0)))
        np.testing.assert_array_equal(graph.labels, np.repeat([0, 1], 250))
    assert abs(np.mean(shares) - 0.78) < 0.03


def test_sbm_label_noise_flips_against_the_feature_signal():
    clean_spec = SbmSpec(block_sizes=(250, 250), feature_dim=3, label_noise=0.0)
    noisy_spec = SbmSpec(block_sizes=(250, 250), feature_dim=3, label_noise=0.1)
    clean = sbm_generate(clean_spec, 7)
    noisy = sbm_generate(noisy_spec, 7)
    # the noise draw is consumed even at 0, so only the labels differ
    np.testing.assert_array_equal(clean.edges, noisy.edges)
    np.testing.assert_array_equal(clean.features, noisy.features)
    flipped = clean.labels != noisy.labels
    assert 0.05 < flipped.mean() < 0.15
    # flipped nodes keep the feature evidence for their old class, which is
    # what makes them irreducible errors for any classifier
    old_sign = 2.0 * clean.labels[flipped] - 1.0
    assert np.mean(noisy.features[flipped, 0] * old_sign) > 0.5


def test_sbm_minority_packs_into_tail_blocks():
    # default spec: group_mix 1.0 places the 220-node minority exactly in the
    # two 110-node tail blocks, giving it members of both class labels
    graph = sbm_generate(SbmSpec(feature_dim=3), 2)
    assert int(graph.sensitive.sum()) == 220
    assert int(graph.sensitive[:780].sum()) == 0
    assert set(np.unique(graph.labels[graph.sensitive == 1])) == {0, 1}


def test_sbm_group_mix_spreads_remainder_over_free_slots():
    spec = SbmSpec(
        block_sizes=(60, 60), sensitive_ratio=0.5, group_mix=0.5, feature_dim=3
    )
    graph = sbm_generate(spec, 0)
    # 30 of 60 minority nodes pack into the last block; the other 30 spread
    # over the remaining free capacity (60 and 30 slots -> 20 and 10 more)
    assert int(graph.sensitive[:60].sum()) == 20
    assert int(graph.sensitive[60:].sum()) == 40


def test_sbm_extreme_probabilities_give_block_cliques():
    spec = SbmSpec(block_sizes=(5, 4), p_within=1.0, p_between=0.0, feature_dim=2)
    graph = sbm_generate(spec, 3)
    expected = {(i, j) for i in range(5) for j in range(i + 1, 5)}
    expected |= {(i, j) for i in range(5, 9) for j in range(i + 1, 9)}
    assert {(int(i), int(j)) for i, j in graph.edges} == expected


def test_sbm_masks_partition_all_nodes_and_are_deterministic():
    graph = sbm_generate(TINY_SBM, 5)
    joined = np.sort(np.concatenate([graph.train_mask, graph.val_mask, graph.test_mask]))
    np.testing.assert_array_equal(joined, np.arange(graph.n))
    again = sbm_generate(TINY_SBM, 5)
    np.testing.assert_array_equal(graph.edges, again.edges)
    np.testing.assert_array_equal(graph.features, again.features)
    np.testing.assert_array_equal(graph.train_mask, again.train_mask)


@pytest.mark.parametrize("pair_block", [1, 7, synthetic._PAIR_BLOCK])
@pytest.mark.parametrize("block_sizes", [(1,), (2,), (3, 4), (40, 25, 30), (300, 120, 90)])
def test_sbm_row_block_edge_draw_matches_one_whole_triangle_draw(
    monkeypatch, block_sizes, pair_block
):
    monkeypatch.setattr(synthetic, "_PAIR_BLOCK", pair_block)
    blocks = np.repeat(np.arange(len(block_sizes)), block_sizes)
    rng = np.random.default_rng(11)
    edges = synthetic._draw_edges(blocks, 0.3, 0.05, rng)
    # the reference: one rng.random call over the whole upper triangle
    whole = np.random.default_rng(11)
    i, j = np.triu_indices(blocks.size, k=1)
    hit = whole.random(i.size) < np.where(blocks[i] == blocks[j], 0.3, 0.05)
    assert edges.dtype == np.int64
    np.testing.assert_array_equal(edges, np.column_stack([i[hit], j[hit]]))
    assert rng.bit_generator.state == whole.bit_generator.state


def test_sbm_spec_guards():
    with pytest.raises(ContractError):
        SbmSpec(block_sizes=()).validate()
    with pytest.raises(ContractError):
        SbmSpec(p_within=1.5).validate()
    with pytest.raises(ContractError):
        SbmSpec(feature_dim=1).validate()
    with pytest.raises(ContractError):
        SbmSpec(sensitive_ratio=1.0).validate()
    with pytest.raises(ContractError):
        SbmSpec(group_mix=1.5).validate()
    with pytest.raises(ContractError):
        SbmSpec(label_noise=0.5).validate()


def test_sbm_feature_signals_separate_labels_and_groups():
    spec = SbmSpec(
        block_sizes=(200, 200), label_signal=2.0, group_signal=1.5, label_noise=0.0
    )
    graph = sbm_generate(spec, 0)
    col0_gap = graph.features[graph.labels == 1, 0].mean() - graph.features[
        graph.labels == 0, 0
    ].mean()
    col1_gap = graph.features[graph.sensitive == 1, 1].mean() - graph.features[
        graph.sensitive == 0, 1
    ].mean()
    assert col0_gap > 3.0  # 2 * label_signal, minus sampling noise
    assert col1_gap > 2.0


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------


def make_blobs(rng, centers, per=30, spread=0.1):
    points = np.concatenate(
        [rng.normal(c, spread, size=(per, len(c))) for c in centers]
    )
    ids = np.repeat(np.arange(len(centers)), per)
    return points, ids


def test_kmeans_recovers_separated_blobs(rng):
    points, ids = make_blobs(rng, [(0, 0), (10, 0), (0, 10)])
    assign, centers, wcss = kmeans(points, 3, seed=1)
    # same-blob points share a cluster and different blobs do not
    for blob in range(3):
        assert np.unique(assign[ids == blob]).size == 1
    assert np.unique(assign).size == 3
    assert wcss < points.shape[0] * 0.1


def test_kmeans_identical_points_and_guards():
    x = np.ones((8, 2))
    assign, centers, wcss = kmeans(x, 1, seed=0)
    assert wcss == 0.0
    np.testing.assert_array_equal(assign, np.zeros(8, dtype=int))
    with pytest.raises(ContractError):
        kmeans(x, 0)
    with pytest.raises(ContractError):
        kmeans(x, 9)
    with pytest.raises(ContractError):
        kmeans(np.empty((0, 2)), 1)


def test_kmeans_determinism_and_empty_cluster_safety(rng):
    points, _ = make_blobs(rng, [(0, 0), (5, 5)])
    a1, c1, w1 = kmeans(points, 4, seed=9)
    a2, c2, w2 = kmeans(points, 4, seed=9)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(c1, c2)
    assert w1 == w2
    # only two genuine groups for k=4: must not crash and must keep all points
    assert np.isfinite(w1)


def test_elbow_picks_blob_count(rng):
    # 4-D blobs: splitting a true cluster only drops WCSS by ~(2/pi)/d ~ 5%,
    # safely under the 10% rule, while merging clusters costs far more.
    centers = [(0, 0, 0, 0), (10, 0, 0, 0), (0, 10, 0, 0)]
    points, _ = make_blobs(rng, centers, per=40, spread=1.0)
    k, wcss = kmeans_elbow(points, 6, seed=2)
    assert k == 3
    assert len(wcss) == 6
    assert all(b <= a * 1.001 for a, b in zip(wcss, wcss[1:]))  # non-increasing-ish


def test_elbow_identical_points_short_circuits():
    k, wcss = kmeans_elbow(np.ones((10, 3)), 5, seed=0)
    assert k == 1
    assert wcss[0] == 0.0
    with pytest.raises(ContractError):
        kmeans_elbow(np.ones((10, 3)), 1)
    with pytest.raises(ContractError):
        kmeans_elbow(np.ones((4, 3)), 5)


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------


def random_labeled_graph(seed, n=80, p=0.08):
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < p
    return Graph(
        edges=np.column_stack([i[keep], j[keep]]),
        features=rng.normal(size=(n, 3)),
        labels=rng.integers(0, 2, size=n),
        sensitive=rng.integers(0, 2, size=n),
    )


def test_rewire_preserves_edge_count_and_rho_zero_is_identity():
    graph = random_labeled_graph(1)
    result = rewire_homophily(graph, 0.0, seed=4)
    assert result.rewired == 0 and result.kept == 0
    np.testing.assert_array_equal(result.graph.edges, graph.edges)
    heavy = rewire_homophily(graph, 0.8, seed=4)
    assert heavy.graph.num_edges == graph.num_edges
    assert heavy.rewired + heavy.kept == int(0.8 * graph.num_edges)
    # edges stay unique and ordered
    pairs = {(int(i), int(j)) for i, j in heavy.graph.edges}
    assert len(pairs) == graph.num_edges


def test_rewire_increases_same_label_fraction_over_ten_seeds():
    for seed in range(10):
        graph = random_labeled_graph(100 + seed)
        baseline = rewire_homophily(graph, 0.0, seed).graph.homophily()
        rewired = rewire_homophily(graph, 0.8, seed).graph.homophily()
        assert rewired > baseline


def test_rewire_determinism_and_guard():
    graph = random_labeled_graph(2)
    a = rewire_homophily(graph, 0.5, seed=7)
    b = rewire_homophily(graph, 0.5, seed=7)
    np.testing.assert_array_equal(a.graph.edges, b.graph.edges)
    with pytest.raises(ContractError):
        rewire_homophily(graph, 1.5)


def test_noise_statistics_and_guards(rng):
    features = rng.normal(size=(200, 50))
    noised = perturb_noise(features, 0.3, seed=5)
    delta = noised - features
    assert abs(delta.std() - 0.3) / 0.3 < 0.05
    assert abs(delta.mean()) < 0.02
    np.testing.assert_array_equal(perturb_noise(features, 0.0, seed=5), features)
    np.testing.assert_array_equal(
        perturb_noise(features, 0.3, seed=5), noised
    )  # deterministic
    with pytest.raises(DomainError):
        perturb_noise(features, -0.1)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def tiny_sweep_spec(**axes) -> SweepSpec:
    return SweepSpec(
        repetitions=2,
        base_seed=3,
        similarity_mode="attr",
        config=TrainConfig(**TINY_TRAIN),
        sbm=TINY_SBM,
        **axes,
    )


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        tiny_sweep_spec().validate()  # empty grid
    with pytest.raises(ConfigError):
        tiny_sweep_spec(beta2=[]).validate()
    bad = tiny_sweep_spec(beta2=[1.0])
    bad.repetitions = 0
    with pytest.raises(ConfigError):
        bad.validate()
    bad2 = tiny_sweep_spec(beta2=[1.0])
    bad2.similarity_mode = "spectral"
    with pytest.raises(ConfigError):
        bad2.validate()
    for repeated in ([0.5, 0.5], [1, 1.0]):
        with pytest.raises(ConfigError, match="repeats"):
            tiny_sweep_spec(beta2=repeated).validate()
    tiny_sweep_spec(rho=[0.0, 0.4]).validate()


def test_grid_points_cartesian_product():
    spec = tiny_sweep_spec(beta2=[0.5, 1.0], sigma=[0.0, 0.1, 0.2])
    points = spec.grid_points()
    assert len(points) == 6
    assert {tuple(sorted(p.items())) for p in points} == {
        (("beta2", b), ("sigma", s)) for b in (0.5, 1.0) for s in (0.0, 0.1, 0.2)
    }


def test_sweep_spec_from_json_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown sweep"):
        SweepSpec.from_json_dict({"betas": [1.0]})
    with pytest.raises(ConfigError, match="unknown config"):
        SweepSpec.from_json_dict({"beta2": [1.0], "config": {"lr": 0.1}})
    with pytest.raises(ConfigError, match="unknown sbm"):
        SweepSpec.from_json_dict({"beta2": [1.0], "sbm": {"n_nodes": 50}})
    spec = SweepSpec.from_json_dict(
        {
            "beta2": [0.5],
            "repetitions": 2,
            "config": {"hidden": 4},
            "sbm": {"block_sizes": [10, 10], "feature_dim": 3},
        }
    )
    assert spec.sbm.block_sizes == (10, 10)
    assert spec.config.hidden == 4


def test_point_slug_is_stable():
    assert _point_slug({"beta2": 1.0, "rho": 0.4}, 2) == "run_beta2-1_rho-0.4_rep2"


def test_grid_values_that_print_alike_keep_their_own_runs(tmp_path):
    assert _point_slug({"beta2": 0.1234567}, 0) == "run_beta2-0.1234567_rep0"
    spec = tiny_sweep_spec(beta2=[0.1234567, 0.1234568])
    spec.repetitions = 1
    rows = run_sweep(spec, tmp_path)
    assert sorted(row.point["beta2"] for row in rows) == [0.1234567, 0.1234568]
    assert len(list(tmp_path.glob("run_*.json"))) == 2
    assert len(list(tmp_path.glob("run_*.log.csv"))) == 2


def test_run_sweep_writes_artifacts_and_aggregates(tmp_path):
    spec = tiny_sweep_spec(rho=[0.0, 0.5])
    rows = run_sweep(spec, tmp_path)
    assert len(rows) == 2
    for row in rows:
        assert row.n_runs == 2 and row.errors == 0
        assert row.mean["auc"] is not None
        assert row.std["individual_unfairness"] is not None
    json_files = sorted(tmp_path.glob("run_*.json"))
    log_files = sorted(tmp_path.glob("run_*.log.csv"))
    assert len(json_files) == 4 and len(log_files) == 4
    # the independent aggregation pass over artifacts reproduces the rows
    again = aggregate_dir(tmp_path)
    for row, other in zip(rows, again):
        assert row.point == other.point
        for metric in row.mean:
            if row.mean[metric] is None:
                assert other.mean[metric] is None
            else:
                assert abs(row.mean[metric] - other.mean[metric]) < 1e-9
                assert abs(row.std[metric] - other.std[metric]) < 1e-9


@pytest.mark.parametrize(
    "axes, pretrainings",
    [
        (dict(beta2=[0.0, 0.5, 1.0]), 2),
        (dict(beta3=[0.0, 1.0], sigma=[0.0, 0.3]), 4),
        (dict(beta2=[0.0, 1.0], hidden=[3, 4]), 4),
    ],
)
def test_sweep_shares_pretraining_and_keeps_every_run(tmp_path, monkeypatch, axes, pretrainings):
    spec = tiny_sweep_spec(**axes)
    calls, built = [], []
    pretrain = trainer.pretrain

    def counted(graph, config):
        calls.append(config)
        return pretrain(graph, config)

    def counted_build(spec, point, seed):
        built.append((point.get("rho"), point.get("sigma"), seed))
        return _build_run_data(spec, point, seed)

    monkeypatch.setattr(trainer, "pretrain", counted)
    monkeypatch.setattr(sweep, "_build_run_data", counted_build)
    run_sweep(spec, tmp_path / "sweep")
    # one pretraining per repetition and distinct rho, sigma and hidden
    assert len(calls) == pretrainings
    # one data build per repetition and distinct rho and sigma: 2, not 4, for hidden=[3, 4]
    data_keys = {(point.get("rho"), point.get("sigma")) for point in spec.grid_points()}
    assert len(built) == len(set(built)) == spec.repetitions * len(data_keys)
    for point in spec.grid_points():
        for rep in range(spec.repetitions):
            seed = spec.base_seed + rep
            graph, similarity, partition = _build_run_data(spec, point, seed)
            alone = train(graph, similarity, partition, _point_config(spec, point, seed))
            write_training_log(tmp_path / "alone.log.csv", alone.history)
            slug = _point_slug(point, rep)
            shared_log = (tmp_path / "sweep" / f"{slug}.log.csv").read_bytes()
            assert shared_log == (tmp_path / "alone.log.csv").read_bytes()
            record = json.loads((tmp_path / "sweep" / f"{slug}.json").read_text())
            expected = alone.to_json_dict()
            for result in (record["result"], expected):
                del result["wall_seconds"]
            assert json.dumps(record["result"]) == json.dumps(expected)


def test_a_failed_data_build_is_recorded_in_each_of_its_runs(tmp_path, monkeypatch):
    spec = tiny_sweep_spec(beta2=[0.0, 1.0], sigma=[0.0, 0.3])
    built = []

    def failing_build(spec, point, seed):
        built.append((point["sigma"], seed))
        if point["sigma"] == 0.3 and seed == spec.base_seed:
            raise DomainError("no graph")
        return _build_run_data(spec, point, seed)

    monkeypatch.setattr(sweep, "_build_run_data", failing_build)
    rows = run_sweep(spec, tmp_path)
    # the failed build is not retried for the second run of its group
    assert sorted(built) == [(0.0, 3), (0.0, 4), (0.3, 3), (0.3, 4)]
    assert [(row.point["sigma"], row.n_runs, row.errors) for row in rows] == [
        (0.0, 2, 0), (0.3, 1, 1), (0.0, 2, 0), (0.3, 1, 1)
    ]
    for beta2 in ("0", "1"):
        record = json.loads((tmp_path / f"run_beta2-{beta2}_sigma-0.3_rep0.json").read_text())
        assert record["error"] == "DomainError: no graph" and "result" not in record
        assert not (tmp_path / f"run_beta2-{beta2}_sigma-0.3_rep0.log.csv").exists()


def test_aggregate_records_counts_errors():
    ok = {
        "point": {"beta2": 1.0},
        "rep": 0,
        "result": {"final_metrics": {k: 1.0 for k in ("auc", "individual_unfairness", "gd_trace", "gini", "gd_gini")}},
    }
    bad = {"point": {"beta2": 1.0}, "rep": 1, "error": "ContractError: boom"}
    rows = aggregate_records([ok, bad])
    assert rows[0].n_runs == 1 and rows[0].errors == 1
    assert rows[0].mean["auc"] == 1.0
    assert rows[0].std["auc"] == 0.0


def test_write_sweep_table_formats(tmp_path):
    row = SweepRow(
        point={"beta2": 1.0},
        n_runs=2,
        errors=0,
        mean={m: 2000.0 for m in ("auc", "individual_unfairness", "gd_trace", "gini", "gd_gini")},
        std={m: 0.5 for m in ("auc", "individual_unfairness", "gd_trace", "gini", "gd_gini")},
    )
    csv_path = tmp_path / "table.csv"
    write_sweep_table([row], csv_path, "csv", thousands=True)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("beta2,n_runs,errors,mean_auc")
    assert "2" in lines[1].split(",")  # IF scaled from 2000 to 2
    json_path = tmp_path / "table.json"
    write_sweep_table([row], json_path, "json")
    payload = json.loads(json_path.read_text())
    assert payload[0]["mean"]["individual_unfairness"] == 2000.0
    with pytest.raises(ConfigError):
        write_sweep_table([], csv_path)
    with pytest.raises(ConfigError):
        write_sweep_table([row], csv_path, "yaml")


# Report tables: the exact bytes of every format, recorded before the writers
# shared one emitter. The rows cover None cells, a float axis printed with str
# (not .6g), an int axis, an axis a row lacks, and an int IF beyond 6 digits.
TABLE_ROWS = [
    SweepRow(
        point={"beta2": 0.1234567891, "hidden": 8}, n_runs=2, errors=1,
        mean={"auc": 0.71234567, "individual_unfairness": 2500.0, "gd_trace": 1.5,
              "gini": None, "gd_gini": 1.0000001},
        std={"auc": 0.0, "individual_unfairness": 12.3456789, "gd_trace": 0.25,
             "gini": None, "gd_gini": 1e-9},
    ),
    SweepRow(
        point={"hidden": 16}, n_runs=0, errors=3,
        mean=dict.fromkeys(METRIC_KEYS), std=dict.fromkeys(METRIC_KEYS),
    ),
]
TABLE_REPORTS = [
    MetricsReport(auc=0.9, f1=0.8, eo=None, individual_unfairness=2500.0, gini=0.3,
                  gd_trace=1.2, gd_gini=1.1, lipschitz=5.0),
    MetricsReport(auc=None, f1=None, eo=12.5, individual_unfairness=12345678, gini=None,
                  gd_trace=3.0000004, gd_gini=None, lipschitz=0.0001234567891,
                  group_sizes=(3, 2), group_traces=(1.5, 4.5e-7), group_ginis=(),
                  warnings=("single note",)),
]
SWEEP_HEADER = (
    "beta2,hidden,n_runs,errors,mean_auc,mean_individual_unfairness,mean_gd_trace,mean_gini,"
    "mean_gd_gini,std_auc,std_individual_unfairness,std_gd_trace,std_gini,std_gd_gini\n"
)
METRICS_HEADER = "auc,f1,eo,individual_unfairness,gini,gd_trace,gd_gini,lipschitz\n"


def _sweep_json(if_mean, if_std) -> str:
    empty = dict.fromkeys(METRIC_KEYS)
    return json.dumps([
        {"point": {"beta2": 0.1234567891, "hidden": 8}, "n_runs": 2, "errors": 1,
         "mean": {"auc": 0.71234567, "individual_unfairness": if_mean, "gd_trace": 1.5,
                  "gini": None, "gd_gini": 1.0000001},
         "std": {"auc": 0.0, "individual_unfairness": if_std, "gd_trace": 0.25,
                 "gini": None, "gd_gini": 1e-09}},
        {"point": {"hidden": 16}, "n_runs": 0, "errors": 3, "mean": empty, "std": empty},
    ], indent=2)


def _metrics_json(if_first, if_second) -> str:
    return json.dumps([
        {"auc": 0.9, "f1": 0.8, "eo": None, "individual_unfairness": if_first, "gini": 0.3,
         "gd_trace": 1.2, "gd_gini": 1.1, "lipschitz": 5.0, "group_sizes": [],
         "group_traces": [], "group_ginis": [], "warnings": []},
        {"auc": None, "f1": None, "eo": 12.5, "individual_unfairness": if_second, "gini": None,
         "gd_trace": 3.0000004, "gd_gini": None, "lipschitz": 0.0001234567891,
         "group_sizes": [3, 2], "group_traces": [1.5, 4.5e-07], "group_ginis": [],
         "warnings": ["single note"]},
    ], indent=2)


TABLE_BYTES = {
    ("sweep", "csv", False): SWEEP_HEADER
    + "0.1234567891,8,2,1,0.712346,2500,1.5,,1,0,12.3457,0.25,,1e-09\n,16,0,3,,,,,,,,,,\n",
    ("sweep", "csv", True): SWEEP_HEADER
    + "0.1234567891,8,2,1,0.712346,2.5,1.5,,1,0,0.0123457,0.25,,1e-09\n,16,0,3,,,,,,,,,,\n",
    ("sweep", "json", False): _sweep_json(2500.0, 12.3456789),
    ("sweep", "json", True): _sweep_json(2.5, 0.012345678899999999),
    ("metrics", "csv", False): METRICS_HEADER
    + "0.9,0.8,,2500,0.3,1.2,1.1,5\n,,12.5,1.23457e+07,,3,,0.000123457\n",
    ("metrics", "csv", True): METRICS_HEADER
    + "0.9,0.8,,2.5,0.3,1.2,1.1,5\n,,12.5,12345.7,,3,,0.000123457\n",
    ("metrics", "json", False): _metrics_json(2500.0, 12345678),
    ("metrics", "json", True): _metrics_json(2.5, 12345.678),
}


@pytest.mark.parametrize("table, fmt, thousands", sorted(TABLE_BYTES))
def test_report_tables_write_the_recorded_bytes(tmp_path, table, fmt, thousands):
    path = tmp_path / "table"
    if table == "sweep":
        write_sweep_table(TABLE_ROWS, path, fmt, thousands)
    else:
        write_metrics_table(TABLE_REPORTS, path, fmt, thousands)
    assert path.read_bytes() == TABLE_BYTES[table, fmt, thousands].encode()


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def test_train_config_from_json_dict_reads_each_type():
    raw = {
        "backbone": "gin",
        "hidden": 32,
        "learning_rate": 5e-4,
        "gradnorm": False,
        "attention": True,
        "beta2": 1,
    }
    config = TrainConfig.from_json_dict(raw)
    assert config == TrainConfig(
        backbone="gin", hidden=32, learning_rate=5e-4, gradnorm=False, attention=True, beta2=1
    )
    assert TrainConfig.from_json_dict({}) == TrainConfig()


def test_train_config_from_json_dict_rejects_other_values(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown config keys: \['width'\]"):
        TrainConfig.from_json_dict({"hidden": 4, "width": 2})
    with pytest.raises(ConfigError, match="must be a JSON object"):
        TrainConfig.from_json_dict([["hidden", 4]])
    with pytest.raises(ConfigError, match="hidden: expected int"):
        TrainConfig.from_json_dict({"hidden": "lots"})
    with pytest.raises(ConfigError, match="gradnorm: expected bool"):
        TrainConfig.from_json_dict({"gradnorm": "off"})
    path = tmp_path / "run.json"
    path.write_text('{"hidden": 4, "hidden": 8}')
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: duplicate key 'hidden'")):
        read_json(path, TrainConfig.from_json_dict)


# ---------------------------------------------------------------------------
# Command-line surface
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


@pytest.fixture()
def sbm_dir(tmp_path, capsys):
    data = tmp_path / "data"
    code, summary = run_cli(
        capsys,
        "generate-sbm",
        "--nodes", "40", "--blocks", "2", "--p-in", "0.25", "--p-out", "0.05",
        "--feature-dim", "4", "--label-signal", "2.0", "--seed", "1",
        "--out-dir", str(data),
    )
    assert code == 0
    assert summary["nodes"] == 40
    return data


def graph_args(data):
    return ["--edges", str(data / "edges.txt"), "--features", str(data / "features.csv")]


def test_cli_ingest_and_similarity(sbm_dir, tmp_path, capsys):
    code, summary = run_cli(capsys, "ingest", *graph_args(sbm_dir))
    assert code == 0 and summary["nodes"] == 40 and summary["dropped_edges"] == 0

    sim_path = tmp_path / "sim.csv"
    code, info = run_cli(
        capsys, "similarity", *graph_args(sbm_dir),
        "--mode", "attr", "--top-k", "5", "--out", str(sim_path),
    )
    assert code == 0 and info["pairs"] > 0
    assert sim_path.exists()

    masked = tmp_path / "sim_masked.csv"
    code, info2 = run_cli(
        capsys, "similarity", *graph_args(sbm_dir),
        "--mode", "attr", "--top-k", "5", "--mask-cols", "0", "--out", str(masked),
    )
    assert code == 0
    assert masked.read_text() != sim_path.read_text()


def test_cli_train_audit_report_pipeline(sbm_dir, tmp_path, capsys, monkeypatch):
    head_calls = []

    def counted_head(*args, **kwargs):
        head_calls.append(1)
        return fair_head_embed(*args, **kwargs)

    monkeypatch.setattr(trainer, "fair_head_embed", counted_head)
    run_dir = tmp_path / "run"
    code, result = run_cli(
        capsys, "train", *graph_args(sbm_dir),
        "--sim-mode", "attr", "--hidden", "4", "--top-k", "5",
        "--pretrain-epochs", "4", "--max-epochs", "4", "--seed", "2",
        "--out-dir", str(run_dir),
    )
    assert code == 0
    assert result["epochs_run"] == 4
    assert json.loads((run_dir / "result.json").read_text())["stop_reason"] == "max_epochs"
    assert len(head_calls) == 4 + 1  # one per epoch, then one final forward
    for name in ("log.csv", "result.json", "checkpoint.json", "embeddings.csv", "scores.csv"):
        assert (run_dir / name).exists()
    # the written outputs are one forward pass of the saved model
    graph, _ = load_graph(sbm_dir / "edges.txt", sbm_dir / "features.csv")
    h, scores = trainer.embed(
        load_checkpoint(run_dir / "checkpoint.json"), graph,
        build_similarity(graph, "attr", 5),
    )
    np.testing.assert_array_equal(read_embedding_csv(run_dir / "embeddings.csv"), h)
    np.testing.assert_array_equal(read_scores_csv(run_dir / "scores.csv"), scores)

    sim_path = tmp_path / "sim.csv"
    run_cli(
        capsys, "similarity", *graph_args(sbm_dir),
        "--mode", "attr", "--top-k", "5", "--out", str(sim_path),
    )
    audit_out = tmp_path / "audit.csv"
    code, audit = run_cli(
        capsys, "audit",
        "--embeddings", str(run_dir / "embeddings.csv"),
        "--similarity", str(sim_path),
        "--features", str(sbm_dir / "features.csv"),
        "--scores", str(run_dir / "scores.csv"),
        "--out", str(audit_out),
    )
    assert code == 0
    assert audit["auc"] is not None
    assert audit["individual_unfairness"] >= 0.0
    assert audit_out.exists()

    table = tmp_path / "final.csv"
    code, info = run_cli(
        capsys, "report", "--results", str(run_dir / "result.json"), "--out", str(table)
    )
    assert code == 0 and table.exists()


def test_cli_train_attention_off_reloads_bit_for_bit(sbm_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    code, _ = run_cli(
        capsys, "train", *graph_args(sbm_dir),
        "--sim-mode", "attr", "--attention", "off", "--hidden", "4", "--top-k", "5",
        "--pretrain-epochs", "4", "--max-epochs", "4", "--seed", "2", "--out-dir", str(run_dir),
    )
    assert code == 0
    params = load_checkpoint(run_dir / "checkpoint.json")
    assert params.attention is False
    graph, _ = load_graph(sbm_dir / "edges.txt", sbm_dir / "features.csv")
    h, scores = trainer.embed(params, graph, build_similarity(graph, "attr", 5))
    np.testing.assert_array_equal(read_embedding_csv(run_dir / "embeddings.csv"), h)
    np.testing.assert_array_equal(read_scores_csv(run_dir / "scores.csv"), scores)


def test_cli_report_rejects_malformed_result_files(tmp_path, capsys):
    path, table = tmp_path / "result.json", str(tmp_path / "table.csv")
    for text in (json.dumps({"auc": 0.5}), "[1, 2]", "{bad", "[" * 10**5 + "]" * 10**5):
        path.write_text(text)
        code = cli.main(["report", "--results", str(path), "--out", table])
        captured = capsys.readouterr()
        assert code == 4
        assert str(path) in captured.err and captured.out == ""
    # a field of the wrong type, or a non-finite number, is named before any output
    valid = dict.fromkeys(REPORT_FIELDS, 0.5)
    for field, value in (("auc", "x"), ("gini", True), ("lipschitz", None), ("f1", 1e400)):
        path.write_text(json.dumps({**valid, field: value}))
        assert cli.main(["report", "--results", str(path), "--out", table]) == 4
        assert f"{path}: {field}:" in capsys.readouterr().err
    # keys that name no report field, such as the dropped a_gdif, are ignored
    path.write_text(json.dumps({**valid, "a_gdif": 1.0}))
    assert cli.main(["report", "--results", str(path), "--out", table]) == 0


def test_cli_report_rejects_malformed_run_directories(tmp_path, capsys):
    table = str(tmp_path / "table.csv")
    run = tmp_path / "run_a.json"
    metrics = dict.fromkeys(REPORT_FIELDS, 0.5)
    for record in (
        {},
        [],
        "[" * 10**5 + "]" * 10**5,
        {"point": {"beta2": 1.0}},
        {"point": {"width": 1.0}, "error": "boom"},
        {"point": {"beta2": "x"}, "error": "boom"},
        {"point": {"beta2": 1.0}, "result": {"final_metrics": {**metrics, "auc": "x"}}},
    ):
        run.write_text(record if isinstance(record, str) else json.dumps(record))
        assert cli.main(["report", "--results", str(tmp_path), "--out", table]) == 4
        assert str(run) in capsys.readouterr().err
    run.write_text(json.dumps({"point": {"beta2": 1.0}, "result": {"final_metrics": metrics}}))
    assert cli.main(["report", "--results", str(tmp_path), "--out", table]) == 0


SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
KEYS = st.sampled_from(
    [*REPORT_FIELDS, *GRID_AXES, "point", "result", "final_metrics", "error", "group_sizes"]
) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=6),
    max_leaves=20,
)
# near-valid reports and run records, so the field checks are reached
REPORTS = st.fixed_dictionaries({name: SCALARS for name in REPORT_FIELDS})
RECORDS = st.fixed_dictionaries(
    {
        "point": st.dictionaries(st.sampled_from(GRID_AXES) | st.text(max_size=3), SCALARS),
        "result": st.fixed_dictionaries({"final_metrics": REPORTS | JSON_VALUES}),
    },
    optional={"error": JSON_VALUES},
)


@settings(max_examples=200, deadline=None)
@given(
    payload=JSON_VALUES | REPORTS | RECORDS,
    as_dir=st.booleans(),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_cli_report_exits_cleanly_on_any_json(tmp_path_factory, payload, as_dir, fmt):
    root = tmp_path_factory.mktemp("report")
    run = root / "run_a.json"
    run.write_text(json.dumps(payload))
    argv = ["report", "--results", str(root if as_dir else run), "--out", str(root / "table")]
    assert cli.main([*argv, "--format", fmt]) in (0, 2, 4)


def _fields(settings) -> list[str]:
    return [f.name for f in dataclasses.fields(settings)]


# near-valid settings objects, so the range checks and every grid point are reached
NUMBERS = st.integers(-2, 20) | st.floats(-1.0, 2.0)
SETTING_VALUES = NUMBERS | SCALARS | st.lists(NUMBERS | SCALARS, max_size=3)
CONFIGS = st.dictionaries(
    st.sampled_from(_fields(TrainConfig)),
    NUMBERS | SCALARS | st.sampled_from(["gcn", "gin", "jk", "softmax", "topk", "all"]),
    max_size=6,
)
SPECS = st.fixed_dictionaries(
    {"beta2": st.lists(NUMBERS, max_size=3)},
    optional={
        **{name: SETTING_VALUES for name in _fields(SweepSpec) if name != "beta2"},
        "config": CONFIGS,
        "sbm": st.dictionaries(st.sampled_from(_fields(SbmSpec)), SETTING_VALUES, max_size=4),
    },
)


@settings(max_examples=300, deadline=None)
@given(
    raw=JSON_VALUES | CONFIGS | SPECS,
    read=st.sampled_from([TrainConfig.from_json_dict, SweepSpec.from_json_dict]),
)
def test_settings_readers_raise_only_domain_errors_on_any_json(raw, read):
    try:
        read(raw).validate()
    except GiniGraphError:
        pass


def test_cli_cluster_and_perturb(sbm_dir, tmp_path, capsys):
    groups = tmp_path / "groups.csv"
    code, info = run_cli(
        capsys, "cluster", *graph_args(sbm_dir), "--k-max", "4", "--out", str(groups)
    )
    assert code == 0 and 1 <= info["k"] <= 4 and groups.exists()

    rewired = tmp_path / "rewired"
    code, info = run_cli(
        capsys, "perturb", *graph_args(sbm_dir),
        "--homophily", "0.6", "--seed", "3", "--out-dir", str(rewired),
    )
    assert code == 0
    assert info["homophily_after"] >= info["homophily_before"]
    assert (rewired / "edges.txt").exists()

    noised = tmp_path / "noised"
    code, info = run_cli(
        capsys, "perturb", *graph_args(sbm_dir),
        "--noise", "0.2", "--seed", "3", "--out-dir", str(noised),
    )
    assert code == 0
    assert abs(info["noise_std"] - 0.2) / 0.2 < 0.15


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "1e308"])
def test_cli_perturb_rejects_non_finite_noise_with_exit_2(sbm_dir, tmp_path, capsys, sigma):
    out = tmp_path / "noised"
    argv = ["perturb", *graph_args(sbm_dir), f"--noise={sigma}", "--out-dir", str(out)]
    assert cli.main(argv) == 2
    assert "sigma" in capsys.readouterr().err
    assert not (out / "features.csv").exists()


def test_cli_sweep_end_to_end(tmp_path, capsys):
    spec = {
        "beta2": [0.0, 1.0],
        "repetitions": 1,
        "base_seed": 5,
        "similarity_mode": "attr",
        "config": dict(TINY_TRAIN),
        "sbm": {
            "block_sizes": [20, 20],
            "p_within": 0.25,
            "p_between": 0.05,
            "feature_dim": 4,
            "label_signal": 2.0,
        },
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "sweep"
    code, info = run_cli(capsys, "sweep", "--spec", str(spec_path), "--out-dir", str(out_dir))
    assert code == 0
    assert info["points"] == 2 and info["runs"] == 2 and info["errors"] == 0
    assert (out_dir / "table.csv").exists() and (out_dir / "table.json").exists()

    table2 = tmp_path / "agg.csv"
    code, _ = run_cli(capsys, "report", "--results", str(out_dir), "--out", str(table2))
    assert code == 0
    assert table2.read_text().splitlines()[0].startswith("beta2,")


def test_cli_sweep_refuses_an_axis_that_repeats_a_value(tmp_path, capsys):
    spec_path, out_dir = tmp_path / "spec.json", tmp_path / "sweep"
    spec_path.write_text(json.dumps({"beta2": [0.5, 0.5], "config": dict(TINY_TRAIN)}))
    code, _ = run_cli(capsys, "sweep", "--spec", str(spec_path), "--out-dir", str(out_dir))
    assert code == 2
    assert not list(out_dir.glob("run_*"))


def test_cli_sweeps_into_one_directory_report_their_own_runs(tmp_path, capsys):
    base = {
        "repetitions": 1, "base_seed": 5, "similarity_mode": "attr", "config": dict(TINY_TRAIN),
        "sbm": {"block_sizes": [20, 20], "p_within": 0.25, "p_between": 0.05, "feature_dim": 4},
    }
    spec_path, out_dir = tmp_path / "spec.json", tmp_path / "sweep"
    for axes in ({"beta2": [0.5]}, {"beta3": [0.25, 0.75]}):
        spec_path.write_text(json.dumps({**base, **axes}))
        code, info = run_cli(capsys, "sweep", "--spec", str(spec_path), "--out-dir", str(out_dir))
        assert code == 0 and info["points"] == info["runs"] == len(*axes.values())
    header, *rows = (out_dir / "table.csv").read_text().splitlines()
    assert header.startswith("beta3,n_runs,") and [row[:5] for row in rows] == ["0.25,", "0.75,"]
    # report aggregates every run record in the directory, both sweeps' alike
    code, _ = run_cli(
        capsys, "report", "--results", str(out_dir), "--out", str(tmp_path / "all.csv")
    )
    assert code == 0
    assert len((tmp_path / "all.csv").read_text().splitlines()) == 1 + 3


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # missing input file -> I/O error
    code, _ = run_cli(
        capsys, "ingest", "--edges", str(tmp_path / "nope.txt"),
        "--features", str(tmp_path / "nope.csv"),
    )
    assert code == 4

    # malformed edge file -> data format error
    (tmp_path / "bad.txt").write_text("0 1 junk extra\n")
    (tmp_path / "feat.csv").write_text("id,label,sensitive,f0\n0,1,0,1.0\n1,0,1,2.0\n")
    code, _ = run_cli(
        capsys, "ingest", "--edges", str(tmp_path / "bad.txt"),
        "--features", str(tmp_path / "feat.csv"),
    )
    assert code == 4

    # bad config key -> config error
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"width": 3}')
    (tmp_path / "edges.txt").write_text("0 1\n")
    code, _ = run_cli(
        capsys, "train", "--edges", str(tmp_path / "edges.txt"),
        "--features", str(tmp_path / "feat.csv"),
        "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
    )
    assert code == 2

    # numerical failures map to their own exit code
    def explode(args):
        raise NumericalError("non-finite value")

    monkeypatch.setattr(cli, "cmd_cluster", explode)
    code, _ = run_cli(
        capsys, "cluster", "--edges", str(tmp_path / "edges.txt"),
        "--features", str(tmp_path / "feat.csv"), "--k-max", "2",
    )
    assert code == 3

    # numbers typed on the command line follow the file readers' rule: no '_'
    # and no non-ASCII digit, which int() and float() would read
    rng = np.random.default_rng(0)
    write_feature_table(tmp_path / "wide.csv", rng.normal(size=(4, 11)), [0, 1, 0, 1], [0, 0, 1, 1])
    (tmp_path / "path.txt").write_text("0 1\n1 2\n2 3\n")
    wide = ["--edges", str(tmp_path / "path.txt"), "--features", str(tmp_path / "wide.csv")]
    sim, emb = str(tmp_path / "sim.csv"), tmp_path / "emb.csv"
    assert run_cli(capsys, "similarity", *wide, "--top-k", "2", "--out", sim)[0] == 0
    write_embedding_csv(emb, rng.normal(size=(4, 2)))
    attr = ["similarity", *wide, "--mode", "attr", "--out", str(tmp_path / "attr.csv")]
    for argv in (
        [*attr, "--mask-cols", "1_0"],
        [*attr, "--mask-cols", "\u0661", "--top-k", "\u0665"],
        ["train", *wide, "--hidden", "2", "--top-k", "2", "--max-epochs", "1",
         "--pretrain-epochs", "1", "--seed", "1_1", "--out-dir", str(tmp_path / "run")],
        ["audit", "--embeddings", str(emb), "--similarity", sim, "--delta", "\u0661e-3"],
        # no flag chooses the individual term: it is always the trace
        ["train", *wide, "--surrogate", "none", "--out-dir", str(tmp_path / "run")],
    ):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the flag value
            code = exc.code
        assert code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
    assert not (tmp_path / "attr.csv").exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("node", ["4", str(2**62)])
def test_cli_ingest_names_the_line_of_an_edge_beyond_the_node_table(tmp_path, capsys, node):
    (tmp_path / "feat.csv").write_text(
        "id,label,sensitive,f0\n" + "".join(f"{i},{i % 2},0,1.0\n" for i in range(4))
    )
    (tmp_path / "edges.txt").write_text(f"0 1\n# a comment\n2 {node}\n")
    tracemalloc.start()
    try:
        code = cli.main([
            "ingest", "--edges", str(tmp_path / "edges.txt"),
            "--features", str(tmp_path / "feat.csv"), "--out-dir", str(tmp_path / "out"),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 4 and captured.out == "" and not (tmp_path / "out").exists()
    assert f"edges.txt:3: node id {node} exceeds the largest id 3" in captured.err
    assert peak < 2**20  # no array sized by the id


def test_cli_audit_rejects_a_non_finite_embedding(sbm_dir, tmp_path, capsys):
    sim_path = tmp_path / "sim.csv"
    run_cli(
        capsys, "similarity", *graph_args(sbm_dir),
        "--mode", "attr", "--top-k", "5", "--out", str(sim_path),
    )
    z = np.ones((40, 2))
    z[3, 1] = np.nan
    emb_path = tmp_path / "emb.csv"
    write_embedding_csv(emb_path, z)
    code, out = run_cli(
        capsys, "audit", "--embeddings", str(emb_path), "--similarity", str(sim_path)
    )
    assert code == 4 and out == {}


def test_cli_audit_of_scores_without_labels_says_why_utility_is_null(sbm_dir, tmp_path, capsys):
    sim_path, emb_path, scores_path = tmp_path / "sim.csv", tmp_path / "emb.csv", tmp_path / "s.csv"
    run_cli(capsys, "similarity", *graph_args(sbm_dir), "--top-k", "5", "--out", str(sim_path))
    write_embedding_csv(emb_path, np.random.default_rng(0).normal(size=(40, 2)))
    write_scores_csv(scores_path, np.linspace(0.0, 1.0, 40))
    code, report = run_cli(
        capsys, "audit", "--embeddings", str(emb_path), "--similarity", str(sim_path),
        "--scores", str(scores_path),
    )
    assert code == 0
    assert report["auc"] is None and report["f1"] is None and report["eo"] is None
    assert report["warnings"] == ["utility metrics skipped: scores without labels"]


# finite inputs whose metric overflows: embedding scale, audit flags, the metric
OVERFLOWING_AUDITS = {
    "delta-1e308": (1.0, ["--delta", "1e308"], "lipschitz"),
    "embedding-1e200": (1e200, [], "individual_unfairness"),
    "embedding-1e200-with-groups": (
        1e200, ["--features", "{data}/features.csv"], "individual_unfairness"
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warning precedes exit 3
@pytest.mark.parametrize("case", sorted(OVERFLOWING_AUDITS))
def test_cli_audit_exits_3_when_finite_inputs_overflow_a_metric(case, sbm_dir, tmp_path, capsys):
    scale, flags, metric = OVERFLOWING_AUDITS[case]
    sim_path, emb_path, out = tmp_path / "sim.csv", tmp_path / "emb.csv", tmp_path / "audit.csv"
    run_cli(capsys, "similarity", *graph_args(sbm_dir), "--top-k", "5", "--out", str(sim_path))
    write_embedding_csv(emb_path, scale * np.random.default_rng(0).normal(size=(40, 2)))
    code = cli.main([
        "audit", "--embeddings", str(emb_path), "--similarity", str(sim_path), "--out", str(out),
        *(flag.format(data=sbm_dir) for flag in flags),
    ])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and not out.exists()
    assert captured.err.startswith(f"numerical failure: {metric} is inf")


# each reached a TypeError traceback, ran with a wrong value, or trained the
# valid grid points before recording the bad ones as errors
INVALID_INPUTS = {
    "sweep-gradnorm-string": ("sweep", {"config": {"gradnorm": "off"}}),
    "sweep-max-epochs-string": ("sweep", {"config": {"max_epochs": "3"}}),
    "sweep-hidden-float": ("sweep", {"config": {"hidden": 2.5}}),
    "sweep-seed-bool": ("sweep", {"config": {"seed": True}}),
    "sweep-sbm-p-within-string": ("sweep", {"sbm": {"p_within": "0.2"}}),
    "sweep-repetitions-string": ("sweep", {"repetitions": "2"}),
    "sweep-axis-scalar": ("sweep", {"beta2": 1.0}),
    "sweep-hidden-axis-float": ("sweep", {"hidden": [2.5]}),
    "sweep-hidden-axis-zero": ("sweep", {"hidden": [0, 3]}),
    "sweep-beta2-axis-negative": ("sweep", {"beta2": [-1.0, 0.5]}),
    "sweep-rho-axis-above-one": ("sweep", {"rho": [1.5]}),
    "sweep-sigma-axis-negative": ("sweep", {"sigma": [-0.1]}),
    "sweep-base-seed-negative": ("sweep", {"base_seed": -1}),
    "sweep-config-temperature": ("sweep", {"config": {"temperature": 1.0}}),
    "sweep-config-surrogate-softmax": ("sweep", {"config": {"surrogate": "softmax"}}),
    "similarity-mask-cols-letter": ("similarity", ["--mask-cols", "a"]),
    "similarity-mask-cols-topo": ("similarity", ["--mode", "topo", "--mask-cols", "99"]),
    "train-beta2-nan": ("train", ["--beta2", "nan"]),
    "train-seed-negative": ("train", ["--seed", "-1"]),
    "generate-sbm-seed-negative": ("generate-sbm", ["--seed", "-1"]),
    "cluster-seed-negative": ("cluster", ["--seed", "-1"]),
    "perturb-seed-negative": ("perturb", ["--seed", "-1"]),
    "config-learning-rate-inf": ("config", {"learning_rate": float("inf")}),
    "config-weight-decay-nan": ("config", {"weight_decay": float("nan")}),
    "config-delta-nan": ("config", {"delta": float("nan")}),
    "config-eo-threshold-nan": ("config", {"eo_threshold": float("nan")}),
    # the audit's delta and threshold are audit flags, not train settings
    "config-delta": ("config", {"delta": 1e-6}),
    "config-eo-threshold": ("config", {"eo_threshold": 0.5}),
    "sweep-config-delta": ("sweep", {"config": {"delta": 1e-6}}),
    "sweep-config-eo-threshold": ("sweep", {"config": {"eo_threshold": 0.5}}),
    "config-hidden-string": ("config", {"hidden": "4"}),
    "config-seed-negative": ("config", {"seed": -1}),
    # the individual term is always the trace, and GradNorm's norms are on W
    "config-temperature": ("config", {"temperature": 1.0}),
    "config-topk-fraction": ("config", {"topk_fraction": 0.05}),
    "config-surrogate-topk": ("config", {"surrogate": "topk"}),
    "config-gradnorm-scope-all": ("config", {"gradnorm_scope": "all"}),
    "audit-delta-nan": ("audit", ["--delta", "nan"]),
    "audit-delta-inf": ("audit", ["--delta", "inf"]),
    "audit-threshold-nan": ("audit", ["--threshold", "nan"]),
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_cli_rejects_invalid_values_with_exit_2(case, sbm_dir, tmp_path, capsys):
    kind, bad = INVALID_INPUTS[case]
    if kind == "sweep":
        spec = {"beta2": [1.0], **bad, "config": {**TINY_TRAIN, **bad.get("config", {})}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["sweep", "--spec", str(path), "--out-dir", str(tmp_path / "sweep")]
    elif kind == "similarity":
        argv = [
            "similarity", *graph_args(sbm_dir), "--mode", "attr",
            "--out", str(tmp_path / "sim.csv"), *bad,
        ]
    elif kind == "audit":
        sim_path = tmp_path / "sim.csv"
        run_cli(capsys, "similarity", *graph_args(sbm_dir), "--top-k", "5", "--out", str(sim_path))
        write_embedding_csv(tmp_path / "emb.csv", np.random.default_rng(0).normal(size=(40, 2)))
        write_scores_csv(tmp_path / "scores.csv", np.linspace(0.0, 1.0, 40))
        argv = [
            "audit", "--embeddings", str(tmp_path / "emb.csv"), "--similarity", str(sim_path),
            "--features", str(sbm_dir / "features.csv"), "--scores", str(tmp_path / "scores.csv"),
            *bad,
        ]
    elif kind == "generate-sbm":
        argv = ["generate-sbm", "--nodes", "40", "--out-dir", str(tmp_path / "gen"), *bad]
    elif kind == "cluster":
        argv = ["cluster", *graph_args(sbm_dir), "--k-max", "2", *bad]
    elif kind == "perturb":
        argv = [
            "perturb", *graph_args(sbm_dir), "--noise", "0.1",
            "--out-dir", str(tmp_path / "noised"), *bad,
        ]
    else:
        if kind == "config":
            (tmp_path / "bad.json").write_text(json.dumps(bad))
            bad = ["--config", str(tmp_path / "bad.json")]
        argv = ["train", *graph_args(sbm_dir), "--out-dir", str(tmp_path / "run"), *bad]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not list(tmp_path.glob("*/run_*.json"))


@pytest.mark.parametrize(
    "command, flag", [("audit", "--scores"), ("audit", "--partition"), ("train", "--partition")]
)
def test_cli_exits_2_on_a_per_node_file_of_another_length(command, flag, sbm_dir, tmp_path, capsys):
    """A 39-row scores or partition file beside 40 nodes meets the library's check: exit 2."""
    short = tmp_path / "short.csv"
    if flag == "--scores":
        write_scores_csv(short, np.linspace(0.0, 1.0, 39))
    else:
        write_partition_csv(short, np.arange(39) % 2)
    if command == "audit":
        sim_path, emb_path = tmp_path / "sim.csv", tmp_path / "emb.csv"
        run_cli(capsys, "similarity", *graph_args(sbm_dir), "--top-k", "5", "--out", str(sim_path))
        write_embedding_csv(emb_path, np.random.default_rng(0).normal(size=(40, 2)))
        argv = [
            "audit", "--embeddings", str(emb_path), "--similarity", str(sim_path),
            "--features", str(sbm_dir / "features.csv"),
        ]
    else:
        argv = ["train", *graph_args(sbm_dir), "--out-dir", str(tmp_path / "run")]
    code = cli.main([*argv, flag, str(short)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert re.search("with 40 entries|does not match the graph", captured.err)


UNREADABLE_JSON = {
    "not-json": b"{bad",
    "not-utf8": b"\xff\xfe",
    "nested-too-deep": b"[" * 10**5 + b"]" * 10**5,
    "duplicate-key": b'{"repetitions": 1, "repetitions": 2}',
}


@pytest.mark.parametrize("content", list(UNREADABLE_JSON.values()), ids=list(UNREADABLE_JSON))
def test_cli_sweep_rejects_an_unreadable_spec_with_exit_4(tmp_path, capsys, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    code = cli.main(["sweep", "--spec", str(path), "--out-dir", str(tmp_path / "sweep")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("I/O error: ") and str(path) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("content", list(UNREADABLE_JSON.values()), ids=list(UNREADABLE_JSON))
def test_cli_train_rejects_an_unreadable_config_with_exit_4(sbm_dir, tmp_path, capsys, content):
    path = tmp_path / "run.json"
    path.write_bytes(content.replace(b"repetitions", b"hidden"))
    argv = ["train", *graph_args(sbm_dir), "--config", str(path), "--out-dir", str(tmp_path / "run")]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("I/O error: ") and str(path) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "run").exists()


def test_cli_train_flags_override_the_config(sbm_dir, tmp_path, capsys):
    off = dict(
        backbone="gin", gradnorm="off", attention="off", beta2="0.5", beta3="0.25",
        seed="9", hidden="3", max_epochs="2", pretrain_epochs="1", top_k="4",
    )
    cfg = tmp_path / "off.json"
    cfg.write_text('{"gradnorm": false, "attention": false, "hidden": 3}')
    on = dict(config=str(cfg), gradnorm="on", attention="on", max_epochs="1", pretrain_epochs="1")
    expected = (
        dict(
            backbone="gin", gradnorm=False, attention=False, beta2=0.5, beta3=0.25,
            seed=9, hidden=3, max_epochs=2, pretrain_epochs=1, top_k=4,
        ),
        dict(gradnorm=True, attention=True, hidden=3, beta2=1.0, backbone="gcn"),
    )
    for k, (flags, want) in enumerate(zip((off, on), expected)):
        argv = [x for name, value in flags.items() for x in (f"--{name.replace('_', '-')}", value)]
        run_dir = tmp_path / f"run{k}"
        code, _ = run_cli(
            capsys, "train", *graph_args(sbm_dir), "--sim-mode", "attr", *argv,
            "--out-dir", str(run_dir),
        )
        assert code == 0
        config = json.loads((run_dir / "result.json").read_text())["config"]
        assert {name: config[name] for name in want} == want


# Flag values for the main() fuzz: small ints, signed zero, non-finite and
# extreme floats, and text that int() or float() reads or refuses
FUZZ_INTS = ("0", "1", "3", "-1", "-0", "1_0", "\u0662", "1e308", "x")
FUZZ_FLOATS = ("0", "1", "-1", "-0", "0.5", "nan", "inf", "-inf", "1e308", "1_0", "\u0662", "x")
# int() or float() read these, and no command may
REFUSED_NUMBERS = ("1_0", "\u0662")
# given every time: the flags argparse requires, and --nodes (its default is 1000)
ALWAYS_GIVEN = ("--nodes", "--k-max", "--embeddings", "--spec", "--results")


def _sizes(cap: int) -> tuple[str, ...]:
    """Values of a flag that sizes the work: ints up to cap, and text the CLI refuses."""
    return (*map(str, range(-1, cap + 1)), "1e308", "x", *REFUSED_NUMBERS)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A tiny graph and every file a command reads, written once by the CLI itself."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    # train's sizes when no flag overrides them
    (root / "config.json").write_text(json.dumps(
        {"hidden": 3, "top_k": 4, "max_epochs": 2, "pretrain_epochs": 2, "patience": 2}
    ))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([
            "generate-sbm", "--nodes", "16", "--p-in", "0.5", "--p-out", "0.1",
            "--feature-dim", "3", "--out-dir", str(data),
        ]) == 0
        graph = ["--edges", str(data / "edges.txt"), "--features", str(data / "features.csv")]
        assert cli.main(["similarity", *graph, "--top-k", "4", "--out", str(root / "sim.csv")]) == 0
        assert cli.main([
            "train", *graph, "--config", str(root / "config.json"), "--out-dir", str(root / "run"),
        ]) == 0
    write_partition_csv(root / "groups.csv", np.arange(16) % 3)
    # finite, but its unfairness overflows
    write_embedding_csv(root / "huge.csv", 1e200 * np.random.default_rng(0).normal(size=(16, 3)))
    (root / "spec.json").write_text(json.dumps({
        "beta2": [0.0, 1.0], "base_seed": 1, "config": TINY_TRAIN,
        "sbm": {"block_sizes": [8, 8], "p_within": 0.5, "p_between": 0.1, "feature_dim": 3},
    }))
    return root


def _fuzz_flags(root: Path) -> dict[str, tuple[list[str], dict[str, tuple[str, ...]]]]:
    """Per command: its fixed arguments, and the values of each flag drawn for it."""
    data, missing = root / "data", str(root / "missing")
    graph = ["--edges", str(data / "edges.txt"), "--features", str(data / "features.csv")]
    run, sim, groups = root / "run", str(root / "sim.csv"), str(root / "groups.csv")
    out, out_dir = ["--out", str(root / "out.csv")], ["--out-dir", str(root / "out")]
    return {
        "ingest": (graph, {"--out-dir": out_dir[1:]}),
        "similarity": (graph + out, {
            "--mode": ("topo", "attr", "x"), "--top-k": _sizes(8),
            "--mask-cols": ("0", "0,2", "3", "-1", "x", "1_0", "\u0662", ""),
        }),
        "generate-sbm": (out_dir, {
            "--nodes": _sizes(40), "--blocks": FUZZ_INTS, "--p-in": FUZZ_FLOATS,
            "--p-out": FUZZ_FLOATS, "--feature-dim": _sizes(8), "--label-signal": FUZZ_FLOATS,
            "--group-signal": FUZZ_FLOATS, "--ratio": FUZZ_FLOATS, "--seed": FUZZ_INTS,
        }),
        "cluster": (graph, {"--k-max": _sizes(5), "--seed": FUZZ_INTS, "--out": out[1:]}),
        "train": (graph + out_dir + ["--config", str(root / "config.json")], {
            "--hidden": _sizes(8), "--top-k": _sizes(8), "--max-epochs": _sizes(3),
            "--pretrain-epochs": _sizes(3), "--similarity": (sim, missing),
            "--sim-mode": ("topo", "attr"), "--partition": (groups, missing),
            "--backbone": ("gcn", "gin", "jk"), "--gradnorm": ("on", "off"),
            "--attention": ("on", "off"), "--beta2": FUZZ_FLOATS, "--beta3": FUZZ_FLOATS,
            "--seed": FUZZ_INTS,
        }),
        "audit": (["--similarity", sim], {
            "--embeddings": (str(run / "embeddings.csv"), str(root / "huge.csv")),
            "--features": graph[3:], "--partition": (groups, missing),
            "--scores": (str(run / "scores.csv"),), "--threshold": FUZZ_FLOATS,
            "--delta": FUZZ_FLOATS, "--out": out[1:], "--format": ("csv", "json", "x"),
        }),
        "perturb": (graph + out_dir, {
            "--homophily": FUZZ_FLOATS, "--noise": FUZZ_FLOATS, "--seed": FUZZ_INTS,
        }),
        "sweep": (out_dir, {"--spec": (str(root / "spec.json"), sim, missing)}),
        "report": (out, {
            "--results": (str(run / "result.json"), str(run), missing),
            "--format": ("csv", "json"),
        }),
    }


def _refuse_constant(name):
    raise AssertionError(f"stdout holds {name}")


@pytest.mark.parametrize(
    "command",
    ["audit", "cluster", "generate-sbm", "ingest", "perturb", "report", "similarity", "sweep",
     "train"],
)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_cli_main_exits_cleanly_on_any_flag_values(fuzz_files, command, data):
    fixed, optional = _fuzz_flags(fuzz_files)[command]
    argv = [command, *fixed]
    drawn = []
    for flag, values in optional.items():
        if flag in ALWAYS_GIVEN or data.draw(st.booleans(), label=flag):
            drawn.append(data.draw(st.sampled_from(values), label=flag))
            argv += [flag, drawn[-1]]
    if command in ("audit", "report") and data.draw(st.booleans(), label="--thousands"):
        argv.append("--thousands")
    stdout, stderr = io.StringIO(), io.StringIO()
    with (
        warnings.catch_warnings(),
        contextlib.redirect_stdout(stdout),
        contextlib.redirect_stderr(stderr),
    ):
        warnings.simplefilter("ignore", RuntimeWarning)  # the program runs with numpy's default
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (0, 2, 3, 4), stderr.getvalue()
    if any(value in REFUSED_NUMBERS for value in drawn):
        assert code != 0, argv
    if code == 0:
        json.loads(stdout.getvalue(), parse_constant=_refuse_constant)


# ---------------------------------------------------------------------------
# Benchmark script
# ---------------------------------------------------------------------------


def load_benchmark_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_benchmark.py"
    spec = importlib.util.spec_from_file_location("run_benchmark", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_row(seed, if_value, gd):
    return {"seed": seed, "auc": 0.8, "if": if_value, "gd": gd}


def test_benchmark_summary_without_vanilla_or_fixed():
    summarize = load_benchmark_script().summarize
    rows = {
        "full": [bench_row(0, 1.0, 1.2), bench_row(1, 3.0, 1.1)],
        "no_attention": [bench_row(0, 2.0, 1.3), bench_row(1, 2.0, 1.4)],
        "no_l3": [bench_row(0, 5.0, 1.4), bench_row(1, 5.0, 1.05)],
    }
    summary = summarize(rows)
    # the per-seed ratios behind the gates: a margin, not only a count
    assert summary["comparison"] == {
        "attention_win_seeds": 1,
        "no_l3_gd_worse_seeds": 1,
        "gate_ratios": {
            "full/no_attention IF": [0.5, 1.5],
            "no_l3/full |GD-1|": [pytest.approx(2.0), pytest.approx(0.5)],
        },
    }
    assert summary["full"]["if"] == 2.0
    assert "comparison" not in summarize({"full": rows["full"]})
    # a tie (num == den) counts toward the two win gates, not the two worse gates
    variants = ("full", "fixed", "no_attention", "no_l2", "no_l3")
    ties = {name: [bench_row(0, 2.0, 1.2)] for name in variants}
    assert summarize(ties)["comparison"] == {
        "gradnorm_win_seeds": 1,
        "attention_win_seeds": 1,
        "no_l2_if_worse_seeds": 0,
        "no_l3_gd_worse_seeds": 0,
        "gate_ratios": {
            "full/fixed IF": [1.0],
            "full/no_attention IF": [1.0],
            "no_l2/full IF": [1.0],
            "no_l3/full |GD-1|": [1.0],
        },
    }


def test_benchmark_rows_digest_the_history_and_outputs_bitwise():
    script = load_benchmark_script()
    overrides = dict(pretrain_epochs=2, max_epochs=2, patience=2)
    first, again = (script.collect((0,), overrides, ["vanilla"])["vanilla"][0] for _ in range(2))
    assert first["history_sha256"] == again["history_sha256"]
    assert first["outputs_sha256"] == again["outputs_sha256"]
    ((_, _, result),) = run_matrix((0,), overrides, ["vanilla"])
    assert script.history_sha256(result.history) == first["history_sha256"]
    moved = dataclasses.replace(result.history[-1], gd=np.nextafter(result.history[-1].gd, 2.0))
    assert script.history_sha256([*result.history[:-1], moved]) != first["history_sha256"]
    result.scores[0] = np.nextafter(result.scores[0], 2.0)
    assert script.outputs_sha256(result) != first["outputs_sha256"]


@pytest.mark.parametrize(
    "argv", [["--seeds", "-3"], ["--seeds", "0"], ["--seeds", "1_0"], ["--max-epochs", "0"]]
)
def test_benchmark_script_refuses_bad_numbers_with_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as stopped:
        load_benchmark_script().main(argv)
    assert stopped.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and argv[0] in captured.err


def test_benchmark_script_turns_a_run_error_into_exit_2(capsys, monkeypatch):
    monkeypatch.setitem(BENCHMARK_BASE, "learning_rate", -1.0)
    argv = ["--seeds", "1", "--variants", "vanilla", "--max-epochs", "1"]
    assert load_benchmark_script().main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: learning_rate must be positive\n"


def test_benchmark_script_refuses_an_unwritable_out_before_any_run(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    for out in (blocker / "x.json", tmp_path):
        argv = ["--seeds", "1", "--variants", "vanilla", "--max-epochs", "1", "--out", str(out)]
        assert load_benchmark_script().main(argv) == 4
        captured = capsys.readouterr()
        assert "seed" not in captured.out
        assert captured.err.startswith(f"error: cannot write --out {out}: ")
        assert captured.err.count("\n") == 1
    assert blocker.read_text() == "kept\n"


def test_benchmark_script_makes_the_out_directory_and_keeps_an_existing_file(
    tmp_path, monkeypatch
):
    monkeypatch.setitem(BENCHMARK_BASE, "learning_rate", -1.0)
    kept = tmp_path / "rows.json"
    kept.write_text("earlier rows\n")
    for out in (kept, tmp_path / "new" / "rows.json"):
        argv = ["--seeds", "1", "--variants", "vanilla", "--max-epochs", "1", "--out", str(out)]
        assert load_benchmark_script().main(argv) == 2
    assert kept.read_text() == "earlier rows\n"
    assert (tmp_path / "new").is_dir()


def test_run_matrix_logs_equal_unshared_runs(tmp_path):
    overrides = dict(pretrain_epochs=3, max_epochs=2, patience=2)
    runs = list(run_matrix((0,), overrides, variants=["full", "no_attention"]))
    graph = sbm_generate(SbmSpec(**BENCHMARK_SBM), 0)
    similarity = topo_similarity(graph, BENCHMARK_BASE["top_k"])
    partition = GroupPartition.from_values(graph.sensitive)
    for _, name, shared in runs:
        alone = trainer.train(graph, similarity, partition, shared.config)
        trainer.write_training_log(tmp_path / "shared.csv", shared.history)
        trainer.write_training_log(tmp_path / "alone.csv", alone.history)
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_run_matrix_pretrains_once_per_seed_and_width(tmp_path, monkeypatch):
    monkeypatch.setitem(BENCHMARK_VARIANTS, "wide", dict(hidden=8))
    monkeypatch.setitem(BENCHMARK_VARIANTS, "wide_vanilla", dict(hidden=8, beta2=0.0, beta3=0.0))
    calls = []
    pretrain = trainer.pretrain

    def counted(graph, config):
        calls.append((config.seed, config.hidden))
        return pretrain(graph, config)

    monkeypatch.setattr(trainer, "pretrain", counted)
    overrides = dict(pretrain_epochs=3, max_epochs=2, patience=2)
    runs = list(run_matrix((0, 1), overrides, ["full", "wide", "vanilla", "wide_vanilla"]))
    assert calls == [(0, 16), (0, 8), (1, 16), (1, 8)]
    for seed in (0, 1):
        graph = sbm_generate(SbmSpec(**BENCHMARK_SBM), seed)
        similarity = topo_similarity(graph, BENCHMARK_BASE["top_k"])
        partition = GroupPartition.from_values(graph.sensitive)
        for _, _, shared in (run for run in runs if run[0] == seed):
            alone = trainer.train(graph, similarity, partition, shared.config)
            trainer.write_training_log(tmp_path / "shared.csv", shared.history)
            trainer.write_training_log(tmp_path / "alone.csv", alone.history)
            assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_run_matrix_is_seed_major_on_the_shared_base():
    overrides = dict(pretrain_epochs=1, max_epochs=2, patience=2)
    runs = list(run_matrix((0, 1), overrides, variants=["no_l2", "vanilla"]))
    assert [(seed, name) for seed, name, _ in runs] == [
        (0, "no_l2"), (0, "vanilla"), (1, "no_l2"), (1, "vanilla")
    ]
    for seed, name, result in runs:
        want = {**BENCHMARK_BASE, **overrides, **BENCHMARK_VARIANTS[name], "seed": seed}
        assert {key: getattr(result.config, key) for key in want} == want
        assert result.epochs_run == 2
