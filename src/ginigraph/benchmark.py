"""The benchmark matrix: six training configurations on the synthetic SBM.

BENCHMARK_BASE is the TrainConfig shared by every run, BENCHMARK_SBM the
generator's edge probabilities, and BENCHMARK_VARIANTS the per-variant
overrides: vanilla (no fairness terms), the full method, fixed loss weights,
attention off, and each fairness term removed. The acceptance suite and
scripts/run_benchmark.py both train it through run_matrix.
"""

from __future__ import annotations

from typing import Iterator

from .graph import GroupPartition, topo_similarity
from .synthetic import SbmSpec, sbm_generate
from .trainer import RunResult, TrainConfig, train

BENCHMARK_BASE = dict(
    hidden=16,
    pretrain_epochs=200,
    max_epochs=600,
    patience=600,
    top_k=10,
    learning_rate=1e-3,
    beta_lr=0.025,
    head_scale=0.1,
)
BENCHMARK_SBM = dict(p_within=0.2, p_between=0.01)
BENCHMARK_VARIANTS = {
    "vanilla": dict(beta2=0.0, beta3=0.0),
    "full": dict(),
    "fixed": dict(gradnorm=False, beta2=1.0, beta3=1.0),
    "no_attention": dict(attention=False),
    "no_l3": dict(beta3=0.0),
    "no_l2": dict(beta2=0.0),
}


def run_matrix(
    seeds, overrides: dict | None = None, variants=None
) -> Iterator[tuple[int, str, RunResult]]:
    """Train the variants on each seed's graph, yielding (seed, variant, result).

    Seed-major: every variant of one seed runs on that seed's graph, similarity
    set and partition before the next seed starts. overrides update
    BENCHMARK_BASE for every run; variants names a subset of
    BENCHMARK_VARIANTS (all of them, in table order, when empty or None).

    A seed's variants share train's pretrainings cache, so variants that
    differ only in the fairness stage pretrain once, and the first of them
    counts that pretraining in its wall_seconds.
    """
    names = list(variants or BENCHMARK_VARIANTS)
    base = {**BENCHMARK_BASE, **(overrides or {})}
    for seed in seeds:
        graph = sbm_generate(SbmSpec(**BENCHMARK_SBM), seed)
        similarity = topo_similarity(graph, base["top_k"])
        partition = GroupPartition.from_values(graph.sensitive)
        pretrainings: dict = {}
        for name in names:
            config = TrainConfig(seed=seed, **{**base, **BENCHMARK_VARIANTS[name]})
            yield seed, name, train(graph, similarity, partition, config, pretrainings)
