#!/usr/bin/env python3
"""Paired benchmark runs on the synthetic SBM graph.

Trains the six standard configurations (vanilla, full, fixed weights,
attention off, no group term, no individual term) over a set of seeds and
prints the directional comparison table: IF and GD reductions of the full run
against the vanilla run, the AUC cost, and the ablation directions.

Example:
    python3 scripts/run_benchmark.py --seeds 5 --out results/benchmark.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ginigraph.graph import GroupPartition, topo_similarity
from ginigraph.synthetic import SbmSpec, sbm_generate
from ginigraph.trainer import TrainConfig, train

BASE_CONFIG = dict(
    hidden=16,
    pretrain_epochs=200,
    max_epochs=600,
    patience=600,
    top_k=10,
    learning_rate=1e-3,
    surrogate="none",
    beta_lr=0.025,
    head_scale=0.1,
)

BENCHMARK_SBM = dict(p_within=0.2, p_between=0.01)

VARIANTS = {
    "vanilla": dict(beta2=0.0, beta3=0.0),
    "full": dict(),
    "fixed": dict(gradnorm=False, beta2=1.0, beta3=1.0),
    "no_attention": dict(attention=False),
    "no_l3": dict(beta3=0.0),
    "no_l2": dict(beta2=0.0),
}


def run_matrix(seeds, base_overrides, sbm_overrides=None, variants=None):
    names = variants or list(VARIANTS)
    spec = SbmSpec(**(BENCHMARK_SBM if sbm_overrides is None else sbm_overrides))
    rows = {name: [] for name in names}
    for seed in seeds:
        graph = sbm_generate(spec, seed)
        config_kwargs = dict(BASE_CONFIG)
        config_kwargs.update(base_overrides)
        similarity = topo_similarity(graph, config_kwargs["top_k"])
        partition = GroupPartition.from_values(graph.sensitive)
        for name in names:
            config = TrainConfig(seed=seed, **{**config_kwargs, **VARIANTS[name]})
            started = time.monotonic()
            result = train(graph, similarity, partition, config)
            report = result.report
            final = result.history[-1]
            rows[name].append(
                {
                    "seed": seed,
                    "auc": report.auc,
                    # graph-wide trace metrics (test-restricted ones are a
                    # high-variance subsample, especially for the small group)
                    "if": final.if_value,
                    "gd": final.gd,
                    "test_if": report.individual_unfairness,
                    "test_gd": report.gd_trace,
                    "gini": report.gini,
                    "epochs": result.epochs_run,
                    "seconds": round(time.monotonic() - started, 2),
                    "final_betas": [final.beta1, final.beta2, final.beta3],
                }
            )
            r = rows[name][-1]
            print(
                f"seed {seed} {name:12s} auc {r['auc']:.4f} if {r['if']:10.4f} "
                f"gd {r['gd']:.4f} ({r['seconds']}s, {r['epochs']} epochs)",
                flush=True,
            )
    return rows


def mean(values):
    return sum(values) / len(values)


def summarize(rows):
    out = {}
    for name, entries in rows.items():
        out[name] = {
            "auc": mean([e["auc"] for e in entries]),
            "if": mean([e["if"] for e in entries]),
            "gd": mean([e["gd"] for e in entries]),
        }
    comparison = {}
    if "vanilla" in out and "full" in out:
        v, f = out["vanilla"], out["full"]
        comparison["if_reduction"] = 1.0 - f["if"] / v["if"]
        comparison["gd_gap_reduction"] = 1.0 - abs(f["gd"] - 1.0) / max(
            abs(v["gd"] - 1.0), 1e-12
        )
        comparison["auc_drop"] = v["auc"] - f["auc"]
    if "full" in rows and "fixed" in rows:
        comparison["gradnorm_win_seeds"] = sum(
            1 for a, b in zip(rows["full"], rows["fixed"]) if a["if"] <= b["if"]
        )
    if "full" in rows and "no_attention" in rows:
        comparison["attention_win_seeds"] = sum(
            1 for a, b in zip(rows["full"], rows["no_attention"]) if a["if"] <= b["if"]
        )
    if "full" in rows and "no_l3" in rows:
        comparison["no_l3_gd_worse_seeds"] = sum(
            1
            for a, b in zip(rows["full"], rows["no_l3"])
            if abs(b["gd"] - 1.0) > abs(a["gd"] - 1.0)
        )
    if "full" in rows and "no_l2" in rows:
        comparison["no_l2_if_worse_seeds"] = sum(
            1 for a, b in zip(rows["full"], rows["no_l2"]) if b["if"] > a["if"]
        )
    if comparison:
        out["comparison"] = comparison
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds (0..n-1)")
    parser.add_argument("--out", help="write the raw per-run rows as JSON")
    parser.add_argument("--variants", nargs="*", help="subset of variants to run")
    parser.add_argument("--max-epochs", type=int)
    parser.add_argument("--pretrain-epochs", type=int)
    parser.add_argument("--top-k", type=int)
    parser.add_argument("--beta-lr", type=float)
    parser.add_argument("--head-scale", type=float)
    args = parser.parse_args(argv)

    overrides = {}
    if args.max_epochs is not None:
        overrides["max_epochs"] = args.max_epochs
        overrides["patience"] = args.max_epochs
    if args.pretrain_epochs is not None:
        overrides["pretrain_epochs"] = args.pretrain_epochs
    if args.top_k is not None:
        overrides["top_k"] = args.top_k
    if args.beta_lr is not None:
        overrides["beta_lr"] = args.beta_lr
    if args.head_scale is not None:
        overrides["head_scale"] = args.head_scale

    started = time.monotonic()
    rows = run_matrix(range(args.seeds), overrides, variants=args.variants)
    summary = summarize(rows)
    print(json.dumps(summary, indent=2))
    print(f"total wall time: {time.monotonic() - started:.1f}s")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows, "summary": summary}, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
