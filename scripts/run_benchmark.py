#!/usr/bin/env python3
"""Paired benchmark runs on the synthetic SBM graph.

Trains the six standard configurations (vanilla, full, fixed weights,
attention off, no group term, no individual term) over a set of seeds and
prints the directional comparison table: IF and GD reductions of the full run
against the vanilla run, the AUC cost, and the ablation directions.

Each row carries two digests: history_sha256, over every logged value at
full precision (the fields and format of perfbench's history digest), and
outputs_sha256, over the final embeddings and scores. Comparing those fields
of two --out files, written with the same options by two checkouts, checks
that their runs are bitwise equal.

A number that is not a plain integer of at least 1, or a run that raises a
ginigraph error, ends in exit code 2.

Example:
    python3 scripts/run_benchmark.py --seeds 5 --out results/benchmark.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from ginigraph.benchmark import BENCHMARK_VARIANTS, run_matrix
from ginigraph.cli import plain_int
from ginigraph.errors import GiniGraphError
from ginigraph.trainer import LOG_COLUMNS


def history_sha256(history) -> str:
    """sha256 over every logged value at full precision, one line per epoch."""
    digest = hashlib.sha256()
    for record in history:
        digest.update(",".join(repr(float(getattr(record, c))) for c in LOG_COLUMNS).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def outputs_sha256(result) -> str:
    """sha256 over the bytes of the final embeddings, then the scores."""
    digest = hashlib.sha256()
    for values in (result.embeddings, result.scores):
        digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


def collect(seeds, overrides=None, variants=None):
    """Per-variant lists of per-seed rows, printing one line per run."""
    rows = {}
    for seed, name, result in run_matrix(seeds, overrides, variants):
        report = result.report
        final = result.history[-1]
        r = {
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
            "seconds": round(result.wall_seconds, 2),
            "final_betas": [final.beta1, final.beta2, final.beta3],
            "history_sha256": history_sha256(result.history),
            "outputs_sha256": outputs_sha256(result),
        }
        rows.setdefault(name, []).append(r)
        print(
            f"seed {seed} {name:12s} auc {r['auc']:.4f} if {r['if']:10.4f} "
            f"gd {r['gd']:.4f} ({r['seconds']}s, {r['epochs']} epochs)",
            flush=True,
        )
    return rows


def mean(values):
    return sum(values) / len(values)


# The per-seed ratios behind the four ablation gates, as (numerator variant,
# denominator variant, statistic). The first two gates count seeds with a
# ratio <= 1 (full wins), the last two seeds with a ratio > 1 (the ablation
# loses), so each ratio's distance from 1 is that seed's margin.
GATE_RATIOS = {
    "full/fixed IF": ("full", "fixed", "if"),
    "full/no_attention IF": ("full", "no_attention", "if"),
    "no_l2/full IF": ("no_l2", "full", "if"),
    "no_l3/full |GD-1|": ("no_l3", "full", "gd_gap"),
}


def statistic(entry, name):
    return abs(entry["gd"] - 1.0) if name == "gd_gap" else entry[name]


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
    ratios = {
        label: [
            statistic(a, stat) / max(statistic(b, stat), 1e-12)
            for a, b in zip(rows[num], rows[den])
        ]
        for label, (num, den, stat) in GATE_RATIOS.items()
        if num in rows and den in rows
    }
    if ratios:
        comparison["gate_ratios"] = ratios
    if comparison:
        out["comparison"] = comparison
    return out


def positive_int(text: str) -> int:
    """A plain_int of at least 1; argparse exits 2 on any other text."""
    value = plain_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=positive_int, default=5, help="number of seeds (0..n-1)")
    parser.add_argument("--out", help="write the raw per-run rows as JSON")
    parser.add_argument(
        "--variants", nargs="*", choices=list(BENCHMARK_VARIANTS),
        help="subset of variants to run (default: all)",
    )
    parser.add_argument(
        "--max-epochs", type=positive_int, help="fair epochs (and patience) per run"
    )
    args = parser.parse_args(argv)

    overrides = {}
    if args.max_epochs is not None:
        overrides = {"max_epochs": args.max_epochs, "patience": args.max_epochs}

    started = time.monotonic()
    try:
        rows = collect(range(args.seeds), overrides, args.variants)
    except GiniGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
