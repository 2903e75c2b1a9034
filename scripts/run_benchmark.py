#!/usr/bin/env python3
"""Paired benchmark runs on the synthetic SBM graph.

Trains the six standard configurations (vanilla, full, fixed weights,
attention off, no group term, no individual term) over a range of seeds
(--seeds of them from --first-seed) and prints the directional comparison
table: IF and GD reductions of the full run against the vanilla run, the AUC
cost, and the ablation directions.

Each row carries two digests: history_sha256, over every logged value at
full precision (the fields and format of perfbench's history digest), and
outputs_sha256, over the final embeddings and scores. Comparing those fields
of two --out files, written with the same options by two checkouts, checks
that their runs are bitwise equal. The --out file also records the
environment the runs saw: the Python, numpy, scipy and BLAS builds, the BLAS
thread count and the threads that select top-k similarity blocks.

A number that is not a plain integer of at least 1, or a run that raises a
ginigraph error, ends in exit code 2. An --out path that cannot be written
ends in exit code 4 before the first run: its parent directory is created
first and must be a writable directory. An existing --out file is left as it
is until the runs finish.

Example:
    python3 scripts/run_benchmark.py --seeds 5 --out results/benchmark.json
    python3 scripts/run_benchmark.py --first-seed 5 --seeds 10 --out results/held_out.json
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys
import time
from operator import gt, le
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import scipy

from ginigraph.benchmark import BENCHMARK_VARIANTS, run_matrix
from ginigraph.cli import plain_int
from ginigraph.errors import GiniGraphError
from ginigraph.graph import SELECT_WORKERS
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


# The four ablation gates, as ratio label: (count key, numerator variant,
# denominator variant, statistic, test). A seed counts toward the gate when
# test(num, den) holds: num <= den for the first two (full wins), num > den
# for the last two (the ablation loses). The per-seed ratio num / den shows
# each seed's margin as its distance from 1.
GATES = {
    "full/fixed IF": ("gradnorm_win_seeds", "full", "fixed", "if", le),
    "full/no_attention IF": ("attention_win_seeds", "full", "no_attention", "if", le),
    "no_l2/full IF": ("no_l2_if_worse_seeds", "no_l2", "full", "if", gt),
    "no_l3/full |GD-1|": ("no_l3_gd_worse_seeds", "no_l3", "full", "gd_gap", gt),
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
    ratios = {}
    for label, (key, num, den, stat, test) in GATES.items():
        if num in rows and den in rows:
            pairs = [(statistic(a, stat), statistic(b, stat)) for a, b in zip(rows[num], rows[den])]
            comparison[key] = sum(1 for a, b in pairs if test(a, b))
            ratios[label] = [a / max(b, 1e-12) for a, b in pairs]
    if ratios:
        comparison["gate_ratios"] = ratios
    if comparison:
        out["comparison"] = comparison
    return out


def blas_threads() -> int | None:
    """The threads numpy's bundled OpenBLAS runs with, or None where it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                get = getattr(ctypes.CDLL(str(lib)), name)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


def environment() -> dict:
    """The builds and thread counts that a run's last bits can depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "select_workers": SELECT_WORKERS,
    }


def int_at_least(low: int):
    """An argparse type: a plain_int of at least low; argparse exits 2 on any other text."""
    def parse(text: str) -> int:
        value = plain_int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def check_writable(path: Path) -> None:
    """Create path's parent directory; OSError unless path can be written there."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(f"{path} is a directory")
    if not os.access(path.parent, os.W_OK | os.X_OK) or (
        path.exists() and not os.access(path, os.W_OK)
    ):
        raise PermissionError(f"{path} is not writable")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int_at_least(1), default=5, help="number of seeds")
    parser.add_argument("--first-seed", type=int_at_least(0), default=0, help="the first seed")
    parser.add_argument("--out", help="write the raw per-run rows as JSON")
    parser.add_argument(
        "--variants", nargs="*", choices=list(BENCHMARK_VARIANTS),
        help="subset of variants to run (default: all)",
    )
    parser.add_argument(
        "--max-epochs", type=int_at_least(1), help="fair epochs (and patience) per run"
    )
    args = parser.parse_args(argv)

    overrides = {}
    if args.max_epochs is not None:
        overrides = {"max_epochs": args.max_epochs, "patience": args.max_epochs}

    if args.out:
        try:
            check_writable(Path(args.out))
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
            return 4

    started = time.monotonic()
    try:
        rows = collect(range(args.first_seed, args.first_seed + args.seeds), overrides,
                       args.variants)
    except GiniGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = summarize(rows)
    print(json.dumps(summary, indent=2))
    print(f"total wall time: {time.monotonic() - started:.1f}s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(), "rows": rows, "summary": summary}, fh,
                      indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
