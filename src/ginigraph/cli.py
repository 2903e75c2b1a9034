"""Command-line surface: data ingestion, similarity construction, benchmark
generation, clustering, training, auditing, perturbation, sweeps, reports.

Exit codes: 0 success, 2 config or contract error, 3 numerical failure,
4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .clustering import kmeans, kmeans_elbow
from .errors import (
    ConfigError,
    DataFormatError,
    GiniGraphError,
    NumericalError,
)
from .graph import (
    GroupPartition,
    build_similarity,
    graph_summary,
    is_plain_text,
    load_graph,
    read_embedding_csv,
    read_feature_table,
    read_json,
    read_partition_csv,
    read_scores_csv,
    read_similarity_csv,
    write_embedding_csv,
    write_graph,
    write_partition_csv,
    write_scores_csv,
    write_similarity_csv,
)
from .metrics import MetricsReport, compute_report
from .perturb import perturb_noise, rewire_homophily
from .sweep import SweepSpec, aggregate_dir, run_sweep, write_metrics_table, write_sweep_table
from .synthetic import SbmSpec, sbm_generate
from .trainer import TrainConfig, train, write_training_log
from .models import save_checkpoint


def _plain(parse):
    """parse, refusing text that is_plain_text refuses, as the file readers do."""

    def read(text: str):
        if not is_plain_text(text):
            raise ValueError(f"not a plain ASCII number: {text!r}")
        return parse(text)

    read.__name__ = parse.__name__  # argparse names the type in its message
    return read


plain_int, plain_float = _plain(int), _plain(float)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    graph, dropped = load_graph(args.edges, args.features)
    if args.out_dir:
        write_graph(args.out_dir, graph)
    _emit(graph_summary(graph, dropped))
    return 0


def cmd_similarity(args) -> int:
    graph, _ = load_graph(args.edges, args.features)
    try:
        mask_cols = tuple(plain_int(c) for c in args.mask_cols.split(",")) if args.mask_cols else ()
    except ValueError as exc:
        raise ConfigError(f"--mask-cols must be comma-separated integers: {exc}") from exc
    similarity = build_similarity(graph, args.mode, args.top_k, mask_cols)
    write_similarity_csv(args.out, similarity)
    _emit({"nodes": similarity.n, "pairs": similarity.num_pairs, "out": str(args.out)})
    return 0


def cmd_generate_sbm(args) -> int:
    if args.blocks < 1 or args.nodes < args.blocks:
        raise ConfigError("need at least one block and nodes >= blocks")
    base, extra = divmod(args.nodes, args.blocks)
    sizes = tuple(base + (1 if b < extra else 0) for b in range(args.blocks))
    spec = SbmSpec(
        block_sizes=sizes,
        p_within=args.p_in,
        p_between=args.p_out,
        feature_dim=args.feature_dim,
        label_signal=args.label_signal,
        group_signal=args.group_signal,
        sensitive_ratio=args.ratio,
    )
    graph = sbm_generate(spec, args.seed)
    write_graph(args.out_dir, graph)
    summary = graph_summary(graph)
    summary["expected_edges"] = spec.expected_edges()
    summary["majority_share"] = float(np.mean(graph.sensitive == 0))
    _emit(summary)
    return 0


def cmd_cluster(args) -> int:
    graph, _ = load_graph(args.edges, args.features)
    k, wcss = kmeans_elbow(graph.features, args.k_max, args.seed)
    if args.out:
        assign, _, _ = kmeans(graph.features, k, args.seed)
        write_partition_csv(args.out, assign)
    _emit({"k": k, "wcss": wcss})
    return 0


# train flags that, when given, override the config field of the same name;
# the on/off flags become booleans
TRAIN_OVERRIDES = (
    "backbone", "gradnorm", "attention", "beta2", "beta3", "seed", "hidden",
    "max_epochs", "pretrain_epochs", "top_k",
)


def cmd_train(args) -> int:
    graph, _ = load_graph(args.edges, args.features)
    config = read_json(args.config, TrainConfig.from_json_dict) if args.config else TrainConfig()
    overrides = {}
    for name in TRAIN_OVERRIDES:
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value == "on" if value in ("on", "off") else value
    config = dataclasses.replace(config, **overrides)
    config.validate()

    if args.similarity:
        similarity = read_similarity_csv(args.similarity, graph.n)
    else:
        similarity = build_similarity(graph, args.sim_mode, config.top_k)
    partition = (
        read_partition_csv(args.partition)
        if args.partition
        else GroupPartition.from_values(graph.sensitive)
    )

    result = train(graph, similarity, partition, config)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_training_log(out / "log.csv", result.history)
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result.to_json_dict(), fh, indent=2)
    save_checkpoint(out / "checkpoint.json", result.params)
    write_embedding_csv(out / "embeddings.csv", result.embeddings)
    write_scores_csv(out / "scores.csv", result.scores)
    _emit(result.to_json_dict())
    return 0


def cmd_audit(args) -> int:
    z = read_embedding_csv(args.embeddings)
    similarity = read_similarity_csv(args.similarity, z.shape[0])
    partition = read_partition_csv(args.partition) if args.partition else None
    labels = scores = None
    if args.features:
        _, labels, sensitive = read_feature_table(args.features)
        if partition is None:
            partition = GroupPartition.from_values(sensitive)
    if args.scores:
        scores = read_scores_csv(args.scores)
    report = compute_report(
        z, similarity, partition, scores, labels, threshold=args.threshold, delta=args.delta
    )
    if args.out:
        write_metrics_table([report], args.out, args.format, args.thousands)
    _emit(report.to_json_dict())
    return 0


def cmd_perturb(args) -> int:
    graph, _ = load_graph(args.edges, args.features)
    if args.homophily is not None:
        before = graph.homophily()
        result = rewire_homophily(graph, args.homophily, args.seed)
        write_graph(args.out_dir, result.graph)
        _emit(
            {
                "rho": args.homophily,
                "rewired": result.rewired,
                "kept": result.kept,
                "homophily_before": before,
                "homophily_after": result.graph.homophily(),
            }
        )
    else:
        noised = perturb_noise(graph.features, args.noise, args.seed)
        write_graph(args.out_dir, dataclasses.replace(graph, features=noised))
        delta = noised - graph.features
        _emit({"sigma": args.noise, "noise_std": float(delta.std())})
    return 0


def cmd_sweep(args) -> int:
    spec = SweepSpec.from_json_dict(read_json(args.spec))
    rows = run_sweep(spec, args.out_dir)
    out = Path(args.out_dir)
    write_sweep_table(rows, out / "table.csv", "csv")
    write_sweep_table(rows, out / "table.json", "json")
    _emit(
        {
            "points": len(rows),
            "runs": sum(r.n_runs for r in rows),
            "errors": sum(r.errors for r in rows),
            "table": str(out / "table.csv"),
        }
    )
    return 0


def _final_report(payload) -> MetricsReport:
    """The report in a result JSON (under final_metrics) or a bare report JSON."""
    if isinstance(payload, dict) and "final_metrics" in payload:
        payload = payload["final_metrics"]
    return MetricsReport.from_json_dict(payload)


def cmd_report(args) -> int:
    source = Path(args.results)
    out = args.out
    if source.is_dir():
        rows = aggregate_dir(source)
        write_sweep_table(rows, out, args.format, args.thousands)
    else:
        report = read_json(source, _final_report)
        write_metrics_table([report], out, args.format, args.thousands)
    _emit({"out": str(out)})
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_graph_inputs(p) -> None:
    p.add_argument("--edges", required=True, help="edge list file (i j per line)")
    p.add_argument("--features", required=True, help="node table CSV (id,label,sensitive,f0,...)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginigraph",
        description="Fairness-aware graph learning: training, audits, experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a graph and report summary stats")
    _add_graph_inputs(p)
    p.add_argument("--out-dir", help="write normalized copies here")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("similarity", help="build a pairwise similarity set")
    _add_graph_inputs(p)
    p.add_argument("--mode", choices=["topo", "attr"], default="topo")
    p.add_argument("--top-k", type=plain_int, default=100)
    p.add_argument("--mask-cols", help="comma-separated feature columns to zero (attr mode)")
    p.add_argument("--out", required=True, help="output similarity CSV")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("generate-sbm", help="sample the synthetic benchmark graph")
    p.add_argument("--nodes", type=plain_int, default=1000)
    p.add_argument("--blocks", type=plain_int, default=2)
    p.add_argument("--p-in", type=plain_float, default=0.05)
    p.add_argument("--p-out", type=plain_float, default=0.005)
    p.add_argument("--feature-dim", type=plain_int, default=8)
    p.add_argument("--label-signal", type=plain_float, default=1.0)
    p.add_argument("--group-signal", type=plain_float, default=0.6)
    p.add_argument("--ratio", type=plain_float, default=0.78, help="majority sensitive share")
    p.add_argument("--seed", type=plain_int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_generate_sbm)

    p = sub.add_parser("cluster", help="k-means groups with elbow-selected k")
    _add_graph_inputs(p)
    p.add_argument("--k-max", type=plain_int, required=True)
    p.add_argument("--seed", type=plain_int, default=0)
    p.add_argument("--out", help="write id,group assignments CSV")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="two-stage fairness-aware training run")
    _add_graph_inputs(p)
    p.add_argument("--similarity", help="precomputed similarity CSV (else built)")
    p.add_argument("--sim-mode", choices=["topo", "attr"], default="topo")
    p.add_argument("--partition", help="id,group CSV (default: sensitive attribute)")
    p.add_argument("--config", help="JSON object of TrainConfig fields")
    p.add_argument("--backbone", choices=["gcn", "gin", "jk"])
    p.add_argument("--gradnorm", choices=["on", "off"])
    p.add_argument("--attention", choices=["on", "off"])
    p.add_argument("--beta2", type=plain_float)
    p.add_argument("--beta3", type=plain_float)
    p.add_argument("--seed", type=plain_int)
    p.add_argument("--hidden", type=plain_int)
    p.add_argument("--max-epochs", type=plain_int)
    p.add_argument("--pretrain-epochs", type=plain_int)
    p.add_argument("--top-k", type=plain_int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("audit", help="metric report for any embedding matrix")
    p.add_argument("--embeddings", required=True, help="embedding CSV (id,e0,...)")
    p.add_argument("--similarity", required=True, help="similarity CSV")
    p.add_argument("--features", help="node table CSV for labels and groups")
    p.add_argument("--partition", help="id,group CSV overriding the sensitive column")
    p.add_argument("--scores", help="id,score CSV for utility metrics")
    p.add_argument("--threshold", type=plain_float, default=0.5)
    p.add_argument("--delta", type=plain_float, default=1e-6)
    p.add_argument("--out", help="also write the report here")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--thousands", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("perturb", help="rewire toward homophily or add feature noise")
    _add_graph_inputs(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--homophily", type=plain_float, metavar="RHO")
    group.add_argument("--noise", type=plain_float, metavar="SIGMA")
    p.add_argument("--seed", type=plain_int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("sweep", help="grid sweep from a JSON spec")
    p.add_argument("--spec", required=True, help="sweep spec JSON file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="emit tables from run artifacts")
    p.add_argument("--results", required=True, help="run directory or result JSON")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--thousands", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args) or 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except GiniGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
