"""One workload instance in a fresh process; run.py starts it.

    python3 perfbench/workload.py --workload train_full --seed 3 --t0 <monotonic> [--traced]

The process builds its inputs from the seed, runs the timed part once and
prints one JSON object as the last line of standard output: the end-to-end
timings, the values the output checks need, and, with --traced, the per-layer
spans and counts. --t0 is the parent's time.monotonic() just before it started
this process (the clock is system-wide), so setup_s covers interpreter start,
imports and input generation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spec  # noqa: E402

# ginigraph.cli imports every module the workloads reach, so the tracer sees
# all of them when it patches.
import ginigraph.cli  # noqa: E402
from ginigraph import graph as gg  # noqa: E402
from ginigraph import synthetic, trainer  # noqa: E402


def _history_digest(history) -> str:
    """sha256 over every logged value at full precision."""
    h = hashlib.sha256()
    for row in history:
        values = [row.epoch, row.l1, row.l2, row.l3, row.beta1, row.beta2, row.beta3,
                  row.val_auc, row.if_value, row.gd]
        h.update(",".join(repr(float(v)) for v in values).encode())
        h.update(b"\n")
    return h.hexdigest()


def _train_setup(seed):
    graph = synthetic.sbm_generate(synthetic.SbmSpec(**spec.TRAIN_SBM), seed)
    similarity = gg.topo_similarity(graph, spec.TRAIN_CONFIG["top_k"])
    partition = gg.GroupPartition.from_values(graph.sensitive)
    return graph, similarity, partition


def _train_run(name, seed, inputs):
    graph, similarity, partition = inputs
    config = trainer.TrainConfig(seed=seed, **{**spec.TRAIN_CONFIG, **spec.TRAIN_VARIANTS[name]})
    started = time.monotonic()
    result = trainer.train(graph, similarity, partition, config)
    run_s = time.monotonic() - started

    history = result.history
    final = history[-1]
    finite = all(
        math.isfinite(v)
        for row in history
        for v in (row.l1, row.l2, row.l3, row.beta1, row.beta2, row.beta3,
                  row.val_auc, row.if_value, row.gd)
    )
    checks = {
        "history_finite": finite,
        "epochs_run": result.epochs_run == config.max_epochs == len(history),
    }
    if name == "train_full":
        checks["betas_sum_3_all_positive"] = all(
            abs(r.beta1 + r.beta2 + r.beta3 - 3.0) <= 1e-9
            and min(r.beta1, r.beta2, r.beta3) > 0.0
            for r in history
        )
    values = {
        "test_auc": float(result.report.auc),
        "final_if": float(final.if_value),
        "gd_gap": abs(float(final.gd) - 1.0),
    }
    return run_s, checks, values, {"history_digest": _history_digest(history)}


def _audit_setup(seed, workdir: Path):
    graph = synthetic.sbm_generate(synthetic.SbmSpec(**spec.AUDIT_SBM), seed)
    # the audited embedding and scores are inputs, drawn apart from the graph
    rng = np.random.default_rng([seed, 1])
    embedding = rng.normal(size=(graph.n, spec.AUDIT_EMBED_DIM))
    scores = 1.0 / (1.0 + np.exp(-(graph.features[:, 0] + rng.normal(size=graph.n))))
    files = {name: workdir / f"{name}.csv" for name in
             ("edges", "features", "embedding", "scores", "sim_topo", "sim_attr")}
    gg.write_edge_list(files["edges"], graph.edges)
    gg.write_feature_table(files["features"], graph.features, graph.labels, graph.sensitive)
    gg.write_embedding_csv(files["embedding"], embedding)
    gg.write_scores_csv(files["scores"], scores)
    return files


def _cli(argv):
    """Run the CLI in this process; returns (exit code, parsed JSON output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ginigraph.cli.main([str(a) for a in argv])
    try:
        payload = json.loads(out.getvalue())
    except json.JSONDecodeError:
        payload = None
    return code, payload


def _audit_run(files):
    graph_args = ["--edges", files["edges"], "--features", files["features"]]
    top_k = ["--top-k", spec.AUDIT_TOP_K]
    calls = [
        ["similarity", *graph_args, "--mode", "topo", *top_k, "--out", files["sim_topo"]],
        ["similarity", *graph_args, "--mode", "attr", "--mask-cols", spec.AUDIT_MASK_COLS,
         *top_k, "--out", files["sim_attr"]],
        *(["audit", "--embeddings", files["embedding"], "--similarity", files[sim],
           "--features", files["features"], "--scores", files["scores"]]
          for sim in ("sim_topo", "sim_attr")),
    ]
    started = time.monotonic()
    results = [_cli(argv) for argv in calls]
    run_s = time.monotonic() - started

    codes = [code for code, _ in results]
    outputs = [payload for _, payload in results]
    checks = {"exit_codes_0": codes == [0, 0, 0, 0] and None not in outputs}
    if not checks["exit_codes_0"]:
        return run_s, checks, {}, {"exit_codes": codes}
    reports = outputs[2:]
    fields = ("auc", "f1", "individual_unfairness", "gini", "gd_trace", "gd_gini", "lipschitz")
    checks["reports_finite"] = all(
        isinstance(r[f], (int, float)) and math.isfinite(r[f]) for r in reports for f in fields
    )
    checks["gini_in_0_1"] = checks["reports_finite"] and all(0.0 <= r["gini"] <= 1.0 for r in reports)
    checks["gd_trace_ge_1"] = checks["reports_finite"] and all(r["gd_trace"] >= 1.0 for r in reports)
    topo = reports[0]
    values = {
        "test_auc": float(topo["auc"]),
        "final_if": float(topo["individual_unfairness"]),
        "gd_gap": abs(float(topo["gd_trace"]) - 1.0),
        "topo_pairs": int(outputs[0]["pairs"]),
        "attr_pairs": int(outputs[1]["pairs"]),
    }
    return run_s, checks, values, {}


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    workdir = None
    try:
        if args.workload == "audit_n5k":
            scratch = ROOT / ".perfbench_tmp"
            scratch.mkdir(exist_ok=True)
            workdir = Path(tempfile.mkdtemp(dir=scratch))
            inputs = _audit_setup(args.seed, workdir)
            setup_s = time.monotonic() - args.t0
            run_s, checks, values, extra = _audit_run(inputs)
        else:
            inputs = _train_setup(args.seed)
            setup_s = time.monotonic() - args.t0
            run_s, checks, values, extra = _train_run(args.workload, args.seed, inputs)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
        "values": values,
        "environment": _environment(),
        **extra,
    }
    if tracer is not None:
        result["spans"] = {
            "inclusive": dict(tracer.inclusive),
            "self": dict(tracer.self_time),
            "calls": dict(tracer.calls),
        }
        result["counts"] = dict(tracer.counts)
        result["missing"] = tracer.missing
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
