"""ginigraph benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload train_full --seed 0 --seconds 30 --trace 0

Starts perfbench/workload.py again and again, one process at a time, until
--seconds have passed (at least three times). Each process builds its inputs
from the seed, runs the timed part once and reports. The benchmark checks
every process's outputs, takes medians and prints the metrics, by name and
unit, with one JSON object as the last line of standard output.

--trace 0 reports the end-to-end metrics from untraced processes. --trace 1
alternates untraced and traced processes and reports the per-layer metrics of
the traced ones, plus the tracing overhead. See perfbench/README.md for the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

# One BLAS thread per process: the hot paths are scatter-adds and n x 16
# products that gain nothing from threads, and a single thread keeps the
# timings steady on a shared 2-CPU machine.
BLAS_THREADS = 1
MIN_PROCESSES = 3
# No process starts after START_DEADLINE_S, and every process is stopped by
# RUN_DEADLINE_S, so a run ends within 180 s.
START_DEADLINE_S = 120.0
RUN_DEADLINE_S = 170.0
PROCESS_TIMEOUT_S = 150.0

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")]

# (metric, unit, kind, key): kind "incl" and "self" read span seconds, "calls"
# a span's call count, "count" a tracer counter.
PER_LAYER = [
    ("autodiff.backward_s", "s", "incl", "autodiff.backward"),
    ("autodiff.backward_self_s", "s", "self", "autodiff.backward"),
    ("autodiff.backward_calls", "count", "calls", "autodiff.backward"),
    ("autodiff.gather_rows_s", "s", "incl", "autodiff.gather_rows"),
    ("autodiff.gather_rows_back_s", "s", "incl", "autodiff.gather_rows_back"),
    ("autodiff.gather_rows_calls", "count", "calls", "autodiff.gather_rows"),
    ("autodiff.gathered_elems", "count", "count", "autodiff.gathered_elems"),
    ("autodiff.segment_sum_s", "s", "incl", "autodiff.segment_sum"),
    ("autodiff.segment_sum_back_s", "s", "incl", "autodiff.segment_sum_back"),
    ("autodiff.segment_softmax_s", "s", "incl", "autodiff.segment_softmax"),
    ("autodiff.segment_softmax_back_s", "s", "incl", "autodiff.segment_softmax_back"),
    ("autodiff.quadratic_pair_form_s", "s", "incl", "autodiff.quadratic_pair_form"),
    ("autodiff.quadratic_pair_form_back_s", "s", "incl", "autodiff.quadratic_pair_form_back"),
    ("autodiff.quadratic_pair_form_calls", "count", "calls", "autodiff.quadratic_pair_form"),
    ("autodiff.spmm_s", "s", "incl", "autodiff.spmm"),
    ("autodiff.spmm_back_s", "s", "incl", "autodiff.spmm_back"),
    ("autodiff.matmul_s", "s", "incl", "autodiff.matmul"),
    ("autodiff.matmul_back_s", "s", "incl", "autodiff.matmul_back"),
    ("models.fair_head_embed_s", "s", "incl", "models.fair_head_embed"),
    ("models.fair_head_embed_self_s", "s", "self", "models.fair_head_embed"),
    ("models.fair_head_embed_calls", "count", "calls", "models.fair_head_embed"),
    ("models.backbone_embed_s", "s", "incl", "models.backbone_embed"),
    ("losses.utility_loss_s", "s", "incl", "losses.utility_loss"),
    ("losses.smoothness_loss_s", "s", "incl", "losses.smoothness_loss"),
    ("losses.group_welfare_loss_s", "s", "incl", "losses.group_welfare_loss"),
    ("losses.combine_losses_s", "s", "incl", "losses.combine_losses"),
    ("gradnorm.step_s", "s", "incl", "gradnorm.step"),
    ("gradnorm.step_calls", "count", "calls", "gradnorm.step"),
    ("trainer.train_s", "s", "incl", "trainer.train"),
    ("trainer.train_self_s", "s", "self", "trainer.train"),
    ("trainer.pretrain_s", "s", "incl", "trainer.pretrain"),
    ("trainer.fair_stage_s", "s", "fair_stage", None),
    ("trainer.evaluate_s", "s", "incl", "trainer.evaluate"),
    ("trainer.adam_step_s", "s", "incl", "trainer.adam_step"),
    ("trainer.epochs_run", "count", "count", "trainer.epochs_run"),
    ("metrics.trace_form_s", "s", "incl", "metrics.trace_form"),
    ("metrics.trace_form_calls", "count", "calls", "metrics.trace_form"),
    ("metrics.rank_auc_s", "s", "incl", "metrics.rank_auc"),
    ("metrics.compute_report_s", "s", "incl", "metrics.compute_report"),
    ("graph.topo_similarity_s", "s", "incl", "graph.topo_similarity"),
    ("graph.attr_similarity_s", "s", "incl", "graph.attr_similarity"),
    ("graph.similarity_pairs", "count", "count", "graph.similarity_pairs"),
    ("graph.restrict_s", "s", "incl", "graph.restrict"),
    ("graph.restrict_calls", "count", "calls", "graph.restrict"),
    ("graph.io_s", "s", "incl", "graph.io"),
    ("synthetic.sbm_generate_s", "s", "incl", "synthetic.sbm_generate"),
    ("synthetic.pairs_drawn", "count", "count", "synthetic.pairs_drawn"),
    ("synthetic.edge_yield", "ratio", "edge_yield", None),
    ("cli.similarity_s", "s", "incl", "cli.similarity"),
    ("cli.audit_s", "s", "incl", "cli.audit"),
    ("trace.overhead_pct", "%", "overhead", None),
]


def _layer_value(kind, key, spans, counts):
    if kind in ("incl", "self"):
        return spans["inclusive" if kind == "incl" else "self"].get(key, 0.0)
    if kind == "calls":
        return spans["calls"].get(key, 0)
    if kind == "count":
        return counts.get(key, 0)
    if kind == "fair_stage":
        incl = spans["inclusive"]
        return incl.get("trainer.train", 0.0) - incl.get("trainer.pretrain", 0.0) - incl.get(
            "trainer.evaluate", 0.0
        )
    if kind == "edge_yield":
        drawn = counts.get("synthetic.pairs_drawn", 0)
        return counts.get("synthetic.edges", 0) / drawn if drawn else 0.0
    raise ValueError(kind)


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    # let the first process cache bytecode, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(workload, seed, traced, timeout):
    """Start one workload process; returns (result dict or None, error text)."""
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed)]
    if traced:
        argv.append("--traced")
    t0 = time.monotonic()
    argv += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"exit code {proc.returncode}: " + " | ".join(tail)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (json.JSONDecodeError, IndexError):
        return None, "no result line"


def _load_reference() -> dict:
    path = HERE / "reference.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _reference_errors(result, recorded) -> list[str]:
    """Compare a result's deterministic outputs with the recorded ones."""
    if recorded is None:
        return ["no recorded values for this seed"]
    errors = []
    values = result["values"]
    for name, (kind, tol) in spec.TOLERANCE.items():
        got, want = values.get(name), recorded[name]
        if got is None:
            errors.append(f"{name} missing")
            continue
        limit = tol if kind == "abs" else tol * abs(want)
        if not abs(got - want) <= limit:
            errors.append(f"{name} {got!r} differs from recorded {want!r}")
    for name in ("topo_pairs", "attr_pairs"):
        if name in recorded and values.get(name) != recorded[name]:
            errors.append(f"{name} {values.get(name)} != recorded {recorded[name]}")
    return errors


def _check(entries, reference, workload):
    """Per-process failure lists: own checks, recorded values, repeatability."""
    failures = []
    first = {}
    for entry in entries:
        result, error = entry["result"], entry["error"]
        errs = [error] if result is None else []
        if result is not None:
            errs += [f"check {k} failed" for k, ok in result["checks"].items() if not ok]
            recorded = reference.get(workload, {}).get(str(entry["seed"]))
            if entry["seed"] < spec.REFERENCE_SEEDS:
                errs += _reference_errors(result, recorded)
            same_seed = first.setdefault(entry["seed"], result)
            for field in ("history_digest", "values"):
                if result.get(field) != same_seed.get(field):
                    errs.append(f"{field} differs between runs of seed {entry['seed']}")
            if result["traced"]:
                traced = first.setdefault((entry["seed"], "traced"), result)
                if _counts(result) != _counts(traced):
                    errs.append("per-layer counts differ between traced runs")
        failures.append(errs)
    return failures


def _counts(result) -> dict:
    spans, counts = result["spans"], result["counts"]
    return {
        name: _layer_value(kind, key, spans, counts)
        for name, _, kind, key in PER_LAYER
        if kind in ("calls", "count", "edge_yield")
    }


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ginigraph" / "__init__.py").is_file():
        print(f"ginigraph sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2

    started = time.monotonic()
    entries = []

    def launch(seed, traced, measured=True):
        timeout = max(1.0, min(PROCESS_TIMEOUT_S, RUN_DEADLINE_S - (time.monotonic() - started)))
        result, error = run_process(args.workload, seed, traced, timeout)
        entries.append({"seed": seed, "traced": traced, "measured": measured,
                        "result": result, "error": error})
        label = "traced" if traced else "plain"
        status = error or f"setup {result['setup_s']:.3f} s, run {result['run_s']:.3f} s"
        print(f"[{args.workload} seed {seed} {label}] {status}", file=sys.stderr, flush=True)

    pattern = (False, True) if args.trace else (False,)
    while True:
        for traced in pattern:
            launch(args.seed, traced)
        elapsed = time.monotonic() - started
        plain = sum(1 for e in entries if not e["traced"])
        if elapsed >= START_DEADLINE_S or (plain >= MIN_PROCESSES and elapsed >= args.seconds):
            break
    if args.seed >= spec.REFERENCE_SEEDS:
        # the recorded outputs cover seeds below REFERENCE_SEEDS only
        launch(args.seed % spec.REFERENCE_SEEDS, False, measured=False)

    try:
        (ROOT / ".perfbench_tmp").rmdir()
    except OSError:
        pass  # absent, or another run still uses it
    failures = _check(entries, _load_reference(), args.workload)
    for entry, errs in zip(entries, failures):
        for err in errs:
            print(f"FAILED {args.workload} seed {entry['seed']}: {err}", file=sys.stderr)
    # a process whose outputs failed a check still timed its work: its
    # numbers count, and the failure shows in "correct" and "failed"
    measured = [e["result"] for e in entries if e["measured"] and e["result"] is not None]
    plain = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]
    if not plain or (args.trace and not traced):
        print("no process finished; nothing to report", file=sys.stderr)
        return 1

    def median(results, field):
        return statistics.median(r[field] for r in results)

    metrics = {}
    if args.trace:
        for name, unit, kind, key in PER_LAYER:
            if kind == "overhead":
                value = 100.0 * (median(traced, "run_s") / median(plain, "run_s") - 1.0)
            else:
                # counts repeat exactly (checked above); median_low keeps them whole
                pick = statistics.median_low if unit == "count" else statistics.median
                value = pick(_layer_value(kind, key, r["spans"], r["counts"]) for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        missing = sorted({m for r in traced for m in r.get("missing", [])})
        if missing:
            print(f"not traced (absent from the program): {', '.join(missing)}", file=sys.stderr)
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": median(plain, name), "unit": unit}

    attempted = len(entries)
    failed = sum(1 for errs in failures if errs)
    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        **plain[0]["environment"],
        "processes": {"plain": len(plain), "traced": len(traced)},
    }
    print(f"environment {json.dumps(environment)}")
    timed_name = "audit_s" if args.workload == "audit_n5k" else "train_s"
    print(f"{args.workload} seed {args.seed}: run_s is {timed_name}; "
          f"error_rate {failed / attempted:.3f} ({failed}/{attempted})")
    for name, value in sorted(plain[0]["values"].items()):
        print(f"  output {name} = {value!r}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
