"""Grid sweeps over loss weights, perturbation levels, and widths.

Each grid point is trained `repetitions` times on freshly generated benchmark
graphs (seed = base_seed + repetition). Per-run results land as JSON files in
the output directory; the aggregate table (mean and population std of AUC,
IF, GD, IF-Gini, GD-Gini) is recomputed from those files, so an independent
pass over the run artifacts reproduces the table exactly.

Grid axes: beta2, beta3 (loss weights), rho (homophily rewiring), sigma
(feature noise), hidden (encoder width). rho/sigma perturb the generated
graph before the similarity set is rebuilt in the configured mode.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .errors import ConfigError, GiniGraphError, check_field_types
from .graph import GroupPartition, build_similarity
from .metrics import REPORT_FIELDS, MetricsReport
from .perturb import perturb_noise, rewire_homophily
from .synthetic import SbmSpec, sbm_generate
from .trainer import RunResult, TrainConfig, train, write_training_log

GRID_AXES = ("beta2", "beta3", "rho", "sigma", "hidden")
METRIC_KEYS = ("auc", "individual_unfairness", "gd_trace", "gini", "gd_gini")


@dataclass
class SweepSpec:
    """Grid definition plus the shared base config and data generator."""

    beta2: list[float] | None = None
    beta3: list[float] | None = None
    rho: list[float] | None = None
    sigma: list[float] | None = None
    hidden: list[int] | None = None
    repetitions: int = 1
    base_seed: int = 0
    similarity_mode: str = "topo"
    config: TrainConfig = field(default_factory=TrainConfig)
    sbm: SbmSpec = field(default_factory=SbmSpec)

    def validate(self) -> None:
        check_field_types(self, ConfigError)
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.similarity_mode not in ("topo", "attr"):
            raise ConfigError("similarity_mode must be topo or attr")
        if not any(getattr(self, axis) for axis in GRID_AXES):
            raise ConfigError("empty grid: set at least one axis")
        for axis in GRID_AXES:
            values = getattr(self, axis)
            if values is not None and len(values) == 0:
                raise ConfigError(f"axis {axis} must be a nonempty list when given")
        self.config.validate()
        self.sbm.validate()

    def grid_points(self) -> list[dict]:
        axes = [(axis, getattr(self, axis)) for axis in GRID_AXES if getattr(self, axis)]
        names = [a for a, _ in axes]
        return [dict(zip(names, combo)) for combo in product(*(v for _, v in axes))]

    @classmethod
    def from_json_dict(cls, raw: dict) -> "SweepSpec":
        kwargs = _known_keys(raw, cls, "sweep spec")
        if "config" in kwargs:
            kwargs["config"] = TrainConfig(**_known_keys(kwargs["config"], TrainConfig, "config"))
        if "sbm" in kwargs:
            sbm = _known_keys(kwargs["sbm"], SbmSpec, "sbm")
            if isinstance(sbm.get("block_sizes"), list):
                sbm["block_sizes"] = tuple(sbm["block_sizes"])
            kwargs["sbm"] = SbmSpec(**sbm)
        return cls(**kwargs)


def _known_keys(raw, settings, what: str) -> dict:
    """A copy of the JSON object raw, whose keys must be fields of settings."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object, got {raw!r}")
    unknown = set(raw) - {f.name for f in dataclasses.fields(settings)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return dict(raw)


def _point_slug(point: dict, rep: int) -> str:
    parts = [f"{k}-{point[k]:g}" for k in sorted(point)]
    return "run_" + "_".join(parts + [f"rep{rep}"])


def _build_run_data(spec: SweepSpec, point: dict, seed: int):
    graph = sbm_generate(spec.sbm, seed)
    if "rho" in point:
        graph = rewire_homophily(graph, float(point["rho"]), seed).graph
    if "sigma" in point:
        noised = perturb_noise(graph.features, float(point["sigma"]), seed)
        graph = dataclasses.replace(graph, features=noised)
    similarity = build_similarity(graph, spec.similarity_mode, spec.config.top_k)
    partition = GroupPartition.from_values(graph.sensitive)
    return graph, similarity, partition


def _point_config(spec: SweepSpec, point: dict, seed: int) -> TrainConfig:
    overrides = {k: point[k] for k in ("beta2", "beta3", "hidden") if k in point}
    return dataclasses.replace(spec.config, seed=seed, **overrides)


def run_single(spec: SweepSpec, point: dict, rep: int) -> RunResult:
    """One grid cell, one repetition; the unit the sweep loops over."""
    seed = spec.base_seed + rep
    graph, similarity, partition = _build_run_data(spec, point, seed)
    return train(graph, similarity, partition, _point_config(spec, point, seed))


@dataclass
class SweepRow:
    """Aggregate for one grid point."""

    point: dict
    n_runs: int
    errors: int
    mean: dict
    std: dict


def run_sweep(spec: SweepSpec, out_dir) -> list[SweepRow]:
    """Execute the whole grid, writing per-run JSON and log files."""
    spec.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for point in spec.grid_points():
        for rep in range(spec.repetitions):
            slug = _point_slug(point, rep)
            record = {"point": point, "rep": rep, "seed": spec.base_seed + rep}
            try:
                result = run_single(spec, point, rep)
                record["result"] = result.to_json_dict()
                write_training_log(out / f"{slug}.log.csv", result.history)
            except GiniGraphError as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
            with open(out / f"{slug}.json", "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2)
    return aggregate_dir(out)


def aggregate_records(records: list[dict]) -> list[SweepRow]:
    """Group per-run records by grid point and average the headline metrics."""
    buckets: dict[tuple, dict] = {}
    for record in records:
        key = tuple(sorted(record["point"].items()))
        bucket = buckets.setdefault(key, {"point": record["point"], "runs": [], "errors": 0})
        if "error" in record:
            bucket["errors"] += 1
        else:
            bucket["runs"].append(record["result"]["final_metrics"])
    rows = []
    for key in sorted(buckets):
        bucket = buckets[key]
        mean: dict = {}
        std: dict = {}
        for metric in METRIC_KEYS:
            values = [
                m[metric] for m in bucket["runs"] if m.get(metric) is not None
            ]
            if values:
                arr = np.asarray(values, dtype=np.float64)
                mean[metric] = float(arr.mean())
                std[metric] = float(arr.std())
            else:
                mean[metric] = None
                std[metric] = None
        rows.append(
            SweepRow(
                point=bucket["point"],
                n_runs=len(bucket["runs"]),
                errors=bucket["errors"],
                mean=mean,
                std=std,
            )
        )
    return rows


def aggregate_dir(out_dir) -> list[SweepRow]:
    """Independent aggregation pass over the run JSONs in a directory."""
    records = []
    for path in sorted(Path(out_dir).glob("run_*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            records.append(json.load(fh))
    return aggregate_records(records)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _present(value, metric: str, thousands: bool):
    if value is None:
        return None
    if thousands and metric == "individual_unfairness":
        return value / 1000.0
    return value


def write_sweep_table(rows: list[SweepRow], path, fmt: str = "csv", thousands=False) -> None:
    """Emit the aggregate table with a deterministic column order."""
    if not rows:
        raise ConfigError("no rows to report")
    axes = sorted({k for row in rows for k in row.point})
    if fmt == "json":
        payload = [
            {
                "point": row.point,
                "n_runs": row.n_runs,
                "errors": row.errors,
                "mean": {m: _present(row.mean[m], m, thousands) for m in METRIC_KEYS},
                "std": {m: _present(row.std[m], m, thousands) for m in METRIC_KEYS},
            }
            for row in rows
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        return
    if fmt != "csv":
        raise ConfigError("format must be csv or json")
    header = (
        axes
        + ["n_runs", "errors"]
        + [f"mean_{m}" for m in METRIC_KEYS]
        + [f"std_{m}" for m in METRIC_KEYS]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [f"{row.point.get(a, '')}" for a in axes]
            cells += [str(row.n_runs), str(row.errors)]
            for source in (row.mean, row.std):
                for m in METRIC_KEYS:
                    v = _present(source[m], m, thousands)
                    cells.append("" if v is None else f"{v:.6g}")
            fh.write(",".join(cells) + "\n")


def write_metrics_table(
    reports: list[MetricsReport], path, fmt: str = "csv", thousands=False
) -> None:
    """Emit plain metric rows (the audit pathway)."""
    if not reports:
        raise ConfigError("no reports to emit")
    if fmt == "json":
        payload = []
        for report in reports:
            d = report.to_json_dict()
            d["individual_unfairness"] = _present(
                d["individual_unfairness"], "individual_unfairness", thousands
            )
            payload.append(d)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        return
    if fmt != "csv":
        raise ConfigError("format must be csv or json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(REPORT_FIELDS) + "\n")
        for report in reports:
            fh.write(",".join(report.to_csv_row(thousands)) + "\n")
