"""Grid sweeps over loss weights, perturbation levels, and widths.

Each grid point is trained `repetitions` times on freshly generated benchmark
graphs (seed = base_seed + repetition). Per-run results land as JSON files in
the output directory; the aggregate table (mean and population std of AUC,
IF, GD, IF-Gini, GD-Gini) covers the runs of this sweep, and an independent
pass over the run artifacts of a fresh directory reproduces it exactly.

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

from .errors import (
    ConfigError,
    DataFormatError,
    GiniGraphError,
    check_field_types,
    is_finite_number,
    known_keys,
)
from .graph import GroupPartition, _write_table, build_similarity, read_json
from .metrics import REPORT_FIELDS, MetricsReport
from .perturb import check_rho, check_sigma, perturb_noise, rewire_homophily
from .synthetic import SbmSpec, sbm_generate
from .trainer import TrainConfig, train, write_training_log

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
        if self.base_seed < 0:
            raise ConfigError("base_seed must be nonnegative")
        if self.similarity_mode not in ("topo", "attr"):
            raise ConfigError("similarity_mode must be topo or attr")
        if not any(getattr(self, axis) for axis in GRID_AXES):
            raise ConfigError("empty grid: set at least one axis")
        for axis in GRID_AXES:
            values = getattr(self, axis)
            if values is not None and len(values) == 0:
                raise ConfigError(f"axis {axis} must be a nonempty list when given")
            if values and len(set(values)) < len(values):
                raise ConfigError(f"axis {axis} repeats a value: {values}")
        self.config.validate()
        for point in self.grid_points():
            _point_config(self, point, self.base_seed).validate()
        for rho in self.rho or ():
            check_rho(rho)
        for sigma in self.sigma or ():
            check_sigma(sigma)
        self.sbm.validate()

    def grid_points(self) -> list[dict]:
        axes = [(axis, getattr(self, axis)) for axis in GRID_AXES if getattr(self, axis)]
        names = [a for a, _ in axes]
        return [dict(zip(names, combo)) for combo in product(*(v for _, v in axes))]

    @classmethod
    def from_json_dict(cls, raw: dict) -> "SweepSpec":
        kwargs = known_keys(raw, cls, "sweep spec")
        if "config" in kwargs:
            kwargs["config"] = TrainConfig.from_json_dict(kwargs["config"])
        if "sbm" in kwargs:
            sbm = known_keys(kwargs["sbm"], SbmSpec, "sbm")
            if isinstance(sbm.get("block_sizes"), list):
                sbm["block_sizes"] = tuple(sbm["block_sizes"])
            kwargs["sbm"] = SbmSpec(**sbm)
        return cls(**kwargs)


def _spell(value) -> str:
    """A grid value in a run name: ':g' when that reads back as the value, else repr.

    repr keeps distinct values apart where ':g' would not (0.1234567 and
    0.1234568 both print as 0.123457).
    """
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def _point_slug(point: dict, rep: int) -> str:
    parts = [f"{k}-{_spell(point[k])}" for k in sorted(point)]
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


@dataclass
class SweepRow:
    """Aggregate for one grid point."""

    point: dict
    n_runs: int
    errors: int
    mean: dict
    std: dict


def run_sweep(spec: SweepSpec, out_dir) -> list[SweepRow]:
    """Execute the whole grid, writing per-run JSON and log files.

    Returns the aggregate of this call's runs only; files that earlier sweeps
    left in out_dir are overwritten when a run has the same name and otherwise
    ignored (aggregate_dir reads them all).

    The runs of one repetition that share rho and sigma run on one generated
    graph, similarity set and partition, and share their pretraining
    wherever train's pretrainings allow it. When that data fails to build,
    each of those runs records the error.
    """
    spec.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records: dict[str, dict] = {}
    groups: dict[tuple, list] = {}
    for point in spec.grid_points():
        for rep in range(spec.repetitions):
            groups.setdefault((point.get("rho"), point.get("sigma"), rep), []).append(point)
    for (_, _, rep), points in groups.items():
        seed = spec.base_seed + rep
        try:
            data = _build_run_data(spec, points[0], seed)
        except GiniGraphError as exc:
            data = exc
        pretrainings: dict = {}
        for point in points:
            slug = _point_slug(point, rep)
            record = {"point": point, "rep": rep, "seed": seed}
            try:
                if isinstance(data, GiniGraphError):
                    raise data
                result = train(*data, _point_config(spec, point, seed), pretrainings)
                record["result"] = result.to_json_dict()
                write_training_log(out / f"{slug}.log.csv", result.history)
            except GiniGraphError as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
            with open(out / f"{slug}.json", "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2)
            records[slug] = record
    # in file-name order, the order aggregate_dir reads a fresh directory in
    return aggregate_records([records[slug] for slug in sorted(records)])


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


def _check_record(record) -> dict:
    """record, once it has the layout run_sweep writes; else DataFormatError.

    The point maps grid axes to numbers; a record without an error holds the
    run's report under result.final_metrics.
    """
    if not isinstance(record, dict) or not isinstance(record.get("point"), dict):
        raise DataFormatError("expected a run record with a 'point' object")
    bad = {
        axis: value
        for axis, value in record["point"].items()
        if axis not in GRID_AXES or not is_finite_number(value)
    }
    if bad:
        raise DataFormatError(f"point must map grid axes to numbers, got {bad}")
    if "error" not in record:
        result = record.get("result")
        if not isinstance(result, dict):
            raise DataFormatError("run record holds neither a 'result' object nor an 'error'")
        MetricsReport.from_json_dict(result.get("final_metrics"))
    return record


def aggregate_dir(out_dir) -> list[SweepRow]:
    """Independent aggregation pass over the run JSONs in a directory."""
    paths = sorted(Path(out_dir).glob("run_*.json"))
    return aggregate_records([read_json(path, _check_record) for path in paths])


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _in_thousands(metrics: dict, thousands: bool) -> dict:
    """metrics with individual_unfairness divided by 1000 when thousands is set."""
    value = metrics.get("individual_unfairness")
    if not thousands or value is None:
        return metrics
    return {**metrics, "individual_unfairness": value / 1000.0}


def _cell(record: dict, keys: tuple, spec: str) -> str:
    """The value at keys in record, formatted with spec; empty when it is None or absent."""
    value = record
    for key in keys:
        value = value.get(key)
    return "" if value is None else format(value, spec)


def _write_records(path, fmt: str, records: list[dict], columns: list[tuple]) -> None:
    """Write records as one JSON list, or as a CSV table with one line per record.

    A CSV column is (header, keys, spec), and its cells are _cell's text.
    """
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
        return
    if fmt != "csv":
        raise ConfigError("format must be csv or json")
    cells = [[_cell(record, keys, spec) for record in records] for _, keys, spec in columns]
    _write_table(path, ",".join(header for header, _, _ in columns), cells)


def write_sweep_table(rows: list[SweepRow], path, fmt: str = "csv", thousands=False) -> None:
    """Emit the aggregate table with a deterministic column order."""
    if not rows:
        raise ConfigError("no rows to report")
    records = [
        {
            "point": row.point,
            "n_runs": row.n_runs,
            "errors": row.errors,
            "mean": _in_thousands({m: row.mean[m] for m in METRIC_KEYS}, thousands),
            "std": _in_thousands({m: row.std[m] for m in METRIC_KEYS}, thousands),
        }
        for row in rows
    ]
    axes = sorted({k for row in rows for k in row.point})
    columns = (
        [(axis, ("point", axis), "") for axis in axes]
        + [("n_runs", ("n_runs",), ""), ("errors", ("errors",), "")]
        + [(f"{stat}_{m}", (stat, m), ".6g") for stat in ("mean", "std") for m in METRIC_KEYS]
    )
    _write_records(path, fmt, records, columns)


def write_metrics_table(
    reports: list[MetricsReport], path, fmt: str = "csv", thousands=False
) -> None:
    """Emit plain metric rows (the audit pathway)."""
    if not reports:
        raise ConfigError("no reports to emit")
    records = [_in_thousands(report.to_json_dict(), thousands) for report in reports]
    _write_records(path, fmt, records, [(name, (name,), ".6g") for name in REPORT_FIELDS])
