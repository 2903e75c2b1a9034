"""Fairness and utility metrics for embedding matrices.

All fairness quantities are driven by a SimilaritySet: only stored pairs
contribute, weighted by their similarity. Conventions:

- individual unfairness (IF) is the similarity-weighted sum of squared
  euclidean gaps over unordered pairs, i.e. the Laplacian quadratic form
  Tr(Z^T L Z); it is reported raw and only divided by 1000 at presentation.
- the embedding Gini normalizes the similarity-weighted L1 gaps by twice the
  population total mass, so it is scale invariant. As ||z_i - z_j||_1 <=
  ||z_i||_1 + ||z_j||_1, it is at most max_i d_i / n for the weighted degrees
  d_i (SimilaritySet.degree): below 1 for weights in [0, 1], and far below it
  on sparse top-k pairs.
- group disparity (GDIF) of two nonnegative statistics is max(a/b, b/a) with
  a tiny floor on both sides; it is >= 1 with equality iff the statistics match.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import pair_trace_values
from .errors import (
    ContractError, DataFormatError, DomainError, NumericalError, check_field_types, check_length,
)
from .graph import GroupPartition, SimilaritySet

Array = np.ndarray

RATIO_FLOOR = 1e-12


def _embedding(similarity: SimilaritySet, z: Array) -> Array:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != similarity.n or not np.isfinite(z).all():
        raise ContractError("embeddings must be finite and (n, c) matching the similarity set")
    return z


def trace_form(similarity: SimilaritySet, z: Array) -> float:
    """Tr(Z^T L Z) = sum over unordered pairs of w * ||z_i - z_j||_2^2.

    The first trace of autodiff.quadratic_pair_forms over the same pairs, bit for bit.
    """
    return pair_trace_values(_embedding(similarity, z), similarity)[0]


def _l1_gaps(z: Array, rows: Array, cols: Array) -> Array:
    """||z[rows_p] - z[cols_p]||_1 for each pair p."""
    return np.sum(np.abs(np.take(z, rows, axis=0) - np.take(z, cols, axis=0)), axis=1)


def _gini(z: Array, rows: Array, cols: Array, w: Array, population: Array) -> float:
    """sum_p w_p ||z[rows_p] - z[cols_p]||_1 / (n sum_i ||population_i||_1).

    The pairs lie inside the population, whose n rows of z carry the mass.
    """
    mass = float(np.sum(np.abs(population)))
    if mass == 0.0:
        raise DomainError("Gini undefined for an all-zero embedding")
    return float(np.sum(w * _l1_gaps(z, rows, cols)) / (population.shape[0] * mass))


def embedding_gini(similarity: SimilaritySet, z: Array) -> float:
    """Similarity-weighted Gini coefficient of pairwise embedding gaps.

    Over ordered pairs: sum_ij S_ij ||z_i - z_j||_1 / (2 n sum_i ||z_i||_1),
    computed from the unordered storage. Scale invariant; 0 iff all connected
    pairs coincide. Raises DomainError when the embedding has no mass.
    """
    z = _embedding(similarity, z)
    return _gini(z, similarity.rows, similarity.cols, similarity.weights, z)


def lipschitz_constant(
    similarity: SimilaritySet, z: Array, delta: float = 1e-6
) -> float:
    """max over stored pairs of ||z_i - z_j||_1 / d_ij with d_ij = 1/(w_ij + delta).

    Equals max w-adjusted L1 gap; 0.0 when the set has no pairs.
    """
    if not 0.0 <= delta < np.inf:
        raise DomainError("delta must be finite and nonnegative")
    gaps = _l1_gaps(_embedding(similarity, z), similarity.rows, similarity.cols)
    if gaps.size == 0:
        return 0.0
    return float(np.max(gaps * (similarity.weights + delta)))


def gdif(a: float, b: float) -> float:
    """Disparity ratio max(a/b, b/a) of two finite nonnegative statistics (floored)."""
    if not (0.0 <= a < np.inf and 0.0 <= b < np.inf):
        raise DomainError("gdif expects finite nonnegative statistics")
    a = max(float(a), RATIO_FLOOR)
    b = max(float(b), RATIO_FLOOR)
    return max(a / b, b / a)


def average_gdif(values) -> float:
    """Mean disparity ratio over ordered group pairs: needs at least 2 groups."""
    values = [float(v) for v in values]
    m = len(values)
    if m < 2:
        raise ContractError("average_gdif needs at least two groups")
    total = 0.0
    for i in range(m):
        for j in range(m):
            if i != j:
                total += gdif(values[i], values[j])
    return total / (m * (m - 1))


def group_traces(similarity: SimilaritySet, z: Array, partition: GroupPartition) -> list[float]:
    """Per-group Laplacian quadratic form over partition.within_pairs.

    Group g's trace sums the pairs partition.pair_selections picks for g, as
    the group traces of autodiff.quadratic_pair_forms do, bit for bit.
    """
    selections = partition.pair_selections(similarity)
    return pair_trace_values(_embedding(similarity, z), similarity, selections)[1:]


def group_ginis(similarity: SimilaritySet, z: Array, partition: GroupPartition) -> list[float]:
    """Per-group embedding Gini over the within-group pairs and the group's mass."""
    z = _embedding(similarity, z)
    pairs = (similarity.rows, similarity.cols, similarity.weights)
    return [
        _gini(z, *(a[keep] for a in pairs), z[partition.members(g)])
        for g, keep in enumerate(partition.pair_selections(similarity))
    ]


# ---------------------------------------------------------------------------
# Utility metrics
# ---------------------------------------------------------------------------


def _average_ranks(y: Array) -> Array:
    """Ranks from 1, ties sharing their mean (a whole or half, so exact)."""
    order = np.argsort(y, kind="stable")
    y = y[order]
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    counts = np.diff(np.r_[starts, y.size])
    ranks = np.empty(y.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2.0, counts)
    return ranks


def rank_auc(scores: Array, labels: Array) -> float:
    """Area under the ROC curve via average ranks; ties count half.

    scores must be finite and labels 0 or 1 (ContractError), and both
    classes present (DomainError).
    """
    scores = check_length(np.ravel(scores), np.size(scores), "scores")
    labels = check_length(np.ravel(labels), scores.size, "labels")
    pos = labels == 1
    neg = labels == 0
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos + n_neg != labels.size:
        raise ContractError("AUC labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise DomainError("AUC needs both classes present")
    ranks = _average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def f1_score(scores: Array, labels: Array, threshold: float = 0.5) -> float:
    """F1 of thresholded scores against binary labels (0.0 when degenerate)."""
    if not np.isfinite(threshold):
        raise DomainError("threshold must be finite")
    scores = check_length(np.ravel(scores), np.size(scores), "scores")
    labels = check_length(np.ravel(labels), scores.size, "labels")
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def equal_opportunity_gap(
    scores: Array, labels: Array, group_ids: Array, threshold: float = 0.5
) -> float | None:
    """Largest true-positive-rate gap between groups, in percentage points.

    Groups without positive examples are skipped with a warning; None when
    fewer than two groups remain.
    """
    if not np.isfinite(threshold):
        raise DomainError("threshold must be finite")
    scores = check_length(np.ravel(scores), np.size(scores), "scores")
    labels = check_length(np.ravel(labels), scores.size, "labels")
    group_ids = check_length(np.ravel(group_ids), scores.size, "group ids")
    rates = []
    for g in np.unique(group_ids):
        mask = (group_ids == g) & (labels == 1)
        if not np.any(mask):
            warnings.warn(f"group {g} has no positives; excluded from EO")
            continue
        rates.append(float(np.mean(scores[mask] >= threshold)))
    if len(rates) < 2:
        warnings.warn("EO undefined: fewer than two groups with positives")
        return None
    return 100.0 * (max(rates) - min(rates))


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------

REPORT_FIELDS = (
    "auc",
    "f1",
    "eo",
    "individual_unfairness",
    "gini",
    "gd_trace",
    "gd_gini",
    "lipschitz",
)


@dataclass
class MetricsReport:
    """One audited embedding: utility, individual fairness, group fairness.

    Utility fields are None when no scores/labels were supplied; group fields
    are None when the partition has fewer than two groups.
    """

    auc: float | None
    f1: float | None
    eo: float | None
    individual_unfairness: float
    gini: float | None
    gd_trace: float | None
    gd_gini: float | None
    lipschitz: float
    group_sizes: tuple[int, ...] = ()
    group_traces: tuple[float, ...] = ()
    group_ginis: tuple[float, ...] = ()
    warnings: tuple[str, ...] = field(default=())

    def to_json_dict(self) -> dict:
        out = {name: getattr(self, name) for name in REPORT_FIELDS}
        out["group_sizes"] = list(self.group_sizes)
        out["group_traces"] = list(self.group_traces)
        out["group_ginis"] = list(self.group_ginis)
        out["warnings"] = list(self.warnings)
        return out

    @classmethod
    def from_json_dict(cls, raw) -> "MetricsReport":
        """The report to_json_dict wrote; DataFormatError when raw is not one.

        Every REPORT_FIELDS key must be present and every field hold its
        annotated type (finite numbers, None where allowed); keys that name
        no field are ignored.
        """
        if not isinstance(raw, dict):
            raise DataFormatError("expected a JSON object")
        missing = [name for name in REPORT_FIELDS if name not in raw]
        if missing:
            raise DataFormatError(f"missing report fields {missing}")
        known = {f.name for f in fields(cls)}
        report = cls(
            **{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items() if k in known}
        )
        check_field_types(report, DataFormatError)
        return report


def _check_finite(**metrics) -> None:
    """Raise NumericalError naming the first metric that finite inputs overflowed."""
    for name, value in metrics.items():
        if value is not None and not np.isfinite(value):
            raise NumericalError(f"{name} is {value}: the inputs overflow it")


def compute_report(
    z: Array,
    similarity: SimilaritySet,
    partition: GroupPartition | None,
    scores: Array | None = None,
    labels: Array | None = None,
    threshold: float = 0.5,
    delta: float = 1e-6,
) -> MetricsReport:
    """Assemble the full audit for one embedding matrix.

    scores, labels and the partition hold one finite entry per row of z;
    labels are 0, 1 or -1 (unlabeled). Utility metrics need both scores and
    labels; given one alone, they are skipped with a note in warnings.
    """
    z = _embedding(similarity, z)
    group_ids = None if partition is None else partition.group_ids
    for what, values in (("scores", scores), ("labels", labels), ("partition", group_ids)):
        if values is not None:
            check_length(values, z.shape[0], what)
    if labels is not None and not np.isin(labels, (-1, 0, 1)).all():
        raise ContractError("labels must be -1 (unlabeled), 0 or 1")
    notes: list[str] = []
    auc = f1 = eo = None
    if (scores is None) != (labels is None):
        given, missing = ("scores", "labels") if labels is None else ("labels", "scores")
        notes.append(f"utility metrics skipped: {given} without {missing}")
    elif scores is not None:
        labeled = np.asarray(labels) >= 0
        s, y = np.asarray(scores)[labeled], np.asarray(labels)[labeled]
        try:
            auc = rank_auc(s, y)
        except DomainError as exc:
            notes.append(str(exc))
        f1 = f1_score(s, y, threshold)
        if partition is not None:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                eo = equal_opportunity_gap(
                    s, y, partition.group_ids[labeled], threshold
                )
            notes.extend(str(c.message) for c in caught)
    if_value = trace_form(similarity, z)
    zero_mass = float(np.sum(np.abs(z))) == 0.0
    if zero_mass:
        gini = None
        notes.append("zero-mass embedding: Gini metrics skipped")
    else:
        gini = embedding_gini(similarity, z)
    lip = lipschitz_constant(similarity, z, delta)
    # before the group ratios, which refuse a non-finite trace
    _check_finite(individual_unfairness=if_value, gini=gini, lipschitz=lip)
    gd_trace = gd_gini = None
    sizes: tuple[int, ...] = ()
    traces: tuple[float, ...] = ()
    ginis: tuple[float, ...] = ()
    if partition is not None and partition.m >= 2:
        traces = tuple(group_traces(similarity, z, partition))
        sizes = tuple(int(s) for s in partition.sizes())
        gd_trace = average_gdif(traces)
        if not zero_mass:
            try:
                ginis = tuple(group_ginis(similarity, z, partition))
                gd_gini = average_gdif(ginis)
            except DomainError as exc:
                notes.append(f"group Gini skipped: {exc}")
    elif partition is not None:
        notes.append("single-group partition: group disparity metrics skipped")
    _check_finite(gd_trace=gd_trace, gd_gini=gd_gini)
    return MetricsReport(
        auc=auc,
        f1=f1,
        eo=eo,
        individual_unfairness=if_value,
        gini=gini,
        gd_trace=gd_trace,
        gd_gini=gd_gini,
        lipschitz=lip,
        group_sizes=sizes,
        group_traces=traces,
        group_ginis=ginis,
        warnings=tuple(notes),
    )
