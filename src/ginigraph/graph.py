"""Graph container, pairwise similarity sets, and the file formats around them.

A Graph is immutable node data plus an undirected edge list (each edge stored
once as i < j). A SimilaritySet is a sparse symmetric collection of pairwise
weights in (0, 1], also stored once per unordered pair, with the symmetric CSR
matrix and degree vector cached for Laplacian work.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ContractError, DataFormatError, DimensionError, DomainError

Array = np.ndarray
GroupPairs = tuple[tuple[Array, Array, Array], ...]


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------


@dataclass
class Graph:
    """Node features, labels, sensitive attribute, and an undirected edge list.

    labels use -1 for unlabeled nodes; sensitive is a small nonnegative integer
    code per node. Masks are index arrays into the node range and must be
    disjoint.
    """

    edges: Array
    features: Array
    labels: Array
    sensitive: Array
    train_mask: Array = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    val_mask: Array = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    test_mask: Array = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.sensitive = np.asarray(self.sensitive, dtype=np.int64)
        for name in ("train_mask", "val_mask", "test_mask"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        n = self.n
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise DimensionError("features must be (n, d)")
        if not np.all(np.isfinite(self.features)):
            raise DomainError("features must be finite")
        if self.labels.shape != (n,) or self.sensitive.shape != (n,):
            raise DimensionError("labels and sensitive must be length n")
        if self.edges.size:
            if self.edges.min() < 0 or self.edges.max() >= n:
                raise ContractError("edge endpoint out of range")
            if np.any(self.edges[:, 0] >= self.edges[:, 1]):
                raise ContractError("edges must be stored as i < j")
            keys = self.edges[:, 0] * n + self.edges[:, 1]
            if np.unique(keys).size != keys.size:
                raise ContractError("duplicate edges")
        masks = [self.train_mask, self.val_mask, self.test_mask]
        joined = np.concatenate(masks) if any(m.size for m in masks) else np.zeros(0, np.int64)
        if joined.size:
            if joined.min() < 0 or joined.max() >= n:
                raise ContractError("mask index out of range")
            if np.unique(joined).size != joined.size:
                raise ContractError("train/val/test masks overlap")

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency matrix."""
        n = self.n
        if self.num_edges == 0:
            return sp.csr_matrix((n, n))
        i, j = self.edges[:, 0], self.edges[:, 1]
        data = np.ones(2 * self.num_edges)
        return sp.csr_matrix(
            (data, (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n)
        )

    def homophily(self) -> float:
        """Fraction of edges whose two endpoints share a (non-missing) label."""
        if self.num_edges == 0:
            return 0.0
        li = self.labels[self.edges[:, 0]]
        lj = self.labels[self.edges[:, 1]]
        both = (li >= 0) & (lj >= 0)
        if not np.any(both):
            return 0.0
        return float(np.mean(li[both] == lj[both]))


def normalized_adjacency(graph: Graph) -> sp.csr_matrix:
    """Symmetric renormalized adjacency with self-loops: D^-1/2 (A + I) D^-1/2."""
    a_hat = graph.adjacency() + sp.identity(graph.n, format="csr")
    deg = np.asarray(a_hat.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    d = sp.diags(inv_sqrt)
    return (d @ a_hat @ d).tocsr()


def split_nodes(
    graph: Graph, fractions: tuple[float, float, float] = (0.5, 0.25, 0.25), seed: int = 0
) -> tuple[Array, Array, Array]:
    """Shuffle the labeled nodes into train/val/test index arrays."""
    if abs(sum(fractions) - 1.0) > 1e-9 or min(fractions) < 0:
        raise ContractError("fractions must be nonnegative and sum to 1")
    labeled = np.flatnonzero(graph.labels >= 0)
    rng = np.random.default_rng(seed)
    order = rng.permutation(labeled)
    n_train = int(fractions[0] * order.size)
    n_val = int(fractions[1] * order.size)
    return (
        np.sort(order[:n_train]),
        np.sort(order[n_train : n_train + n_val]),
        np.sort(order[n_train + n_val :]),
    )


# ---------------------------------------------------------------------------
# Group partitions
# ---------------------------------------------------------------------------


@dataclass
class GroupPartition:
    """Assignment of every node to one of m groups (group ids 0..m-1)."""

    group_ids: Array

    def __post_init__(self):
        self.group_ids = np.asarray(self.group_ids, dtype=np.int64)
        if self.group_ids.ndim != 1:
            raise DimensionError("group ids must be 1-D")
        if self.group_ids.size == 0:
            raise ContractError("partition over zero nodes")
        if self.group_ids.min() < 0:
            raise ContractError("negative group id")
        # Compact ids so that every group in 0..m-1 is nonempty.
        uniq, compact = np.unique(self.group_ids, return_inverse=True)
        self.group_ids = compact.astype(np.int64)
        self._m = int(uniq.size)

    @property
    def m(self) -> int:
        return self._m

    def members(self, g: int) -> Array:
        if not 0 <= g < self.m:
            raise ContractError(f"group {g} out of range")
        return np.flatnonzero(self.group_ids == g)

    def sizes(self) -> Array:
        return np.bincount(self.group_ids, minlength=self.m)

    def within_pairs(self, similarity: "SimilaritySet") -> GroupPairs:
        """Per group, the stored pairs with both ends in it, as GroupPairs.

        Indices stay global; the pairs keep the stored order, which is that of
        similarity.restrict(members(g)), so sums over them match.
        """
        if self.group_ids.size != similarity.n:
            raise ContractError("partition size must match the similarity set")
        rows, cols, weights = similarity.pair_arrays()
        group = self.group_ids[rows]
        group[group != self.group_ids[cols]] = -1
        return tuple(
            (rows[keep], cols[keep], weights[keep])
            for keep in (group == g for g in range(self.m))
        )

    def restrict(self, index: Array) -> "GroupPartition":
        """Partition of the sub-population index, with empty groups dropped."""
        return GroupPartition(self.group_ids[np.asarray(index, dtype=np.int64)])

    @classmethod
    def from_values(cls, values: Array) -> "GroupPartition":
        """Factorize arbitrary integer codes (e.g. a sensitive column) into groups."""
        values = np.asarray(values)
        _, ids = np.unique(values, return_inverse=True)
        return cls(ids)


# ---------------------------------------------------------------------------
# SimilaritySet
# ---------------------------------------------------------------------------


class SimilaritySet:
    """Sparse symmetric pairwise similarities with weights in (0, 1].

    Each unordered pair is stored once (i < j); the diagonal is never stored.
    The symmetric CSR matrix and the weighted degree vector are precomputed for
    Laplacian products.
    """

    def __init__(self, n: int, rows: Array, cols: Array, weights: Array):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (rows.shape == cols.shape == weights.shape) or rows.ndim != 1:
            raise DimensionError("rows, cols, weights must be 1-D and equal length")
        if n <= 0:
            raise ContractError("n must be positive")
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        if lo.size:
            if lo.min() < 0 or hi.max() >= n:
                raise ContractError("similarity index out of range")
            if np.any(lo == hi):
                raise ContractError("diagonal similarities are not stored")
        if not np.all((weights > 0.0) & (weights <= 1.0)):
            raise DomainError("similarity weights must lie in (0, 1]")
        order = np.lexsort((hi, lo))
        lo, hi, weights = lo[order], hi[order], weights[order]
        if lo.size:
            keys = lo * n + hi
            if np.unique(keys).size != keys.size:
                raise ContractError("duplicate similarity pairs")
        self.n = int(n)
        self.rows = lo
        self.cols = hi
        self.weights = weights
        if lo.size:
            data = np.concatenate([weights, weights])
            self.matrix = sp.csr_matrix(
                (data, (np.concatenate([lo, hi]), np.concatenate([hi, lo]))), shape=(n, n)
            )
        else:
            self.matrix = sp.csr_matrix((n, n))
        self.degree = np.asarray(self.matrix.sum(axis=1)).ravel()

    @property
    def num_pairs(self) -> int:
        return self.rows.size

    def weight(self, i: int, j: int) -> float:
        """Stored similarity between two distinct nodes (0.0 when absent)."""
        if i == j:
            raise ContractError("the diagonal is not part of the set")
        return float(self.matrix[i, j])

    def pair_arrays(self) -> tuple[Array, Array, Array]:
        """(rows, cols, weights) views over the unordered pairs, i < j."""
        return self.rows, self.cols, self.weights

    @classmethod
    def from_dense(cls, dense: Array) -> "SimilaritySet":
        """Build from a symmetric dense matrix, keeping strictly positive i<j entries."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise DimensionError("dense similarity must be square")
        if not np.allclose(dense, dense.T, atol=1e-12):
            raise ContractError("dense similarity must be symmetric")
        i, j = np.triu_indices(dense.shape[0], k=1)
        w = dense[i, j]
        keep = w > 0.0
        return cls(dense.shape[0], i[keep], j[keep], w[keep])

    def to_dense(self) -> Array:
        return self.matrix.toarray()

    def restrict(self, index: Array) -> "SimilaritySet":
        """Sub-similarity over index, reindexed to 0..len(index)-1."""
        index = np.asarray(index, dtype=np.int64)
        sub = self.matrix[index][:, index].tocoo()
        keep = sub.row < sub.col
        return SimilaritySet(index.size, sub.row[keep], sub.col[keep], sub.data[keep])


def laplacian_apply(similarity: SimilaritySet, z: Array) -> Array:
    """(D - S) @ z without materializing the Laplacian."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] != similarity.n:
        raise DimensionError("row count must match the similarity set")
    return similarity.degree[:, None] * z - np.asarray(similarity.matrix @ z)


def pair_distance(similarity: SimilaritySet, i: int, j: int, delta: float = 1e-6) -> float:
    """Similarity-derived distance 1 / (S[i,j] + delta).

    delta may be 0 when the pair has positive stored weight; the combination
    weight + delta == 0 is rejected because the distance would be infinite.
    """
    if not 0.0 <= delta < np.inf:
        raise DomainError("delta must be finite and nonnegative")
    w = similarity.weight(i, j)
    if w + delta == 0.0:
        raise DomainError(f"pair ({i},{j}) has zero similarity and delta is 0")
    return 1.0 / (w + delta)


# ---------------------------------------------------------------------------
# Similarity construction
# ---------------------------------------------------------------------------

DENSE_SIMILARITY_LIMIT = 5000


def _cosine_rows(vectors: Array) -> Array:
    """Row-normalize; all-zero rows stay zero (cosine undefined -> no pairs)."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return vectors / safe


def _topk_union(scores: Array, top_k: int) -> "SimilaritySet":
    """Keep each node's top_k positive scores; a pair survives if either side keeps it.

    Symmetrization by max is a union here because cosine scores are symmetric.
    """
    n = scores.shape[0]
    np.fill_diagonal(scores, 0.0)
    scores[scores <= 0.0] = 0.0
    keep = np.zeros_like(scores, dtype=bool)
    k = min(top_k, n - 1)
    if k > 0:
        idx = np.argpartition(-scores, kth=k - 1, axis=1)[:, :k]
        rows = np.repeat(np.arange(n), k)
        keep[rows, idx.ravel()] = True
    keep &= scores > 0.0
    keep |= keep.T
    i, j = np.nonzero(np.triu(keep, k=1))
    return SimilaritySet(n, i, j, np.minimum(scores[i, j], 1.0))


def topo_similarity(graph: Graph, top_k: int = 100) -> SimilaritySet:
    """Cosine similarity of adjacency rows, sparsified to each node's top_k."""
    if top_k <= 0:
        raise ContractError("top_k must be positive")
    if graph.n > DENSE_SIMILARITY_LIMIT:
        raise ContractError(
            f"dense similarity path supports up to {DENSE_SIMILARITY_LIMIT} nodes"
        )
    rows = _cosine_rows(graph.adjacency().toarray())
    return _topk_union(rows @ rows.T, top_k)


def attr_similarity(
    features: Array, top_k: int = 100, masked_columns: tuple[int, ...] = ()
) -> SimilaritySet:
    """Cosine similarity of feature rows with protected columns zeroed out."""
    if top_k <= 0:
        raise ContractError("top_k must be positive")
    feats = np.asarray(features, dtype=np.float64)
    if feats.shape[0] > DENSE_SIMILARITY_LIMIT:
        raise ContractError(
            f"dense similarity path supports up to {DENSE_SIMILARITY_LIMIT} nodes"
        )
    if masked_columns:
        bad = [c for c in masked_columns if not 0 <= c < feats.shape[1]]
        if bad:
            raise ContractError(f"masked column out of range: {bad}")
        feats = feats.copy()
        feats[:, list(masked_columns)] = 0.0
    rows = _cosine_rows(feats)
    return _topk_union(rows @ rows.T, top_k)


def build_similarity(
    graph: Graph, mode: str, top_k: int, masked_columns: tuple[int, ...] = ()
) -> SimilaritySet:
    """Similarity set by mode: 'topo' (adjacency rows) or 'attr' (feature rows)."""
    if mode == "topo":
        return topo_similarity(graph, top_k)
    if mode == "attr":
        return attr_similarity(graph.features, top_k, tuple(masked_columns))
    raise ConfigError(f"unknown similarity mode {mode!r}")


def edges_from_features(
    features: Array, threshold: float, metric: str = "euclidean"
) -> Array:
    """Edge list (i < j) connecting rows that are close enough.

    euclidean: connect when ||x_i - x_j||_2 <= threshold.
    cosine: connect when cosine similarity >= threshold.
    """
    feats = np.asarray(features, dtype=np.float64)
    n = feats.shape[0]
    if n > DENSE_SIMILARITY_LIMIT:
        raise ContractError("edge construction supports up to 5000 rows")
    if metric == "euclidean":
        sq = np.sum(feats * feats, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * feats @ feats.T, 0.0)
        hit = np.sqrt(d2) <= threshold
    elif metric == "cosine":
        rows = _cosine_rows(feats)
        hit = rows @ rows.T >= threshold
    else:
        raise ContractError(f"unknown metric '{metric}'")
    i, j = np.nonzero(np.triu(hit, k=1))
    return np.column_stack([i, j]).astype(np.int64)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _read_table(
    path, columns: str, n_int: int, open_ended: bool = False
) -> tuple[Array, Array, Array]:
    """Read a CSV of n_int integer columns followed by float columns (maybe none).

    The header names the comma-separated columns (whitespace ignored); an
    open-ended table adds at least one float column of any name after them.
    Blank lines are skipped; every other line must carry all fields, and every
    float must be finite. Returns (integers (rows, n_int), floats, line numbers).
    """
    leading = columns.split(",")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        names = ["".join(name.split()) for name in header.split(",")]
        if names[: len(leading)] != leading or (len(names) > len(leading)) != open_ended:
            want = columns + (",..." if open_ended else "")
            raise DataFormatError(f"{path}:1: header must be {want}, got {header.strip()!r}")
        width = len(names)
        rows: list[str] = []
        lines: list[int] = []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            if line.count(",") != width - 1:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {width} fields, got {line.count(',') + 1}"
                )
            rows.append(line)
            lines.append(lineno)
    # one split over all rows, then one conversion per column
    fields = ",".join(rows).split(",") if rows else []
    try:
        ints = np.array(
            [list(map(int, fields[k::width])) for k in range(n_int)], dtype=np.int64
        ).T
        floats = np.array(
            [list(map(float, fields[k::width])) for k in range(n_int, width)], dtype=np.float64
        ).reshape(width - n_int, len(rows)).T.copy()
    except ValueError as exc:
        bad = next(r for r, line in enumerate(rows) if not _parses(line, n_int))
        raise DataFormatError(f"{path}:{lines[bad]}: malformed field") from exc
    except OverflowError as exc:
        raise DataFormatError(f"{path}: integer field out of range") from exc
    finite = np.isfinite(floats).all(axis=1)
    if not finite.all():
        raise DataFormatError(f"{path}:{lines[np.argmin(finite)]}: non-finite value")
    return ints, floats, np.array(lines, dtype=np.int64)


def _parses(line: str, n_int: int) -> bool:
    parts = line.split(",")
    try:
        list(map(int, parts[:n_int]))
        list(map(float, parts[n_int:]))
    except ValueError:
        return False
    return True


def _write_table(path, header: str, columns, sep: str = ",") -> None:
    """Write a header line, then the columns side by side, one row per line.

    The mirror of _read_table: integer columns are written as decimals and
    float columns at full precision ('.17g'), so reading back gives the same
    values bit for bit.
    """
    cells = []
    for column in map(np.asarray, columns):
        values = column.tolist()
        integer = column.dtype.kind in "iu"
        cells.append(list(map(str, values)) if integer else [f"{v:.17g}" for v in values])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *map(sep.join, zip(*cells))]) + "\n")


def _id_order(path, ids: Array, lines: Array) -> Array:
    """Row order that sorts a table by id; the ids must be 0..n-1, each once."""
    if ids.size == 0:
        raise DataFormatError(f"{path}: no data rows")
    order = np.argsort(ids, kind="stable")
    repeated = np.flatnonzero(ids[order[1:]] == ids[order[:-1]])
    if repeated.size:
        row = order[repeated[0] + 1]
        raise DataFormatError(f"{path}:{lines[row]}: duplicate id {ids[row]}")
    if ids[order[0]] != 0 or ids[order[-1]] != ids.size - 1:
        raise DataFormatError(f"{path}: ids must cover 0..{ids.size - 1} exactly once")
    return order


def read_edge_list(path) -> tuple[Array, int]:
    """Read whitespace-separated 'i j' lines (0-based, '#' comments allowed).

    Duplicate edges and self-loops are dropped with a count returned so callers
    can warn. Returns (edges sorted as i < j, dropped_count).
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy deprecates, rather than rejects, reading "1.5" or "1e3" as an int
        warnings.simplefilter("error", DeprecationWarning)
        try:
            pairs = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8")
        except (ValueError, DeprecationWarning):
            _rescan_edge_list(path)
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64), 0
    if pairs.shape[1] != 2 or pairs.min() < 0:
        _rescan_edge_list(path)
    loops = pairs[:, 0] == pairs[:, 1]
    pairs = np.sort(pairs[~loops], axis=1)
    edges = np.unique(pairs, axis=0)
    return edges, int(loops.sum()) + pairs.shape[0] - edges.shape[0]


def _rescan_edge_list(path) -> NoReturn:
    """Find the first malformed line of an edge list that failed to load, and raise."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataFormatError(f"{path}:{lineno}: expected 'i j', got {raw!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-integer endpoint") from exc
            if a < 0 or b < 0:
                raise DataFormatError(f"{path}:{lineno}: negative node id")
            if max(a, b) > np.iinfo(np.int64).max:
                raise DataFormatError(f"{path}:{lineno}: node id exceeds int64")
    raise DataFormatError(f"{path}: node ids must be plain decimal integers")


def write_edge_list(path, edges: Array) -> None:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    _write_table(path, "# i j (0-based, one undirected edge per line)", edges.T, sep=" ")


def read_feature_table(path) -> tuple[Array, Array, Array]:
    """Read the node table CSV with header id,label,sensitive,f0,...

    Rows must cover ids 0..n-1 exactly once; label is 0/1/-1 (-1 = unlabeled).
    Returns (features, labels, sensitive).
    """
    codes, features, lines = _read_table(path, "id,label,sensitive", 3, open_ended=True)
    labels, sensitive = codes[:, 1], codes[:, 2]
    for bad, message in (
        (~np.isin(labels, (-1, 0, 1)), "label must be -1, 0 or 1"),
        (sensitive < 0, "sensitive code must be >= 0"),
    ):
        if bad.any():
            raise DataFormatError(f"{path}:{lines[np.argmax(bad)]}: {message}")
    order = _id_order(path, codes[:, 0], lines)
    return features[order], labels[order], sensitive[order]


def write_feature_table(path, features: Array, labels: Array, sensitive: Array) -> None:
    features = np.asarray(features, dtype=np.float64)
    codes = [np.asarray(column).astype(np.int64) for column in (labels, sensitive)]
    header = "id,label,sensitive," + ",".join(f"f{k}" for k in range(features.shape[1]))
    _write_table(path, header, [np.arange(features.shape[0]), *codes, *features.T])


def load_graph(edge_path, feature_path) -> tuple[Graph, int]:
    """Load a Graph from an edge list and a node table; returns (graph, dropped_edges)."""
    features, labels, sensitive = read_feature_table(feature_path)
    edges, dropped = read_edge_list(edge_path)
    n = features.shape[0]
    if edges.size and edges.max() >= n:
        raise DataFormatError(
            f"{edge_path}: edge endpoint {int(edges.max())} exceeds node count {n}"
        )
    return Graph(edges=edges, features=features, labels=labels, sensitive=sensitive), dropped


def write_similarity_csv(path, similarity: SimilaritySet) -> None:
    """Write pairs as 'i,j,weight' with i < j, full float64 precision."""
    _write_table(path, "i,j,weight", [similarity.rows, similarity.cols, similarity.weights])


def read_similarity_csv(path, n: int) -> SimilaritySet:
    pairs, weights, _ = _read_table(path, "i,j,weight", 2)
    try:
        return SimilaritySet(n, pairs[:, 0], pairs[:, 1], weights[:, 0])
    except (ContractError, DomainError, DimensionError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def write_embedding_csv(path, values: Array) -> None:
    """Embedding matrix as CSV with header id,e0,...; full float64 precision."""
    values = np.asarray(values, dtype=np.float64)
    header = "id," + ",".join(f"e{k}" for k in range(values.shape[1]))
    _write_table(path, header, [np.arange(values.shape[0]), *values.T])


def read_embedding_csv(path) -> Array:
    ids, values, lines = _read_table(path, "id", 1, open_ended=True)
    return values[_id_order(path, ids[:, 0], lines)]


def read_scores_csv(path) -> Array:
    """Per-node scores as CSV 'id,score'."""
    ids, values, lines = _read_table(path, "id,score", 1)
    return values[_id_order(path, ids[:, 0], lines), 0]


def write_scores_csv(path, scores: Array) -> None:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    _write_table(path, "id,score", [np.arange(scores.size), scores])


def read_partition_csv(path) -> GroupPartition:
    """Group assignment as CSV 'id,group' (integer codes)."""
    codes, _, lines = _read_table(path, "id,group", 2)
    return GroupPartition.from_values(codes[_id_order(path, codes[:, 0], lines), 1])


def write_partition_csv(path, group_ids: Array) -> None:
    group_ids = np.asarray(group_ids, dtype=np.int64)
    _write_table(path, "id,group", [np.arange(group_ids.size), group_ids])


def graph_summary(graph: Graph, dropped_edges: int = 0) -> dict:
    """Small stats dict used by the ingest command."""
    labeled = int(np.sum(graph.labels >= 0))
    return {
        "nodes": graph.n,
        "edges": graph.num_edges,
        "features": int(graph.features.shape[1]),
        "labeled_nodes": labeled,
        "positive_rate": float(np.mean(graph.labels[graph.labels >= 0] == 1))
        if labeled
        else 0.0,
        "sensitive_groups": int(np.unique(graph.sensitive).size),
        "dropped_edges": int(dropped_edges),
        "homophily": graph.homophily(),
    }
