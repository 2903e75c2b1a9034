"""Graph container, pairwise similarity sets, and the file formats around them.

A Graph is immutable node data plus an undirected edge list (each edge stored
once as i < j). A SimilaritySet is a sparse symmetric collection of pairwise
weights in (0, 1], also stored once per unordered pair, with the symmetric CSR
matrix and degree vector cached for Laplacian work.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConfigError, ContractError, DataFormatError, DimensionError, DomainError, check_index,
    check_length,
)

Array = np.ndarray


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
            if self.adjacency().nnz != 2 * self.num_edges:
                raise ContractError("duplicate edges")
        for name in ("train_mask", "val_mask", "test_mask"):
            setattr(self, name, check_index(getattr(self, name), n, what=name))
        joined = np.concatenate([self.train_mask, self.val_mask, self.test_mask])
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
        return _pair_matrix(self.n, self.edges[:, 0], self.edges[:, 1], np.ones(self.num_edges))

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


def _pair_matrix(n: int, rows: Array, cols: Array, weights: Array) -> sp.csr_matrix:
    """The symmetric n x n CSR of the undirected pairs (rows[p], cols[p]).

    The COO -> CSR conversion sorts the entries and sums repeated pairs, in
    either orientation, into one entry per orientation.
    """
    both = (np.concatenate([rows, cols]), np.concatenate([cols, rows]))
    return sp.csr_matrix((np.concatenate([weights, weights]), both), shape=(n, n))


def normalized_adjacency(adjacency: sp.csr_matrix) -> sp.csr_matrix:
    """Symmetric renormalized adjacency with self-loops: D^-1/2 (A + I) D^-1/2.

    adjacency is a graph's Graph.adjacency(); the result is exactly symmetric.
    """
    a_hat = adjacency + sp.identity(adjacency.shape[0], format="csr")
    deg = np.asarray(a_hat.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    d = sp.diags(inv_sqrt)
    return (d @ a_hat @ d).tocsr()


def split_nodes(graph: Graph, seed: int) -> tuple[Array, Array, Array]:
    """Shuffle the labeled nodes into 50/25/25 train/val/test index arrays."""
    labeled = np.flatnonzero(graph.labels >= 0)
    rng = np.random.default_rng(seed)
    order = rng.permutation(labeled)
    n_train, n_val = order.size // 2, order.size // 4
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

    def pair_selections(self, similarity: "SimilaritySet") -> tuple[Array, ...]:
        """Per group, the indices of the stored pairs with both ends in it, ascending."""
        if self.group_ids.size != similarity.n:
            raise ContractError("partition size must match the similarity set")
        group = self.group_ids[similarity.rows]
        group[group != self.group_ids[similarity.cols]] = -1
        return tuple(np.flatnonzero(group == g) for g in range(self.m))

    def within_pairs(self, similarity: "SimilaritySet") -> "GroupPairs":
        """Per group, the stored pairs with both ends in it (see GroupPairs)."""
        selections = self.pair_selections(similarity)
        s = similarity
        sets = tuple(
            SimilaritySet(s.n, s.rows[keep], s.cols[keep], s.weights[keep]) for keep in selections
        )
        return GroupPairs(similarity, sets, selections)

    def restrict(self, index: Array) -> "GroupPartition":
        """Partition of the sub-population index, with empty groups dropped."""
        return GroupPartition(self.group_ids[check_index(index, self.group_ids.size)])

    @classmethod
    def from_values(cls, values: Array) -> "GroupPartition":
        """Factorize arbitrary finite codes (e.g. a sensitive column) into groups."""
        values = check_length(values, np.size(values), "group values")
        _, ids = np.unique(values, return_inverse=True)
        return cls(ids)


@dataclass(frozen=True)
class GroupPairs:
    """The pairs of one similarity set that fall within each group, built once per run.

    selections[g] indexes group g's pairs among similarity's stored pairs,
    ascending (GroupPartition.pair_selections); sets[g] holds the same pairs
    as a SimilaritySet with the global n and indices, in stored order, which
    is that of similarity.restrict(members(g)), so sums over them match.
    """

    similarity: "SimilaritySet"
    sets: tuple["SimilaritySet", ...]
    selections: tuple[Array, ...]


# ---------------------------------------------------------------------------
# SimilaritySet
# ---------------------------------------------------------------------------


class SimilaritySet:
    """Sparse symmetric pairwise similarities with weights in (0, 1].

    Each unordered pair is stored once (i < j); the diagonal is never stored.
    The pairs may come in any order and either orientation: the constructor
    builds the symmetric CSR matrix once, and the canonical pair order is the
    CSR order of its upper triangle (by i, then j). The matrix and the
    weighted degree vector serve the Laplacian products.
    """

    def __init__(self, n: int, rows: Array, cols: Array, weights: Array):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (rows.shape == cols.shape == weights.shape) or rows.ndim != 1:
            raise DimensionError("rows, cols, weights must be 1-D and equal length")
        if n <= 0:
            raise ContractError("n must be positive")
        if rows.size:
            if min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n:
                raise ContractError("similarity index out of range")
            if np.any(rows == cols):
                raise ContractError("diagonal similarities are not stored")
        if not np.all((weights > 0.0) & (weights <= 1.0)):
            raise DomainError("similarity weights must lie in (0, 1]")
        self.matrix = _pair_matrix(n, rows, cols, weights)
        if self.matrix.nnz != 2 * rows.size:
            raise ContractError("duplicate similarity pairs")
        upper = sp.triu(self.matrix, 1)
        self.n = int(n)
        self.rows = upper.row.astype(np.int64)
        self.cols = upper.col.astype(np.int64)
        self.weights = upper.data
        self.degree = np.asarray(self.matrix.sum(axis=1)).ravel()

    @property
    def num_pairs(self) -> int:
        return self.rows.size

    def restrict(self, index: Array) -> "SimilaritySet":
        """Sub-similarity over index, reindexed to 0..len(index)-1."""
        index = check_index(index, self.n)
        sub = self.matrix[index][:, index].tocoo()
        keep = sub.row < sub.col
        return SimilaritySet(index.size, sub.row[keep], sub.col[keep], sub.data[keep])


def laplacian_apply(similarity: SimilaritySet, z: Array) -> Array:
    """(D - S) @ z without materializing the Laplacian."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] != similarity.n:
        raise DimensionError("row count must match the similarity set")
    return similarity.degree[:, None] * z - np.asarray(similarity.matrix @ z)


# ---------------------------------------------------------------------------
# Similarity construction
# ---------------------------------------------------------------------------

DENSE_SIMILARITY_LIMIT = 5000

# Rows per argpartition call in _cosine_topk. argpartition selects row by row,
# so every block size picks what one call over all n rows picks. A block needs
# one negated and clamped buffer and an index array, 2 * 256 * n * 8 bytes
# (20 MB at the dense limit), allocated beside the n x n score matrix.
_SELECT_ROWS = 256


def _check_dense(n: int, top_k: int) -> None:
    """Refuse a top_k that is no positive integer, and n beyond the dense limit."""
    if isinstance(top_k, bool) or not isinstance(top_k, (int, np.integer)) or top_k <= 0:
        raise ContractError(f"top_k must be a positive integer, got {top_k!r}")
    if n > DENSE_SIMILARITY_LIMIT:
        raise ContractError(
            f"dense similarity path supports up to {DENSE_SIMILARITY_LIMIT} nodes"
        )


def _cosine_topk(vectors: Array, top_k: int) -> SimilaritySet:
    """Cosine similarity of the rows of vectors, kept to each node's top_k.

    vectors is normalised in place (all-zero rows stay zero: cosine undefined,
    no pairs) and released once the n x n score matrix is formed. The scores
    are never written to: each block of rows is negated into one buffer and
    clamped there to -0.0 at nonpositive scores and on the diagonal, so
    argpartition picks each row's top_k by score, and a pick of score 0 is
    dropped. A pair survives if either end picks it, with the picked score as
    its weight; the score matrix is bitwise symmetric, so both ends pick the
    same bits, and the upper triangle of the picks' CSR, symmetrized by max,
    is the union.
    """
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    vectors /= np.where(norms > 0, norms, 1.0)
    scores = vectors @ vectors.T
    del vectors
    n = scores.shape[0]
    k = min(top_k, n - 1)  # n = 1 gives k = 0, kth = -1 (the only column) and no picks
    buf = np.empty((min(_SELECT_ROWS, n), n))
    rows, cols, weights = [], [], []
    for start in range(0, n, _SELECT_ROWS):
        neg = np.negative(scores[start : start + _SELECT_ROWS], out=buf[: n - start])
        np.minimum(neg, -0.0, out=neg)
        np.fill_diagonal(neg[:, start:], -0.0)
        top = np.argpartition(neg, kth=k - 1, axis=1)[:, :k].copy()  # frees the n-wide index array
        picked = -np.take_along_axis(neg, top, axis=1)
        keep = picked > 0.0
        rows.append(np.nonzero(keep)[0] + start)
        cols.append(top[keep])
        weights.append(picked[keep])
    chosen = sp.csr_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    upper = sp.triu(chosen.maximum(chosen.T), 1)
    return SimilaritySet(n, upper.row, upper.col, np.minimum(upper.data, 1.0))


def topo_similarity(graph: Graph, top_k: int = 100) -> SimilaritySet:
    """Cosine similarity of adjacency rows, sparsified to each node's top_k."""
    _check_dense(graph.n, top_k)
    return _cosine_topk(graph.adjacency().toarray(), top_k)


def attr_similarity(
    features: Array, top_k: int = 100, masked_columns: tuple[int, ...] = ()
) -> SimilaritySet:
    """Cosine similarity of feature rows with protected columns zeroed out."""
    feats = np.array(features, dtype=np.float64)  # a copy: the kernel normalises it in place
    _check_dense(feats.shape[0], top_k)
    if not np.all(np.isfinite(feats)):
        raise DomainError("features must be finite")
    bad = [c for c in masked_columns if not 0 <= c < feats.shape[1]]
    if bad:
        raise ContractError(f"masked column out of range: {bad}")
    feats[:, list(masked_columns)] = 0.0
    return _cosine_topk(feats, top_k)


def build_similarity(
    graph: Graph, mode: str, top_k: int, masked_columns: tuple[int, ...] = ()
) -> SimilaritySet:
    """Similarity set by mode: 'topo' (adjacency rows) or 'attr' (feature rows).

    Only attr mode reads features, so masked columns in topo mode are refused.
    """
    if mode == "topo":
        if masked_columns:
            raise ConfigError("masked columns apply to attr mode only, not topo")
        return topo_similarity(graph, top_k)
    if mode == "attr":
        return attr_similarity(graph.features, top_k, tuple(masked_columns))
    raise ConfigError(f"unknown similarity mode {mode!r}")


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


@contextmanager
def open_text(path):
    """path opened for reading as UTF-8; a byte that is not UTF-8 raises DataFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def is_plain_text(text: str) -> bool:
    """True when text is ASCII and holds no '_'.

    int() and float() also read '1_0' and non-ASCII digits such as '\u0662',
    which no number in a file or on the command line may hold.
    """
    return text.isascii() and "_" not in text


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
    with open_text(path) as fh:
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
    text = ",".join(rows)
    if not is_plain_text(text):
        bad = next(r for r, line in enumerate(rows) if not is_plain_text(line))
        raise DataFormatError(f"{path}:{lines[bad]}: malformed field")
    # one split over all rows, then one conversion per column
    fields = text.split(",") if rows else []
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
    values bit for bit. String columns (the report tables' formatted cells)
    are written as they are.
    """
    cells = []
    for column in map(np.asarray, columns):
        values = column.tolist()
        as_text = column.dtype.kind in "iuU"
        cells.append(list(map(str, values)) if as_text else [f"{v:.17g}" for v in values])
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


def read_edge_list(path, n: int) -> tuple[Array, int]:
    """Read whitespace-separated 'i j' lines (0-based, '#' comments allowed).

    Every endpoint must be a node id below n. Duplicate edges and self-loops
    are dropped with a count returned so callers can warn. Returns (edges
    sorted as i < j, dropped_count).
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy deprecates, rather than rejects, reading "1.5" or "1e3" as an int
        warnings.simplefilter("error", DeprecationWarning)
        try:
            pairs = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8")
        except (ValueError, DeprecationWarning):
            _rescan_edge_list(path, n)
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64), 0
    if pairs.shape[1] != 2 or pairs.min() < 0 or pairs.max() >= n:
        _rescan_edge_list(path, n)
    # the upper triangle drops self-loops and merges repeats and reversals
    upper = sp.triu(_pair_matrix(n, pairs[:, 0], pairs[:, 1], np.ones(len(pairs))), 1)
    edges = np.column_stack([upper.row, upper.col]).astype(np.int64)
    return edges, len(pairs) - upper.nnz


def _rescan_edge_list(path, n: int) -> NoReturn:
    """Find the first line of an edge list that is malformed or names an id >= n, and raise."""
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataFormatError(f"{path}:{lineno}: expected 'i j', got {raw!r}")
            if not is_plain_text(line):
                raise DataFormatError(f"{path}:{lineno}: node ids must be plain decimal integers")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-integer endpoint") from exc
            if a < 0 or b < 0:
                raise DataFormatError(f"{path}:{lineno}: negative node id")
            if max(a, b) > np.iinfo(np.int64).max:
                raise DataFormatError(f"{path}:{lineno}: node id exceeds int64")
            if max(a, b) >= n:
                raise DataFormatError(
                    f"{path}:{lineno}: node id {max(a, b)} exceeds the largest id {n - 1}"
                )
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


def _unique_keys(pairs: list) -> dict:
    """The JSON object with these (key, value) pairs; ValueError on a repeated key."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def read_json(path, parse=lambda value: value):
    """parse applied to the JSON value in the file at path.

    A file that is not UTF-8 JSON, nests too deep, repeats a key within an
    object, or that parse rejects with DataFormatError raises DataFormatError
    naming the path.
    """
    with open_text(path) as fh:
        text = fh.read()
    try:
        return parse(json.loads(text, object_pairs_hook=_unique_keys))
    except (ValueError, RecursionError, DataFormatError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def load_graph(edge_path, feature_path) -> tuple[Graph, int]:
    """Load a Graph from an edge list and a node table; returns (graph, dropped_edges)."""
    features, labels, sensitive = read_feature_table(feature_path)
    edges, dropped = read_edge_list(edge_path, features.shape[0])
    return Graph(edges=edges, features=features, labels=labels, sensitive=sensitive), dropped


def write_graph(out_dir, graph: Graph) -> None:
    """Write graph as out_dir/edges.txt and out_dir/features.csv, making out_dir if needed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_edge_list(out / "edges.txt", graph.edges)
    write_feature_table(out / "features.csv", graph.features, graph.labels, graph.sensitive)


def write_similarity_csv(path, similarity: SimilaritySet) -> None:
    """Write pairs as 'i,j,weight' with i < j, full float64 precision."""
    _write_table(path, "i,j,weight", [similarity.rows, similarity.cols, similarity.weights])


def read_similarity_csv(path, n: int) -> SimilaritySet:
    pairs, weights, _ = _read_table(path, "i,j,weight", 2)
    try:
        return SimilaritySet(n, pairs[:, 0], pairs[:, 1], weights[:, 0])
    except ContractError as exc:
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
