"""GNN encoders and the similarity-gated attention layer, on the autodiff tape.

Three interchangeable two-round encoders produce node embeddings of width c:

- gcn: symmetric-normalized propagation, Z = elu(A_hat elu(A_hat X W1) W2)
- gin: sum aggregation with a learned self-weight, each round feeding a
  two-layer perceptron
- jk:  two propagation rounds whose outputs are combined through per-round
  projections (equivalent to concatenation followed by one projection)

On top of any encoder sits a fairness head: a linear transform T = Z W, an
attention score LeakyReLU(a^T [T_i || T_j]) multiplied by the pairwise
similarity inside the softmax, and aggregation of the neighbors' T rows
weighted by those softmax coefficients alpha. The score is computed in GAT's
decomposed form (T a_c)_i + (T a_n)_j, with a = [a_c; a_n], so only one number
per node is gathered onto each edge; the aggregation is one sparse product
A(alpha) T over the fixed (center, neighbor) pattern. The similarity diagonal
is treated as 1.0 for the self-loop term only; it is never stored in the
SimilaritySet itself.

Parameters live in plain dicts of float64 arrays; each training epoch wraps
them as tape leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ContractError, DataFormatError, DimensionError
from .graph import Graph, SimilaritySet, normalized_adjacency

Array = np.ndarray

BACKBONES = ("gcn", "gin", "jk")
LEAKY_SLOPE = 0.2

CHECKPOINT_HEADER = "ginigraph-checkpoint v1"


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Array:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_in, fan_out))


def init_backbone(
    variant: str, in_dim: int, hidden: int, rng: np.random.Generator
) -> dict[str, Array]:
    """Weight dict for one encoder variant; embedding width equals hidden."""
    if variant not in BACKBONES:
        raise ContractError(f"unknown backbone '{variant}' (choose from {BACKBONES})")
    if in_dim < 1 or hidden < 1:
        raise ContractError("dimensions must be positive")
    if variant == "gcn":
        weights = {"W1": _glorot(rng, in_dim, hidden), "W2": _glorot(rng, hidden, hidden)}
    elif variant == "gin":
        weights = {
            "eps1": np.zeros((1, 1)),
            "U1": _glorot(rng, in_dim, hidden),
            "V1": _glorot(rng, hidden, hidden),
            "eps2": np.zeros((1, 1)),
            "U2": _glorot(rng, hidden, hidden),
            "V2": _glorot(rng, hidden, hidden),
        }
    else:
        weights = {
            "W1": _glorot(rng, in_dim, hidden),
            "W2": _glorot(rng, hidden, hidden),
            "P1": _glorot(rng, hidden, hidden),
            "P2": _glorot(rng, hidden, hidden),
        }
    weights["w_out"] = _glorot(rng, hidden, 1)
    weights["b_out"] = np.zeros((1, 1))
    return weights


def init_fair_head(
    hidden: int, rng: np.random.Generator, scale: float = 1.0
) -> dict[str, Array]:
    """Weight dict for the attention head: transform, score vector, readout.

    scale multiplies every weight draw. Values below 1 start the head with
    near-collapsed embeddings, so the pairwise spread seen by the smoothness
    term is earned during training rather than inherited from the init.
    """
    if not scale > 0.0:
        raise ContractError("head init scale must be positive")
    return {
        "W": scale * _glorot(rng, hidden, hidden),
        "a": scale * _glorot(rng, 2 * hidden, 1),
        "w_out": scale * _glorot(rng, hidden, 1),
        "b_out": np.zeros((1, 1)),
    }


def graph_operators(graph: Graph) -> dict[str, sp.csr_matrix]:
    """Sparse propagation matrices shared by every epoch."""
    return {"adj": graph.adjacency(), "norm_adj": normalized_adjacency(graph)}


def backbone_embed(
    variant: str,
    leaves: dict[str, Tensor],
    x: Tensor,
    operators: dict[str, sp.csr_matrix],
) -> Tensor:
    """Run one encoder over feature tensor x, returning (n, hidden) embeddings."""
    if variant == "gcn":
        h1 = ad.elu(ad.spmm(operators["norm_adj"], x) @ leaves["W1"])
        return ad.elu(ad.spmm(operators["norm_adj"], h1) @ leaves["W2"])
    if variant == "gin":
        h = x
        for r in (1, 2):
            mixed = ad.add(
                ad.add(h, ad.broadcast_scale(h, leaves[f"eps{r}"])),
                ad.spmm(operators["adj"], h),
            )
            h = ad.elu(ad.elu(mixed @ leaves[f"U{r}"]) @ leaves[f"V{r}"])
        return h
    if variant == "jk":
        h1 = ad.elu(ad.spmm(operators["norm_adj"], x) @ leaves["W1"])
        h2 = ad.elu(ad.spmm(operators["norm_adj"], h1) @ leaves["W2"])
        return ad.elu(ad.add(h1 @ leaves["P1"], h2 @ leaves["P2"]))
    raise ContractError(f"unknown backbone '{variant}'")


def readout_logits(z: Tensor, leaves: dict[str, Tensor]) -> Tensor:
    """Linear score per node: Z w_out + b_out, shape (n, 1)."""
    return ad.broadcast_add(z @ leaves["w_out"], leaves["b_out"])


# ---------------------------------------------------------------------------
# Fairness head
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttentionEdges:
    """Directed message edges derived from a similarity set, self-loops included.

    centers[e] receives a message from neighbors[e]; sim_values[e] is the pair
    similarity, with 1.0 on the self-loop entries. The edges are stored as an
    EdgePattern, laid out once as CSR for the aggregation product.
    """

    pattern: ad.EdgePattern
    sim_values: Array

    @property
    def centers(self) -> Array:
        return self.pattern.rows

    @property
    def neighbors(self) -> Array:
        return self.pattern.cols

    @property
    def n(self) -> int:
        return self.pattern.shape[0]


def attention_edges(similarity: SimilaritySet) -> AttentionEdges:
    rows, cols, w = similarity.pair_arrays()
    loops = np.arange(similarity.n, dtype=np.int64)
    return AttentionEdges(
        pattern=ad.edge_pattern(
            np.concatenate([rows, cols, loops]),
            np.concatenate([cols, rows, loops]),
            (similarity.n, similarity.n),
        ),
        sim_values=np.concatenate([w, w, np.ones(similarity.n)]),
    )


def fair_head_embed(
    z0: Tensor,
    leaves: dict[str, Tensor],
    edges: AttentionEdges,
    tape: Tape,
    attention: bool = True,
) -> Tensor:
    """Similarity-gated attention round on top of base embeddings.

    With attention on, the score for edge (i <- j) is
    LeakyReLU(a^T [T_i || T_j]) * S_ij, softmax-normalized over i's
    neighborhood into alpha_ij. a^T [T_i || T_j] is evaluated as
    (T a_c)_i + (T a_n)_j: two per-node scores gathered onto the edges.
    With attention off, every neighbor of i receives equal weight alpha_ij.
    The output is elu(sum_j alpha_ij T_j), one sparse product A(alpha) T.
    """
    t = z0 @ leaves["W"]
    hidden = t.shape[1]
    if leaves["a"].shape != (2 * hidden, 1):
        raise DimensionError("score vector must have shape (2*hidden, 1)")
    if attention:
        center_score = t @ ad.slice_rows(leaves["a"], 0, hidden)
        neighbor_score = t @ ad.slice_rows(leaves["a"], hidden, 2 * hidden)
        raw = ad.leaky_relu(
            ad.add(
                ad.gather_rows(center_score, edges.centers),
                ad.gather_rows(neighbor_score, edges.neighbors),
            ),
            LEAKY_SLOPE,
        )
        gated = ad.hadamard(raw, tape.leaf(edges.sim_values[:, None], "sim"))
        alpha = ad.segment_softmax(gated, edges.centers, edges.n)
        return ad.elu(ad.edge_spmm(alpha, t, edges.pattern))
    # constant weights: a plain sparse product, with no edge-weight gradient
    pattern = edges.pattern
    counts = np.bincount(edges.centers, minlength=edges.n).astype(np.float64)
    uniform = sp.csr_matrix(
        ((1.0 / counts[edges.centers])[pattern.order], pattern.indices, pattern.indptr),
        shape=pattern.shape,
    )
    return ad.elu(ad.spmm(uniform, t))


# ---------------------------------------------------------------------------
# Parameter plumbing
# ---------------------------------------------------------------------------


def as_leaves(tape: Tape, weights: dict[str, Array]) -> dict[str, Tensor]:
    return {name: tape.leaf(value, name) for name, value in weights.items()}


def flatten_params(weights: dict[str, Array]) -> tuple[Array, list[tuple[str, tuple[int, int]]]]:
    """Stack all weights into one column vector plus a layout for unflattening."""
    layout = [(name, weights[name].shape) for name in sorted(weights)]
    vec = np.concatenate([weights[name].ravel() for name, _ in layout])
    return vec[:, None], layout


def unflatten_params(
    vec: Array, layout: list[tuple[str, tuple[int, int]]]
) -> dict[str, Array]:
    flat = np.asarray(vec, dtype=np.float64).ravel()
    expected = sum(shape[0] * shape[1] for _, shape in layout)
    if flat.size != expected:
        raise DimensionError("vector length does not match the layout")
    out: dict[str, Array] = {}
    offset = 0
    for name, shape in layout:
        size = shape[0] * shape[1]
        out[name] = flat[offset : offset + size].reshape(shape).copy()
        offset += size
    return out


@dataclass
class ModelParams:
    """Trained weights: encoder variant, encoder dict, fairness head dict."""

    variant: str
    backbone: dict[str, Array]
    fair: dict[str, Array] = field(default_factory=dict)

    @property
    def hidden(self) -> int:
        return self.backbone["w_out"].shape[0]


# ---------------------------------------------------------------------------
# Checkpoints (versioned, human-readable)
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: ModelParams) -> None:
    """Write weights as a text checkpoint with a versioned header line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CHECKPOINT_HEADER + "\n")
        fh.write(f"variant {params.variant}\n")
        for section, weights in (("backbone", params.backbone), ("fair", params.fair)):
            fh.write(f"section {section} {len(weights)}\n")
            for name in sorted(weights):
                mat = np.asarray(weights[name], dtype=np.float64)
                fh.write(f"matrix {name} {mat.shape[0]} {mat.shape[1]}\n")
                for row in mat:
                    fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_checkpoint(path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CHECKPOINT_HEADER:
            raise DataFormatError(
                f"{path}: unsupported checkpoint header {header!r} "
                f"(expected {CHECKPOINT_HEADER!r})"
            )
        variant_line = fh.readline().split()
        if len(variant_line) != 2 or variant_line[0] != "variant":
            raise DataFormatError(f"{path}: missing variant line")
        variant = variant_line[1]
        sections: dict[str, dict[str, Array]] = {}
        for _ in range(2):
            head = fh.readline().split()
            if len(head) != 3 or head[0] != "section":
                raise DataFormatError(f"{path}: malformed section header")
            name, count = head[1], int(head[2])
            weights: dict[str, Array] = {}
            for _ in range(count):
                mhead = fh.readline().split()
                if len(mhead) != 4 or mhead[0] != "matrix":
                    raise DataFormatError(f"{path}: malformed matrix header")
                mname, rows, cols = mhead[1], int(mhead[2]), int(mhead[3])
                data = np.array(
                    [[float(v) for v in fh.readline().split()] for _ in range(rows)]
                )
                if data.shape != (rows, cols):
                    raise DataFormatError(f"{path}: matrix {mname} shape mismatch")
                weights[mname] = data
            sections[name] = weights
    if "backbone" not in sections:
        raise DataFormatError(f"{path}: missing backbone section")
    return ModelParams(
        variant=variant, backbone=sections["backbone"], fair=sections.get("fair", {})
    )
