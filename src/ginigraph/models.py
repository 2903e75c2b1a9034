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
weighted by those softmax coefficients alpha. The head's one operator is the
CSR of S + I (attention_edges), 1.0 on the diagonal for the self-loop term
only; the SimilaritySet never stores it. The score is computed in GAT's
decomposed form (T a_c)_i + (T a_n)_j, with a = [a_c; a_n], so only one number
per node is gathered onto each entry; the aggregation is one sparse product
A(alpha) T on that CSR pattern, alpha in CSR order.

Parameters live in plain dicts of float64 arrays; each training epoch wraps
them as tape leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

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


def _backbone_layout(variant: str, in_dim: int, hidden: int) -> dict[str, tuple[int, int]]:
    """Weight names and shapes of one encoder variant, in draw order."""
    if variant not in BACKBONES:
        raise ContractError(f"unknown backbone '{variant}' (choose from {BACKBONES})")
    if in_dim < 1 or hidden < 1:
        raise ContractError("dimensions must be positive")
    h = hidden
    if variant == "gcn":
        layout = {"W1": (in_dim, h), "W2": (h, h)}
    elif variant == "gin":
        layout = {
            "eps1": (1, 1), "U1": (in_dim, h), "V1": (h, h),
            "eps2": (1, 1), "U2": (h, h), "V2": (h, h),
        }
    else:
        layout = {"W1": (in_dim, h), "W2": (h, h), "P1": (h, h), "P2": (h, h)}
    return {**layout, "w_out": (h, 1), "b_out": (1, 1)}


def init_backbone(
    variant: str, in_dim: int, hidden: int, rng: np.random.Generator
) -> dict[str, Array]:
    """Weight dict for one encoder variant; embedding width equals hidden.

    The GIN self-weights eps and the bias b_out start at zero, every other
    matrix at a Glorot draw.
    """
    return {
        name: np.zeros(shape) if name in ("eps1", "eps2", "b_out") else _glorot(rng, *shape)
        for name, shape in _backbone_layout(variant, in_dim, hidden).items()
    }


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


def attention_edges(similarity: SimilaritySet) -> sp.csr_matrix:
    """The message pattern S + I as canonical CSR, built once per run.

    Row i lists i's neighbours and i itself, columns ascending; data holds the
    pair similarities, with 1.0 on the diagonal.
    """
    return similarity.matrix + sp.identity(similarity.n, format="csr")


def fair_head_embed(
    z0: Tensor,
    leaves: dict[str, Tensor],
    edges: sp.csr_matrix,
    tape: Tape,
    attention: bool = True,
) -> Tensor:
    """Similarity-gated attention round on top of base embeddings.

    edges is the attention_edges CSR: entry p is the message i <- j with i
    the row of p, j = indices[p] and S_ij = data[p]. With attention on, its
    score is LeakyReLU(a^T [T_i || T_j]) * S_ij, softmax-normalized over i's
    row into alpha_ij. a^T [T_i || T_j] is evaluated as (T a_c)_i + (T a_n)_j:
    two per-node scores gathered onto the entries. With attention off, every
    entry of row i receives equal weight alpha_ij. The output is
    elu(sum_j alpha_ij T_j), one sparse product A(alpha) T on the same pattern.
    """
    t = z0 @ leaves["W"]
    hidden = t.shape[1]
    if leaves["a"].shape != (2 * hidden, 1):
        raise DimensionError("score vector must have shape (2*hidden, 1)")
    n = edges.shape[0]
    counts = np.diff(edges.indptr)
    centers = np.repeat(np.arange(n), counts)
    if attention:
        center_score = t @ ad.slice_rows(leaves["a"], 0, hidden)
        neighbor_score = t @ ad.slice_rows(leaves["a"], hidden, 2 * hidden)
        raw = ad.leaky_relu(
            ad.add(
                ad.gather_rows(center_score, centers),
                ad.gather_rows(neighbor_score, edges.indices),
            ),
            LEAKY_SLOPE,
        )
        gated = ad.hadamard(raw, tape.leaf(edges.data[:, None], "sim", constant=True))
        alpha = ad.segment_softmax(gated, centers, n)
        return ad.elu(ad.edge_spmm(alpha, t, edges))
    # constant weights: a plain sparse product, with no edge-weight gradient
    uniform = sp.csr_matrix(
        ((1.0 / counts)[centers], edges.indices, edges.indptr), shape=edges.shape
    )
    return ad.elu(ad.spmm(uniform, t))


# ---------------------------------------------------------------------------
# Parameter plumbing
# ---------------------------------------------------------------------------


def as_leaves(tape: Tape, weights: dict[str, Array]) -> dict[str, Tensor]:
    return {name: tape.leaf(value, name) for name, value in weights.items()}


@dataclass
class ModelParams:
    """Trained weights: encoder variant, encoder dict, fairness head dict."""

    variant: str
    backbone: dict[str, Array]
    fair: dict[str, Array] = field(default_factory=dict)


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
    """Read a save_checkpoint file; a malformed one raises DataFormatError with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_checkpoint(fh)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _parse_checkpoint(fh) -> ModelParams:
    """The checkpoint lines; raises ValueError on anything malformed."""
    header = fh.readline().rstrip("\n")
    if header != CHECKPOINT_HEADER:
        raise ValueError(
            f"unsupported checkpoint header {header!r} (expected {CHECKPOINT_HEADER!r})"
        )
    variant_line = fh.readline().split()
    if len(variant_line) != 2 or variant_line[0] != "variant":
        raise ValueError("missing variant line")
    variant = variant_line[1]
    if variant not in BACKBONES:
        raise ValueError(f"unknown variant {variant!r} (choose from {BACKBONES})")
    sections: dict[str, dict[str, Array]] = {}
    for section in ("backbone", "fair"):
        head = fh.readline().split()
        if len(head) != 3 or head[:2] != ["section", section]:
            raise ValueError(f"malformed {section} section header")
        weights: dict[str, Array] = {}
        for _ in range(int(head[2])):
            mhead = fh.readline().split()
            if len(mhead) != 4 or mhead[0] != "matrix":
                raise ValueError("malformed matrix header")
            mname, rows, cols = mhead[1], int(mhead[2]), int(mhead[3])
            # islice stops at the end of the file, however many rows the header claims
            data = [[float(v) for v in line.split()] for line in islice(fh, rows)]
            if cols < 0 or len(data) != rows or any(len(row) != cols for row in data):
                raise ValueError(f"matrix {mname} shape mismatch")
            weights[mname] = np.array(data, dtype=np.float64).reshape(rows, cols)
            if not np.all(np.isfinite(weights[mname])):
                raise ValueError(f"matrix {mname} has non-finite values")
        sections[section] = weights
    params = ModelParams(variant=variant, backbone=sections["backbone"], fair=sections["fair"])
    _check_layout(params)
    return params


def _check_layout(params: ModelParams) -> None:
    """Raise ValueError unless the matrices have the layout of a fresh model.

    The names and shapes must be those init_backbone and init_fair_head give
    for the input width of the first layer and the hidden width of w_out; the
    fair section may be empty.
    """
    first = params.backbone.get("U1" if params.variant == "gin" else "W1")
    out = params.backbone.get("w_out")
    if first is None or out is None or min(first.shape[0], out.shape[0]) < 1:
        raise ValueError(f"backbone lacks the {params.variant} input or output layer")
    in_dim, hidden = first.shape[0], out.shape[0]
    _match_layout("backbone", params.backbone, _backbone_layout(params.variant, in_dim, hidden))
    if params.fair:
        # the backbone matched, so hidden x hidden weights exist: this draw is bounded
        head = init_fair_head(hidden, np.random.default_rng(0))
        _match_layout("fair", params.fair, {name: m.shape for name, m in head.items()})


def _match_layout(section: str, weights: dict[str, Array], expected: dict) -> None:
    shapes = {name: m.shape for name, m in sorted(weights.items())}
    if shapes != expected:
        raise ValueError(
            f"{section} matrices {shapes} do not match the layout {dict(sorted(expected.items()))}"
        )
