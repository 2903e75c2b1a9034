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

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ContractError, DataFormatError, DimensionError, is_finite_number
from .graph import Graph, SimilaritySet, normalized_adjacency, read_json

Array = np.ndarray

BACKBONES = ("gcn", "gin", "jk")
LEAKY_SLOPE = 0.2

CHECKPOINT_FORMAT = "ginigraph-checkpoint v2"


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


def _head_layout(hidden: int) -> dict[str, tuple[int, int]]:
    """Weight names and shapes of the attention head, in draw order."""
    h = hidden
    return {"W": (h, h), "a": (2 * h, 1), "w_out": (h, 1), "b_out": (1, 1)}


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
        name: np.zeros(shape) if name == "b_out" else scale * _glorot(rng, *shape)
        for name, shape in _head_layout(hidden).items()
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

    @classmethod
    def from_json_dict(cls, raw) -> "ModelParams":
        """The weights save_checkpoint wrote; DataFormatError when raw is not that.

        Each section maps names to matrices, lists of equal-length rows of
        finite numbers, in the layout _check_layout asks for.
        """
        if not isinstance(raw, dict) or raw.get("format") != CHECKPOINT_FORMAT:
            raise DataFormatError(f"not a {CHECKPOINT_FORMAT!r} object")
        keys = sorted(raw)
        if keys != ["backbone", "fair", "format", "variant"]:
            raise DataFormatError(f"expected keys backbone, fair, format, variant; got {keys}")
        if raw["variant"] not in BACKBONES:
            raise DataFormatError(f"unknown variant {raw['variant']!r} (choose from {BACKBONES})")
        sections = {}
        for section in ("backbone", "fair"):
            if not isinstance(raw[section], dict):
                raise DataFormatError(f"{section} must be an object of matrices")
            sections[section] = {name: _matrix(name, rows) for name, rows in raw[section].items()}
        params = cls(raw["variant"], **sections)
        _check_layout(params)
        return params


# ---------------------------------------------------------------------------
# Checkpoints (versioned JSON)
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: ModelParams) -> None:
    """Write weights as a JSON checkpoint; floats print as repr, so a reload is exact."""
    sections = {
        section: {name: np.asarray(weights[name], np.float64).tolist() for name in sorted(weights)}
        for section, weights in (("backbone", params.backbone), ("fair", params.fair))
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": CHECKPOINT_FORMAT, "variant": params.variant, **sections}, fh)


def load_checkpoint(path) -> ModelParams:
    """Read a save_checkpoint file; a malformed one raises DataFormatError with the path."""
    return read_json(path, ModelParams.from_json_dict)


def _matrix(name: str, rows) -> Array:
    """rows, a JSON list of equal-length lists of finite numbers, as a float64 matrix."""
    if not (
        isinstance(rows, list)
        and all(isinstance(row, list) for row in rows)
        and len({len(row) for row in rows}) == 1
        and all(is_finite_number(v) for row in rows for v in row)
    ):
        raise DataFormatError(f"matrix {name} is not a list of equal-length rows of finite numbers")
    return np.array(rows, dtype=np.float64)


def _check_layout(params: ModelParams) -> None:
    """Raise DataFormatError unless the matrices have the layout of a fresh model.

    The names and shapes must be those of _backbone_layout and _head_layout
    for the input width of the first layer and the hidden width of w_out; the
    fair section may be empty.
    """
    first = params.backbone.get("U1" if params.variant == "gin" else "W1")
    out = params.backbone.get("w_out")
    if first is None or out is None or min(first.shape[0], out.shape[0]) < 1:
        raise DataFormatError(f"backbone lacks the {params.variant} input or output layer")
    in_dim, hidden = first.shape[0], out.shape[0]
    _match_layout("backbone", params.backbone, _backbone_layout(params.variant, in_dim, hidden))
    if params.fair:
        _match_layout("fair", params.fair, _head_layout(hidden))


def _match_layout(section: str, weights: dict[str, Array], expected: dict) -> None:
    shapes = {name: m.shape for name, m in sorted(weights.items())}
    if shapes != expected:
        raise DataFormatError(
            f"{section} matrices {shapes} do not match the layout {dict(sorted(expected.items()))}"
        )
