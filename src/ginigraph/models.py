"""GNN encoders and the similarity-gated attention layer, on the autodiff tape.

Three interchangeable two-round encoders produce node embeddings of width c:

- gcn: symmetric-normalized propagation, Z = elu(A_hat elu(A_hat X W1) W2)
- gin: sum aggregation with a learned self-weight, each round feeding a
  two-layer perceptron
- jk:  two propagation rounds whose outputs are combined through per-round
  projections (equivalent to concatenation followed by one projection)

Each encoder propagates by one operator, prop: A_hat for gcn and jk, A for
gin. The first propagation of the constant features, prop X, is a per-run
constant of graph_operators, computed once as SGC does.

On top of any encoder sits a fairness head: a linear transform T = Z W, an
attention score LeakyReLU(a^T [T_i || T_j]) multiplied by the pairwise
similarity inside the softmax, and aggregation of the neighbors' T rows
weighted by those softmax coefficients alpha. The head runs on a plan built
once per run (attention_edges): the CSR of S + I, 1.0 on the diagonal for
the self-loop term only (the SimilaritySet never stores it), with the index
arrays and selection matrices derived from it. Scores, softmax and the
aggregation A(alpha) T are one fused tape op, autodiff.attention_aggregate.

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
from .errors import ContractError, DataFormatError, is_finite_number
from .graph import Graph, SimilaritySet, normalized_adjacency, read_json

Array = np.ndarray

BACKBONES = ("gcn", "gin", "jk")

CHECKPOINT_FORMAT = "ginigraph-checkpoint v3"


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


def graph_operators(graph: Graph, variant: str) -> dict[str, Array | sp.csr_matrix]:
    """The per-run constants of one encoder variant, built once from the adjacency.

    features is the graph's X; prop is the operator the variant propagates
    by, A for gin and A_hat for gcn and jk; prop_x is X's first propagation,
    prop X. They are all that backbone_embed reads of the graph, so the first
    round never multiplies on the tape. train_row_operators cuts prop, the
    second round's, to the rows a loss reads.
    """
    prop = graph.adjacency()
    if variant != "gin":
        prop = normalized_adjacency(prop)
    return {"features": graph.features, "prop": prop, "prop_x": prop @ graph.features}


def train_row_operators(
    operators: dict[str, Array | sp.csr_matrix], rows: Array
) -> dict[str, Array | sp.csr_matrix]:
    """operators with prop cut to the given rows, for a loss that reads only those.

    Each kept row holds the source row's entries in their order, every other
    row is empty, and the shape stays n x n. backbone_embed on the result
    gives the full operators' embeddings in the given rows; in the others
    the second propagation is 0 (gin's second round sees its self term
    alone). A loss on the given rows sends +-0 cotangents into those rows in
    every sweep, and the products they enter add +-0 to sums that start at
    +0, so every gradient is bitwise the full operators' one.
    """
    prop = operators["prop"]
    keep = np.zeros(prop.shape[0], dtype=bool)
    keep[rows] = True
    counts = np.diff(prop.indptr)
    entries = np.repeat(keep, counts)
    indptr = np.zeros_like(prop.indptr)
    np.cumsum(counts * keep, out=indptr[1:])
    cut = sp.csr_matrix((prop.data[entries], prop.indices[entries], indptr), shape=prop.shape)
    return {**operators, "prop": cut}


def backbone_embed(
    variant: str,
    leaves: dict[str, Tensor],
    operators: dict[str, Array | sp.csr_matrix],
) -> Tensor:
    """Run one encoder over a graph, returning (n, hidden) embeddings.

    operators are the graph's graph_operators for this variant, or their
    train_row_operators cut, the encoder's only input: the features (gin)
    and their first propagation prop_x enter the leaves' tape as constant
    leaves, and prop propagates the second round on the tape.
    """
    tape = leaves["w_out"].tape
    prop, prop_x = operators["prop"], tape.leaf(operators["prop_x"], constant=True)
    if variant == "gin":
        h = tape.leaf(operators["features"], constant=True)
        for r in (1, 2):
            own = ad.add(h, ad.broadcast_scale(h, leaves[f"eps{r}"]))
            neighbours = prop_x if r == 1 else ad.spmm(prop, h)
            h = ad.elu(ad.elu(ad.add(own, neighbours) @ leaves[f"U{r}"]) @ leaves[f"V{r}"])
        return h
    if variant in ("gcn", "jk"):
        h1 = ad.elu(prop_x @ leaves["W1"])
        h2 = ad.elu(ad.spmm(prop, h1) @ leaves["W2"])
        return h2 if variant == "gcn" else ad.elu(ad.add(h1 @ leaves["P1"], h2 @ leaves["P2"]))
    raise ContractError(f"unknown backbone '{variant}'")


def readout_logits(z: Tensor, leaves: dict[str, Tensor]) -> Tensor:
    """Linear score per node: Z w_out + b_out, shape (n, 1)."""
    return ad.broadcast_add(z @ leaves["w_out"], leaves["b_out"])


# ---------------------------------------------------------------------------
# Fairness head
# ---------------------------------------------------------------------------


def attention_edges(similarity: SimilaritySet) -> ad.AttentionPlan:
    """The head's plan over the message pattern S + I, built once per run.

    The pattern's CSR (plan.edges) lists in row i i's neighbours and i
    itself, columns ascending; its data holds the pair similarities, with
    1.0 on the diagonal.
    """
    return ad.AttentionPlan(similarity.matrix + sp.identity(similarity.n, format="csr"))


def fair_head_embed(
    z0: Tensor, leaves: dict[str, Tensor], edges: ad.AttentionPlan, attention: bool = True
) -> Tensor:
    """Similarity-gated attention round on top of base embeddings.

    edges is the attention_edges plan. With attention on, the message i <- j
    of each pattern entry scores LeakyReLU(a^T [T_i || T_j]) * S_ij (slope
    autodiff.LEAKY_SLOPE), and a softmax over i's row turns the scores into
    alpha_ij (autodiff.attention_aggregate). With attention off, every entry
    of row i receives equal weight alpha_ij. The output is
    elu(sum_j alpha_ij T_j), with T = z0 W.
    """
    t = z0 @ leaves["W"]
    if attention:
        return ad.elu(ad.attention_aggregate(t, leaves["a"], edges))
    # constant weights: a plain sparse product, with no score gradient
    return ad.elu(ad.spmm(edges.uniform, t))


# ---------------------------------------------------------------------------
# Parameter plumbing
# ---------------------------------------------------------------------------


def as_leaves(tape: Tape, weights: dict[str, Array]) -> dict[str, Tensor]:
    return {name: tape.leaf(value, name) for name, value in weights.items()}


@dataclass
class ModelParams:
    """Trained weights: encoder variant, encoder dict, fairness head dict.

    attention tells whether the fairness head scores its messages
    (fair_head_embed's attention flag); it is part of the trained model.
    Construction checks the matrices' layout (_check_layout) and raises
    ContractError naming the first matrix that is missing, extra or misshapen.
    """

    variant: str
    backbone: dict[str, Array]
    fair: dict[str, Array] = field(default_factory=dict)
    attention: bool = True

    def __post_init__(self):
        _check_layout(self)

    @classmethod
    def from_json_dict(cls, raw) -> "ModelParams":
        """The weights save_checkpoint wrote; DataFormatError when raw is not that.

        Each section maps names to matrices, lists of equal-length rows of
        finite numbers, in the layout _check_layout asks for.
        """
        if not isinstance(raw, dict) or raw.get("format") != CHECKPOINT_FORMAT:
            raise DataFormatError(f"not a {CHECKPOINT_FORMAT!r} object")
        keys = sorted(raw)
        if keys != ["attention", "backbone", "fair", "format", "variant"]:
            raise DataFormatError(
                f"expected keys attention, backbone, fair, format, variant; got {keys}"
            )
        if not isinstance(raw["attention"], bool):
            raise DataFormatError(f"attention must be true or false, got {raw['attention']!r}")
        sections = {}
        for section in ("backbone", "fair"):
            if not isinstance(raw[section], dict):
                raise DataFormatError(f"{section} must be an object of matrices")
            sections[section] = {name: _matrix(name, rows) for name, rows in raw[section].items()}
        try:
            return cls(raw["variant"], **sections, attention=raw["attention"])
        except ContractError as exc:
            raise DataFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Checkpoints (versioned JSON)
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: ModelParams) -> None:
    """Write weights as a JSON checkpoint; floats print as repr, so a reload is exact.

    params may have changed since construction, so the layout is checked
    first (ContractError): no file load_checkpoint would refuse is written.
    """
    _check_layout(params)
    sections = {
        section: {name: np.asarray(weights[name], np.float64).tolist() for name in sorted(weights)}
        for section, weights in (("backbone", params.backbone), ("fair", params.fair))
    }
    header = {"format": CHECKPOINT_FORMAT, "variant": params.variant, "attention": params.attention}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**header, **sections}, fh)


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
    """Raise ContractError unless the matrices have the layout of a fresh model.

    The names and shapes must be those of _backbone_layout and _head_layout
    for the input width of the first layer and the hidden width of w_out; the
    fair section may be empty.
    """
    if params.variant not in BACKBONES:
        raise ContractError(f"unknown backbone {params.variant!r} (choose from {BACKBONES})")
    widths = []
    for name in ("U1" if params.variant == "gin" else "W1", "w_out"):
        shape = np.shape(params.backbone.get(name))
        if len(shape) != 2 or shape[0] < 1:
            raise ContractError(f"backbone matrix {name} is missing or not a matrix with rows")
        widths.append(shape[0])
    in_dim, hidden = widths
    _match_layout("backbone", params.backbone, _backbone_layout(params.variant, in_dim, hidden))
    if params.fair:
        _match_layout("fair", params.fair, _head_layout(hidden))


def _match_layout(section: str, weights: dict[str, Array], expected: dict) -> None:
    for name in sorted(set(weights) | set(expected)):
        if name not in expected:
            raise ContractError(f"{section} matrix {name} is not in the layout {sorted(expected)}")
        if name not in weights:
            raise ContractError(f"{section} matrix {name} is missing")
        if np.shape(weights[name]) != expected[name]:
            raise ContractError(
                f"{section} matrix {name} has shape {np.shape(weights[name])}, "
                f"the layout asks for {expected[name]}"
            )
