"""Two-stage training: utility pretraining, then the balanced fairness stage.

Stage 1 trains an encoder plus linear readout on binary cross-entropy alone.
Stage 2 freezes the encoder output Z, trains the attention head on the
three-term objective

    total = beta1 * utility + beta2 * smoothness + beta3 * group welfare,

where smoothness, the one individual term, is the Laplacian trace
Tr(Z^T L Z) over the similarity pairs. The betas are either fixed or driven
by the GradNorm controller, full batch, one adaptive-moment optimizer step per
epoch. Early stopping watches the validation AUC with a patience window; the
parameters returned are those of the final epoch (fairness terms keep
improving after utility plateaus, so no rewind to the best-utility
checkpoint).

The controller needs each term's gradient norm on the head's shared transform
W, so under GradNorm an epoch runs one backward sweep per term and steps on
sum_i beta_i g_i from those sweeps, which by linearity is the gradient of the
total; with fixed betas one sweep of the total suffices.

What does not change between epochs is built once per run: the backbone's
graph operators and their train-row cut (stage 1: the utility loss reads
only the train rows, so the second propagation fills no other), the frozen
Z, the attention plan and the within-group pairs with their selections among
the stored pairs (stage 2, which never runs the encoder). The IF and group
traces come from one pass over the pairs per epoch.

Every run is deterministic given (config, graph, similarity): randomness only
enters through seeded weight initialization.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, fields, replace
from operator import attrgetter

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .errors import ConfigError, ContractError, DomainError, check_field_types, known_keys
from .gradnorm import GradNormController
from .graph import Graph, GroupPartition, SimilaritySet, _write_table, split_nodes
from .losses import combine_losses, group_welfare_loss, utility_loss
from .metrics import MetricsReport, average_gdif, compute_report, rank_auc
from .models import (
    BACKBONES,
    ModelParams,
    as_leaves,
    attention_edges,
    backbone_embed,
    fair_head_embed,
    graph_operators,
    init_backbone,
    init_fair_head,
    readout_logits,
    train_row_operators,
)

Array = np.ndarray

@dataclass
class TrainConfig:
    """Everything a run needs beyond the data itself.

    beta2/beta3 are the fixed weights when gradnorm is off and the initial
    weights when it is on; setting one to 0 removes that term entirely (the
    ablation switches). beta1 is pinned to 1 as the utility anchor.

    head_scale multiplies the head's initial weight draw; see init_fair_head.

    surrogate ("none": the trace is the individual term) and gradnorm_scope
    ("shared": GradNorm's norms are on W) each take one value; they stay so
    that configs which spell them out keep loading.
    """

    backbone: str = "gcn"
    hidden: int = 16
    pretrain_epochs: int = 200
    max_epochs: int = 1000
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    patience: int = 100
    seed: int = 0
    top_k: int = 100
    gradnorm: bool = True
    beta2: float = 1.0
    beta3: float = 1.0
    beta_lr: float = 0.025
    gradnorm_scope: str = "shared"
    surrogate: str = "none"
    attention: bool = True
    head_scale: float = 1.0

    def validate(self) -> None:
        check_field_types(self, ConfigError)
        if self.backbone not in BACKBONES:
            raise ConfigError(f"backbone must be one of {BACKBONES}")
        if self.surrogate != "none":
            raise ConfigError(f"surrogate must be 'none', got {self.surrogate!r}")
        if self.gradnorm_scope != "shared":
            raise ConfigError(f"gradnorm_scope must be 'shared', got {self.gradnorm_scope!r}")
        for name in ("hidden", "max_epochs", "patience", "top_k", "learning_rate",
                     "beta_lr", "head_scale"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("pretrain_epochs", "seed", "weight_decay", "beta2", "beta3"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, raw) -> "TrainConfig":
        """The config a JSON object of TrainConfig fields sets; ConfigError when raw is not one.

        Absent fields keep their defaults; every given field must hold its
        annotated type. The value ranges are left to validate(), which runs
        once any overrides are applied.
        """
        config = cls(**known_keys(raw, cls, "config"))
        check_field_types(config, ConfigError)
        return config


@dataclass(frozen=True)
class EpochRecord:
    """One training-log row; the fields, in order, are the log columns."""

    epoch: int
    l1: float
    l2: float
    l3: float
    beta1: float
    beta2: float
    beta3: float
    val_auc: float
    if_value: float
    gd: float


LOG_COLUMNS = tuple(f.name for f in fields(EpochRecord))


@dataclass
class RunResult:
    config: TrainConfig
    params: ModelParams
    report: MetricsReport
    history: list[EpochRecord]
    embeddings: Array
    scores: Array
    epochs_run: int
    stop_reason: str
    pretrain_epochs_run: int
    wall_seconds: float

    def to_json_dict(self) -> dict:
        last = self.history[-1] if self.history else None
        return {
            "config": self.config.as_dict(),
            "seed": self.config.seed,
            "epochs_run": self.epochs_run,
            "stop_reason": self.stop_reason,
            "pretrain_epochs_run": self.pretrain_epochs_run,
            "final_betas": [last.beta1, last.beta2, last.beta3] if last else [],
            "final_metrics": self.report.to_json_dict(),
            "wall_seconds": self.wall_seconds,
        }


def write_training_log(path, history: list[EpochRecord]) -> None:
    """Full-precision CSV so identical runs produce bitwise-identical files."""
    _write_table(path, ",".join(LOG_COLUMNS), zip(*map(attrgetter(*LOG_COLUMNS), history)))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamState:
    """Adaptive-moment optimizer with decoupled weight decay, stepping its weights in place."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, weights: dict[str, Array], lr: float, weight_decay: float):
        self.weights, self.lr, self.weight_decay = weights, lr, weight_decay
        self.m = {k: np.zeros_like(v) for k, v in weights.items()}
        self.v = {k: np.zeros_like(v) for k, v in weights.items()}
        self.t = 0

    def step(self, grads: dict[str, Array | None]) -> None:
        weights, lr, weight_decay = self.weights, self.lr, self.weight_decay
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name in sorted(weights):
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(weights[name])
            if g.shape != weights[name].shape:
                raise ContractError(f"gradient shape mismatch for '{name}'")
            if weight_decay:
                weights[name] -= lr * weight_decay * weights[name]
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * (g * g)
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            weights[name] -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# Stage 1: utility pretraining
# ---------------------------------------------------------------------------


def _ensure_masks(graph: Graph, seed: int) -> Graph:
    """Fill in a 50/25/25 labeled split when the graph carries no masks."""
    if graph.train_mask.size:
        return graph
    train, val, test = split_nodes(graph, seed)
    return replace(graph, train_mask=train, val_mask=val, test_mask=test)


# the TrainConfig fields that pretrain reads (beyond validating the config)
_PRETRAIN_FIELDS = attrgetter(
    "backbone", "hidden", "pretrain_epochs", "learning_rate", "weight_decay", "seed"
)


def pretrain(graph: Graph, config: TrainConfig) -> tuple[dict[str, Array], Array]:
    """Train the encoder on utility loss only; returns (weights, embeddings).

    The backbone's graph_operators, with the first propagation of the
    features, are built once. The epochs run on their train_row_operators
    cut to the train mask, with gradients bitwise equal; the closing pass
    embeds every row on the full operators.
    """
    config.validate()
    graph = _ensure_masks(graph, config.seed)
    if graph.train_mask.size == 0:
        raise ContractError("pretraining needs a nonempty train mask")
    rng = np.random.default_rng(config.seed)
    weights = init_backbone(config.backbone, graph.features.shape[1], config.hidden, rng)
    operators = graph_operators(graph, config.backbone)
    # the loss reads only the train rows, so the second round propagates into no other
    train_rows = train_row_operators(operators, graph.train_mask)
    adam = AdamState(weights, config.learning_rate, config.weight_decay)
    for _ in range(config.pretrain_epochs):
        tape = Tape()
        leaves = as_leaves(tape, weights)
        z = backbone_embed(config.backbone, leaves, train_rows)
        logits = readout_logits(z, leaves)
        tape.backward(utility_loss(logits, graph.labels, graph.train_mask))
        adam.step({k: leaves[k].grad for k in weights})
        tape.release()
    tape = Tape()
    z = backbone_embed(config.backbone, as_leaves(tape, weights), operators)
    tape.release()
    return weights, z.values.copy()


# ---------------------------------------------------------------------------
# Stage 2: balanced fairness training
# ---------------------------------------------------------------------------


def _probe_sweeps(terms: list, leaves: dict) -> tuple[list[dict[str, Array | None]], Array]:
    """One backward sweep per loss term: each sweep's leaf gradients and norm."""
    grads, norms = [], []
    for term in terms:
        term.tape.backward(term)
        grads.append({name: leaf.grad for name, leaf in leaves.items()})
        g = leaves["W"].grad  # GradNorm's G_i: the norm on the shared transform W
        norms.append(0.0 if g is None else float(np.linalg.norm(g)))
    return grads, np.array(norms)


def _weighted_gradient(
    grads: list[dict[str, Array | None]], betas
) -> dict[str, Array | None]:
    """sum_i beta_i g_i per parameter, the gradient of the weighted total.

    A None gradient (the term does not reach that parameter) counts as 0; a
    parameter no term reaches stays None.
    """
    total: dict[str, Array | None] = {}
    for name in grads[0]:
        acc = None
        for term_grads, beta in zip(grads, betas):
            g = term_grads[name]
            if g is not None:
                acc = float(beta) * g if acc is None else acc + float(beta) * g
        total[name] = acc
    return total


def _head_forward(
    tape: Tape, weights: dict[str, Array], z0: Array, plan: ad.AttentionPlan, attention: bool
) -> tuple[dict, ad.Tensor, ad.Tensor]:
    """The head's weights as leaves on tape, its embeddings of z0 and their logits."""
    leaves = as_leaves(tape, weights)
    h = fair_head_embed(tape.leaf(z0, "z0", constant=True), leaves, plan, attention)
    return leaves, h, readout_logits(h, leaves)


def _val_auc(scores: Array, labels: Array, index: Array) -> float:
    labeled = index[labels[index] >= 0]
    try:  # rank_auc raises DomainError when a class is missing, also on no nodes
        return rank_auc(scores[labeled], labels[labeled])
    except DomainError:
        return float("nan")


def train(
    graph: Graph,
    similarity: SimilaritySet,
    partition: GroupPartition | None,
    config: TrainConfig,
    pretrainings: dict | None = None,
) -> RunResult:
    """Full two-stage run; see the module docstring for the schedule.

    pretrainings is a dict the caller keeps for a group of runs: runs on one
    graph object whose configs agree in each field pretrain reads share the
    stage-1 run the first of them fills in. wall_seconds, the time of this
    call, counts a pretraining the call ran, not one it reused. The closing
    forward pass is the epochs' head forward, on the final head weights.
    """
    started = time.monotonic()
    config.validate()
    callers_graph, graph = graph, _ensure_masks(graph, config.seed)
    if similarity.n != graph.n:
        raise ContractError("similarity set does not match the graph")
    if partition is not None and partition.group_ids.size != graph.n:
        raise ContractError("partition size does not match the graph")

    pretrainings = {} if pretrainings is None else pretrainings
    key = (id(callers_graph), *_PRETRAIN_FIELDS(config))
    if key not in pretrainings:
        # the entry holds the caller's graph, so no other graph takes its id while the cache lives
        pretrainings[key] = callers_graph, pretrain(graph, config)
    weights, z0 = pretrainings[key][1]
    backbone_weights = {name: w.copy() for name, w in weights.items()}
    rng = np.random.default_rng(config.seed + 1)
    fair_weights = init_fair_head(config.hidden, rng, scale=config.head_scale)
    plan = attention_edges(similarity)

    groups = None
    if partition is not None and partition.m >= 2:
        groups = partition.within_pairs(similarity)
    betas = np.array([1.0, config.beta2, config.beta3])
    if betas[2] > 0 and groups is None:
        warnings.warn("group welfare term disabled: fewer than two groups")
        betas[2] = 0.0
    active = np.flatnonzero(betas > 0)
    controller = None
    if config.gradnorm and active.size >= 2:
        controller = GradNormController(betas[active], beta_lr=config.beta_lr)
        betas[active] = controller.betas

    adam = AdamState(fair_weights, config.learning_rate, config.weight_decay)
    history: list[EpochRecord] = []
    best_auc = -np.inf
    stale = 0
    stop_reason = "max_epochs"

    for epoch in range(config.max_epochs):
        tape = Tape()
        leaves, h, logits = _head_forward(tape, fair_weights, z0, plan, config.attention)

        terms = [utility_loss(logits, graph.labels, graph.train_mask)]
        # the smoothness trace and the group traces are on the tape every
        # epoch for the log, from one pass over the pairs; only the loss terms
        # that use them backpropagate
        smoothness, *group_traces = ad.quadratic_pair_forms(h, similarity, groups)
        if 1 in active:
            terms.append(smoothness)
        if 2 in active:
            terms.append(group_welfare_loss(group_traces))

        losses = np.zeros(3)
        losses[active] = [float(t.values[0, 0]) for t in terms]
        if controller is not None:
            # by linearity the probe sweeps already hold the total's gradient
            term_grads, norms = _probe_sweeps(terms, leaves)
            betas[active] = controller.step(losses[active], norms)
            grads = _weighted_gradient(term_grads, betas[active])
        else:
            tape.backward(combine_losses(terms, betas[active]))
            grads = {k: leaves[k].grad for k in fair_weights}
        adam.step(grads)

        val_auc = _val_auc(ad.sigmoid_values(logits.values[:, 0]), graph.labels, graph.val_mask)
        # both traces are trace_form's, bit for bit (the group ones unfloored)
        if_value = float(smoothness.values[0, 0])
        gd = average_gdif([t.values[0, 0] for t in group_traces]) if group_traces else float("nan")
        tape.release()
        history.append(
            EpochRecord(epoch, *map(float, losses), *map(float, betas), val_auc, if_value, gd)
        )

        if np.isfinite(val_auc):
            if val_auc > best_auc + 1e-12:
                best_auc = val_auc
                stale = 0
            else:
                stale += 1
            if stale >= config.patience:
                stop_reason = "patience"
                break

    params = ModelParams(config.backbone, backbone_weights, fair_weights, config.attention)
    tape = Tape()
    _, h, logits = _head_forward(tape, fair_weights, z0, plan, config.attention)
    tape.release()
    embeddings, scores = h.values.copy(), ad.sigmoid_values(logits.values[:, 0])
    return RunResult(
        config=config,
        params=params,
        report=evaluate(embeddings, scores, graph, similarity, partition),
        history=history,
        embeddings=embeddings,
        scores=scores,
        epochs_run=len(history),
        stop_reason=stop_reason,
        pretrain_epochs_run=config.pretrain_epochs,
        wall_seconds=time.monotonic() - started,
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def embed(
    params: ModelParams, graph: Graph, similarity: SimilaritySet | None = None
) -> tuple[Array, Array]:
    """Forward pass on a tape released at the end: returns (embeddings, sigmoid scores).

    The forward pass of a loaded checkpoint: the fairness head, when params
    has one, runs with params.attention on attention_edges(similarity).
    """
    if params.fair and similarity is None:
        raise ContractError("fair head requires a similarity set")
    tape = Tape()
    leaves = as_leaves(tape, params.backbone)
    h = backbone_embed(params.variant, leaves, graph_operators(graph, params.variant))
    if params.fair:
        leaves = as_leaves(tape, params.fair)
        h = fair_head_embed(h, leaves, attention_edges(similarity), params.attention)
    logits = readout_logits(h, leaves)
    tape.release()
    return h.values.copy(), ad.sigmoid_values(logits.values[:, 0])


def evaluate(
    h: Array,
    scores: Array,
    graph: Graph,
    similarity: SimilaritySet,
    partition: GroupPartition | None,
) -> MetricsReport:
    """Audit embeddings and scores (as from embed) on the test mask, or all nodes.

    The report uses compute_report's default threshold and delta.
    """
    index = graph.test_mask if graph.test_mask.size else np.arange(graph.n)
    return compute_report(
        h[index],
        similarity.restrict(index),
        partition.restrict(index) if partition is not None else None,
        scores=scores[index],
        labels=graph.labels[index],
    )
