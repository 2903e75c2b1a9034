"""Two-stage training: utility pretraining, then the balanced fairness stage.

Stage 1 trains an encoder plus linear readout on binary cross-entropy alone.
Stage 2 freezes the encoder output Z, trains the attention head on the
three-term objective

    total = beta1 * utility + beta2 * smoothness + beta3 * group welfare,

with the betas either fixed or driven by the GradNorm controller, full batch,
one adaptive-moment optimizer step per epoch. Early stopping watches the
validation AUC with a patience window; the parameters returned are those of
the final epoch (fairness terms keep improving after utility plateaus, so no
rewind to the best-utility checkpoint).

The controller needs each term's gradient norm, so under GradNorm an epoch
runs one backward sweep per term and steps on sum_i beta_i g_i from those
sweeps, which by linearity is the gradient of the total; with fixed betas one
sweep of the total suffices.

Every run is deterministic given (config, graph, similarity): randomness only
enters through seeded weight initialization.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .errors import ConfigError, ContractError, DomainError
from .gradnorm import GradNormController
from .graph import Graph, GroupPartition, SimilaritySet, split_nodes
from .losses import (
    GroupContext,
    combine_losses,
    group_context,
    group_welfare_loss,
    smoothness_loss,
    surrogate_loss,
    utility_loss,
)
from .metrics import MetricsReport, average_gdif, compute_report, rank_auc, trace_form
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
)

Array = np.ndarray

SURROGATES = ("none", "softmax", "topk")
GRADNORM_SCOPES = ("shared", "all")


@dataclass
class TrainConfig:
    """Everything a run needs beyond the data itself.

    beta2/beta3 are the fixed weights when gradnorm is off and the initial
    weights when it is on; setting one to 0 removes that term entirely (the
    ablation switches). beta1 is pinned to 1 as the utility anchor.

    head_scale multiplies the head's initial weight draw; see init_fair_head.
    """

    backbone: str = "gcn"
    hidden: int = 16
    pretrain_epochs: int = 200
    max_epochs: int = 1000
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    patience: int = 100
    seed: int = 0
    delta: float = 1e-6
    top_k: int = 100
    gradnorm: bool = True
    beta2: float = 1.0
    beta3: float = 1.0
    beta_lr: float = 0.025
    gradnorm_scope: str = "shared"
    surrogate: str = "none"
    temperature: float = 1.0
    topk_fraction: float = 0.05
    attention: bool = True
    head_scale: float = 1.0
    eo_threshold: float = 0.5

    def validate(self) -> None:
        if self.backbone not in BACKBONES:
            raise ConfigError(f"backbone must be one of {BACKBONES}")
        if self.surrogate not in SURROGATES:
            raise ConfigError(f"surrogate must be one of {SURROGATES}")
        if self.gradnorm_scope not in GRADNORM_SCOPES:
            raise ConfigError(f"gradnorm_scope must be one of {GRADNORM_SCOPES}")
        for name in ("hidden", "max_epochs", "patience", "top_k"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.pretrain_epochs < 0:
            raise ConfigError("pretrain_epochs must be nonnegative")
        if self.learning_rate <= 0 or self.beta_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if self.weight_decay < 0 or self.delta < 0:
            raise ConfigError("weight_decay and delta must be nonnegative")
        if self.beta2 < 0 or self.beta3 < 0:
            raise ConfigError("beta2 and beta3 must be nonnegative")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if not 0 < self.topk_fraction <= 1:
            raise ConfigError("topk_fraction must be in (0, 1]")
        if self.head_scale <= 0:
            raise ConfigError("head_scale must be positive")

    def as_dict(self) -> dict:
        return asdict(self)


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
    epochs_run: int
    pretrain_epochs_run: int
    wall_seconds: float

    def to_json_dict(self) -> dict:
        last = self.history[-1] if self.history else None
        return {
            "config": self.config.as_dict(),
            "seed": self.config.seed,
            "epochs_run": self.epochs_run,
            "pretrain_epochs_run": self.pretrain_epochs_run,
            "final_betas": [last.beta1, last.beta2, last.beta3] if last else [],
            "final_metrics": self.report.to_json_dict(),
            "wall_seconds": self.wall_seconds,
        }


def write_training_log(path, history: list[EpochRecord]) -> None:
    """Full-precision CSV so identical runs produce bitwise-identical files."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(LOG_COLUMNS) + "\n")
        for row in history:
            values = [str(row.epoch)] + [
                f"{getattr(row, name):.17g}" for name in LOG_COLUMNS[1:]
            ]
            fh.write(",".join(values) + "\n")


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamState:
    """Adaptive-moment optimizer with decoupled weight decay, in-place."""

    def __init__(self, weights: dict[str, Array], beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = {k: np.zeros_like(v) for k, v in weights.items()}
        self.v = {k: np.zeros_like(v) for k, v in weights.items()}
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0

    def step(
        self,
        weights: dict[str, Array],
        grads: dict[str, Array | None],
        lr: float,
        weight_decay: float,
    ) -> None:
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
    train, val, test = split_nodes(graph, (0.5, 0.25, 0.25), seed)
    return replace(graph, train_mask=train, val_mask=val, test_mask=test)


def pretrain(graph: Graph, config: TrainConfig) -> tuple[dict[str, Array], Array]:
    """Train the encoder on utility loss only; returns (weights, embeddings)."""
    config.validate()
    graph = _ensure_masks(graph, config.seed)
    if graph.train_mask.size == 0:
        raise ContractError("pretraining needs a nonempty train mask")
    rng = np.random.default_rng(config.seed)
    weights = init_backbone(config.backbone, graph.features.shape[1], config.hidden, rng)
    operators = graph_operators(graph)
    adam = AdamState(weights)
    for _ in range(config.pretrain_epochs):
        tape = Tape()
        leaves = as_leaves(tape, weights)
        x = tape.leaf(graph.features, "x")
        z = backbone_embed(config.backbone, leaves, x, operators)
        logits = readout_logits(z, leaves)
        loss = utility_loss(logits, graph.labels, graph.train_mask, tape)
        tape.backward(loss)
        adam.step(
            weights,
            {k: leaves[k].grad for k in weights},
            config.learning_rate,
            config.weight_decay,
        )
        tape.release()
    quiet = Tape(tracing=False)
    z = backbone_embed(
        config.backbone, as_leaves(quiet, weights), quiet.leaf(graph.features), operators
    )
    return weights, z.values.copy()


# ---------------------------------------------------------------------------
# Stage 2: balanced fairness training
# ---------------------------------------------------------------------------


def _grad_norm(leaves, scope: str) -> float:
    if scope == "shared":
        g = leaves["W"].grad
        return 0.0 if g is None else float(np.linalg.norm(g))
    total = 0.0
    for name in sorted(leaves):
        g = leaves[name].grad
        if g is not None:
            total += float(np.sum(g * g))
    return float(np.sqrt(total))


def _probe_sweeps(
    tape: Tape, terms: list, leaves: dict, scope: str
) -> tuple[list[dict[str, Array | None]], Array]:
    """One backward sweep per loss term: each sweep's leaf gradients and norm."""
    grads, norms = [], []
    for term in terms:
        tape.backward(term)
        grads.append({name: leaf.grad for name, leaf in leaves.items()})
        norms.append(_grad_norm(leaves, scope))
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


def _val_auc(scores: Array, labels: Array, index: Array) -> float:
    if index.size == 0:
        return float("nan")
    labeled = index[labels[index] >= 0]
    if labeled.size == 0:
        return float("nan")
    try:
        return rank_auc(scores[labeled], labels[labeled])
    except DomainError:
        return float("nan")


def train(
    graph: Graph,
    similarity: SimilaritySet,
    partition: GroupPartition | None,
    config: TrainConfig,
) -> RunResult:
    """Full two-stage run; see the module docstring for the schedule."""
    started = time.monotonic()
    config.validate()
    graph = _ensure_masks(graph, config.seed)
    if similarity.n != graph.n:
        raise ContractError("similarity set does not match the graph")

    backbone_weights, z0_values = pretrain(graph, config)
    rng = np.random.default_rng(config.seed + 1)
    fair_weights = init_fair_head(config.hidden, rng, scale=config.head_scale)
    edges = attention_edges(similarity)

    use_l2 = config.beta2 > 0
    use_l3 = config.beta3 > 0
    ctx: GroupContext | None = None
    if partition is not None and partition.m >= 2:
        ctx = group_context(similarity, partition)
    if use_l3 and ctx is None:
        warnings.warn("group welfare term disabled: fewer than two groups")
        use_l3 = False

    active = [0] + ([1] if use_l2 else []) + ([2] if use_l3 else [])
    initial_betas = {0: 1.0, 1: config.beta2, 2: config.beta3}
    controller = None
    if config.gradnorm and len(active) >= 2:
        # weights renormalize to one-per-active-term (sum 3 in the full run)
        controller = GradNormController(
            [initial_betas[i] for i in active],
            beta_lr=config.beta_lr,
            total=float(len(active)),
        )
        betas_active = controller.betas.copy()
    else:
        betas_active = np.array([initial_betas[i] for i in active])

    adam = AdamState(fair_weights)
    history: list[EpochRecord] = []
    best_auc = -np.inf
    stale = 0

    for epoch in range(config.max_epochs):
        tape = Tape()
        leaves = as_leaves(tape, fair_weights)
        z0 = tape.leaf(z0_values, "z0")
        h = fair_head_embed(z0, leaves, edges, tape, attention=config.attention)
        logits = readout_logits(h, leaves)

        terms = [utility_loss(logits, graph.labels, graph.train_mask, tape)]
        if use_l2:
            if config.surrogate == "none":
                terms.append(smoothness_loss(h, similarity))
            else:
                terms.append(
                    surrogate_loss(
                        h,
                        similarity,
                        config.surrogate,
                        temperature=config.temperature,
                        fraction=config.topk_fraction,
                    )
                )
        if use_l3:
            terms.append(group_welfare_loss(h, ctx))

        loss_values = np.array([float(t.values[0, 0]) for t in terms])
        if controller is not None:
            # by linearity the probe sweeps already hold the total's gradient
            term_grads, norms = _probe_sweeps(tape, terms, leaves, config.gradnorm_scope)
            betas_active = controller.step(loss_values, norms)
            grads = _weighted_gradient(term_grads, betas_active)
        else:
            tape.backward(combine_losses(terms, betas_active))
            grads = {k: leaves[k].grad for k in fair_weights}
        adam.step(fair_weights, grads, config.learning_rate, config.weight_decay)

        scores = ad.sigmoid_values(logits.values[:, 0])
        val_auc = _val_auc(scores, graph.labels, graph.val_mask)
        if_value = (
            loss_values[active.index(1)]
            if use_l2 and config.surrogate == "none"
            else trace_form(similarity, h.values)
        )
        if ctx is not None:
            gd = average_gdif(
                [trace_form(sim, h.values[mem]) for mem, sim in zip(ctx.members, ctx.sims)]
            )
        else:
            gd = float("nan")
        tape.release()
        full_betas = {i: 0.0 for i in (0, 1, 2)}
        for i, b in zip(active, betas_active):
            full_betas[i] = float(b)
        full_losses = {i: 0.0 for i in (0, 1, 2)}
        for i, v in zip(active, loss_values):
            full_losses[i] = float(v)
        history.append(
            EpochRecord(
                epoch=epoch,
                l1=full_losses[0],
                l2=full_losses[1],
                l3=full_losses[2],
                beta1=full_betas[0],
                beta2=full_betas[1],
                beta3=full_betas[2],
                val_auc=val_auc,
                if_value=float(if_value),
                gd=float(gd),
            )
        )

        if np.isfinite(val_auc):
            if val_auc > best_auc + 1e-12:
                best_auc = val_auc
                stale = 0
            else:
                stale += 1
            if stale >= config.patience:
                break

    params = ModelParams(
        variant=config.backbone, backbone=backbone_weights, fair=fair_weights
    )
    report = evaluate(params, graph, similarity, partition, config)
    return RunResult(
        config=config,
        params=params,
        report=report,
        history=history,
        epochs_run=len(history),
        pretrain_epochs_run=config.pretrain_epochs,
        wall_seconds=time.monotonic() - started,
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def embed(
    params: ModelParams,
    graph: Graph,
    similarity: SimilaritySet | None = None,
    attention: bool = True,
) -> tuple[Array, Array]:
    """Forward pass without tracing: returns (embeddings, sigmoid scores)."""
    tape = Tape(tracing=False)
    operators = graph_operators(graph)
    leaves = as_leaves(tape, params.backbone)
    z = backbone_embed(params.variant, leaves, tape.leaf(graph.features), operators)
    if params.fair:
        if similarity is None:
            raise ContractError("fair head requires a similarity set")
        fair_leaves = as_leaves(tape, params.fair)
        h = fair_head_embed(z, fair_leaves, attention_edges(similarity), tape, attention)
        logits = readout_logits(h, fair_leaves)
    else:
        h = z
        logits = readout_logits(z, leaves)
    return h.values.copy(), ad.sigmoid_values(logits.values[:, 0])


def evaluate(
    params: ModelParams,
    graph: Graph,
    similarity: SimilaritySet,
    partition: GroupPartition | None,
    config: TrainConfig | None = None,
) -> MetricsReport:
    """Audit the trained model on the test mask (all nodes when no mask)."""
    config = config or TrainConfig()
    h, scores = embed(params, graph, similarity, attention=config.attention)
    index = graph.test_mask if graph.test_mask.size else np.arange(graph.n)
    return compute_report(
        h[index],
        similarity.restrict(index),
        partition.restrict(index) if partition is not None else None,
        scores=scores[index],
        labels=graph.labels[index],
        threshold=config.eo_threshold,
        delta=config.delta,
    )
