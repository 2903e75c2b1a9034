"""Fairness-aware graph learning: Gini-style audits and balanced GNN training."""

from .autodiff import Tape, Tensor
from .clustering import kmeans, kmeans_elbow
from .errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    DimensionError,
    DomainError,
    GiniGraphError,
    NumericalError,
)
from .gradnorm import GradNormController
from .graph import (
    Graph,
    GroupPartition,
    SimilaritySet,
    attr_similarity,
    laplacian_apply,
    load_graph,
    split_nodes,
    topo_similarity,
)
from .losses import (
    group_welfare_loss,
    surrogate_loss,
    utility_loss,
)
from .metrics import (
    MetricsReport,
    average_gdif,
    compute_report,
    embedding_gini,
    equal_opportunity_gap,
    f1_score,
    gdif,
    group_ginis,
    group_traces,
    lipschitz_constant,
    rank_auc,
    trace_form,
)
from .models import ModelParams, load_checkpoint, save_checkpoint
from .perturb import RewireResult, perturb_noise, rewire_homophily
from .sweep import SweepSpec, run_sweep
from .synthetic import SbmSpec, sbm_generate
from .trainer import RunResult, TrainConfig, evaluate, pretrain, train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "DataFormatError",
    "DimensionError",
    "DomainError",
    "GiniGraphError",
    "GradNormController",
    "Graph",
    "GroupPartition",
    "MetricsReport",
    "ModelParams",
    "NumericalError",
    "RewireResult",
    "RunResult",
    "SbmSpec",
    "SimilaritySet",
    "SweepSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "attr_similarity",
    "average_gdif",
    "compute_report",
    "embedding_gini",
    "equal_opportunity_gap",
    "evaluate",
    "f1_score",
    "gdif",
    "group_ginis",
    "group_traces",
    "group_welfare_loss",
    "kmeans",
    "kmeans_elbow",
    "laplacian_apply",
    "lipschitz_constant",
    "load_checkpoint",
    "load_graph",
    "perturb_noise",
    "pretrain",
    "rank_auc",
    "rewire_homophily",
    "run_sweep",
    "save_checkpoint",
    "sbm_generate",
    "split_nodes",
    "surrogate_loss",
    "topo_similarity",
    "trace_form",
    "train",
    "utility_loss",
]
