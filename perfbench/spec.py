"""Pinned workload inputs and output tolerances of the benchmark.

These are copies, not imports, of the acceptance settings in
``tests/test_acceptance.py`` (``BENCHMARK_BASE``, ``BENCHMARK_SBM``) and
``scripts/run_benchmark.py`` (``BASE_CONFIG``). An edit to either file, or to a
default of ``TrainConfig`` or ``SbmSpec``, must not silently move a workload:
the benchmark compares commits, so its inputs change only by an edit here.
"""

from __future__ import annotations

WORKLOADS = ("train_full", "train_utility", "audit_n5k")

# Every field that decides the work of a training run is spelled out, including
# the ones that equal today's TrainConfig defaults. Fair epochs are 100, not the
# acceptance run's 600: the per-epoch work is identical, the fairness stage
# still dominates, and one run fits several times into a measurement window.
FAIR_EPOCHS = 100
TRAIN_CONFIG = dict(
    backbone="gcn",
    hidden=16,
    pretrain_epochs=200,
    max_epochs=FAIR_EPOCHS,
    patience=FAIR_EPOCHS,
    top_k=10,
    learning_rate=1e-3,
    weight_decay=1e-5,
    surrogate="none",
    gradnorm=True,
    gradnorm_scope="shared",
    attention=True,
    beta2=1.0,
    beta3=1.0,
    beta_lr=0.025,
    head_scale=0.1,
)

# train_utility is the vanilla variant: both fairness terms removed.
TRAIN_VARIANTS = {
    "train_full": {},
    "train_utility": dict(beta2=0.0, beta3=0.0),
}

_SBM_COMMON = dict(
    feature_dim=8,
    label_signal=1.0,
    group_signal=0.6,
    sensitive_ratio=0.78,
    group_mix=1.0,
    label_noise=0.1,
)

# The acceptance graph: n=1000, 78:22 groups, about 36k edges.
TRAIN_SBM = dict(block_sizes=(390, 390, 110, 110), p_within=0.2, p_between=0.01, **_SBM_COMMON)

# n=5000 is the largest graph the dense similarity path accepts
# (DENSE_SIMILARITY_LIMIT); the edge probabilities keep the 1k graph's mean
# degree of about 72.
AUDIT_SBM = dict(
    block_sizes=(1950, 1950, 550, 550), p_within=0.04, p_between=0.002, **_SBM_COMMON
)
AUDIT_TOP_K = TRAIN_CONFIG["top_k"]
AUDIT_EMBED_DIM = 16
# attr similarity masks the column that carries the sensitive attribute.
AUDIT_MASK_COLS = "1"

# Seeds 0..REFERENCE_SEEDS-1 have recorded outputs in reference.json. A run on
# another seed also runs seed % REFERENCE_SEEDS once, unmeasured, so every run
# compares the program against recorded values.
REFERENCE_SEEDS = 32

# How far a deterministic output may drift from its recorded value. Changing
# the inputs by one part in 1e15 moves these by at most 1e-13 relative after
# training, so reordered float sums (say, a scatter-add replaced by a sparse
# product) stay far inside; a changed model or a wrong gradient does not.
# The AUC allows a few swapped ranks among the about 250 test nodes.
TOLERANCE = {
    "test_auc": ("abs", 1e-3),
    "final_if": ("rel", 1e-6),
    "gd_gap": ("rel", 1e-6),
}
