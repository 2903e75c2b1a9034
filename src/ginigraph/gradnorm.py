"""Adaptive loss weighting that balances per-task gradient magnitudes.

Each active loss term i carries a weight beta_i. With G_i the norm of the
term's raw gradient w.r.t. the shared fairness transform and r_i the task's
training rate L_i(t) / L_i(0), the controller follows the objective

    L_bal = sum_i | beta_i G_i - mean(beta G) * r_i / mean(r) |,

whose target factor (the right-hand side) is treated as a constant. One
signed gradient step per epoch gives

    beta_i <- beta_i - lr * sign(beta_i G_i - target_i) * G_i,

after which the weights are floored at a small positive value and rescaled to
a fixed total, so every weight stays strictly positive and the sum is exact.
When all scaled norms and rates already agree the update is the identity.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ContractError, NumericalError

Array = np.ndarray

BETA_FLOOR = 1e-4
BETA_TOTAL = 3.0


class GradNormController:
    """Stateful weight balancer over a fixed number of loss terms."""

    def __init__(
        self,
        initial_betas,
        beta_lr: float = 0.025,
        total: float = BETA_TOTAL,
        floor: float = BETA_FLOOR,
    ):
        betas = np.asarray(initial_betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 2:
            raise ContractError("need at least two loss terms to balance")
        if np.any(betas <= 0):
            raise ContractError("initial weights must be strictly positive")
        if beta_lr <= 0 or total <= 0 or floor <= 0:
            raise ContractError("beta_lr, total and floor must be positive")
        self.beta_lr = float(beta_lr)
        self.total = float(total)
        self.floor = float(floor)
        self.betas = betas * (self.total / betas.sum())
        self.initial_losses: Array | None = None

    def gradnorm_step(self, grad_norms, rates) -> Array:
        """One balancing update from raw gradient norms and training rates."""
        grad_norms = np.asarray(grad_norms, dtype=np.float64)
        rates = np.asarray(rates, dtype=np.float64)
        if grad_norms.shape != self.betas.shape or rates.shape != self.betas.shape:
            raise ContractError("grad_norms and rates must match the weight count")
        if not (np.all(np.isfinite(grad_norms)) and np.all(np.isfinite(rates))):
            raise NumericalError("gradient norms and rates must be finite")
        if np.any(grad_norms < 0) or np.any(rates < 0):
            raise ContractError("gradient norms and rates must be nonnegative")
        scaled = self.betas * grad_norms
        target = scaled.mean() * rates / max(rates.mean(), 1e-12)
        self.betas = self.betas - self.beta_lr * np.sign(scaled - target) * grad_norms
        self.betas = np.maximum(self.betas, self.floor)
        self.betas = self.betas * (self.total / self.betas.sum())
        return self.betas.copy()

    def step(self, losses, grad_norms) -> Array:
        """Record initial losses on first call, derive rates, then update.

        Returns a copy of the new weights.
        """
        losses = np.asarray(losses, dtype=np.float64)
        if losses.shape != self.betas.shape:
            raise ContractError("losses must match the weight count")
        if not np.all(np.isfinite(losses)):
            raise NumericalError("losses must be finite")
        if self.initial_losses is None:
            if np.any(np.abs(losses) <= 0.0):
                warnings.warn("nonpositive initial loss; rate denominator floored")
            self.initial_losses = np.maximum(np.abs(losses), 1e-12)
        rates = np.abs(losses) / self.initial_losses
        return self.gradnorm_step(grad_norms, rates)
