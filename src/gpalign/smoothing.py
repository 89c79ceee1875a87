"""Simultaneous smoothing and registration of noisy observations.

The observed curves Y_i are modeled as Gaussian noise around latent smooth
curves X_i, which are registered exactly as in the noiseless model except that
the registration weight becomes (gamma_R^{-1} Sigma + Sigma_X)^{-1}.  Each
q-update below sets q to the block's conditional law in ``model`` at the
q-moments.  Expectations of the target composed with an inverse warp are not
available, so E[f(h^{-1})] is taken as the q-mean of f at the inverse warp,
and its covariance as Sigma_q(X)/N (``model.roughness_forms``).  Sigma_q(X),
shared by all curves, is kept as its eigenvalues ``var_X``.

With these approximations the bound is no longer guaranteed to increase, so
the fit freezes the smoothed curves after a few iterations (smoothing
converges much faster than registration) and monitors the noiseless criterion
from there on; any post-freeze decrease is reported, never hidden.

``avb.avb_fit`` runs these q-updates while it smooths.  Each reads and writes
an ``avb.VBState``; this module imports nothing from ``avb``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .model import (ModelConfig, curve_law, noise_law, precision_law,
                    registration_weight, roughness_forms)
from .penalties import PenaltyForm, PenaltySet
from .warping import at_inverse_warps


@dataclass(frozen=True)
class NoisyData:
    """Noisy observations on the common grid, one curve per row."""

    Y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.Y, dtype=float)
        if y.ndim != 2:
            raise DimensionMismatch("noisy data must be a 2-d matrix")
        if not np.all(np.isfinite(y)):
            raise DimensionMismatch("noisy data contains non-finite values")
        object.__setattr__(self, "Y", y)

    @property
    def n_curves(self) -> int:
        return self.Y.shape[0]


def _as_matrix(data) -> np.ndarray:
    return data.Y if isinstance(data, NoisyData) else np.asarray(data, dtype=float)


def noisy_weight(state, config: ModelConfig, penalties: PenaltySet) -> PenaltyForm:
    """Registration weight at the current roughness-precision means."""
    return registration_weight(config, penalties, state.mean_eta_X(),
                               state.mean_lambda_X())


def update_q_X(state, data, penalties: PenaltySet) -> None:
    """All curves share one q(X_i) covariance; see ``model.curve_law``."""
    d, rhs = curve_law(
        penalties, state.mean_inv_sigma_Y() * data, state.mean_inv_sigma_Y(),
        state.mean_eta_X(), state.mean_lambda_X(), state.mu_z0_full(), state.mu_z1,
        at_inverse_warps(state.mu_f, state.w_hat, penalties.grid))
    state.var_X = 1.0 / d
    state.mu_X = penalties.main.solve(d, rhs)


def update_q_sigmaY(state, data, config: ModelConfig) -> None:
    state.a_q_sigma_Y, state.b_q_sigma_Y = noise_law(config, data, state.mu_X, state.var_X)


def _roughness_rate(state, penalties: PenaltySet, a: float, b: float) -> float:
    """``model.roughness_forms`` at the q-moments."""
    return roughness_forms(
        penalties, a, b, state.mu_X, state.mu_z0_full(), state.mu_z1,
        at_inverse_warps(state.mu_f, state.w_hat, penalties.grid),
        (state.var_X, state.var_z0_full(), state.var_z1))


def update_q_etaX(state, config: ModelConfig, penalties: PenaltySet) -> None:
    state.c_q_eta_X, state.d_q_eta_X = precision_law(
        config, penalties, 1.0, state.n_curves, _roughness_rate(state, penalties, 1.0, 0.0))


def update_q_lambdaX(state, config: ModelConfig, penalties: PenaltySet) -> None:
    state.c_q_lambda_X, state.d_q_lambda_X = precision_law(
        config, penalties, 0.0, state.n_curves, _roughness_rate(state, penalties, 0.0, 1.0))
