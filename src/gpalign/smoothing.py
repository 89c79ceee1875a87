"""Simultaneous smoothing and registration of noisy observations.

The observed curves Y_i are modeled as Gaussian noise around latent smooth
curves X_i, which are registered exactly as in the noiseless model except that
the registration weight becomes (gamma_R^{-1} Sigma + Sigma_X)^{-1}.  The q
distribution over each X_i has a closed Gaussian form; expectations of the
target composed with an inverse warp are not available, so two moment
approximations are used: E[f(h^{-1})] is replaced by the q-mean of f at the
inverse warp, and the second moment adds Sigma_q(X)/N.

With these approximations the bound is no longer guaranteed to increase, so
the fit freezes the smoothed curves after a few iterations (smoothing
converges much faster than registration) and monitors the noiseless criterion
from there on; any post-freeze decrease is reported, never hidden.

The fit is ``avb.avb_fit``, which runs the q-updates below in each sweep
while ``config.noisy`` smoothing is active.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .avb import VBState, avb_fit, avb_init
from .errors import DimensionMismatch
from .model import ModelConfig, RegistrationWeight, registration_weight
from .penalties import PenaltySet
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


def noisy_weight(state: VBState, config: ModelConfig,
                 penalties: PenaltySet) -> RegistrationWeight:
    """Registration weight at the current roughness-precision means."""
    return registration_weight(config, penalties, state.mean_eta_X(),
                               state.mean_lambda_X())


def update_q_X(state: VBState, data, config: ModelConfig,
               penalties: PenaltySet) -> VBState:
    """Gaussian update of every latent smooth curve.

    The covariance has no curve dependence, so all curves share one
    precision, diagonal in the penalty basis; each mean balances the noisy
    observation against the registered-model anchor z0 + z1 * f(h^{-1}).
    """
    y = _as_matrix(data)
    eta, lam = state.mean_eta_X(), state.mean_lambda_X()
    rough = eta * penalties.P1ginv + lam * penalties.P2ginv
    d = penalties.main.diagonal(eta, lam, state.mean_inv_sigma_Y())
    state.Sigma_X_q = penalties.main.covariance(d)
    anchor = state.mu_z0_full()[:, None] + state.mu_z1[:, None] \
        * at_inverse_warps(state.mu_f, state.w_hat, penalties.grid)
    # per-curve products in one stacked call, rounded as one curve at a time
    rhs = state.mean_inv_sigma_Y() * y + (rough @ anchor[:, :, None])[:, :, 0]
    state.mu_X = penalties.main.solve(d, rhs)
    return state


def update_q_sigmaY(state: VBState, data, config: ModelConfig,
                    penalties: PenaltySet) -> VBState:
    y = _as_matrix(data)
    n, p = y.shape
    state.a_q_sigma_Y = config.hyper.a + 0.5 * n * p
    tr_cov = float(np.trace(state.Sigma_X_q))
    acc = 0.0
    for i in range(n):
        acc += float(y[i] @ y[i]) - 2.0 * float(state.mu_X[i] @ y[i]) \
            + tr_cov + float(state.mu_X[i] @ state.mu_X[i])
    state.b_q_sigma_Y = config.hyper.b + 0.5 * acc
    return state


def _row_forms(a: np.ndarray, mat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i' mat b_i for every row i, each evaluated as (a_i @ mat) @ b_i."""
    return ((a[:, None, :] @ mat) @ b[:, :, None])[:, 0, 0]


def _roughness_rate(state: VBState, penalties: PenaltySet,
                    pen: np.ndarray) -> float:
    """Accumulated E[(X_i - z0_i - z1_i f(h^{-1}))' pen (same)] over curves,
    under the stated moment approximations."""
    n = state.n_curves
    m0 = state.mu_z0_full()
    e_z0_sq = state.e_z0_sq_full()
    e_z1_sq = state.var_z1 + state.mu_z1 ** 2
    one = np.ones(penalties.p)
    one_pen_one = float(one @ pen @ one)
    tr_cov = float(np.sum(state.Sigma_X_q * pen))
    ft = at_inverse_warps(state.mu_f, state.w_hat, penalties.grid)
    mu = state.mu_X
    m = m0[:, None] * one + state.mu_z1[:, None] * ft
    per_curve = tr_cov + _row_forms(mu, pen, mu) - 2.0 * _row_forms(m, pen, mu) \
        + e_z0_sq * one_pen_one \
        + 2.0 * m0 * state.mu_z1 * _row_forms(np.broadcast_to(one, ft.shape), pen, ft) \
        + e_z1_sq * (tr_cov / n + _row_forms(ft, pen, ft))
    return float(np.cumsum(per_curve)[-1])  # summed in curve order


def update_q_etaX(state: VBState, data, config: ModelConfig,
                  penalties: PenaltySet) -> VBState:
    state.c_q_eta_X = config.hyper.c + state.n_curves
    state.d_q_eta_X = config.hyper.d \
        + 0.5 * _roughness_rate(state, penalties, penalties.P1ginv)
    return state


def update_q_lambdaX(state: VBState, data, config: ModelConfig,
                     penalties: PenaltySet) -> VBState:
    state.c_q_lambda_X = config.hyper.c + 0.5 * state.n_curves * (penalties.p - 2)
    state.d_q_lambda_X = config.hyper.d \
        + 0.5 * _roughness_rate(state, penalties, penalties.P2ginv)
    return state


def avb_init_noisy(data, config: ModelConfig, penalties: PenaltySet) -> VBState:
    """Noiseless init extended with smoothing blocks at prior values."""
    y = _as_matrix(data)
    state = avb_init(y, config, penalties)
    hy = config.hyper
    state.mu_X = y.copy()
    state.Sigma_X_q = np.zeros((penalties.p, penalties.p))
    state.a_q_sigma_Y = hy.a
    state.b_q_sigma_Y = hy.b
    state.c_q_eta_X = hy.c
    state.d_q_eta_X = hy.d
    state.c_q_lambda_X = hy.c
    state.d_q_lambda_X = hy.d
    return state


def avb_fit_noisy(data, config: ModelConfig, penalties: PenaltySet,
                  tol: float = 1e-6, max_iters: int = 500,
                  freeze_X_after: int = 5) -> VBState:
    """Simultaneous smoothing and registration: ``avb_fit`` with the noisy
    model switched on, smoothing for ``freeze_X_after`` iterations."""
    return avb_fit(_as_matrix(data), replace(config, noisy=True), penalties,
                   tol=tol, max_iters=max_iters, freeze_X_after=freeze_X_after)


def presmooth_only(data, config: ModelConfig, penalties: PenaltySet,
                   tol: float = 1e-6, max_iters: int = 200,
                   freeze_X_after: int = 25) -> VBState:
    """The noisy fit without its base step, so every warp stays the identity.

    This is the cautionary pre-processing pipeline: smooth first, then
    register the smoothed curves with the noiseless model, and compare the
    resulting uncertainty with the simultaneous fit.
    """
    return avb_fit(_as_matrix(data), replace(config, noisy=True), penalties,
                   tol=tol, max_iters=max_iters, freeze_X_after=freeze_X_after,
                   max_base_steps=0)
