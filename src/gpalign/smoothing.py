"""Simultaneous smoothing and registration of noisy observations.

The observed curves Y_i are modeled as Gaussian noise around latent smooth
curves X_i, which are registered exactly as in the noiseless model except that
the registration weight becomes (gamma_R^{-1} Sigma + Sigma_X)^{-1}.  The q
distribution over each X_i has a closed Gaussian form; expectations of the
target composed with an inverse warp are not available, so two moment
approximations are used: E[f(h^{-1})] is replaced by the q-mean of f at the
inverse warp, and the second moment adds Sigma_q(X)/N.

With these approximations the bound is no longer guaranteed to increase, so
the fitter freezes the smoothed curves after a few iterations (smoothing
converges much faster than registration) and monitors the noiseless criterion
from there on; any post-freeze decrease is reported, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .avb import (VBState, avb_init, elbo, maximize_base, registered_curves,
                  update_q_eta_f, update_q_f, update_q_lambda_f,
                  update_q_sigma_z0, update_q_sigma_z1, update_q_z0,
                  update_q_z1, _param_vector)
from .errors import DimensionMismatch, SingularPrecision
from .model import ModelConfig, WPrior, registration_weight
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
                 penalties: PenaltySet) -> np.ndarray:
    """Registration weight at the current roughness-precision means."""
    return registration_weight(config, penalties, state.mean_eta_X(),
                               state.mean_lambda_X())


def update_q_X(state: VBState, data, config: ModelConfig,
               penalties: PenaltySet) -> VBState:
    """Gaussian update of every latent smooth curve.

    The covariance has no curve dependence, so one factorization serves all
    curves; each mean balances the noisy observation against the
    registered-model anchor z0 + z1 * f(h^{-1}).
    """
    y = _as_matrix(data)
    rough = state.mean_eta_X() * penalties.P1ginv \
        + state.mean_lambda_X() * penalties.P2ginv
    prec = state.mean_inv_sigma_Y() * np.eye(penalties.p) + rough
    try:
        c, low = cho_factor(prec)
    except np.linalg.LinAlgError as exc:
        raise SingularPrecision(str(exc)) from exc
    cov = cho_solve((c, low), np.eye(penalties.p))
    state.Sigma_X_q = 0.5 * (cov + cov.T)
    anchor = state.mu_z0_full()[:, None] + state.mu_z1[:, None] \
        * at_inverse_warps(state.mu_f, state.w_hat, penalties.grid)
    # per-curve products in one stacked call, rounded as one curve at a time
    rhs = state.mean_inv_sigma_Y() * y + (rough @ anchor[:, :, None])[:, :, 0]
    state.mu_X = cho_solve((c, low), rhs.T).T
    return state


def update_q_sigmaY(state: VBState, data, config: ModelConfig,
                    penalties: PenaltySet) -> VBState:
    y = _as_matrix(data)
    n, p = y.shape
    state.a_q_sigma_Y = config.hyper.a + 0.5 * n * p
    acc = 0.0
    for i in range(n):
        acc += float(y[i] @ y[i]) - 2.0 * float(state.mu_X[i] @ y[i]) \
            + float(np.trace(state.Sigma_X_q)) + float(state.mu_X[i] @ state.mu_X[i])
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


ELBO_DECREASE_TOL = 1e-8


def avb_fit_noisy(data, config: ModelConfig, penalties: PenaltySet,
                  tol: float = 1e-6, max_iters: int = 500,
                  freeze_X_after: int = 5,
                  max_base_steps: int = 60,
                  update_base: bool = True,
                  rescan_every: int = 10) -> VBState:
    """Adjusted AVB for noisy observations.

    Each iteration maximizes all base functions in one batched ascent against
    the current q-means of X (step 2, as in the noiseless fitter), then runs
    the closed-form updates.  The first ``freeze_X_after`` iterations update
    the smoothing blocks (q(X_i), noise variance, roughness precisions)
    alongside registration, with the noisy registration weight in step 2;
    afterwards the smoothed curves are held fixed, step 2 and the updates use
    the noiseless weight, and the noiseless bound is monitored.
    ``freeze_X_after=0`` performs a single smoothing pass and freezes it.  A
    post-freeze bound decrease is recorded in ``state.elbo_warnings``; the
    state is still returned.  ``update_base=False`` pins every warp at the
    identity (smoothing only).
    """
    y = _as_matrix(data)
    config.validate(y.shape[0])
    state = avb_init_noisy(y, config, penalties)
    n = y.shape[0]
    wprior = WPrior(config, penalties, n)

    if freeze_X_after == 0:
        update_q_X(state, y, config, penalties)

    noiseless_weight = registration_weight(config, penalties)
    for m in range(max_iters):
        smoothing_active = m < freeze_X_after
        if not smoothing_active and state.freeze_iteration is None:
            state.freeze_iteration = len(state.elbo_trace)
        prev = _param_vector(state)
        # after the freeze the smoothed curves are treated as known data, so
        # the weight reverts to the noiseless registration precision
        weight = noisy_weight(state, config, penalties) if smoothing_active \
            else noiseless_weight

        if update_base:
            scan = rescan_every > 0 and m % rescan_every == 0
            state.w_hat = maximize_base(state, y, config, penalties, wprior,
                                        weight, max_steps=max_base_steps,
                                        scan=scan)

        if smoothing_active:
            update_q_X(state, y, config, penalties)

        registered = registered_curves(state, y, penalties)
        update_q_f(state, y, config, penalties, weight, registered)
        update_q_z0(state, y, config, penalties, weight, registered)
        update_q_z1(state, y, config, penalties, weight, registered)
        update_q_eta_f(state, config, penalties)
        update_q_lambda_f(state, config, penalties)
        update_q_sigma_z0(state, config)
        update_q_sigma_z1(state, config)
        if smoothing_active:
            update_q_sigmaY(state, y, config, penalties)
            update_q_etaX(state, y, config, penalties)
            update_q_lambdaX(state, y, config, penalties)

        state.elbo_trace.append(
            elbo(state, y, config, penalties, wprior, weight, registered))
        state.n_iterations = m + 1

        if not smoothing_active:
            delta = float(np.max(np.abs(_param_vector(state) - prev)))
            if delta < tol:
                state.converged = True
                state.stop_reason = "parameter_change"
                break
            if state.freeze_iteration is not None and \
                    len(state.elbo_trace) - state.freeze_iteration >= 2 and \
                    abs(state.elbo_trace[-1] - state.elbo_trace[-2]) < tol:
                state.converged = True
                state.stop_reason = "elbo_change"
                break
    if not state.converged:
        state.stop_reason = "max_iters"
    if state.freeze_iteration is not None:
        trace = np.asarray(state.elbo_trace[state.freeze_iteration:])
        if trace.size >= 2:
            drops = np.diff(trace)
            if np.any(drops < -ELBO_DECREASE_TOL):
                worst = float(drops.min())
                state.elbo_warnings.append(
                    f"bound decreased after freeze (worst step {worst:.3e})")
    return state


def presmooth_only(data, config: ModelConfig, penalties: PenaltySet,
                   tol: float = 1e-6, max_iters: int = 200,
                   freeze_X_after: int = 25) -> VBState:
    """Smoothing pass with all warps pinned at the identity.

    This is the cautionary pre-processing pipeline: smooth first, then
    register the smoothed curves with the noiseless model, and compare the
    resulting uncertainty with the simultaneous fit.
    """
    return avb_fit_noisy(data, config, penalties, tol=tol, max_iters=max_iters,
                         freeze_X_after=freeze_X_after, update_base=False)
