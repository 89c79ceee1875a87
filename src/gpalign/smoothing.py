"""Simultaneous smoothing and registration of noisy observations.

The observed curves Y_i are modeled as Gaussian noise around latent smooth
curves X_i, which are registered exactly as in the noiseless model except that
the registration weight becomes (gamma_R^{-1} Sigma + Sigma_X)^{-1}.  The q
distribution over each X_i has a closed Gaussian form; expectations of the
target composed with an inverse warp are not available, so two moment
approximations are used: E[f(h^{-1})] is replaced by the q-mean of f at the
inverse warp, and the second moment adds Sigma_q(X)/N.  Sigma_q(X), shared by
all curves, is kept as its eigenvalues ``var_X`` in the penalty basis.  The
roughness precision is a ``penalties.PenaltyForm``, and each roughness rate is
its form of the mean residual plus the variances' terms, as in the bound.

With these approximations the bound is no longer guaranteed to increase, so
the fit freezes the smoothed curves after a few iterations (smoothing
converges much faster than registration) and monitors the noiseless criterion
from there on; any post-freeze decrease is reported, never hidden.

The fit is ``avb.avb_fit``, which sets the smoothing blocks in its init and
runs the q-updates below in each sweep while ``config.noisy`` smoothing is
active.  Each update reads and writes the blocks of an ``avb.VBState``; this
module imports nothing from ``avb``, which builds on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .model import ModelConfig, registration_weight
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


def update_q_X(state, data, penalties: PenaltySet):
    """Gaussian update of every latent smooth curve.

    The covariance has no curve dependence, so all curves share one
    precision, diagonal in the penalty basis; each mean balances the noisy
    observation against the registered-model anchor z0 + z1 * f(h^{-1}).
    """
    y = _as_matrix(data)
    eta, lam = state.mean_eta_X(), state.mean_lambda_X()
    d = penalties.main.diagonal(eta, lam, state.mean_inv_sigma_Y())
    state.var_X = 1.0 / d
    anchor = state.mu_z0_full()[:, None] + state.mu_z1[:, None] \
        * at_inverse_warps(state.mu_f, state.w_hat, penalties.grid)
    rhs = state.mean_inv_sigma_Y() * y + penalties.main.form(eta, lam).rows(anchor)[0]
    state.mu_X = penalties.main.solve(d, rhs)
    return state


def update_q_sigmaY(state, data, config: ModelConfig):
    y = _as_matrix(data)
    n, p = y.shape
    state.a_q_sigma_Y = config.hyper.a + 0.5 * n * p
    state.b_q_sigma_Y = config.hyper.b + 0.5 * (
        float(np.sum((y - state.mu_X) ** 2)) + n * float(np.sum(state.var_X)))
    return state


def _roughness_rate(state, penalties: PenaltySet, a: float, b: float) -> float:
    """E[(X_i - z0_i - z1_i f(h^{-1}))' A (same)], A = a P1ginv + b P2ginv,
    summed over curves under the stated moment approximations: the mean
    residual's form plus the variances' terms."""
    form = penalties.main.form(a, b)
    ft = at_inverse_warps(state.mu_f, state.w_hat, penalties.grid)
    _, mean_forms = form.rows(state.mu_X - state.mu_z0_full()[:, None]
                              - state.mu_z1[:, None] * ft)
    tr_cov = penalties.main.trace(a, b, state.var_X)
    e_z1_sq = state.var_z1 + state.mu_z1 ** 2
    per_curve = mean_forms + tr_cov * (1.0 + e_z1_sq / state.n_curves) \
        + state.var_z0_full() * form.quad(np.ones(penalties.p)) \
        + state.var_z1 * form.rows(ft)[1]
    return float(np.sum(per_curve))


def update_q_etaX(state, config: ModelConfig, penalties: PenaltySet):
    state.c_q_eta_X = config.hyper.c + state.n_curves
    state.d_q_eta_X = config.hyper.d \
        + 0.5 * _roughness_rate(state, penalties, 1.0, 0.0)
    return state


def update_q_lambdaX(state, config: ModelConfig, penalties: PenaltySet):
    state.c_q_lambda_X = config.hyper.c + 0.5 * state.n_curves * (penalties.p - 2)
    state.d_q_lambda_X = config.hyper.d \
        + 0.5 * _roughness_rate(state, penalties, 0.0, 1.0)
    return state
