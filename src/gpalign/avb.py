"""Adapted variational Bayes: closed-form coordinate updates for every
conjugate block, numerical maximization for the base functions, and an
evidence-lower-bound trace for convergence monitoring.

Each iteration performs (step 2) a projected gradient ascent on the base
functions with the other blocks held at their q-means, then (step 3) exact
mean-field updates for q(f), q(z0), q(z1), q(eta_f), q(lambda_f),
q(sigma_z0^2), q(sigma_z1^2), in that order.  Given the q-means the N base
functions are independent problems of one shape, so step 2 is one batched
ascent over (N, p-1) arrays in which every curve keeps its own step size,
backtracking and stopping rule.  Because every step-3 update is the exact
argmax of the bound in its block and step 2 never decreases any curve's
w-dependent part, the recorded bound is non-decreasing for the noiseless
model.

``avb_fit`` is the fitter for both models: with ``config.noisy`` its first
sweeps also run the smoothing blocks of ``smoothing``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, gammaln

from .errors import InconsistentGrid, SingularPrecision
from .model import (LatentState, ModelConfig, RegistrationWeight, WPrior,
                    maximize_base_functions, registration_weight)
from .penalties import PenaltySet
from .warping import curves_at_warps


@dataclass
class VBState:
    """All q-distribution parameters plus point estimates of base functions."""

    mu_f: np.ndarray
    Sigma_f_q: np.ndarray
    mu_z0: np.ndarray            # length N-1; the N-th shift is -sum
    var_z0: np.ndarray
    mu_z1: np.ndarray            # length N
    var_z1: np.ndarray
    a_q_sigma_z0: float
    b_q_sigma_z0: float
    a_q_sigma_z1: float
    b_q_sigma_z1: float
    c_q_eta_f: float
    d_q_eta_f: float
    c_q_lambda_f: float
    d_q_lambda_f: float
    w_hat: np.ndarray            # (N, p-1), endpoint-projected
    elbo_trace: list = field(default_factory=list)
    # noisy-model extension (None in the noiseless model)
    mu_X: np.ndarray | None = None
    Sigma_X_q: np.ndarray | None = None
    a_q_sigma_Y: float | None = None
    b_q_sigma_Y: float | None = None
    c_q_eta_X: float | None = None
    d_q_eta_X: float | None = None
    c_q_lambda_X: float | None = None
    d_q_lambda_X: float | None = None
    # fit bookkeeping
    converged: bool = False
    stop_reason: str = ""
    n_iterations: int = 0
    line_search_failures: int = 0
    elbo_warnings: list = field(default_factory=list)
    freeze_iteration: int | None = None

    @property
    def n_curves(self) -> int:
        return self.w_hat.shape[0]

    def mu_z0_full(self) -> np.ndarray:
        return np.append(self.mu_z0, -np.sum(self.mu_z0))

    def e_z0_sq_full(self) -> np.ndarray:
        """Second moments E[z0_i^2] for every curve, including the derived one."""
        head = self.var_z0 + self.mu_z0 ** 2
        last = np.sum(self.var_z0) + np.sum(self.mu_z0) ** 2
        return np.append(head, last)

    # expectations of the variance/precision blocks
    def mean_inv_sigma_z0(self) -> float:
        return self.a_q_sigma_z0 / self.b_q_sigma_z0

    def mean_inv_sigma_z1(self) -> float:
        return self.a_q_sigma_z1 / self.b_q_sigma_z1

    def mean_eta_f(self) -> float:
        return self.c_q_eta_f / self.d_q_eta_f

    def mean_lambda_f(self) -> float:
        return self.c_q_lambda_f / self.d_q_lambda_f

    def mean_inv_sigma_Y(self) -> float:
        return self.a_q_sigma_Y / self.b_q_sigma_Y

    def mean_eta_X(self) -> float:
        return self.c_q_eta_X / self.d_q_eta_X

    def mean_lambda_X(self) -> float:
        return self.c_q_lambda_X / self.d_q_lambda_X

    def curves(self, data: np.ndarray) -> np.ndarray:
        """The curves the registration model sees: data, or q-means of X."""
        return data if self.mu_X is None else self.mu_X

    def to_latent_state(self, noisy: bool = False) -> LatentState:
        """Point-estimate latent state, e.g. for initializing a sampler."""
        state = LatentState(
            w=self.w_hat.copy(),
            z0=self.mu_z0_full(),
            z1=self.mu_z1.copy(),
            f=self.mu_f.copy(),
            sigma_z0_sq=self.b_q_sigma_z0 / self.a_q_sigma_z0,
            sigma_z1_sq=self.b_q_sigma_z1 / self.a_q_sigma_z1,
            eta_f=self.mean_eta_f(),
            lambda_f=self.mean_lambda_f(),
        )
        if noisy:
            state.X = self.mu_X.copy()
            state.sigma_Y_sq = self.b_q_sigma_Y / self.a_q_sigma_Y
            state.eta_X = self.mean_eta_X()
            state.lambda_X = self.mean_lambda_X()
        return state


def avb_init(data: np.ndarray, config: ModelConfig,
             penalties: PenaltySet) -> VBState:
    """Identity warps, cross-sectional-mean target, prior-valued q parameters."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != penalties.p:
        raise InconsistentGrid(
            f"data shape {data.shape} does not match grid with p={penalties.p}"
        )
    n = data.shape[0]
    if n < 2:
        raise InconsistentGrid("need at least 2 curves")
    hy = config.hyper
    p = penalties.p
    return VBState(
        mu_f=data.mean(axis=0),
        Sigma_f_q=np.zeros((p, p)),
        mu_z0=np.zeros(n - 1),
        var_z0=np.zeros(n - 1),
        mu_z1=np.ones(n),
        var_z1=np.zeros(n),
        a_q_sigma_z0=hy.a, b_q_sigma_z0=hy.b,
        a_q_sigma_z1=hy.a, b_q_sigma_z1=hy.b,
        c_q_eta_f=hy.c, d_q_eta_f=hy.d,
        c_q_lambda_f=hy.c, d_q_lambda_f=hy.d,
        w_hat=np.zeros((n, p - 1)),
    )


def registered_curves(state: VBState, data: np.ndarray,
                      penalties: PenaltySet) -> np.ndarray:
    """Every curve evaluated at its current warped times."""
    return curves_at_warps(state.curves(data), state.w_hat, penalties.grid)


def maximize_base(state: VBState, data: np.ndarray, config: ModelConfig,
                  penalties: PenaltySet, wprior: WPrior | None = None,
                  weight: RegistrationWeight | None = None,
                  max_steps: int = 25, scan: bool = False) -> np.ndarray:
    """Ascend the w-dependent part of the bound for every curve at once.

    Returns the projected base functions, one row per curve; a curve keeps
    its incumbent when no ascent direction is found.  A curve whose result
    moved without improving its objective (re-projection round-off) is
    counted in ``state.line_search_failures``.
    """
    if wprior is None:
        wprior = WPrior(config, penalties, state.n_curves)
    if weight is None:
        weight = registration_weight(config, penalties)
    targets = state.mu_z0_full()[:, None] + state.mu_z1[:, None] * state.mu_f
    k_priors = [wprior.precision(i) for i in range(state.n_curves)]
    w, _, improved = maximize_base_functions(
        state.w_hat, state.curves(data), targets, weight.matrix, k_priors,
        penalties.grid, max_steps=max_steps, scan_rounds=2 if scan else 0)
    moved = np.any(w != state.w_hat, axis=1)
    state.line_search_failures += int(np.sum(moved & ~improved))
    return w


def update_q_f(state: VBState, data: np.ndarray, config: ModelConfig,
               penalties: PenaltySet, weight: RegistrationWeight,
               registered: np.ndarray) -> VBState:
    """Gaussian update for the target: precision is the summed registration
    weight scaled by E[z1_i^2] plus the prior precision at the current
    precision means, diagonal in the penalty basis."""
    e_z1_sq = np.sum(state.var_z1 + state.mu_z1 ** 2)
    d = penalties.main.diagonal(e_z1_sq * weight.a + state.mean_eta_f(),
                                e_z1_sq * weight.b + state.mean_lambda_f())
    m0 = state.mu_z0_full()
    rhs = weight.matrix @ (state.mu_z1[:, None]
                           * (registered - m0[:, None])).sum(axis=0)
    state.Sigma_f_q = penalties.main.covariance(d)
    state.mu_f = penalties.main.solve(d, rhs)
    return state


def update_q_z0(state: VBState, data: np.ndarray, config: ModelConfig,
                penalties: PenaltySet, weight: RegistrationWeight,
                registered: np.ndarray) -> VBState:
    """Gaussian updates for the N-1 free shifts, sequentially.

    Each shift enters two registration kernels (its own curve and the N-th,
    through the sum-to-zero constraint), hence the factor 2 on the data
    precision.
    """
    n = state.n_curves
    one = np.ones(penalties.p)
    a_one = weight.matrix @ one
    quad = float(one @ a_one)
    var = 1.0 / (state.mean_inv_sigma_z0() + 2.0 * quad)
    for i in range(n - 1):
        d_i = registered[i] - registered[n - 1] \
            + (state.mu_z1[n - 1] - state.mu_z1[i]) * state.mu_f
        others = float(np.sum(state.mu_z0)) - state.mu_z0[i]
        state.var_z0[i] = var
        state.mu_z0[i] = var * (float(d_i @ a_one) - others * quad)
    return state


def update_q_z1(state: VBState, data: np.ndarray, config: ModelConfig,
                penalties: PenaltySet, weight: RegistrationWeight,
                registered: np.ndarray) -> VBState:
    """Gaussian updates for the scales; the prior mean 1 contributes its
    precision to the location."""
    e_ff = state.Sigma_f_q + np.outer(state.mu_f, state.mu_f)
    quad = float(np.sum(e_ff * weight.matrix))
    var = 1.0 / (state.mean_inv_sigma_z1() + quad)
    a_mu_f = weight.matrix @ state.mu_f
    # per-curve dot products in one stacked call, rounded as one curve at a time
    resid = (registered - state.mu_z0_full()[:, None])[:, None, :]
    state.var_z1[:] = var
    state.mu_z1[:] = var * (state.mean_inv_sigma_z1() + (resid @ a_mu_f)[:, 0])
    return state


def update_q_eta_f(state: VBState, config: ModelConfig,
                   penalties: PenaltySet) -> VBState:
    e_ff = state.Sigma_f_q + np.outer(state.mu_f, state.mu_f)
    state.c_q_eta_f = config.hyper.c + 1.0
    state.d_q_eta_f = config.hyper.d + 0.5 * float(np.sum(e_ff * penalties.P1ginv))
    return state


def update_q_lambda_f(state: VBState, config: ModelConfig,
                      penalties: PenaltySet) -> VBState:
    e_ff = state.Sigma_f_q + np.outer(state.mu_f, state.mu_f)
    state.c_q_lambda_f = config.hyper.c + 0.5 * (penalties.p - 2)
    state.d_q_lambda_f = config.hyper.d + 0.5 * float(np.sum(e_ff * penalties.P2ginv))
    return state


def update_q_sigma_z0(state: VBState, config: ModelConfig) -> VBState:
    n = state.n_curves
    state.a_q_sigma_z0 = config.hyper.a + 0.5 * (n - 1)
    state.b_q_sigma_z0 = config.hyper.b + 0.5 * float(
        np.sum(state.var_z0 + state.mu_z0 ** 2))
    return state


def update_q_sigma_z1(state: VBState, config: ModelConfig) -> VBState:
    n = state.n_curves
    state.a_q_sigma_z1 = config.hyper.a + 0.5 * n
    state.b_q_sigma_z1 = config.hyper.b + 0.5 * float(
        np.sum(state.var_z1 + (state.mu_z1 - 1.0) ** 2))
    return state


def _gamma_block_elbo(c: float, d: float, c_q: float, d_q: float) -> float:
    e_log = digamma(c_q) - np.log(d_q)
    mean = c_q / d_q
    return (c * np.log(d) - gammaln(c) - c_q * np.log(d_q) + gammaln(c_q)
            + (c - c_q) * e_log + (d_q - d) * mean)


def _ig_block_elbo(a: float, b: float, a_q: float, b_q: float) -> float:
    e_log = np.log(b_q) - digamma(a_q)
    mean_inv = a_q / b_q
    return (a * np.log(b) - gammaln(a) - a_q * np.log(b_q) + gammaln(a_q)
            + (a_q - a) * e_log + (b_q - b) * mean_inv)


def elbo(state: VBState, data: np.ndarray, config: ModelConfig,
         penalties: PenaltySet, wprior: WPrior | None = None,
         weight: RegistrationWeight | None = None,
         registered: np.ndarray | None = None) -> float:
    """Evidence lower bound of the noiseless model, dropping terms that are
    constant across iterations.  Valid once a full update sweep has run."""
    if wprior is None:
        wprior = WPrior(config, penalties, state.n_curves)
    if weight is None:
        weight = registration_weight(config, penalties)
    if registered is None:
        registered = registered_curves(state, data, penalties)
    hy = config.hyper
    n = state.n_curves
    p = penalties.p

    m0 = state.mu_z0_full()
    e_z0_sq = state.e_z0_sq_full()
    e_z1_sq = state.var_z1 + state.mu_z1 ** 2
    e_ff = state.Sigma_f_q + np.outer(state.mu_f, state.mu_f)
    a = weight.matrix
    one = np.ones(p)
    a_one = a @ one
    one_a_one = float(one @ a_one)
    one_a_muf = float(a_one @ state.mu_f)
    tr_a_eff = float(np.sum(e_ff * a))

    total = 0.0
    for i in range(n):
        xh = registered[i]
        total += -0.5 * (
            float(xh @ a @ xh)
            - 2.0 * m0[i] * float(xh @ a_one)
            - 2.0 * state.mu_z1[i] * float(xh @ a @ state.mu_f)
            + e_z0_sq[i] * one_a_one
            + 2.0 * m0[i] * state.mu_z1[i] * one_a_muf
            + e_z1_sq[i] * tr_a_eff
        )
        total += wprior.log_kernel(state.w_hat[i], i)

    # target block
    e_log_eta = digamma(state.c_q_eta_f) - np.log(state.d_q_eta_f)
    e_log_lam = digamma(state.c_q_lambda_f) - np.log(state.d_q_lambda_f)
    sign, logdet = np.linalg.slogdet(state.Sigma_f_q)
    if sign <= 0:
        raise SingularPrecision("Sigma_f_q is not positive definite")
    total += e_log_eta + 0.5 * (p - 2) * e_log_lam
    total += -0.5 * float(np.sum(e_ff * (state.mean_eta_f() * penalties.P1ginv
                                         + state.mean_lambda_f() * penalties.P2ginv)))
    total += 0.5 * logdet + 0.5 * p

    # shift and scale blocks
    e_log_s0 = np.log(state.b_q_sigma_z0) - digamma(state.a_q_sigma_z0)
    total += 0.5 * float(np.sum(np.log(state.var_z0))) \
        - 0.5 * (n - 1) * e_log_s0 \
        - 0.5 * state.mean_inv_sigma_z0() * float(np.sum(state.var_z0 + state.mu_z0 ** 2)) \
        + 0.5 * (n - 1)
    e_log_s1 = np.log(state.b_q_sigma_z1) - digamma(state.a_q_sigma_z1)
    total += 0.5 * float(np.sum(np.log(state.var_z1))) \
        - 0.5 * n * e_log_s1 \
        - 0.5 * state.mean_inv_sigma_z1() * float(
            np.sum(state.var_z1 + (state.mu_z1 - 1.0) ** 2)) \
        + 0.5 * n

    total += _ig_block_elbo(hy.a, hy.b, state.a_q_sigma_z0, state.b_q_sigma_z0)
    total += _ig_block_elbo(hy.a, hy.b, state.a_q_sigma_z1, state.b_q_sigma_z1)
    total += _gamma_block_elbo(hy.c, hy.d, state.c_q_eta_f, state.d_q_eta_f)
    total += _gamma_block_elbo(hy.c, hy.d, state.c_q_lambda_f, state.d_q_lambda_f)
    return float(total)


def sweep(state: VBState, data: np.ndarray, config: ModelConfig,
          penalties: PenaltySet, wprior: WPrior, weight: RegistrationWeight,
          max_base_steps: int = 25, scan: bool = False,
          smooth: bool = False) -> np.ndarray:
    """One full AVB iteration (base maximization then ordered q updates).

    The base functions of all curves are maximized in one batched ascent,
    skipped when ``max_base_steps == 0``; the q updates are order-dependent
    and run in sequence.  ``smooth`` adds the smoothing blocks: q(X) after
    the base step, q(sigma_Y^2), q(eta_X), q(lambda_X) at the end.  Returns
    the registered curves at the new base functions so callers can reuse
    them for the bound.
    """
    from . import smoothing

    if max_base_steps > 0:
        state.w_hat = maximize_base(state, data, config, penalties, wprior,
                                    weight, max_steps=max_base_steps, scan=scan)
    if smooth:
        smoothing.update_q_X(state, data, config, penalties)
    registered = registered_curves(state, data, penalties)
    update_q_f(state, data, config, penalties, weight, registered)
    update_q_z0(state, data, config, penalties, weight, registered)
    update_q_z1(state, data, config, penalties, weight, registered)
    update_q_eta_f(state, config, penalties)
    update_q_lambda_f(state, config, penalties)
    update_q_sigma_z0(state, config)
    update_q_sigma_z1(state, config)
    if smooth:
        smoothing.update_q_sigmaY(state, data, config, penalties)
        smoothing.update_q_etaX(state, data, config, penalties)
        smoothing.update_q_lambdaX(state, data, config, penalties)
    return registered


def _param_vector(state: VBState) -> np.ndarray:
    parts = [state.mu_f, state.mu_z0, state.mu_z1, state.w_hat.ravel(),
             np.array([state.b_q_sigma_z0, state.b_q_sigma_z1,
                       state.d_q_eta_f, state.d_q_lambda_f])]
    return np.concatenate(parts)


ELBO_DECREASE_TOL = 1e-8


def avb_fit(data: np.ndarray, config: ModelConfig, penalties: PenaltySet,
            tol: float = 1e-6, max_iters: int = 500,
            max_base_steps: int = 60, rescan_every: int = 10,
            freeze_X_after: int = 5) -> VBState:
    """Run the adapted variational Bayes algorithm to convergence.

    Stops when the largest absolute parameter change or the bound change in
    one iteration falls below ``tol``; ``stop_reason`` records which fired.

    With ``config.noisy`` the first ``freeze_X_after`` iterations also run
    the smoothing blocks, under the noisy registration weight; then the
    smoothed curves are frozen at ``freeze_iteration`` and the noiseless
    weight and bound take over (``freeze_X_after=0``: one smoothing pass
    first).  Stopping tests apply only after the freeze, and a post-freeze
    bound decrease is recorded in ``elbo_warnings``.
    """
    from . import smoothing

    data = np.asarray(data, dtype=float)
    config.validate(data.shape[0])
    wprior = WPrior(config, penalties, data.shape[0])
    noiseless_weight = registration_weight(config, penalties)
    n_smooth = 0
    if config.noisy:
        state = smoothing.avb_init_noisy(data, config, penalties)
        n_smooth = freeze_X_after
        if freeze_X_after == 0:
            smoothing.update_q_X(state, data, config, penalties)
    else:
        state = avb_init(data, config, penalties)

    for m in range(max_iters):
        smooth = m < n_smooth
        if config.noisy and not smooth and state.freeze_iteration is None:
            state.freeze_iteration = len(state.elbo_trace)
        prev = _param_vector(state)
        # after the freeze the smoothed curves are treated as known data, so
        # the weight reverts to the noiseless registration precision
        weight = smoothing.noisy_weight(state, config, penalties) if smooth \
            else noiseless_weight
        scan = rescan_every > 0 and m % rescan_every == 0
        registered = sweep(state, data, config, penalties, wprior, weight,
                           max_base_steps=max_base_steps, scan=scan,
                           smooth=smooth)
        state.elbo_trace.append(
            elbo(state, data, config, penalties, wprior, weight, registered))
        state.n_iterations = m + 1
        if smooth:
            continue
        delta = float(np.max(np.abs(_param_vector(state) - prev)))
        if delta < tol:
            state.converged = True
            state.stop_reason = "parameter_change"
            break
        if len(state.elbo_trace) - (state.freeze_iteration or 0) >= 2 and \
                abs(state.elbo_trace[-1] - state.elbo_trace[-2]) < tol:
            state.converged = True
            state.stop_reason = "elbo_change"
            break
    if not state.converged:
        state.stop_reason = "max_iters"
    if state.freeze_iteration is not None:
        drops = np.diff(state.elbo_trace[state.freeze_iteration:])
        if np.any(drops < -ELBO_DECREASE_TOL):
            state.elbo_warnings.append(
                f"bound decreased after freeze (worst step {drops.min():.3e})")
    return state
