"""Adapted variational Bayes: closed-form coordinate updates for every
conjugate block, numerical maximization for the base functions, and an
evidence-lower-bound trace for convergence monitoring.

Each iteration performs (step 2) a projected gradient ascent on the base
functions with the other blocks held at their q-means, then (step 3) exact
mean-field updates for q(f), q(z0), q(z1), q(eta_f), q(lambda_f),
q(sigma_z0^2), q(sigma_z1^2), in that order (``ORDER``): one pass over the
blocks' entries in ``model.BLOCKS``, each setting q to the block's law at the
q-means and the variances q carries.  A Gaussian block's update is the
sampler's draw from its law at zero noise.
Given the q-means the N base functions are independent problems of one
shape, so step 2 is one batched ascent over (N, p-1) arrays in which every
curve keeps its own step size, backtracking (two trials per call) and
stopping rule.  Because every step-3 update is the exact argmax of the bound
in its block and step 2 never decreases any curve's w-dependent part, the
recorded bound is non-decreasing for the noiseless model.

q(f) and q(X) keep each covariance as its eigenvalues (``var_f``, ``var_X``)
in the penalty basis, so an expected quadratic form is the mean's form plus a
weighted sum of them, and the bound's log-determinant is a sum of logs.

``avb_fit`` is the fitter for both models: with ``config.noisy`` the init
also sets the smoothing blocks, and the first sweeps (the smoothing stage)
walk ``SMOOTHING_ORDER``, which adds q(X) before q(f) and q(sigma_Y^2),
q(eta_X), q(lambda_X) at the end.  ``avb_fit_noisy`` and ``presmooth_only``
are shorthands for its noisy fit.

The bound is ``model.FACTORS`` read under q plus each q block's entropy.  Its
digamma and log-gamma, at scalar shapes only, are ``model.digamma`` and
``math.lgamma``, so the fitter needs no special-function library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, InconsistentGrid, SingularPrecision
from .model import (BLOCKS, FACTORS, LatentState, ModelConfig, Sweep, WPrior,
                    curves_to_register, digamma, maximize_base_functions,
                    registration_weight)
from .penalties import PenaltyForm, PenaltySet

# AVB's order of the step-3 updates; the smoothing stage adds q(X) first and
# the noise and roughness blocks last
ORDER = ("f", "z0", "z1", "eta_f", "lambda_f", "sigma_z0_sq", "sigma_z1_sq")
SMOOTHING_ORDER = ("X",) + ORDER + ("sigma_Y_sq", "eta_X", "lambda_X")
# the fields q keeps a block's law in: a Gaussian's mean and variances, a
# gamma's or an inverse gamma's shape and rate
Q_FIELDS = {"f": ("mu_f", "var_f"), "z0": ("mu_z0", "var_z0"), "z1": ("mu_z1", "var_z1"),
            "X": ("mu_X", "var_X"),
            "sigma_z0_sq": ("a_q_sigma_z0", "b_q_sigma_z0"),
            "sigma_z1_sq": ("a_q_sigma_z1", "b_q_sigma_z1"),
            "sigma_Y_sq": ("a_q_sigma_Y", "b_q_sigma_Y"),
            "eta_f": ("c_q_eta_f", "d_q_eta_f"), "lambda_f": ("c_q_lambda_f", "d_q_lambda_f"),
            "eta_X": ("c_q_eta_X", "d_q_eta_X"), "lambda_X": ("c_q_lambda_X", "d_q_lambda_X")}


@dataclass
class VBState:
    """All q-distribution parameters plus point estimates of base functions."""

    mu_f: np.ndarray
    var_f: np.ndarray            # q(f) covariance eigenvalues in the penalty basis
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
    var_X: np.ndarray | None = None  # shared q(X_i) covariance, likewise
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

    def var_z0_full(self) -> np.ndarray:
        """Variances of every shift, including the derived one."""
        return np.append(self.var_z0, np.sum(self.var_z0))

    # the q-means under the blocks' LatentState names, as a model.Sweep reads
    # them, and E[1/sigma^2] of the variance blocks
    w = property(lambda self: self.w_hat)
    f = property(lambda self: self.mu_f)
    z0 = property(mu_z0_full)
    z0_free = property(lambda self: self.mu_z0)
    z1 = property(lambda self: self.mu_z1)
    X = property(lambda self: self.mu_X)
    eta_f = property(lambda self: self.c_q_eta_f / self.d_q_eta_f)
    lambda_f = property(lambda self: self.c_q_lambda_f / self.d_q_lambda_f)
    eta_X = property(lambda self: self.c_q_eta_X / self.d_q_eta_X)
    lambda_X = property(lambda self: self.c_q_lambda_X / self.d_q_lambda_X)
    inv_sigma_z0_sq = property(lambda self: self.a_q_sigma_z0 / self.b_q_sigma_z0)
    inv_sigma_z1_sq = property(lambda self: self.a_q_sigma_z1 / self.b_q_sigma_z1)
    inv_sigma_Y_sq = property(lambda self: self.a_q_sigma_Y / self.b_q_sigma_Y)

    def log_precision(self, name: str) -> float:
        """E[log tau] of scalar block ``name``, tau the precision or the
        variance's inverse: q(tau) is gamma with the block's shape and rate."""
        shape, rate = (getattr(self, field_name) for field_name in Q_FIELDS[name])
        return digamma(shape) - math.log(rate)

    def to_latent_state(self, noisy: bool = False) -> LatentState:
        """Point-estimate latent state, e.g. for initializing a sampler."""
        noisy_blocks = dict(
            X=self.mu_X.copy(), sigma_Y_sq=self.b_q_sigma_Y / self.a_q_sigma_Y,
            eta_X=self.eta_X, lambda_X=self.lambda_X) if noisy else {}
        return LatentState(
            w=self.w_hat.copy(), z0=self.mu_z0_full(), z1=self.mu_z1.copy(),
            f=self.mu_f.copy(), sigma_z0_sq=self.b_q_sigma_z0 / self.a_q_sigma_z0,
            sigma_z1_sq=self.b_q_sigma_z1 / self.a_q_sigma_z1,
            eta_f=self.eta_f, lambda_f=self.lambda_f, **noisy_blocks)


def avb_init(data, config: ModelConfig, penalties: PenaltySet) -> VBState:
    """Identity warps, cross-sectional-mean target, prior-valued q parameters;
    with ``config.noisy`` also the smoothing blocks, q(X) centred on the data."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != penalties.p:
        raise InconsistentGrid(
            f"data shape {data.shape} does not match grid with p={penalties.p}"
        )
    n = data.shape[0]
    if n < 2:
        raise InconsistentGrid("need at least 2 curves")
    if not np.all(np.isfinite(data)):
        raise DimensionMismatch("data contains non-finite values")
    p = penalties.p
    # each scalar block's q starts at its prior
    priors = {field_name: value
              for name in (SMOOTHING_ORDER if config.noisy else ORDER)
              if BLOCKS[name].kind != "gaussian"
              for field_name, value in zip(Q_FIELDS[name],
                                           config.hyper.prior(BLOCKS[name].kind))}
    smoothing_blocks = dict(mu_X=data.copy(), var_X=np.zeros(p)) if config.noisy else {}
    return VBState(
        mu_f=data.mean(axis=0),
        var_f=np.zeros(p),
        mu_z0=np.zeros(n - 1),
        var_z0=np.zeros(n - 1),
        mu_z1=np.ones(n),
        var_z1=np.zeros(n),
        w_hat=np.zeros((n, p - 1)),
        **smoothing_blocks,
        **priors,
    )


def _entropy(state: VBState, name: str) -> float:
    """Entropy of q's block ``name`` up to a constant, from its ``Q_FIELDS``
    (a, b): a Gaussian's variances b, a gamma's or inverse gamma's shape a and
    rate b."""
    kind = BLOCKS[name].kind
    a, b = (getattr(state, field_name) for field_name in Q_FIELDS[name])
    if kind == "gaussian":
        if np.any(b <= 0.0):
            raise SingularPrecision(f"q({name}) covariance is not positive definite")
        return 0.5 * float(np.sum(np.log(b))) + 0.5 * b.size
    if kind == "gamma":
        return a - math.log(b) + math.lgamma(a) + (1.0 - a) * digamma(a)
    return a + math.log(b) + math.lgamma(a) - (1.0 + a) * digamma(a)


def elbo(state: VBState, data: np.ndarray, config: ModelConfig,
         penalties: PenaltySet, wprior: WPrior | None = None,
         weight: PenaltyForm | None = None,
         registered: np.ndarray | None = None) -> float:
    """Evidence lower bound of the noiseless model, E_q[log joint] + H[q] up to
    a constant: ``model.FACTORS`` under q, the registration kernel under
    ``weight`` (default: noiseless), plus each ``ORDER`` block's entropy.
    Valid once a full update sweep has run.  In the noisy fit's smoothing
    stage it reads these noiseless factors under the noisy weight at q(X)'s
    means."""
    if weight is None:
        weight = registration_weight(config, penalties)
    s = Sweep(state, data, config, penalties, weight, wprior)
    if registered is not None:
        s.registered = registered
    return sum(_entropy(state, name) for name in ORDER) \
        + sum(factor(s) for factor in FACTORS.values())


def sweep(state: VBState, data: np.ndarray, config: ModelConfig,
          penalties: PenaltySet, wprior: WPrior, weight: PenaltyForm,
          max_base_steps: int, scan: bool = False,
          blocks: tuple[str, ...] = ORDER) -> np.ndarray:
    """One full AVB iteration (base maximization then ordered q updates).

    The base functions of all curves are maximized in one batched ascent,
    skipped when ``max_base_steps == 0``; a curve keeps its incumbent when no
    ascent direction is found, and one whose result moved without improving
    its objective (re-projection round-off) is counted in
    ``state.line_search_failures``.  Then q is set to the law of each of
    ``blocks`` in turn (``SMOOTHING_ORDER`` in the smoothing stage), under the
    registration ``weight``, a Gaussian block's at zero noise; the free shifts
    are updated one at a time, each given the ones updated before it.
    Returns the registered curves at the new base functions so callers can
    reuse them for the bound.
    """
    if max_base_steps > 0:
        targets = state.mu_z0_full()[:, None] + state.mu_z1[:, None] * state.mu_f
        k_priors = [wprior.form(i) for i in range(state.n_curves)]
        w, _, improved = maximize_base_functions(
            state.w_hat, curves_to_register(state, data), targets, weight, k_priors,
            penalties.grid, max_steps=max_base_steps,
            scan_rounds=2 if scan else 0)
        moved = np.any(w != state.w_hat, axis=1)
        state.line_search_failures += int(np.sum(moved & ~improved))
        state.w_hat = w
    s = Sweep(state, data, config, penalties, weight)
    for name in blocks:
        kind, law = BLOCKS[name]
        for field_name, value in zip(Q_FIELDS[name],
                                     law(s, np.zeros) if kind == "gaussian" else law(s)):
            setattr(state, field_name, value)
    return s.registered


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
    if freeze_X_after < 0:
        raise ValueError(f"freeze_X_after must be >= 0, got {freeze_X_after}")
    data = np.asarray(data, dtype=float)
    config.validate(data.shape[0])
    wprior = WPrior(config, penalties)
    noiseless_weight = registration_weight(config, penalties)
    state = avb_init(data, config, penalties)
    n_smooth = freeze_X_after if config.noisy else 0
    if config.noisy and freeze_X_after == 0:
        sweep(state, data, config, penalties, wprior, noiseless_weight, 0,
              blocks=("X",))
        state.freeze_iteration = 0

    for m in range(max_iters):
        smooth = m < n_smooth
        prev = _param_vector(state)
        # after the freeze the smoothed curves are treated as known data, so
        # the weight reverts to the noiseless registration precision
        weight = registration_weight(config, penalties, state.eta_X, state.lambda_X) \
            if smooth else noiseless_weight
        scan = rescan_every > 0 and m % rescan_every == 0
        registered = sweep(state, data, config, penalties, wprior, weight,
                           max_base_steps=max_base_steps, scan=scan,
                           blocks=SMOOTHING_ORDER if smooth else ORDER)
        state.elbo_trace.append(
            elbo(state, data, config, penalties, wprior, weight, registered))
        state.n_iterations = m + 1
        if smooth:
            if state.n_iterations == n_smooth:  # the smoothing stage ends here
                state.freeze_iteration = len(state.elbo_trace)
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


def avb_fit_noisy(data, config: ModelConfig, penalties: PenaltySet,
                  tol: float = 1e-6, max_iters: int = 500,
                  freeze_X_after: int = 5) -> VBState:
    """Simultaneous smoothing and registration: ``avb_fit`` with the noisy
    model switched on, smoothing for ``freeze_X_after`` iterations."""
    return avb_fit(data, replace(config, noisy=True), penalties,
                   tol=tol, max_iters=max_iters, freeze_X_after=freeze_X_after)


def presmooth_only(data, config: ModelConfig, penalties: PenaltySet,
                   freeze_X_after: int = 25) -> VBState:
    """The smoothing stage of the noisy fit alone: its first
    ``freeze_X_after`` sweeps without the base step, so every warp stays the
    identity.  The fit stops at the freeze, after which the smoothed curves
    would no longer change (``stop_reason`` is ``max_iters``, and
    ``freeze_iteration`` equals ``n_iterations``).

    This is the cautionary pre-processing pipeline: smooth first, then
    register the smoothed curves with the noiseless model, and compare the
    resulting uncertainty with the simultaneous fit.
    """
    return avb_fit(data, replace(config, noisy=True), penalties,
                   max_iters=freeze_X_after, max_base_steps=0,
                   freeze_X_after=freeze_X_after)
