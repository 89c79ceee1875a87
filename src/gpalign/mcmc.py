"""Metropolis-within-Gibbs sampler for the registration model.

One sweep redraws every conjugate block (target, shifts, scales, variance
components, and in the noisy model the latent smooth curves and noise
precisions) from its exact full conditional, over all N curves at once; then
one random-walk Metropolis pass with endpoint projection, symmetric in the
chart of the constraint manifold, evaluates all N current and proposed base
functions in one call of the AVB base objective and accepts by one mask.
Random numbers are drawn in curve order within each block (each curve's step,
then its uniform, in the pass), as a one-curve-at-a-time sampler draws them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NonFiniteDraw
from .model import (BaseObjectives, LatentState, ModelConfig, RegistrationWeight,
                    WPrior, registration_weight)
from .penalties import PenaltySet
from .warping import at_inverse_warps, curves_at_warps

ADAPT_INTERVAL = 25
ADAPT_LOW = 0.20
ADAPT_HIGH = 0.40


@dataclass
class ChainState:
    latent: LatentState
    rng: np.random.Generator
    step_sizes: np.ndarray
    accept_counts: np.ndarray
    propose_counts: np.ndarray

    @classmethod
    def create(cls, latent: LatentState, seed: int, step_scale: float) -> "ChainState":
        n = latent.n_curves
        return cls(
            latent=latent,
            rng=np.random.default_rng(seed),
            step_sizes=np.full(n, step_scale, dtype=float),
            accept_counts=np.zeros(n, dtype=int),
            propose_counts=np.zeros(n, dtype=int),
        )


@dataclass
class ChainOutput:
    """Thinned draws of every block plus acceptance diagnostics."""

    times: np.ndarray
    f: np.ndarray                    # (K, p)
    z0: np.ndarray                   # (K, N)
    z1: np.ndarray                   # (K, N)
    sigma_z0_sq: np.ndarray          # (K,)
    sigma_z1_sq: np.ndarray
    eta_f: np.ndarray
    lambda_f: np.ndarray
    w: np.ndarray                    # (K, N, p-1)
    registered: np.ndarray           # (K, N, p)
    acceptance_rates: np.ndarray     # (N,)
    seed: int
    iters: int
    burn_in: int
    thin: int
    config_echo: dict
    X: np.ndarray | None = None      # (K, N, p) noisy model
    sigma_Y_sq: np.ndarray | None = None
    eta_X: np.ndarray | None = None
    lambda_X: np.ndarray | None = None

    @property
    def n_draws(self) -> int:
        return self.f.shape[0]

    def registered_posterior_mean(self) -> np.ndarray:
        return self.registered.mean(axis=0)

    def credible_band(self, block: str = "f", level: float = 0.95):
        """Pointwise empirical quantiles of the thinned draws of one block."""
        draws = getattr(self, block)
        lo = 0.5 * (1.0 - level)
        return (np.quantile(draws, lo, axis=0),
                np.quantile(draws, 1.0 - lo, axis=0))

    def to_csv(self, directory) -> None:
        """One file per block, one row per stored draw."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        flat = {
            "f": self.f, "z0": self.z0, "z1": self.z1,
            "sigma_z0_sq": self.sigma_z0_sq[:, None],
            "sigma_z1_sq": self.sigma_z1_sq[:, None],
            "eta_f": self.eta_f[:, None], "lambda_f": self.lambda_f[:, None],
            "w": self.w.reshape(self.n_draws, -1),
            "registered": self.registered.reshape(self.n_draws, -1),
        }
        if self.X is not None:
            flat["X"] = self.X.reshape(self.n_draws, -1)
            flat["sigma_Y_sq"] = self.sigma_Y_sq[:, None]
            flat["eta_X"] = self.eta_X[:, None]
            flat["lambda_X"] = self.lambda_X[:, None]
        for name, arr in flat.items():
            with open(directory / f"draws_{name}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerows([[f"{v:.17g}" for v in row] for row in arr])


def _check_finite(value, block: str):
    if not np.all(np.isfinite(value)):
        raise NonFiniteDraw(block)
    return value


def _draw_ig(rng: np.random.Generator, shape: float, rate: float) -> float:
    return 1.0 / rng.gamma(shape, 1.0 / rate)


def registered_draws(latent: LatentState, data: np.ndarray,
                     penalties: PenaltySet) -> np.ndarray:
    """Every curve (the latent X in the noisy model) at its current warp."""
    curves = data if latent.X is None else latent.X
    return curves_at_warps(curves, latent.w, penalties.grid)


def current_weight(latent: LatentState, config: ModelConfig,
                   penalties: PenaltySet) -> RegistrationWeight:
    if config.noisy:
        return registration_weight(config, penalties, latent.eta_X, latent.lambda_X)
    return registration_weight(config, penalties)


def draw_f(latent: LatentState, registered: np.ndarray,
           weight: RegistrationWeight, penalties: PenaltySet,
           rng: np.random.Generator) -> np.ndarray:
    """The target from its Gaussian conditional, whose precision is diagonal
    in the penalty basis."""
    z1_sq = float(np.sum(latent.z1 ** 2))
    d = penalties.main.diagonal(z1_sq * weight.a + latent.eta_f,
                                z1_sq * weight.b + latent.lambda_f)
    rhs = weight.matrix @ (latent.z1[:, None]
                           * (registered - latent.z0[:, None])).sum(axis=0)
    z = rng.standard_normal(penalties.p)
    return _check_finite(penalties.main.draw(d, rhs, z), "f")


def z0_conditional(latent: LatentState, i: int | np.ndarray,
                   registered: np.ndarray, weight: RegistrationWeight) -> tuple:
    """Mean and variance of the i-th free shift given everything else; an
    index array ``i`` gives several means, which share the variance."""
    one_w = weight.matrix.sum(axis=0)
    quad = float(one_w.sum())
    var = 1.0 / (1.0 / latent.sigma_z0_sq + 2.0 * quad)
    d_i = registered[i] - registered[-1] \
        + np.expand_dims(latent.z1[-1] - latent.z1[i], -1) * latent.f
    others = float(np.sum(latent.z0[:-1])) - latent.z0[i]
    return var * (d_i @ one_w - others * quad), var


def draw_z0(latent: LatentState, registered: np.ndarray,
            weight: RegistrationWeight, rng: np.random.Generator) -> None:
    """The free shifts in turn, each given the current others: a shift's mean
    moves by -var * 1'W1 times the change of the shifts drawn before it."""
    n = latent.n_curves
    means, var = z0_conditional(latent, np.arange(n - 1), registered, weight)
    noise = np.sqrt(var) * rng.standard_normal(n - 1)
    pull = var * float(weight.matrix.sum())
    moved = 0.0
    for i in range(n - 1):
        new = means[i] - pull * moved + noise[i]
        moved += new - latent.z0[i]
        latent.z0[i] = new
    latent.enforce_sum_zero()
    _check_finite(latent.z0, "z0")


def z1_conditional(latent: LatentState, i: int | np.ndarray,
                   registered: np.ndarray, weight: RegistrationWeight) -> tuple:
    """Mean and variance of scale i given everything else; an index array
    ``i`` gives the means of several scales, which share the variance."""
    w_f = weight.matrix @ latent.f
    var = 1.0 / (1.0 / latent.sigma_z1_sq + float(latent.f @ w_f))
    loc = 1.0 / latent.sigma_z1_sq \
        + (registered[i] - np.expand_dims(latent.z0[i], -1)) @ w_f
    return var * loc, var


def draw_z1(latent: LatentState, registered: np.ndarray,
            weight: RegistrationWeight, rng: np.random.Generator) -> None:
    """All scales in one vector draw: given the other blocks they are
    independent."""
    means, var = z1_conditional(latent, np.arange(latent.n_curves), registered,
                                weight)
    latent.z1[:] = means + np.sqrt(var) * rng.standard_normal(latent.n_curves)
    _check_finite(latent.z1, "z1")


def draw_sigma_z0(latent: LatentState, config: ModelConfig,
                  rng: np.random.Generator) -> None:
    n = latent.n_curves
    shape = config.hyper.a + 0.5 * (n - 1)
    rate = config.hyper.b + 0.5 * float(np.sum(latent.z0[:-1] ** 2))
    latent.sigma_z0_sq = _check_finite(_draw_ig(rng, shape, rate), "sigma_z0_sq")


def draw_sigma_z1(latent: LatentState, config: ModelConfig,
                  rng: np.random.Generator) -> None:
    n = latent.n_curves
    shape = config.hyper.a + 0.5 * n
    rate = config.hyper.b + 0.5 * float(np.sum((latent.z1 - 1.0) ** 2))
    latent.sigma_z1_sq = _check_finite(_draw_ig(rng, shape, rate), "sigma_z1_sq")


def draw_eta_f(latent: LatentState, config: ModelConfig, penalties: PenaltySet,
               rng: np.random.Generator) -> None:
    rate = config.hyper.d + 0.5 * float(latent.f @ penalties.P1ginv @ latent.f)
    latent.eta_f = _check_finite(
        rng.gamma(config.hyper.c + 1.0, 1.0 / rate), "eta_f")


def draw_lambda_f(latent: LatentState, config: ModelConfig, penalties: PenaltySet,
                  rng: np.random.Generator) -> None:
    rate = config.hyper.d + 0.5 * float(latent.f @ penalties.P2ginv @ latent.f)
    shape = config.hyper.c + 0.5 * (penalties.p - 2)
    latent.lambda_f = _check_finite(rng.gamma(shape, 1.0 / rate), "lambda_f")


def draw_X(latent: LatentState, data: np.ndarray, config: ModelConfig,
           penalties: PenaltySet, rng: np.random.Generator) -> None:
    """Latent smooth curves from their Gaussian conditional (noisy model);
    all curves share the precision, diagonal in the penalty basis."""
    sx_inv = latent.eta_X * penalties.P1ginv + latent.lambda_X * penalties.P2ginv
    d = penalties.main.diagonal(latent.eta_X, latent.lambda_X,
                                1.0 / latent.sigma_Y_sq)
    anchor = latent.z0[:, None] + latent.z1[:, None] \
        * at_inverse_warps(latent.f, latent.w, penalties.grid)
    rhs = data / latent.sigma_Y_sq + (sx_inv @ anchor[:, :, None])[:, :, 0]
    z = rng.standard_normal((latent.n_curves, penalties.p))
    latent.X[:] = penalties.main.draw(d, rhs, z)
    _check_finite(latent.X, "X")


def draw_sigma_Y(latent: LatentState, data: np.ndarray, config: ModelConfig,
                 rng: np.random.Generator) -> None:
    n, p = data.shape
    shape = config.hyper.a + 0.5 * n * p
    rate = config.hyper.b + 0.5 * float(np.sum((data - latent.X) ** 2))
    latent.sigma_Y_sq = _check_finite(_draw_ig(rng, shape, rate), "sigma_Y_sq")


def draw_roughness_X(latent: LatentState, config: ModelConfig,
                     penalties: PenaltySet, rng: np.random.Generator) -> None:
    """Draw eta_X, then lambda_X.  Both rates are forms of the same smoothing
    residuals X_i - z0_i - z1_i f(h_i^{-1}), which eta_X does not enter."""
    r = latent.X - latent.z0[:, None] - latent.z1[:, None] \
        * at_inverse_warps(latent.f, latent.w, penalties.grid)
    rate = config.hyper.d + 0.5 * float(np.sum((r @ penalties.P1ginv) * r))
    shape = config.hyper.c + latent.n_curves
    latent.eta_X = _check_finite(rng.gamma(shape, 1.0 / rate), "eta_X")
    rate = config.hyper.d + 0.5 * float(np.sum((r @ penalties.P2ginv) * r))
    shape = config.hyper.c + 0.5 * latent.n_curves * (penalties.p - 2)
    latent.lambda_X = _check_finite(rng.gamma(shape, 1.0 / rate), "lambda_X")


def gibbs_sweep(state: ChainState, data: np.ndarray, config: ModelConfig,
                penalties: PenaltySet) -> ChainState:
    """Redraw every conjugate block from its full conditional, in order."""
    latent = state.latent
    rng = state.rng
    if config.noisy:
        draw_X(latent, data, config, penalties, rng)
    registered = registered_draws(latent, data, penalties)
    weight = current_weight(latent, config, penalties)
    latent.f = draw_f(latent, registered, weight, penalties, rng)
    if config.noisy:
        draw_sigma_Y(latent, data, config, rng)
        draw_roughness_X(latent, config, penalties, rng)
        weight = current_weight(latent, config, penalties)
    draw_z0(latent, registered, weight, rng)
    draw_sigma_z0(latent, config, rng)
    draw_z1(latent, registered, weight, rng)
    draw_sigma_z1(latent, config, rng)
    draw_eta_f(latent, config, penalties, rng)
    draw_lambda_f(latent, config, penalties, rng)
    return state


def proposal_log_ratios(latent: LatentState, steps: np.ndarray,
                        data: np.ndarray, config: ModelConfig,
                        penalties: PenaltySet,
                        wprior: WPrior) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint-projected proposals w_i + steps_i, one row per curve, and each
    curve's log-target at its proposal minus at its current point.  The
    log-target is the AVB base objective: registration kernel, always with
    the noiseless weight, plus base prior.  In the noisy model this omits the
    w-dependent roughness factor of ``model.log_joint``."""
    n = latent.n_curves
    curves = data if latent.X is None else latent.X
    targets = latent.z0[:, None] + latent.z1[:, None] * latent.f
    problem = BaseObjectives(curves, targets,
                             registration_weight(config, penalties).matrix,
                             [wprior.precision(i) for i in range(n)],
                             penalties.grid)
    rows = np.arange(n)
    points = problem.evaluate(np.vstack([latent.w, latent.w + steps]),
                              np.concatenate([rows, rows]))
    return points.w[n:], points.obj[n:] - points.obj[:n]


def metropolis_base(state: ChainState, data: np.ndarray, config: ModelConfig,
                    penalties: PenaltySet, wprior: WPrior) -> ChainState:
    """One random-walk Metropolis pass over every base function, drawing each
    curve's step and then its uniform in curve order.  Endpoint projection
    leaves a symmetric proposal on the constraint manifold, so the acceptance
    ratio is the plain kernel difference."""
    latent = state.latent
    rng, m = state.rng, latent.w.shape[1]
    normals, uniforms = zip(*[(rng.standard_normal(m), rng.uniform())
                              for _ in range(latent.n_curves)])
    proposals, delta = proposal_log_ratios(
        latent, state.step_sizes[:, None] * np.array(normals), data, config,
        penalties, wprior)
    accept = np.log(uniforms) < delta
    latent.w[accept] = proposals[accept]
    state.propose_counts += 1
    state.accept_counts += accept
    return state


def _init_latent(data: np.ndarray, config: ModelConfig, penalties: PenaltySet,
                 init) -> LatentState:
    n, p = data.shape
    if init is not None:
        latent = init.to_latent_state(noisy=config.noisy)
        if config.noisy and latent.X is None:
            latent.X = data.copy()
        return latent
    latent = LatentState(
        w=np.zeros((n, p - 1)),
        z0=np.zeros(n),
        z1=np.ones(n),
        f=data.mean(axis=0),
        sigma_z0_sq=1.0, sigma_z1_sq=1.0, eta_f=1.0, lambda_f=1.0,
    )
    if config.noisy:
        latent.X = data.copy()
        latent.sigma_Y_sq = 1.0
        latent.eta_X = 1.0
        latent.lambda_X = 1.0
    return latent


def run_chain(data: np.ndarray, config: ModelConfig, penalties: PenaltySet,
              iters: int, burn_in: int = 0, thin: int = 1,
              init=None, seed: int = 0, step_scale: float = 0.05,
              adapt: bool | None = None) -> ChainOutput:
    """Run the sampler and return thinned draws.

    Each iteration is one Gibbs sweep, then one Metropolis pass that
    proposes a new base function for every curve.  ``init`` may be a fitted
    VBState, which makes burn-in largely unnecessary.  Proposal scales adapt
    toward 20-40% acceptance during burn-in and are frozen afterwards.  Fully
    reproducible from the seed; within each block random numbers are drawn
    in curve order, so the chain is the one a curve-at-a-time sampler gives.
    """
    data = np.asarray(data, dtype=float)
    if burn_in < 0 or iters <= burn_in:
        raise ValueError("need iters > burn_in >= 0")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    config.validate(data.shape[0])
    if adapt is None:
        adapt = burn_in > 0

    n, p = data.shape
    latent = _init_latent(data, config, penalties, init)
    state = ChainState.create(latent, seed, step_scale)
    wprior = WPrior(config, penalties, n)

    n_store = (iters - burn_in) // thin
    out = ChainOutput(
        times=penalties.grid.points.copy(),
        f=np.empty((n_store, p)),
        z0=np.empty((n_store, n)), z1=np.empty((n_store, n)),
        sigma_z0_sq=np.empty(n_store), sigma_z1_sq=np.empty(n_store),
        eta_f=np.empty(n_store), lambda_f=np.empty(n_store),
        w=np.empty((n_store, n, p - 1)),
        registered=np.empty((n_store, n, p)),
        acceptance_rates=np.zeros(n),
        seed=seed, iters=iters, burn_in=burn_in, thin=thin,
        config_echo={
            "gamma_R": config.gamma_R,
            "gamma_w": np.atleast_1d(config.gamma_w).tolist(),
            "lambda_w": config.lambda_w, "noisy": config.noisy,
        },
    )
    if config.noisy:
        out.X = np.empty((n_store, n, p))
        out.sigma_Y_sq = np.empty(n_store)
        out.eta_X = np.empty(n_store)
        out.lambda_X = np.empty(n_store)

    window_start = state.accept_counts.copy()
    k = 0
    for it in range(1, iters + 1):
        gibbs_sweep(state, data, config, penalties)
        metropolis_base(state, data, config, penalties, wprior)

        if adapt and it <= burn_in and it % ADAPT_INTERVAL == 0:
            rates = (state.accept_counts - window_start) / ADAPT_INTERVAL
            state.step_sizes[rates < ADAPT_LOW] *= 0.7
            state.step_sizes[rates > ADAPT_HIGH] *= 1.4
            window_start = state.accept_counts.copy()

        if it > burn_in and (it - burn_in) % thin == 0:
            lt = state.latent
            out.f[k] = lt.f
            out.z0[k] = lt.z0
            out.z1[k] = lt.z1
            out.sigma_z0_sq[k] = lt.sigma_z0_sq
            out.sigma_z1_sq[k] = lt.sigma_z1_sq
            out.eta_f[k] = lt.eta_f
            out.lambda_f[k] = lt.lambda_f
            out.w[k] = lt.w
            out.registered[k] = registered_draws(lt, data, penalties)
            if config.noisy:
                out.X[k] = lt.X
                out.sigma_Y_sq[k] = lt.sigma_Y_sq
                out.eta_X[k] = lt.eta_X
                out.lambda_X[k] = lt.lambda_X
            k += 1

    denom = np.maximum(state.propose_counts, 1)
    out.acceptance_rates = state.accept_counts / denom
    return out
