"""Metropolis-within-Gibbs sampler for the registration model.

One sweep redraws every conjugate block (target, shifts, scales, variance
components, and in the noisy model the latent smooth curves and noise
precisions) from its exact full conditional: one pass, in ``ORDER``, over the
blocks' entries in ``model.BLOCKS``, each law read at the current values, over
all N curves at once.  A Gaussian block's law makes its draw from the
generator's normals; AVB's q-update is the same law at zero noise.  Then
one random-walk Metropolis pass with endpoint projection, symmetric in the
chart of the constraint manifold, evaluates all N current and proposed base
functions in one call of the AVB base objective and accepts by one mask.
Random numbers are drawn in curve order within each block (each curve's step,
then its uniform, in the pass), as a one-curve-at-a-time sampler draws them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, NonFiniteDraw
from .model import (BLOCKS, NOISY_BLOCKS, BaseObjectives, LatentState, ModelConfig,
                    Sweep, WPrior, _check_positive, check_level, curves_to_register,
                    registered_curves, registration_weight)
from .penalties import PenaltyForm, PenaltySet

ADAPT_INTERVAL = 25
ADAPT_LOW = 0.20
ADAPT_HIGH = 0.40
# the LatentState blocks a chain stores, in CSV order ("registered" follows,
# then model.NOISY_BLOCKS)
STORED = ("f", "z0", "z1", "sigma_z0_sq", "sigma_z1_sq", "eta_f", "lambda_f", "w")
# the sampler's order of the conjugate blocks; the noisy model draws X first
# and sigma_Y^2, eta_X, lambda_X right after f
ORDER = ("f", "z0", "sigma_z0_sq", "z1", "sigma_z1_sq", "eta_f", "lambda_f")
NOISY_ORDER = ("X", "f", "sigma_Y_sq", "eta_X", "lambda_X") + ORDER[1:]


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
        """Pointwise empirical quantiles of the thinned draws of one block;
        ``level`` must lie in (0, 1)."""
        check_level(level)
        draws = getattr(self, block)
        lo = 0.5 * (1.0 - level)
        return (np.quantile(draws, lo, axis=0),
                np.quantile(draws, 1.0 - lo, axis=0))

    def to_csv(self, directory) -> None:
        """One file per block, one row per stored draw."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        names = STORED + ("registered",) + (NOISY_BLOCKS if self.X is not None else ())
        for name in names:
            arr = getattr(self, name).reshape(self.n_draws, -1)
            with open(directory / f"draws_{name}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerows([[f"{v:.17g}" for v in row] for row in arr])


def _check_finite(value, block: str):
    finite = math.isfinite(value) if isinstance(value, float) \
        else np.all(np.isfinite(value))
    if not finite:
        raise NonFiniteDraw(block)
    return value


def draw_block(s: Sweep, name: str, rng: np.random.Generator) -> None:
    """Redraw block ``name`` of the sweep's state from its full conditional:
    a Gaussian law draws from ``rng``'s normals (z0's value is the free
    shifts, and the N-th follows from the zero sum), a gamma or inverse-gamma
    law gives the shape and rate drawn from here."""
    kind, law = BLOCKS[name]
    if kind == "gaussian":
        value, _ = law(s, rng.standard_normal)
    else:
        shape, rate = law(s)
        value = rng.gamma(shape, 1.0 / rate)
        if kind == "inverse_gamma":
            value = 1.0 / value
    setattr(s.state, "z0_free" if name == "z0" else name, _check_finite(value, name))


def gibbs_sweep(state: ChainState, data: np.ndarray, config: ModelConfig,
                penalties: PenaltySet, weight: PenaltyForm) -> ChainState:
    """Redraw every conjugate block, in ``NOISY_ORDER`` or ``ORDER``.

    ``weight`` is the noiseless registration weight, formed once per chain by
    ``metropolis_target``; a noisy chain reads its weight at the current
    eta_X and lambda_X instead, so anew once it has redrawn them.
    """
    s = Sweep(state.latent, data, config, penalties, None if config.noisy else weight)
    for name in NOISY_ORDER if config.noisy else ORDER:
        draw_block(s, name, state.rng)
    return state


def metropolis_target(config: ModelConfig, penalties: PenaltySet,
                      n_curves: int) -> tuple[PenaltyForm, list[PenaltyForm]]:
    """The noiseless registration weight and every curve's base prior, the
    forms the Metropolis pass scores base functions by; a chain forms them
    once."""
    wprior = WPrior(config, penalties)
    return registration_weight(config, penalties), \
        [wprior.form(i) for i in range(n_curves)]


def proposal_log_ratios(latent: LatentState, steps: np.ndarray,
                        data: np.ndarray, penalties: PenaltySet,
                        weight: PenaltyForm, priors: list[PenaltyForm]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint-projected proposals w_i + steps_i, one row per curve, and each
    curve's log-target at its proposal minus at its current point.  The
    log-target is the AVB base objective: registration kernel under
    ``weight``, always the noiseless weight, plus base prior (``priors``, from
    ``metropolis_target``).  In the noisy model this omits the w-dependent
    roughness factor of ``model.log_joint``."""
    n = latent.n_curves
    targets = latent.z0[:, None] + latent.z1[:, None] * latent.f
    problem = BaseObjectives(curves_to_register(latent, data), targets, weight, priors, penalties.grid)
    rows = np.arange(n)
    points = problem.evaluate(np.vstack([latent.w, latent.w + steps]),
                              np.concatenate([rows, rows]))
    return points.w[n:], points.obj[n:] - points.obj[:n]


def metropolis_base(state: ChainState, data: np.ndarray, penalties: PenaltySet,
                    weight: PenaltyForm, priors: list[PenaltyForm]) -> ChainState:
    """One random-walk Metropolis pass over every base function, drawing each
    curve's step and then its uniform in curve order.  Endpoint projection
    leaves a symmetric proposal on the constraint manifold, so the acceptance
    ratio is the plain kernel difference."""
    latent = state.latent
    rng, m = state.rng, latent.w.shape[1]
    normals, uniforms = zip(*[(rng.standard_normal(m), rng.uniform())
                              for _ in range(latent.n_curves)])
    proposals, delta = proposal_log_ratios(
        latent, state.step_sizes[:, None] * np.array(normals), data, penalties,
        weight, priors)
    accept = np.log(uniforms) < delta
    latent.w[accept] = proposals[accept]
    state.propose_counts += 1
    state.accept_counts += accept
    return state


def _init_latent(data: np.ndarray, config: ModelConfig, init) -> LatentState:
    n, p = data.shape
    if init is not None:
        if config.noisy and init.mu_X is None:
            raise ValueError("a noisy chain needs a noisy init fit (init.mu_X is None)")
        return init.to_latent_state(noisy=config.noisy)
    noisy_blocks = dict(X=data.copy(), sigma_Y_sq=1.0, eta_X=1.0,
                        lambda_X=1.0) if config.noisy else {}
    return LatentState(w=np.zeros((n, p - 1)), z0=np.zeros(n), z1=np.ones(n),
                       f=data.mean(axis=0), sigma_z0_sq=1.0, sigma_z1_sq=1.0,
                       eta_f=1.0, lambda_f=1.0, **noisy_blocks)


def check_chain_args(iters: int, burn_in: int, thin: int, step_scale: float) -> None:
    """Raise ValueError unless a chain of ``iters`` iterations, ``burn_in``
    of them discarded and every ``thin``-th kept, stores at least one draw,
    and its proposal ``step_scale`` is finite and positive."""
    _check_positive("step_scale", step_scale)
    if burn_in < 0 or iters <= burn_in:
        raise ValueError("need iters > burn_in >= 0")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if thin > iters - burn_in:
        raise ValueError(f"thin {thin} exceeds iters - burn_in = {iters - burn_in}, "
                         "so no draw would be stored")


def run_chain(data: np.ndarray, config: ModelConfig, penalties: PenaltySet,
              iters: int, burn_in: int = 0, thin: int = 1,
              init=None, seed: int = 0, step_scale: float = 0.05) -> ChainOutput:
    """Run the sampler and return thinned draws.

    Each iteration is one Gibbs sweep, then one Metropolis pass that
    proposes a new base function for every curve.  ``init`` may be a fitted
    VBState (a noisy fit for a noisy chain), which makes burn-in largely
    unnecessary.  Proposal scales adapt
    toward 20-40% acceptance during burn-in and are frozen afterwards.  Fully
    reproducible from the seed; within each block random numbers are drawn
    in curve order, so the chain is the one a curve-at-a-time sampler gives.
    """
    data = np.asarray(data, dtype=float)
    check_chain_args(iters, burn_in, thin, step_scale)
    if not np.all(np.isfinite(data)):
        raise DimensionMismatch("data contains non-finite values")
    config.validate(data.shape[0])

    n, p = data.shape
    latent = _init_latent(data, config, init)
    state = ChainState.create(latent, seed, step_scale)
    weight, priors = metropolis_target(config, penalties, n)

    n_store = (iters - burn_in) // thin
    blocks = STORED + NOISY_BLOCKS if config.noisy else STORED
    out = ChainOutput(
        times=penalties.grid.points.copy(),
        **{name: np.empty((n_store,) + np.shape(getattr(latent, name)))
           for name in blocks},
        registered=np.empty((n_store, n, p)),
        acceptance_rates=np.zeros(n),
        seed=seed, iters=iters, burn_in=burn_in, thin=thin,
        config_echo={
            "gamma_R": config.gamma_R,
            "gamma_w": np.atleast_1d(config.gamma_w).tolist(),
            "lambda_w": config.lambda_w, "noisy": config.noisy,
        },
    )

    window_start = state.accept_counts.copy()
    k = 0
    for it in range(1, iters + 1):
        gibbs_sweep(state, data, config, penalties, weight)
        metropolis_base(state, data, penalties, weight, priors)

        if it <= burn_in and it % ADAPT_INTERVAL == 0:
            rates = (state.accept_counts - window_start) / ADAPT_INTERVAL
            state.step_sizes[rates < ADAPT_LOW] *= 0.7
            state.step_sizes[rates > ADAPT_HIGH] *= 1.4
            window_start = state.accept_counts.copy()

        if it > burn_in and (it - burn_in) % thin == 0:
            for name in blocks:
                getattr(out, name)[k] = getattr(state.latent, name)
            out.registered[k] = registered_curves(state.latent, data, penalties)
            k += 1

    denom = np.maximum(state.propose_counts, 1)
    out.acceptance_rates = state.accept_counts / denom
    return out
