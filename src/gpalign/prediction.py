"""Prediction of partially observed curves within the registration model.

A new curve observed on a prefix of the grid is registered against a truncated
target by ``select_final_time``, the one registration entry: it registers the
curve at every candidate final registration time of a window (a one-candidate
window fixes t_f) and keeps the candidate minimizing the L2 distance between
the partial observation and the target read off at inverse-warp times.  The
registration runs the model's batched base-function ascent on the truncated
domain.  It takes a stack of targets, and registers every (candidate, target)
pair as the rows of one ascent, each on its candidate's nodes (the node sets
differ in length, so the rows are padded to the longest): the bootstrap
registers its point target and every resampled target at every candidate in
one call.  Multivariate normal laws fitted to the training sample then
complete the registered and warp blocks by Gaussian conditioning:

- the registered block: the law of the training registered curves, conditioned
  on the partial curve at the warped prefix nodes;
- the warp block: the law of the training warps' values at the interior grid
  nodes, conditioned on the completed warp's prefix values at the grid nodes up
  to the first node at or after t_f.  That prefix is built from the partial
  fit, so its value at t_f is t_r exactly.  Warp values, unlike the partial
  fit's log-slopes, mean the same thing for the training fits and the partial
  fit.  The warp law's covariance is shrunk toward a Brownian bridge (the warp
  covariance of independent log-slopes with both endpoints fixed), since a
  handful of training curves gives a rank-deficient sample covariance.

The conditional warp suffix is turned back into log-slopes, which are shifted
so the full-domain warp constraint holds (only the unobserved cells are
shifted, which preserves the fitted prefix warp exactly), and the complete
unregistered curve is the completed registered curve composed with the inverse
completed warp (``warping``'s one inverse-composition kernel).  Completion
takes one row per result: ``predict_complete`` completes one selected fit as
two rows, by conditioning and by the laws' unconditional means (the marginal
baseline).  Bootstrap resampling of the whole pipeline yields pointwise
confidence bands for all three functions; each outer iteration completes its
S futures as the rows of one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, DimensionMismatch, EmptyWindow, OptimizerFailure
from .model import (ModelConfig, WPrior, check_level, maximize_base_functions,
                    new_curve_shift_law, registration_weight, scale_law)
from .penalties import PenaltySet, TimeGrid, build_penalty_set, build_time_grid
from .warping import _compose_inverse, _interp_rows, project_endpoint, warp_from_base

RIDGE_FRACTION = 1e-6
# weight of the Brownian-bridge target in the warp law, relative to the mean
# variance of the training warps; held-out completions of criterion 7's design
# (seeds 200-249) win most often for weights between 0.5 and 2
WARP_SHRINKAGE = 1.0
# smallest slope a conditional warp suffix keeps, so the completion stays
# strictly increasing
_MIN_WARP_SLOPE = 1e-3
_TIME_TOL = 1e-9
# projected-gradient steps per outer iteration of a partial registration
_MAX_BASE_STEPS = 20


@dataclass(frozen=True)
class EmpiricalLaw:
    """Sample mean/covariance of registered curves and of base functions.

    ``base_samples`` keeps the training base functions themselves: the warp
    law used for completion is built from them once the grid is known.
    """

    mu_reg: np.ndarray
    cov_reg: np.ndarray
    mu_base: np.ndarray
    cov_base: np.ndarray
    base_samples: np.ndarray


@dataclass(frozen=True)
class PartialObservation:
    """Values of a new curve at a prefix t_1..t_r of the grid, r < p."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.shape[0] < 2:
            raise ValueError("partial observation needs at least 2 values")
        if not np.all(np.isfinite(v)):
            raise DimensionMismatch("partial observation contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def r(self) -> int:
        return self.values.shape[0]


@dataclass
class PartialFit:
    """Single-curve registration of a partial observation to a truncated target."""

    t_f: float
    nodes: np.ndarray            # registered-time nodes: grid prefix (+ t_f if off-grid)
    w: np.ndarray                # base values at nodes[:-1]
    warp: np.ndarray             # h(nodes), increasing from t_1 to t_r
    z0: float
    z1: float
    registered_nodes: np.ndarray  # partial curve at warped node times
    obs_grid_count: int          # leading grid coordinates covered by the fit
    distance: float              # selection metric d_{t_f}
    objective: float


@dataclass
class PredictionResult:
    t_f: float
    registered_full: np.ndarray   # (p,)
    warp_full: np.ndarray         # (p,), monotone with exact endpoints
    base_full: np.ndarray         # (p-1,)
    unregistered_full: np.ndarray  # (p,)
    z0: float
    z1: float
    obs_grid_count: int
    fallback_projection: bool = False


@dataclass
class BootstrapBands:
    """Pointwise quantile bands over M*S bootstrapped prediction pipelines."""

    times: np.ndarray
    level: float
    M: int
    S: int
    skipped: int
    skip_reasons: dict[str, int]  # skipped outer iterations by exception class
    seed: int
    point: PredictionResult
    registered_lower: np.ndarray
    registered_upper: np.ndarray
    warp_lower: np.ndarray
    warp_upper: np.ndarray
    unregistered_lower: np.ndarray
    unregistered_upper: np.ndarray


def fit_empirical_laws(registered_estimates: np.ndarray,
                       base_estimates: np.ndarray,
                       ridge_fraction: float | None = None) -> EmpiricalLaw:
    """Sample means and ridge-stabilized sample covariances of the training fits.

    Each covariance gets ``ridge_fraction`` times its mean diagonal added to
    its diagonal.  The default fraction, 1e-6, only restores positive
    definiteness (with N below p the raw sample covariances are singular).
    For conditioning on long prefixes a heavier shrinkage (``ridge_fraction``
    around 0.05) guards against the rank-deficient gain chasing noise in the
    observed block; held-out completions degrade markedly under the minimal
    ridge.

    The registered law is what the registered block is conditioned on.  The
    base law gives the marginal completion and the bootstrap's resampled
    training sets.  The warp block is conditioned on the law of the warps
    built from ``base_estimates``, whose covariance is shrunk toward a Brownian
    bridge instead of ridged (``base_samples`` keeps them, since the warps need
    the grid).
    """
    reg = np.asarray(registered_estimates, dtype=float)
    base = np.asarray(base_estimates, dtype=float)
    if reg.ndim != 2 or reg.shape[0] < 2:
        raise DegenerateSample("need at least 2 estimated curves")
    if base.shape[0] != reg.shape[0] or base.shape[1] != reg.shape[1] - 1:
        raise DegenerateSample("base estimates must be (N, p-1)")

    frac = RIDGE_FRACTION if ridge_fraction is None else ridge_fraction

    def _law(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mu = matrix.mean(axis=0)
        cov = np.cov(matrix, rowvar=False, ddof=1)
        cov = np.atleast_2d(0.5 * (cov + cov.T))
        lam = frac * float(np.mean(np.diag(cov)))
        return mu, cov + lam * np.eye(cov.shape[0])

    mu_r, cov_r = _law(reg)
    mu_b, cov_b = _law(base)
    return EmpiricalLaw(mu_reg=mu_r, cov_reg=cov_r, mu_base=mu_b, cov_base=cov_b,
                        base_samples=base.copy())


def _warp_law(base_samples: np.ndarray,
              grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Mean and shrunk covariance of the samples' warps at the interior nodes.

    Each base function is endpoint-projected and mapped to its warp; the values
    at t_2..t_{p-1} are the law's coordinates (the endpoints are fixed).  The
    sample covariance is shrunk toward a Brownian bridge: the covariance of
    warps whose log-slopes are independent with equal variance, pinned at both
    ends, cov(h_i, h_j) = min(s_i, s_j) - s_i s_j / s_p with s_j the cumulative
    sum of squared cell widths.  The target is scaled to ``WARP_SHRINKAGE``
    times the mean sample variance.
    """
    t = grid.points
    base = np.atleast_2d(np.asarray(base_samples, dtype=float))
    warps = warp_from_base(project_endpoint(base, grid), grid)[:, 1:-1]
    mu = warps.mean(axis=0)
    cov = np.atleast_2d(np.cov(warps, rowvar=False, ddof=1))
    s = np.cumsum(np.diff(t) ** 2)
    bridge = np.minimum.outer(s[:-1], s[:-1]) - np.outer(s[:-1], s[:-1]) / s[-1]
    scale = WARP_SHRINKAGE * float(np.mean(np.diag(cov))) / float(np.mean(np.diag(bridge)))
    return mu, 0.5 * (cov + cov.T) + scale * bridge


def conditional_mvn(mu: np.ndarray, cov: np.ndarray, observed_idx,
                    observed_values) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditioning of the unobserved block on the observed block.

    Returns the conditional mean and covariance of the complementary indices.
    An observed block that is not positive definite is inverted by its
    pseudoinverse (degenerate directions carry no information).
    """
    mu = np.asarray(mu, dtype=float)
    cov = np.asarray(cov, dtype=float)
    obs = np.asarray(observed_idx, dtype=int)
    vals = np.asarray(observed_values, dtype=float)
    mask = np.ones(mu.shape[0], dtype=bool)
    mask[obs] = False
    un = np.where(mask)[0]
    if un.size == 0:
        return np.empty(0), np.empty((0, 0))
    c_oo = cov[np.ix_(obs, obs)]
    c_uo = cov[np.ix_(un, obs)]
    c_uu = cov[np.ix_(un, un)]
    resid = vals - mu[obs]
    try:
        chol = np.linalg.cholesky(c_oo)
        gain = np.linalg.solve(chol.T, np.linalg.solve(chol, c_uo.T)).T
    except np.linalg.LinAlgError:
        gain = c_uo @ np.linalg.pinv(c_oo, hermitian=True)
    mean = mu[un] + gain @ resid
    cond_cov = c_uu - gain @ c_uo.T
    return mean, 0.5 * (cond_cov + cond_cov.T)


def _truncation_nodes(grid: TimeGrid, t_f: float) -> tuple[np.ndarray, int]:
    """Registered-time nodes up to t_f and the count of full-grid coordinates
    they cover."""
    t = grid.points
    tol = _TIME_TOL * max(grid.span, 1.0)
    if t_f <= t[0] + tol or t_f >= t[-1] + tol:
        raise ValueError(f"registration time {t_f!r} outside ({t[0]!r}, {t[-1]!r}]")
    n_below = int(np.sum(t < t_f - tol))
    on_grid = n_below < t.shape[0] and abs(t[n_below] - t_f) <= tol
    if on_grid:
        nodes = t[:n_below + 1].copy()
        obs_grid_count = n_below + 1
    else:
        nodes = np.append(t[:n_below], t_f)
        obs_grid_count = n_below
    if nodes.shape[0] < 3:
        raise ValueError(f"registration time {t_f!r} leaves too few nodes")
    return nodes, obs_grid_count


def _register_candidates(partial: PartialObservation, targets_full: np.ndarray,
                         cands, grid: TimeGrid, config: ModelConfig,
                         penalties: PenaltySet, sigma_z0_sq: float,
                         sigma_z1_sq: float, n_iters: int) -> list[list]:
    """Register every row of ``targets_full`` (R, p) at every final time in
    ``cands``; entry [c][i] is row i's PartialFit at candidate c, or the
    OptimizerFailure that pair raises alone.

    Every candidate's nodes are checked, and its penalties built, before any
    ascent.  The (candidate, row) pairs are the rows of one batched ascent,
    each on its candidate's nodes (padded to the longest set, see
    ``model.BaseObjectives``).  Shift and scale take their laws in ``model``
    under each pair's candidate weight, and each pair keeps its own stopping
    rule.
    """
    t = grid.points
    r = partial.r
    if r >= t.shape[0]:
        raise ValueError("partial observation must cover fewer points than the grid")
    t_obs = t[:r]
    t_r = t_obs[-1]
    x = partial.values
    node_sets, grid_counts = zip(*[_truncation_nodes(grid, c) for c in cands])
    sizes = np.array([nodes.shape[0] for nodes in node_sets])

    n_rows, n_pairs = targets_full.shape[0], len(cands) * targets_full.shape[0]
    width = sizes.max()
    cand_of = np.repeat(np.arange(len(cands)), n_rows)
    targets = np.zeros((n_pairs, width))
    w = np.zeros((n_pairs, width - 1))
    target_a, target_forms = np.zeros((n_pairs, width)), np.empty(n_pairs)
    forms, k_priors, weight_ones = [], [], []
    for c, (nodes, m) in enumerate(zip(node_sets, sizes)):
        pairs = slice(c * n_rows, (c + 1) * n_rows)
        trunc_pen = build_penalty_set(build_time_grid(nodes),
                                      derivative_order_w=penalties.derivative_order_w)
        form = registration_weight(config, trunc_pen)
        forms.append(form)
        k_priors.append(WPrior(config, trunc_pen).form_at(config.gamma_w_scalar()))
        targets[pairs, :m] = _interp_rows(nodes, t, targets_full)
        w[pairs, :m - 1] = project_endpoint(np.zeros((n_rows, m - 1)), nodes,
                                            end_value=t_r)
        target_a[pairs, :m], target_forms[pairs] = form.rows(targets[pairs, :m])
        weight_ones.append(form.times(np.ones(m)))
    z0, z1 = np.zeros(n_pairs), np.ones(n_pairs)

    best_obj = np.full(n_pairs, -np.inf)
    active = np.arange(n_pairs)
    for it in range(n_iters):
        for c, (nodes, m) in enumerate(zip(node_sets, sizes)):
            a = active[cand_of[active] == c]
            if a.size == 0:
                continue
            reg = np.interp(warp_from_base(w[a, :m - 1], nodes, end_value=t_r), t_obs, x)
            z1[a] = scale_law(reg, z0[a], target_a[a, :m], target_forms[a],
                              1.0 / sigma_z1_sq)[0]
            z0[a] = new_curve_shift_law(reg, z1[a], targets[a, :m], weight_ones[c],
                                        1.0 / sigma_z0_sq)[0]
        cand = cand_of[active]
        m = sizes[cand].max()
        w[active, :m - 1], data_obj, _ = maximize_base_functions(
            w[active, :m - 1], np.broadcast_to(x, (active.size, r)),
            z0[active, None] + z1[active, None] * targets[active, :m],
            [forms[c] for c in cand], [k_priors[c] for c in cand],
            [node_sets[c] for c in cand], max_steps=_MAX_BASE_STEPS,
            scan_rounds=1 if it == 0 else 0, x_times=t_obs, end_value=t_r)
        obj = data_obj - 0.5 * z0[active] ** 2 / sigma_z0_sq \
            - 0.5 * (z1[active] - 1.0) ** 2 / sigma_z1_sq
        improved = obj > best_obj[active] + 1e-10 * (1.0 + np.abs(obj))
        best_obj[active] = np.where(improved, obj, np.fmax(best_obj[active], obj))
        active = active[improved]
        if active.size == 0:
            break

    results = []
    for c, (nodes, m) in enumerate(zip(node_sets, sizes)):
        pairs = np.arange(c * n_rows, (c + 1) * n_rows)
        h = warp_from_base(w[pairs, :m - 1], nodes, end_value=t_r)
        registered = np.interp(h, t_obs, x)
        f_u = _compose_inverse(targets_full, t, h, nodes, t_obs)
        fits: list = []
        for i, k in enumerate(pairs):
            if not np.isfinite(best_obj[k]):
                fits.append(OptimizerFailure(
                    "partial registration produced no finite objective"))
                continue
            fits.append(PartialFit(
                t_f=float(cands[c]), nodes=nodes, w=w[k, :m - 1], warp=h[i],
                z0=float(z0[k]), z1=float(z1[k]), registered_nodes=registered[i],
                obs_grid_count=grid_counts[c],
                distance=float(np.linalg.norm(x - z0[k] - z1[k] * f_u[i])),
                objective=float(best_obj[k])))
        results.append(fits)
    return results


def _first_or_raise(results: list):
    """The first entry of a per-row result list; a failed row's error is raised."""
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def select_final_time(partial: PartialObservation, target_full: np.ndarray,
                      window, grid: TimeGrid, config: ModelConfig,
                      penalties: PenaltySet, sigma_z0_sq: float = 1.0,
                      sigma_z1_sq: float = 1.0,
                      n_iters: int = 40) -> tuple[float, PartialFit, dict] | list:
    """Register a partial observation at every candidate final registration
    time and keep the L2-minimizing one.

    At candidate t_f the warp maps registered times [t_1, t_f] onto observed
    times [t_1, t_r]; shift and scale take their Gaussian conditional means
    under the plugged-in variances, alternating with projected ascent on the
    base function.  A one-candidate window registers at that t_f.

    Ties break to the smallest candidate time, so the selection does not
    depend on the order the window is supplied in.  Returns (t_f, fit,
    distances).  For a stack of targets (R, p) the result is a list with one
    entry per row: that triple, or the error of a row whose registration
    failed at some candidate.  Every (candidate, row) pair is registered in
    one batched ascent, after every candidate's nodes have been checked.
    """
    stacked = np.ndim(target_full) == 2
    targets = np.atleast_2d(np.asarray(target_full, dtype=float))
    cands = sorted(float(c) for c in np.atleast_1d(np.asarray(window, dtype=float)))
    if len(cands) == 0:
        raise EmptyWindow("no candidate registration times supplied")
    if cands[-1] >= grid.tp:
        raise ValueError("candidate registration times must be below the last grid time")
    n_rows = targets.shape[0]
    best: list = [None] * n_rows
    distances: list[dict[float, float]] = [{} for _ in range(n_rows)]
    per_candidate = _register_candidates(partial, targets, cands, grid, config,
                                         penalties, sigma_z0_sq, sigma_z1_sq, n_iters)
    for c, fits in zip(cands, per_candidate):
        for i, fit in enumerate(fits):
            if isinstance(best[i], Exception):
                continue
            if isinstance(fit, Exception):
                best[i] = fit
                continue
            distances[i][c] = fit.distance
            if best[i] is None or fit.distance < best[i].distance:
                best[i] = fit
    results = [fit if isinstance(fit, Exception) else (fit.t_f, fit, distances[i])
               for i, fit in enumerate(best)]
    return results if stacked else _first_or_raise(results)


def _complete_base(fit: PartialFit, base_suffix: np.ndarray,
                   grid: TimeGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate prefix and completed base rows and restore the endpoints.

    Only the unobserved cells receive the log-shift, so the fitted prefix warp
    (including its value t_r at t_f) is preserved exactly.  Falls back to a
    uniform projection when the prefix already exhausts the time budget.
    """
    dt = np.diff(grid.points)
    n_obs = fit.w.shape[0]
    base_full = np.hstack([np.tile(fit.w, (base_suffix.shape[0], 1)), base_suffix])
    budget = grid.span - float(np.sum(dt[:n_obs] * np.exp(fit.w)))
    s_suf = np.sum(dt[n_obs:] * np.exp(base_suffix), axis=1)
    fallback = (budget <= 0.0) | (s_suf <= 0.0)
    base_full[fallback] = project_endpoint(base_full[fallback], grid)
    base_full[~fallback, n_obs:] += np.log(budget / s_suf[~fallback])[:, None]
    return base_full, warp_from_base(base_full, grid), fallback


def _reconstruct_unregistered(fit: PartialFit, registered_full: np.ndarray,
                              warp_full: np.ndarray,
                              grid: TimeGrid) -> np.ndarray:
    """Compose each completed registered curve with its inverse completed warp.

    The off-grid anchor (t_f, value at t_r) is kept as an interpolation node so
    the reconstruction stays exact on the observed prefix up to interpolation.
    """
    t = grid.points
    k = fit.obs_grid_count
    if k < fit.nodes.shape[0]:
        # off-grid registration time: splice the anchor into the node set
        nodes = np.insert(t, k, fit.t_f)
        registered_full = np.insert(registered_full, k, fit.registered_nodes[-1], axis=1)
        warp_full = np.insert(warp_full, k, fit.warp[-1], axis=1)
    else:
        nodes = t
    return _compose_inverse(registered_full, nodes, warp_full, nodes, t)


def predict_complete(partial: PartialObservation, law: EmpiricalLaw, window,
                     grid: TimeGrid, config: ModelConfig, penalties: PenaltySet,
                     sigma_z0_sq: float = 1.0, sigma_z1_sq: float = 1.0,
                     n_iters: int = 40
                     ) -> tuple[PredictionResult, PredictionResult]:
    """Select the registration time once, complete both function blocks, and
    reconstruct the full unregistered curve; returns (conditional, marginal).

    The empirical mean of the registered training curves serves as the target.
    In the conditional completion the registered suffix is the conditional
    mean of the registered law given the partial curve at the warped prefix
    nodes, and the warp suffix is the conditional mean of the training warps'
    values at the later grid nodes, given the completed warp's values at the
    grid nodes up to the first one at or after t_f; these pin h(t_f) = t_r.
    The marginal completion of the same fit takes the unconditional means of
    the registered and base laws instead (the baseline the conditional one is
    expected to beat).
    """
    _, fit, _ = select_final_time(partial, law.mu_reg, window, grid, config,
                                  penalties, sigma_z0_sq=sigma_z0_sq,
                                  sigma_z1_sq=sigma_z1_sq, n_iters=n_iters)
    return _predictions(fit, law, grid)


def _predictions(fit: PartialFit, law: EmpiricalLaw,
                 grid: TimeGrid) -> tuple[PredictionResult, PredictionResult]:
    """The conditional and the marginal completion of a selected partial fit,
    completed as the two rows of one call."""
    (reg_mean, _), (warp_mean, _) = _conditional_blocks(fit, law, grid)
    k = fit.obs_grid_count
    rows = _complete(fit, np.vstack([reg_mean, law.mu_reg[k:]]),
                     np.vstack([_base_from_warp(fit, warp_mean[None], grid),
                                law.mu_base[fit.w.shape[0]:]]), grid)
    return tuple(PredictionResult(
        t_f=fit.t_f, registered_full=registered, warp_full=warp, base_full=base,
        unregistered_full=unregistered, z0=fit.z0, z1=fit.z1, obs_grid_count=k,
        fallback_projection=bool(fallback))
        for registered, warp, base, unregistered, fallback in zip(*rows))


def _prefix_warp(fit: PartialFit, grid: TimeGrid) -> np.ndarray:
    """Completed warp at t_2..t_{n+1}, n the number of prefix cells.

    These are the values ``_complete_base`` keeps; the last one lies at the
    first grid node at or after t_f, and the warp passes through (t_f, t_r).
    """
    n_obs = fit.w.shape[0]
    return grid.points[0] + np.cumsum(np.diff(grid.points)[:n_obs] * np.exp(fit.w))


def _conditional_blocks(fit: PartialFit, law: EmpiricalLaw, grid: TimeGrid):
    """Conditional (mean, cov) of the registered suffix and of the warp suffix.

    The registered law is conditioned on the partial curve at the warped
    prefix nodes, the warp law on ``_prefix_warp``.  The warp suffix holds the
    interior grid nodes after the prefix.
    """
    k = fit.obs_grid_count
    registered = conditional_mvn(law.mu_reg, law.cov_reg, np.arange(k),
                                 fit.registered_nodes[:k])
    mu_h, cov_h = _warp_law(law.base_samples, grid)
    prefix = _prefix_warp(fit, grid)
    warp = conditional_mvn(mu_h, cov_h, np.arange(prefix.shape[0]), prefix)
    return registered, warp


def _base_from_warp(fit: PartialFit, warp_suffix: np.ndarray,
                    grid: TimeGrid) -> np.ndarray:
    """Log-slopes of the unobserved cells from each warp at their interior nodes.

    Each cell's slope is floored at ``_MIN_WARP_SLOPE``; ``_complete_base``
    then restores the endpoint.
    """
    t = grid.points
    values = np.pad(warp_suffix, ((0, 0), (1, 1)),
                    constant_values=(_prefix_warp(fit, grid)[-1], t[-1]))
    dt = np.diff(t)[fit.w.shape[0]:]
    return np.log(np.maximum(np.diff(values, axis=1), _MIN_WARP_SLOPE * dt) / dt)


def _complete(fit: PartialFit, registered_suffix: np.ndarray,
              base_suffix: np.ndarray, grid: TimeGrid) -> tuple[np.ndarray, ...]:
    """Assemble the completed registered curves, warps and unregistered curves,
    one row per future: (registered, warp, base, unregistered, fallback)."""
    k, n = fit.obs_grid_count, registered_suffix.shape[0]
    registered_full = np.hstack([np.tile(fit.registered_nodes[:k], (n, 1)),
                                 registered_suffix])
    base_full, warp_full, fallback = _complete_base(fit, base_suffix, grid)
    unregistered = _reconstruct_unregistered(fit, registered_full, warp_full, grid)
    return registered_full, warp_full, base_full, unregistered, fallback


def _psd_root(cov: np.ndarray) -> np.ndarray:
    """The symmetric root V sqrt(L) V', continuous in the covariance."""
    vals, vecs = np.linalg.eigh(cov)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _mvn_draws(rng: np.random.Generator, mean: np.ndarray, cov: np.ndarray,
               size: int) -> np.ndarray:
    root = _psd_root(cov)
    z = rng.standard_normal((size, mean.shape[0]))
    return mean + z @ root.T


# failures that skip one bootstrap outer iteration instead of the whole call
_SKIPPABLE = (OptimizerFailure, ValueError, np.linalg.LinAlgError)


def bootstrap_bands(partial: PartialObservation,
                    registered_estimates: np.ndarray,
                    base_estimates: np.ndarray, window, grid: TimeGrid,
                    config: ModelConfig, penalties: PenaltySet,
                    M: int = 20, S: int = 50, quantile_level: float = 0.95,
                    sigma_z0_sq: float = 1.0, sigma_z1_sq: float = 1.0,
                    ridge_fraction: float | None = None, seed: int = 0,
                    n_iters: int = 30) -> BootstrapBands:
    """Pointwise confidence bands from M outer resamples and S inner futures.

    Each outer iteration redraws the training sample from the fitted normal
    laws, refits the laws, re-registers the partial observation against the
    resampled target (the final registration time is re-selected, so its
    variability propagates into the bands), then draws S conditional futures
    for the registered and warp blocks from the same conditional laws whose
    means ``predict_complete`` returns; every sampled warp suffix is turned
    into log-slopes and projected before its warp and reconstruction are
    formed.  Every outer iteration draws from its own substream of ``seed``.

    The point prediction and the M resampled targets are registered as the
    M+1 targets of one select_final_time call, one batched ascent over every
    window candidate.  Failed outer iterations are skipped; ``skip_reasons``
    counts them by exception class.
    """
    if M < 1 or S < 1:
        raise ValueError("M and S must be at least 1")
    check_level(quantile_level)
    law = fit_empirical_laws(registered_estimates, base_estimates,
                             ridge_fraction=ridge_fraction)
    n = registered_estimates.shape[0]
    skip_reasons: dict[str, int] = {}

    def _skip(exc: Exception) -> None:
        name = type(exc).__name__
        skip_reasons[name] = skip_reasons.get(name, 0) + 1

    resampled = []  # (generator, refitted law) of each outer iteration
    for seq in np.random.SeedSequence(seed).spawn(M):
        rng = np.random.default_rng(seq)
        try:
            reg_m = _mvn_draws(rng, law.mu_reg, law.cov_reg, n)
            base_m = _mvn_draws(rng, law.mu_base, law.cov_base, n)
            resampled.append((rng, fit_empirical_laws(
                reg_m, base_m, ridge_fraction=ridge_fraction)))
        except _SKIPPABLE as exc:
            _skip(exc)

    selected = select_final_time(
        partial, np.vstack([law.mu_reg] + [law_m.mu_reg for _, law_m in resampled]),
        window, grid, config, penalties, sigma_z0_sq=sigma_z0_sq,
        sigma_z1_sq=sigma_z1_sq, n_iters=n_iters)
    point, _ = _predictions(_first_or_raise(selected)[1], law, grid)

    samples = []  # (registered, warp, unregistered) futures of each outer iteration
    for (rng, law_m), chosen in zip(resampled, selected[1:]):
        if isinstance(chosen, Exception):
            _skip(chosen)
            continue
        fit_m = chosen[1]
        try:
            (reg_mean, reg_cov), (warp_mean, warp_cov) = _conditional_blocks(
                fit_m, law_m, grid)
            reg_fut = _mvn_draws(rng, reg_mean, reg_cov, S)
            warp_fut = _mvn_draws(rng, warp_mean, warp_cov, S)
            registered, warp, _, unregistered, _ = _complete(
                fit_m, reg_fut, _base_from_warp(fit_m, warp_fut, grid), grid)
        except _SKIPPABLE as exc:
            _skip(exc)
            continue
        samples.append((registered, warp, unregistered))
    if not samples:
        raise OptimizerFailure("every bootstrap iteration failed")

    lo = 0.5 * (1.0 - quantile_level)
    hi = 1.0 - lo

    def _bounds(blocks) -> tuple[np.ndarray, np.ndarray]:
        arr = np.vstack(blocks)
        return np.quantile(arr, lo, axis=0), np.quantile(arr, hi, axis=0)

    (reg_lo, reg_hi), (warp_lo, warp_hi), (unreg_lo, unreg_hi) = (
        _bounds(block) for block in zip(*samples))
    return BootstrapBands(
        times=grid.points.copy(), level=quantile_level, M=M, S=S,
        skipped=sum(skip_reasons.values()), skip_reasons=skip_reasons,
        seed=seed, point=point,
        registered_lower=reg_lo, registered_upper=reg_hi,
        warp_lower=warp_lo, warp_upper=warp_hi,
        unregistered_lower=unreg_lo, unregistered_upper=unreg_hi,
    )
