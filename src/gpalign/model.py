"""Model configuration, latent state, and the log-density kernels shared by
the variational and MCMC fitters.

The hierarchical model: each registered curve X_i(h_i) is Gaussian around
z0_i * 1 + z1_i * f with precision gamma_R (P1ginv + P2ginv); base functions carry a
constrained Gaussian prior with covariance gamma_w^{-1} Sigma_w + lambda_w^{-1} Pw;
the target f has precision eta_f * P1ginv + lambda_f * P2ginv; shifts z0 sum to
zero across curves, scales z1 are centered at 1, and the variance components
carry inverse-gamma / gamma priors.

In the noisy-observation extension the data Y_i are Gaussian around latent
smooth curves X_i, the registration weight becomes
(gamma_R^{-1} Sigma + Sigma_X)^{-1}, and a separate roughness factor ties the
unregistered X_i to the target composed with the inverse warp (this is the
factorization that keeps every precision parameter conjugate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DimensionMismatch, EndpointViolation, SingularPriorCovariance
from .penalties import PenaltySet
from .warping import ENDPOINT_ATOL, _times, at_inverse_warps, curves_at_warps


def _check_positive(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless every entry of ``value`` is a
    finite positive number; NaN and inf fail."""
    v = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")


@dataclass(frozen=True)
class Hyperparams:
    """Fixed shape/rate hyperparameters for the variance and precision priors."""

    a: float = 0.001
    b: float = 0.001
    c: float = 0.001
    d: float = 0.001

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            _check_positive(name, getattr(self, name))


@dataclass
class ModelConfig:
    """Penalty settings and hyperparameters for one registration problem.

    gamma_R penalizes lack of registration, gamma_w (scalar or one value per
    curve) penalizes departure from the identity warp, lambda_w smooths the
    base functions.  These are user-chosen, typically explored in powers of
    ten; they stay fixed during a fit.
    """

    gamma_R: float = 1.0
    gamma_w: float | np.ndarray = 1.0
    lambda_w: float = 1.0
    hyper: Hyperparams = field(default_factory=Hyperparams)
    noisy: bool = False

    def validate(self, n_curves: int | None = None) -> None:
        _check_positive("gamma_R", self.gamma_R)
        _check_positive("lambda_w", self.lambda_w)
        _check_positive("gamma_w", self.gamma_w)
        gw = np.atleast_1d(np.asarray(self.gamma_w, dtype=float))
        if gw.shape[0] > 1 and n_curves is not None and gw.shape[0] != n_curves:
            raise ValueError(
                f"per-curve gamma_w has length {gw.shape[0]}, expected {n_curves}"
            )

    def gamma_w_for(self, i: int) -> float:
        gw = np.atleast_1d(np.asarray(self.gamma_w, dtype=float))
        return float(gw[0]) if gw.shape[0] == 1 else float(gw[i])

    def gamma_w_scalar(self) -> float:
        """Representative warping penalty for a new (N+1-th) curve."""
        gw = np.atleast_1d(np.asarray(self.gamma_w, dtype=float))
        return float(np.exp(np.mean(np.log(gw))))


class WPrior:
    """Base-function prior precisions, formed once per unique gamma_w.

    The covariance is gamma_w^{-1} Sigma_w + lambda_w^{-1} Pw, Sigma_w = P1 + P2
    on the subgrid.  With the second-derivative penalty Pw = P2, so its inverse
    is gamma_w P1ginv + P2ginv gamma_w lambda_w / (gamma_w + lambda_w); the
    first-derivative penalty's covariance is inverted by Cholesky solves.
    """

    def __init__(self, config: ModelConfig, penalties: PenaltySet, n_curves: int):
        self.config = config
        self.n_curves = n_curves
        self._cache: dict[float, np.ndarray] = {}
        self._penalties = penalties

    def precision(self, i: int) -> np.ndarray:
        return self.precision_at(self.config.gamma_w_for(i))

    def precision_at(self, gw: float) -> np.ndarray:
        """The precision for warping penalty ``gw``."""
        if gw not in self._cache:
            base, lw = self._penalties.base, self.config.lambda_w
            if self._penalties.derivative_order_w == 2:
                prec = gw * base.P1ginv + base.P2ginv * (gw * lw / (gw + lw))
            else:
                cov = base.covariance(base.diagonal(gw, gw)) + self._penalties.Pw / lw
                try:
                    c, low = cho_factor(cov)
                except np.linalg.LinAlgError as exc:
                    raise SingularPriorCovariance(str(exc)) from exc
                prec = cho_solve((c, low), np.eye(cov.shape[0]))
                prec = 0.5 * (prec + prec.T)
            self._cache[gw] = prec
        return self._cache[gw]

    def log_kernel(self, w: np.ndarray, i: int) -> float:
        k = self.precision(i)
        return -0.5 * float(w @ k @ w)


@dataclass
class LatentState:
    """Current values of every latent block, as one mutable record.

    Invariants: z0 sums to zero (the last entry is derived), every w row
    satisfies the warp endpoint constraint, variances and precisions are
    positive.  The noisy-model fields are None when noisy=False.
    """

    w: np.ndarray                 # (N, p-1)
    z0: np.ndarray                # (N,), sum zero
    z1: np.ndarray                # (N,)
    f: np.ndarray                 # (p,)
    sigma_z0_sq: float
    sigma_z1_sq: float
    eta_f: float
    lambda_f: float
    X: np.ndarray | None = None   # (N, p) latent smooth curves
    sigma_Y_sq: float | None = None
    eta_X: float | None = None
    lambda_X: float | None = None

    @property
    def n_curves(self) -> int:
        return self.w.shape[0]

    def enforce_sum_zero(self) -> None:
        self.z0[-1] = -float(np.sum(self.z0[:-1]))

    def copy(self) -> "LatentState":
        return LatentState(
            w=self.w.copy(), z0=self.z0.copy(), z1=self.z1.copy(), f=self.f.copy(),
            sigma_z0_sq=self.sigma_z0_sq, sigma_z1_sq=self.sigma_z1_sq,
            eta_f=self.eta_f, lambda_f=self.lambda_f,
            X=None if self.X is None else self.X.copy(),
            sigma_Y_sq=self.sigma_Y_sq, eta_X=self.eta_X, lambda_X=self.lambda_X,
        )


@dataclass(frozen=True)
class RegistrationWeight:
    """Precision of the registered-curve residual, a * P1ginv + b * P2ginv:
    its two coefficients, which give its eigenvalues in the penalty basis,
    and the dense matrix, which the quadratic forms use."""

    a: float
    b: float
    matrix: np.ndarray


def registration_weight(config: ModelConfig, penalties: PenaltySet,
                        eta_X: float | None = None,
                        lambda_X: float | None = None) -> RegistrationWeight:
    """Precision of the registered-curve residual.

    Noiseless model: gamma_R (P1ginv + P2ginv), the inverse of
    gamma_R^{-1} Sigma.  Noisy model: the inverse of gamma_R^{-1} Sigma +
    Sigma_X, P1ginv / alpha + P2ginv / beta (alpha = 1/gamma_R + 1/eta_X,
    beta = 1/gamma_R + 1/lambda_X) as P1 and P2 have complementary ranges.
    """
    p1, p2 = penalties.P1ginv, penalties.P2ginv
    if eta_X is None and lambda_X is None:
        g = config.gamma_R
        return RegistrationWeight(g, g, g * (p1 + p2))
    alpha = 1.0 / config.gamma_R + 1.0 / eta_X
    beta = 1.0 / config.gamma_R + 1.0 / lambda_X
    return RegistrationWeight(1.0 / alpha, 1.0 / beta, p1 / alpha + p2 / beta)


def log_registration_kernel(xh, z0: float, z1: float, f, config: ModelConfig,
                            penalties: PenaltySet,
                            weight: RegistrationWeight | None = None) -> float:
    """Quadratic log-density kernel of one registered curve around z0 + z1 f."""
    xh = np.asarray(xh, dtype=float)
    f = np.asarray(f, dtype=float)
    if xh.shape != f.shape or xh.shape[0] != penalties.p:
        raise DimensionMismatch(
            f"curve length {xh.shape}, target {f.shape}, grid {penalties.p}"
        )
    a = (registration_weight(config, penalties) if weight is None else weight).matrix
    r = xh - z0 - z1 * f
    return -0.5 * float(r @ a @ r)


def log_base_prior(w, config: ModelConfig, penalties: PenaltySet,
                   curve_index: int = 0,
                   wprior: WPrior | None = None) -> float:
    """Log-kernel of the constrained Gaussian prior on one base function."""
    w = np.asarray(w, dtype=float)
    if w.shape[0] != penalties.p - 1:
        raise DimensionMismatch(f"base length {w.shape[0]}, expected {penalties.p - 1}")
    if wprior is None:
        wprior = WPrior(config, penalties, curve_index + 1)
    return wprior.log_kernel(w, curve_index)


def _log_ig(x: float, a: float, b: float) -> float:
    return -(a + 1.0) * np.log(x) - b / x + a * np.log(b) - _lgamma(a)


def _log_gamma_pdf(x: float, c: float, d: float) -> float:
    return (c - 1.0) * np.log(x) - d * x + c * np.log(d) - _lgamma(c)


def _lgamma(x: float) -> float:
    from scipy.special import gammaln
    return float(gammaln(x))


def log_joint(data: np.ndarray, state: LatentState, config: ModelConfig,
              penalties: PenaltySet, wprior: WPrior | None = None) -> float:
    """Log of the joint density of data and all latent blocks, up to a constant.

    This is the AVB maximization objective.  For the noiseless model it is
    also the Metropolis target.  For the noisy model it uses the factored
    form of the registered-curve prior: a registration kernel on X_i(h_i)
    with the noiseless weight plus a roughness kernel on X_i around
    z0 + z1 f(h^{-1}), which is the version all conjugate updates are derived
    from.  The noisy chain does not target it: ``mcmc.proposal_log_ratios``
    scores w without the w-dependent roughness factor (see the ROADMAP item
    "One noisy posterior, checked by a joint-distribution test").
    """
    data = np.asarray(data, dtype=float)
    n = state.n_curves
    p = penalties.p
    if data.shape != (n, p):
        raise DimensionMismatch(f"data shape {data.shape}, expected {(n, p)}")
    hy = config.hyper
    if wprior is None:
        wprior = WPrior(config, penalties, n)

    total = 0.0
    reg_weight = registration_weight(config, penalties).matrix
    curves = data if state.X is None else state.X
    r = curves_at_warps(curves, state.w, penalties.grid) \
        - state.z0[:, None] - state.z1[:, None] * state.f
    total += -0.5 * float(np.sum((r @ reg_weight) * r))
    total += sum(wprior.log_kernel(state.w[i], i) for i in range(n))

    if config.noisy:
        sy2 = state.sigma_Y_sq
        sx_inv = state.eta_X * penalties.P1ginv + state.lambda_X * penalties.P2ginv
        resid = data - state.X
        total += -0.5 * float(np.sum(resid ** 2)) / sy2 - 0.5 * n * p * np.log(sy2)
        ru = state.X - state.z0[:, None] - state.z1[:, None] \
            * at_inverse_warps(state.f, state.w, penalties.grid)
        total += -0.5 * float(np.sum((ru @ sx_inv) * ru))
        total += 0.5 * n * (2.0 * np.log(state.eta_X) + (p - 2) * np.log(state.lambda_X))
        total += _log_ig(sy2, hy.a, hy.b)
        total += _log_gamma_pdf(state.eta_X, hy.c, hy.d)
        total += _log_gamma_pdf(state.lambda_X, hy.c, hy.d)

    # shift/scale priors; z0_N carries no density of its own
    total += -0.5 * float(np.sum(state.z0[:-1] ** 2)) / state.sigma_z0_sq \
        - 0.5 * (n - 1) * np.log(state.sigma_z0_sq)
    total += -0.5 * float(np.sum((state.z1 - 1.0) ** 2)) / state.sigma_z1_sq \
        - 0.5 * n * np.log(state.sigma_z1_sq)

    # target prior with closed-form log-determinant of its precision
    f_prec = state.eta_f * penalties.P1ginv + state.lambda_f * penalties.P2ginv
    total += -0.5 * float(state.f @ f_prec @ state.f)
    total += 0.5 * (2.0 * np.log(state.eta_f) + (p - 2) * np.log(state.lambda_f))

    total += _log_ig(state.sigma_z0_sq, hy.a, hy.b)
    total += _log_ig(state.sigma_z1_sq, hy.a, hy.b)
    total += _log_gamma_pdf(state.eta_f, hy.c, hy.d)
    total += _log_gamma_pdf(state.lambda_f, hy.c, hy.d)
    return float(total)


def scan_directions(nodes: np.ndarray) -> list[np.ndarray]:
    """Low-frequency probe directions for escaping local registration modes.

    Sinusoids in rescaled time act like local time shifts of curve features;
    a greedy line scan over them relocates a feature by several widths, which
    plain gradient steps cannot do once the overlap with the target vanishes.
    """
    u = (nodes[:-1] - nodes[0]) / (nodes[-1] - nodes[0])
    return [np.sin(2 * np.pi * u), np.cos(2 * np.pi * u),
            np.sin(4 * np.pi * u), np.cos(4 * np.pi * u),
            np.sin(np.pi * u)]


class _Points:
    """Projected base functions of some curves with their objective values and
    the terms the chart gradient reuses, one row per curve."""

    __slots__ = ("w", "obj", "ar", "slopes", "ew", "kw")

    def __init__(self, w, obj, ar, slopes, ew, kw):
        self.w, self.obj, self.ar, self.slopes, self.ew, self.kw = \
            w, obj, ar, slopes, ew, kw

    def take(self, other: "_Points", rows: np.ndarray, src: np.ndarray) -> None:
        """Overwrite ``rows`` of self with rows ``src`` of other."""
        for name in self.__slots__:
            getattr(self, name)[rows] = getattr(other, name)[src]


class BaseObjectives:
    """The base objectives of N curves, evaluated row-wise.

    Row i is the registration kernel of curve ``x[i]`` at the warp of its
    base function, against ``targets[i]`` under the shared registration
    weight, plus the base prior with precision ``k_priors[i]``.  The warp
    lives on the nodes ``grid`` and must end at ``end_value`` (default: the
    last node); the curves are observed on ``x_times`` (default: the nodes).
    The truncated domain of partial-curve prediction sets both: nodes up to
    t_f, the curve's own prefix grid, and h(t_f) = t_r.  What stays fixed
    during one ascent is computed once: the cell widths, every curve's cell
    slope table, and the distinct prior precisions (``k_priors`` entries that
    are the same object, as WPrior hands out, share one matrix).
    """

    def __init__(self, x: np.ndarray, targets: np.ndarray, weight: np.ndarray,
                 k_priors, grid, x_times: np.ndarray | None = None,
                 end_value: float | None = None):
        t = _times(grid)
        self.t = t
        self.dt = np.diff(t)
        self.end = t[-1] if end_value is None else float(end_value)
        self.span = self.end - t[0]
        self._endpoint_tol = ENDPOINT_ATOL * max(abs(self.span), 1.0)
        self._xt = t if x_times is None else np.asarray(x_times, dtype=float)
        x = np.asarray(x, dtype=float)
        self._left = np.ascontiguousarray(x[:, :-1])
        self._slopes = np.diff(x, axis=1) / np.diff(self._xt)
        self.targets = np.asarray(targets, dtype=float)
        self.weight = weight
        self._priors: list[np.ndarray] = []
        position: dict[int, int] = {}
        index = []
        for k in k_priors:
            if id(k) not in position:
                position[id(k)] = len(self._priors)
                self._priors.append(k)
            index.append(position[id(k)])
        self._prior_index = np.asarray(index)

    def _prior_times(self, w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if len(self._priors) == 1:  # one shared precision: one product
            return w @ self._priors[0]
        kw = np.empty_like(w)
        index = self._prior_index[rows]
        for j, k in enumerate(self._priors):
            sel = index == j
            if sel.any():
                kw[sel] = w[sel] @ k
        return kw

    def evaluate(self, w: np.ndarray, rows: np.ndarray | None = None) -> _Points:
        """Endpoint-project each row of ``w`` and evaluate the objective of the
        curve named by the same row of ``rows`` (default: row i is curve i)."""
        if rows is None:
            rows = np.arange(w.shape[0])
        t, xt = self.t, self._xt
        ew = self.dt * np.exp(w)
        w = w - np.log(ew.sum(axis=1) / self.span)[:, None]
        ew = self.dt * np.exp(w)
        h = np.empty((w.shape[0], t.shape[0]))
        h[:, 0] = t[0]
        h[:, 1:] = t[0] + ew.cumsum(axis=1)
        if (np.abs(h[:, -1] - self.end) > self._endpoint_tol).any():
            raise EndpointViolation("a projected warp misses its endpoint")
        h[:, -1] = self.end
        cells = np.minimum(np.maximum(np.searchsorted(xt, h, side="right") - 1, 0),
                           xt.shape[0] - 2)
        flat = rows[:, None] * (xt.shape[0] - 1) + cells
        slopes = self._slopes.take(flat)
        r = self._left.take(flat) + slopes * (h - xt[cells]) - self.targets[rows]
        ar = r @ self.weight
        kw = self._prior_times(w, rows)
        obj = -0.5 * np.einsum("ij,ij->i", ar, r) - 0.5 * np.einsum("ij,ij->i", kw, w)
        return _Points(w, obj, ar, slopes, ew, kw)

    def chart_gradient(self, pts: _Points, rows: np.ndarray) -> np.ndarray:
        """Gradient of the objective in the coordinates of the constraint
        manifold, for rows ``rows`` of ``pts``.

        The raw gradient treats interpolation cell membership as locally
        constant: d xh_j / d w_m = slope(h_j) * dt_m * exp(w_m) for j > m, a
        reversed cumulative sum of the weighted residual times the slopes.
        The endpoint projection parameterizes feasible base functions by
        their mean-zero component; the chain rule through its log-shift turns
        the raw gradient g into g - sum(g) * dt * exp(w) / span, projected
        onto the mean-zero subspace, with span = end_value - t_1.  Stepping
        along it and re-projecting is ascent on the manifold itself.
        """
        ew = pts.ew[rows]
        tail = np.cumsum((pts.ar[rows] * pts.slopes[rows])[:, ::-1], axis=1)[:, ::-1]
        g = -ew * tail[:, 1:] - pts.kw[rows]
        adj = g - g.sum(axis=1, keepdims=True) * ew / self.span
        return adj - adj.mean(axis=1, keepdims=True)


def maximize_base_functions(w0: np.ndarray, x: np.ndarray, targets: np.ndarray,
                            weight: np.ndarray, k_priors, grid,
                            max_steps: int = 25, scan_rounds: int = 0,
                            x_times: np.ndarray | None = None,
                            end_value: float | None = None
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected gradient ascent with backtracking on every row's base
    objective at once (see BaseObjectives for the rows and the domain).

    Every candidate is endpoint-projected before evaluation, so iterates stay
    on the constraint manifold and no row's objective decreases.
    ``scan_rounds`` greedy line scans along low-frequency directions come
    first, over amplitudes in [-1, 1]; a candidate is accepted only on
    improvement.  Each row keeps its own scan choices, step size (starting
    at 1), backtracking and stopping rule: a row stops when a step gains
    less than 1e-10 relative to its objective and leaves the active set, and
    only rows still backtracking are evaluated.  Returns (w, objective,
    improved), one row or entry per curve.
    """
    problem = BaseObjectives(x, targets, weight, k_priors, grid, x_times=x_times,
                             end_value=end_value)
    n = problem.targets.shape[0]
    every = np.arange(n)
    cur = problem.evaluate(np.asarray(w0, dtype=float))
    start = cur.obj.copy()
    offsets = np.linspace(-1.0, 1.0, 11)
    offsets = offsets[offsets != 0.0]
    scan_rows = np.repeat(every, offsets.size)
    for _round in range(scan_rounds):
        for direction in scan_directions(problem.t):
            cand_w = cur.w[:, None, :] + offsets[:, None] * direction
            cand = problem.evaluate(cand_w.reshape(scan_rows.size, -1), scan_rows)
            objs = cand.obj.reshape(n, offsets.size)
            best = objs.argmax(axis=1)  # ties go to the first offset
            better = np.flatnonzero(objs[every, best] > cur.obj)
            cur.take(cand, better, better * offsets.size + best[better])
    step = np.ones(n)
    active = every
    for _step in range(max_steps):
        g = problem.chart_gradient(cur, active)
        gnorm = np.linalg.norm(g, axis=1)
        moving = gnorm >= 1e-12
        active, g, gnorm = active[moving], g[moving], gnorm[moving]
        if active.size == 0:
            break
        scale = np.maximum(gnorm, 1.0)
        alpha = step[active] / scale
        gain = np.zeros(active.size)
        pending = np.arange(active.size)
        for _bt in range(30):
            rows = active[pending]
            cand = problem.evaluate(cur.w[rows] + alpha[pending, None] * g[pending], rows)
            ok = cand.obj > cur.obj[rows]
            won = pending[ok]
            gain[won] = cand.obj[ok] - cur.obj[rows[ok]]
            cur.take(cand, rows[ok], np.flatnonzero(ok))
            step[rows[ok]] = np.minimum(alpha[won] * scale[won] * 2.0, 1e3)
            pending = pending[~ok]
            if pending.size == 0:
                break
            alpha[pending] *= 0.5
        stopped = (gain == 0.0) | (gain < 1e-10 * (1.0 + np.abs(cur.obj[active])))
        active = active[~stopped]
    return cur.w, cur.obj, cur.obj > start + 1e-15
