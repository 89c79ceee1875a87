"""Model configuration, latent state, and the log-density kernels shared by
the variational and MCMC fitters: the joint density, ``BLOCKS``, the one
table of the conjugate conditionals (which AVB's q-updates set q to and the
sampler draws from, each walking it in its own order), and the batched
base-function ascent.

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

Every precision here is a * P1ginv + b * P2ginv on its grid (the
registration weight, the target prior, the roughness precision of X, the
second-derivative base prior), and each is applied as a
``penalties.PenaltyForm``: through the penalty factors from
``penalties.BANDED_MIN_P`` grid points on, in O(p) per row, and by the dense
product below that.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, EndpointViolation, SingularPriorCovariance
from .penalties import PenaltyForm, PenaltySet
from .warping import (ENDPOINT_ATOL, _interp_rows, _inverse_rows, _times, at_inverse_warps,
                      warp_from_base)


def check_level(level: float) -> None:
    """Raise ValueError unless 0 < ``level`` < 1, a band's coverage."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {level!r}")


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
    is gamma_w P1ginv + P2ginv gamma_w lambda_w / (gamma_w + lambda_w), a
    PenaltyForm on the subgrid whose dense matrix is formed only when read;
    the first-derivative penalty's covariance is inverted by Cholesky solves
    into a dense form.
    """

    def __init__(self, config: ModelConfig, penalties: PenaltySet):
        self.config = config
        self._cache: dict[float, PenaltyForm] = {}
        self._penalties = penalties

    def form(self, i: int) -> PenaltyForm:
        return self.form_at(self.config.gamma_w_for(i))

    def form_at(self, gw: float) -> PenaltyForm:
        """The precision for warping penalty ``gw``."""
        if gw not in self._cache:
            base, lw = self._penalties.base, self.config.lambda_w
            if self._penalties.derivative_order_w == 2:
                form = base.form(gw, gw * lw / (gw + lw))
            else:
                cov = base.covariance(1.0 / base.diagonal(gw, gw)) \
                    + self._penalties.Pw / lw
                try:
                    chol = np.linalg.cholesky(cov)
                except np.linalg.LinAlgError as exc:
                    raise SingularPriorCovariance(str(exc)) from exc
                prec = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(cov.shape[0])))
                form = PenaltyForm(np.nan, np.nan, 0.5 * (prec + prec.T))
            self._cache[gw] = form
        return self._cache[gw]

    def log_kernel(self, w: np.ndarray, i: int) -> float:
        return -0.5 * self.form(i).quad(w)


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
    # as a ``Sweep`` reads them: a point has no q variances
    var_f = var_z0 = var_z1 = var_X = None
    inv_sigma_z0_sq = property(lambda self: 1.0 / self.sigma_z0_sq)
    inv_sigma_z1_sq = property(lambda self: 1.0 / self.sigma_z1_sq)
    inv_sigma_Y_sq = property(lambda self: 1.0 / self.sigma_Y_sq)

    @property
    def n_curves(self) -> int:
        return self.w.shape[0]

    @property
    def z0_free(self) -> np.ndarray:
        """The first N - 1 shifts; setting them derives the N-th."""
        return self.z0[:-1]

    @z0_free.setter
    def z0_free(self, value) -> None:
        self.z0[:-1] = value
        self.enforce_sum_zero()

    def enforce_sum_zero(self) -> None:
        self.z0[-1] = -float(np.sum(self.z0[:-1]))

    def copy(self) -> "LatentState":
        return copy.deepcopy(self)


def registration_weight(config: ModelConfig, penalties: PenaltySet,
                        eta_X: float | None = None,
                        lambda_X: float | None = None) -> PenaltyForm:
    """Precision of the registered-curve residual, a form on the main grid.

    Noiseless model: gamma_R (P1ginv + P2ginv), the inverse of
    gamma_R^{-1} Sigma.  Noisy model: the inverse of gamma_R^{-1} Sigma +
    Sigma_X, P1ginv / alpha + P2ginv / beta (alpha = 1/gamma_R + 1/eta_X,
    beta = 1/gamma_R + 1/lambda_X) as P1 and P2 have complementary ranges.
    """
    if eta_X is None and lambda_X is None:
        return penalties.main.form(config.gamma_R, config.gamma_R)
    return penalties.main.form(1.0 / (1.0 / config.gamma_R + 1.0 / eta_X),
                               1.0 / (1.0 / config.gamma_R + 1.0 / lambda_X))


def curves_to_register(state, data: np.ndarray) -> np.ndarray:
    """The curves the registration model sees, for a state of either fitter:
    the data, or in the noisy model X (its q-means, or the chain's draw)."""
    return data if state.X is None else state.X


def registered_curves(state, data: np.ndarray, penalties: PenaltySet) -> np.ndarray:
    """Every curve of ``curves_to_register`` at its current warp."""
    t = penalties.grid.points
    return _interp_rows(warp_from_base(state.w, t), t, curves_to_register(state, data))


def digamma(x: float) -> float:
    """The digamma function of a positive scalar ``x``: the recurrence
    psi(x) = psi(x + 1) - 1/x up to x >= 10, then the asymptotic series."""
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 * (1 / 252 - inv2 * (
        1 / 240 - inv2 * (1 / 132 - inv2 * (691 / 32760 - inv2 / 12))))))
    return math.log(x) - 0.5 / x - series - shift


def _log_ig(x: float, a: float, b: float) -> float:
    return -(a + 1.0) * np.log(x) - b / x + a * np.log(b) - math.lgamma(a)


def _log_gamma_pdf(x: float, c: float, d: float) -> float:
    return (c - 1.0) * np.log(x) - d * x + c * np.log(d) - math.lgamma(c)


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
        wprior = WPrior(config, penalties)

    r = registered_curves(state, data, penalties) \
        - state.z0[:, None] - state.z1[:, None] * state.f
    total = -0.5 * float(np.sum(registration_weight(config, penalties).rows(r)[1]))
    total += sum(wprior.log_kernel(state.w[i], i) for i in range(n))

    if config.noisy:
        sy2 = state.sigma_Y_sq
        resid = data - state.X
        total += -0.5 * float(np.sum(resid ** 2)) / sy2 - 0.5 * n * p * np.log(sy2)
        ru = state.X - state.z0[:, None] - state.z1[:, None] \
            * at_inverse_warps(state.f, state.w, penalties.grid)
        total += -0.5 * float(np.sum(
            penalties.main.form(state.eta_X, state.lambda_X).rows(ru)[1]))
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
    total += -0.5 * penalties.main.form(state.eta_f, state.lambda_f).quad(state.f)
    total += 0.5 * (2.0 * np.log(state.eta_f) + (p - 2) * np.log(state.lambda_f))

    total += _log_ig(state.sigma_z0_sq, hy.a, hy.b)
    total += _log_ig(state.sigma_z1_sq, hy.a, hy.b)
    total += _log_gamma_pdf(state.eta_f, hy.c, hy.d)
    total += _log_gamma_pdf(state.lambda_f, hy.c, hy.d)
    return float(total)


# The conjugate conditionals of log_joint: BLOCKS holds one entry per block,
# its law read from a Sweep over a state of either fitter.  The sampler draws
# from the law at its current values (a LatentState, whose q variances are
# None), AVB sets q to it at the q-means and q's variances (an avb.VBState).

class Sweep:
    """What the block laws read during one sweep of either fitter: the
    ``state``, the data, the model and the registration ``weight``.  The state
    names every block as ``LatentState`` does (``z0`` holds all N shifts,
    ``z0_free`` the first N - 1) and adds E[1/sigma^2] as ``inv_sigma_*_sq``
    and q's variances ``var_f``, ``var_z0`` (free shifts), ``var_z1`` and
    ``var_X``, None for a point.  A ``weight`` of None is the one at the
    state's current roughness precisions (a noisy chain redraws them
    mid-sweep).  ``state.w`` stays fixed while a Sweep lives (AVB forms one
    after its base step, ``mcmc.gibbs_sweep`` before the Metropolis pass), so
    the warps are formed once, and the inverse warps once with their grid
    cells; the registered curves (formed at first read, which both fitters'
    orders put after the X block) and f at the inverse warps (once per f) are
    one interpolation each; A 1 and 1'A1 once per weight."""

    def __init__(self, state, data: np.ndarray, config: ModelConfig,
                 penalties: PenaltySet, weight: PenaltyForm | None):
        self.state, self.data, self.config, self.penalties = state, data, config, penalties
        self._weight, self._noisy_weight = weight, (None, None)
        self._ones, self._f_inv, self._t = (None,), (None,), penalties.grid.points

    @property
    def weight(self) -> PenaltyForm:
        if self._weight is not None:
            return self._weight
        key = (self.state.eta_X, self.state.lambda_X)
        if self._noisy_weight[0] != key:
            self._noisy_weight = key, registration_weight(self.config, self.penalties, *key)
        return self._noisy_weight[1]

    @cached_property
    def _warps(self) -> np.ndarray:
        return warp_from_base(self.state.w, self._t)

    @cached_property
    def _inverse_warps(self) -> tuple[np.ndarray, np.ndarray]:
        h_inv = _inverse_rows(self._warps, self._t, self._t)
        return h_inv, np.searchsorted(self._t, h_inv, side="right") - 1

    @cached_property
    def registered(self) -> np.ndarray:
        return _interp_rows(self._warps, self._t, curves_to_register(self.state, self.data))

    def ones(self) -> tuple[np.ndarray, float]:
        """A 1 and 1'A1 under the current weight A."""
        weight = self.weight
        if self._ones[0] is not weight:
            a_one = weight.times(np.ones(self.penalties.p))
            self._ones = weight, a_one, float(a_one.sum())
        return self._ones[1:]

    def f_inv(self) -> np.ndarray:
        """f at each curve's inverse warp."""
        x = self.state
        if self._f_inv[0] is not x.f:
            h_inv, cells = self._inverse_warps
            self._f_inv = x.f, _interp_rows(h_inv, self._t, x.f, cells)
        return self._f_inv[1]


def target_law(s: Sweep, normal):
    """f: a draw, and the variances, the inverses of its precision's
    eigenvalues in the penalty basis."""
    x, weight = s.state, s.weight
    e_z1_sq = float(np.sum(x.z1 ** 2 if x.var_z1 is None else x.var_z1 + x.z1 ** 2))
    d = s.penalties.main.diagonal(e_z1_sq * weight.a + x.eta_f,
                                  e_z1_sq * weight.b + x.lambda_f)
    rhs = weight.times(x.z1 @ (s.registered - x.z0[:, None]))
    return s.penalties.main.draw(d, rhs, normal(rhs.shape)), 1.0 / d


def shift_law(s: Sweep, normal):
    """The free shifts drawn in turn, each given the others as they stand
    when its turn comes, and their variances.  A shift also enters the N-th
    curve's kernel, through the zero sum: hence the 2.  Every mean is formed
    at the current shifts; a shift's turn then moves it by -var * 1'A1 times
    the change of the shifts drawn before it."""
    x, registered = s.state, s.registered
    (a_one, quad), z0 = s.ones(), x.z0_free
    var = 1.0 / (x.inv_sigma_z0_sq + 2.0 * quad)
    d = registered[:-1] - registered[-1] + (x.z1[-1] - x.z1[:-1])[:, None] * x.f
    means = var * (d @ a_one - (float(np.sum(z0)) - z0) * quad)
    noise = np.sqrt(var) * normal(len(means))
    # Python floats: numpy's float64 arithmetic, bit for bit, without numpy's
    # per-scalar cost
    pull, moved, new = var * quad, 0.0, []
    for mean, old, e in zip(means.tolist(), z0.tolist(), noise.tolist()):
        new.append(mean - pull * moved + e)
        moved += new[-1] - old
    return np.array(new), np.full(len(new), var)


def new_curve_shift_law(x, z1, target, a_one, inv_sigma_z0: float):
    """Mean(s) and variance of the shift of a new curve, registered ``x`` (or
    one row per candidate), given its scale(s) ``z1``: no other curve's shift
    is tied to it, so there is no zero-sum term."""
    var = 1.0 / (inv_sigma_z0 + a_one.sum())
    return var * ((x - z1[..., None] * target) @ a_one), var


def scale_law(registered, z0, a_f, e_faf, inv_sigma_z1: float):
    """Means and variance(s) of the scales given A E[f] and E[f' A f], or
    one row of A E[f] and one E[f' A f] per curve."""
    var = 1.0 / (inv_sigma_z1 + e_faf)
    dev = registered - z0[:, None]
    return var * (inv_sigma_z1 + (dev @ a_f if a_f.ndim == 1
                                  else np.einsum("ij,ij->i", dev, a_f))), var


def _scales(s: Sweep, normal):
    x, weight = s.state, s.weight
    (a_f,), (faf,) = weight.rows(x.f[None])  # A f and f'A f by one product
    means, var = scale_law(s.registered, x.z0, a_f,
                           weight.expected(x.f, x.var_f, faf), x.inv_sigma_z1_sq)
    return means + np.sqrt(var) * normal(len(means)), np.full(len(means), var)


def variance_law(config: ModelConfig, dev, var=None) -> tuple[float, float]:
    """Inverse-gamma (shape, rate) of sigma_z0^2 (``dev``: the free shifts)
    or sigma_z1^2 (``dev``: the scales minus 1)."""
    e_sq = dev ** 2 if var is None else var + dev ** 2
    return config.hyper.a + 0.5 * dev.size, config.hyper.b + 0.5 * float(np.sum(e_sq))


def precision_law(config: ModelConfig, penalties: PenaltySet, a: float, n_terms: int,
                  forms: float) -> tuple[float, float]:
    """Gamma (shape, rate) of the precision on P1ginv (``a`` = 1, rank 2) or
    P2ginv (``a`` = 0, rank p - 2) of ``n_terms`` vectors (f, or the roughness
    residuals) whose expected forms sum to ``forms``."""
    rank = 2 if a else penalties.p - 2
    return config.hyper.c + 0.5 * n_terms * rank, config.hyper.d + 0.5 * forms


def _target_precision(a: float):
    """The law of eta_f (``a`` = 1) or lambda_f (``a`` = 0)."""
    return lambda s: precision_law(s.config, s.penalties, a, 1, s.penalties.main.form(
        a, 1.0 - a).expected(s.state.f, s.state.var_f))


def roughness_law(s: Sweep, a: float) -> tuple[float, float]:
    """eta_X (``a`` = 1) or lambda_X (``a`` = 0) from E[sum_i r_i' A r_i],
    r_i = X_i - z0_i - z1_i f(h_i^{-1}), A = a P1ginv + (1 - a) P2ginv.
    Expectations of f composed with an inverse warp are not available, so q's
    variances add their terms with Cov(f(h^{-1})) taken as Sigma_q(X) / N."""
    x, form = s.state, s.penalties.main.form(a, 1.0 - a)
    f_inv = s.f_inv()
    _, forms = form.rows(x.X - x.z0[:, None] - x.z1[:, None] * f_inv)
    if x.var_X is not None:
        forms = forms + s.penalties.main.trace(a, 1.0 - a, x.var_X) \
            * (1.0 + (x.var_z1 + x.z1 ** 2) / x.n_curves) \
            + x.var_z0_full() * form.quad(np.ones(s.penalties.p)) \
            + x.var_z1 * form.rows(f_inv)[1]
    return precision_law(s.config, s.penalties, a, x.n_curves, float(np.sum(forms)))


def curve_law(s: Sweep, normal):
    """X: one draw per curve from the Gaussian whose precision all curves
    share and whose rhs is the data times E[1/sigma_Y^2] plus the anchor
    z0 + z1 f(h^{-1}), and the variances, the inverses of that precision's
    eigenvalues.  E[f(h^{-1})] is taken as the q-mean of f at the inverse
    warp, and Sigma_q(X), shared by all curves, is kept as its eigenvalues
    ``var_X``.  With these approximations AVB's bound is not guaranteed to
    increase, so the noisy fit freezes X after a few iterations (smoothing
    converges much faster than registration) and monitors the noiseless bound
    from there on."""
    x = s.state
    d = s.penalties.main.diagonal(x.eta_X, x.lambda_X, x.inv_sigma_Y_sq)
    anchor = x.z0[:, None] + x.z1[:, None] * s.f_inv()
    rhs = x.inv_sigma_Y_sq * s.data \
        + s.penalties.main.form(x.eta_X, x.lambda_X).rows(anchor)[0]
    return s.penalties.main.draw(d, rhs, normal(rhs.shape)), 1.0 / d


def noise_law(s: Sweep) -> tuple[float, float]:
    """Inverse-gamma (shape, rate) of sigma_Y^2."""
    n, p = s.data.shape
    e_sq = float(np.sum((s.data - s.state.X) ** 2))
    if s.state.var_X is not None:
        e_sq += n * float(np.sum(s.state.var_X))
    return s.config.hyper.a + 0.5 * n * p, s.config.hyper.b + 0.5 * e_sq


class Block(NamedTuple):
    """A conjugate block's law and its kind, which says what the law returns
    and so how a fitter stores or draws it.  A "gaussian" law (f, z0: the
    free shifts, z1, X) is one update, ``law(sweep, normal)``: its value, the
    mean plus noise made from ``normal(shape)`` standard normals, and its
    variances.  The sampler passes its generator's ``standard_normal`` and
    keeps the value; AVB passes ``np.zeros``, so its q-update is the
    sampler's conditional at zero noise, and keeps the value as q's mean with
    the variances.  A "gamma" law gives a precision's (shape, rate), an
    "inverse_gamma" law a variance's."""

    kind: str
    law: Callable


BLOCKS = {
    "f": Block("gaussian", target_law),
    "z0": Block("gaussian", shift_law),
    "z1": Block("gaussian", _scales),
    "sigma_z0_sq": Block("inverse_gamma", lambda s: variance_law(
        s.config, s.state.z0_free, s.state.var_z0)),
    "sigma_z1_sq": Block("inverse_gamma", lambda s: variance_law(
        s.config, s.state.z1 - 1.0, s.state.var_z1)),
    "eta_f": Block("gamma", _target_precision(1.0)),
    "lambda_f": Block("gamma", _target_precision(0.0)),
    "X": Block("gaussian", curve_law),
    "sigma_Y_sq": Block("inverse_gamma", noise_law),
    "eta_X": Block("gamma", lambda s: roughness_law(s, 1.0)),
    "lambda_X": Block("gamma", lambda s: roughness_law(s, 0.0)),
}
# the blocks of the noisy-observation extension
NOISY_BLOCKS = ("X", "sigma_Y_sq", "eta_X", "lambda_X")


# candidate rows times grid points per scan call on a banded problem.  One
# BaseObjectives.evaluate call holds 14 float64 arrays of that size (112 bytes
# per element, traced at p = 800), so 4.3 MiB, less than the one p x p matrix
# a grid of 800 points keeps (4.9 MiB).  Calls of 50 rows or more cost the same
# per row as one call of all 200 (25 us per row at p = 800, BLAS 1 thread),
# and the smallest banded grid, 350 points, still gets 110 rows per call.
SCAN_CALL_SIZE = 40_000


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


def _distinct(items) -> tuple[list, np.ndarray]:
    """The distinct objects of ``items`` (by identity, in first-seen order)
    and, per item, the position of its object among them."""
    unique, position, index = [], {}, []
    for item in items:
        if id(item) not in position:
            position[id(item)] = len(unique)
            unique.append(item)
        index.append(position[id(item)])
    return unique, np.asarray(index)


class _RowForms:
    """One PenaltyForm per row.  Distinct forms act on the rows sorted by
    form, each on its block by one product, scattered back to row order;
    one reduction over the full width then gives every v A v'.  Memory is a
    few copies of v."""

    def __init__(self, forms):
        self.forms, self.index = _distinct(forms)
        self.sizes = [form.size for form in self.forms]
        self.banded = all(form.banded for form in self.forms)
        self.labels = np.arange(len(self.forms) + 1)

    def rows(self, v: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of v A and v A v' per row of v, A the form of the row named by
        the same entry of ``rows``, applied to the columns its grid spans;
        the columns past them read 0 in v A, so they add nothing to v A v'."""
        if len(self.forms) == 1:
            return self.forms[0].rows(v)  # one shared form: one product
        index = self.index.take(rows)
        order = index.argsort(kind="stable")
        # sorted, form j's rows are starts[j]:starts[j + 1]
        starts = index.take(order).searchsorted(self.labels).tolist()
        vs, vas = v.take(order, axis=0), np.zeros(v.shape)
        for form, m, lo, hi in zip(self.forms, self.sizes, starts, starts[1:]):
            if lo < hi:
                vas[lo:hi, :m] = form.apply(vs[lo:hi, :m])
        va = vas.take(order.argsort(), axis=0)
        return va, np.einsum("ij,ij->i", va, v)


class _CellLookup:
    """The cell of each time among increasing nodes ``xt``, as clipped
    ``np.searchsorted(xt, h, side="right") - 1``, in O(1): a time starts at
    the first cell of its uniform bucket (two per cell, monotone in the time)
    and moves up one cell per pass while the next node is <= it, as many
    passes as one bucket holds interior nodes.  A NaN time reads cell 0."""

    def __init__(self, xt: np.ndarray):
        n = 2 * (xt.shape[0] - 1)  # buckets
        self.x0, self.top, self.scale = xt[0], n - 1, n / (xt[-1] - xt[0])
        counts = np.bincount(self.bucket(xt[1:-1]), minlength=n)
        self.first = np.append(0, counts.cumsum()[:-1])
        self.passes, self.upper = counts.max(initial=0), np.append(xt[1:-1], np.nan)

    def bucket(self, h: np.ndarray) -> np.ndarray:
        return np.fmin(np.fmax((h - self.x0) * self.scale, 0.0), self.top).astype(np.intp)

    def __call__(self, h: np.ndarray) -> np.ndarray:
        cells = self.first.take(self.bucket(h))
        for _ in range(self.passes):
            cells += self.upper.take(cells) <= h
        return cells


class BaseObjectives:
    """The base objectives of N curves, evaluated row-wise.

    Row i is the registration kernel of curve ``x[i]`` at the warp of its
    base function, against ``targets[i]`` under its registration weight
    (``weight``, or ``weight[i]`` for a sequence), plus the base prior with
    precision ``k_priors[i]``; both are PenaltyForms, so on large grids their
    products and forms run through the banded penalty factors.  The warp
    lives on the nodes ``grid`` and must end at ``end_value`` (default: the
    last node); the curves are observed on ``x_times`` (default: the nodes).
    The truncated domain of partial-curve prediction sets both: nodes up to
    t_f, the curve's own prefix grid, and h(t_f) = t_r.

    ``grid`` may also be a sequence of node sets, one per row, that share
    their first node, with ``x_times`` and ``end_value`` given (the window
    candidates of one prediction).  The rows are
    then padded to the longest set: ``targets`` has one column per node of
    the longest set and base functions one per cell, and a row's columns past
    its own nodes are ignored.  A padded cell has width 0, so it adds nothing
    to the warp; the endpoint is checked and snapped at each row's last node;
    each row's weight and prior act on its own columns; and the chart
    gradient is 0 on the padded cells.  Rows on one grid have no padded cells.

    What stays fixed during one ascent is computed once: the cell widths,
    every curve's cell slope table and ``_CellLookup``, and the distinct
    weights and priors (entries that are the same object, as WPrior hands
    out, are one form, applied to its rows as one block; see ``_RowForms``).
    When every one of them is ``banded``, a row's value does not depend on
    the rows evaluated with it, as the dense product's would.
    """

    def __init__(self, x: np.ndarray, targets: np.ndarray, weight, k_priors, grid,
                 x_times: np.ndarray | None = None, end_value: float | None = None):
        n_rows = np.shape(targets)[0]
        if isinstance(grid, (list, tuple)) and np.ndim(grid[0]) == 1:
            node_sets, set_index = _distinct(grid)
        else:
            node_sets, set_index = [grid], np.zeros(n_rows, dtype=int)
        node_sets = [_times(nodes) for nodes in node_sets]
        t = max(node_sets, key=len)
        self.t = t
        if len(node_sets) > 1:
            if any(nodes[0] != t[0] for nodes in node_sets):
                raise ValueError("padded node sets must share their first node")
            if x_times is None or end_value is None:
                raise ValueError("padded node sets need x_times and end_value")
        n_cells = np.array([nodes.shape[0] - 1 for nodes in node_sets])
        widths = np.zeros((len(node_sets), t.shape[0] - 1))
        for j, nodes in enumerate(node_sets):
            widths[j, :n_cells[j]] = np.diff(nodes)
        self.dt, self._n_cells = widths[set_index], n_cells[set_index]
        # each row's own cells, and its nodes from its last one on, which all
        # lie at the endpoint
        self._cells = np.arange(t.shape[0] - 1) < self._n_cells[:, None]
        self._at_end = np.arange(t.shape[0]) >= self._n_cells[:, None]
        self._node_sets, self._set_index = node_sets, set_index
        self.end = t[-1] if end_value is None else float(end_value)
        self.span = self.end - t[0]
        self._endpoint_tol = ENDPOINT_ATOL * max(abs(self.span), 1.0)
        self._xt = t if x_times is None else np.asarray(x_times, dtype=float)
        self._cell = _CellLookup(self._xt)
        self._weights = _RowForms(
            [weight] * n_rows if isinstance(weight, PenaltyForm) else weight)
        self._priors = _RowForms(k_priors)
        self.banded = self._weights.banded and self._priors.banded
        self.set_curves(x, targets)

    def set_curves(self, x: np.ndarray, targets: np.ndarray) -> None:
        """Score the curves ``x`` against ``targets``: the constructor sets them
        so, and a chain's Metropolis pass swaps in its own, keeping the rest."""
        self.targets = np.asarray(targets, dtype=float)
        x = np.asarray(x, dtype=float)
        self._left = np.ascontiguousarray(x[:, :-1])
        self._slopes = np.diff(x, axis=1) / np.diff(self._xt)

    def scan_directions(self) -> list[np.ndarray]:
        """``scan_directions`` of each row's own nodes, one row per row (0 on
        the padded cells)."""
        per_set = [np.zeros((len(self._node_sets), self.dt.shape[1]))
                   for _ in range(5)]
        for j, nodes in enumerate(self._node_sets):
            for padded, direction in zip(per_set, scan_directions(nodes)):
                padded[j, :direction.shape[0]] = direction
        return [padded[self._set_index] for padded in per_set]

    def evaluate(self, w: np.ndarray, rows: np.ndarray | None = None) -> _Points:
        """Endpoint-project each row of ``w`` and evaluate the objective of the
        curve named by the same row of ``rows`` (default: row i is curve i);
        a row whose exp overflows scores -inf."""
        if rows is None:
            rows = np.arange(w.shape[0])
        t, xt = self.t, self._xt
        dt = self.dt[rows]
        with np.errstate(over="ignore"):
            total = (dt * np.exp(w)).sum(axis=1)
        lost = total == np.inf  # such a row scores -inf
        w = np.where(lost[:, None], 0.0, w - np.log(total / self.span)[:, None])
        ew = dt * np.exp(w)
        h = np.empty((w.shape[0], t.shape[0]))
        h[:, 0] = t[0]
        h[:, 1:] = t[0] + ew.cumsum(axis=1)
        # padded cells add 0, so the last column holds each row's endpoint
        if (np.abs(h[:, -1] - self.end) > self._endpoint_tol)[~lost].any():
            raise EndpointViolation("a projected warp misses its endpoint")
        h[self._at_end[rows]] = self.end
        cells = self._cell(h)
        flat = rows[:, None] * (xt.shape[0] - 1) + cells
        slopes = self._slopes.take(flat)
        r = self._left.take(flat) + slopes * (h - xt[cells]) - self.targets[rows]
        ar, rar = self._weights.rows(r, rows)
        kw, wkw = self._priors.rows(w, rows)
        return _Points(w, np.where(lost, -np.inf, -0.5 * rar - 0.5 * wkw), ar, slopes,
                       ew, kw)

    def chart_gradient(self, pts: _Points, rows: np.ndarray) -> np.ndarray:
        """Gradient of the objective in the coordinates of the constraint
        manifold, for rows ``rows`` of ``pts``.

        The raw gradient treats interpolation cell membership as locally
        constant: d xh_j / d w_m = slope(h_j) * dt_m * exp(w_m) for j > m, a
        reversed cumulative sum of the weighted residual times the slopes.
        The endpoint projection parameterizes feasible base functions by
        their mean-zero component; the chain rule through its log-shift turns
        the raw gradient g into g - sum(g) * dt * exp(w) / span, projected
        onto the mean-zero subspace (of each row's own cells), with span =
        end_value - t_1.  Stepping along it and re-projecting is ascent on the
        manifold itself.  On padded cells dt, r A and w K are 0, so it is 0.
        """
        ew = pts.ew[rows]
        tail = np.cumsum((pts.ar[rows] * pts.slopes[rows])[:, ::-1], axis=1)[:, ::-1]
        g = -ew * tail[:, 1:] - pts.kw[rows]
        adj = g - g.sum(axis=1, keepdims=True) * ew / self.span
        mean = adj.sum(axis=1) / self._n_cells[rows]
        return np.where(self._cells[rows], adj - mean[:, None], 0.0)


def maximize_base_functions(w0: np.ndarray, x: np.ndarray, targets: np.ndarray,
                            weight, k_priors, grid,
                            max_steps: int = 25, scan_rounds: int = 0,
                            x_times: np.ndarray | None = None,
                            end_value: float | None = None
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected gradient ascent with backtracking on every row's base
    objective at once (see BaseObjectives for the rows and the domain; rows
    on node sets of different lengths come padded to the longest set).

    Every candidate is endpoint-projected before evaluation (one whose exp
    overflows scores -inf), so iterates stay on the constraint manifold and
    no row's objective decreases.  ``scan_rounds`` greedy line scans along
    low-frequency directions (of each row's own nodes) come first, over
    amplitudes in [-1, 1], 10 candidates per row and direction.  On a
    ``banded`` problem a direction's candidates are scored in calls of whole
    rows, each under ``SCAN_CALL_SIZE`` elements; elsewhere, where the dense
    products round by batch size, in one call.  Each row keeps its own scan
    choices, step size (starting at 1), backtracking and stopping rule: it
    stops when a step gains less than 1e-10 relative to its objective.  A
    backtracking call scores two trials, alpha and alpha/2, of every row
    still backtracking, which takes the first that improves: halving one
    trial at a time, up to 30, in half the calls.  Returns (w, objective,
    improved), one row or entry per curve.
    """
    problem = BaseObjectives(x, targets, weight, k_priors, grid, x_times=x_times,
                             end_value=end_value)
    n = problem.targets.shape[0]
    every = np.arange(n)
    cur = problem.evaluate(np.asarray(w0, dtype=float))
    if np.isneginf(cur.obj).any():
        raise EndpointViolation("a starting base function overflows its warp")
    start = cur.obj.copy()
    offsets = np.linspace(-1.0, 1.0, 11)
    offsets = offsets[offsets != 0.0]
    per_call = n if not problem.banded else \
        max(1, SCAN_CALL_SIZE // (offsets.size * problem.t.shape[0]))
    for _round in range(scan_rounds):
        for direction in problem.scan_directions():
            for lo in range(0, n, per_call):
                part = slice(lo, lo + per_call)
                cand_w = cur.w[part, None] + offsets[:, None] * direction[part, None]
                k = cand_w.shape[0]
                cand = problem.evaluate(cand_w.reshape(k * offsets.size, -1),
                                        np.repeat(every[part], offsets.size))
                objs = cand.obj.reshape(k, offsets.size)
                best = objs.argmax(axis=1)  # ties go to the first offset
                better = np.flatnonzero(objs[every[:k], best] > cur.obj[part])
                cur.take(cand, lo + better, better * offsets.size + best[better])
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
        for _bt in range(15):
            rows = active[pending]
            trials = alpha[pending] * np.array([[1.0], [0.5]])
            cand = problem.evaluate((cur.w[rows] + trials[..., None] * g[pending]
                                     ).reshape(-1, g.shape[1]), np.tile(rows, 2))
            ok = cand.obj.reshape(2, -1) > cur.obj[rows]
            took = ok.any(axis=0)
            won, pick = pending[took], np.flatnonzero(took) + rows.size * ~ok[0, took]
            gain[won] = cand.obj[pick] - cur.obj[rows[took]]
            cur.take(cand, rows[took], pick)
            step[rows[took]] = np.minimum(trials.ravel()[pick] * scale[won] * 2.0, 1e3)
            pending = pending[~took]
            if pending.size == 0:
                break
            alpha[pending] *= 0.25
        stopped = (gain == 0.0) | (gain < 1e-10 * (1.0 + np.abs(cur.obj[active])))
        active = active[~stopped]
    return cur.w, cur.obj, cur.obj > start + 1e-15
