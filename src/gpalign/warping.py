"""Monotone warping functions and evaluation of curves at warped times.

A warp is stored as its values ``h(t_1)..h(t_p)`` on the grid.  It is built
from an unconstrained base function ``w`` (values on t_1..t_{p-1}) through

    h(t_j) = t_1 + sum_{k=2..j} (t_k - t_{k-1}) * exp(w(t_{k-1})),

which is strictly increasing by construction and fixes h(t_1) = t_1.  The
right-endpoint constraint h(t_p) = t_p is enforced by a uniform log-shift
projection of ``w``.  All interpolation is piecewise linear, so warps have
closed-form inverses.

Most functions accept either a TimeGrid or a bare array of node times; the
prediction pipeline uses truncated node sets whose warp ends at a value other
than the last node (``end_value``).
"""

from __future__ import annotations

import numpy as np

from .errors import EndpointViolation, QueryOutOfDomain
from .penalties import TimeGrid

ENDPOINT_ATOL = 1e-9
_DOMAIN_RTOL = 1e-9


def _times(grid) -> np.ndarray:
    if isinstance(grid, TimeGrid):
        return grid.points
    return np.asarray(grid, dtype=float)


def warp_from_base(w, grid, end_value: float | None = None) -> np.ndarray:
    """Map projected base functions (rows of ``w``) to their warps on the grid nodes.

    ``end_value`` is the required value of the warp at the last node
    (defaults to the last node itself).  Raises EndpointViolation when a base
    function has not been projected onto the constraint.
    """
    t = _times(grid)
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != t.shape[0] - 1:
        raise ValueError(f"base function has {w.shape[-1]} values, expected {t.shape[0] - 1}")
    target = t[-1] if end_value is None else float(end_value)
    h = np.empty(w.shape[:-1] + t.shape)
    h[..., 0] = t[0]
    h[..., 1:] = t[0] + np.cumsum((t[1:] - t[:-1]) * np.exp(w), axis=-1)
    scale = max(abs(target - t[0]), 1.0)
    miss = abs(h[..., -1] - target)  # a scalar for a single base function
    if (miss.max() if miss.ndim else miss) > ENDPOINT_ATOL * scale:
        raise EndpointViolation(f"warp endpoint {h[..., -1].flat[miss.argmax()]!r}"
                                f" differs from required {target!r}")
    h[..., -1] = target
    return h


def project_endpoint(w, grid, end_value: float | None = None) -> np.ndarray:
    """Uniform log-shift of base functions (rows) so each warp hits the endpoint exactly.

    Returns w - log s with s = (h_w(t_p) - t_1) / (end - t_1); the projection is
    idempotent and preserves the warp's shape up to a uniform time rescaling.
    """
    t = _times(grid)
    w = np.asarray(w, dtype=float)
    target = t[-1] if end_value is None else float(end_value)
    total = ((t[1:] - t[:-1]) * np.exp(w)).sum(axis=-1, keepdims=True)
    return w - np.log(total / (target - t[0]))


def _check_domain(queries: np.ndarray, lo: float, hi: float) -> np.ndarray:
    tol = _DOMAIN_RTOL * max(hi - lo, 1.0)
    if np.any(queries < lo - tol) or np.any(queries > hi + tol):
        bad = queries[(queries < lo - tol) | (queries > hi + tol)]
        raise QueryOutOfDomain(f"query {bad.ravel()[0]!r} outside [{lo!r}, {hi!r}]")
    return np.clip(queries, lo, hi)


def _interp_in_domain(query, xp, fp):
    """np.interp at a scalar or array ``query`` inside [xp[0], xp[-1]]."""
    q = np.asarray(query, dtype=float)
    out = np.interp(_check_domain(np.atleast_1d(q), xp[0], xp[-1]), xp, fp)
    return float(out[0]) if q.ndim == 0 else out


def eval_linear(values, grid, query):
    """Piecewise-linear evaluation of grid values at query times.

    Exact at the knots; raises QueryOutOfDomain outside [t_1, t_p].
    Accepts a scalar or an array of queries.
    """
    return _interp_in_domain(query, _times(grid), np.asarray(values, dtype=float))


def invert_warp(h, grid, queries):
    """Exact piecewise-linear inverse of a monotone warp.

    ``queries`` are times in the warp's range; returns the times s with
    h(s) = query.  Exact at the knot images h(t_j).
    """
    return _interp_in_domain(queries, np.asarray(h, dtype=float), _times(grid))


def apply_warp(x, grid, h) -> np.ndarray:
    """Evaluate curve values x (on the grid) at the warped times h."""
    t = _times(grid)
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    q = _check_domain(h, t[0], t[-1])
    return np.interp(q, t, x)


def _interp_rows(q, xp, fp, cells=None) -> np.ndarray:
    """Row i: np.interp(q[i], xp[i], fp[i]); q, xp or fp may be one shared row.
    ``cells[i]`` holds each query's knot j (xp[j] <= q < xp[j+1]); a shared xp
    finds them by search.  The arithmetic, and so every bit of the result, is
    np.interp's."""
    if cells is None:
        cells = np.searchsorted(xp, q, side="right") - 1
    j = np.minimum(np.maximum(cells, 0), xp.shape[-1] - 2)

    def at_cells(a):
        if a.ndim == 1:
            return a[j]
        return a[:, j] if j.ndim == 1 else a[np.arange(j.shape[0])[:, None], j]

    slopes = (fp[..., 1:] - fp[..., :-1]) / (xp[..., 1:] - xp[..., :-1])
    # np.interp's exact end values: a query below the first knot sits on it,
    # and one from the last knot on takes the last value
    out = at_cells(slopes) * np.maximum(q - at_cells(xp), 0.0) + at_cells(fp)
    return np.where(q >= xp[..., -1:], fp[..., -1:], out)


def _inverse_rows(h, nodes, queries) -> np.ndarray:
    """Row i: the inverse of the increasing map ``h[i]`` on ``nodes`` at the
    increasing ``queries``, np.interp(queries, h[i], nodes) to the bit."""
    n, m = h.shape[0], queries.shape[0]
    # cell of q_k among knots h_i: #{j: h_ij <= q_k} - 1, and h_ij <= q_k iff
    # at most k queries lie below h_ij
    below = np.searchsorted(queries, h, side="left") + (m + 1) * np.arange(n)[:, None]
    counts = np.bincount(below.ravel(), minlength=n * (m + 1)).reshape(n, m + 1)
    return _interp_rows(queries, h, nodes, np.cumsum(counts, axis=1)[:, :m] - 1)


def _compose_inverse(values, knots, h, nodes, queries) -> np.ndarray:
    """Row i: ``values`` (or ``values[i]``) on ``knots`` composed with the inverse
    of the increasing map ``h[i]`` on ``nodes``, at the increasing ``queries``;
    np.interp(np.interp(queries, h[i], nodes), knots, values[i]) to the bit."""
    return _interp_rows(_inverse_rows(h, nodes, queries), knots, values)


def at_inverse_warps(f, w, grid) -> np.ndarray:
    """Row i: grid values ``f`` (or ``f[i]``) composed with the inverse of the
    warp h_i of ``w[i]``, f(h_i^{-1}(t)) on the grid nodes, both maps
    piecewise linear as np.interp evaluates them."""
    t = _times(grid)
    return _compose_inverse(np.asarray(f, dtype=float), t, warp_from_base(w, t), t, t)
