"""Per-curve reference for the batched base-function ascent.

One curve at a time, written from ``warp_from_base``, ``project_endpoint`` and
``np.interp``: the objective, its analytic gradient, the chart direction and
the projected gradient ascent with backtracking, each on the full grid or on
the truncated domain of partial-curve prediction (the curve observed on
``x_times``, the warp ending at ``end_value``).  ``model.BaseObjectives`` and
``model.maximize_base_functions`` must agree with it row by row.

``maximize_base_functions_halving`` is the batched ascent as it was before
backtracking scored two trials per call, the oracle of the two-trial rule.
"""

import numpy as np

from gpalign.model import BaseObjectives, scan_directions
from gpalign.warping import project_endpoint, warp_from_base


def base_objective(w, x, target, weight, k_prior, t, x_times=None, end_value=None):
    """Registration kernel plus base prior of one curve at base function w."""
    xt = t if x_times is None else x_times
    h = warp_from_base(w, t, end_value=end_value)
    r = np.interp(np.clip(h, xt[0], xt[-1]), xt, x) - target
    return -0.5 * float(r @ weight @ r) - 0.5 * float(w @ k_prior @ w)


def base_gradient(w, x, target, weight, k_prior, t, x_times=None, end_value=None):
    """Gradient of base_objective in w with interpolation cells held fixed:
    d xh_j / d w_m = slope(h_j) * dt_m * exp(w_m) for j > m."""
    xt = t if x_times is None else x_times
    h = warp_from_base(w, t, end_value=end_value)
    cells = np.clip(np.searchsorted(xt, h, side="right") - 1, 0, xt.shape[0] - 2)
    slopes = (np.diff(x) / np.diff(xt))[cells]
    r = x[cells] + slopes * (h - xt[cells]) - target
    tail = np.cumsum((weight @ r * slopes)[::-1])[::-1]
    return -np.diff(t) * np.exp(w) * tail[1:] - k_prior @ w


def chart_direction(g, w, t, end_value=None):
    """The raw gradient g in the coordinates of the constraint manifold
    h(t_last) = end_value: the log-shift's chain rule, then the mean-zero
    projection."""
    span = (t[-1] if end_value is None else end_value) - t[0]
    adj = g - np.sum(g) * np.diff(t) * np.exp(w) / span
    return adj - adj.mean()


def maximize_base_function(w0, x, target, weight, k_prior, t, max_steps=25,
                           scan_rounds=0, x_times=None, end_value=None):
    """Projected gradient ascent with backtracking on one curve's objective,
    after ``scan_rounds`` greedy line scans.  Returns (w, objective, improved)."""
    kw = {"x_times": x_times, "end_value": end_value}

    def objective(v):
        return base_objective(v, x, target, weight, k_prior, t, **kw)

    w = project_endpoint(np.asarray(w0, dtype=float), t, end_value=end_value)
    obj = start = objective(w)
    for _round in range(scan_rounds):
        for direction in scan_directions(t):
            best_c = 0.0
            for c in np.linspace(-1.0, 1.0, 11):
                if c == 0.0:
                    continue
                cand_obj = objective(project_endpoint(w + c * direction, t,
                                                      end_value=end_value))
                if cand_obj > obj:
                    obj, best_c = cand_obj, c
            if best_c != 0.0:
                w = project_endpoint(w + best_c * direction, t, end_value=end_value)
    step = 1.0
    for _step in range(max_steps):
        g = chart_direction(base_gradient(w, x, target, weight, k_prior, t, **kw),
                            w, t, end_value)
        gnorm = float(np.linalg.norm(g))
        if gnorm < 1e-12:
            break
        gain = 0.0
        alpha = step / max(gnorm, 1.0)
        for _bt in range(30):
            cand = project_endpoint(w + alpha * g, t, end_value=end_value)
            cand_obj = objective(cand)
            if cand_obj > obj:
                gain = cand_obj - obj
                w, obj = cand, cand_obj
                step = min(alpha * max(gnorm, 1.0) * 2.0, 1e3)
                break
            alpha *= 0.5
        if gain == 0.0 or gain < 1e-10 * (1.0 + abs(obj)):
            break
    return w, obj, obj > start + 1e-15


def maximize_base_functions_halving(w0, x, targets, weight, k_priors, grid,
                                    max_steps=25, scan_rounds=0, x_times=None,
                                    end_value=None):
    """The batched ascent with one trial per backtracking call: every pending
    row is scored at its step, and the rows that did not improve halve it and
    are scored again, up to 30 trials.  ``model.maximize_base_functions``
    scores two trials per call and must accept the same candidates."""
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
        for direction in problem.scan_directions():
            cand_w = cur.w[:, None, :] + offsets[:, None] * direction[..., None, :]
            cand = problem.evaluate(cand_w.reshape(scan_rows.size, -1), scan_rows)
            objs = cand.obj.reshape(n, offsets.size)
            best = objs.argmax(axis=1)
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
