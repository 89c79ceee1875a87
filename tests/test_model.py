import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma, gammaln

import gpalign.avb
from gpalign.avb import avb_fit, avb_init
from gpalign.errors import EndpointViolation
from gpalign.model import (SCAN_CALL_SIZE, BaseObjectives, Hyperparams, LatentState,
                           ModelConfig, WPrior, _CellLookup, _RowForms, digamma, log_joint,
                           maximize_base_functions, precision_law,
                           registration_weight, scan_directions, variance_law)
from gpalign.penalties import BANDED_MIN_P, build_penalty_set, build_time_grid
from gpalign.simulate import simulate_dataset
from gpalign.warping import project_endpoint, warp_from_base

from dense_oracles import dense_covariances, dense_prior_cov, long_double_form
from one_block import block_law
from reference_ascent import (base_gradient, chart_direction,
                              maximize_base_functions_halving)


def make_state(n, p, rng, pen):
    w = np.array([project_endpoint(rng.normal(0, 0.3, p - 1), pen.grid)
                  for _ in range(n)])
    z0 = rng.normal(0, 0.2, n)
    z0[-1] = -z0[:-1].sum()
    return LatentState(
        w=w, z0=z0, z1=1.0 + rng.normal(0, 0.1, n),
        f=rng.normal(0, 1, p),
        sigma_z0_sq=0.5, sigma_z1_sq=0.3, eta_f=2.0, lambda_f=1.5,
    )


class TestRegistrationKernel:
    """The registration kernel -0.5 r' A r of a residual r, through the
    weight's ``quad``."""

    def test_zero_residual(self, pen3):
        weight = registration_weight(ModelConfig(gamma_R=4.0), pen3)
        f = np.array([1.0, 2.0, 0.5])
        xh = 0.3 + 1.2 * f
        assert -0.5 * weight.quad(xh - 0.3 - 1.2 * f) == pytest.approx(0.0)

    def test_linear_in_gamma_r(self, pen3):
        r = np.array([0.1, -0.2, 0.3])
        v1 = registration_weight(ModelConfig(gamma_R=1.0), pen3).quad(r)
        v2 = registration_weight(ModelConfig(gamma_R=2.0), pen3).quad(r)
        assert v2 == pytest.approx(2.0 * v1)

    def test_matches_dense_oracle(self, pen3):
        rng = np.random.default_rng(0)
        weight = registration_weight(ModelConfig(gamma_R=3.7), pen3)
        for _ in range(20):
            xh = rng.standard_normal(3)
            f = rng.standard_normal(3)
            z0, z1 = rng.standard_normal(2)
            r = xh - z0 - z1 * f
            sigma = dense_covariances(pen3.main)[0]
            expected = -0.5 * r @ (3.7 * np.linalg.inv(sigma)) @ r
            assert -0.5 * weight.quad(r) == pytest.approx(expected, abs=1e-12)


class TestBasePrior:
    def test_zero_is_mode(self, pen10):
        wprior = WPrior(ModelConfig(gamma_w=2.0, lambda_w=3.0), pen10)
        assert wprior.log_kernel(np.zeros(pen10.p - 1), 0) == 0.0

    def test_per_curve_penalty_monotone(self, pen10):
        rng = np.random.default_rng(1)
        w = project_endpoint(rng.normal(0, 0.5, pen10.p - 1), pen10.grid)
        wprior = WPrior(ModelConfig(gamma_w=np.array([0.5, 50.0]), lambda_w=10.0),
                        pen10)
        assert wprior.log_kernel(w, 1) < wprior.log_kernel(w, 0)

    def test_matches_dense_oracle(self):
        # order 2 takes the closed form, order 1 the Cholesky path
        grid = build_time_grid([0.0, 0.3, 0.7, 1.0])
        config = ModelConfig(gamma_w=1.7, lambda_w=4.2)
        for order in (2, 1):
            pen = build_penalty_set(grid, derivative_order_w=order)
            k = np.linalg.inv(dense_prior_cov(pen, 1.7, 4.2))
            wprior = WPrior(config, pen)
            assert np.abs(wprior.form(0).matrix - k).max() < 1e-10 * np.abs(k).max()
            rng = np.random.default_rng(2)
            for _ in range(20):
                w = project_endpoint(rng.normal(0, 0.4, 3), grid)
                expected = -0.5 * w @ k @ w
                assert wprior.log_kernel(w, 0) == pytest.approx(expected, abs=1e-12)

    def test_first_order_precision_inverts_the_covariance(self):
        grid = build_time_grid(np.linspace(0.0, 1.0, 30))
        pen = build_penalty_set(grid, derivative_order_w=1)
        precision = WPrior(ModelConfig(gamma_w=20.0, lambda_w=200.0), pen).form(0).matrix
        product = precision @ dense_prior_cov(pen, 20.0, 200.0)
        assert np.abs(product - np.eye(pen.p - 1)).max() < 1e-10
        assert np.array_equal(precision, precision.T)


def _law_shapes():
    """Shapes the conditional laws give: the variance laws' for 1 to 400
    shifts or scales, the P1ginv precision law's for 1 to 400 terms, and the
    half-integer steps c + k/2 of the P2ginv one up to k = 999."""
    config = ModelConfig()
    pen = build_penalty_set(build_time_grid(np.linspace(0.0, 1.0, 4)))
    shapes = [variance_law(config, np.zeros(n))[0] for n in range(1, 401)]
    shapes += [precision_law(config, pen, 1.0, n, 0.0)[0] for n in range(1, 401)]
    return np.array(shapes + [config.hyper.c + 0.5 * k for k in range(1, 1000)])


class TestSpecialFunctions:
    # the bound's scalar digamma and log-gamma, against scipy.special; psi
    # changes sign at 1.46163, where the recurrence cancels
    POINTS = np.concatenate([np.logspace(-3, 7, 2001), np.linspace(1.3, 1.6, 3001),
                             _law_shapes()])

    def test_digamma_matches_scipy(self):
        got = np.array([digamma(float(x)) for x in self.POINTS])
        ref = scipy_digamma(self.POINTS)
        assert np.all(np.abs(got - ref) <= 4e-15 * np.maximum(1.0, np.abs(ref)))

    def test_lgamma_matches_scipy(self):
        got = np.array([math.lgamma(float(x)) for x in self.POINTS])
        ref = gammaln(self.POINTS)
        assert np.all(np.abs(got - ref) <= 4e-15 * np.maximum(1.0, np.abs(ref)))


def _hand_log_joint(data, state, config, pen):
    """Independent term-by-term evaluation of the joint log density."""
    n, p = data.shape
    hy = config.hyper
    t = pen.grid.points
    total = 0.0
    a = config.gamma_R * np.linalg.inv(dense_covariances(pen.main)[0])
    for i in range(n):
        h = warp_from_base(state.w[i], pen.grid)
        xh = np.interp(h, t, data[i])
        r = xh - state.z0[i] - state.z1[i] * state.f
        total += -0.5 * r @ a @ r
        cov_w = dense_prior_cov(pen, config.gamma_w_for(i), config.lambda_w)
        total += -0.5 * state.w[i] @ np.linalg.inv(cov_w) @ state.w[i]
    total += sum(-0.5 * z0i ** 2 / state.sigma_z0_sq
                 - 0.5 * np.log(state.sigma_z0_sq) for z0i in state.z0[:-1])
    total += sum(-0.5 * (z1i - 1.0) ** 2 / state.sigma_z1_sq
                 - 0.5 * np.log(state.sigma_z1_sq) for z1i in state.z1)
    prec_f = state.eta_f * pen.main.P1ginv + state.lambda_f * pen.main.P2ginv
    total += -0.5 * state.f @ prec_f @ state.f
    total += 0.5 * (2 * np.log(state.eta_f) + (p - 2) * np.log(state.lambda_f))
    for s2 in (state.sigma_z0_sq, state.sigma_z1_sq):
        total += (-(hy.a + 1) * np.log(s2) - hy.b / s2
                  + hy.a * np.log(hy.b) - gammaln(hy.a))
    for g in (state.eta_f, state.lambda_f):
        total += ((hy.c - 1) * np.log(g) - hy.d * g
                  + hy.c * np.log(hy.d) - gammaln(hy.c))
    return total


class TestLogJoint:
    def test_matches_hand_sum(self, pen3):
        rng = np.random.default_rng(3)
        config = ModelConfig(gamma_R=2.0, gamma_w=1.0, lambda_w=2.0)
        state = make_state(2, 3, rng, pen3)
        data = rng.standard_normal((2, 3))
        got = log_joint(data, state, config, pen3)
        assert got == pytest.approx(_hand_log_joint(data, state, config, pen3),
                                    rel=1e-12)

    def test_variance_increase_decreases_joint_at_zero_residuals(self, pen3):
        config = ModelConfig()
        f = np.array([0.5, 1.5, 1.0])
        data = np.tile(f, (2, 1))
        state = LatentState(
            w=np.zeros((2, 2)), z0=np.zeros(2), z1=np.ones(2), f=f,
            sigma_z0_sq=1.0, sigma_z1_sq=1.0, eta_f=1.0, lambda_f=1.0,
        )
        base = log_joint(data, state, config, pen3)
        state.sigma_z0_sq = 5.0
        assert log_joint(data, state, config, pen3) < base

    def test_conditional_consistency_z0(self, pen3):
        # a z0 block change moves the joint by exactly the conditional log-ratio
        rng = np.random.default_rng(4)
        config = ModelConfig(gamma_R=2.5)
        state = make_state(3, 3, rng, pen3)
        data = rng.standard_normal((3, 3))
        weight = registration_weight(config, pen3)
        means, var = block_law("z0", state, data, config, pen3, weight)
        mean, var = means[0], var[0]
        lj = log_joint(data, state, config, pen3)
        new = state.copy()
        delta = 0.37
        new.z0[0] += delta
        new.enforce_sum_zero()
        lj_new = log_joint(data, new, config, pen3)
        old_val, new_val = state.z0[0], state.z0[0] + delta
        expected = (-0.5 * (new_val - mean) ** 2 / var) \
            - (-0.5 * (old_val - mean) ** 2 / var)
        assert lj_new - lj == pytest.approx(expected, rel=1e-9)

    def test_conditional_consistency_z1(self, pen3):
        rng = np.random.default_rng(5)
        config = ModelConfig(gamma_R=1.5)
        state = make_state(3, 3, rng, pen3)
        data = rng.standard_normal((3, 3))
        weight = registration_weight(config, pen3)
        means, var = block_law("z1", state, data, config, pen3, weight)
        mean, var = means[1], var[1]
        lj = log_joint(data, state, config, pen3)
        new = state.copy()
        new.z1[1] = 1.9
        lj_new = log_joint(data, new, config, pen3)
        expected = (-0.5 * (1.9 - mean) ** 2 / var) \
            - (-0.5 * (state.z1[1] - mean) ** 2 / var)
        assert lj_new - lj == pytest.approx(expected, rel=1e-9)

    def test_conditional_consistency_eta_f(self, pen3):
        rng = np.random.default_rng(6)
        config = ModelConfig()
        state = make_state(2, 3, rng, pen3)
        data = rng.standard_normal((2, 3))
        lj = log_joint(data, state, config, pen3)
        new = state.copy()
        new.eta_f = 3.3
        lj_new = log_joint(data, new, config, pen3)
        # gamma conditional with shape c + rank(P1)/2 and the P1 quadratic rate
        quad = 0.5 * state.f @ pen3.main.P1ginv @ state.f
        c, d = config.hyper.c, config.hyper.d
        shape, rate = c + 1.0, d + quad
        expected = (shape - 1) * np.log(3.3 / state.eta_f) \
            - rate * (3.3 - state.eta_f)
        assert lj_new - lj == pytest.approx(expected, rel=1e-9)

    def test_sum_to_zero_maintained(self, pen3):
        rng = np.random.default_rng(7)
        state = make_state(4, 3, rng, pen3)
        state.z0[1] = 9.0
        state.enforce_sum_zero()
        assert state.z0.sum() == pytest.approx(0.0, abs=1e-14)


class TestBaseGradient:
    def test_matches_finite_differences_on_manifold(self, pen10):
        # the maximizer moves along projected perturbations; the directional
        # derivative of the projected objective must match the chart gradient,
        # for the per-curve reference and for each row of the batched one, on
        # the full grid and on a truncated domain whose warp ends at t_r < t_f
        from gpalign.model import BaseObjectives
        from reference_ascent import base_gradient, base_objective, chart_direction
        rng = np.random.default_rng(8)
        config = ModelConfig(gamma_R=10.0, gamma_w=np.array([2.0, 0.5, 8.0]),
                             lambda_w=5.0)
        wprior = WPrior(config, pen10)
        t = pen10.grid.points
        full = dict(t=t, x_times=t, end_value=None, weight=registration_weight(
            config, pen10), ks=[wprior.form(i) for i in range(3)])
        # 40-point grid observed up to t_24, registered up to t_f = 0.69
        g40 = np.linspace(0.0, 1.0, 40)
        nodes = np.append(g40[g40 < 0.69], 0.69)
        trunc_pen = build_penalty_set(build_time_grid(nodes))
        k_trunc = WPrior(config, trunc_pen)
        truncated = dict(t=nodes, x_times=g40[:24], end_value=g40[23],
                         weight=registration_weight(config, trunc_pen),
                         ks=[k_trunc.form(i) for i in range(3)])
        eps = 1e-6
        for case in (full, truncated):
            nt, xt, end = case["t"], case["x_times"], case["end_value"]
            weight, ks = case["weight"], case["ks"]
            xs = np.vstack([np.sin(np.pi * xt) + 0.1 * rng.standard_normal(xt.shape[0]),
                            np.exp(-((xt - 0.4) / 0.2) ** 2), xt ** 2])
            targets = np.vstack([np.cos(np.pi * nt), np.exp(-((nt - 0.5) / 0.2) ** 2),
                                 1.0 - nt])
            kw = dict(x_times=xt, end_value=end)

            def proj_obj(v, i):
                return base_objective(project_endpoint(v, nt, end_value=end), xs[i],
                                      targets[i], weight.matrix, ks[i].matrix, nt, **kw)

            def single(w):
                return chart_direction(base_gradient(w[0], xs[0], targets[0],
                                                     weight.matrix, ks[0].matrix,
                                                     nt, **kw),
                                       w[0], nt, end)[None, :]

            def batched(w):
                problem = BaseObjectives(xs, targets, weight, ks, nt, **kw)
                return problem.chart_gradient(problem.evaluate(w), np.arange(3))

            for gradient, rows, needed in [(single, 1, 50), (batched, 3, 150)]:
                checked = 0
                for _ in range(12):
                    w = project_endpoint(rng.normal(0, 0.3, (rows, nt.shape[0] - 1)),
                                         nt, end_value=end)
                    g = gradient(w)
                    for i in range(rows):
                        for _ in range(6):
                            d = rng.standard_normal(w.shape[1])
                            fd = (proj_obj(w[i] + eps * d, i)
                                  - proj_obj(w[i] - eps * d, i)) / (2 * eps)
                            analytic = float(g[i] @ d)
                            scale = max(abs(fd), abs(analytic))
                            if scale < 1e-6:
                                continue
                            assert abs(analytic - fd) / scale < 1e-5
                            checked += 1
                assert checked >= needed

    def test_registration_weight_noisy_form(self, pen10):
        config = ModelConfig(gamma_R=2.0, noisy=True)
        a = registration_weight(config, pen10, eta_X=3.0, lambda_X=5.0)
        sigma, p1, p2 = dense_covariances(pen10.main)
        combo = sigma / 2.0 + p1 / 3.0 + p2 / 5.0
        assert np.abs(a.matrix @ combo - np.eye(pen10.p)).max() < 1e-9
        assert np.abs(a.matrix - a.a * pen10.main.P1ginv - a.b * pen10.main.P2ginv).max() < 1e-12


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(a=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^c "):
            Hyperparams(c=bad)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(gamma_R=-1.0).validate()
    with pytest.raises(ValueError):
        ModelConfig(gamma_w=np.array([1.0, 2.0])).validate(3)
    for bad in (np.nan, np.inf, -np.inf):
        for field, config in [("gamma_R", ModelConfig(gamma_R=bad)),
                              ("lambda_w", ModelConfig(lambda_w=bad)),
                              ("gamma_w", ModelConfig(gamma_w=bad)),
                              ("gamma_w", ModelConfig(gamma_w=np.array([1.0, bad])))]:
            with pytest.raises(ValueError, match=f"^{field} "):
                config.validate(2)


class TestBandedObjectives:
    """BaseObjectives at and above the crossover, where the registration
    weight and the base prior are applied through the penalty factors."""

    @staticmethod
    def problem(truncated: bool):
        # 600-point grid; the truncated domain observes 420 points and
        # registers up to an off-grid t_f, so both have >= BANDED_MIN_P nodes
        grid = build_time_grid(np.linspace(0.0, 1.0, 600))
        t = grid.points
        sim = simulate_dataset("gauss3mix", 4, grid, seed=3)
        config = ModelConfig(gamma_R=1e5, gamma_w=np.array([2.0, 10.0, 50.0, 10.0]),
                             lambda_w=100.0)
        targets = np.tile(sim.Y.mean(axis=0), (4, 1))
        if not truncated:
            pen = build_penalty_set(grid)
            return pen, config, sim.Y, targets, t, {}
        r = 420
        nodes = np.append(t[:r + 1], 0.5 * (t[r + 1] + t[r + 2]))
        pen = build_penalty_set(build_time_grid(nodes))
        assert pen.base.p >= BANDED_MIN_P
        targets = np.array([np.interp(nodes, t, row) for row in targets])
        return pen, config, sim.Y[:, :r], targets, nodes, \
            dict(x_times=t[:r], end_value=t[r - 1])

    @staticmethod
    def long_double_objective(pen, weight, priors, xs, targets, w, nodes, kw):
        xt = kw.get("x_times", nodes)
        r = np.array([np.interp(np.clip(warp_from_base(w[i], nodes, end_value=kw.get(
            "end_value")), xt[0], xt[-1]), xt, xs[i]) for i in range(w.shape[0])]) \
            - targets
        prior = np.array([long_double_form(pen.base, k.a, k.b, w[i:i + 1])[0]
                          for i, k in enumerate(priors)])
        return -0.5 * long_double_form(pen.main, weight.a, weight.b, r) - 0.5 * prior

    @pytest.mark.parametrize("truncated", [False, True])
    def test_rows_match_reference(self, truncated):
        pen, config, xs, targets, nodes, kw = self.problem(truncated)
        weight = registration_weight(config, pen)
        wprior = WPrior(config, pen)
        priors = [wprior.form(i) for i in range(4)]
        assert weight.banded and all(k.banded for k in priors)
        w0 = np.random.default_rng(2).normal(0.0, 0.2, (4, nodes.shape[0] - 1))
        w = project_endpoint(w0, nodes, end_value=kw.get("end_value"))
        problem = BaseObjectives(xs, targets, weight, priors, nodes, **kw)
        pts = problem.evaluate(w)
        ref = self.long_double_objective(pen, weight, priors, xs, targets, pts.w,
                                         nodes, kw)
        assert np.max(np.abs(pts.obj - ref) / np.abs(ref)) <= 1e-12
        g = problem.chart_gradient(pts, np.arange(4))
        for i in range(4):
            g_ref = chart_direction(base_gradient(pts.w[i], xs[i], targets[i],
                                                  weight.matrix, priors[i].matrix,
                                                  nodes, **kw), pts.w[i], nodes,
                                    kw.get("end_value"))
            assert np.linalg.norm(g[i] - g_ref) <= 1e-9 * np.linalg.norm(g_ref)

    @pytest.mark.parametrize("truncated", [False, True])
    def test_ascent_never_decreases_a_row(self, truncated):
        pen, config, xs, targets, nodes, kw = self.problem(truncated)
        weight = registration_weight(config, pen)
        wprior = WPrior(config, pen)
        priors = [wprior.form(i) for i in range(4)]
        w0 = project_endpoint(0.1 * np.sin(np.arange(1, 5)[:, None] * nodes[:-1]),
                              nodes, end_value=kw.get("end_value"))
        start = BaseObjectives(xs, targets, weight, priors, nodes, **kw).evaluate(w0)
        w, obj, improved = maximize_base_functions(w0, xs, targets, weight, priors,
                                                   nodes, scan_rounds=1, **kw)
        assert np.all(obj >= start.obj)
        assert np.all(improved)
        before = self.long_double_objective(pen, weight, priors, xs, targets, start.w,
                                            nodes, kw)
        after = self.long_double_objective(pen, weight, priors, xs, targets, w,
                                           nodes, kw)
        assert np.all(after >= before)


class TestPaddedRows:
    """Rows on node sets of different lengths (the window candidates of one
    prediction), padded to the longest set, against each set's own problem."""

    @staticmethod
    def problem(p: int = 50):
        # a p-point grid observed up to t_r, r = 0.6 p; candidates t_f on and
        # off the grid.  At p=700 every weight and all but the shortest
        # prior are applied through the penalty factors.
        t = np.linspace(0.0, 1.0, p)
        r = int(0.6 * p)
        xt, end = t[:r], t[r - 1]
        config = ModelConfig(gamma_R=1e3, gamma_w=20.0, lambda_w=200.0)
        n = [int(f * p) for f in (0.5, 0.54, 0.64, 0.66)]
        sets = [t[:n[0]], np.append(t[:n[1]], 0.5 * (t[n[1]] + t[n[1] + 1])),
                t[:n[2]], np.append(t[:n[3]], 0.4 * t[n[3]] + 0.6 * t[n[3] + 1])]
        rng = np.random.default_rng(11)
        x = np.sin(2.0 * np.pi * xt) + 1.5 * xt
        rows = []  # (node set, weight, prior, target, w0) per row
        for nodes in sets:
            pen = build_penalty_set(build_time_grid(nodes))
            weight = registration_weight(config, pen)
            prior = WPrior(config, pen).form_at(config.gamma_w_scalar())
            for shift in (0.0, 0.05, -0.08):
                target = np.sin(2.0 * np.pi * (nodes + shift)) + 1.5 * nodes
                w0 = project_endpoint(rng.normal(0.0, 0.2, nodes.shape[0] - 1),
                                      nodes, end_value=end)
                rows.append((nodes, weight, prior, target, w0))
        width = max(nodes.shape[0] for nodes in sets)
        targets = np.zeros((len(rows), width))
        w0 = np.zeros((len(rows), width - 1))
        for i, (nodes, _, _, target, w) in enumerate(rows):
            targets[i, :nodes.shape[0]] = target
            w0[i, :nodes.shape[0] - 1] = w
        xs = np.tile(x, (len(rows), 1))
        padded = BaseObjectives(xs, targets, [row[1] for row in rows],
                                [row[2] for row in rows], [row[0] for row in rows],
                                x_times=xt, end_value=end)
        return rows, padded, xs, targets, w0, dict(x_times=xt, end_value=end)

    @staticmethod
    def own(row, x, kw):
        nodes, weight, prior, target, _ = row
        return BaseObjectives(x[None], target[None], weight, [prior], nodes, **kw)

    @pytest.mark.parametrize("p", [50, 700])
    def test_rows_match_their_own_problems(self, p):
        rows, padded, xs, _, w0, kw = self.problem(p)
        if p > 50:
            assert sum(row[1].banded + row[2].banded for row in rows[::3]) == 7
        pts = padded.evaluate(w0)
        grad = padded.chart_gradient(pts, np.arange(len(rows)))
        for i, row in enumerate(rows):
            m = row[0].shape[0] - 1
            own = self.own(row, xs[i], kw)
            ref = own.evaluate(w0[i:i + 1, :m])
            assert abs(pts.obj[i] - ref.obj[0]) <= 1e-12 * abs(ref.obj[0])
            assert np.abs(pts.w[i, :m] - ref.w[0]).max() <= 1e-12
            g_ref = own.chart_gradient(ref, np.arange(1))[0]
            assert np.linalg.norm(grad[i, :m] - g_ref) <= 1e-12 * np.linalg.norm(g_ref)
            assert np.all(grad[i, m:] == 0.0)
            assert np.all(pts.ar[i, m + 1:] == 0.0) and np.all(pts.kw[i, m:] == 0.0)
        # rows named out of order, and a subset, read the same rows
        rows_sub = np.array([7, 0, 11, 4])
        sub = padded.evaluate(w0[rows_sub], rows_sub)
        assert np.abs(sub.obj - pts.obj[rows_sub]).max() <= 1e-12 * np.abs(pts.obj).max()

    def test_scan_directions_follow_each_rows_nodes(self):
        rows, padded, *_ = self.problem()
        for k, direction in enumerate(padded.scan_directions()):
            for i, row in enumerate(rows):
                m = row[0].shape[0] - 1
                assert np.array_equal(direction[i, :m], scan_directions(row[0])[k])
                assert np.all(direction[i, m:] == 0.0)

    def test_ascent_never_decreases_a_row(self):
        rows, padded, xs, targets, w0, kw = self.problem()
        start = padded.evaluate(w0)
        w, obj, improved = maximize_base_functions(
            w0, xs, targets, [row[1] for row in rows], [row[2] for row in rows],
            [row[0] for row in rows], scan_rounds=1, **kw)
        assert np.all(obj >= start.obj) and np.all(improved)
        for i, row in enumerate(rows):
            m = row[0].shape[0] - 1
            own = self.own(row, xs[i], kw)
            before, after = own.evaluate(w0[i:i + 1, :m]), own.evaluate(w[i:i + 1, :m])
            assert after.obj[0] >= before.obj[0]
            assert abs(after.obj[0] - obj[i]) <= 1e-12 * abs(obj[i])

    def test_padded_node_sets_are_checked(self):
        t = np.linspace(0.0, 1.0, 10)
        config = ModelConfig()
        sets = [t[:6], t[1:8]]
        forms = [registration_weight(config, build_penalty_set(build_time_grid(s)))
                 for s in sets]
        kw = dict(x_times=t, end_value=0.5)
        with pytest.raises(ValueError, match="first node"):
            BaseObjectives(np.zeros((2, 10)), np.zeros((2, 7)), forms, forms, sets, **kw)
        with pytest.raises(ValueError, match="x_times and end_value"):
            BaseObjectives(np.zeros((2, 10)), np.zeros((2, 7)), forms, forms,
                           [t[:6], t[:8]])


class TestRowForms:
    """Distinct forms, one per row, applied by sorting the rows into one block
    per form, against each form's own product on its own columns."""

    CONFIG = ModelConfig(gamma_R=1e3, gamma_w=20.0, lambda_w=200.0)

    def forms(self):
        # dense weights on 20, 27 and 34 points, a dense-only form (the
        # first-derivative base prior, no factors) and a banded weight
        pens = [build_penalty_set(build_time_grid(np.linspace(0.0, 1.0, m)))
                for m in (20, 27, 34, BANDED_MIN_P + 50)]
        first = build_penalty_set(build_time_grid(np.linspace(0.0, 1.0, 25)),
                                  derivative_order_w=1)
        forms = [registration_weight(self.CONFIG, pen) for pen in pens]
        forms.append(WPrior(self.CONFIG, first).form(0))
        assert forms[3].banded and forms[4].penalties is None
        return forms

    @pytest.mark.parametrize("rows", [np.arange(12), np.array([9, 2, 5, 0, 7, 11])])
    def test_rows_match_each_forms_own_product(self, rows):
        forms = self.forms()
        pattern = [2, 0, 1, 0, 3, 2, 4, 1, 3, 4, 0, 2]  # form of each named row
        row_forms = _RowForms([forms[j] for j in pattern])
        # the padded columns of v are finite and non-zero
        v = np.random.default_rng(4).normal(size=(rows.size, BANDED_MIN_P + 50))
        va, vav = row_forms.rows(v, rows)
        present = {pattern[k] for k in rows}
        assert len(present) == (5 if rows.size == 12 else 3)
        for i, k in enumerate(rows):
            form = forms[pattern[k]]
            m = form.size
            ref_va, ref_vav = form.rows(v[i:i + 1, :m])
            assert np.abs(va[i, :m] - ref_va[0]).max() <= 1e-12 * np.abs(ref_va).max()
            assert abs(vav[i] - ref_vav[0]) <= 1e-12 * abs(ref_vav[0])
            assert np.all(va[i, m:] == 0.0)

    def test_memory_stays_linear_in_rows(self):
        # 40 window candidates of a 300-point grid, 30 rows each, shuffled
        t = np.linspace(0.0, 1.0, 300)
        forms = [registration_weight(self.CONFIG, build_penalty_set(build_time_grid(
            t[:m]))) for m in range(160, 200)]
        rng = np.random.default_rng(5)
        order = rng.permutation(np.repeat(np.arange(40), 30))
        row_forms = _RowForms([forms[j] for j in order])
        v, rows = rng.normal(size=(1200, 199)), np.arange(1200)
        row_forms.rows(v, rows)  # forms every dense matrix before measuring
        tracemalloc.start()
        try:
            row_forms.rows(v, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * v.nbytes + 2**20


def test_wprior_forms_dense_precision_only_when_read(pen10):
    # p=800 with one gamma_w per curve: neither the priors nor an evaluation
    # through them holds a dense (p-1) x (p-1) matrix until .matrix is read
    grid = build_time_grid(np.linspace(0.0, 1.0, 800))
    pen = build_penalty_set(grid)
    gw = np.linspace(1.0, 20.0, 20)
    config = ModelConfig(gamma_R=1e5, gamma_w=gw, lambda_w=100.0)
    wprior = WPrior(config, pen)
    priors = [wprior.form(i) for i in range(20)]
    assert all(k.banded for k in priors)
    sim = simulate_dataset("gauss3mix", 20, grid, seed=4)
    w = project_endpoint(np.zeros((20, 799)), grid)
    BaseObjectives(sim.Y, np.tile(sim.Y.mean(axis=0), (20, 1)),
                   registration_weight(config, pen), priors, grid).evaluate(w)
    wprior.log_kernel(w[0], 0)
    assert not any("matrix" in vars(k) for k in priors)
    k = priors[3]
    assert np.array_equal(k.matrix, gw[3] * pen.base.P1ginv + pen.base.P2ginv * k.b)
    assert "matrix" in vars(k) and "matrix" not in vars(priors[4])
    # below the crossover the matrix is the same expression, bit for bit
    small = WPrior(ModelConfig(gamma_w=3.0, lambda_w=7.0), pen10).form(0)
    b = 3.0 * 7.0 / (3.0 + 7.0)
    assert np.array_equal(small.matrix, 3.0 * pen10.base.P1ginv + pen10.base.P2ginv * b)


class TestCellLookup:
    """``_CellLookup`` against the clipped ``np.searchsorted`` it replaces."""

    @staticmethod
    def grids():
        rng = np.random.default_rng(8)
        graded = np.concatenate([[0.0], np.cumsum(np.geomspace(1e-6, 1.0, 60))])
        return {"uniform": np.linspace(0.0, 1.0, 50),
                "random": np.sort(rng.uniform(-2.0, 3.0, 80)),
                "graded": graded, "graded-reversed": graded[-1] - graded[::-1]}

    @pytest.mark.parametrize("name", ["uniform", "random", "graded", "graded-reversed"])
    def test_matches_clipped_searchsorted(self, name):
        xt = self.grids()[name]
        span = xt[-1] - xt[0]
        h = np.concatenate([
            xt, np.nextafter(xt, -np.inf), np.nextafter(xt, np.inf),
            [xt[0] - 1e-3 * span, xt[0] - 10.0 * span, -np.inf,
             xt[-1] + 1e-3 * span, xt[-1] + 10.0 * span, np.inf],
            np.random.default_rng(9).uniform(xt[0], xt[-1], 500)])
        ref = np.clip(np.searchsorted(xt, h, side="right") - 1, 0, xt.shape[0] - 2)
        lookup = _CellLookup(xt)
        assert np.array_equal(lookup(h), ref)
        assert np.array_equal(lookup(np.vstack([h, h[::-1]])),
                              np.vstack([ref, ref[::-1]]))
        cells = lookup(np.array([np.nan, xt[1], np.nan]))
        assert cells[1] == 1 and np.all((cells >= 0) & (cells <= xt.shape[0] - 2))

    def test_one_pass_on_a_uniform_grid(self):
        for p in (2, 3, 50, 800):
            assert _CellLookup(np.linspace(0.0, 1.0, p)).passes == min(p - 2, 1)


class TestTwoTrialBacktracking:
    """The ascent scores two trials per call; the one-halving-at-a-time
    batched loop of ``reference_ascent`` is its oracle."""

    CONFIG = ModelConfig(gamma_R=1e5, gamma_w=10.0, lambda_w=100.0)

    def problem(self, p: int):
        # criterion-1 data and config, from the fitter's initial state
        grid = build_time_grid(np.linspace(0.0, 1.0, p))
        pen = build_penalty_set(grid)
        sim = simulate_dataset("gauss3mix", 20, grid, seed=42)
        state = avb_init(sim.Y, self.CONFIG, pen)
        targets = state.mu_z0_full()[:, None] + state.mu_z1[:, None] * state.mu_f
        wprior = WPrior(self.CONFIG, pen)
        return (state.w_hat, sim.Y, targets, registration_weight(self.CONFIG, pen),
                [wprior.form(i) for i in range(20)], grid)

    @pytest.mark.parametrize("scan_rounds", [0, 1])
    def test_banded_ascent_equals_oracle_bitwise(self, scan_rounds):
        # from BANDED_MIN_P points on, a row's products do not depend on how
        # many rows are pending, so both rules accept the same candidates
        args = self.problem(400)
        assert args[3].banded
        new = maximize_base_functions(*args, scan_rounds=scan_rounds)
        old = maximize_base_functions_halving(*args, scan_rounds=scan_rounds)
        for a, b in zip(new, old):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("p", [50, 400])
    def test_scan_calls_and_split_scan_equals_oracle(self, p, monkeypatch):
        # a banded scan scores each direction in calls of whole curves, at
        # p = 400 two calls of 10 curves x 10 offsets; the oracle scores all
        # 200 candidates in one call, as the dense scan at p = 50 still does
        args = self.problem(p)
        sizes, evaluate = [], BaseObjectives.evaluate

        def counted(self, w, rows=None):
            sizes.append(w.shape[0])
            return evaluate(self, w, rows)
        monkeypatch.setattr(BaseObjectives, "evaluate", counted)
        new = maximize_base_functions(*args, scan_rounds=2)
        monkeypatch.undo()
        if p == 50:
            assert sizes[1:11] == [200] * 10
            return
        per_call = SCAN_CALL_SIZE // (10 * p)
        assert per_call == 10 and sizes[1:21] == [10 * per_call] * 20
        old = maximize_base_functions_halving(*args, scan_rounds=2)
        for a, b in zip(new, old):
            assert np.array_equal(a, b)

    def test_dense_ascent_matches_oracle(self):
        # below the crossover the dense products round by batch size
        args = self.problem(50)
        w, obj, improved = maximize_base_functions(*args, scan_rounds=1)
        w_ref, obj_ref, improved_ref = maximize_base_functions_halving(
            *args, scan_rounds=1)
        assert np.abs(w - w_ref).max() <= 1e-10
        assert np.all(np.abs(obj - obj_ref) <= 1e-12 * np.abs(obj_ref))
        assert np.array_equal(improved, improved_ref)

    def test_evaluate_calls_per_gradient_step(self, monkeypatch):
        # a 5-iteration criterion-1 fit: each ascent evaluates its start and
        # 5 scan directions per round; every other call is a backtracking call
        calls = dict(evaluate=0, chart_gradient=0, fixed=0)
        for name in ("evaluate", "chart_gradient"):
            def counted(self, *a, _name=name, _fn=getattr(BaseObjectives, name)):
                calls[_name] += 1
                return _fn(self, *a)
            monkeypatch.setattr(BaseObjectives, name, counted)
        grid = build_time_grid(np.linspace(0.0, 1.0, 50))
        sim = simulate_dataset("gauss3mix", 20, grid, seed=42)
        ratios = []
        for ascent in (maximize_base_functions, maximize_base_functions_halving):
            def counted_ascent(*a, _ascent=ascent, **kw):
                calls["fixed"] += 1 + 5 * kw.get("scan_rounds", 0)
                return _ascent(*a, **kw)
            monkeypatch.setattr(gpalign.avb, "maximize_base_functions", counted_ascent)
            calls.update(evaluate=0, chart_gradient=0, fixed=0)
            avb_fit(sim.Y, self.CONFIG, build_penalty_set(grid), tol=1e-7, max_iters=5,
                    rescan_every=5)
            ratios.append((calls["evaluate"] - calls["fixed"]) / calls["chart_gradient"])
        assert ratios[0] <= 1.6 < 2.0 < ratios[1]


class TestOverflowingRows:
    """A base-function entry past exp's range scores -inf as a candidate and
    raises as a starting point; a NaN row scores NaN."""

    @staticmethod
    def problem():
        grid = build_time_grid(np.linspace(0.0, 1.0, 30))
        pen = build_penalty_set(grid)
        config = ModelConfig(gamma_R=1e3, gamma_w=10.0, lambda_w=100.0)
        sim = simulate_dataset("gauss3mix", 3, grid, seed=5)
        priors = [WPrior(config, pen).form(i) for i in range(3)]
        return (sim.Y, np.tile(sim.Y.mean(axis=0), (3, 1)),
                registration_weight(config, pen), priors, grid)

    def test_candidates_score_minus_inf_or_nan(self):
        x, targets, weight, priors, grid = self.problem()
        problem = BaseObjectives(x, targets, weight, priors, grid)
        w = 0.1 * np.sin(np.arange(1, 4)[:, None] * grid.points[:-1])
        huge, bad = w.copy(), w.copy()
        huge[1, 7], bad[2, 3] = 800.0, np.nan
        ref = problem.evaluate(w).obj
        for cand, row in ((huge, 1), (bad, 2)):
            obj = problem.evaluate(cand).obj
            keep = np.arange(3) != row
            assert np.abs(obj[keep] - ref[keep]).max() <= 1e-12 * np.abs(ref).max()
            assert (obj[row] == -np.inf) if row == 1 else np.isnan(obj[row])

    def test_start_raises(self):
        x, targets, weight, priors, grid = self.problem()
        w0 = np.zeros((3, grid.points.shape[0] - 1))
        w0[0, 4] = 710.0
        with pytest.raises(EndpointViolation):
            maximize_base_functions(w0, x, targets, weight, priors, grid)
