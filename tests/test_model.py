import numpy as np
import pytest
from scipy.special import gammaln

from gpalign.errors import DimensionMismatch
from gpalign.model import (Hyperparams, LatentState, ModelConfig, WPrior,
                           log_base_prior, log_joint, log_registration_kernel,
                           registration_weight)
from gpalign.penalties import build_penalty_set, build_time_grid
from gpalign.warping import project_endpoint, warp_from_base

from dense_oracles import dense_covariances, dense_prior_cov


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
    def test_zero_residual(self, pen3):
        config = ModelConfig(gamma_R=4.0)
        f = np.array([1.0, 2.0, 0.5])
        xh = 0.3 + 1.2 * f
        assert log_registration_kernel(xh, 0.3, 1.2, f, config, pen3) == pytest.approx(0.0)

    def test_linear_in_gamma_r(self, pen3):
        f = np.array([1.0, 2.0, 0.5])
        xh = f + np.array([0.1, -0.2, 0.3])
        v1 = log_registration_kernel(xh, 0.0, 1.0, f, ModelConfig(gamma_R=1.0), pen3)
        v2 = log_registration_kernel(xh, 0.0, 1.0, f, ModelConfig(gamma_R=2.0), pen3)
        assert v2 == pytest.approx(2.0 * v1)

    def test_matches_dense_oracle(self, pen3):
        rng = np.random.default_rng(0)
        config = ModelConfig(gamma_R=3.7)
        for _ in range(20):
            xh = rng.standard_normal(3)
            f = rng.standard_normal(3)
            z0, z1 = rng.standard_normal(2)
            r = xh - z0 - z1 * f
            sigma = dense_covariances(pen3.main)[0]
            expected = -0.5 * r @ (3.7 * np.linalg.inv(sigma)) @ r
            got = log_registration_kernel(xh, z0, z1, f, config, pen3)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self, pen3):
        with pytest.raises(DimensionMismatch):
            log_registration_kernel(np.zeros(4), 0.0, 1.0, np.zeros(4),
                                    ModelConfig(), pen3)


class TestBasePrior:
    def test_zero_is_mode(self, pen10):
        config = ModelConfig(gamma_w=2.0, lambda_w=3.0)
        assert log_base_prior(np.zeros(pen10.p - 1), config, pen10) == 0.0

    def test_per_curve_penalty_monotone(self, pen10):
        rng = np.random.default_rng(1)
        w = project_endpoint(rng.normal(0, 0.5, pen10.p - 1), pen10.grid)
        config = ModelConfig(gamma_w=np.array([0.5, 50.0]), lambda_w=10.0)
        wprior = WPrior(config, pen10, 2)
        loose = log_base_prior(w, config, pen10, curve_index=0, wprior=wprior)
        tight = log_base_prior(w, config, pen10, curve_index=1, wprior=wprior)
        assert tight < loose

    def test_matches_dense_oracle(self):
        # order 2 takes the closed form, order 1 the Cholesky path
        grid = build_time_grid([0.0, 0.3, 0.7, 1.0])
        config = ModelConfig(gamma_w=1.7, lambda_w=4.2)
        for order in (2, 1):
            pen = build_penalty_set(grid, derivative_order_w=order)
            k = np.linalg.inv(dense_prior_cov(pen, 1.7, 4.2))
            assert np.abs(WPrior(config, pen, 1).precision(0) - k).max() \
                < 1e-10 * np.abs(k).max()
            rng = np.random.default_rng(2)
            for _ in range(20):
                w = project_endpoint(rng.normal(0, 0.4, 3), grid)
                expected = -0.5 * w @ k @ w
                assert log_base_prior(w, config, pen) == pytest.approx(expected,
                                                                      abs=1e-12)


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
    prec_f = state.eta_f * pen.P1ginv + state.lambda_f * pen.P2ginv
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
        from gpalign.mcmc import registered_draws, z0_conditional
        rng = np.random.default_rng(4)
        config = ModelConfig(gamma_R=2.5)
        state = make_state(3, 3, rng, pen3)
        data = rng.standard_normal((3, 3))
        weight = registration_weight(config, pen3)
        registered = registered_draws(state, data, pen3)
        mean, var = z0_conditional(state, 0, registered, weight)
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
        from gpalign.mcmc import registered_draws, z1_conditional
        rng = np.random.default_rng(5)
        config = ModelConfig(gamma_R=1.5)
        state = make_state(3, 3, rng, pen3)
        data = rng.standard_normal((3, 3))
        weight = registration_weight(config, pen3)
        registered = registered_draws(state, data, pen3)
        mean, var = z1_conditional(state, 1, registered, weight)
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
        quad = 0.5 * state.f @ pen3.P1ginv @ state.f
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
        wprior = WPrior(config, pen10, 3)
        t = pen10.grid.points
        full = dict(t=t, x_times=t, end_value=None, weight=registration_weight(
            config, pen10).matrix, ks=[wprior.precision(i) for i in range(3)])
        # 40-point grid observed up to t_24, registered up to t_f = 0.69
        g40 = np.linspace(0.0, 1.0, 40)
        nodes = np.append(g40[g40 < 0.69], 0.69)
        trunc_pen = build_penalty_set(build_time_grid(nodes))
        k_trunc = WPrior(config, trunc_pen, 3)
        truncated = dict(t=nodes, x_times=g40[:24], end_value=g40[23],
                         weight=registration_weight(config, trunc_pen).matrix,
                         ks=[k_trunc.precision(i) for i in range(3)])
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
                                      targets[i], weight, ks[i], nt, **kw)

            def single(w):
                return chart_direction(base_gradient(w[0], xs[0], targets[0], weight,
                                                     ks[0], nt, **kw),
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
        assert np.abs(a.matrix - a.a * pen10.P1ginv - a.b * pen10.P2ginv).max() < 1e-12


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
