import numpy as np
import pytest

from gpalign.avb import avb_fit, avb_fit_noisy, avb_init, presmooth_only
from gpalign.errors import DataError, DimensionMismatch
from gpalign.model import ModelConfig, WPrior, registration_weight
from gpalign.penalties import build_penalty_set, build_time_grid
from gpalign.simulate import simulate_dataset
from gpalign.warping import at_inverse_warps

from dense_oracles import dense_covariances, e_z0_sq_full
from one_block import set_q


def noisy_problem(seed=0, n=4, p=9, noise=0.2):
    grid = build_time_grid(np.linspace(0.0, 1.0, p))
    pen = build_penalty_set(grid)
    sim = simulate_dataset("gauss3mix", n, grid, noise_sd=noise, seed=seed)
    return grid, pen, sim


class TestNoisyData:
    def test_validation(self, pen3):
        # the noisy fit takes the same array as every other entry point
        config = ModelConfig(noisy=True)
        with pytest.raises(DataError):
            avb_fit_noisy(np.array([1.0, 2.0]), config, pen3)
        with pytest.raises(DimensionMismatch):
            avb_fit_noisy(np.array([[1.0, np.nan, 0.0], [1.0, 2.0, 0.0]]), config, pen3)


class TestUpdateQX:
    def test_zero_noise_limit_recovers_observations(self):
        grid, pen, sim = noisy_problem(seed=1)
        config = ModelConfig(gamma_R=10.0, noisy=True)
        state = avb_init(sim.Y, config, pen)
        # enormous observation precision: mu_X must collapse onto Y
        state.a_q_sigma_Y = 1e12
        state.b_q_sigma_Y = 1.0
        set_q(state, sim.Y, config, pen, None, "X")
        assert np.abs(state.mu_X - sim.Y).max() < 1e-8

    def test_dense_oracle_identity_warp(self, pen3):
        config = ModelConfig(gamma_R=5.0, noisy=True)
        y = np.array([[1.0, -0.5, 2.0], [0.3, 0.8, -1.2]])
        state = avb_init(y, config, pen3)
        state.c_q_eta_X, state.d_q_eta_X = 6.0, 2.0       # E[eta_X] = 3
        state.c_q_lambda_X, state.d_q_lambda_X = 8.0, 4.0  # E[lambda_X] = 2
        state.a_q_sigma_Y, state.b_q_sigma_Y = 10.0, 5.0   # E[1/sigma_Y^2] = 2
        set_q(state, y, config, pen3, None, "X")
        rough = 3.0 * pen3.main.P1ginv + 2.0 * pen3.main.P2ginv
        prec = 2.0 * np.eye(3) + rough
        cov_o = np.linalg.inv(prec)
        # identity warp: the anchor is mu_z0 + mu_z1 * mu_f = mu_f at init
        anchor = state.mu_f
        mu_o = cov_o @ (2.0 * y[0] + rough @ anchor)
        assert np.abs(pen3.main.covariance(state.var_X) - cov_o).max() < 1e-12
        assert np.abs(state.mu_X[0] - mu_o).max() < 1e-12

    def test_covariance_identical_across_curves(self):
        grid, pen, sim = noisy_problem(seed=2)
        config = ModelConfig(gamma_R=10.0, noisy=True)
        state = avb_init(sim.Y, config, pen)
        set_q(state, sim.Y, config, pen, None, "X")
        cov0 = state.var_X.copy()
        # new curve-specific blocks (scale of curve 3) leave the covariance
        state.mu_z1[3] = 1.5
        set_q(state, sim.Y, config, pen, None, "X")
        assert np.array_equal(cov0, state.var_X)


class TestPrecisionUpdates:
    def test_sigma_y_residual_free_case(self):
        grid, pen, sim = noisy_problem(seed=3)
        config = ModelConfig(gamma_R=10.0, noisy=True)
        state = avb_init(sim.Y, config, pen)
        state.mu_X = sim.Y.copy()
        state.var_X = np.full(pen.p, 0.1)
        set_q(state, sim.Y, config, pen, None, "sigma_Y_sq")
        n, p = sim.Y.shape
        assert state.a_q_sigma_Y == pytest.approx(config.hyper.a + 0.5 * n * p)
        assert state.b_q_sigma_Y == pytest.approx(
            config.hyper.b + 0.5 * n * 0.1 * p)

    def test_eta_x_zero_case(self, pen3):
        config = ModelConfig(gamma_R=1.0, noisy=True)
        y = np.zeros((2, 3))
        state = avb_init(y, config, pen3)
        state.mu_z1[:] = 0.0
        state.var_z1[:] = 0.0
        set_q(state, y, config, pen3, None, "eta_X")
        assert state.d_q_eta_X == pytest.approx(config.hyper.d)
        assert state.c_q_eta_X == pytest.approx(config.hyper.c + 2)

    def test_roughness_rate_oracle(self):
        # independent dense construction of E[(X - z0 - z1 f(hinv)) ...]
        grid, pen, sim = noisy_problem(seed=4, n=3, p=7)
        config = ModelConfig(gamma_R=20.0, noisy=True)
        state = avb_init(sim.Y, config, pen)
        wprior = WPrior(config, pen)
        rng = np.random.default_rng(5)
        state.mu_z0 = rng.normal(0, 0.1, 2)
        state.var_z0 = np.abs(rng.normal(0, 0.01, 2))
        state.mu_z1 = 1.0 + rng.normal(0, 0.1, 3)
        state.var_z1 = np.abs(rng.normal(0, 0.01, 3))
        state.mu_f = rng.normal(0, 1, 7)
        state.var_X = np.full(7, 0.05)
        state.mu_X = sim.Y + rng.normal(0, 0.05, sim.Y.shape)
        from gpalign.warping import project_endpoint
        state.w_hat = np.array([
            project_endpoint(rng.normal(0, 0.2, 6), grid) for _ in range(3)])

        n, p = 3, 7
        m0 = state.mu_z0_full()
        e_z0_sq = e_z0_sq_full(state)
        one = np.ones(p)
        expected = {}
        for pen_name, mat in (("eta", pen.main.P1ginv), ("lam", pen.main.P2ginv)):
            acc = 0.0
            for i in range(n):
                ft = at_inverse_warps(state.mu_f, state.w_hat, pen.grid)[i]
                mu = state.mu_X[i]
                e_z1_sq = state.var_z1[i] + state.mu_z1[i] ** 2
                cov = pen.main.covariance(state.var_X)
                e_ff = cov / n + np.outer(ft, ft)
                m_big = (cov + np.outer(mu, mu)
                         - np.outer(mu, m0[i] * one + state.mu_z1[i] * ft)
                         - np.outer(m0[i] * one + state.mu_z1[i] * ft, mu)
                         + e_z0_sq[i] * np.outer(one, one)
                         + m0[i] * state.mu_z1[i] * (np.outer(one, ft)
                                                     + np.outer(ft, one))
                         + e_z1_sq * e_ff)
                acc += np.trace(m_big @ mat)
            expected[pen_name] = config.hyper.d + 0.5 * acc
        set_q(state, sim.Y, config, pen, None, "eta_X", "lambda_X")
        assert state.d_q_eta_X == pytest.approx(expected["eta"], rel=1e-10)
        assert state.d_q_lambda_X == pytest.approx(expected["lam"], rel=1e-10)


class TestNoisyFit:
    def test_degenerate_noise_matches_noiseless_fit(self):
        # noiseless data through the noisy pipeline: the smoothed curves
        # collapse onto the observations and the fit functionally matches the
        # plain pipeline.  (Exact parameter identity is blocked by the known
        # warp/shift confounding: both fits sit in the same near-flat optimum
        # but arrive by different paths.)
        from gpalign.model import registered_curves as reg_of
        from gpalign.model import Hyperparams
        grid = build_time_grid(np.linspace(0, 1, 12))
        pen = build_penalty_set(grid)
        t = grid.points
        f = np.sin(np.pi * t) + 1.0
        rng = np.random.default_rng(6)
        z0 = rng.normal(0, 0.2, 4)
        z0 -= z0.mean()
        z1 = 1.0 + rng.normal(0, 0.1, 4)
        data = z0[:, None] + z1[:, None] * f[None, :]
        hy = Hyperparams(a=1e-9, b=1e-9, c=0.001, d=0.001)
        noisy_cfg = ModelConfig(gamma_R=1e4, gamma_w=10.0, lambda_w=50.0,
                                noisy=True, hyper=hy)
        plain_cfg = ModelConfig(gamma_R=1e4, gamma_w=10.0, lambda_w=50.0,
                                hyper=hy)
        s_noisy = avb_fit_noisy(data, noisy_cfg, pen, tol=1e-12,
                                max_iters=140, freeze_X_after=60)
        s_plain = avb_fit(data, plain_cfg, pen, tol=1e-12, max_iters=80)
        assert np.abs(s_noisy.mu_X - data).max() < 1e-5
        assert s_noisy.b_q_sigma_Y / s_noisy.a_q_sigma_Y < 1e-8
        assert np.abs(s_noisy.mu_z0 - s_plain.mu_z0).max() < 1e-5
        reg_noisy = reg_of(s_noisy, data, pen)
        reg_plain = reg_of(s_plain, data, pen)
        assert np.abs(reg_noisy - reg_plain).max() < 0.02
        assert np.abs(s_noisy.mu_f - s_plain.mu_f).max() < 0.02
        assert np.abs(s_noisy.mu_z1 - s_plain.mu_z1).max() < 0.02

    def test_freeze_zero_smooths_once_then_monotone(self):
        grid, pen, sim = noisy_problem(seed=7, n=4, p=10, noise=0.3)
        config = ModelConfig(gamma_R=100.0, gamma_w=5.0, lambda_w=20.0,
                             noisy=True)
        state = avb_fit_noisy(sim.Y, config, pen, tol=1e-9, max_iters=30,
                              freeze_X_after=0)
        assert state.freeze_iteration == 0
        assert not np.allclose(state.mu_X, sim.Y)  # one smoothing pass ran
        trace = np.asarray(state.elbo_trace)
        assert np.all(np.diff(trace) >= -1e-8)
        assert state.elbo_warnings == []

    def test_post_freeze_monotonicity_default(self):
        grid, pen, sim = noisy_problem(seed=8, n=5, p=12, noise=0.25)
        config = ModelConfig(gamma_R=500.0, gamma_w=5.0, lambda_w=50.0,
                             noisy=True)
        state = avb_fit_noisy(sim.Y, config, pen, tol=1e-8, max_iters=40,
                              freeze_X_after=5)
        trace = np.asarray(state.elbo_trace[state.freeze_iteration:])
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-8)

    def test_presmoothing_registered_family_beats_raw(self):
        # with no phase variability the smoothing anchors are valid, so the
        # smoothed curves land closer to the noiseless truth than the data
        grid = build_time_grid(np.linspace(0, 1, 25))
        pen = build_penalty_set(grid)
        t = grid.points
        f = np.sin(2 * np.pi * t) + 0.5 * t
        rng = np.random.default_rng(9)
        z0 = rng.normal(0, 0.2, 6)
        z0 -= z0.mean()
        z1 = 1.0 + rng.normal(0, 0.1, 6)
        truth = z0[:, None] + z1[:, None] * f[None, :]
        data = truth + 0.4 * rng.standard_normal(truth.shape)
        config = ModelConfig(gamma_R=100.0, gamma_w=10.0, lambda_w=50.0,
                             noisy=True)
        state = presmooth_only(data, config, pen, freeze_X_after=30)
        err_smooth = np.linalg.norm(state.mu_X - truth)
        err_raw = np.linalg.norm(data - truth)
        assert err_smooth < err_raw

    def test_presmooth_only_keeps_identity_warps(self):
        grid, pen, sim = noisy_problem(seed=10, n=3, p=9, noise=0.2)
        config = ModelConfig(gamma_R=100.0, gamma_w=5.0, lambda_w=20.0,
                             noisy=True)
        state = presmooth_only(sim.Y, config, pen)
        assert np.all(state.w_hat == 0.0)
        assert not np.allclose(state.mu_X, sim.Y)

    def test_presmooth_only_stops_at_the_freeze(self):
        # after the freeze the smoothing blocks no longer change, so the
        # smoothing stage alone gives the long fit's smoothed curves bitwise
        grid, pen, sim = noisy_problem(seed=10, n=3, p=9, noise=0.2)
        config = ModelConfig(gamma_R=100.0, gamma_w=5.0, lambda_w=20.0,
                             noisy=True)
        state = presmooth_only(sim.Y, config, pen)
        assert state.n_iterations == 25  # freeze_X_after
        assert np.all(state.w_hat == 0.0)
        full = avb_fit(sim.Y, config, pen, max_base_steps=0, max_iters=200,
                       freeze_X_after=25)
        for name in ("mu_X", "var_X", "a_q_sigma_Y", "b_q_sigma_Y"):
            assert np.array_equal(getattr(state, name), getattr(full, name)), name

    def test_freeze_recorded_when_the_smoothing_stage_ends(self):
        # criterion-3 data and config at a small size: the smoothing stage
        # alone ends at the freeze, and a fit cut before it never froze
        grid = build_time_grid(np.linspace(0.0, 1.0, 20))
        pen = build_penalty_set(grid)
        sim = simulate_dataset("gauss3mix", 6, grid, noise_sd=0.5, seed=17)
        config = ModelConfig(gamma_R=1e4, gamma_w=10.0, lambda_w=100.0, noisy=True)
        state = presmooth_only(sim.Y, config, pen, freeze_X_after=5)
        assert state.freeze_iteration == state.n_iterations == 5
        assert state.elbo_warnings == []
        cut = avb_fit(sim.Y, config, pen, max_iters=4, freeze_X_after=5)
        assert cut.n_iterations == 4
        assert cut.freeze_iteration is None

    def test_negative_freeze_rejected(self):
        # a noisy fit with freeze_X_after < 0 used to never smooth, and
        # presmooth_only returned a 0-iteration state
        grid, pen, sim = noisy_problem(seed=11)
        config = ModelConfig(gamma_R=1e3, noisy=True)
        with pytest.raises(ValueError, match="freeze_X_after"):
            avb_fit(sim.Y, config, pen, max_iters=3, freeze_X_after=-1)
        with pytest.raises(ValueError, match="freeze_X_after"):
            presmooth_only(sim.Y, config, pen, freeze_X_after=-2)

    def test_noisy_weight_structure(self):
        grid, pen, sim = noisy_problem(seed=11)
        config = ModelConfig(gamma_R=4.0, noisy=True)
        state = avb_init(sim.Y, config, pen)
        state.c_q_eta_X, state.d_q_eta_X = 6.0, 2.0
        state.c_q_lambda_X, state.d_q_lambda_X = 10.0, 2.0
        a = registration_weight(config, pen, state.eta_X, state.lambda_X).matrix
        sigma, p1, p2 = dense_covariances(pen.main)
        combo = sigma / 4.0 + p1 / 3.0 + p2 / 5.0
        assert np.abs(a @ combo - np.eye(pen.p)).max() < 1e-9
