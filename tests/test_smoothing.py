import copy

import numpy as np
import pytest

from gpalign.avb import avb_fit, registered_curves, sweep
from gpalign.model import ModelConfig, WPrior, registration_weight
from gpalign.penalties import build_penalty_set, build_time_grid
from gpalign.simulate import simulate_dataset
from gpalign.smoothing import (NoisyData, avb_fit_noisy, avb_init_noisy,
                               noisy_weight, presmooth_only, update_q_X,
                               update_q_etaX, update_q_lambdaX,
                               update_q_sigmaY)
from gpalign.warping import at_inverse_warps

from dense_oracles import dense_covariances


def noisy_problem(seed=0, n=4, p=9, noise=0.2):
    grid = build_time_grid(np.linspace(0.0, 1.0, p))
    pen = build_penalty_set(grid)
    sim = simulate_dataset("gauss3mix", n, grid, noise_sd=noise, seed=seed)
    return grid, pen, sim


class TestNoisyData:
    def test_validation(self):
        with pytest.raises(Exception):
            NoisyData(np.array([1.0, 2.0]))
        nd = NoisyData(np.ones((2, 5)))
        assert nd.n_curves == 2


class TestUpdateQX:
    def test_zero_noise_limit_recovers_observations(self):
        grid, pen, sim = noisy_problem(seed=1)
        config = ModelConfig(gamma_R=10.0, noisy=True)
        state = avb_init_noisy(sim.Y, config, pen)
        # enormous observation precision: mu_X must collapse onto Y
        state.a_q_sigma_Y = 1e12
        state.b_q_sigma_Y = 1.0
        update_q_X(state, sim.Y, config, pen)
        assert np.abs(state.mu_X - sim.Y).max() < 1e-8

    def test_dense_oracle_identity_warp(self, pen3):
        config = ModelConfig(gamma_R=5.0, noisy=True)
        y = np.array([[1.0, -0.5, 2.0], [0.3, 0.8, -1.2]])
        state = avb_init_noisy(y, config, pen3)
        state.c_q_eta_X, state.d_q_eta_X = 6.0, 2.0       # E[eta_X] = 3
        state.c_q_lambda_X, state.d_q_lambda_X = 8.0, 4.0  # E[lambda_X] = 2
        state.a_q_sigma_Y, state.b_q_sigma_Y = 10.0, 5.0   # E[1/sigma_Y^2] = 2
        update_q_X(state, y, config, pen3)
        rough = 3.0 * pen3.P1ginv + 2.0 * pen3.P2ginv
        prec = 2.0 * np.eye(3) + rough
        cov_o = np.linalg.inv(prec)
        # identity warp: the anchor is mu_z0 + mu_z1 * mu_f = mu_f at init
        anchor = state.mu_f
        mu_o = cov_o @ (2.0 * y[0] + rough @ anchor)
        assert np.abs(state.Sigma_X_q - cov_o).max() < 1e-12
        assert np.abs(state.mu_X[0] - mu_o).max() < 1e-12

    def test_covariance_identical_across_curves(self):
        grid, pen, sim = noisy_problem(seed=2)
        config = ModelConfig(gamma_R=10.0, noisy=True)
        state = avb_init_noisy(sim.Y, config, pen)
        update_q_X(state, sim.Y, config, pen)
        cov0 = state.Sigma_X_q.copy()
        # new curve-specific blocks (scale of curve 3) leave the covariance
        state.mu_z1[3] = 1.5
        update_q_X(state, sim.Y, config, pen)
        assert np.array_equal(cov0, state.Sigma_X_q)


class TestPrecisionUpdates:
    def test_sigma_y_residual_free_case(self):
        grid, pen, sim = noisy_problem(seed=3)
        config = ModelConfig(gamma_R=10.0, noisy=True)
        state = avb_init_noisy(sim.Y, config, pen)
        state.mu_X = sim.Y.copy()
        state.Sigma_X_q = 0.1 * np.eye(pen.p)
        update_q_sigmaY(state, sim.Y, config, pen)
        n, p = sim.Y.shape
        assert state.a_q_sigma_Y == pytest.approx(config.hyper.a + 0.5 * n * p)
        assert state.b_q_sigma_Y == pytest.approx(
            config.hyper.b + 0.5 * n * 0.1 * p)

    def test_eta_x_zero_case(self, pen3):
        config = ModelConfig(gamma_R=1.0, noisy=True)
        y = np.zeros((2, 3))
        state = avb_init_noisy(y, config, pen3)
        state.mu_z1[:] = 0.0
        state.var_z1[:] = 0.0
        update_q_etaX(state, y, config, pen3)
        assert state.d_q_eta_X == pytest.approx(config.hyper.d)
        assert state.c_q_eta_X == pytest.approx(config.hyper.c + 2)

    def test_roughness_rate_oracle(self):
        # independent dense construction of E[(X - z0 - z1 f(hinv)) ...]
        grid, pen, sim = noisy_problem(seed=4, n=3, p=7)
        config = ModelConfig(gamma_R=20.0, noisy=True)
        state = avb_init_noisy(sim.Y, config, pen)
        wprior = WPrior(config, pen, 3)
        rng = np.random.default_rng(5)
        state.mu_z0 = rng.normal(0, 0.1, 2)
        state.var_z0 = np.abs(rng.normal(0, 0.01, 2))
        state.mu_z1 = 1.0 + rng.normal(0, 0.1, 3)
        state.var_z1 = np.abs(rng.normal(0, 0.01, 3))
        state.mu_f = rng.normal(0, 1, 7)
        state.Sigma_X_q = 0.05 * np.eye(7)
        state.mu_X = sim.Y + rng.normal(0, 0.05, sim.Y.shape)
        from gpalign.warping import project_endpoint
        state.w_hat = np.array([
            project_endpoint(rng.normal(0, 0.2, 6), grid) for _ in range(3)])

        n, p = 3, 7
        m0 = state.mu_z0_full()
        e_z0_sq = state.e_z0_sq_full()
        one = np.ones(p)
        expected = {}
        for pen_name, mat in (("eta", pen.P1ginv), ("lam", pen.P2ginv)):
            acc = 0.0
            for i in range(n):
                ft = at_inverse_warps(state.mu_f, state.w_hat, pen.grid)[i]
                mu = state.mu_X[i]
                e_z1_sq = state.var_z1[i] + state.mu_z1[i] ** 2
                e_ff = state.Sigma_X_q / n + np.outer(ft, ft)
                m_big = (state.Sigma_X_q + np.outer(mu, mu)
                         - np.outer(mu, m0[i] * one + state.mu_z1[i] * ft)
                         - np.outer(m0[i] * one + state.mu_z1[i] * ft, mu)
                         + e_z0_sq[i] * np.outer(one, one)
                         + m0[i] * state.mu_z1[i] * (np.outer(one, ft)
                                                     + np.outer(ft, one))
                         + e_z1_sq * e_ff)
                acc += np.trace(m_big @ mat)
            expected[pen_name] = config.hyper.d + 0.5 * acc
        update_q_etaX(state, sim.Y, config, pen)
        update_q_lambdaX(state, sim.Y, config, pen)
        assert state.d_q_eta_X == pytest.approx(expected["eta"], rel=1e-10)
        assert state.d_q_lambda_X == pytest.approx(expected["lam"], rel=1e-10)


class TestNoisyFit:
    def test_degenerate_noise_matches_noiseless_fit(self):
        # noiseless data through the noisy pipeline: the smoothed curves
        # collapse onto the observations and the fit functionally matches the
        # plain pipeline.  (Exact parameter identity is blocked by the known
        # warp/shift confounding: both fits sit in the same near-flat optimum
        # but arrive by different paths.)
        from gpalign.avb import registered_curves as reg_of
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
        state = presmooth_only(data, config, pen, max_iters=40,
                               freeze_X_after=30)
        err_smooth = np.linalg.norm(state.mu_X - truth)
        err_raw = np.linalg.norm(data - truth)
        assert err_smooth < err_raw

    def test_presmooth_only_keeps_identity_warps(self):
        grid, pen, sim = noisy_problem(seed=10, n=3, p=9, noise=0.2)
        config = ModelConfig(gamma_R=100.0, gamma_w=5.0, lambda_w=20.0,
                             noisy=True)
        state = presmooth_only(sim.Y, config, pen, max_iters=10)
        assert np.all(state.w_hat == 0.0)
        assert not np.allclose(state.mu_X, sim.Y)

    def test_noisy_weight_structure(self):
        grid, pen, sim = noisy_problem(seed=11)
        config = ModelConfig(gamma_R=4.0, noisy=True)
        state = avb_init_noisy(sim.Y, config, pen)
        state.c_q_eta_X, state.d_q_eta_X = 6.0, 2.0
        state.c_q_lambda_X, state.d_q_lambda_X = 10.0, 2.0
        a = noisy_weight(state, config, pen).matrix
        sigma, p1, p2 = dense_covariances(pen.main)
        combo = sigma / 4.0 + p1 / 3.0 + p2 / 5.0
        assert np.abs(a @ combo - np.eye(pen.p)).max() < 1e-9
