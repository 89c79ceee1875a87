import copy

import numpy as np
import pytest

from gpalign.avb import (avb_fit, avb_init, elbo, maximize_base,
                         registered_curves, sweep, update_q_eta_f,
                         update_q_f, update_q_lambda_f, update_q_sigma_z0,
                         update_q_sigma_z1, update_q_z0, update_q_z1)
from gpalign.errors import InconsistentGrid
from gpalign.metrics import sls
from gpalign.model import ModelConfig, WPrior, registration_weight
from gpalign.penalties import build_penalty_set, build_time_grid
from gpalign.simulate import simulate_dataset
from gpalign.warping import project_endpoint, warp_from_base


def small_problem(seed=0, n=4, p=8, spread=0.35):
    grid = build_time_grid(np.linspace(0.0, 1.0, p))
    pen = build_penalty_set(grid)
    sim = simulate_dataset("gauss3mix", n, grid, seed=seed, warp_amplitude=spread)
    return grid, pen, sim


class TestInit:
    def test_identity_warps(self, pen10):
        data = np.random.default_rng(0).standard_normal((3, 10))
        state = avb_init(data, ModelConfig(), pen10)
        assert np.all(state.w_hat == 0.0)
        for i in range(3):
            h = warp_from_base(state.w_hat[i], pen10.grid)
            assert np.allclose(h, pen10.grid.points)

    def test_constant_curves_mean(self, pen3):
        data = np.full((4, 3), 2.5)
        state = avb_init(data, ModelConfig(), pen3)
        assert np.allclose(state.mu_f, 2.5)

    def test_two_curves_average(self, pen3):
        data = np.array([[0.0, 1.0, 2.0], [2.0, 3.0, 4.0]])
        state = avb_init(data, ModelConfig(), pen3)
        assert np.allclose(state.mu_f, [1.0, 2.0, 3.0])
        assert np.allclose(state.mu_z1, 1.0)
        assert np.allclose(state.mu_z0, 0.0)

    def test_shape_checks(self, pen3):
        with pytest.raises(InconsistentGrid):
            avb_init(np.zeros((2, 4)), ModelConfig(), pen3)
        with pytest.raises(InconsistentGrid):
            avb_init(np.zeros((1, 3)), ModelConfig(), pen3)


class TestUpdateOracles:
    """Every closed-form update compared against an independent dense
    implementation, applied stage by stage in the production order."""

    def setup_method(self):
        self.grid, self.pen, self.sim = small_problem(seed=3)
        self.config = ModelConfig(gamma_R=50.0, gamma_w=2.0, lambda_w=10.0)
        self.state = avb_init(self.sim.Y, self.config, self.pen)
        self.wprior = WPrior(self.config, self.pen, self.sim.Y.shape[0])
        self.weight = registration_weight(self.config, self.pen)
        # a couple of sweeps so all q blocks are away from their initial values
        for _ in range(2):
            sweep(self.state, self.sim.Y, self.config, self.pen, self.wprior,
                  self.weight)
        self.registered = registered_curves(self.state, self.sim.Y, self.pen)

    def test_update_q_f(self):
        st = copy.deepcopy(self.state)
        a = self.weight.matrix
        e_z1_sq = np.sum(st.var_z1 + st.mu_z1 ** 2)
        prec = e_z1_sq * a + st.mean_eta_f() * self.pen.P1ginv \
            + st.mean_lambda_f() * self.pen.P2ginv
        m0 = st.mu_z0_full()
        rhs = a @ sum(st.mu_z1[i] * (self.registered[i] - m0[i])
                      for i in range(4))
        cov_o = np.linalg.inv(prec)
        mu_o = cov_o @ rhs
        update_q_f(st, self.sim.Y, self.config, self.pen, self.weight, self.registered)
        # solver-path rounding only; the 3-point case below holds 1e-12
        assert np.abs(st.Sigma_f_q - cov_o).max() < 5e-12
        assert np.abs(st.mu_f - mu_o).max() < 5e-12

    def test_update_q_z0(self):
        st = copy.deepcopy(self.state)
        a = self.weight.matrix
        one = np.ones(self.pen.p)
        quad = one @ a @ one
        var_o = 1.0 / (st.mean_inv_sigma_z0() + 2.0 * quad)
        mu_o = st.mu_z0.copy()
        n = 4
        for i in range(n - 1):
            d_i = self.registered[i] - self.registered[n - 1] \
                + (st.mu_z1[n - 1] - st.mu_z1[i]) * st.mu_f
            others = mu_o.sum() - mu_o[i]
            mu_o[i] = var_o * (d_i @ a @ one - others * quad)
        update_q_z0(st, self.sim.Y, self.config, self.pen, self.weight,
                    self.registered)
        assert np.allclose(st.var_z0, var_o, atol=1e-15)
        assert np.abs(st.mu_z0 - mu_o).max() < 1e-12

    def test_update_q_z1(self):
        st = copy.deepcopy(self.state)
        a = self.weight.matrix
        e_ff = st.Sigma_f_q + np.outer(st.mu_f, st.mu_f)
        var_o = 1.0 / (st.mean_inv_sigma_z1() + np.trace(e_ff @ a))
        m0 = st.mu_z0_full()
        mu_o = np.array([
            var_o * (st.mean_inv_sigma_z1()
                     + st.mu_f @ a @ (self.registered[i] - m0[i]))
            for i in range(4)])
        update_q_z1(st, self.sim.Y, self.config, self.pen, self.weight,
                    self.registered)
        assert np.allclose(st.var_z1, var_o, atol=1e-15)
        assert np.abs(st.mu_z1 - mu_o).max() < 1e-12

    def test_update_precisions_and_variances(self):
        st = copy.deepcopy(self.state)
        hy = self.config.hyper
        e_ff = st.Sigma_f_q + np.outer(st.mu_f, st.mu_f)
        d_eta_o = hy.d + 0.5 * np.trace(self.pen.P1ginv @ e_ff)
        d_lam_o = hy.d + 0.5 * np.trace(self.pen.P2ginv @ e_ff)
        b_s0_o = hy.b + 0.5 * np.sum(st.var_z0 + st.mu_z0 ** 2)
        b_s1_o = hy.b + 0.5 * np.sum(st.var_z1 + (st.mu_z1 - 1.0) ** 2)
        update_q_eta_f(st, self.config, self.pen)
        update_q_lambda_f(st, self.config, self.pen)
        update_q_sigma_z0(st, self.config)
        update_q_sigma_z1(st, self.config)
        assert st.c_q_eta_f == pytest.approx(hy.c + 1.0)
        assert st.c_q_lambda_f == pytest.approx(hy.c + 0.5 * (self.pen.p - 2))
        assert st.a_q_sigma_z0 == pytest.approx(hy.a + 1.5)
        assert st.a_q_sigma_z1 == pytest.approx(hy.a + 2.0)
        assert st.d_q_eta_f == pytest.approx(d_eta_o, rel=1e-12)
        assert st.d_q_lambda_f == pytest.approx(d_lam_o, rel=1e-12)
        assert st.b_q_sigma_z0 == pytest.approx(b_s0_o, rel=1e-12)
        assert st.b_q_sigma_z1 == pytest.approx(b_s1_o, rel=1e-12)

    def test_zero_moment_edge_cases(self):
        st = copy.deepcopy(self.state)
        st.mu_z0[:] = 0.0
        st.var_z0[:] = 0.0
        update_q_sigma_z0(st, self.config)
        assert st.b_q_sigma_z0 == pytest.approx(self.config.hyper.b)
        st.mu_f[:] = 0.0
        st.Sigma_f_q[:] = 0.0
        update_q_eta_f(st, self.config, self.pen)
        assert st.d_q_eta_f == pytest.approx(self.config.hyper.d)

    def test_all_z1_zero_gives_zero_target(self):
        st = copy.deepcopy(self.state)
        st.mu_z1[:] = 0.0
        st.var_z1[:] = 0.0
        update_q_f(st, self.sim.Y, self.config, self.pen, self.weight,
                   self.registered)
        assert np.abs(st.mu_f).max() < 1e-12

    def test_single_curve_dense_oracle(self, pen3):
        # one curve, z1 = 1, z0 = 0, three points
        config = ModelConfig(gamma_R=5.0)
        data = np.array([[0.5, 1.5, -0.3], [0.5, 1.5, -0.3]])
        st = avb_init(data, config, pen3)
        weight = registration_weight(config, pen3)
        a = weight.matrix
        reg = registered_curves(st, data, pen3)
        update_q_f(st, data, config, pen3, weight, reg)
        prec = 2.0 * a + st.mean_eta_f() * pen3.P1ginv \
            + st.mean_lambda_f() * pen3.P2ginv
        cov_o = np.linalg.inv(prec)
        mu_o = cov_o @ (a @ (reg[0] + reg[1]))
        assert np.abs(st.Sigma_f_q - cov_o).max() < 1e-12
        assert np.abs(st.mu_f - mu_o).max() < 1e-12

    def test_smoothing_precision_shrinks_curvature(self):
        st1 = copy.deepcopy(self.state)
        st2 = copy.deepcopy(self.state)
        st2.c_q_lambda_f = st1.c_q_lambda_f * 100.0  # raise E[lambda_f]
        update_q_f(st1, self.sim.Y, self.config, self.pen, self.weight,
                   self.registered)
        update_q_f(st2, self.sim.Y, self.config, self.pen, self.weight,
                   self.registered)
        q1 = st1.mu_f @ self.pen.P2ginv @ st1.mu_f
        q2 = st2.mu_f @ self.pen.P2ginv @ st2.mu_f
        assert q2 < q1


class TestElbo:
    def test_sweeps_never_decrease(self):
        grid, pen, sim = small_problem(seed=5, n=5, p=10)
        config = ModelConfig(gamma_R=100.0, gamma_w=5.0, lambda_w=20.0)
        state = avb_init(sim.Y, config, pen)
        wprior = WPrior(config, pen, 5)
        weight = registration_weight(config, pen)
        values = []
        for _ in range(8):
            registered = sweep(state, sim.Y, config, pen, wprior, weight)
            values.append(elbo(state, sim.Y, config, pen, wprior, weight,
                               registered))
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-8)

    def test_perturbing_updated_block_decreases_elbo(self):
        grid, pen, sim = small_problem(seed=6, n=4, p=8)
        config = ModelConfig(gamma_R=40.0, gamma_w=2.0, lambda_w=10.0)
        state = avb_init(sim.Y, config, pen)
        wprior = WPrior(config, pen, 4)
        weight = registration_weight(config, pen)
        for _ in range(3):
            registered = sweep(state, sim.Y, config, pen, wprior, weight)

        def value(st):
            return elbo(st, sim.Y, config, pen, wprior, weight,
                        registered_curves(st, sim.Y, pen))

        # each block freshly set to its closed form is a local maximum
        update_q_f(state, sim.Y, config, pen, weight, registered)
        base = value(state)
        for delta in (1e-3, -1e-3):
            st = copy.deepcopy(state)
            st.mu_f = st.mu_f + delta
            assert value(st) < base
        update_q_z1(state, sim.Y, config, pen, weight, registered)
        base = value(state)
        for delta in (1e-3, -1e-3):
            st = copy.deepcopy(state)
            st.mu_z1 = st.mu_z1 + delta
            assert value(st) < base
            st = copy.deepcopy(state)
            st.var_z1 = st.var_z1 * (1.0 + delta)
            assert value(st) < base
        update_q_sigma_z1(state, config)
        base = value(state)
        for delta in (1e-2, -1e-2):
            st = copy.deepcopy(state)
            st.b_q_sigma_z1 = st.b_q_sigma_z1 * (1.0 + delta)
            assert value(st) < base
        update_q_eta_f(state, config, pen)
        base = value(state)
        for delta in (1e-2, -1e-2):
            st = copy.deepcopy(state)
            st.d_q_eta_f = st.d_q_eta_f * (1.0 + delta)
            assert value(st) < base


class TestMaximizeBase:
    def test_registered_data_keeps_identity(self, pen10):
        # curves already equal to shifted/scaled target: w = 0 is the optimum
        t = pen10.grid.points
        f = np.sin(np.pi * t)
        data = np.vstack([0.2 + 1.1 * f, -0.2 + 0.9 * f])
        config = ModelConfig(gamma_R=100.0, gamma_w=5.0, lambda_w=10.0)
        state = avb_init(data, config, pen10)
        state.mu_f = f
        state.mu_z0 = np.array([0.2])
        state.mu_z1 = np.array([1.1, 0.9])
        w = maximize_base(state, data, config, pen10)[0]
        assert np.abs(w).max() < 1e-6

    def test_ascent_guarantee(self):
        grid, pen, sim = small_problem(seed=7, n=3, p=9)
        config = ModelConfig(gamma_R=200.0, gamma_w=1.0, lambda_w=5.0)
        state = avb_init(sim.Y, config, pen)
        wprior = WPrior(config, pen, 3)
        weight = registration_weight(config, pen)
        from reference_ascent import base_objective
        t = pen.grid.points
        ws = maximize_base(state, sim.Y, config, pen, wprior, weight, scan=True)
        for i in range(3):
            target = state.mu_z0_full()[i] + state.mu_z1[i] * state.mu_f
            k = wprior.precision(i)
            before = base_objective(state.w_hat[i], sim.Y[i], target, weight.matrix, k, t)
            w = ws[i]
            after = base_objective(w, sim.Y[i], target, weight.matrix, k, t)
            assert after >= before

    def test_time_shifted_curve_improves(self, ):
        # a curve that is the target compressed in time should warp toward it
        grid = build_time_grid(np.linspace(0, 1, 30))
        pen = build_penalty_set(grid)
        t = grid.points
        f = np.exp(-0.5 * ((t - 0.5) / 0.08) ** 2)
        x = np.exp(-0.5 * ((t - 0.62) / 0.08) ** 2)
        data = np.vstack([x, f])
        config = ModelConfig(gamma_R=500.0, gamma_w=5.0, lambda_w=50.0)
        state = avb_init(data, config, pen)
        state.mu_f = f
        from reference_ascent import base_objective
        wprior = WPrior(config, pen, 2)
        weight = registration_weight(config, pen)
        target = state.mu_f
        k = wprior.precision(0)
        before = base_objective(np.zeros(29), data[0], target, weight.matrix, k, t)
        w = maximize_base(state, data, config, pen, wprior, weight, scan=True)[0]
        after = base_objective(w, data[0], target, weight.matrix, k, t)
        assert after > before
        # and the registered curve is closer to the target than the raw one
        h = warp_from_base(w, grid)
        reg = np.interp(h, t, data[0])
        assert np.linalg.norm(reg - f) < np.linalg.norm(data[0] - f)

    def test_batching_does_not_change_result(self):
        # each row of one all-curves ascent is the per-curve reference ascent
        # of that curve alone, up to summation order (gemm against gemv), on
        # the full grid and on the truncated domain of partial registration
        from gpalign.model import maximize_base_functions
        from reference_ascent import maximize_base_function
        gamma_w = np.array([2.0, 5.0, 10.0, 20.0, 5.0, 5.0, 50.0, 1.0])

        def check(w0, xs, targets, weight, k_priors, nodes, **kw):
            for scan_rounds in (2, 1, 0):
                w, obj, improved = maximize_base_functions(
                    w0, xs, targets, weight, k_priors, nodes, max_steps=60,
                    scan_rounds=scan_rounds, **kw)
                for i in range(targets.shape[0]):
                    w_i, obj_i, improved_i = maximize_base_function(
                        w0[i], xs[i], targets[i], weight, k_priors[i], nodes,
                        max_steps=60, scan_rounds=scan_rounds, **kw)
                    assert np.abs(w[i] - w_i).max() < 1e-9
                    assert obj[i] == pytest.approx(obj_i, rel=1e-9)
                    assert improved[i] == improved_i

        for p, seed, gamma_r in [(10, 0, 1e3), (12, 1, 1e4), (24, 2, 1e3),
                                 (30, 3, 1e4)]:
            grid, pen, sim = small_problem(seed=seed, n=8, p=p)
            t = grid.points
            config = ModelConfig(gamma_R=gamma_r, gamma_w=gamma_w, lambda_w=50.0)
            state = avb_init(sim.Y, config, pen)
            wprior = WPrior(config, pen, 8)
            weight = registration_weight(config, pen)
            k_priors = [wprior.precision(i) for i in range(8)]
            for it in range(3):
                targets = state.mu_z0_full()[:, None] \
                    + state.mu_z1[:, None] * state.mu_f
                check(state.w_hat, sim.Y, targets, weight.matrix, k_priors, t)
                sweep(state, sim.Y, config, pen, wprior, weight,
                      max_base_steps=60, scan=it == 0)
            # truncated domain: curves seen up to t_r, warps on nodes up to an
            # off-grid t_f > t_r and ending at t_r, targets read off at the nodes
            r = 2 * p // 3
            nodes = np.append(t[:r + 1], 0.5 * (t[r + 1] + t[r + 2]))
            trunc_pen = build_penalty_set(build_time_grid(nodes))
            trunc_prior = WPrior(config, trunc_pen, 8)
            trunc_targets = np.array([np.interp(nodes, t, row) for row in targets])
            w0 = project_endpoint(0.2 * np.sin(np.arange(1, 9)[:, None] * nodes[:-1]),
                                  nodes, end_value=t[r - 1])
            check(w0, sim.Y[:, :r], trunc_targets,
                  registration_weight(config, trunc_pen).matrix,
                  [trunc_prior.precision(i) for i in range(8)], nodes,
                  x_times=t[:r], end_value=t[r - 1])


class TestFit:
    def test_identical_curves_converge_to_identity(self, pen10):
        t = pen10.grid.points
        curve = np.sin(np.pi * t) + 0.5
        data = np.tile(curve, (4, 1))
        config = ModelConfig(gamma_R=1e4, gamma_w=10.0, lambda_w=50.0)
        state = avb_fit(data, config, pen10, tol=1e-8, max_iters=60)
        # the target shrinks slightly toward its prior, so exact zero is not
        # the fixed point; identity holds at the shrinkage scale
        assert np.abs(state.w_hat).max() < 1e-3
        assert np.abs(state.mu_z1 - 1.0).max() < 0.05
        assert np.abs(state.mu_z0).max() < 1e-6
        reg = registered_curves(state, data, pen10)
        assert np.abs(reg - curve).max() < 1e-3

    def test_zero_tolerance_hits_max_iters(self, pen10):
        data = np.random.default_rng(1).standard_normal((3, 10))
        config = ModelConfig(gamma_R=10.0, gamma_w=10.0, lambda_w=10.0)
        state = avb_fit(data, config, pen10, tol=0.0, max_iters=3)
        assert not state.converged
        assert state.stop_reason == "max_iters"
        assert state.n_iterations == 3

    def test_registration_beats_identity(self):
        grid, pen, sim = small_problem(seed=11, n=8, p=24, spread=0.3)
        config = ModelConfig(gamma_R=1e4, gamma_w=10.0, lambda_w=100.0)
        state = avb_fit(sim.Y, config, pen, tol=1e-7, max_iters=40)
        reg = registered_curves(state, sim.Y, pen)
        assert sls(sim.Y, reg, grid).sls < 1.0

    def test_equal_per_curve_gamma_matches_global_bitwise(self):
        grid, pen, sim = small_problem(seed=12, n=4, p=10)
        shared = dict(tol=1e-7, max_iters=10)
        s_global = avb_fit(sim.Y, ModelConfig(gamma_R=100.0, gamma_w=5.0,
                                              lambda_w=20.0), pen, **shared)
        s_vector = avb_fit(sim.Y, ModelConfig(gamma_R=100.0,
                                              gamma_w=np.full(4, 5.0),
                                              lambda_w=20.0), pen, **shared)
        assert np.array_equal(s_global.w_hat, s_vector.w_hat)
        assert np.array_equal(s_global.mu_f, s_vector.mu_f)
        assert s_global.elbo_trace == s_vector.elbo_trace

    @pytest.mark.parametrize("noisy", [False, True])
    def test_loose_tolerance_stops_by_parameter_change(self, noisy):
        # any change is below this tol, so the fit stops at its first chance:
        # iteration 1 for the noiseless model, the first iteration after the
        # freeze for the noisy one (never inside the smoothing stage)
        grid = build_time_grid(np.linspace(0.0, 1.0, 10))
        pen = build_penalty_set(grid)
        sim = simulate_dataset("gauss3mix", 4, grid, noise_sd=0.3 if noisy else 0.0,
                               seed=13)
        config = ModelConfig(gamma_R=1e3, gamma_w=10.0, lambda_w=50.0, noisy=noisy)
        state = avb_fit(sim.Y, config, pen, tol=1e10, max_iters=20,
                        freeze_X_after=3)
        assert state.converged
        assert state.stop_reason == "parameter_change"
        assert len(state.elbo_trace) == state.n_iterations
        if noisy:
            assert state.freeze_iteration == 3
            assert state.n_iterations == 4
            assert state.mu_X is not None and not np.allclose(state.mu_X, sim.Y)
        else:
            assert state.freeze_iteration is None
            assert state.n_iterations == 1
            assert state.mu_X is None
