import copy

import numpy as np
import pytest

from gpalign import penalties
from gpalign.avb import (SMOOTHING_ORDER, avb_fit, avb_fit_noisy, avb_init, elbo,
                         registered_curves, sweep)
from gpalign.errors import (DataError, DimensionMismatch, InconsistentGrid,
                            SingularPrecision)
from gpalign.metrics import sls
from gpalign.model import (Hyperparams, ModelConfig, WPrior,
                           maximize_base_functions, registration_weight)
from gpalign.penalties import build_penalty_set, build_time_grid
from gpalign.simulate import simulate_dataset
from gpalign.warping import at_inverse_warps, project_endpoint, warp_from_base

from dense_oracles import dense_e_form, dense_elbo, dense_roughness_rate
from one_block import block_law, set_q


def small_problem(seed=0, n=4, p=8, spread=0.35):
    grid = build_time_grid(np.linspace(0.0, 1.0, p))
    pen = build_penalty_set(grid)
    sim = simulate_dataset("gauss3mix", n, grid, seed=seed, warp_amplitude=spread)
    return grid, pen, sim


def base_targets_and_priors(state, wprior):
    """The targets and base priors the AVB base step ascends against."""
    targets = state.mu_z0_full()[:, None] + state.mu_z1[:, None] * state.mu_f
    return targets, [wprior.form(i) for i in range(state.n_curves)]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_is_a_data_error(self, bad):
        # a non-finite value used to surface as a singular precision
        grid, pen, sim = small_problem(n=5, p=12)
        data = sim.Y.copy()
        data[2, 7] = bad
        with pytest.raises(DimensionMismatch, match="non-finite"):
            avb_init(data, ModelConfig(), pen)
        with pytest.raises(DataError):
            avb_fit(data, ModelConfig(gamma_R=1e3), pen, max_iters=2)

    def test_noisy_config_adds_smoothing_blocks_at_prior_values(self, pen3):
        data = np.array([[0.0, 1.0, 2.0], [2.0, 3.0, 4.0]])
        hy = Hyperparams(a=2.0, b=3.0, c=4.0, d=5.0)
        plain = avb_init(data, ModelConfig(hyper=hy), pen3)
        state = avb_init(data, ModelConfig(hyper=hy, noisy=True), pen3)
        assert np.array_equal(state.mu_X, data) and state.mu_X is not data
        assert np.array_equal(state.var_X, np.zeros(3))
        assert (state.a_q_sigma_Y, state.b_q_sigma_Y) == (2.0, 3.0)
        assert (state.c_q_eta_X, state.d_q_eta_X) == (4.0, 5.0)
        assert (state.c_q_lambda_X, state.d_q_lambda_X) == (4.0, 5.0)
        # every block the noiseless init sets is set the same way
        for name, value in vars(plain).items():
            if value is not None:
                assert np.array_equal(getattr(state, name), value), name


class TestUpdateOracles:
    """Every closed-form update compared against an independent dense
    implementation, applied stage by stage in the production order."""

    def setup_method(self):
        self.grid, self.pen, self.sim = small_problem(seed=3)
        self.config = ModelConfig(gamma_R=50.0, gamma_w=2.0, lambda_w=10.0)
        self.state = avb_init(self.sim.Y, self.config, self.pen)
        self.wprior = WPrior(self.config, self.pen)
        self.weight = registration_weight(self.config, self.pen)
        # a couple of sweeps so all q blocks are away from their initial values
        for _ in range(2):
            sweep(self.state, self.sim.Y, self.config, self.pen, self.wprior,
                  self.weight, max_base_steps=25)
        self.registered = registered_curves(self.state, self.sim.Y, self.pen)

    def test_update_q_f(self):
        st = copy.deepcopy(self.state)
        a = self.weight.matrix
        e_z1_sq = np.sum(st.var_z1 + st.mu_z1 ** 2)
        prec = e_z1_sq * a + st.eta_f * self.pen.main.P1ginv \
            + st.lambda_f * self.pen.main.P2ginv
        m0 = st.mu_z0_full()
        rhs = a @ sum(st.mu_z1[i] * (self.registered[i] - m0[i])
                      for i in range(4))
        cov_o = np.linalg.inv(prec)
        mu_o = cov_o @ rhs
        set_q(st, self.sim.Y, self.config, self.pen, self.weight, "f")
        # solver-path rounding only; the 3-point case below holds 1e-12
        assert np.abs(self.pen.main.covariance(st.var_f) - cov_o).max() < 5e-12
        assert np.abs(st.mu_f - mu_o).max() < 5e-12

    def test_update_q_z0(self):
        st = copy.deepcopy(self.state)
        a = self.weight.matrix
        one = np.ones(self.pen.p)
        quad = one @ a @ one
        var_o = 1.0 / (st.inv_sigma_z0_sq + 2.0 * quad)
        mu_o = st.mu_z0.copy()
        n = 4
        for i in range(n - 1):
            d_i = self.registered[i] - self.registered[n - 1] \
                + (st.mu_z1[n - 1] - st.mu_z1[i]) * st.mu_f
            others = mu_o.sum() - mu_o[i]
            mu_o[i] = var_o * (d_i @ a @ one - others * quad)
        set_q(st, self.sim.Y, self.config, self.pen, self.weight, "z0")
        assert np.allclose(st.var_z0, var_o, atol=1e-15)
        assert np.abs(st.mu_z0 - mu_o).max() < 1e-12

    def test_update_q_z1(self):
        st = copy.deepcopy(self.state)
        a = self.weight.matrix
        e_ff = self.pen.main.covariance(st.var_f) + np.outer(st.mu_f, st.mu_f)
        var_o = 1.0 / (st.inv_sigma_z1_sq + np.trace(e_ff @ a))
        m0 = st.mu_z0_full()
        mu_o = np.array([
            var_o * (st.inv_sigma_z1_sq
                     + st.mu_f @ a @ (self.registered[i] - m0[i]))
            for i in range(4)])
        set_q(st, self.sim.Y, self.config, self.pen, self.weight, "z1")
        assert np.allclose(st.var_z1, var_o, atol=1e-15)
        assert np.abs(st.mu_z1 - mu_o).max() < 1e-12

    def test_update_precisions_and_variances(self):
        st = copy.deepcopy(self.state)
        hy = self.config.hyper
        e_ff = self.pen.main.covariance(st.var_f) + np.outer(st.mu_f, st.mu_f)
        d_eta_o = hy.d + 0.5 * np.trace(self.pen.main.P1ginv @ e_ff)
        d_lam_o = hy.d + 0.5 * np.trace(self.pen.main.P2ginv @ e_ff)
        b_s0_o = hy.b + 0.5 * np.sum(st.var_z0 + st.mu_z0 ** 2)
        b_s1_o = hy.b + 0.5 * np.sum(st.var_z1 + (st.mu_z1 - 1.0) ** 2)
        set_q(st, self.sim.Y, self.config, self.pen, self.weight, "eta_f", "lambda_f",
              "sigma_z0_sq", "sigma_z1_sq")
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
        set_q(st, self.sim.Y, self.config, self.pen, self.weight, "sigma_z0_sq")
        assert st.b_q_sigma_z0 == pytest.approx(self.config.hyper.b)
        st.mu_f[:] = 0.0
        st.var_f[:] = 0.0
        set_q(st, self.sim.Y, self.config, self.pen, self.weight, "eta_f")
        assert st.d_q_eta_f == pytest.approx(self.config.hyper.d)

    def test_all_z1_zero_gives_zero_target(self):
        st = copy.deepcopy(self.state)
        st.mu_z1[:] = 0.0
        st.var_z1[:] = 0.0
        set_q(st, self.sim.Y, self.config, self.pen, self.weight, "f")
        assert np.abs(st.mu_f).max() < 1e-12

    def test_single_curve_dense_oracle(self, pen3):
        # one curve, z1 = 1, z0 = 0, three points
        config = ModelConfig(gamma_R=5.0)
        data = np.array([[0.5, 1.5, -0.3], [0.5, 1.5, -0.3]])
        st = avb_init(data, config, pen3)
        weight = registration_weight(config, pen3)
        a = weight.matrix
        reg = registered_curves(st, data, pen3)
        set_q(st, data, config, pen3, weight, "f")
        prec = 2.0 * a + st.eta_f * pen3.main.P1ginv \
            + st.lambda_f * pen3.main.P2ginv
        cov_o = np.linalg.inv(prec)
        mu_o = cov_o @ (a @ (reg[0] + reg[1]))
        assert np.abs(pen3.main.covariance(st.var_f) - cov_o).max() < 1e-12
        assert np.abs(st.mu_f - mu_o).max() < 1e-12

    def test_smoothing_precision_shrinks_curvature(self):
        st1 = copy.deepcopy(self.state)
        st2 = copy.deepcopy(self.state)
        st2.c_q_lambda_f = st1.c_q_lambda_f * 100.0  # raise E[lambda_f]
        set_q(st1, self.sim.Y, self.config, self.pen, self.weight, "f")
        set_q(st2, self.sim.Y, self.config, self.pen, self.weight, "f")
        q1 = st1.mu_f @ self.pen.main.P2ginv @ st1.mu_f
        q2 = st2.mu_f @ self.pen.main.P2ginv @ st2.mu_f
        assert q2 < q1


@pytest.fixture(scope="module")
def fitted50():
    """Criterion-1 data and configuration after three AVB iterations."""
    grid = build_time_grid(np.linspace(0.0, 1.0, 50))
    pen = build_penalty_set(grid)
    sim = simulate_dataset("gauss3mix", 20, grid, seed=42)
    config = ModelConfig(gamma_R=1e5, gamma_w=10.0, lambda_w=100.0)
    return pen, sim.Y, config, avb_fit(sim.Y, config, pen, max_iters=3)


@pytest.fixture(scope="module")
def noisy50():
    """Criterion-3-like noisy data on the 50-point grid after three
    smoothing iterations."""
    pen = build_penalty_set(build_time_grid(np.linspace(0.0, 1.0, 50)))
    sim = simulate_dataset("gauss3mix", 20, pen.grid, noise_sd=0.5, seed=17)
    config = ModelConfig(gamma_R=1e4, gamma_w=10.0, lambda_w=100.0, noisy=True)
    return pen, sim.Y, config, avb_fit_noisy(sim.Y, config, pen, max_iters=3)


class TestClosedForms:
    """Traces and the log-determinant from the covariance eigenvalues agree
    with dense second moments and a factorized log-determinant."""

    REL = 1e-12

    def test_trace_matches_dense_on_chebyshev_grid(self):
        k = np.arange(400)
        pen = build_penalty_set(build_time_grid(0.5 - 0.5 * np.cos(np.pi * k / 399)))
        gp = pen.main
        var = np.random.default_rng(0).uniform(0.5, 1.5, 400)
        cov = gp.covariance(var)
        for a, b in ((1.0, 0.0), (0.0, 1.0), (2.0, 3.0)):
            dense = np.trace((a * gp.P1ginv + b * gp.P2ginv) @ cov)
            assert gp.trace(a, b, var) == pytest.approx(dense, rel=self.REL)

    def test_q_updates_match_dense(self, fitted50):
        self.check_q_updates(fitted50)

    def test_q_updates_through_factors_match_dense(self, fitted50, monkeypatch):
        # the forms through the penalty factors, even on this 50-point grid
        monkeypatch.setattr(penalties, "BANDED_MIN_P", 0)
        self.check_q_updates(fitted50)

    def test_elbo_matches_dense(self, fitted50):
        self.check_elbo(fitted50, banded=False)

    def test_elbo_through_factors_matches_dense(self, fitted50, monkeypatch):
        monkeypatch.setattr(penalties, "BANDED_MIN_P", 0)
        self.check_elbo(fitted50, banded=True)

    def check_q_updates(self, fitted50):
        pen, y, config, state = fitted50
        st = copy.deepcopy(state)
        weight = registration_weight(config, pen)
        registered = registered_curves(st, y, pen)
        cov = pen.main.covariance(st.var_f)
        var_o = 1.0 / (st.inv_sigma_z1_sq
                       + dense_e_form(st.mu_f, cov, weight.matrix))
        mu_o = var_o * (st.inv_sigma_z1_sq + (registered - st.mu_z0_full()[:, None])
                        @ weight.matrix @ st.mu_f)
        set_q(st, y, config, pen, weight, "z1")
        assert np.abs(st.var_z1 - var_o).max() <= self.REL * var_o
        assert np.abs(st.mu_z1 - mu_o).max() <= self.REL * np.abs(mu_o).max()
        set_q(st, y, config, pen, weight, "eta_f", "lambda_f")
        hy = config.hyper
        assert st.d_q_eta_f == pytest.approx(
            hy.d + 0.5 * dense_e_form(st.mu_f, cov, pen.main.P1ginv), rel=self.REL)
        assert st.d_q_lambda_f == pytest.approx(
            hy.d + 0.5 * dense_e_form(st.mu_f, cov, pen.main.P2ginv), rel=self.REL)

    def check_elbo(self, fitted50, banded):
        pen, y, config, state = fitted50
        wprior = WPrior(config, pen)
        weight = registration_weight(config, pen)
        assert weight.banded == banded
        registered = registered_curves(state, y, pen)
        assert elbo(state, y, config, pen, wprior, weight, registered) == \
            pytest.approx(dense_elbo(state, config, pen, wprior, weight, registered),
                          rel=self.REL)
        # shift and scale variances large enough that every variance term
        # of the bound moves it by far more than the tolerance
        wide = copy.deepcopy(state)
        wide.var_z0[:], wide.var_z1[:] = 0.3, 0.2
        assert elbo(wide, y, config, pen, wprior, weight, registered) == \
            pytest.approx(dense_elbo(wide, config, pen, wprior, weight, registered),
                          rel=self.REL)

    def test_roughness_rate_matches_dense(self, noisy50):
        self.check_smoothing(noisy50)

    def test_smoothing_through_factors_matches_dense(self, noisy50, monkeypatch):
        monkeypatch.setattr(penalties, "BANDED_MIN_P", 0)
        pen, _, config, state = noisy50
        assert registration_weight(config, pen, state.eta_X, state.lambda_X).banded
        self.check_smoothing(noisy50)

    def check_smoothing(self, noisy50):
        pen, y, config, state = noisy50
        gp = pen.main
        for name, matrix in (("eta_X", gp.P1ginv), ("lambda_X", gp.P2ginv)):
            assert block_law(name, state, y, config, pen, None)[1] == pytest.approx(
                config.hyper.d + 0.5 * dense_roughness_rate(state, pen, matrix),
                rel=self.REL)
        st = copy.deepcopy(state)
        set_q(st, y, config, pen, None, "X")
        rough = st.eta_X * gp.P1ginv + st.lambda_X * gp.P2ginv
        anchor = st.mu_z0_full()[:, None] + st.mu_z1[:, None] \
            * at_inverse_warps(st.mu_f, st.w_hat, pen.grid)
        mu_o = np.linalg.solve(rough + st.inv_sigma_Y_sq * np.eye(pen.p),
                               (st.inv_sigma_Y_sq * y + anchor @ rough).T).T
        assert np.abs(st.mu_X - mu_o).max() <= self.REL * np.abs(mu_o).max()

    def test_unswept_state_has_no_bound(self, fitted50):
        pen, y, config, _ = fitted50
        with pytest.raises(SingularPrecision):
            elbo(avb_init(y, config, pen), y, config, pen)


class TestBandedFit:
    """From BANDED_MIN_P grid points on, a sweep and the bound apply every
    form of the main grid through the penalty factors: none forms its dense
    matrix."""

    @pytest.fixture
    def wide(self):
        grid = build_time_grid(np.linspace(0.0, 1.0, penalties.BANDED_MIN_P))
        sim = simulate_dataset("gauss3mix", 3, grid, noise_sd=0.2, seed=4)
        return build_penalty_set(grid), sim.Y

    @pytest.fixture
    def made(self, monkeypatch):
        """Every PenaltyForm made while the test runs."""
        forms, init = [], penalties.PenaltyForm.__init__

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            forms.append(self)
        monkeypatch.setattr(penalties.PenaltyForm, "__init__", record)
        return forms

    @staticmethod
    def assert_no_dense_matrix(forms):
        banded = [form for form in forms if form.banded]
        assert banded
        assert all("matrix" not in form.__dict__ for form in banded)

    def test_noiseless_sweep_and_bound(self, wide, made):
        pen, y = wide
        config = ModelConfig(gamma_R=1e3, gamma_w=10.0, lambda_w=100.0)
        state = avb_init(y, config, pen)
        wprior = WPrior(config, pen)
        weight = registration_weight(config, pen)
        registered = sweep(state, y, config, pen, wprior, weight, max_base_steps=3)
        assert np.isfinite(elbo(state, y, config, pen, wprior, weight, registered))
        assert weight in made
        self.assert_no_dense_matrix(made)

    def test_fit_forms_no_dense_penalty(self):
        # a 2-iteration fit at p = 800 reads the main grid's eigenbasis and
        # both grids' factors, never a dense P1ginv or P2ginv, nor the base
        # grid's eigenbasis
        grid = build_time_grid(np.linspace(0.0, 1.0, 800))
        pen = build_penalty_set(grid)
        sim = simulate_dataset("gauss3mix", 5, grid, seed=42)
        avb_fit(sim.Y, ModelConfig(gamma_R=1e5, gamma_w=10.0, lambda_w=100.0), pen,
                max_iters=2)
        for gp in (pen.main, pen.base):
            assert "P1ginv" not in vars(gp) and "P2ginv" not in vars(gp)
        assert "_spectrum" not in vars(pen.base)

    def test_noisy_smoothing_sweep(self, wide, made):
        pen, y = wide
        config = ModelConfig(gamma_R=1e3, gamma_w=10.0, lambda_w=100.0, noisy=True)
        state = avb_init(y, config, pen)
        weight = registration_weight(config, pen, state.eta_X, state.lambda_X)
        sweep(state, y, config, pen, WPrior(config, pen), weight, max_base_steps=3,
              blocks=SMOOTHING_ORDER)
        assert np.all(np.isfinite(state.mu_X)) and weight in made
        self.assert_no_dense_matrix(made)


class TestElbo:
    def test_sweeps_never_decrease(self):
        grid, pen, sim = small_problem(seed=5, n=5, p=10)
        config = ModelConfig(gamma_R=100.0, gamma_w=5.0, lambda_w=20.0)
        state = avb_init(sim.Y, config, pen)
        wprior = WPrior(config, pen)
        weight = registration_weight(config, pen)
        values = []
        for _ in range(8):
            registered = sweep(state, sim.Y, config, pen, wprior, weight,
                               max_base_steps=25)
            values.append(elbo(state, sim.Y, config, pen, wprior, weight,
                               registered))
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-8)

    def test_perturbing_updated_block_decreases_elbo(self):
        grid, pen, sim = small_problem(seed=6, n=4, p=8)
        config = ModelConfig(gamma_R=40.0, gamma_w=2.0, lambda_w=10.0)
        state = avb_init(sim.Y, config, pen)
        wprior = WPrior(config, pen)
        weight = registration_weight(config, pen)
        for _ in range(3):
            sweep(state, sim.Y, config, pen, wprior, weight, max_base_steps=25)

        def value(st):
            return elbo(st, sim.Y, config, pen, wprior, weight,
                        registered_curves(st, sim.Y, pen))

        # each block freshly set to its closed form is a local maximum
        set_q(state, sim.Y, config, pen, weight, "f")
        base = value(state)
        for delta in (1e-3, -1e-3):
            st = copy.deepcopy(state)
            st.mu_f = st.mu_f + delta
            assert value(st) < base
        set_q(state, sim.Y, config, pen, weight, "z1")
        base = value(state)
        for delta in (1e-3, -1e-3):
            st = copy.deepcopy(state)
            st.mu_z1 = st.mu_z1 + delta
            assert value(st) < base
            st = copy.deepcopy(state)
            st.var_z1 = st.var_z1 * (1.0 + delta)
            assert value(st) < base
        set_q(state, sim.Y, config, pen, weight, "sigma_z1_sq")
        base = value(state)
        for delta in (1e-2, -1e-2):
            st = copy.deepcopy(state)
            st.b_q_sigma_z1 = st.b_q_sigma_z1 * (1.0 + delta)
            assert value(st) < base
        set_q(state, sim.Y, config, pen, weight, "eta_f")
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
        targets, k_priors = base_targets_and_priors(state, WPrior(config, pen10))
        w = maximize_base_functions(state.w_hat, data, targets,
                                    registration_weight(config, pen10), k_priors,
                                    pen10.grid, max_steps=25)[0][0]
        assert np.abs(w).max() < 1e-6

    def test_ascent_guarantee(self):
        grid, pen, sim = small_problem(seed=7, n=3, p=9)
        config = ModelConfig(gamma_R=200.0, gamma_w=1.0, lambda_w=5.0)
        state = avb_init(sim.Y, config, pen)
        wprior = WPrior(config, pen)
        weight = registration_weight(config, pen)
        from reference_ascent import base_objective
        t = pen.grid.points
        targets, k_priors = base_targets_and_priors(state, wprior)
        ws = maximize_base_functions(state.w_hat, sim.Y, targets, weight, k_priors,
                                     pen.grid, max_steps=25, scan_rounds=2)[0]
        for i in range(3):
            target = state.mu_z0_full()[i] + state.mu_z1[i] * state.mu_f
            k = wprior.form(i).matrix
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
        wprior = WPrior(config, pen)
        weight = registration_weight(config, pen)
        target = state.mu_f
        k = wprior.form(0).matrix
        before = base_objective(np.zeros(29), data[0], target, weight.matrix, k, t)
        targets, k_priors = base_targets_and_priors(state, wprior)
        w = maximize_base_functions(state.w_hat, data, targets, weight, k_priors,
                                    pen.grid, max_steps=25, scan_rounds=2)[0][0]
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
        from reference_ascent import maximize_base_function
        gamma_w = np.array([2.0, 5.0, 10.0, 20.0, 5.0, 5.0, 50.0, 1.0])

        def check(w0, xs, targets, weight, k_priors, nodes, **kw):
            for scan_rounds in (2, 1, 0):
                w, obj, improved = maximize_base_functions(
                    w0, xs, targets, weight, k_priors, nodes, max_steps=60,
                    scan_rounds=scan_rounds, **kw)
                for i in range(targets.shape[0]):
                    w_i, obj_i, improved_i = maximize_base_function(
                        w0[i], xs[i], targets[i], weight.matrix, k_priors[i].matrix,
                        nodes, max_steps=60, scan_rounds=scan_rounds, **kw)
                    assert np.abs(w[i] - w_i).max() < 1e-9
                    assert obj[i] == pytest.approx(obj_i, rel=1e-9)
                    assert improved[i] == improved_i

        for p, seed, gamma_r in [(10, 0, 1e3), (12, 1, 1e4), (24, 2, 1e3),
                                 (30, 3, 1e4)]:
            grid, pen, sim = small_problem(seed=seed, n=8, p=p)
            t = grid.points
            config = ModelConfig(gamma_R=gamma_r, gamma_w=gamma_w, lambda_w=50.0)
            state = avb_init(sim.Y, config, pen)
            wprior = WPrior(config, pen)
            weight = registration_weight(config, pen)
            k_priors = [wprior.form(i) for i in range(8)]
            for it in range(3):
                targets = state.mu_z0_full()[:, None] \
                    + state.mu_z1[:, None] * state.mu_f
                check(state.w_hat, sim.Y, targets, weight, k_priors, t)
                sweep(state, sim.Y, config, pen, wprior, weight,
                      max_base_steps=60, scan=it == 0)
            # truncated domain: curves seen up to t_r, warps on nodes up to an
            # off-grid t_f > t_r and ending at t_r, targets read off at the nodes
            r = 2 * p // 3
            nodes = np.append(t[:r + 1], 0.5 * (t[r + 1] + t[r + 2]))
            trunc_pen = build_penalty_set(build_time_grid(nodes))
            trunc_prior = WPrior(config, trunc_pen)
            trunc_targets = np.array([np.interp(nodes, t, row) for row in targets])
            w0 = project_endpoint(0.2 * np.sin(np.arange(1, 9)[:, None] * nodes[:-1]),
                                  nodes, end_value=t[r - 1])
            check(w0, sim.Y[:, :r], trunc_targets,
                  registration_weight(config, trunc_pen),
                  [trunc_prior.form(i) for i in range(8)], nodes,
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
