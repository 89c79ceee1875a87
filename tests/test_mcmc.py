import numpy as np
import pytest
from scipy import stats

from gpalign.avb import avb_fit
from gpalign.mcmc import (ADAPT_HIGH, ADAPT_INTERVAL, ADAPT_LOW, ChainState,
                          current_weight, draw_eta_f, draw_f, draw_lambda_f,
                          draw_sigma_z0, draw_sigma_z1, draw_X, draw_sigma_Y,
                          draw_roughness_X, draw_z0, draw_z1,
                          gibbs_sweep, metropolis_base, proposal_log_ratios,
                          registered_draws, run_chain, z0_conditional,
                          z1_conditional)
from gpalign.model import (LatentState, ModelConfig, WPrior,
                           registration_weight)
from gpalign.penalties import build_penalty_set, build_time_grid
from gpalign.simulate import simulate_dataset
from gpalign.warping import at_inverse_warps, project_endpoint, warp_from_base

from dense_oracles import dense_covariances, dense_prior_cov

KS_ALPHA = 0.01


def make_latent(n, p, rng, pen, noisy=False, data=None):
    w = np.array([project_endpoint(rng.normal(0, 0.2, p - 1), pen.grid)
                  for _ in range(n)])
    z0 = rng.normal(0, 0.3, n)
    z0[-1] = -z0[:-1].sum()
    latent = LatentState(
        w=w, z0=z0, z1=1.0 + rng.normal(0, 0.1, n), f=rng.normal(0, 1, p),
        sigma_z0_sq=0.4, sigma_z1_sq=0.2, eta_f=1.5, lambda_f=2.5,
    )
    if noisy:
        latent.X = data.copy() if data is not None else rng.normal(0, 1, (n, p))
        latent.sigma_Y_sq = 0.3
        latent.eta_X = 2.0
        latent.lambda_X = 3.0
    return latent


class TestConjugateBlocks:
    """Draws from each block match the intended closed-form conditional."""

    def setup_method(self):
        self.grid = build_time_grid(np.linspace(0, 1, 8))
        self.pen = build_penalty_set(self.grid)
        self.rng = np.random.default_rng(10)
        self.config = ModelConfig(gamma_R=20.0, gamma_w=2.0, lambda_w=5.0)
        self.data = self.rng.standard_normal((3, 8))
        self.latent = make_latent(3, 8, self.rng, self.pen)
        self.weight = registration_weight(self.config, self.pen)
        self.registered = registered_draws(self.latent, self.data, self.pen)

    def test_z0_distribution(self):
        # N=2 so the single free shift has a fixed Gaussian conditional
        rng = np.random.default_rng(11)
        data = rng.standard_normal((2, 8))
        latent = make_latent(2, 8, rng, self.pen)
        registered = registered_draws(latent, data, self.pen)
        mean, var = z0_conditional(latent, 0, registered, self.weight)
        draws = np.empty(4000)
        chain_rng = np.random.default_rng(12)
        for k in range(draws.shape[0]):
            draw_z0(latent, registered, self.weight, chain_rng)
            draws[k] = latent.z0[0]
        _, pval = stats.kstest(draws, "norm", args=(mean, np.sqrt(var)))
        assert pval > KS_ALPHA

    def test_z1_distribution(self):
        mean, var = z1_conditional(self.latent, 1, self.registered, self.weight)
        rng = np.random.default_rng(13)
        draws = np.empty(4000)
        keep = self.latent.z1.copy()
        for k in range(draws.shape[0]):
            self.latent.z1[:] = keep  # hold the other scales fixed
            draw_z1(self.latent, self.registered, self.weight, rng)
            draws[k] = self.latent.z1[1]
        self.latent.z1[:] = keep
        _, pval = stats.kstest(draws, "norm", args=(mean, np.sqrt(var)))
        assert pval > KS_ALPHA

    def test_eta_f_zero_target(self):
        self.latent.f = np.zeros(8)
        hy = self.config.hyper
        rng = np.random.default_rng(14)
        draws = np.empty(4000)
        for k in range(draws.shape[0]):
            draw_eta_f(self.latent, self.config, self.pen, rng)
            draws[k] = self.latent.eta_f
        _, pval = stats.kstest(draws, "gamma",
                               args=(hy.c + 1.0, 0.0, 1.0 / hy.d))
        assert pval > KS_ALPHA

    def test_lambda_f_distribution(self):
        hy = self.config.hyper
        rate = hy.d + 0.5 * self.latent.f @ self.pen.P2ginv @ self.latent.f
        shape = hy.c + 0.5 * (8 - 2)
        rng = np.random.default_rng(15)
        draws = np.empty(4000)
        for k in range(draws.shape[0]):
            draw_lambda_f(self.latent, self.config, self.pen, rng)
            draws[k] = self.latent.lambda_f
        _, pval = stats.kstest(draws, "gamma", args=(shape, 0.0, 1.0 / rate))
        assert pval > KS_ALPHA

    def test_sigma_z_blocks(self):
        hy = self.config.hyper
        rng = np.random.default_rng(16)
        n = 3
        rate0 = hy.b + 0.5 * np.sum(self.latent.z0[:-1] ** 2)
        rate1 = hy.b + 0.5 * np.sum((self.latent.z1 - 1.0) ** 2)
        d0 = np.empty(4000)
        d1 = np.empty(4000)
        for k in range(4000):
            draw_sigma_z0(self.latent, self.config, rng)
            draw_sigma_z1(self.latent, self.config, rng)
            d0[k] = self.latent.sigma_z0_sq
            d1[k] = self.latent.sigma_z1_sq
        _, p0 = stats.kstest(d0, "invgamma",
                             args=(hy.a + 0.5 * (n - 1), 0.0, rate0))
        _, p1 = stats.kstest(d1, "invgamma", args=(hy.a + 0.5 * n, 0.0, rate1))
        assert p0 > KS_ALPHA and p1 > KS_ALPHA

    def test_f_block_moments(self):
        prec = float(np.sum(self.latent.z1 ** 2)) * self.weight.matrix \
            + self.latent.eta_f * self.pen.P1ginv \
            + self.latent.lambda_f * self.pen.P2ginv
        cov = np.linalg.inv(prec)
        rhs = self.weight.matrix @ sum(
            self.latent.z1[i] * (self.registered[i] - self.latent.z0[i])
            for i in range(3))
        mean = cov @ rhs
        rng = np.random.default_rng(17)
        draws = np.array([
            draw_f(self.latent, self.registered, self.weight, self.pen, rng)
            for _ in range(6000)])
        se = np.sqrt(np.diag(cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.0 * se)
        assert np.abs(np.cov(draws.T) - cov).max() < 0.1 * np.abs(cov).max() + 1e-3


class TestNoisyBlocks:
    def setup_method(self):
        self.grid = build_time_grid(np.linspace(0, 1, 7))
        self.pen = build_penalty_set(self.grid)
        rng = np.random.default_rng(20)
        self.config = ModelConfig(gamma_R=10.0, noisy=True)
        self.data = rng.standard_normal((2, 7))
        self.latent = make_latent(2, 7, rng, self.pen, noisy=True,
                                  data=self.data)

    def test_x_block_moments(self):
        lt = self.latent
        sx_inv = lt.eta_X * self.pen.P1ginv + lt.lambda_X * self.pen.P2ginv
        prec = np.eye(7) / lt.sigma_Y_sq + sx_inv
        cov = np.linalg.inv(prec)
        anchor = lt.z0[0] + lt.z1[0] * at_inverse_warps(lt.f, lt.w, self.pen.grid)[0]
        mean = cov @ (self.data[0] / lt.sigma_Y_sq + sx_inv @ anchor)
        rng = np.random.default_rng(21)
        draws = np.empty((4000, 7))
        keep = lt.X.copy()
        for k in range(4000):
            lt.X[:] = keep
            draw_X(lt, self.data, self.config, self.pen, rng)
            draws[k] = lt.X[0]
        lt.X[:] = keep
        se = np.sqrt(np.diag(cov) / 4000)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.0 * se)

    def test_sigma_y_distribution(self):
        hy = self.config.hyper
        lt = self.latent
        rate = hy.b + 0.5 * np.sum((self.data - lt.X) ** 2)
        shape = hy.a + 0.5 * 2 * 7
        rng = np.random.default_rng(22)
        draws = np.empty(4000)
        for k in range(4000):
            draw_sigma_Y(lt, self.data, self.config, rng)
            draws[k] = lt.sigma_Y_sq
        _, pval = stats.kstest(draws, "invgamma", args=(shape, 0.0, rate))
        assert pval > KS_ALPHA

    def test_roughness_precisions(self):
        hy = self.config.hyper
        lt = self.latent
        resid = np.array([
            lt.X[i] - lt.z0[i] - lt.z1[i] * at_inverse_warps(lt.f, lt.w, self.pen.grid)[i]
            for i in range(2)])
        rate1 = hy.d + 0.5 * np.sum((resid @ self.pen.P1ginv) * resid)
        rate2 = hy.d + 0.5 * np.sum((resid @ self.pen.P2ginv) * resid)
        rng = np.random.default_rng(23)
        d1 = np.empty(4000)
        d2 = np.empty(4000)
        for k in range(4000):
            draw_roughness_X(lt, self.config, self.pen, rng)
            d1[k] = lt.eta_X
            d2[k] = lt.lambda_X
        _, p1 = stats.kstest(d1, "gamma", args=(hy.c + 2, 0.0, 1.0 / rate1))
        _, p2 = stats.kstest(d2, "gamma",
                             args=(hy.c + 0.5 * 2 * 5, 0.0, 1.0 / rate2))
        assert p1 > KS_ALPHA and p2 > KS_ALPHA


class TestMetropolis:
    def setup_method(self):
        self.grid = build_time_grid(np.linspace(0, 1, 10))
        self.pen = build_penalty_set(self.grid)
        rng = np.random.default_rng(30)
        self.config = ModelConfig(gamma_R=50.0, gamma_w=3.0, lambda_w=10.0)
        self.data = rng.standard_normal((2, 10))
        self.latent = make_latent(2, 10, rng, self.pen)
        self.wprior = WPrior(self.config, self.pen, 2)

    def test_zero_scale_never_moves(self):
        state = ChainState.create(self.latent, seed=0, step_scale=0.0)
        w_before = state.latent.w.copy()
        for _ in range(50):
            metropolis_base(state, self.data, self.config, self.pen,
                            self.wprior)
        assert np.array_equal(state.latent.w, w_before)
        assert state.accept_counts[0] == state.propose_counts[0]

    def test_acceptance_ratio_matches_kernel_difference(self):
        # hand-evaluate the constrained target at the current point and at a
        # forced proposal; the decision must use exactly their difference
        lt = self.latent
        t = self.grid.points
        bump = 0.15 * np.sin(np.linspace(0.0, 3.0, lt.w.shape[1]))
        w_new = project_endpoint(lt.w[0] + bump, self.pen.grid)

        def hand_target(w):
            h = warp_from_base(w, self.pen.grid)
            xh = np.interp(h, t, self.data[0])
            r = xh - lt.z0[0] - lt.z1[0] * lt.f
            sigma = dense_covariances(self.pen.main)[0]
            quad = self.config.gamma_R * r @ np.linalg.inv(sigma) @ r
            cov_w = dense_prior_cov(self.pen, 3.0, 10.0)
            return -0.5 * quad - 0.5 * w @ np.linalg.inv(cov_w) @ w

        steps = np.zeros_like(lt.w)
        steps[0] = bump  # the pass projects w + step, which gives w_new
        delta = proposal_log_ratios(lt, steps, self.data, self.config,
                                    self.pen, self.wprior)[1][0]
        assert delta == pytest.approx(hand_target(w_new) - hand_target(lt.w[0]),
                                      rel=1e-9)

    def test_strong_prior_concentrates_at_zero(self):
        config = ModelConfig(gamma_R=1e-6, gamma_w=1e5, lambda_w=1e5)
        wprior = WPrior(config, self.pen, 2)
        latent = self.latent.copy()
        # start at the mode; the stationary law must keep the walk confined
        # (the prior is heavily anisotropic, so steps sit on its small scale)
        latent.w = np.zeros((2, 9))
        state = ChainState.create(latent, seed=1, step_scale=2e-4)
        samples = []
        for it in range(3000):
            metropolis_base(state, self.data, config, self.pen, wprior)
            if it > 1000:
                samples.append(np.abs(state.latent.w).mean())
        cov_w = dense_prior_cov(self.pen, 1e5, 1e5)
        prior_sd = np.sqrt(np.diag(cov_w)).mean()
        assert np.mean(samples) < 3.0 * prior_sd
        assert state.accept_counts.min() > 0


def _ref_f_hinv(lt, i, grid):
    t = grid.points
    h = warp_from_base(lt.w[i], grid)
    return np.interp(np.interp(t, h, t), t, lt.f)


def _ref_log_target(lt, i, w, data, config, pen, wprior):
    t = pen.grid.points
    curve = data[i] if lt.X is None else lt.X[i]
    r = np.interp(warp_from_base(w, pen.grid), t, curve) - lt.z0[i] - lt.z1[i] * lt.f
    return -0.5 * config.gamma_R * float(r @ (pen.P1ginv + pen.P2ginv) @ r) \
        + wprior.log_kernel(w, i)


def _ref_iteration(state, data, config, pen, wprior):
    """One sweep plus Metropolis pass, one curve at a time: the reference the
    batched sampler must reproduce draw for draw."""
    lt, rng = state.latent, state.rng
    n, p = data.shape
    hy = config.hyper
    if config.noisy:
        # the sampler's root of the X precision: V diag(d) V' in the penalty
        # basis V, so a draw is the mean plus V (z / sqrt(d))
        sx_inv = lt.eta_X * pen.P1ginv + lt.lambda_X * pen.P2ginv
        prec = np.eye(p) / lt.sigma_Y_sq + sx_inv
        v = pen.main.basis
        d = lt.lambda_X * pen.main.eigenvalues + 1.0 / lt.sigma_Y_sq
        d[:2] = lt.eta_X + 1.0 / lt.sigma_Y_sq
        for i in range(n):
            anchor = lt.z0[i] + lt.z1[i] * _ref_f_hinv(lt, i, pen.grid)
            mean = np.linalg.solve(prec, data[i] / lt.sigma_Y_sq + sx_inv @ anchor)
            lt.X[i] = mean + v @ (rng.standard_normal(p) / np.sqrt(d))
    curves = data if lt.X is None else lt.X
    registered = np.array([np.interp(warp_from_base(lt.w[i], pen.grid),
                                     pen.grid.points, curves[i])
                           for i in range(n)])
    weight = current_weight(lt, config, pen)
    lt.f = draw_f(lt, registered, weight, pen, rng)
    if config.noisy:
        draw_sigma_Y(lt, data, config, rng)
        resid = np.array([lt.X[i] - lt.z0[i] - lt.z1[i] * _ref_f_hinv(lt, i, pen.grid)
                          for i in range(n)])
        rate = hy.d + 0.5 * float(np.sum((resid @ pen.P1ginv) * resid))
        lt.eta_X = rng.gamma(hy.c + n, 1.0 / rate)
        rate = hy.d + 0.5 * float(np.sum((resid @ pen.P2ginv) * resid))
        lt.lambda_X = rng.gamma(hy.c + 0.5 * n * (p - 2), 1.0 / rate)
        weight = current_weight(lt, config, pen)
    a = weight.matrix
    one_w = a.sum(axis=0)
    quad = float(one_w.sum())
    var = 1.0 / (1.0 / lt.sigma_z0_sq + 2.0 * quad)
    for i in range(n - 1):
        d_i = registered[i] - registered[-1] + (lt.z1[-1] - lt.z1[i]) * lt.f
        others = float(np.sum(lt.z0[:-1])) - lt.z0[i]
        lt.z0[i] = var * (float(d_i @ one_w) - others * quad) \
            + np.sqrt(var) * rng.standard_normal()
    lt.enforce_sum_zero()
    draw_sigma_z0(lt, config, rng)
    var = 1.0 / (1.0 / lt.sigma_z1_sq + float(lt.f @ a @ lt.f))
    for i in range(n):
        loc = 1.0 / lt.sigma_z1_sq + float((registered[i] - lt.z0[i]) @ a @ lt.f)
        lt.z1[i] = var * loc + np.sqrt(var) * rng.standard_normal()
    draw_sigma_z1(lt, config, rng)
    draw_eta_f(lt, config, pen, rng)
    draw_lambda_f(lt, config, pen, rng)
    for i in range(n):
        state.propose_counts[i] += 1
        step = state.step_sizes[i] * rng.standard_normal(p - 1)
        proposal = project_endpoint(lt.w[i] + step, pen.grid)
        delta = _ref_log_target(lt, i, proposal, data, config, pen, wprior) \
            - _ref_log_target(lt, i, lt.w[i], data, config, pen, wprior)
        if np.log(rng.uniform()) < delta:
            lt.w[i] = proposal
            state.accept_counts[i] += 1
    return registered


def _ref_chain(data, config, pen, iters, burn_in, seed, step_scale):
    n, p = data.shape
    latent = LatentState(w=np.zeros((n, p - 1)), z0=np.zeros(n), z1=np.ones(n),
                         f=data.mean(axis=0), sigma_z0_sq=1.0, sigma_z1_sq=1.0,
                         eta_f=1.0, lambda_f=1.0)
    if config.noisy:
        latent.X = data.copy()
        latent.sigma_Y_sq = latent.eta_X = latent.lambda_X = 1.0
    state = ChainState.create(latent, seed, step_scale)
    wprior = WPrior(config, pen, n)
    window = np.zeros(n)
    draws = []
    for it in range(1, iters + 1):
        before = state.accept_counts.copy()
        _ref_iteration(state, data, config, pen, wprior)
        window += state.accept_counts - before
        if it <= burn_in and it % ADAPT_INTERVAL == 0:
            rates = window / ADAPT_INTERVAL
            state.step_sizes[rates < ADAPT_LOW] *= 0.7
            state.step_sizes[rates > ADAPT_HIGH] *= 1.4
            window[:] = 0
        if it > burn_in:
            lt = latent.copy()
            # registered curves at the new warps, as the sampler stores them
            curves = data if lt.X is None else lt.X
            lt.registered = np.array([
                np.interp(warp_from_base(lt.w[i], pen.grid), pen.grid.points,
                          curves[i]) for i in range(n)])
            draws.append(lt)
    return draws, state.accept_counts / state.propose_counts


class TestRunChain:
    @pytest.mark.parametrize("noisy", [False, True])
    def test_matches_per_curve_reference(self, noisy):
        # the batched sweep draws the same random numbers in the same order as
        # a curve-at-a-time sweep: identical Metropolis decisions and base
        # functions, every other block equal up to summation order
        n, p, iters, burn_in = (6, 12, 250, 100) if not noisy else (5, 10, 220, 100)
        grid = build_time_grid(np.linspace(0, 1, p))
        pen = build_penalty_set(grid)
        sim = simulate_dataset("gauss3mix", n, grid, noise_sd=0.2 if noisy else 0.0,
                               seed=21 + noisy)
        gamma_w = 5.0 if noisy else np.array([2.0, 5.0, 5.0, 20.0, 8.0, 5.0])
        config = ModelConfig(gamma_R=200.0, gamma_w=gamma_w, lambda_w=20.0,
                             noisy=noisy)
        out = run_chain(sim.Y, config, pen, iters=iters, burn_in=burn_in, thin=1,
                        seed=31, step_scale=0.1)
        ref, ref_rates = _ref_chain(sim.Y, config, pen, iters, burn_in, seed=31,
                                    step_scale=0.1)
        assert np.all((ref_rates > 0.0) & (ref_rates < 1.0))
        assert np.array_equal(out.acceptance_rates, ref_rates)
        assert np.array_equal(out.w, np.array([d.w for d in ref]))
        blocks = ["f", "z0", "z1", "sigma_z0_sq", "sigma_z1_sq", "eta_f",
                  "lambda_f", "registered"]
        if noisy:
            blocks += ["X", "sigma_Y_sq", "eta_X", "lambda_X"]
        for block in blocks:
            expected = np.array([getattr(d, block) for d in ref])
            err = np.abs(getattr(out, block) - expected) / np.maximum(np.abs(expected), 1.0)
            assert err.max() < 1e-8, block
    def test_determinism(self):
        grid = build_time_grid(np.linspace(0, 1, 10))
        pen = build_penalty_set(grid)
        sim = simulate_dataset("gauss3mix", 4, grid, seed=9)
        config = ModelConfig(gamma_R=100.0, gamma_w=5.0, lambda_w=20.0)
        a = run_chain(sim.Y, config, pen, iters=60, burn_in=10, thin=2, seed=4)
        b = run_chain(sim.Y, config, pen, iters=60, burn_in=10, thin=2, seed=4)
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.registered, b.registered)
        assert a.n_draws == (60 - 10) // 2

    def test_invalid_burn_in(self):
        grid = build_time_grid(np.linspace(0, 1, 5))
        pen = build_penalty_set(grid)
        data = np.random.default_rng(0).standard_normal((2, 5))
        with pytest.raises(ValueError):
            run_chain(data, ModelConfig(), pen, iters=10, burn_in=10)

    def test_constraints_in_every_stored_draw(self):
        grid = build_time_grid(np.linspace(0, 2, 9))
        pen = build_penalty_set(grid)
        sim = simulate_dataset("gauss3mix", 3, grid, seed=5)
        config = ModelConfig(gamma_R=50.0, gamma_w=2.0, lambda_w=10.0)
        out = run_chain(sim.Y, config, pen, iters=80, burn_in=20, thin=3, seed=6)
        for k in range(out.n_draws):
            assert abs(out.z0[k].sum()) < 1e-12
            for i in range(3):
                h = warp_from_base(out.w[k, i], grid)
                assert np.all(np.diff(h) > 0)
                assert abs(h[-1] - grid.tp) < 1e-9

    def test_avb_init_on_registered_data(self):
        grid = build_time_grid(np.linspace(0, 1, 12))
        pen = build_penalty_set(grid)
        t = grid.points
        f = np.sin(np.pi * t)
        data = np.vstack([0.1 + f, -0.1 + f, 1.1 * f])
        config = ModelConfig(gamma_R=1e4, gamma_w=50.0, lambda_w=100.0)
        init = avb_fit(data, config, pen, tol=1e-8, max_iters=30)
        out = run_chain(data, config, pen, iters=400, burn_in=0, thin=1,
                        init=init, seed=7, step_scale=0.01)
        assert np.abs(out.w.mean(axis=0)).max() < 1e-2

    def test_conjugate_submodel_posterior_mean(self):
        # with warps and target fixed at truth and variances fixed, the z1
        # sweep is conjugate: compare the chain mean with the analytic value
        grid = build_time_grid(np.linspace(0, 1, 15))
        pen = build_penalty_set(grid)
        sim = simulate_dataset("gauss3mix", 3, grid, seed=8)
        config = ModelConfig(gamma_R=200.0, gamma_w=5.0, lambda_w=10.0)
        latent = LatentState(
            w=sim.bases.copy(), z0=sim.z0.copy(), z1=np.ones(3),
            f=sim.target.copy(), sigma_z0_sq=0.01, sigma_z1_sq=0.0025,
            eta_f=1.0, lambda_f=1.0,
        )
        weight = registration_weight(config, pen)
        registered = registered_draws(latent, sim.Y, pen)
        means = np.array([z1_conditional(latent, i, registered, weight)[0]
                          for i in range(3)])
        var = z1_conditional(latent, 0, registered, weight)[1]
        rng = np.random.default_rng(9)
        acc = np.zeros(3)
        n_sweeps = 4000
        for _ in range(n_sweeps):
            draw_z1(latent, registered, weight, rng)
            acc += latent.z1
        se = np.sqrt(var / n_sweeps)
        assert np.all(np.abs(acc / n_sweeps - means) < 4.0 * se)

    def test_csv_export(self, tmp_path):
        grid = build_time_grid(np.linspace(0, 1, 6))
        pen = build_penalty_set(grid)
        sim = simulate_dataset("gauss3mix", 3, grid, seed=10)
        out = run_chain(sim.Y, ModelConfig(gamma_R=10.0), pen, iters=12,
                        burn_in=2, thin=2, seed=1)
        out.to_csv(tmp_path)
        f_rows = (tmp_path / "draws_f.csv").read_text().strip().splitlines()
        assert len(f_rows) == out.n_draws

    def test_noisy_chain_runs(self):
        grid = build_time_grid(np.linspace(0, 1, 8))
        pen = build_penalty_set(grid)
        sim = simulate_dataset("gauss3mix", 3, grid, noise_sd=0.2, seed=11)
        config = ModelConfig(gamma_R=50.0, gamma_w=5.0, lambda_w=10.0, noisy=True)
        out = run_chain(sim.Y, config, pen, iters=60, burn_in=10, thin=5, seed=2)
        assert out.X.shape == (10, 3, 8)
        assert np.all(out.sigma_Y_sq > 0)
