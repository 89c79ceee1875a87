"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured quantities.  Run with ``pytest tests/test_acceptance.py -v -s``.

The expensive fixtures (the seeded registration fit and the noisy-model chain)
are shared across criteria.
"""

import time

import numpy as np
import pytest
from scipy import stats

from gpalign.avb import avb_fit, registered_curves
from gpalign.mcmc import run_chain
from gpalign.metrics import mean_warp_correction, sls
from gpalign.model import LatentState, ModelConfig, registration_weight
from gpalign.penalties import build_penalty_set, build_time_grid
from gpalign.prediction import (PartialObservation, bootstrap_bands,
                                conditional_mvn, fit_empirical_laws,
                                predict_complete)
from gpalign.simulate import simulate_dataset
from gpalign import avb_fit_noisy
from gpalign.warping import (at_inverse_warps, invert_warp, project_endpoint,
                             warp_from_base)

from one_block import block_law, draw

Z95 = 1.959963984540054


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:>2} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# shared fixtures

REG_CONFIG = ModelConfig(gamma_R=1e5, gamma_w=10.0, lambda_w=100.0)
PRED_CONFIG = ModelConfig(gamma_R=1e3, gamma_w=20.0, lambda_w=200.0)


@pytest.fixture(scope="module")
def reg_problem():
    """Criterion-1 setup: seeded 20-curve, 50-point simulation plus its fit."""
    grid = build_time_grid(np.linspace(0.0, 1.0, 50))
    pen = build_penalty_set(grid)
    sim = simulate_dataset("gauss3mix", 20, grid, seed=42)
    t0 = time.perf_counter()
    state = avb_fit(sim.Y, REG_CONFIG, pen, tol=1e-7, max_iters=120,
                    rescan_every=5)
    elapsed = time.perf_counter() - t0
    registered = registered_curves(state, sim.Y, pen)
    return grid, pen, sim, state, registered, elapsed


@pytest.fixture(scope="module")
def noisy_problem():
    """Criterion-3 setup: smooth curves + N(0, 0.25) noise, AVB init, chain."""
    grid = build_time_grid(np.linspace(0.0, 1.0, 40))
    pen = build_penalty_set(grid)
    sim = simulate_dataset("gauss3mix", 20, grid, noise_sd=0.5, seed=17)
    config = ModelConfig(gamma_R=1e4, gamma_w=10.0, lambda_w=100.0, noisy=True)
    t0 = time.perf_counter()
    init = avb_fit_noisy(sim.Y, config, pen, tol=1e-6, max_iters=40,
                         freeze_X_after=5)
    chain = run_chain(sim.Y, config, pen, iters=5000, burn_in=0, thin=5,
                      init=init, seed=3, step_scale=0.03)
    elapsed = time.perf_counter() - t0
    return grid, pen, sim, config, init, chain, elapsed


# ---------------------------------------------------------------------------


def test_criterion_1_registration_quality(reg_problem):
    grid, pen, sim, state, registered, elapsed = reg_problem
    result = sls(sim.Y, registered, grid)
    truth_registered = np.array([
        np.interp(sim.warps[i], grid.points, sim.Y[i]) for i in range(20)])
    sls_truth = sls(sim.Y, truth_registered, grid).sls
    ok = (result.sls <= 0.3 and result.sls < 1.0
          and result.sls <= 2.0 * sls_truth and elapsed < 60.0)
    report(1, "registration quality", ok,
           f"sls={result.sls:.5f}, sls_truth={sls_truth:.5f}, "
           f"ratio={result.sls / sls_truth:.2f}, {elapsed:.0f}s")
    assert result.sls <= 0.3
    assert result.sls < 1.0
    assert result.sls <= 2.0 * sls_truth
    assert elapsed < 60.0


def test_criterion_2_elbo_monotone(reg_problem):
    _, _, _, state, _, _ = reg_problem
    trace = np.asarray(state.elbo_trace)
    steps = np.diff(trace)
    worst = steps.min() if steps.size else 0.0
    ok = np.all(steps >= -1e-8)
    report(2, "bound monotonicity", ok,
           f"{trace.size} iterations, worst step {worst:.3e}")
    assert ok


def test_criterion_3_noise_variance_recovery(noisy_problem):
    _, _, _, _, _, chain, elapsed = noisy_problem
    post_mean = float(chain.sigma_Y_sq.mean())
    ok = 0.20 <= post_mean <= 0.30 and elapsed < 900.0
    report(3, "noise variance recovery", ok,
           f"posterior mean {post_mean:.4f} (truth 0.25), {elapsed:.0f}s")
    assert 0.20 <= post_mean <= 0.30
    assert elapsed < 900.0


def test_criterion_4_avb_mcmc_agreement(reg_problem):
    grid, pen, sim, state, registered, _ = reg_problem
    chain = run_chain(sim.Y, REG_CONFIG, pen, iters=1500, burn_in=0, thin=3,
                      init=state, seed=11, step_scale=0.01)
    mcmc_reg = chain.registered_posterior_mean()
    t = grid.points
    sq_norms = np.array([
        np.trapezoid((registered[i] - mcmc_reg[i]) ** 2, t) for i in range(20)])
    energy = float(np.mean([np.trapezoid(registered[i] ** 2, t)
                            for i in range(20)]))
    ok = sq_norms.max() < 0.05 * energy
    report(4, "AVB-MCMC agreement", ok,
           f"max sq L2 diff {sq_norms.max():.4f} vs 5% energy {0.05 * energy:.4f}")
    assert sq_norms.max() < 0.05 * energy


def test_criterion_5_full_conditional_exactness():
    t0 = time.perf_counter()
    grid = build_time_grid(np.linspace(0.0, 1.0, 10))
    pen = build_penalty_set(grid)
    rng = np.random.default_rng(50)
    n, p = 3, 10
    config = ModelConfig(gamma_R=30.0, gamma_w=2.0, lambda_w=5.0)
    hy = config.hyper
    data = rng.standard_normal((n, p))
    w = np.array([project_endpoint(rng.normal(0, 0.2, p - 1), grid)
                  for _ in range(n)])
    z0 = rng.normal(0, 0.3, n)
    z0[-1] = -z0[:-1].sum()
    latent = LatentState(w=w, z0=z0, z1=1.0 + rng.normal(0, 0.1, n),
                         f=rng.normal(0, 1, p), sigma_z0_sq=0.4,
                         sigma_z1_sq=0.2, eta_f=1.5, lambda_f=2.5)
    weight = registration_weight(config, pen)
    registered = registered_curves(latent, data, pen)
    n_draws = 10_000
    alpha = 0.01
    failures = []

    def ks_and_moments(draws, dist, mean, sd, block):
        _, pval = stats.kstest(draws, dist.cdf)
        if pval <= alpha:
            failures.append(f"{block} KS p={pval:.4f}")
        se = sd / np.sqrt(draws.shape[0])
        if abs(draws.mean() - mean) > 3.0 * se:
            failures.append(f"{block} mean off by {abs(draws.mean() - mean) / se:.1f} SE")

    # z0 block (n=2 gives a fixed conditional for the single free shift)
    lat2 = LatentState(w=w[:2].copy(), z0=np.array([0.2, -0.2]),
                       z1=latent.z1[:2].copy(), f=latent.f.copy(),
                       sigma_z0_sq=0.4, sigma_z1_sq=0.2, eta_f=1.5,
                       lambda_f=2.5)
    means, var = block_law("z0", lat2, data[:2], config, pen, weight)
    mean, var = means[0], var[0]
    draws = np.empty(n_draws)
    crng = np.random.default_rng(51)
    for k in range(n_draws):
        draw(lat2, data[:2], config, pen, weight, crng, "z0")
        draws[k] = lat2.z0[0]
    ks_and_moments(draws, stats.norm(mean, np.sqrt(var)), mean, np.sqrt(var), "z0")

    # z1 block, others held fixed
    means, var = block_law("z1", latent, data, config, pen, weight)
    mean, var = means[1], var[1]
    keep = latent.z1.copy()
    draws = np.empty(n_draws)
    for k in range(n_draws):
        latent.z1[:] = keep
        draw(latent, data, config, pen, weight, crng, "z1")
        draws[k] = latent.z1[1]
    latent.z1[:] = keep
    ks_and_moments(draws, stats.norm(mean, np.sqrt(var)), mean, np.sqrt(var), "z1")

    # variance blocks
    shape0 = hy.a + 0.5 * (n - 1)
    rate0 = hy.b + 0.5 * float(np.sum(latent.z0[:-1] ** 2))
    shape1 = hy.a + 0.5 * n
    rate1 = hy.b + 0.5 * float(np.sum((latent.z1 - 1.0) ** 2))
    d0 = np.empty(n_draws)
    d1 = np.empty(n_draws)
    for k in range(n_draws):
        draw(latent, data, config, pen, weight, crng, "sigma_z0_sq", "sigma_z1_sq")
        d0[k] = latent.sigma_z0_sq
        d1[k] = latent.sigma_z1_sq
    ig0 = stats.invgamma(shape0, scale=rate0)
    ig1 = stats.invgamma(shape1, scale=rate1)
    ks_and_moments(d0, ig0, ig0.mean(), ig0.std(), "sigma_z0_sq")
    ks_and_moments(d1, ig1, ig1.mean(), ig1.std(), "sigma_z1_sq")

    # target precision blocks
    rate_e = hy.d + 0.5 * float(latent.f @ pen.main.P1ginv @ latent.f)
    rate_l = hy.d + 0.5 * float(latent.f @ pen.main.P2ginv @ latent.f)
    de = np.empty(n_draws)
    dl = np.empty(n_draws)
    for k in range(n_draws):
        draw(latent, data, config, pen, weight, crng, "eta_f", "lambda_f")
        de[k] = latent.eta_f
        dl[k] = latent.lambda_f
    ge = stats.gamma(hy.c + 1.0, scale=1.0 / rate_e)
    gl = stats.gamma(hy.c + 0.5 * (p - 2), scale=1.0 / rate_l)
    ks_and_moments(de, ge, ge.mean(), ge.std(), "eta_f")
    ks_and_moments(dl, gl, gl.mean(), gl.std(), "lambda_f")

    # f block: per-coordinate moment checks against the analytic conditional
    prec = float(np.sum(latent.z1 ** 2)) * weight.matrix \
        + latent.eta_f * pen.main.P1ginv + latent.lambda_f * pen.main.P2ginv
    cov = np.linalg.inv(prec)
    rhs = weight.matrix @ sum(latent.z1[i] * (registered[i] - latent.z0[i])
                       for i in range(n))
    mean_f = cov @ rhs
    keep_f = latent.f.copy()
    draws_f = np.empty((n_draws, p))
    for k in range(n_draws):
        draw(latent, data, config, pen, weight, crng, "f")
        draws_f[k] = latent.f
    latent.f = keep_f
    se = np.sqrt(np.diag(cov) / n_draws)
    if np.any(np.abs(draws_f.mean(axis=0) - mean_f) > 3.0 * se):
        failures.append("f mean outside 3 SE")

    # noisy-model blocks
    noisy_cfg = ModelConfig(gamma_R=30.0, noisy=True)
    lat_n = LatentState(w=w.copy(), z0=latent.z0.copy(), z1=latent.z1.copy(),
                        f=latent.f.copy(), sigma_z0_sq=0.4, sigma_z1_sq=0.2,
                        eta_f=1.5, lambda_f=2.5, X=data.copy(),
                        sigma_Y_sq=0.3, eta_X=2.0, lambda_X=3.0)
    sx_inv = lat_n.eta_X * pen.main.P1ginv + lat_n.lambda_X * pen.main.P2ginv
    prec_x = np.eye(p) / lat_n.sigma_Y_sq + sx_inv
    cov_x = np.linalg.inv(prec_x)
    anchor = lat_n.z0[0] + lat_n.z1[0] * at_inverse_warps(lat_n.f, lat_n.w, pen.grid)[0]
    mean_x = cov_x @ (data[0] / lat_n.sigma_Y_sq + sx_inv @ anchor)
    keep_x = lat_n.X.copy()
    draws_x = np.empty((n_draws, p))
    for k in range(n_draws):
        lat_n.X[:] = keep_x
        draw(lat_n, data, noisy_cfg, pen, None, crng, "X")
        draws_x[k] = lat_n.X[0]
    lat_n.X[:] = keep_x
    se_x = np.sqrt(np.diag(cov_x) / n_draws)
    if np.any(np.abs(draws_x.mean(axis=0) - mean_x) > 3.0 * se_x):
        failures.append("X mean outside 3 SE")

    rate_y = hy.b + 0.5 * float(np.sum((data - lat_n.X) ** 2))
    shape_y = hy.a + 0.5 * n * p
    resid = np.array([lat_n.X[i] - lat_n.z0[i]
                      - lat_n.z1[i] * at_inverse_warps(lat_n.f, lat_n.w, pen.grid)[i]
                      for i in range(n)])
    rate_ex = hy.d + 0.5 * float(np.sum((resid @ pen.main.P1ginv) * resid))
    rate_lx = hy.d + 0.5 * float(np.sum((resid @ pen.main.P2ginv) * resid))
    dy = np.empty(n_draws)
    dex = np.empty(n_draws)
    dlx = np.empty(n_draws)
    for k in range(n_draws):
        draw(lat_n, data, noisy_cfg, pen, None, crng, "sigma_Y_sq", "eta_X", "lambda_X")
        dy[k] = lat_n.sigma_Y_sq
        dex[k] = lat_n.eta_X
        dlx[k] = lat_n.lambda_X
    gy = stats.invgamma(shape_y, scale=rate_y)
    gex = stats.gamma(hy.c + n, scale=1.0 / rate_ex)
    glx = stats.gamma(hy.c + 0.5 * n * (p - 2), scale=1.0 / rate_lx)
    ks_and_moments(dy, gy, gy.mean(), gy.std(), "sigma_Y_sq")
    ks_and_moments(dex, gex, gex.mean(), gex.std(), "eta_X")
    ks_and_moments(dlx, glx, glx.mean(), glx.std(), "lambda_X")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    report(5, "full-conditional exactness", ok,
           f"11 blocks x {n_draws} draws, {elapsed:.0f}s"
           + (f"; failures: {failures}" if failures else ""))
    assert not failures
    assert elapsed < 120.0


def test_criterion_6_conditional_mvn_oracle():
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 11))
        a = rng.standard_normal((d, d + 3))
        cov = a @ a.T / (d + 3) + 0.1 * np.eye(d)
        mu = rng.standard_normal(d)
        n_obs = int(rng.integers(1, d))
        obs = rng.choice(d, size=n_obs, replace=False)
        vals = rng.standard_normal(n_obs)
        mean, cc = conditional_mvn(mu, cov, obs, vals)
        mask = np.ones(d, bool)
        mask[obs] = False
        un = np.where(mask)[0]
        inv = np.linalg.inv(cov[np.ix_(obs, obs)])
        gain = cov[np.ix_(un, obs)] @ inv
        mean_o = mu[un] + gain @ (vals - mu[obs])
        cov_o = cov[np.ix_(un, un)] - gain @ cov[np.ix_(obs, un)]
        worst = max(worst, float(np.abs(mean - mean_o).max()),
                    float(np.abs(cc - cov_o).max()))
    ok = worst < 1e-12
    report(6, "conditional-MVN oracle", ok,
           f"100 instances, worst deviation {worst:.2e}")
    assert worst < 1e-12


def test_criterion_7_prediction_sanity():
    t_start = time.perf_counter()
    grid = build_time_grid(np.linspace(0.0, 1.0, 36))
    pen = build_penalty_set(grid)
    t = grid.points
    r = int(round(0.6 * 36))  # observe 60%, hold out the final 40%
    wins = 0
    prefix_ok = 0
    total = 50
    errs_c, errs_m = [], []
    for rep in range(total):
        sim = simulate_dataset("gauss3mix", 12, grid, seed=100 + rep,
                               z1_sd=0.2, z0_sd=0.3, warp_amplitude=0.3)
        train = sim.Y[:11]
        state = avb_fit(train, REG_CONFIG, pen, tol=1e-6, max_iters=40)
        registered = registered_curves(state, train, pen)
        law = fit_empirical_laws(registered, state.w_hat, ridge_fraction=0.05)
        partial = PartialObservation(sim.Y[11][:r])
        window = list(np.linspace(t[r - 1] - 0.17, t[r - 1] + 0.12, 6))
        kw = dict(sigma_z0_sq=state.b_q_sigma_z0 / state.a_q_sigma_z0,
                  sigma_z1_sq=state.b_q_sigma_z1 / state.a_q_sigma_z1)
        cond, marg = predict_complete(partial, law, window, grid, PRED_CONFIG,
                                      pen, **kw)
        tail = sim.Y[11][r:]
        err_c = np.linalg.norm(cond.unregistered_full[r:] - tail)
        err_m = np.linalg.norm(marg.unregistered_full[r:] - tail)
        wins += err_c < err_m
        errs_c.append(err_c)
        errs_m.append(err_m)
        # prefix consistency at the interpolation scale of the fitted warp
        d2 = np.abs(np.diff(partial.values, 2)).max() / np.diff(t).max() ** 2
        slope_max = float(np.exp(np.max(cond.base_full[:r])))
        tol = 0.5 * np.diff(t).max() ** 2 * d2 * slope_max ** 2 + 1e-9
        prefix_err = np.abs(cond.unregistered_full[:r] - partial.values).max()
        prefix_ok += prefix_err < tol
    elapsed = time.perf_counter() - t_start
    ok = wins >= 0.8 * total and prefix_ok == total
    report(7, "prediction sanity", ok,
           f"conditional wins {wins}/{total}, prefix ok {prefix_ok}/{total}, "
           f"median tail error conditional {np.median(errs_c):.2f} "
           f"marginal {np.median(errs_m):.2f}, {elapsed:.0f}s")
    assert wins >= 0.8 * total
    assert prefix_ok == total


def test_criterion_8_bootstrap_determinism_and_shape(reg_problem):
    grid, pen, sim, state, registered, _ = reg_problem
    t = grid.points
    r = 30
    partial = PartialObservation(sim.Y[0][:r])
    window = list(np.linspace(t[r - 1] - 0.12, t[r - 1] + 0.08, 5))
    kw = dict(sigma_z0_sq=state.b_q_sigma_z0 / state.a_q_sigma_z0,
              sigma_z1_sq=state.b_q_sigma_z1 / state.a_q_sigma_z1,
              ridge_fraction=0.05, M=20, S=50, seed=8, n_iters=10)
    t0 = time.perf_counter()
    bands = bootstrap_bands(partial, registered, state.w_hat, window, grid,
                            PRED_CONFIG, pen, **kw)
    elapsed = time.perf_counter() - t0
    bands2 = bootstrap_bands(partial, registered, state.w_hat, window, grid,
                             PRED_CONFIG, pen, **kw)
    identical = all(
        np.array_equal(getattr(bands, name), getattr(bands2, name))
        for name in ("registered_lower", "registered_upper", "warp_lower",
                     "warp_upper", "unregistered_lower", "unregistered_upper"))
    ordered = (np.all(bands.registered_lower <= bands.registered_upper)
               and np.all(bands.warp_lower <= bands.warp_upper)
               and np.all(bands.unregistered_lower <= bands.unregistered_upper))
    ok = identical and ordered and elapsed < 300.0 and bands.skipped == 0
    report(8, "bootstrap determinism/shape", ok,
           f"M=20 S=50 in {elapsed:.0f}s, skipped={bands.skipped}, "
           f"identical={identical}, ordered={ordered}")
    assert identical
    assert ordered
    assert elapsed < 300.0
    assert bands.skipped == 0


def test_criterion_9_warp_invariants():
    rng = np.random.default_rng(90)
    n_cases = 100_000
    failures = 0
    t0 = time.perf_counter()
    for _ in range(n_cases):
        p = int(rng.integers(3, 12))
        if rng.uniform() < 0.5:
            tgrid = np.linspace(0.0, float(rng.uniform(0.5, 5.0)), p)
        else:
            tgrid = np.sort(rng.uniform(0.0, 3.0, p))
            while np.any(np.diff(tgrid) < 1e-4):
                tgrid = np.sort(rng.uniform(0.0, 3.0, p))
        sd = rng.uniform(0.1, 1.5)
        w_raw = rng.normal(0.0, sd, p - 1)
        w = project_endpoint(w_raw, tgrid)
        span = tgrid[-1] - tgrid[0]
        # projection idempotence
        w2 = project_endpoint(w, tgrid)
        if np.abs(w2 - w).max() > 1e-12:
            failures += 1
            continue
        h = warp_from_base(w, tgrid)
        # endpoint constraint and monotonicity
        if h[0] != tgrid[0] or abs(h[-1] - tgrid[-1]) > 1e-12 * max(span, 1.0):
            failures += 1
            continue
        if np.any(np.diff(h) <= 0):
            failures += 1
            continue
        # inverse-warp round trip at the knots
        back = invert_warp(h, tgrid, h)
        if np.abs(back - tgrid).max() > 1e-10 * max(span, 1.0):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    report(9, "warp/constraint invariants", ok,
           f"{n_cases} cases, {failures} failures, {elapsed:.0f}s")
    assert failures == 0


def test_criterion_10_mean_warp_correction():
    grid = build_time_grid(np.linspace(0.0, 2.0, 20))
    rng = np.random.default_rng(100)
    warps = np.array([
        warp_from_base(project_endpoint(rng.normal(0, 0.5, 19), grid), grid)
        for _ in range(12)])
    registered = rng.standard_normal((12, 20))
    corr = mean_warp_correction(warps, registered, grid)
    dev = float(np.abs(corr.warps_on_t_tilde.mean(axis=0) - corr.t_tilde).max())

    # the worked interpolation example: mean warps 2 -> 2.25 and 3 -> 3.1
    g2 = build_time_grid([0.0, 2.0, 3.0, 5.0])
    warps2 = np.array([[0.0, 2.2, 3.0, 5.0], [0.0, 2.3, 3.2, 5.0]])
    reg2 = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0]])
    corr2 = mean_warp_correction(warps2, reg2, g2)
    frac = (3.0 - 2.25) / (3.1 - 2.25)
    example_exact = np.allclose(corr2.t_tilde, [0.0, 2.25, 3.1, 5.0]) and all(
        corr2.registered[i, 2] == pytest.approx(
            reg2[i, 1] + frac * (reg2[i, 2] - reg2[i, 1]), abs=1e-12)
        for i in range(2))
    ok = dev < 1e-9 and example_exact
    report(10, "mean-warp correction", ok,
           f"max identity deviation {dev:.2e}, worked example exact: {example_exact}")
    assert dev < 1e-9
    assert example_exact


def test_criterion_11_interval_width_comparison(noisy_problem):
    _, pen, _, _, init, chain, _ = noisy_problem
    lower, upper = chain.credible_band("f", 0.95)
    width_mcmc = upper - lower
    width_q = 2.0 * Z95 * np.sqrt(np.diag(pen.main.covariance(init.var_f)))
    ratio = width_mcmc / width_q
    frac = float(np.mean(width_mcmc >= width_q))
    print("  interval-width ratio (MCMC / AVB-q) by grid point:")
    print("  " + np.array2string(np.round(ratio, 2), max_line_width=100))
    ok = frac >= 0.9
    report(11, "credible-interval widths", ok,
           f"MCMC >= AVB-q at {100 * frac:.0f}% of points, "
           f"median ratio {np.median(ratio):.2f}")
    assert frac >= 0.9
