import numpy as np
import pytest

from gpalign.errors import (DegenerateSample, DimensionMismatch, EmptyWindow,
                            OptimizerFailure)
from gpalign.model import ModelConfig, new_curve_shift_law, scale_law
from gpalign.penalties import build_penalty_set, build_time_grid
from gpalign.prediction import (PartialObservation,
                                _register_candidates, bootstrap_bands,
                                conditional_mvn,
                                fit_empirical_laws, predict_complete,
                                select_final_time)
from gpalign.simulate import simulate_dataset
from gpalign.warping import project_endpoint, warp_from_base


class TestEmpiricalLaws:
    def test_identical_rows_give_pure_ridge(self):
        # the sample covariance is 0, so the covariance is the ridge alone,
        # a fraction of that zero mean diagonal
        reg = np.tile(np.arange(5.0), (4, 1))
        base = np.tile(np.arange(4.0), (4, 1))
        law = fit_empirical_laws(reg, base, ridge_fraction=0.3)
        assert np.array_equal(law.cov_reg, np.zeros((5, 5)))
        assert np.array_equal(law.cov_base, np.zeros((4, 4)))

    def test_two_rows_rank_one_plus_ridge(self):
        reg = np.array([[0.0, 1.0, 2.0], [2.0, 3.0, 4.0]])
        base = np.array([[0.0, 1.0], [1.0, 0.0]])
        law = fit_empirical_laws(reg, base, ridge_fraction=1e-3)
        raw = np.cov(reg, rowvar=False, ddof=1)
        assert np.allclose(law.cov_reg, raw + 1e-3 * np.mean(np.diag(raw)) * np.eye(3))
        assert np.linalg.eigvalsh(law.cov_reg).min() > 0

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(0)
        reg = rng.standard_normal((5, 3))
        base = rng.standard_normal((5, 2))
        law = fit_empirical_laws(reg, base, ridge_fraction=0.0)
        n = 5
        mu = reg.mean(axis=0)
        cov = sum(np.outer(r - mu, r - mu) for r in reg) / (n - 1)
        assert np.abs(law.mu_reg - mu).max() < 1e-12
        assert np.abs(law.cov_reg - cov).max() < 1e-12

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSample):
            fit_empirical_laws(np.zeros((1, 4)), np.zeros((1, 3)))


class TestConditionalMvn:
    def test_zero_cross_covariance(self):
        mu = np.array([1.0, 2.0, 3.0])
        cov = np.diag([1.0, 2.0, 3.0])
        mean, cc = conditional_mvn(mu, cov, [0], [5.0])
        assert np.allclose(mean, [2.0, 3.0])
        assert np.allclose(cc, np.diag([2.0, 3.0]))

    def test_schur_complement_hand_case(self):
        # 3-dim with known closed form
        cov = np.array([[2.0, 0.6, 0.2],
                        [0.6, 1.5, 0.4],
                        [0.2, 0.4, 1.0]])
        mu = np.array([0.5, -1.0, 2.0])
        obs_idx = [0]
        mean, cc = conditional_mvn(mu, cov, obs_idx, [1.5])
        gain = cov[1:, 0] / cov[0, 0]
        expected_mean = mu[1:] + gain * (1.5 - mu[0])
        expected_cov = cov[1:, 1:] - np.outer(gain, cov[0, 1:])
        assert np.abs(mean - expected_mean).max() < 1e-12
        assert np.abs(cc - expected_cov).max() < 1e-12

    def test_random_instances_match_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = rng.integers(2, 11)
            a = rng.standard_normal((d, d + 2))
            cov = a @ a.T / (d + 2) + 0.05 * np.eye(d)
            mu = rng.standard_normal(d)
            n_obs = rng.integers(1, d)
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
            assert np.abs(mean - mean_o).max() < 1e-12
            assert np.abs(cc - cov_o).max() < 1e-12

    def test_observe_everything(self):
        mu = np.zeros(3)
        cov = np.eye(3)
        mean, cc = conditional_mvn(mu, cov, [0, 1, 2], [1.0, 2.0, 3.0])
        assert mean.size == 0 and cc.size == 0

    def test_variance_reduction(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 8))
        cov = a @ a.T / 8 + 0.1 * np.eye(6)
        mu = np.zeros(6)
        _, cc = conditional_mvn(mu, cov, [0, 3], [0.5, -0.5])
        marginal = np.diag(cov)[[1, 2, 4, 5]]
        assert np.all(np.diag(cc) <= marginal + 1e-12)

    @pytest.mark.parametrize("block", [[[1.0, 2.0], [2.0, 1.0]],   # indefinite
                                       [[1.0, 1.0], [1.0, 1.0]],   # singular
                                       [[0.0, 0.0], [0.0, 0.0]]])  # zero
    def test_block_not_positive_definite(self, block):
        # inverted by the pseudoinverse
        cov = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.3], [0.5, 0.3, 2.0]])
        cov[:2, :2] = block
        mu = np.array([0.1, -0.2, 0.3])
        mean, cc = conditional_mvn(mu, cov, [0, 1], [1.0, 0.5])
        gain = cov[2:, :2] @ np.linalg.pinv(cov[:2, :2], hermitian=True)
        assert np.abs(mean - (mu[2:] + gain @ ([1.0, 0.5] - mu[:2]))).max() < 1e-14
        assert np.abs(cc - (cov[2:, 2:] - gain @ cov[:2, 2:])).max() < 1e-14


@pytest.fixture(scope="module")
def trained():
    """A registered training sample with ground truth, shared across tests."""
    from gpalign.avb import avb_fit
    from gpalign.model import registered_curves
    grid = build_time_grid(np.linspace(0, 1, 36))
    pen = build_penalty_set(grid)
    sim = simulate_dataset("gauss3mix", 12, grid, seed=105, z1_sd=0.2,
                           z0_sd=0.3, warp_amplitude=0.3)
    config = ModelConfig(gamma_R=1e5, gamma_w=10.0, lambda_w=100.0)
    state = avb_fit(sim.Y[:11], config, pen, tol=1e-6, max_iters=40)
    registered = registered_curves(state, sim.Y[:11], pen)
    return grid, pen, sim, state, registered


PRED_CFG = ModelConfig(gamma_R=1e3, gamma_w=20.0, lambda_w=200.0)


class TestRegisterPartial:
    def test_partial_equals_truncated_target(self):
        grid = build_time_grid(np.linspace(0, 1, 30))
        pen = build_penalty_set(grid)
        t = grid.points
        target = np.exp(-0.5 * ((t - 0.5) / 0.15) ** 2) + t
        r = 18
        partial = PartialObservation(target[:r])
        _, fit, _ = select_final_time(partial, target, [t[r - 1]], grid, PRED_CFG,
                                      pen, sigma_z0_sq=0.05, sigma_z1_sq=0.01)
        assert abs(fit.z0) < 1e-6
        assert abs(fit.z1 - 1.0) < 1e-6
        assert np.abs(fit.w).max() < 1e-6
        assert fit.distance < 1e-6

    def test_time_compressed_target_recovered(self):
        # a trend keeps the warp identified everywhere (a flat stretch would
        # leave it arbitrary there); shift/scale stay loosely pinned because
        # they partially trade against the trend under warping
        grid = build_time_grid(np.linspace(0, 1, 40))
        pen = build_penalty_set(grid)
        t = grid.points
        target = np.exp(-0.5 * ((t - 0.55) / 0.14) ** 2) + 1.5 * t
        w_true = project_endpoint(0.25 * np.sin(2 * np.pi * t[:-1]), grid)
        h_true = warp_from_base(w_true, grid)
        x_new = np.interp(np.interp(t, h_true, t), t, target)
        r = 26
        t_f_true = float(np.interp(t[r - 1], h_true, t))
        partial = PartialObservation(x_new[:r])
        _, fit, _ = select_final_time(partial, target, [t_f_true], grid, PRED_CFG,
                                      pen, sigma_z0_sq=0.05, sigma_z1_sq=0.01)
        h_truth_trunc = np.interp(fit.nodes, t, h_true)
        assert np.abs(fit.warp - h_truth_trunc).max() < 0.05
        assert abs(fit.z1 - 1.0) < 0.5

    def test_stacked_rows_match_one_row_calls(self):
        # rows of one stacked call share the candidate's set-up but keep their
        # own ascent and stopping rule: each equals its own one-row call
        grid = build_time_grid(np.linspace(0, 1, 40))
        pen = build_penalty_set(grid)
        t = grid.points
        base = np.exp(-0.5 * ((t - 0.55) / 0.14) ** 2) + 1.5 * t
        targets = np.vstack([base, 0.8 * base + 0.3,
                             np.exp(-0.5 * ((t - 0.45) / 0.12) ** 2) + 1.2 * t,
                             np.interp(0.9 * t, t, base)])
        w_true = project_endpoint(0.25 * np.sin(2 * np.pi * t[:-1]), grid)
        x_new = np.interp(np.interp(t, warp_from_base(w_true, grid), t), t, base)
        partial = PartialObservation(x_new[:26])
        kw = dict(sigma_z0_sq=0.05, sigma_z1_sq=0.01)
        for t_f in (t[25], 0.5 * (t[27] + t[28])):
            fits = select_final_time(partial, targets, [t_f], grid, PRED_CFG, pen, **kw)
            assert len(fits) == targets.shape[0]
            for target, (_, fit, _) in zip(targets, fits):
                _, one, _ = select_final_time(partial, target, [t_f], grid, PRED_CFG,
                                              pen, **kw)
                assert np.abs(fit.w - one.w).max() < 1e-9
                assert abs(fit.z0 - one.z0) < 1e-9 and abs(fit.z1 - one.z1) < 1e-9
                assert abs(fit.distance - one.distance) < 1e-9
                assert np.array_equal(fit.nodes, one.nodes)
        window = [t[23], t[25], 0.5 * (t[27] + t[28])]
        selected = select_final_time(partial, targets, window, grid, PRED_CFG,
                                     pen, **kw)
        for target, (t_f, fit, dists) in zip(targets, selected):
            t_one, fit_one, dists_one = select_final_time(
                partial, target, window, grid, PRED_CFG, pen, **kw)
            assert t_f == t_one and dists.keys() == dists_one.keys()
            assert np.abs(fit.w - fit_one.w).max() < 1e-9

    def test_batched_candidates_match_one_candidate_calls(self):
        # every (candidate, row) pair of one batched select_final_time is the
        # registration its own one-candidate call gives, on and off the grid
        grid = build_time_grid(np.linspace(0, 1, 50))
        pen = build_penalty_set(grid)
        t = grid.points
        base = np.exp(-0.5 * ((t - 0.55) / 0.14) ** 2) + 1.5 * t
        targets = np.vstack([base, 0.8 * base + 0.3, np.interp(0.9 * t, t, base)])
        w_true = project_endpoint(0.25 * np.sin(2 * np.pi * t[:-1]), grid)
        x_new = np.interp(np.interp(t, warp_from_base(w_true, grid), t), t, base)
        partial = PartialObservation(x_new[:30])
        kw = dict(sigma_z0_sq=0.05, sigma_z1_sq=0.01, n_iters=10)
        window = [t[24], 0.5 * (t[26] + t[27]), t[29], 0.3 * t[31] + 0.7 * t[32],
                  t[33]]
        batched = _register_candidates(partial, targets, window, grid, PRED_CFG, pen,
                                       kw["sigma_z0_sq"], kw["sigma_z1_sq"],
                                       kw["n_iters"])
        singles = {}
        for t_f, fits in zip(window, batched):
            singles[t_f] = [fit for _, fit, _ in select_final_time(
                partial, targets, [t_f], grid, PRED_CFG, pen, **kw)]
            for fit, one in zip(fits, singles[t_f]):
                assert fit.t_f == t_f and np.array_equal(fit.nodes, one.nodes)
                assert np.abs(fit.w - one.w).max() < 1e-9
                assert abs(fit.z0 - one.z0) < 1e-9 and abs(fit.z1 - one.z1) < 1e-9
                assert abs(fit.distance - one.distance) < 1e-9
        selected = select_final_time(partial, targets, window[::-1], grid, PRED_CFG,
                                     pen, **kw)
        for i, (t_f, fit, dists) in enumerate(selected):
            assert dists.keys() == set(window)
            for c in window:
                assert abs(dists[c] - singles[c][i].distance) < 1e-9
            assert t_f == min(window, key=lambda c: singles[c][i].distance)
            assert np.abs(fit.w - singles[t_f][i].w).max() < 1e-9

    def test_shift_and_scale_laws_with_one_row_per_pair(self):
        # the partial registration reads a new curve's shift and scale from
        # model's laws, one row per (candidate, row) pair: each row's law is
        # the conditional of that pair's Gaussian kernel alone
        rng = np.random.default_rng(3)
        x, target = rng.standard_normal((2, 3, 6))
        root = rng.standard_normal((6, 6))
        a = root @ root.T + np.eye(6)
        z0, z1 = rng.standard_normal(3), 1.0 + 0.1 * rng.standard_normal(3)
        shifts, var0 = new_curve_shift_law(x, z1, target, a @ np.ones(6), 2.0)
        a_f = target @ a
        scales, var1 = scale_law(x, z0, a_f, np.einsum("ij,ij->i", a_f, target), 4.0)
        for i in range(3):
            # a zero derivative of each log-density at its mean
            r0 = x[i] - shifts[i] - z1[i] * target[i]
            assert np.ones(6) @ a @ r0 == pytest.approx(2.0 * shifts[i], abs=1e-12)
            r1 = x[i] - z0[i] - scales[i] * target[i]
            assert target[i] @ a @ r1 == pytest.approx(4.0 * (scales[i] - 1.0), abs=1e-12)
            assert var1[i] == pytest.approx(1.0 / (4.0 + target[i] @ a @ target[i]))
        assert var0 == pytest.approx(1.0 / (2.0 + a.sum()))

    def test_short_candidate_raises_before_any_ascent(self, monkeypatch):
        import gpalign.prediction as prediction

        def no_ascent(*args, **kwargs):
            raise AssertionError("an ascent ran before the window was checked")

        monkeypatch.setattr(prediction, "maximize_base_functions", no_ascent)
        grid = build_time_grid(np.linspace(0, 1, 20))
        pen = build_penalty_set(grid)
        partial = PartialObservation(np.linspace(0.0, 1.0, 12))
        with pytest.raises(ValueError, match="too few nodes"):
            select_final_time(partial, np.zeros((2, 20)), [0.6, 0.03, 0.5], grid,
                              PRED_CFG, pen)

    def test_failing_row_yields_its_own_failure(self):
        grid = build_time_grid(np.linspace(0, 1, 30))
        pen = build_penalty_set(grid)
        t = grid.points
        target = np.exp(-0.5 * ((t - 0.5) / 0.15) ** 2) + t
        partial = PartialObservation(target[:18] + 0.01 * np.sin(9.0 * t[:18]))
        targets = np.vstack([target, np.full(30, np.nan), 0.9 * target + 0.1])
        kw = dict(sigma_z0_sq=0.05, sigma_z1_sq=0.01, n_iters=8)
        window = [t[15], 0.5 * (t[17] + t[18]), t[19]]
        selected = select_final_time(partial, targets, window, grid, PRED_CFG, pen,
                                     **kw)
        assert isinstance(selected[1], OptimizerFailure)
        for i in (0, 2):
            t_f, fit, dists = selected[i]
            t_one, fit_one, dists_one = select_final_time(
                partial, targets[i], window, grid, PRED_CFG, pen, **kw)
            assert t_f == t_one and dists.keys() == dists_one.keys()
            assert np.abs(fit.w - fit_one.w).max() < 1e-9

    def test_out_of_range_time(self):
        grid = build_time_grid(np.linspace(0, 1, 10))
        pen = build_penalty_set(grid)
        partial = PartialObservation(np.zeros(5))
        with pytest.raises(ValueError):
            select_final_time(partial, np.zeros(10), [1.5], grid, PRED_CFG, pen)


class TestSelectFinalTime:
    def test_exact_truncation_selected_with_zero_distance(self):
        grid = build_time_grid(np.linspace(0, 1, 30))
        pen = build_penalty_set(grid)
        t = grid.points
        target = np.exp(-0.5 * ((t - 0.5) / 0.15) ** 2) + t
        r = 18
        partial = PartialObservation(target[:r])
        window = [t[r - 3], t[r - 1], t[r + 2]]
        t_f, fit, dists = select_final_time(partial, target, window, grid,
                                            PRED_CFG, pen, 0.05, 0.01)
        assert t_f == pytest.approx(t[r - 1])
        assert dists[t[r - 1]] < 1e-6

    def test_tie_breaks_to_smallest_time(self):
        grid = build_time_grid(np.linspace(0, 1, 20))
        pen = build_penalty_set(grid)
        # constant curves: every candidate registers perfectly
        target = np.full(20, 2.0)
        partial = PartialObservation(np.full(12, 2.0))
        window = [0.55, 0.7, 0.62]
        t_f, _, dists = select_final_time(partial, target, window, grid,
                                          PRED_CFG, pen, 0.05, 0.01)
        assert t_f == pytest.approx(0.55)
        assert max(dists.values()) < 1e-8

    def test_permutation_stable(self):
        grid = build_time_grid(np.linspace(0, 1, 25))
        pen = build_penalty_set(grid)
        t = grid.points
        rng = np.random.default_rng(3)
        target = np.cumsum(rng.standard_normal(25)) / 5.0
        partial = PartialObservation(target[:15] + 0.01 * rng.standard_normal(15))
        window = [0.5, 0.56, 0.62, 0.68]
        picks = set()
        for perm in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
            t_f, _, _ = select_final_time(partial, target,
                                          [window[i] for i in perm], grid,
                                          PRED_CFG, pen, 0.05, 0.01)
            picks.add(round(t_f, 12))
        assert len(picks) == 1

    def test_empty_window(self):
        grid = build_time_grid(np.linspace(0, 1, 10))
        pen = build_penalty_set(grid)
        with pytest.raises(EmptyWindow):
            select_final_time(PartialObservation(np.zeros(5)), np.zeros(10),
                              [], grid, PRED_CFG, pen)

    def test_window_must_stay_below_endpoint(self):
        grid = build_time_grid(np.linspace(0, 1, 10))
        pen = build_penalty_set(grid)
        with pytest.raises(ValueError):
            select_final_time(PartialObservation(np.zeros(5)), np.zeros(10),
                              [0.5, 1.0], grid, PRED_CFG, pen)


class TestPartialObservation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        # they used to run the whole registration and fail without a
        # finite objective
        with pytest.raises(DimensionMismatch, match="non-finite"):
            PartialObservation(np.array([0.1, bad, 0.3]))


class TestPredictComplete:
    def test_degenerate_law_returns_training_curve(self):
        # identical training curves: the prediction must continue that curve
        grid = build_time_grid(np.linspace(0, 1, 30))
        pen = build_penalty_set(grid)
        t = grid.points
        curve = np.exp(-0.5 * ((t - 0.5) / 0.2) ** 2) + 0.5 * t
        reg = np.tile(curve, (5, 1))
        bases = np.zeros((5, 29))
        law = fit_empirical_laws(reg, bases, ridge_fraction=0.0)
        r = 18
        partial = PartialObservation(curve[:r])
        window = [t[r - 2], t[r - 1], t[r]]
        res, _ = predict_complete(partial, law, window, grid, PRED_CFG, pen,
                                  0.05, 0.01)
        assert res.t_f == pytest.approx(t[r - 1])
        assert np.abs(res.registered_full - curve).max() < 1e-6
        assert np.abs(res.unregistered_full - curve).max() < 1e-6
        assert np.abs(res.warp_full - t).max() < 1e-6

    def test_prefix_consistency_and_invariants(self, trained):
        grid, pen, sim, state, registered = trained
        t = grid.points
        r = 21
        partial = PartialObservation(sim.Y[11][:r])
        law = fit_empirical_laws(registered, state.w_hat, ridge_fraction=0.05)
        window = list(np.linspace(t[r - 1] - 0.15, t[r - 1] + 0.1, 5))
        res, _ = predict_complete(
            partial, law, window, grid, PRED_CFG, pen,
            state.b_q_sigma_z0 / state.a_q_sigma_z0,
            state.b_q_sigma_z1 / state.a_q_sigma_z1)
        # warp invariants
        assert res.warp_full[0] == pytest.approx(t[0])
        assert res.warp_full[-1] == pytest.approx(t[-1])
        assert np.all(np.diff(res.warp_full) > 0)
        # prefix consistency at the interpolation scale
        d2 = np.abs(np.diff(partial.values, 2)).max() / np.diff(t).max() ** 2
        slope_max = float(np.exp(np.max(res.base_full[:r])))
        tol = 0.5 * np.diff(t).max() ** 2 * d2 * slope_max ** 2 + 1e-9
        prefix_err = np.abs(res.unregistered_full[:r] - partial.values).max()
        assert prefix_err < tol

    def test_conditional_beats_marginal_on_this_instance(self, trained):
        grid, pen, sim, state, registered = trained
        t = grid.points
        r = 21
        partial = PartialObservation(sim.Y[11][:r])
        law = fit_empirical_laws(registered, state.w_hat, ridge_fraction=0.05)
        window = list(np.linspace(t[r - 1] - 0.15, t[r - 1] + 0.1, 5))
        kw = dict(sigma_z0_sq=state.b_q_sigma_z0 / state.a_q_sigma_z0,
                  sigma_z1_sq=state.b_q_sigma_z1 / state.a_q_sigma_z1)
        cond, marg = predict_complete(partial, law, window, grid, PRED_CFG, pen,
                                      **kw)
        tail = sim.Y[11][r:]
        err_c = np.linalg.norm(cond.unregistered_full[r:] - tail)
        err_m = np.linalg.norm(marg.unregistered_full[r:] - tail)
        assert err_c < err_m

    def test_one_selection_gives_both_completions(self, trained, monkeypatch):
        import gpalign.prediction as P
        grid, pen, sim, state, registered = trained
        t = grid.points
        calls = []
        original = P._register_candidates

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(P, "_register_candidates", counted)
        r = 21
        law = fit_empirical_laws(registered, state.w_hat, ridge_fraction=0.05)
        window = list(np.linspace(t[r - 1] - 0.15, t[r - 1] + 0.1, 5))
        cond, marg = predict_complete(PartialObservation(sim.Y[11][:r]), law,
                                      window, grid, PRED_CFG, pen, 0.05, 0.01,
                                      n_iters=10)
        assert len(calls) == 1
        for name in ("t_f", "z0", "z1", "obs_grid_count"):
            assert getattr(cond, name) == getattr(marg, name), name
        k = cond.obs_grid_count
        assert np.array_equal(cond.registered_full[:k], marg.registered_full[:k])
        assert np.array_equal(marg.registered_full[k:], law.mu_reg[k:])
        assert not np.array_equal(cond.registered_full[k:], marg.registered_full[k:])


class TestBootstrapBands:
    def test_collapse_with_zero_covariance(self):
        grid = build_time_grid(np.linspace(0, 1, 25))
        pen = build_penalty_set(grid)
        t = grid.points
        curve = np.exp(-0.5 * ((t - 0.5) / 0.2) ** 2) + 0.2
        reg = np.tile(curve, (4, 1))
        bases = np.zeros((4, 24))
        r = 15
        partial = PartialObservation(curve[:r])
        window = [t[r - 1]]
        bands = bootstrap_bands(partial, reg, bases, window, grid, PRED_CFG,
                                pen, M=1, S=1, ridge_fraction=0.0, seed=0,
                                sigma_z0_sq=0.05, sigma_z1_sq=0.01)
        assert np.abs(bands.registered_lower - bands.registered_upper).max() < 1e-9
        assert np.abs(bands.registered_lower - bands.point.registered_full).max() < 1e-9
        assert np.abs(bands.unregistered_lower
                      - bands.point.unregistered_full).max() < 1e-9

    @pytest.mark.parametrize("level", [1.5, 0.0, 1.0, np.nan])
    def test_level_rejected_before_any_registration(self, level, monkeypatch):
        # a level of 1.5 used to fail in np.quantile after all M + 1
        # registrations, and 0 gave collapsed bands
        def no_registration(*args, **kwargs):
            raise AssertionError("a registration ran")
        monkeypatch.setattr("gpalign.prediction.select_final_time", no_registration)
        grid = build_time_grid(np.linspace(0, 1, 25))
        pen = build_penalty_set(grid)
        reg = np.random.default_rng(4).standard_normal((4, 25))
        with pytest.raises(ValueError, match="quantile level"):
            bootstrap_bands(PartialObservation(reg[0, :15]), reg, np.zeros((4, 24)),
                            [grid.points[14]], grid, PRED_CFG, pen, M=2, S=2,
                            quantile_level=level)

    def test_determinism_and_shape(self, trained):
        grid, pen, sim, state, registered = trained
        t = grid.points
        r = 21
        partial = PartialObservation(sim.Y[11][:r])
        window = list(np.linspace(t[r - 1] - 0.12, t[r - 1] + 0.08, 3))
        kw = dict(sigma_z0_sq=state.b_q_sigma_z0 / state.a_q_sigma_z0,
                  sigma_z1_sq=state.b_q_sigma_z1 / state.a_q_sigma_z1,
                  ridge_fraction=0.05, M=3, S=6, seed=11, n_iters=12)
        a = bootstrap_bands(partial, registered, state.w_hat, window, grid,
                            PRED_CFG, pen, **kw)
        b = bootstrap_bands(partial, registered, state.w_hat, window, grid,
                            PRED_CFG, pen, **kw)
        for name in ("registered_lower", "registered_upper", "warp_lower",
                     "warp_upper", "unregistered_lower", "unregistered_upper"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
            assert np.all(a.registered_lower <= a.registered_upper)
            assert np.all(a.warp_lower <= a.warp_upper)
            assert np.all(a.unregistered_lower <= a.unregistered_upper)

    def test_every_sampled_warp_valid(self, trained, monkeypatch):
        # capture every warp the bootstrap builds and check the constraints
        import gpalign.prediction as P
        grid, pen, sim, state, registered = trained
        t = grid.points
        captured = []
        original = P._complete_base

        def wrapper(fit, suffix, g):
            base, warp, fb = original(fit, suffix, g)
            captured.extend(warp)  # one row per future
            return base, warp, fb

        monkeypatch.setattr(P, "_complete_base", wrapper)
        r = 21
        partial = PartialObservation(sim.Y[11][:r])
        window = [t[r - 1] - 0.05, t[r - 1] + 0.05]
        bootstrap_bands(partial, registered, state.w_hat, window, grid,
                        PRED_CFG, pen, M=2, S=5, ridge_fraction=0.05, seed=3,
                        sigma_z0_sq=0.05, sigma_z1_sq=0.01, n_iters=10)
        assert len(captured) >= 10
        for warp in captured:
            assert np.all(np.diff(warp) > 0)
            assert warp[0] == pytest.approx(t[0])
            assert warp[-1] == pytest.approx(t[-1])

    def test_point_matches_predict_complete(self, trained):
        grid, pen, sim, state, registered = trained
        t = grid.points
        r = 21
        partial = PartialObservation(sim.Y[11][:r])
        window = list(np.linspace(t[r - 1] - 0.12, t[r - 1] + 0.08, 3))
        kw = dict(sigma_z0_sq=state.b_q_sigma_z0 / state.a_q_sigma_z0,
                  sigma_z1_sq=state.b_q_sigma_z1 / state.a_q_sigma_z1, n_iters=12)
        bands = bootstrap_bands(partial, registered, state.w_hat, window, grid,
                                PRED_CFG, pen, M=3, S=4, ridge_fraction=0.05,
                                seed=5, **kw)
        law = fit_empirical_laws(registered, state.w_hat, ridge_fraction=0.05)
        alone, _ = predict_complete(partial, law, window, grid, PRED_CFG, pen,
                                    **kw)
        assert bands.point.t_f == alone.t_f
        for name in ("registered_full", "warp_full", "base_full",
                     "unregistered_full"):
            assert np.abs(getattr(bands.point, name) - getattr(alone, name)).max() < 1e-9
        assert abs(bands.point.z0 - alone.z0) < 1e-9
        assert abs(bands.point.z1 - alone.z1) < 1e-9

    def test_failed_row_is_skipped_with_its_reason(self, trained, monkeypatch):
        # a resampled law whose mean is not finite fails its registration row
        # alone; the other rows still form the bands
        import dataclasses
        import gpalign.prediction as P
        grid, pen, sim, state, registered = trained
        t = grid.points
        calls = []
        original = P.fit_empirical_laws

        def poisoned(*args, **kwargs):
            law = original(*args, **kwargs)
            calls.append(law)
            if len(calls) == 3:  # the second resampled training set
                law = dataclasses.replace(law, mu_reg=np.full_like(law.mu_reg, np.nan))
            return law

        monkeypatch.setattr(P, "fit_empirical_laws", poisoned)
        r = 21
        partial = PartialObservation(sim.Y[11][:r])
        window = [t[r - 1] - 0.05, t[r - 1] + 0.05]
        bands = bootstrap_bands(partial, registered, state.w_hat, window, grid,
                                PRED_CFG, pen, M=3, S=5, ridge_fraction=0.05,
                                seed=3, sigma_z0_sq=0.05, sigma_z1_sq=0.01,
                                n_iters=10)
        assert bands.skipped == 1
        assert bands.skip_reasons == {"OptimizerFailure": 1}
        for block in ("registered", "warp", "unregistered"):
            lower = getattr(bands, f"{block}_lower")
            upper = getattr(bands, f"{block}_upper")
            assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
            assert np.all(lower <= upper)

    def test_one_penalty_build_per_candidate(self, trained, monkeypatch):
        import gpalign.prediction as P
        grid, pen, sim, state, registered = trained
        t = grid.points
        builds = []
        original = P.build_penalty_set

        def counted(*args, **kwargs):
            builds.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(P, "build_penalty_set", counted)
        r = 21
        window = list(np.linspace(t[r - 1] - 0.12, t[r - 1] + 0.08, 5))
        bootstrap_bands(PartialObservation(sim.Y[11][:r]), registered,
                        state.w_hat, window, grid, PRED_CFG, pen, M=2, S=3,
                        ridge_fraction=0.05, seed=1, sigma_z0_sq=0.05,
                        sigma_z1_sq=0.01, n_iters=5)
        assert len(builds) == len(window)


def test_psd_root_is_continuous_in_the_covariance():
    # a near-degenerate covariance: a repeated eigenvalue (whose eigenvectors
    # eigh may rotate freely) and a null direction, as the bootstrap's
    # conditional covariances have
    from gpalign.prediction import _psd_root
    rng = np.random.default_rng(12)
    q = np.linalg.qr(rng.normal(size=(8, 8)))[0]
    cov = (q * np.array([2.0, 1.0, 1.0, 1.0, 0.5, 1e-9, 1e-9, 0.0])) @ q.T
    noise = rng.normal(size=(8, 8))
    nearby = cov + 1e-14 * (noise + noise.T)
    root, moved = _psd_root(cov), _psd_root(nearby)
    assert np.allclose(root, root.T, rtol=0.0, atol=1e-15)
    assert np.abs(root @ root.T - cov).max() <= 1e-12
    assert np.linalg.norm(moved - root) <= 1e-6 * np.linalg.norm(root)
