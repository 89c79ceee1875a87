import tracemalloc

import numpy as np
import pytest

from gpalign.avb import avb_fit
from gpalign.errors import NonMonotoneGrid, TooFewPoints
from gpalign.model import ModelConfig, WPrior, registration_weight
from gpalign.penalties import BANDED_MIN_P, build_penalty_set, build_time_grid
from gpalign.simulate import simulate_dataset

from dense_oracles import dense_covariances, eager_grid_penalties, long_double_form


def uniform_grid(p):
    return build_time_grid(np.linspace(0.0, 1.0, p))


def chebyshev_grid(p):
    return build_time_grid(0.5 * (1.0 - np.cos(np.pi * np.arange(p) / (p - 1))))


def squared_grid(p):
    return build_time_grid(np.linspace(0.0, 1.0, p) ** 2)


def test_valid_grid():
    grid = build_time_grid((0.0, 0.5, 1.0))
    assert grid.p == 3
    assert grid.t1 == 0.0 and grid.tp == 1.0


def test_duplicate_point_rejected():
    with pytest.raises(NonMonotoneGrid):
        build_time_grid((0.0, 0.5, 0.5))


def test_decreasing_rejected():
    with pytest.raises(NonMonotoneGrid):
        build_time_grid((0.0, 0.7, 0.4))


def test_too_few_points():
    with pytest.raises(TooFewPoints):
        build_time_grid((0.0, 1.0))


def test_constant_in_null_space(pen3):
    assert np.allclose(pen3.main.P2ginv @ np.ones(3), 0.0, atol=1e-13)


def test_linear_in_null_space(pen3):
    assert np.allclose(pen3.main.P2ginv @ pen3.grid.points, 0.0, atol=1e-13)


def test_sigma_positive_definite_10pt(pen10):
    # independent dense eigendecomposition as the oracle
    sigma = pen10.main.covariance(1.0 / pen10.main.diagonal(1.0, 1.0))
    assert np.linalg.eigvalsh(sigma).min() > 0.0
    assert np.abs(sigma - dense_covariances(pen10.main)[0]).max() < 1e-10


@pytest.mark.parametrize("fixture", ["pen3", "pen10", "pen_nonuniform"])
def test_sum_and_inverse_identities(fixture, request):
    # Sigma = P1 + P2 is the inverse of P1ginv + P2ginv, and the basis gives it
    pen = request.getfixturevalue(fixture)
    p = pen.p
    sigma, p1, p2 = dense_covariances(pen.main)
    spectral = pen.main.covariance(1.0 / pen.main.diagonal(1.0, 1.0))
    assert np.abs(spectral - (p1 + p2)).max() < 1e-12
    assert np.abs(spectral @ (pen.main.P1ginv + pen.main.P2ginv) - np.eye(p)).max() < 1e-10
    assert np.abs(sigma @ (pen.main.P1ginv + pen.main.P2ginv) - np.eye(p)).max() < 1e-10


@pytest.mark.parametrize("fixture", ["pen3", "pen10", "pen_nonuniform"])
def test_ranks(fixture, request):
    pen = request.getfixturevalue(fixture)
    p = pen.p
    assert np.linalg.matrix_rank(pen.main.P1ginv, hermitian=True) == 2
    assert np.linalg.matrix_rank(pen.main.P2ginv, hermitian=True) == p - 2
    assert np.all(pen.main.eigenvalues[:2] == 0.0)
    assert np.all(pen.main.eigenvalues[2:] > 0.0)


@pytest.mark.parametrize("fixture", ["pen3", "pen10", "pen_nonuniform"])
def test_complementary_ranges(fixture, request):
    pen = request.getfixturevalue(fixture)
    _, p1, p2 = dense_covariances(pen.main)
    assert np.abs(p1 @ pen.main.P2ginv).max() < 1e-10
    assert np.abs(p2 @ pen.main.P1ginv).max() < 1e-10


def test_generalized_inverse_consistency(pen10):
    p2 = dense_covariances(pen10.main)[2]
    err = p2 @ pen10.main.P2ginv @ p2 - p2
    assert np.abs(err).max() < 1e-8


def test_quadratic_form_zero_iff_linear_span(pen_nonuniform):
    pen = pen_nonuniform
    t = pen.grid.points
    p = pen.p
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.standard_normal(2)
        v = a + b * t
        assert abs(v @ pen.main.P2ginv @ v) < 1e-10
    # vectors with a component outside span{1, t} give strictly positive energy
    basis = np.column_stack([np.ones(p), t])
    q, _ = np.linalg.qr(basis)
    proj = np.eye(p) - q @ q.T
    for _ in range(50):
        v = rng.standard_normal(p)
        resid = proj @ v
        if np.linalg.norm(resid) < 1e-8:
            continue
        assert v @ pen.main.P2ginv @ v > 1e-12


def test_base_grid_matrices(pen10):
    # base-function matrices live on the first p-1 grid points
    assert pen10.base.p == pen10.p - 1
    assert pen10.Pw.shape == (pen10.p - 1, pen10.p - 1)
    sigma_w, _, p2_w = dense_covariances(pen10.base)
    assert np.allclose(pen10.Pw, p2_w)
    assert np.allclose(pen10.base.covariance(1.0 / pen10.base.diagonal(1.0, 1.0)), sigma_w)


def test_first_derivative_penalty_option(grid10):
    pen1 = build_penalty_set(grid10, derivative_order_w=1)
    pen2 = build_penalty_set(grid10, derivative_order_w=2)
    assert not np.allclose(pen1.Pw, pen2.Pw)
    # the first-derivative penalty operator annihilates constants only
    k1 = np.linalg.pinv(pen1.Pw, rcond=1e-10, hermitian=True)
    assert np.allclose(k1 @ np.ones(pen1.p - 1), 0.0, atol=1e-9)
    t_sub = grid10.points[:-1]
    assert np.abs(k1 @ t_sub).max() > 1e-6


def test_minimal_grid_base_block(pen3):
    # with p=3 the base grid has 2 points: no curvature directions remain
    assert pen3.base.p == 2
    assert np.all(pen3.base.P2ginv == 0.0)
    assert np.all(pen3.base.eigenvalues == 0.0)
    assert np.allclose(pen3.base.covariance(1.0 / pen3.base.diagonal(1.0, 1.0)), np.eye(2),
                       atol=1e-12)
    assert np.allclose(pen3.Pw, 0.0)


def test_combo_inverse(pen10):
    # the noisy registration weight is the inverse of alpha * P1 + beta * P2
    gamma_r, eta_x, lambda_x = 4.0, 0.4, 6.0
    alpha, beta = 1.0 / gamma_r + 1.0 / eta_x, 1.0 / gamma_r + 1.0 / lambda_x
    _, p1, p2 = dense_covariances(pen10.main)
    weight = registration_weight(ModelConfig(gamma_R=gamma_r), pen10, eta_x, lambda_x)
    assert np.abs((alpha * p1 + beta * p2) @ weight.matrix - np.eye(pen10.p)).max() < 1e-9
    assert (weight.a, weight.b) == (1.0 / alpha, 1.0 / beta)
    prec = weight.a * pen10.main.P1ginv + 2.0 * pen10.main.P2ginv + 0.5 * np.eye(pen10.p)
    d = pen10.main.diagonal(weight.a, 2.0, 0.5)
    rhs = np.sin(np.arange(pen10.p))
    assert np.abs(pen10.main.covariance(1.0 / d) - np.linalg.inv(prec)).max() < 1e-12
    assert np.abs(pen10.main.draw(d, rhs, 0) - np.linalg.solve(prec, rhs)).max() < 1e-12


def test_immutability(pen3):
    with pytest.raises((ValueError, AttributeError)):
        pen3.grid.points[0] = 5.0


@pytest.mark.parametrize("make_grid", [chebyshev_grid, squared_grid])
def test_clustered_grids_build(make_grid):
    # 400 points clustered at the ends (Chebyshev) or at the start (t = u^2)
    pen = build_penalty_set(make_grid(400))
    assert np.all(pen.main.eigenvalues[2:] > 0.0)
    assert np.all(pen.base.eigenvalues[2:] > 0.0)


@pytest.mark.parametrize("fixture", ["pen3", "pen10", "pen_nonuniform", "chebyshev"])
def test_basis_diagonalizes_penalties(fixture, request):
    grid = chebyshev_grid(400) if fixture == "chebyshev" \
        else request.getfixturevalue(fixture).grid
    for order in (1, 2):
        pen = build_penalty_set(grid, derivative_order_w=order)
        for gp in (pen.main, pen.base):
            v = gp.basis
            assert np.abs(v.T @ v - np.eye(gp.p)).max() < 1e-12
            rebuilt = (v * gp.eigenvalues) @ v.T
            assert np.abs(rebuilt - gp.P2ginv).max() <= 1e-12 * np.abs(gp.P2ginv).max()
            assert np.abs(gp.P1ginv - v[:, :2] @ v[:, :2].T).max() < 1e-12
        # the base prior's roughness penalty and its covariance Pw annihilate
        # the null space: constants (order 1), constants and lines (order 2)
        t_sub = grid.points[:-1]
        null = np.column_stack([np.ones_like(t_sub), t_sub])[:, :order]
        penalty = (pen.w_basis * pen.w_eigenvalues) @ pen.w_basis.T
        pw = pen.Pw
        assert np.abs(penalty @ null).max() <= 1e-12 * max(np.abs(penalty).max(), 1.0)
        assert np.abs(pw @ null).max() <= 1e-12 * max(np.abs(pw).max(), 1.0)


def test_fit_on_chebyshev_grid():
    grid = chebyshev_grid(400)
    pen = build_penalty_set(grid)
    sim = simulate_dataset("gauss3mix", 4, grid, seed=3)
    state = avb_fit(sim.Y, ModelConfig(gamma_R=1e3, gamma_w=10.0, lambda_w=100.0),
                    pen, max_iters=2)
    assert state.n_iterations == 2
    assert np.all(np.isfinite(state.elbo_trace))


def _forms(pen):
    config = ModelConfig(gamma_R=1e5, gamma_w=10.0, lambda_w=100.0)
    return [registration_weight(config, pen),
            registration_weight(config, pen, eta_X=3.0, lambda_X=0.02),
            WPrior(config, pen).form(0)]


@pytest.mark.parametrize("p", [50, BANDED_MIN_P - 1, BANDED_MIN_P, 800, "chebyshev"])
def test_form_products_match_dense(p):
    # the factored products agree with the dense matrix; below the crossover
    # they are the dense products themselves, bit for bit
    pen = build_penalty_set(chebyshev_grid(400) if p == "chebyshev" else
                            uniform_grid(p))
    rng = np.random.default_rng(4)
    for form in _forms(pen):
        r = rng.standard_normal((5, form.matrix.shape[0]))
        ra, rar = form.rows(r)
        dense = r @ form.matrix
        assert form.banded == (form.penalties.p >= BANDED_MIN_P)
        if not form.banded:
            assert np.array_equal(ra, dense)
            assert np.array_equal(rar, np.einsum("ij,ij->i", dense, r))
            assert np.array_equal(form.times(r[0]), form.matrix @ r[0])
            assert form.quad(r[0]) == float(r[0] @ form.matrix @ r[0])
            continue
        assert np.linalg.norm(ra - dense) <= 1e-12 * np.linalg.norm(dense)
        assert np.abs(rar - np.einsum("ij,ij->i", dense, r)).max() <= 1e-12 * rar.min()
        assert np.linalg.norm(form.times(r[0]) - form.matrix @ r[0]) \
            <= 1e-12 * np.linalg.norm(form.matrix @ r[0])
        assert form.quad(r[0]) == pytest.approx(float(r[0] @ form.matrix @ r[0]),
                                                rel=1e-12)


@pytest.mark.parametrize("grid", [(uniform_grid, 800), (chebyshev_grid, 400)])
def test_banded_form_against_long_double(grid):
    # on smooth residuals the dense r A r' cancels (errors of 1e-9 at p=800
    # and 3e-8 on the Chebyshev grid); the sum of squares does not
    make_grid, p = grid
    grid = make_grid(p)
    pen = build_penalty_set(grid)
    y = simulate_dataset("gauss3mix", 20, grid, seed=42).Y
    r = y - y.mean(axis=0)
    weight, _, prior = _forms(pen)
    assert weight.banded and prior.banded
    ref = long_double_form(pen.main, weight.a, weight.b, r)
    assert np.max(np.abs(weight.rows(r)[1] - ref) / ref) <= 1e-12
    w = np.random.default_rng(1).normal(0.0, 0.3, (5, grid.p - 1))
    ref = long_double_form(pen.base, prior.a, prior.b, w)
    assert np.max(np.abs(prior.rows(w)[1] - ref) / ref) <= 1e-12


def test_base_eigenbasis_formed_on_first_read(pen10):
    # the order-2 prior reads only the base grid's factors; its eigenbasis
    # is formed when first read, the main grid's at build time
    assert "_spectrum" in vars(pen10.main)
    assert "_spectrum" not in vars(pen10.base)
    WPrior(ModelConfig(), pen10).form(0)
    assert "_spectrum" not in vars(pen10.base)
    v, mu = pen10.base.basis, pen10.base.eigenvalues
    assert np.abs((v * mu) @ v.T - pen10.base.P2ginv).max() <= 1e-12 * np.abs(mu).max()


@pytest.mark.parametrize("p", [10, 50])
def test_dense_penalties_formed_on_read_equal_the_eager_build(p):
    # on a uniform and a graded grid, main and base: the factors and the
    # matrices formed on first read are the eager build's bit for bit, and
    # the eigenbasis is the same whether P2ginv was formed before it or not
    for t in (np.linspace(0.0, 1.0, p), np.linspace(0.0, 1.0, p) ** 1.5):
        pen, pen_read_first = (build_penalty_set(build_time_grid(t)) for _ in range(2))
        pen_read_first.base.P2ginv  # noqa: B018 - formed before the basis
        for gp, t_gp in ((pen.main, t), (pen.base, t[:-1])):
            assert "P1ginv" not in vars(gp) and "P2ginv" not in vars(gp)
            for name, ref in eager_grid_penalties(t_gp).items():
                assert np.array_equal(getattr(gp, name), ref), name
        assert np.array_equal(pen.base.basis, pen_read_first.base.basis)
        assert np.array_equal(pen.base.eigenvalues, pen_read_first.base.eigenvalues)


def test_large_grid_build_holds_one_dense_matrix():
    # at p = 800 the build keeps the main grid's eigenbasis (4.9 MiB) and the
    # O(p) factors, no dense penalty.  Its traced peak, the eigensolve's
    # temporaries, measured 24.4 MiB (numpy 2.4; 29.4 MiB when the build kept
    # all five p x p matrices); the bound allows 10% over that.
    tracemalloc.start()
    try:
        pen = build_penalty_set(uniform_grid(800))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for gp in (pen.main, pen.base):
        assert "P1ginv" not in vars(gp) and "P2ginv" not in vars(gp)
    assert "_spectrum" in vars(pen.main) and "_spectrum" not in vars(pen.base)
    assert held <= 1.05 * pen.main.basis.nbytes
    assert peak <= 27.0 * 2 ** 20
