import numpy as np
import pytest

from gpalign.avb import avb_fit
from gpalign.errors import NonMonotoneGrid, TooFewPoints
from gpalign.model import ModelConfig, registration_weight
from gpalign.penalties import build_penalty_set, build_time_grid
from gpalign.simulate import simulate_dataset

from dense_oracles import dense_covariances


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
    assert np.allclose(pen3.P2ginv @ np.ones(3), 0.0, atol=1e-13)


def test_linear_in_null_space(pen3):
    assert np.allclose(pen3.P2ginv @ pen3.grid.points, 0.0, atol=1e-13)


def test_sigma_positive_definite_10pt(pen10):
    # independent dense eigendecomposition as the oracle
    sigma = pen10.main.covariance(pen10.main.diagonal(1.0, 1.0))
    assert np.linalg.eigvalsh(sigma).min() > 0.0
    assert np.abs(sigma - dense_covariances(pen10.main)[0]).max() < 1e-10


@pytest.mark.parametrize("fixture", ["pen3", "pen10", "pen_nonuniform"])
def test_sum_and_inverse_identities(fixture, request):
    # Sigma = P1 + P2 is the inverse of P1ginv + P2ginv, and the basis gives it
    pen = request.getfixturevalue(fixture)
    p = pen.p
    sigma, p1, p2 = dense_covariances(pen.main)
    spectral = pen.main.covariance(pen.main.diagonal(1.0, 1.0))
    assert np.abs(spectral - (p1 + p2)).max() < 1e-12
    assert np.abs(spectral @ (pen.P1ginv + pen.P2ginv) - np.eye(p)).max() < 1e-10
    assert np.abs(sigma @ (pen.P1ginv + pen.P2ginv) - np.eye(p)).max() < 1e-10


@pytest.mark.parametrize("fixture", ["pen3", "pen10", "pen_nonuniform"])
def test_ranks(fixture, request):
    pen = request.getfixturevalue(fixture)
    p = pen.p
    assert np.linalg.matrix_rank(pen.P1ginv, hermitian=True) == 2
    assert np.linalg.matrix_rank(pen.P2ginv, hermitian=True) == p - 2
    assert np.all(pen.main.eigenvalues[:2] == 0.0)
    assert np.all(pen.main.eigenvalues[2:] > 0.0)


@pytest.mark.parametrize("fixture", ["pen3", "pen10", "pen_nonuniform"])
def test_complementary_ranges(fixture, request):
    pen = request.getfixturevalue(fixture)
    _, p1, p2 = dense_covariances(pen.main)
    assert np.abs(p1 @ pen.P2ginv).max() < 1e-10
    assert np.abs(p2 @ pen.P1ginv).max() < 1e-10


def test_generalized_inverse_consistency(pen10):
    p2 = dense_covariances(pen10.main)[2]
    err = p2 @ pen10.P2ginv @ p2 - p2
    assert np.abs(err).max() < 1e-8


def test_quadratic_form_zero_iff_linear_span(pen_nonuniform):
    pen = pen_nonuniform
    t = pen.grid.points
    p = pen.p
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.standard_normal(2)
        v = a + b * t
        assert abs(v @ pen.P2ginv @ v) < 1e-10
    # vectors with a component outside span{1, t} give strictly positive energy
    basis = np.column_stack([np.ones(p), t])
    q, _ = np.linalg.qr(basis)
    proj = np.eye(p) - q @ q.T
    for _ in range(50):
        v = rng.standard_normal(p)
        resid = proj @ v
        if np.linalg.norm(resid) < 1e-8:
            continue
        assert v @ pen.P2ginv @ v > 1e-12


def test_base_grid_matrices(pen10):
    # base-function matrices live on the first p-1 grid points
    assert pen10.base.p == pen10.p - 1
    assert pen10.Pw.shape == (pen10.p - 1, pen10.p - 1)
    sigma_w, _, p2_w = dense_covariances(pen10.base)
    assert np.allclose(pen10.Pw, p2_w)
    assert np.allclose(pen10.base.covariance(pen10.base.diagonal(1.0, 1.0)), sigma_w)


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
    assert np.allclose(pen3.base.covariance(pen3.base.diagonal(1.0, 1.0)), np.eye(2),
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
    prec = weight.a * pen10.P1ginv + 2.0 * pen10.P2ginv + 0.5 * np.eye(pen10.p)
    d = pen10.main.diagonal(weight.a, 2.0, 0.5)
    rhs = np.sin(np.arange(pen10.p))
    assert np.abs(pen10.main.covariance(d) - np.linalg.inv(prec)).max() < 1e-12
    assert np.abs(pen10.main.solve(d, rhs) - np.linalg.solve(prec, rhs)).max() < 1e-12


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
