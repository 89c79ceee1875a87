"""AVB's q-update of every conjugate block, from a q that is a point mass at
a latent state, equals the law the sampler draws that block from at the same
state: the contract that keeps the two fitters on one density.  Both walk
the entries of ``model.BLOCKS``; each block runs alone here."""

from dataclasses import replace

import numpy as np
import pytest

from gpalign import avb, mcmc, model
from gpalign.avb import VBState, registered_curves
from gpalign.model import LatentState, ModelConfig, registration_weight
from gpalign.penalties import build_penalty_set, build_time_grid
from gpalign.warping import project_endpoint

from one_block import draw, set_q

# the z1 variance and X's right-hand side take a quantity each fitter computes
# with its own arithmetic, so those agree to round-off only
RTOL = 1e-12


def close(actual, expected):
    """Equal to RTOL relative to the largest entry of ``expected``."""
    expected = np.asarray(expected, dtype=float)
    np.testing.assert_allclose(actual, expected, rtol=RTOL,
                               atol=RTOL * np.abs(expected).max())


def same_law(state, shape: str, rate: str, law):
    """q's (shape, rate) in ``state`` is the sampler's ``law``."""
    np.testing.assert_allclose([getattr(state, shape), getattr(state, rate)], law,
                               rtol=RTOL)


@pytest.fixture(params=[12, 400], ids=["dense", "banded"])
def point(request):
    """A noisy-model latent state on a dense and on a banded grid."""
    p, n = request.param, 4
    grid = build_time_grid(np.linspace(0.0, 1.0, p))
    pen = build_penalty_set(grid)
    rng = np.random.default_rng(19)
    data = rng.standard_normal((n, p))
    latent = LatentState(
        w=np.array([project_endpoint(rng.normal(0, 0.2, p - 1), grid)
                    for _ in range(n)]),
        z0=rng.normal(0, 0.3, n), z1=1.0 + rng.normal(0, 0.1, n),
        f=rng.standard_normal(p), sigma_z0_sq=0.4, sigma_z1_sq=0.2, eta_f=1.5,
        lambda_f=2.5, X=data + 0.1 * rng.standard_normal((n, p)),
        sigma_Y_sq=0.3, eta_X=2.0, lambda_X=3.0)
    latent.enforce_sum_zero()
    return pen, data, ModelConfig(gamma_R=30.0, noisy=True), latent


def point_mass(latent: LatentState) -> VBState:
    """q at ``latent`` with zero variances: gamma blocks with shape the value
    and rate 1, inverse-gamma blocks with shape 1 and rate the value, so every
    expectation AVB reads is the latent value itself."""
    n, p = latent.n_curves, latent.f.shape[0]
    return VBState(
        mu_f=latent.f.copy(), var_f=np.zeros(p), mu_z0=latent.z0[:-1].copy(),
        var_z0=np.zeros(n - 1), mu_z1=latent.z1.copy(), var_z1=np.zeros(n),
        a_q_sigma_z0=1.0, b_q_sigma_z0=latent.sigma_z0_sq,
        a_q_sigma_z1=1.0, b_q_sigma_z1=latent.sigma_z1_sq,
        c_q_eta_f=latent.eta_f, d_q_eta_f=1.0,
        c_q_lambda_f=latent.lambda_f, d_q_lambda_f=1.0, w_hat=latent.w.copy(),
        mu_X=latent.X.copy(), var_X=np.zeros(p),
        a_q_sigma_Y=1.0, b_q_sigma_Y=latent.sigma_Y_sq,
        c_q_eta_X=latent.eta_X, d_q_eta_X=1.0,
        c_q_lambda_X=latent.lambda_X, d_q_lambda_X=1.0)


class GammaRecorder:
    """Stands in for the sampler's generator: records the (shape, rate) of
    every gamma draw asked for and returns its mean."""

    def __init__(self):
        self.laws = []

    def gamma(self, shape, scale):
        self.laws.append((shape, 1.0 / scale))
        return shape * scale


def sampler_law(monkeypatch, name: str, latent, data, config, pen, weight):
    """The value block ``name``'s law returns when ``mcmc.draw_block`` draws
    that block alone at ``latent``."""
    kind, law = model.BLOCKS[name]
    seen = []
    with monkeypatch.context() as patch:
        patch.setitem(model.BLOCKS, name, model.Block(
            kind, lambda *a: seen.append(law(*a)) or seen[-1]))
        draw(latent.copy(), data, config, pen, weight, np.random.default_rng(0), name)
    (value,) = seen
    return value


@pytest.fixture(params=["noiseless", "noisy"])
def weight(request, point):
    """The weight a sweep registers by, with the model whose chain reads it:
    the noiseless one, or the noisy one at the roughness precisions, which AVB
    reads as E[eta_X] = eta_X and a noisy chain at its current values."""
    pen, _, config, latent = point
    if request.param == "noiseless":
        return replace(config, noisy=False), registration_weight(config, pen)
    return config, registration_weight(config, pen, latent.eta_X, latent.lambda_X)


def test_registered_curves_agree(point):
    pen, data, _, latent = point
    assert np.array_equal(registered_curves(point_mass(latent), data, pen),
                          registered_curves(latent, data, pen))


def test_target(point, weight, monkeypatch):
    pen, data, _, latent = point
    config, weight = weight
    d, rhs = sampler_law(monkeypatch, "f", latent, data, config, pen, weight)
    state = point_mass(latent)
    set_q(state, data, config, pen, weight, "f")
    close(state.var_f, 1.0 / d)
    close(state.mu_f, pen.main.solve(d, rhs))


def test_first_shift(point, weight, monkeypatch):
    # later shifts condition on the ones AVB has already updated
    pen, data, _, latent = point
    config, weight = weight
    means, var = sampler_law(monkeypatch, "z0", latent, data, config, pen, weight)
    state = point_mass(latent)
    set_q(state, data, config, pen, weight, "z0")
    close(state.mu_z0[0], means[0])
    close(state.var_z0[0], var)


def test_scales(point, weight, monkeypatch):
    pen, data, _, latent = point
    config, weight = weight
    means, var = sampler_law(monkeypatch, "z1", latent, data, config, pen, weight)
    state = point_mass(latent)
    set_q(state, data, config, pen, weight, "z1")
    close(state.mu_z1, means)
    close(state.var_z1, np.full(latent.n_curves, var))


@pytest.mark.parametrize("block, shape, rate", [
    ("sigma_z0_sq", "a_q_sigma_z0", "b_q_sigma_z0"),
    ("sigma_z1_sq", "a_q_sigma_z1", "b_q_sigma_z1"),
], ids=["sigma_z0", "sigma_z1"])
def test_variances(point, block, shape, rate):
    pen, data, config, latent = point
    rng = GammaRecorder()
    draw(latent.copy(), data, config, pen, None, rng, block)
    state = point_mass(latent)
    set_q(state, data, config, pen, None, block)
    (law,) = rng.laws
    same_law(state, shape, rate, law)


@pytest.mark.parametrize("block, shape, rate", [
    ("eta_f", "c_q_eta_f", "d_q_eta_f"),
    ("lambda_f", "c_q_lambda_f", "d_q_lambda_f"),
], ids=["eta_f", "lambda_f"])
def test_target_precisions(point, block, shape, rate):
    pen, data, config, latent = point
    rng = GammaRecorder()
    draw(latent.copy(), data, config, pen, None, rng, block)
    state = point_mass(latent)
    set_q(state, data, config, pen, None, block)
    (law,) = rng.laws
    same_law(state, shape, rate, law)


def test_latent_curves(point, monkeypatch):
    pen, data, config, latent = point
    d, rhs = sampler_law(monkeypatch, "X", latent, data, config, pen, None)
    state = point_mass(latent)
    set_q(state, data, config, pen, None, "X")
    close(state.var_X, 1.0 / d)
    close(state.mu_X, pen.main.solve(d, rhs))


def test_noise_variance(point):
    pen, data, config, latent = point
    rng = GammaRecorder()
    draw(latent.copy(), data, config, pen, None, rng, "sigma_Y_sq")
    state = point_mass(latent)
    set_q(state, data, config, pen, None, "sigma_Y_sq")
    (law,) = rng.laws
    same_law(state, "a_q_sigma_Y", "b_q_sigma_Y", law)


def test_roughness_precisions(point):
    pen, data, config, latent = point
    rng = GammaRecorder()
    draw(latent.copy(), data, config, pen, None, rng, "eta_X", "lambda_X")
    state = point_mass(latent)
    set_q(state, data, config, pen, None, "eta_X", "lambda_X")
    eta_law, lambda_law = rng.laws
    same_law(state, "c_q_eta_X", "d_q_eta_X", eta_law)
    same_law(state, "c_q_lambda_X", "d_q_lambda_X", lambda_law)


def test_each_fitter_walks_every_block_once():
    assert sorted(avb.SMOOTHING_ORDER) == sorted(model.BLOCKS) == sorted(mcmc.NOISY_ORDER)
    for full, noiseless in ((avb.SMOOTHING_ORDER, avb.ORDER),
                            (mcmc.NOISY_ORDER, mcmc.ORDER)):
        assert noiseless == tuple(b for b in full if b not in model.NOISY_BLOCKS)


def test_a_sweep_forms_each_shared_input_once(point, monkeypatch):
    # a noisy chain forms its weight at the roughness precisions it starts
    # from and again once it has redrawn them, and f at the inverse warps
    # before and after it redraws f; AVB registers by the weight it is given
    pen, data, config, latent = point
    calls = dict.fromkeys(("registration_weight", "at_inverse_warps"), 0)
    for name in calls:
        def counted(*args, name=name, fn=getattr(model, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(model, name, counted)
    mcmc.gibbs_sweep(mcmc.ChainState(latent.copy(), np.random.default_rng(1),
                                     None, None, None), data, config, pen, None)
    assert calls == {"registration_weight": 2, "at_inverse_warps": 2}
    calls.update(registration_weight=0, at_inverse_warps=0)
    weight = registration_weight(config, pen, latent.eta_X, latent.lambda_X)
    set_q(point_mass(latent), data, config, pen, weight, *avb.SMOOTHING_ORDER)
    assert calls == {"registration_weight": 0, "at_inverse_warps": 2}
