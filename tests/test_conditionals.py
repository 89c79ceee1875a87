"""AVB's q-update of every conjugate block, from a q that is a point mass at
a latent state, equals the law the sampler draws that block from at the same
state: the contract that keeps the two fitters on one density.  Both walk
the entries of ``model.BLOCKS``; each block runs alone here.  A Gaussian
block's q-update is the sampler's draw with every normal 0, to the bit."""

from dataclasses import replace

import numpy as np
import pytest

from gpalign import avb, mcmc, model
from gpalign.avb import VBState
from gpalign.model import LatentState, ModelConfig, registered_curves, registration_weight
from gpalign.penalties import PenaltyForm, build_penalty_set, build_time_grid
from gpalign.warping import at_inverse_warps, project_endpoint

from one_block import block_law, draw, set_q


def same_law(state, shape: str, rate: str, law):
    """q's (shape, rate) in ``state`` is the sampler's (shape, scale) ``law``,
    whose scale is 1 / rate."""
    assert (getattr(state, shape), 1.0 / getattr(state, rate)) == law


def make_point(p: int):
    """The penalty set, data, noisy config and a noisy-model latent state of
    4 curves on ``p`` grid points."""
    n = 4
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


@pytest.fixture(params=[12, 400], ids=["dense", "banded"])
def point(request):
    """A noisy-model latent state on a dense and on a banded grid."""
    return make_point(request.param)


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
    """Stands in for the sampler's generator: records the (shape, scale) of
    every gamma draw asked for, as given, and returns its mean."""

    def __init__(self):
        self.laws = []

    def gamma(self, shape, scale):
        self.laws.append((shape, scale))
        return shape * scale


class ZeroNoise:
    """Stands in for the sampler's generator: every standard normal is 0, so
    a Gaussian block's draw is its law's mean."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def same_update(name, point, config, weight, part=slice(None)):
    """AVB's q-update of Gaussian block ``name`` from a point mass at the
    latent state equals the sampler's draw at zero noise, on entries ``part``
    of the mean, and its variances are the law's at the latent state."""
    pen, data, _, latent = point
    drawn = latent.copy()
    draw(drawn, data, config, pen, weight, ZeroNoise(), name)
    state = point_mass(latent)
    set_q(state, data, config, pen, weight, name)
    assert np.array_equal(getattr(state, name)[part], getattr(drawn, name)[part])
    variances = avb.Q_FIELDS[name][1]
    assert np.array_equal(getattr(state, variances),
                          block_law(name, latent, data, config, pen, weight)[1])


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


def test_target(point, weight):
    same_update("f", point, *weight)


def test_first_shift(point, weight):
    same_update("z0", point, *weight, part=0)


def test_later_shifts(point, weight):
    # each conditions on the shifts updated before it; the N-th is their
    # negative sum
    same_update("z0", point, *weight, part=slice(1, None))


def test_scales(point, weight):
    same_update("z1", point, *weight)


def test_scales_form_the_weight_once(point, monkeypatch):
    # the z1 law reads A f and f'A f off one product of the weight, on the
    # dense and the banded path
    pen, data, config, latent = point
    calls = dict.fromkeys(("rows", "times", "quad"), 0)
    for name in calls:
        def counted(self, *args, name=name, fn=getattr(PenaltyForm, name)):
            calls[name] += 1
            return fn(self, *args)
        monkeypatch.setattr(PenaltyForm, name, counted)
    block_law("z1", latent, data, config, pen, registration_weight(config, pen))
    assert calls == {"rows": 1, "times": 0, "quad": 0}


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


def test_latent_curves(point):
    same_update("X", point, point[2], None)


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
    # from and again once it has redrawn them; AVB registers by the weight it
    # is given.  A sweep of either fitter forms the warps once, the inverse
    # warps once if it is noisy, and interpolates by their cells: the
    # registered curves, and f at the inverse warps before and after f is
    # redrawn
    pen, data, config, latent = point
    calls = dict.fromkeys(
        ("registration_weight", "warp_from_base", "_inverse_rows", "_interp_rows"), 0)
    for name in calls:
        def counted(*args, name=name, fn=getattr(model, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(model, name, counted)
    mcmc.gibbs_sweep(mcmc.ChainState(latent.copy(), np.random.default_rng(1),
                                     None, None, None), data, config, pen, None)
    assert calls == {"registration_weight": 2, "warp_from_base": 1, "_inverse_rows": 1,
                     "_interp_rows": 3}
    calls.update(dict.fromkeys(calls, 0))
    weight = registration_weight(config, pen, latent.eta_X, latent.lambda_X)
    set_q(point_mass(latent), data, config, pen, weight, *avb.SMOOTHING_ORDER)
    assert calls == {"registration_weight": 0, "warp_from_base": 1, "_inverse_rows": 1,
                     "_interp_rows": 3}
    calls.update(dict.fromkeys(calls, 0))
    noiseless = replace(latent.copy(), X=None)
    mcmc.gibbs_sweep(mcmc.ChainState(noiseless, np.random.default_rng(1), None, None, None),
                     data, replace(config, noisy=False), pen, weight)
    assert calls == {"registration_weight": 0, "warp_from_base": 1, "_inverse_rows": 0,
                     "_interp_rows": 1}


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("p", [40, 400], ids=["dense", "banded"])
def test_a_sweep_reads_its_warps_as_formed_anew(p, noisy):
    # the registered curves and f at the inverse warps, each read by the
    # cells a sweep formed once, equal the functions that form the warps anew
    pen, data, config, latent = make_point(p)
    if not noisy:
        latent.X = None  # the data are registered
    s = model.Sweep(latent, data, config, pen, None)
    for f in (latent.f, latent.f[::-1].copy()):
        latent.f = f
        assert np.array_equal(s.f_inv(), at_inverse_warps(f, latent.w, pen.grid))
    assert np.array_equal(s.registered, registered_curves(latent, data, pen))
