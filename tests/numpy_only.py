"""The public API below the banded crossover, on numpy alone.

    PYTHONPATH=src python tests/numpy_only.py

Imports the package and its command line, then runs small fits of both
models (order-2 and order-1 base priors, and one on a graded grid), a short
chain and a bootstrap, and builds the penalty set of an 800-point grid.  It
exits non-zero if any scipy module was imported, or if that build kept a
dense P1ginv or P2ginv.  It needs only numpy, so it also runs where scipy is
not installed.  ``tests/test_imports.py`` imports it in a fresh interpreter.
"""

import sys

import numpy as np

import gpalign
import gpalign.cli  # the command line's imports are part of the checked path


def scipy_modules() -> list[str]:
    """Names of the scipy modules imported in this process."""
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))


def run_below_crossover(p: int) -> None:
    """Fit, sample and predict on a p-point grid, p below the banded crossover."""
    grid = gpalign.build_time_grid(np.linspace(0.0, 1.0, p))
    config = gpalign.ModelConfig(gamma_R=1e3, gamma_w=20.0, lambda_w=200.0)
    sim = gpalign.simulate_dataset("gauss3mix", 8, grid, seed=3)
    for order in (2, 1):
        pen = gpalign.build_penalty_set(grid, derivative_order_w=order)
        fit = gpalign.avb_fit(sim.Y, config, pen, max_iters=3)
        assert np.all(np.isfinite(fit.elbo_trace))

    # a graded grid, so the warp's cell lookup runs on unequal cells
    graded = gpalign.build_time_grid(np.linspace(0.0, 1.0, p) ** 1.5)
    sim_graded = gpalign.simulate_dataset("gauss3mix", 8, graded, seed=7)
    fit = gpalign.avb_fit(sim_graded.Y, config, gpalign.build_penalty_set(graded),
                          max_iters=3)
    assert np.all(np.isfinite(fit.elbo_trace)) and np.all(np.isfinite(fit.w_hat))

    pen = gpalign.build_penalty_set(grid)
    noisy = gpalign.simulate_dataset("gauss3mix", 8, grid, noise_sd=0.05, seed=4)
    fit = gpalign.avb_fit_noisy(noisy.Y, config, pen, max_iters=4, freeze_X_after=2)
    chain = gpalign.run_chain(noisy.Y, config, pen, iters=20, init=fit, seed=5)
    assert np.all(np.isfinite(chain.credible_band("f")))

    r = 2 * p // 3
    t = grid.points
    bands = gpalign.bootstrap_bands(
        gpalign.PartialObservation(sim.Y[0][:r]), sim.registered_truth[1:],
        sim.bases[1:], [t[r - 2], t[r - 1]], grid, config, pen, M=2, S=5,
        ridge_fraction=0.05, seed=6, n_iters=2)
    assert np.all(bands.unregistered_lower <= bands.unregistered_upper)


def dense_penalties_held(p: int) -> list[str]:
    """Build the penalty set of a p-point grid, p past the crossover, and
    name the dense penalties it keeps (it should keep none)."""
    pen = gpalign.build_penalty_set(gpalign.build_time_grid(np.linspace(0.0, 1.0, p)))
    return [f"{name}.{matrix}" for name, gp in (("main", pen.main), ("base", pen.base))
            for matrix in ("P1ginv", "P2ginv") if matrix in vars(gp)]


if __name__ == "__main__":
    run_below_crossover(50)
    held = dense_penalties_held(800)
    if held:
        sys.exit(f"dense penalties kept at p = 800: {held}")
    if scipy_modules():
        sys.exit(f"scipy modules imported: {scipy_modules()}")
    print("numpy only: ok")
