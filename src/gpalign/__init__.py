"""Bayesian functional-data registration with Gaussian-process priors.

Curves are aligned by monotone warping functions built from unconstrained base
functions; inference runs through an adapted variational Bayes algorithm or a
Metropolis-within-Gibbs sampler, with extensions for noisy observations
(simultaneous smoothing) and for predicting partially observed curves with
bootstrap uncertainty bands.
"""

from .avb import VBState, avb_fit, avb_fit_noisy, avb_init, elbo, presmooth_only
from .errors import GpalignError
from .mcmc import ChainOutput, run_chain
from .metrics import MeanWarpCorrection, SlsReport, mean_warp_correction, sls
from .model import Hyperparams, LatentState, ModelConfig, registered_curves
from .penalties import PenaltySet, TimeGrid, build_penalty_set, build_time_grid
from .prediction import (BootstrapBands, EmpiricalLaw, PartialObservation,
                         PredictionResult, bootstrap_bands, conditional_mvn,
                         fit_empirical_laws, predict_complete, select_final_time)
from .simulate import SimulatedData, simulate_dataset
from .warping import (apply_warp, eval_linear, invert_warp, project_endpoint,
                      warp_from_base)

__version__ = "0.1.0"

__all__ = [
    "VBState", "avb_fit", "avb_fit_noisy", "avb_init", "elbo", "presmooth_only",
    "registered_curves",
    "GpalignError",
    "ChainOutput", "run_chain",
    "MeanWarpCorrection", "SlsReport", "mean_warp_correction", "sls",
    "Hyperparams", "LatentState", "ModelConfig",
    "PenaltySet", "TimeGrid", "build_penalty_set", "build_time_grid",
    "BootstrapBands", "EmpiricalLaw", "PartialObservation", "PredictionResult",
    "bootstrap_bands", "conditional_mvn", "fit_empirical_laws",
    "predict_complete", "select_final_time",
    "SimulatedData", "simulate_dataset",
    "apply_warp", "eval_linear", "invert_warp", "project_endpoint",
    "warp_from_base",
    "__version__",
]
