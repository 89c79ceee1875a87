"""Alignment quality metric and the mean-warp time correction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator
from .penalties import TimeGrid
from .warping import _interp_rows


@dataclass(frozen=True)
class SlsReport:
    """Sobolev least squares: cross-sectional derivative variance after vs
    before registration.  Lower is better; identity warps give exactly 1."""

    sls: float
    numerator: float
    denominator: float


def _derivative_energy(curves: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    # centered differences in the interior, one-sided at the boundaries
    deriv = np.gradient(curves, t, axis=1)
    centered = deriv - deriv.mean(axis=0)
    energy = float(np.sum(np.trapezoid(centered ** 2, t, axis=1)))
    scale = float(np.sum(np.trapezoid(deriv ** 2, t, axis=1)))
    return energy, scale


def sls(original: np.ndarray, registered: np.ndarray, grid: TimeGrid) -> SlsReport:
    """Compare derivative spread of registered curves against the originals."""
    original = np.asarray(original, dtype=float)
    registered = np.asarray(registered, dtype=float)
    if original.shape != registered.shape:
        raise ValueError("original and registered must have the same shape")
    if original.shape[0] < 2:
        raise ValueError("need at least 2 curves")
    t = grid.points
    denominator, scale = _derivative_energy(original, t)
    if denominator <= 1e-12 * max(scale, 1e-30):
        raise DegenerateDenominator(
            "original curves have identical derivatives; sls is undefined")
    numerator, _ = _derivative_energy(registered, t)
    return SlsReport(sls=numerator / denominator,
                     numerator=numerator, denominator=denominator)


@dataclass(frozen=True)
class MeanWarpCorrection:
    """Registered values and warps re-expressed so the average warp is the identity.

    ``t_tilde[j]`` is the average warped time of grid point j.  The input
    registered values and warps are exact at the corrected times (they are the
    same numbers, relabeled); ``registered`` and ``warps`` interpolate them
    back to the original grid.
    """

    t_tilde: np.ndarray
    registered: np.ndarray           # (N, p) at the original grid times
    warps: np.ndarray                # (N, p) at the original grid times
    registered_on_t_tilde: np.ndarray
    warps_on_t_tilde: np.ndarray


def mean_warp_correction(warps: np.ndarray, registered: np.ndarray,
                         grid: TimeGrid) -> MeanWarpCorrection:
    """Relabel registered time so the average warping function is the identity.

    The correction never changes any curve's value at its own warped times;
    only the time labels move, and values at the original times are recovered
    by linear interpolation between the corrected times.
    """
    warps = np.asarray(warps, dtype=float)
    registered = np.asarray(registered, dtype=float)
    t = grid.points
    t_tilde = warps.mean(axis=0)
    return MeanWarpCorrection(
        t_tilde=t_tilde,
        registered=_interp_rows(t, t_tilde, registered),
        warps=_interp_rows(t, t_tilde, warps),
        registered_on_t_tilde=registered.copy(),
        warps_on_t_tilde=warps.copy(),
    )
