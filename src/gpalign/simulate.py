"""Seeded simulation of unregistered curve samples with stored ground truth.

Each dataset draws a template target function, smooth random base functions
(low-frequency sinusoids, endpoint-projected), scales centered at 1 and shifts
summing to zero, then evaluates the target composed with each inverse warp on
the grid.  The returned record keeps every generating quantity so tests can
compare fits against the truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .penalties import TimeGrid
from .warping import at_inverse_warps, project_endpoint, warp_from_base

KINDS = ("gauss3mix", "shifted-target")


@dataclass(frozen=True)
class SimulatedData:
    kind: str
    seed: int
    noise_sd: float
    times: np.ndarray
    Y: np.ndarray            # observed curves (noisy when noise_sd > 0)
    X: np.ndarray            # noiseless unregistered curves
    target: np.ndarray       # template evaluated on the grid
    warps: np.ndarray        # (N, p) ground-truth warps
    bases: np.ndarray        # (N, p-1) ground-truth base functions
    z0: np.ndarray
    z1: np.ndarray

    @property
    def registered_truth(self) -> np.ndarray:
        """z0_i + z1_i * target: what perfect registration recovers."""
        return self.z0[:, None] + self.z1[:, None] * self.target[None, :]


def _gauss_pdf(t: np.ndarray, mean: float, sd: float) -> np.ndarray:
    return np.exp(-0.5 * ((t - mean) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))


def _template(kind: str, t: np.ndarray) -> np.ndarray:
    lo, span = t[0], t[-1] - t[0]
    if kind == "gauss3mix":
        centers = lo + span * np.array([0.25, 0.5, 0.75])
        sd = 0.06 * span
        return np.mean([_gauss_pdf(t, c, sd) for c in centers], axis=0)
    if kind == "shifted-target":
        return _gauss_pdf(t, lo + 0.5 * span, 0.10 * span)
    raise ValueError(f"unknown dataset kind {kind!r}; choose from {KINDS}")


def _random_base(rng: np.random.Generator, t_sub: np.ndarray, lo: float,
                 span: float, amplitude: float, n_harmonics: int) -> np.ndarray:
    u = (t_sub - lo) / span
    w = np.zeros_like(u)
    for k in range(1, n_harmonics + 1):
        a, b = rng.normal(0.0, amplitude / k, size=2)
        w += a * np.sin(2.0 * np.pi * k * u) + b * np.cos(2.0 * np.pi * k * u)
    return w


def simulate_dataset(kind: str, n_curves: int, grid: TimeGrid,
                     noise_sd: float = 0.0, seed: int = 0,
                     warp_amplitude: float = 0.35,
                     z1_sd: float = 0.05, z0_sd: float = 0.1) -> SimulatedData:
    """Generate a reproducible unregistered sample with known warps.

    ``gauss3mix`` uses an equal-weight mixture of three bumps at 0.25/0.5/0.75
    of the domain; ``shifted-target`` uses a single bump with stronger,
    lower-frequency warps, so misalignment looks like time shifts.
    """
    if n_curves < 2:
        raise ValueError("need at least 2 curves")
    rng = np.random.default_rng(seed)
    t = grid.points
    p = grid.p
    lo, span = t[0], t[-1] - t[0]
    target = _template(kind, t)
    n_harmonics = 2 if kind == "gauss3mix" else 1
    amp = warp_amplitude if kind == "gauss3mix" else 1.6 * warp_amplitude

    z1 = 1.0 + z1_sd * rng.standard_normal(n_curves)
    z0 = z0_sd * rng.standard_normal(n_curves)
    z0 -= z0.mean()

    bases = np.array([
        project_endpoint(_random_base(rng, t[:-1], lo, span, amp, n_harmonics), grid)
        for _ in range(n_curves)])
    warps = warp_from_base(bases, grid)
    # unregistered curves: the registered shapes read off at inverse-warp times
    x = at_inverse_warps(z0[:, None] + z1[:, None] * target, bases, grid)
    y = x + noise_sd * rng.standard_normal((n_curves, p)) if noise_sd > 0 else x.copy()
    return SimulatedData(
        kind=kind, seed=seed, noise_sd=noise_sd, times=t.copy(),
        Y=y, X=x, target=target, warps=warps, bases=bases, z0=z0, z1=z1,
    )
