"""Time grid and the penalty algebra behind every prior in the model.

Every functional prior is built from two penalty operators on the grid:
``P1ginv = QQ'`` projects onto span{1, t} (``Q`` an orthonormal basis of it),
and ``P2ginv = D' W D`` penalizes curvature, with ``D`` the
second-divided-difference operator of the (possibly non-uniform) grid and ``W``
diagonal quadrature weights.  Their pseudo-inverses are the covariances P1 and
P2 (P1 = P1ginv), with complementary ranges.  One orthonormal basis ``[Q, C U]``
diagonalizes both (Demmler & Reinsch 1975): C is the complement of Q and
``C' P2ginv C = U diag(mu) U'``.  So a precision a * P1ginv + b * P2ginv + c * I
has eigenvalues a + c on span{1, t} and b * mu + c elsewhere, and its solves,
covariance and Gaussian draws are diagonal scalings in that basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NonMonotoneGrid, NumericalRankFailure, SingularPrecision,
                     TooFewPoints)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing evaluation times shared by all curves."""

    points: np.ndarray

    @property
    def p(self) -> int:
        return self.points.shape[0]

    @property
    def t1(self) -> float:
        return float(self.points[0])

    @property
    def tp(self) -> float:
        return float(self.points[-1])

    @property
    def span(self) -> float:
        return self.tp - self.t1


def build_time_grid(points) -> TimeGrid:
    """Validate a vector of times and wrap it as a TimeGrid.

    Raises TooFewPoints for fewer than 3 points and NonMonotoneGrid for
    duplicate or decreasing times.
    """
    pts = np.asarray(points, dtype=float).ravel()
    if pts.shape[0] < 3:
        raise TooFewPoints(f"grid needs at least 3 points, got {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise NonMonotoneGrid("grid contains non-finite times")
    if np.any(np.diff(pts) <= 0):
        k = int(np.argmax(np.diff(pts) <= 0))
        raise NonMonotoneGrid(
            f"grid times must be strictly increasing (violation at index {k + 1})"
        )
    pts = pts.copy()
    pts.flags.writeable = False
    return TimeGrid(points=pts)


def second_difference_operator(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Second-divided-difference rows and their quadrature weights.

    Row j approximates the second derivative at the interior point t[j+1];
    the weights are trapezoid-style spans (t[j+2]-t[j])/2.  Exact annihilation
    of constants and linear trends holds for arbitrary strictly increasing t.
    """
    h1, h2 = np.diff(t)[:-1], np.diff(t)[1:]
    j = np.arange(t.shape[0] - 2)
    d = np.zeros((j.shape[0], t.shape[0]))
    d[j, j] = 2.0 / (h1 * (h1 + h2))
    d[j, j + 1] = -2.0 / (h1 * h2)
    d[j, j + 2] = 2.0 / (h2 * (h1 + h2))
    return d, 0.5 * (t[2:] - t[:-2])


def first_difference_operator(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-divided-difference rows with cell-length quadrature weights."""
    h = np.diff(t)
    j = np.arange(h.shape[0])
    d = np.zeros((h.shape[0], t.shape[0]))
    d[j, j] = -1.0 / h
    d[j, j + 1] = 1.0 / h
    return d, h


@dataclass(frozen=True)
class GridPenalties:
    """The penalty pair on one grid and the orthonormal basis diagonalizing
    both: ``P2ginv = basis @ diag(eigenvalues) @ basis'``, whose first two
    eigenvalues are exactly zero, with columns spanning {1, t} that
    ``P1ginv`` projects onto."""

    t: np.ndarray
    P1ginv: np.ndarray
    P2ginv: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def p(self) -> int:
        return self.t.shape[0]

    def diagonal(self, a: float, b: float, c: float = 0.0) -> np.ndarray:
        """Eigenvalues of a * P1ginv + b * P2ginv + c * I in ``basis``."""
        d = b * self.eigenvalues + c
        d[:2] = a + c
        if not np.all(d > 0.0):
            raise SingularPrecision("precision is not positive definite")
        return d

    def solve(self, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The precision with eigenvalues ``d`` solved against ``rhs`` (rows)."""
        return ((rhs @ self.basis) / d) @ self.basis.T

    def draw(self, d: np.ndarray, rhs: np.ndarray, z: np.ndarray) -> np.ndarray:
        """``solve(d, rhs)`` plus noise of covariance ``covariance(d)`` made
        from standard normals ``z`` shaped like ``rhs``."""
        return ((rhs @ self.basis) / d + z / np.sqrt(d)) @ self.basis.T

    def covariance(self, d: np.ndarray) -> np.ndarray:
        """Inverse of the precision with eigenvalues ``d``."""
        root = self.basis / np.sqrt(d)
        return root @ root.T


def _spectral_basis(penalty: np.ndarray, null_vectors: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q, the eigenbasis [Q, C U] and eigenvalues (0, ..., 0, mu) of a penalty
    whose null space ``null_vectors`` spans: Q from their reduced QR, the
    complement C from a complete QR, and C' penalty C = U diag(mu) U'.  The
    null space is exact by construction (an ``eigh`` of the whole penalty
    leaks it on large or non-uniform grids).  Raises NumericalRankFailure
    unless every mu is positive."""
    k = null_vectors.shape[1]
    q, _ = np.linalg.qr(null_vectors)
    complement = np.linalg.qr(null_vectors, mode="complete")[0][:, k:]
    mu, u = np.linalg.eigh(complement.T @ penalty @ complement)
    if np.any(mu <= 0.0):
        raise NumericalRankFailure(
            f"penalty has rank {int(np.sum(mu > 0.0))} off its null space, "
            f"expected {mu.shape[0]}"
        )
    return q, np.hstack([q, complement @ u]), np.concatenate([np.zeros(k), mu])


def _build_grid_penalties(t: np.ndarray) -> GridPenalties:
    # with 2 points span{1, t} is all of R^2 and the complement is empty
    d, w = second_difference_operator(t)
    p2ginv = d.T @ (w[:, None] * d)
    p2ginv = 0.5 * (p2ginv + p2ginv.T)
    q, basis, eigenvalues = _spectral_basis(
        p2ginv, np.column_stack([np.ones_like(t), t]))
    return GridPenalties(t=t, P1ginv=q @ q.T, P2ginv=p2ginv, basis=basis,
                         eigenvalues=eigenvalues)


@dataclass(frozen=True)
class PenaltySet:
    """The penalties of one model: ``main`` on the full grid, ``base`` on the
    subgrid t1..t_{p-1} where base functions live.  The base functions'
    smoothing covariance Pw is the pseudo-inverse of a roughness penalty on
    that subgrid, held as its eigenbasis (``derivative_order_w`` leading zero
    eigenvalues): ``base``'s own second-derivative penalty, or the
    first-derivative one, which annihilates constants only.
    """

    grid: TimeGrid
    main: GridPenalties
    base: GridPenalties
    w_basis: np.ndarray
    w_eigenvalues: np.ndarray
    derivative_order_w: int = 2

    @property
    def P1ginv(self) -> np.ndarray:
        return self.main.P1ginv

    @property
    def P2ginv(self) -> np.ndarray:
        return self.main.P2ginv

    @property
    def Pw(self) -> np.ndarray:
        """Smoothing covariance of the base functions, formed on each call."""
        k = self.derivative_order_w
        root = self.w_basis[:, k:] / np.sqrt(self.w_eigenvalues[k:])
        return root @ root.T

    @property
    def p(self) -> int:
        return self.grid.p


def build_penalty_set(grid: TimeGrid, derivative_order_w: int = 2) -> PenaltySet:
    """Assemble every penalty the model needs from a validated grid."""
    if derivative_order_w not in (1, 2):
        raise ValueError("derivative_order_w must be 1 or 2")
    t = grid.points
    main = _build_grid_penalties(t)
    t_sub = t[:-1]
    base = _build_grid_penalties(t_sub)
    if derivative_order_w == 2:
        w_basis, w_eigenvalues = base.basis, base.eigenvalues
    else:
        d1, w1 = first_difference_operator(t_sub)
        k1 = d1.T @ (w1[:, None] * d1)
        _, w_basis, w_eigenvalues = _spectral_basis(
            0.5 * (k1 + k1.T), np.ones((t_sub.shape[0], 1)))
    return PenaltySet(
        grid=grid, main=main, base=base, w_basis=w_basis,
        w_eigenvalues=w_eigenvalues, derivative_order_w=derivative_order_w,
    )
