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
covariance and Gaussian draws are diagonal scalings in that basis, and the
trace of a penalty times a covariance is a weighted sum of its eigenvalues.

A grid's penalties are held as their factors: ``Q`` (p x 2), and D's three
diagonals with W.  ``PenaltyForm`` is the one way the model applies
A = a * P1ginv + b * P2ginv: to rows r through the factors, as
A r = a Q (Q' r) + b D' (W (D r)) and r' A r = a |Q' r|^2 + b |W^(1/2) D r|^2,
O(p) per row and a sum of squares free of the cancellation in the dense
product.  Below ``BANDED_MIN_P`` grid points the dense p x p product is
faster, so it is used there, and only there are the dense P1ginv and P2ginv
formed, on first read.  The eigenbasis needs the dense P2ginv too, but only
while it is solved for, so from ``BANDED_MIN_P`` points on a grid holds one
p x p matrix, its eigenbasis.  That is formed on first use, as the order-2
base prior never reads it on the base-function subgrid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def second_difference_bands(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The second-divided-difference operator's three diagonals, row j of
    ``bands[k]`` its entry in column j + k, and their quadrature weights.

    Row j approximates the second derivative at the interior point t[j+1];
    the weights are trapezoid-style spans (t[j+2]-t[j])/2.  Exact annihilation
    of constants and linear trends holds for arbitrary strictly increasing t.
    """
    h1, h2 = np.diff(t)[:-1], np.diff(t)[1:]
    bands = np.stack([2.0 / (h1 * (h1 + h2)), -2.0 / (h1 * h2), 2.0 / (h2 * (h1 + h2))])
    return bands, 0.5 * (t[2:] - t[:-2])


def second_difference_operator(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dense (p - 2) x p second-divided-difference operator and its
    quadrature weights (see ``second_difference_bands``)."""
    bands, w = second_difference_bands(t)
    j = np.arange(t.shape[0] - 2)
    d = np.zeros((j.shape[0], t.shape[0]))
    for k in range(3):
        d[j, j + k] = bands[k]
    return d, w


def first_difference_operator(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-divided-difference rows with cell-length quadrature weights."""
    h = np.diff(t)
    j = np.arange(h.shape[0])
    d = np.zeros((h.shape[0], t.shape[0]))
    d[j, j] = -1.0 / h
    d[j, j + 1] = 1.0 / h
    return d, h


# grid size from which PenaltyForm applies A through the factors: from here
# on that is faster than the dense p x p product for 3, 20 and 200 rows per
# call, below it not for every row count (BLAS 1 thread; table in CHANGES.md)
BANDED_MIN_P = 350


@dataclass(frozen=True)
class GridPenalties:
    """The penalty pair on one grid as its factors, ``P1ginv = q q'`` and
    ``P2ginv = D' diag(weights) D`` with row j of D holding ``bands[:, j]``
    in columns j, j+1, j+2, and the orthonormal basis diagonalizing both,
    ``P2ginv = basis @ diag(eigenvalues) @ basis'``, whose first two
    eigenvalues are exactly zero, with columns spanning {1, t}.  The dense
    ``P1ginv`` and ``P2ginv`` are properties formed on first read and kept;
    the package reads them only below ``BANDED_MIN_P`` grid points."""

    t: np.ndarray
    q: np.ndarray
    bands: np.ndarray
    weights: np.ndarray

    @property
    def p(self) -> int:
        return self.t.shape[0]

    @cached_property
    def P1ginv(self) -> np.ndarray:
        return self.q @ self.q.T

    @cached_property
    def P2ginv(self) -> np.ndarray:
        return _dense_p2ginv(self.t)

    @cached_property
    def _sparse_D(self):
        """D and D' as sparse matrices, made for the first factored product.

        This is the package's one scipy import, and only grids of
        ``BANDED_MIN_P`` points or more reach it: below the crossover the
        package runs on numpy alone.  A numpy three-shift stencil in place of
        the sparse products measured about twice as slow at p = 800."""
        from scipy.sparse import csr_array
        m = self.bands.shape[1]
        d = csr_array((self.bands.T.ravel(),
                       (np.arange(m)[:, None] + np.arange(3)).ravel(),
                       np.arange(0, 3 * m + 1, 3)), shape=(m, self.p))
        return d, d.T.tocsr()

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        # the dense P2ginv is kept only if something else formed it
        p2ginv = self.__dict__.get("P2ginv")
        null = np.column_stack([np.ones_like(self.t), self.t])
        return _spectral_basis(_dense_p2ginv(self.t) if p2ginv is None else p2ginv,
                               null)

    @property
    def basis(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum[1]

    def diagonal(self, a: float, b: float, c: float = 0.0) -> np.ndarray:
        """Eigenvalues of a * P1ginv + b * P2ginv + c * I in ``basis``."""
        d = b * self.eigenvalues + c
        d[:2] = a + c
        if not np.all(d > 0.0):
            raise SingularPrecision("precision is not positive definite")
        return d

    def draw(self, d: np.ndarray, rhs: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The precision with eigenvalues ``d`` solved against ``rhs`` (rows),
        plus noise of covariance ``covariance(1 / d)`` made from standard
        normals ``z`` shaped like ``rhs`` (0: the solve alone)."""
        return ((rhs @ self.basis) / d + z / np.sqrt(d)) @ self.basis.T

    def covariance(self, var: np.ndarray) -> np.ndarray:
        """The dense covariance with eigenvalues ``var`` in ``basis``."""
        root = self.basis * np.sqrt(var)
        return root @ root.T

    def trace(self, a: float, b: float, var: np.ndarray) -> float:
        """trace((a * P1ginv + b * P2ginv) C) for the covariance C with
        eigenvalues ``var`` in ``basis``."""
        return float(a * (var[0] + var[1]) + b * (self.eigenvalues @ var))

    @cached_property
    def _unit_forms(self) -> dict:
        return {(1.0, 0.0): PenaltyForm(1.0, 0.0, penalties=self),
                (0.0, 1.0): PenaltyForm(0.0, 1.0, penalties=self)}

    def form(self, a: float, b: float) -> "PenaltyForm":
        """A = a * P1ginv + b * P2ginv on this grid.  The forms of P1ginv and
        P2ginv alone, which the precision updates read every sweep, are made
        once, and so is their dense matrix."""
        return self._unit_forms.get((a, b)) or PenaltyForm(a, b, penalties=self)

    def factored_rows(self, a: float, b: float, r: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Rows of r A and r A r' per row, for A = a * P1ginv + b * P2ginv and
        r of shape (R, p), through the factors: a Q (Q' r) + b D' (W (D r)) and
        a |Q' r|^2 + b |W^(1/2) D r|^2.  The work runs on columns r'."""
        d, d_t = self._sparse_D
        rt = np.ascontiguousarray(r.T)
        qr = self.q.T @ rt
        dr = d @ rt
        wdr = (b * self.weights)[:, None] * dr
        ra = d_t @ wdr
        ra += (a * self.q) @ qr
        return ra.T, a * np.einsum("ij,ij->j", qr, qr) + np.einsum("ij,ij->j", wdr, dr)


class PenaltyForm:
    """A = a * P1ginv + b * P2ginv on one grid: its coefficients, which give
    its eigenvalues in the penalty basis, and the grid's ``penalties``,
    through whose factors A is applied from ``BANDED_MIN_P`` grid points on.
    The dense matrix is formed on first read, which only the dense product
    below that size does, so a banded form never holds it.  A form without
    ``penalties`` is a given dense ``matrix`` with no factor (the
    first-derivative base prior; ``a`` and ``b`` are NaN)."""

    def __init__(self, a: float, b: float, matrix: np.ndarray | None = None,
                 penalties: GridPenalties | None = None):
        self.a, self.b, self.penalties = a, b, penalties
        if matrix is not None:
            self.matrix = matrix  # shadows the lazily formed matrix

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.a * self.penalties.P1ginv + self.b * self.penalties.P2ginv

    @property
    def size(self) -> int:
        """The number of grid points A acts on."""
        return self.matrix.shape[0] if self.penalties is None else self.penalties.p

    @property
    def banded(self) -> bool:
        return self.penalties is not None and self.penalties.p >= BANDED_MIN_P

    def rows(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of r A and the form r A r' per row, for r of shape (R, p).  The
        dense product rounds by R (BLAS blocking): a row's last bits depend on
        the rows it is batched with.  The factored product's do not."""
        if self.banded:
            return self.penalties.factored_rows(self.a, self.b, r)
        ra = r @ self.matrix
        return ra, np.einsum("ij,ij->i", ra, r)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Rows of r A alone, for r of shape (R, p): the dense product below
        ``BANDED_MIN_P`` grid points, the factored one from there on."""
        if self.banded:
            return self.penalties.factored_rows(self.a, self.b, r)[0]
        return r @ self.matrix

    def times(self, v: np.ndarray) -> np.ndarray:
        """A v for one vector v."""
        if self.banded:
            return self.apply(v[None])[0]
        return self.matrix @ v

    def quad(self, v: np.ndarray) -> float:
        """v' A v for one vector v."""
        if self.banded:
            return float(self.rows(v[None])[1][0])
        return float(v @ self.matrix @ v)

    def expected(self, mean: np.ndarray, var: np.ndarray | None,
                 quad: float | None = None) -> float:
        """E[x' A x] for x with ``mean`` and the covariance of eigenvalues
        ``var`` in the penalty basis: the mean's form plus the trace (none for
        a point, ``var`` None).  ``quad`` is the mean's form when the caller
        formed it already, with A mean, by one ``rows`` call."""
        if quad is None:
            quad = self.quad(mean)
        return quad if var is None else quad + self.penalties.trace(self.a, self.b, var)


def _spectral_basis(penalty: np.ndarray, null_vectors: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The eigenbasis [Q, C U] and eigenvalues (0, ..., 0, mu) of a penalty
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
    return np.hstack([q, complement @ u]), np.concatenate([np.zeros(k), mu])


def _dense_p2ginv(t: np.ndarray) -> np.ndarray:
    # with 2 points span{1, t} is all of R^2 and D has no rows
    d, w = second_difference_operator(t)
    p2ginv = d.T @ (w[:, None] * d)
    return 0.5 * (p2ginv + p2ginv.T)


def _build_grid_penalties(t: np.ndarray) -> GridPenalties:
    q, _ = np.linalg.qr(np.column_stack([np.ones_like(t), t]))
    bands, w = second_difference_bands(t)
    return GridPenalties(t=t, q=q, bands=bands, weights=w)


@dataclass(frozen=True)
class PenaltySet:
    """The penalties of one model: ``main`` on the full grid, ``base`` on the
    subgrid t1..t_{p-1} where base functions live.  The base functions'
    smoothing covariance Pw is the pseudo-inverse of a roughness penalty on
    that subgrid, held as its eigenbasis (``derivative_order_w`` leading zero
    eigenvalues): ``base``'s own second-derivative penalty, or the
    first-derivative one, which annihilates constants only.  Only the
    first-derivative prior reads it, so it is formed on first use.
    """

    grid: TimeGrid
    main: GridPenalties
    base: GridPenalties
    derivative_order_w: int = 2

    @cached_property
    def _w_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        if self.derivative_order_w == 2:
            return self.base.basis, self.base.eigenvalues
        t_sub = self.base.t
        d1, w1 = first_difference_operator(t_sub)
        k1 = d1.T @ (w1[:, None] * d1)
        return _spectral_basis(0.5 * (k1 + k1.T), np.ones((t_sub.shape[0], 1)))

    @property
    def w_basis(self) -> np.ndarray:
        return self._w_spectrum[0]

    @property
    def w_eigenvalues(self) -> np.ndarray:
        return self._w_spectrum[1]

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
    """Assemble every penalty the model needs from a validated grid.  The
    main grid's eigenbasis, which every q-update reads, is formed here."""
    if derivative_order_w not in (1, 2):
        raise ValueError("derivative_order_w must be 1 or 2")
    t = grid.points
    main = _build_grid_penalties(t)
    main.basis  # noqa: B018 - formed, and its rank checked, at build time
    return PenaltySet(grid=grid, main=main, base=_build_grid_penalties(t[:-1]),
                      derivative_order_w=derivative_order_w)
