"""Matrix assembly for the three discretizations of -u'' = f on ]0, 1[.

All three schemes share the same unknowns: one value per cell for u and one
value per vertex for the gradient p.  The classical mixed scheme tests the
gradient equation with hat functions, the Petrov-Galerkin scheme with the
psi-generated nodal functions, and the heuristic finite-volume scheme is what
remains after eliminating p with the dual-width difference quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .mesh import Mesh
from .weighting import MomentTable, gauss_legendre

__all__ = [
    "TriDiagonal",
    "cell_gauss_rule",
    "SourceFunction",
    "SaddleSystem",
    "assemble_mass_classical",
    "assemble_mass_pg",
    "assemble_div",
    "project_rhs",
    "assemble_fv",
    "saddle_classical",
    "saddle_pg",
]

DEFAULT_RHS_QUAD_ORDER = 8


@dataclass(frozen=True)
class TriDiagonal:
    """Banded storage of a tridiagonal m x m matrix.

    ``diag`` has length m, ``lower``/``upper`` length m - 1 (entry (j+1, j)
    resp. (j, j+1)).
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        diag = np.asarray(self.diag, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        m = diag.size
        if m < 1 or lower.size != m - 1 or upper.size != m - 1:
            raise ValueError("band lengths must be (m-1, m, m-1)")
        for name, arr in (("lower", lower), ("diag", diag), ("upper", upper)):
            arr = np.array(arr, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def shape(self):
        m = self.diag.size
        return (m, m)

    def to_dense(self) -> np.ndarray:
        return (np.diag(self.diag)
                + np.diag(self.lower, k=-1)
                + np.diag(self.upper, k=1))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = self.diag * x
        y[1:] += self.lower * x[:-1]
        y[:-1] += self.upper * x[1:]
        return y

    def row_sums(self) -> np.ndarray:
        y = self.diag.copy()
        y[1:] += self.lower
        y[:-1] += self.upper
        return y


def cell_gauss_rule(mesh: Mesh, quad_order: int):
    """Reference Gauss nodes x and weights w on [0, 1], and a function that
    evaluates a callable at the points vertices[j] + h_j * x of every cell j,
    shape (n, quad_order), broadcasting a constant return value."""
    x, w = gauss_legendre(quad_order)
    pts = mesh.vertices[:-1, None] + mesh.cell_widths[:, None] * x[None, :]
    return x, w, lambda fn: np.broadcast_to(np.asarray(fn(pts), dtype=float), pts.shape)


@dataclass(frozen=True)
class SourceFunction:
    """Right-hand side f with an optional antiderivative for exact cell loads.

    ``f`` must be vectorized over numpy arrays.  When ``antiderivative`` is
    given, cell integrals come from endpoint differences instead of
    quadrature.
    """

    f: Callable
    antiderivative: Optional[Callable] = None

    def cell_integrals(self, mesh: Mesh, quad_order: int = DEFAULT_RHS_QUAD_ORDER) -> np.ndarray:
        if self.antiderivative is not None:
            return np.diff(np.asarray(self.antiderivative(mesh.vertices), dtype=float))
        _, w, at_points = cell_gauss_rule(mesh, quad_order)
        return mesh.cell_widths * (at_points(self.f) @ w)


def _as_source(f: Union[SourceFunction, Callable]) -> SourceFunction:
    return f if isinstance(f, SourceFunction) else SourceFunction(f)


def assemble_mass_classical(mesh: Mesh) -> TriDiagonal:
    """Hat-function mass matrix.

    Diagonal 2/3 of the dual width, off-diagonals 1/6 of the cell width
    between the two vertices; each row sums to the dual width of its vertex.
    """
    off = (1.0 / 6.0) * mesh.cell_widths
    return TriDiagonal(lower=off, diag=(2.0 / 3.0) * mesh.dual_widths, upper=off)


def assemble_mass_pg(mesh: Mesh, m: MomentTable) -> TriDiagonal:
    """Cross mass matrix between hat trial functions and psi test functions.

    Row index is the hat index, column index the test index; the two
    orientations coincide because entry (j, j+1) and entry (j+1, j) both
    equal m0 times the width of the shared cell.  With orthogonality (m0 = 0)
    the matrix is diagonal, and with fv compatibility (m1 = 1/2) the diagonal
    equals the dual widths.
    """
    off = m.m0 * mesh.cell_widths
    return TriDiagonal(lower=off, diag=2.0 * m.m1 * mesh.dual_widths, upper=off)


def assemble_div(mesh: Mesh) -> np.ndarray:
    """Divergence of nodal fields tested against cell indicators, as two bands.

    Column l holds the coefficients (-1, +1) of (p_l, p_{l+1}) in cell l: the
    integral of the derivative of a nodal basis function over the cell, the
    same for hat and for localized psi test functions.
    """
    return np.vstack((np.full(mesh.n, -1.0), np.ones(mesh.n)))


def project_rhs(mesh: Mesh, f: Union[SourceFunction, Callable],
                quad_order: int = DEFAULT_RHS_QUAD_ORDER) -> np.ndarray:
    """Cell integrals of the source term."""
    return _as_source(f).cell_integrals(mesh, quad_order)


def assemble_fv(mesh: Mesh, f: Union[SourceFunction, Callable],
                quad_order: int = DEFAULT_RHS_QUAD_ORDER):
    """Cell system of the heuristic finite-volume scheme.

    Eliminating the dual-width gradient leaves the symmetric positive definite
    tridiagonal system A u = b with

        A[j, j]   =  1/h_j + 1/h_{j+1}   (dual widths around cell j)
        A[j, j+-1] = -1/h_{j or j+1}
        b[j]      =  integral of f over cell j.

    On a uniform mesh the interior rows are (-1, 2, -1)/h; the boundary rows
    pick up 3/h on the diagonal from the halved dual width at the endpoints
    (for a single cell the whole system is 4*u = int f).
    """
    inv = 1.0 / mesh.dual_widths
    diag = inv[:-1] + inv[1:]
    off = -inv[1:-1]
    return TriDiagonal(lower=off, diag=diag, upper=off), project_rhs(mesh, f, quad_order)


@dataclass(frozen=True)
class SaddleSystem:
    """Block system [[M, B^t], [B, 0]] (p, u) = (0, -rhs_cells).

    ``mass`` is the (possibly cross) mass matrix, ``rhs_cells`` the cell loads
    and ``div_matrix`` the two bands of the n x (n+1) divergence block, shape
    (2, n): B[l, l] = div_matrix[0, l] and B[l, l+1] = div_matrix[1, l].  The
    mass block must be symmetric, so trial-row and test-row orientations agree.
    """

    mass: TriDiagonal
    div_matrix: np.ndarray
    rhs_cells: np.ndarray
    mesh: Mesh
    label: str = ""

    def __post_init__(self):
        n = self.mesh.n
        if self.mass.shape != (n + 1, n + 1):
            raise ValueError("mass block must be (n+1) x (n+1)")
        if not np.array_equal(self.mass.lower, self.mass.upper, equal_nan=True):
            raise ValueError("mass block must be symmetric")
        if self.div_matrix.shape != (2, n):
            raise ValueError("divergence block must be stored as its two bands, shape (2, n)")
        if self.rhs_cells.shape != (n,):
            raise ValueError("rhs must have one entry per cell")


def saddle_classical(mesh: Mesh, f: Union[SourceFunction, Callable],
                     quad_order: int = DEFAULT_RHS_QUAD_ORDER) -> SaddleSystem:
    """Classical mixed scheme: hat test functions for the gradient equation."""
    return SaddleSystem(
        mass=assemble_mass_classical(mesh),
        div_matrix=assemble_div(mesh),
        rhs_cells=project_rhs(mesh, f, quad_order),
        mesh=mesh,
        label="classical",
    )


def saddle_pg(mesh: Mesh, m: MomentTable, f: Union[SourceFunction, Callable],
              quad_order: int = DEFAULT_RHS_QUAD_ORDER, label: str = "pg") -> SaddleSystem:
    """Petrov-Galerkin scheme: psi-generated test functions, summarized by
    the moment table."""
    return SaddleSystem(
        mass=assemble_mass_pg(mesh, m),
        div_matrix=assemble_div(mesh),
        rhs_cells=project_rhs(mesh, f, quad_order),
        mesh=mesh,
        label=label,
    )
