"""Matrix assembly for the three discretizations of -u'' = f on ]0, 1[.

All three schemes share the same unknowns: one value per cell for u and one
value per vertex for the gradient p.  The classical mixed scheme tests the
gradient equation with hat functions, the Petrov-Galerkin scheme with the
psi-generated nodal functions, and the heuristic finite-volume scheme is what
remains after eliminating p with the dual-width difference quotient.  Each
test space gives a mass block fixed by two moments (m1, m0), so a saddle
system stores that pair and builds the bands on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .mesh import Mesh
from .weighting import MomentTable

__all__ = [
    "TriDiagonal",
    "gauss_legendre",
    "cell_gauss_rule",
    "SourceFunction",
    "SaddleSystem",
    "assemble_mass_pg",
    "assemble_div",
    "project_rhs",
    "assemble_fv",
    "saddle_classical",
    "saddle_pg",
]

DEFAULT_QUAD_ORDER = 8  # Gauss points per cell for loads, cell averages and error norms
MAX_QUAD_ORDER = 32


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


def gauss_legendre(order: int):
    """Gauss-Legendre rule mapped to [0, 1].

    Returns (nodes, weights); the weights are positive and sum to one, and the
    rule integrates polynomials up to degree 2*order - 1 exactly.
    """
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order must be in [1, {MAX_QUAD_ORDER}]")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


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

    def cell_integrals(self, mesh: Mesh, quad_order: int = DEFAULT_QUAD_ORDER) -> np.ndarray:
        if self.antiderivative is not None:
            return np.diff(np.asarray(self.antiderivative(mesh.vertices), dtype=float))
        _, w, at_points = cell_gauss_rule(mesh, quad_order)
        return mesh.cell_widths * (at_points(self.f) @ w)


def _as_source(f: Union[SourceFunction, Callable]) -> SourceFunction:
    return f if isinstance(f, SourceFunction) else SourceFunction(f)


def assemble_mass_pg(mesh: Mesh, m: MomentTable) -> TriDiagonal:
    """Cross mass matrix between hat trial functions and psi test functions.

    Only ``m.m1`` and ``m.m0`` are read, so ``m`` may also be a SaddleSystem.
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
                quad_order: int = DEFAULT_QUAD_ORDER) -> np.ndarray:
    """Cell integrals of the source term."""
    return _as_source(f).cell_integrals(mesh, quad_order)


def assemble_fv(mesh: Mesh, f: Union[SourceFunction, Callable],
                quad_order: int = DEFAULT_QUAD_ORDER):
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

    The mass block is fixed by a pair of moments,
    M(m1, m0) = 2 m1 diag(dual widths) + m0 offdiag(cell widths): fv is
    (1/2, 0), classical (1/3, 1/6) and pg the (m1, m0) of psi.  B is the
    (-1, +1) divergence of ``assemble_div``, the same for every scheme.
    """

    mesh: Mesh
    m1: float
    m0: float
    rhs_cells: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.rhs_cells.shape != (self.mesh.n,):
            raise ValueError("rhs must have one entry per cell")

    # derived from the pair; div_matrix stays only for bench/workloads.py's byte count
    @cached_property
    def mass(self) -> TriDiagonal:
        return assemble_mass_pg(self.mesh, self)

    @property
    def div_matrix(self) -> np.ndarray:
        return assemble_div(self.mesh)


def saddle_classical(mesh: Mesh, f: Union[SourceFunction, Callable],
                     quad_order: int = DEFAULT_QUAD_ORDER) -> SaddleSystem:
    """Classical mixed scheme: hat test functions, whose mass is the pair (1/3, 1/6)."""
    return SaddleSystem(mesh, 1.0 / 3.0, 1.0 / 6.0, project_rhs(mesh, f, quad_order), "classical")


def saddle_pg(mesh: Mesh, m: MomentTable, f: Union[SourceFunction, Callable],
              quad_order: int = DEFAULT_QUAD_ORDER, label: str = "pg") -> SaddleSystem:
    """Petrov-Galerkin scheme: psi-generated test functions, summarized by
    the moment table."""
    return SaddleSystem(mesh, m.m1, m.m0, project_rhs(mesh, f, quad_order), label)
