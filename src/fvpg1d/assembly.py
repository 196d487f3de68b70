"""Matrix assembly for the three discretizations of -u'' = f on ]0, 1[.

All three schemes share the same unknowns: one value per cell for u and one
value per vertex for the gradient p.  The classical mixed scheme tests the
gradient equation with hat functions, the Petrov-Galerkin scheme with the
psi-generated nodal functions, and the heuristic finite-volume scheme is what
remains after eliminating p with the dual-width difference quotient.  Each
test space gives a mass block fixed by two moments (m1, m0): a saddle system
stores that pair, and ``TriDiagonal`` bands are a read-only record of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, List, Optional, Union

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
    "project_rhs",
    "assemble_fv",
    "saddle_classical",
    "saddle_pg",
]

DEFAULT_QUAD_ORDER = 8  # Gauss points per cell for loads, cell averages and error norms
MAX_QUAD_ORDER = 32
QUAD_BLOCK = 1024  # cells per block of cell_gauss_rule


@dataclass(frozen=True)
class TriDiagonal:
    """Read-only banded record of a tridiagonal m x m matrix; no arithmetic.

    ``diag`` has length m, ``lower``/``upper`` length m - 1 (entry (j+1, j)
    resp. (j, j+1)).
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower, diag, upper = (np.array(a, dtype=float) for a in (self.lower, self.diag, self.upper))
        m = diag.size
        if m < 1 or lower.size != m - 1 or upper.size != m - 1:
            raise ValueError("band lengths must be (m-1, m, m-1)")
        for name, arr in (("lower", lower), ("diag", diag), ("upper", upper)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def gauss_legendre(order: int):
    """Gauss-Legendre rule mapped to [0, 1].

    Returns (nodes, weights); the weights are positive and sum to one, and the
    rule integrates polynomials up to degree 2*order - 1 exactly.  The rule
    of each order is computed once and returned as read-only arrays.
    """
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order must be in [1, {MAX_QUAD_ORDER}]")
    return _gauss_legendre(order)


@lru_cache(maxsize=MAX_QUAD_ORDER)
def _gauss_legendre(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    rule = 0.5 * (nodes + 1.0), 0.5 * weights
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _fold_rows(a: np.ndarray) -> np.ndarray:
    """Sum the rows of ``a`` in place by a fixed pairwise tree and return the
    sum: the upper half of the rows is added onto the lower half (the middle
    row of an odd count waits a level) until one row is left."""
    rows = a.shape[0]
    while rows > 1:
        half = rows // 2
        a[:half] += a[rows - half:rows]
        rows -= half
    return a[0]


def cell_gauss_rule(mesh: Mesh, quad_order: int, integrands: Callable,
                    count: int = 1) -> List[np.ndarray]:
    """Per-cell Gauss sums of ``count`` integrands: ``count`` arrays of n.

    Entry j of array i is sum_k w_k g_i(x_jk), x_jk = vertices[j] + h_j x_k,
    with x and w the rule of ``gauss_legendre`` on [0, 1] (no factor h_j).
    The mesh is walked in blocks of QUAD_BLOCK cells, so besides the outputs
    the memory is a few (quad_order, QUAD_BLOCK) arrays whatever n is.  For
    each block, ``integrands(at, x, cells)`` yields the ``count`` integrand
    values in turn: ``at(fn)`` evaluates a vectorized callable on the
    block's points, shape (quad_order, block), broadcasting a constant
    return value, and ``cells`` is the block's slice of the cell arrays.
    The products w_k g_k are summed over k in the fixed pairwise order of
    ``_fold_rows``, by elementwise ufuncs and no BLAS, so every cell's sum is
    the same bits for any block size and any BLAS thread count.
    """
    x, w = gauss_legendre(quad_order)
    n = mesh.n
    # one allocation per call holds the outputs and the two buffers every block
    # reuses: repeated calls then reuse one heap chunk, where separate arrays
    # let glibc trim the heap and fault it back in on every call
    work = np.empty(count * n + 2 * quad_order * min(n, QUAD_BLOCK))
    sums = np.split(work[:count * n], count)
    pts_buf, weighted_buf = work[count * n:].reshape(2, quad_order, -1)
    for start in range(0, n, QUAD_BLOCK):
        cells = slice(start, min(start + QUAD_BLOCK, n))
        size = cells.stop - start
        pts = np.multiply(mesh.cell_widths[cells], x[:, None], out=pts_buf[:, :size])
        pts += mesh.vertices[cells]

        def at(fn):
            values = np.asarray(fn(pts), dtype=float)
            return values if values.shape == pts.shape else np.broadcast_to(values, pts.shape)

        weighted = weighted_buf[:, :size]
        for i, values in enumerate(integrands(at, x, cells)):
            sums[i][cells] = _fold_rows(np.multiply(values, w[:, None], out=weighted))
    return sums


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
        sums = cell_gauss_rule(mesh, quad_order, lambda at, x, cells: (at(self.f),))
        return mesh.cell_widths * sums[0]


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
    divergence, (-1, +1) on (p_l, p_{l+1}) in cell l for hat and psi test functions.
    """

    mesh: Mesh
    m1: float
    m0: float
    rhs_cells: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.rhs_cells.shape != (self.mesh.n,):
            raise ValueError("rhs must have one entry per cell")

    # band records derived from the pair, read by the benchmark's byte count only
    @cached_property
    def mass(self) -> TriDiagonal:
        return assemble_mass_pg(self.mesh, self)

    @property
    def div_matrix(self) -> np.ndarray:  # B as two bands, shape (2, n)
        return np.vstack((np.full(self.mesh.n, -1.0), np.ones(self.mesh.n)))


def saddle_classical(mesh: Mesh, f: Union[SourceFunction, Callable],
                     quad_order: int = DEFAULT_QUAD_ORDER) -> SaddleSystem:
    """Classical mixed scheme: hat test functions, whose mass is the pair (1/3, 1/6)."""
    return SaddleSystem(mesh, 1.0 / 3.0, 1.0 / 6.0, project_rhs(mesh, f, quad_order), "classical")


def saddle_pg(mesh: Mesh, m: MomentTable, f: Union[SourceFunction, Callable],
              quad_order: int = DEFAULT_QUAD_ORDER, label: str = "pg") -> SaddleSystem:
    """Petrov-Galerkin scheme: psi-generated test functions, summarized by
    the moment table."""
    return SaddleSystem(mesh, m.m1, m.m0, project_rhs(mesh, f, quad_order), label)
