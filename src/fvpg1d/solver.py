"""Direct solvers: every scheme is one block saddle system.

fv, classical and pg all solve [[M, B^t], [B, 0]] (p, u) = (g, f), with B the
(-1, +1) divergence on each cell and M = M(m1, m0) fixed by two moments, read
as (mesh, m1, m0) and never as bands; fv is the pair (1/2, 0).  One kernel,
``flux_balance``, solves it with two prefix sums and no factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import DEFAULT_QUAD_ORDER, SaddleSystem, project_rhs
from .mesh import Mesh

__all__ = ["SolverError", "DiscreteSolution", "apply_mass", "flux_balance", "solve_fv",
           "solve_mixed", "residual"]

RESIDUAL_RTOL = 1e-10
SINGULAR_RTOL = 1e-12  # a combination of the pair within this of |m1| + |m0| is zero


class SolverError(RuntimeError):
    """A linear system could not be solved reliably."""


def _require_finite(name: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise SolverError(f"{name} contains NaN or inf")


@dataclass(frozen=True)
class DiscreteSolution:
    """Cell values of u and vertex values of the gradient p."""

    u_cells: np.ndarray
    p_nodes: np.ndarray
    mesh: Mesh
    scheme: str

    def __post_init__(self):
        if self.u_cells.shape != (self.mesh.n,) or self.p_nodes.shape != (self.mesh.n + 1,):
            raise ValueError("solution arrays do not match the mesh")


def apply_mass(mesh: Mesh, m1: float, m0: float, x: np.ndarray) -> np.ndarray:
    """M(m1, m0) x: 2 m1 w x plus m0 h x from both neighbours (skipped if m0 = 0)."""
    y = (2.0 * m1 * mesh.dual_widths) * x
    if m0 != 0.0:
        off = m0 * mesh.cell_widths
        y[1:] += off * x[:-1]
        y[:-1] += off * x[1:]
    return y


def flux_balance(mesh: Mesh, m1: float, m0: float, f: np.ndarray, g=None):
    """Solve [[M, B^t], [B, 0]] (p, u) = (g, f) for M = M(m1, m0), g = 0 if None.

    The cell rows give p = C + p0, C = [0, cumsum(f)]; the gradient rows
    u = cumsum(M p - g)[:-1], and as M 1 = 2 (m1 + m0) w, w the dual widths,
    their last row p0 = (1^t g / (2 (m1 + m0)) - w^t C) / 1^t w.  With g = 0
    the pair drops out: p is the same for every scheme.  Returns (p, u); the
    system is singular exactly when m1 + m0 = 0."""
    w = mesh.dual_widths
    p = np.zeros(f.size + 1)
    np.cumsum(f, out=p[1:])
    p += ((0.0 if g is None else g.sum() / (2.0 * (m1 + m0))) - w @ p) / w.sum()
    flux = apply_mass(mesh, m1, m0, p)
    if g is not None:
        flux -= g
    return p, np.cumsum(flux, out=flux)[:-1]


def solve_fv(mesh: Mesh, f, quad_order: int = DEFAULT_QUAD_ORDER) -> DiscreteSolution:
    """Solve the heuristic finite-volume scheme.

    It is the saddle system with M = diag(dual widths), the pair (1/2, 0): the
    gradient p_j is the difference quotient (u_j - u_{j-1}) / dual width, with
    zero ghost values outside the interval, and the cell balance
    p_{j+1} - p_j + int_cell f = 0 holds to rounding by construction.
    """
    loads = project_rhs(mesh, f, quad_order)
    _require_finite("cell load vector", loads)
    p, u = flux_balance(mesh, 0.5, 0.0, -loads)
    return DiscreteSolution(u_cells=u, p_nodes=p, mesh=mesh, scheme="fv")


def _count_below(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """Eigenvalues below x of the symmetric tridiagonal matrix with bands
    ``diag`` and ``off`` (Sturm count): the negative pivots of the LDL^t
    factorization of M - x I."""
    count, d = 0, 1.0
    for a, b2 in zip((diag - x).tolist(), np.append(0.0, off**2).tolist()):
        d = (a - b2 / d) or -np.finfo(float).tiny  # a zero pivot counts as negative
        count += d < 0.0
    return count


def _schur_gate(mesh: Mesh, m1: float, m0: float) -> None:
    """Raise SolverError unless B M^{-1} B^t is positive definite for M(m1, m0).

    B has the constants as its kernel, so it is exactly when M is nonsingular
    with no negative eigenvalue, or with one and 1^t M 1 < 0.  M has the inertia of
    2 m1 + m0 mu over the eigenvalues mu of the pencil (offdiag(h), diag(dual)),
    which lie in [-2, 2] and attain both ends; only for m0 < 0 and |m1| < |m0|
    (then 1^t M 1 = 2 (m1 + m0) < 0) must a Sturm count of M decide.  A definite
    pair whose diagonal 2 m1 w has left the normal range (for m1 > 0 its least
    entry is 2 m1 min(w), as rounding is monotone) has lost its digits to
    underflow, and its mass block counts as singular.
    """
    tol = SINGULAR_RTOL * (abs(m1) + abs(m0))
    if m1 - abs(m0) > tol and 2.0 * m1 * mesh.dual_widths.min() >= np.finfo(float).tiny:
        return
    if m1 - abs(m0) > tol or abs(abs(m1) - abs(m0)) <= tol:
        raise SolverError("mass block is singular")
    if m0 < 0.0 and abs(m1) < abs(m0):
        diag, off = 2.0 * m1 * mesh.dual_widths, m0 * mesh.cell_widths
        shift = 1e-12 * (np.abs(diag).max() + 2.0 * np.abs(off).max())
        negative = _count_below(diag, off, -shift)
        if negative != _count_below(diag, off, shift):
            raise SolverError("mass block is singular")
        if negative == 1:
            return
    raise SolverError("Schur complement is not positive definite")


def solve_mixed(system: SaddleSystem) -> DiscreteSolution:
    """Solve a saddle system with ``flux_balance`` behind a rejection gate.

    Raises SolverError on non-finite input, a singular mass block, a Schur
    complement B M^{-1} B^t that is not positive definite, or a block
    residual above 1e-10 relative to max(1, max|f|, max|u|), as u sums M p.
    """
    mesh, m1, m0, f_cells = system.mesh, system.m1, system.m0, system.rhs_cells
    _require_finite("mass block", m1, m0)
    _require_finite("cell load vector", f_cells)
    _schur_gate(mesh, m1, m0)
    p, u = flux_balance(mesh, m1, m0, -f_cells)
    solution = DiscreteSolution(u_cells=u, p_nodes=p, mesh=mesh, scheme=system.label or "mixed")
    res = residual(system, solution)
    scale = max(1.0, float(np.abs(f_cells).max()), float(np.abs(u).max()))
    if not np.isfinite(res) or res > RESIDUAL_RTOL * scale:
        raise SolverError(f"block residual {res:.3e} exceeds {RESIDUAL_RTOL:.0e} relative")
    return solution


def residual(system: SaddleSystem, solution: DiscreteSolution) -> float:
    """Max-norm residual of the full block system at a candidate solution."""
    p, u = solution.p_nodes, solution.u_cells
    r_grad = (apply_mass(system.mesh, system.m1, system.m0, p)
              + np.append(-u, 0.0) + np.append(0.0, u))
    r_cells = np.diff(p) + system.rhs_cells
    return float(max(np.abs(r_grad).max(), np.abs(r_cells).max()))
