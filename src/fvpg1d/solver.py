"""Direct solvers for the cell system and the block saddle systems.

Everything is banded: the finite-volume path is one symmetric tridiagonal
solve, the mixed path one banded LU of the whole saddle system with the
unknowns interleaved as (p_0, u_0, p_1, u_1, ..., p_n).  No iterative methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import SaddleSystem, assemble_fv
from .mesh import Mesh

__all__ = ["SolverError", "DiscreteSolution", "solve_fv", "solve_mixed", "residual"]

RESIDUAL_RTOL = 1e-10


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


def solve_fv(mesh: Mesh, f, quad_order: int = 8) -> DiscreteSolution:
    """Solve the heuristic finite-volume scheme.

    The cell system is solved with a symmetric banded factorization; the
    gradient is then recovered from the dual-width difference quotients with
    zero ghost values outside the interval, so the cell balance
    p_{j+1} - p_j + int_cell f = 0 holds to rounding by construction.
    """
    A, b = assemble_fv(mesh, f, quad_order)
    _require_finite("cell load vector", b)
    if mesh.n == 1:  # scipy's banded tridiagonal path rejects 1x1 systems
        u = b / A.diag
    else:
        ab = np.vstack((np.append(0.0, A.upper), A.diag))  # upper-form bands
        try:
            u = scipy.linalg.solveh_banded(ab, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError("finite-volume cell system is not positive definite") from exc
    u_ext = np.concatenate(([0.0], u, [0.0]))
    p = np.diff(u_ext) / mesh.dual_widths
    return DiscreteSolution(u_cells=u, p_nodes=p, mesh=mesh, scheme="fv")


def solve_mixed(system: SaddleSystem) -> DiscreteSolution:
    """Solve a saddle system with one banded LU.

    With the unknowns ordered (p_0, u_0, p_1, u_1, ..., p_n) the block matrix
    [[M, B^t], [B, 0]] is (2, 2)-banded; partial pivoting handles the zero
    diagonal of the cell rows.  Raises SolverError on non-finite input, a
    singular mass block, a Schur complement B M^{-1} B^t that is not positive
    definite, or a block residual above 1e-10 relative.
    """
    M, D, f_cells = system.mass, system.div_matrix, system.rhs_cells
    _require_finite("mass block", M.lower, M.diag, M.upper)
    _require_finite("cell load vector", f_cells)
    tol = 1e-12 * (np.abs(M.diag).max() + 2.0 * np.abs(M.upper).max())
    low = scipy.linalg.eigvalsh_tridiagonal(M.diag, M.upper, select="v",
                                            select_range=(-np.inf, tol))
    if np.any(np.abs(low) <= tol):
        raise SolverError("mass block is singular")
    # B has the constants as its kernel, so B M^{-1} B^t is positive definite
    # exactly when M has no negative eigenvalue, or one and 1^t M 1 < 0
    if low.size > 1 or (low.size == 1 and M.row_sums().sum() >= 0.0):
        raise SolverError("Schur complement is not positive definite")
    # ab[2 + i - j, j] holds entry (i, j); p_j is unknown 2j and u_l is 2l + 1
    ab = np.zeros((5, 2 * system.mesh.n + 1))
    ab[0, 2::2] = M.upper
    ab[1, 1:] = ab[3, :-1] = D.T.ravel()  # B and B^t, mirrored about the diagonal
    ab[2, 0::2] = M.diag
    ab[4, :-1:2] = M.lower
    rhs = np.zeros(ab.shape[1])
    rhs[1::2] = -f_cells
    try:
        x = scipy.linalg.solve_banded((2, 2), ab, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError("saddle system is singular") from exc
    solution = DiscreteSolution(u_cells=x[1::2], p_nodes=x[0::2], mesh=system.mesh,
                                scheme=system.label or "mixed")
    r = residual(system, solution)
    scale = max(1.0, float(np.abs(f_cells).max()))
    if not np.isfinite(r) or r > RESIDUAL_RTOL * scale:
        raise SolverError(f"block residual {r:.3e} exceeds {RESIDUAL_RTOL:.0e} relative")
    return solution


def residual(system: SaddleSystem, solution: DiscreteSolution) -> float:
    """Max-norm residual of the full block system at a candidate solution."""
    D, p, u = system.div_matrix, solution.p_nodes, solution.u_cells
    r_grad = system.mass.matvec(p) + np.append(D[0] * u, 0.0) + np.append(0.0, D[1] * u)
    r_cells = D[0] * p[:-1] + D[1] * p[1:] + system.rhs_cells
    return float(max(np.abs(r_grad).max(), np.abs(r_cells).max()))
