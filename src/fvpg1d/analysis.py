"""Error measurement, interpolation operators, convergence fits, and the
discrete inf-sup estimator.

The estimator measures the coupling form

    gamma((u, p), (v, q)) = (p, q) + (u, div q) + (div p, v)

between the trial space (cell constants x hat functions) and the test space
(cell constants x psi-generated nodal functions), both equipped with the
graph norm  ||u||_0^2 + ||p||_0^2 + ||div p||_0^2.  Its smallest generalized
singular value is the discrete inf-sup constant: bounded away from zero for
stable weighting functions, and decaying at first order when the reflection
identity fails; the measured law is delta_T ~ 1/(n sqrt(2 epsilon)), with
epsilon the reflection defect of ``stability_constants``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
import scipy.linalg

from .assembly import (SourceFunction, TriDiagonal, assemble_mass_classical,
                       assemble_mass_pg, cell_gauss_rule, saddle_classical,
                       saddle_pg)
from .mesh import Mesh, RegularFamilySpec, build_random_regular, build_uniform
from .solver import DiscreteSolution, solve_fv, solve_mixed
from .weighting import MomentTable, WeightingFunction, moments

__all__ = [
    "ManufacturedProblem",
    "ErrorReport",
    "ConvergenceTable",
    "InfSupReport",
    "sin_problem",
    "quadratic_problem",
    "zero_problem",
    "get_problem",
    "PROBLEM_NAMES",
    "interp_p0",
    "interp_p1",
    "error_norms",
    "discrete_norm_q",
    "infsup_constant",
    "infsup_witness_sup",
    "fit_rate",
    "loglog_slope",
    "mesh_sequence",
    "run_scheme",
    "convergence_study",
    "infsup_sweep",
]

DEFAULT_QUAD_ORDER = 8


# ---------------------------------------------------------------------------
# manufactured problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedProblem:
    """Closed-form solution of -u'' = f with homogeneous Dirichlet data.

    ``p_exact`` is the exact gradient u'; its derivative is -f, which is what
    the H1 error of the gradient is measured against.
    """

    name: str
    u_exact: Callable
    p_exact: Callable
    f: SourceFunction
    regularity: str = "H1"

    def __post_init__(self):
        for x in (0.0, 1.0):
            if abs(float(self.u_exact(x))) > 1e-12:
                raise ValueError("u_exact must vanish at both endpoints")


def sin_problem() -> ManufacturedProblem:
    """u = sin(pi x): smooth, the workhorse for convergence studies."""
    pi = np.pi
    return ManufacturedProblem(
        name="sin",
        u_exact=lambda x: np.sin(pi * np.asarray(x, dtype=float)),
        p_exact=lambda x: pi * np.cos(pi * np.asarray(x, dtype=float)),
        f=SourceFunction(
            f=lambda x: pi**2 * np.sin(pi * np.asarray(x, dtype=float)),
            antiderivative=lambda x: -pi * np.cos(pi * np.asarray(x, dtype=float)),
        ),
        regularity="smooth",
    )


def quadratic_problem() -> ManufacturedProblem:
    """u = x(1-x), f = 2: the gradient is affine and reproduced exactly."""
    return ManufacturedProblem(
        name="quadratic",
        u_exact=lambda x: np.asarray(x, dtype=float) * (1.0 - np.asarray(x, dtype=float)),
        p_exact=lambda x: 1.0 - 2.0 * np.asarray(x, dtype=float),
        f=SourceFunction(
            f=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
            antiderivative=lambda x: 2.0 * np.asarray(x, dtype=float),
        ),
        regularity="smooth",
    )


def zero_problem() -> ManufacturedProblem:
    """f = 0, u = 0: every scheme must return exact zeros."""
    return ManufacturedProblem(
        name="zero",
        u_exact=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        p_exact=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        f=SourceFunction(
            f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            antiderivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        ),
        regularity="smooth",
    )


_PROBLEMS = {"sin": sin_problem, "quadratic": quadratic_problem, "zero": zero_problem}
PROBLEM_NAMES = tuple(sorted(_PROBLEMS))


def get_problem(name: str) -> ManufacturedProblem:
    try:
        return _PROBLEMS[name]()
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}") from None


# ---------------------------------------------------------------------------
# interpolation operators
# ---------------------------------------------------------------------------

def interp_p0(mesh: Mesh, v: Callable, quad_order: int = DEFAULT_QUAD_ORDER,
              antiderivative: Optional[Callable] = None) -> np.ndarray:
    """Cell averages of v (exact when an antiderivative is supplied)."""
    if antiderivative is not None:
        F = np.asarray(antiderivative(mesh.vertices), dtype=float)
        return np.diff(F) / mesh.cell_widths
    _, w, at_points = cell_gauss_rule(mesh, quad_order)
    return at_points(v) @ w


def interp_p1(mesh: Mesh, q: Callable) -> np.ndarray:
    """Vertex samples of q: the hat-basis coefficients of its interpolant."""
    return np.asarray(q(mesh.vertices), dtype=float)


# ---------------------------------------------------------------------------
# error norms and convergence tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorReport:
    """L2 errors of u and p plus the H1 (graph) error of p on one mesh."""

    err_u_l2: float
    err_p_l2: float
    err_p_h1: float
    h_max: float
    n: int


def error_norms(solution: DiscreteSolution, problem: ManufacturedProblem,
                quad_order: int = DEFAULT_QUAD_ORDER) -> ErrorReport:
    """Per-cell Gauss quadrature of the three error norms.

    The discrete gradient is understood as the continuous piecewise-affine
    interpolant of its vertex values; its derivative error is measured
    against -f.
    """
    mesh = solution.mesh
    h = mesh.cell_widths
    x, w, at_points = cell_gauss_rule(mesh, quad_order)

    du = at_points(problem.u_exact) - solution.u_cells[:, None]
    err_u_sq = float(np.sum((du * du @ w) * h))

    p_lin = (solution.p_nodes[:-1, None] * (1.0 - x)[None, :]
             + solution.p_nodes[1:, None] * x[None, :])
    dp = at_points(problem.p_exact) - p_lin
    err_p_sq = float(np.sum((dp * dp @ w) * h))

    slopes = np.diff(solution.p_nodes) / h
    ddiv = -at_points(problem.f.f) - slopes[:, None]
    err_div_sq = float(np.sum((ddiv * ddiv @ w) * h))

    return ErrorReport(
        err_u_l2=float(np.sqrt(err_u_sq)),
        err_p_l2=float(np.sqrt(err_p_sq)),
        err_p_h1=float(np.sqrt(err_p_sq + err_div_sq)),
        h_max=mesh.h_max,
        n=mesh.n,
    )


@dataclass
class ConvergenceTable:
    """Error reports over a refinement sequence, sorted by n."""

    rows: List[ErrorReport]

    def __post_init__(self):
        self.rows = sorted(self.rows, key=lambda r: r.n)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    ERROR_COLUMNS = ("err_u_l2", "err_p_l2", "err_p_h1")


def loglog_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y against log x (zeros floored)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.maximum(np.asarray(y, dtype=float), 1e-300))
    return float(np.polyfit(lx, ly, 1)[0])


def fit_rate(table: ConvergenceTable) -> dict:
    """Fitted log-log slope of each error column against h_max.

    Requires at least three rows with pairwise distinct h_max.  Columns that
    sit at machine level produce meaningless slopes; callers should treat a
    column with max error below ~1e-12 as converged.
    """
    if len(table.rows) < 3:
        raise ValueError("need at least three rows to fit a rate")
    h = table.column("h_max")
    if np.unique(h).size != h.size:
        raise ValueError("h_max values must be pairwise distinct")
    return {name: loglog_slope(h, table.column(name)) for name in ConvergenceTable.ERROR_COLUMNS}


# ---------------------------------------------------------------------------
# discrete norms of psi-basis fields
# ---------------------------------------------------------------------------

def discrete_norm_q(mesh: Mesh, m: MomentTable, coeffs: Sequence[float]):
    """Exact L2 and H1-seminorm of a field in the psi nodal basis.

    On each cell the field is q_j psi(1 - t) + q_{j+1} psi(t) in the local
    coordinate, so the squared norms reduce to the moment table:

        l2^2      = sum_j h_j [ s (q_j^2 + q_{j+1}^2) + 2 c q_j q_{j+1} ]
        h1_semi^2 = sum_j (1/h_j) [ sd (q_j^2 + q_{j+1}^2) - 2 cd q_j q_{j+1} ]

    Returns (l2, h1_semi).
    """
    q = np.asarray(coeffs, dtype=float)
    if q.shape != (mesh.n + 1,):
        raise ValueError("need one coefficient per vertex")
    h = mesh.cell_widths
    ql, qr = q[:-1], q[1:]
    pair = ql * ql + qr * qr
    cross = ql * qr
    l2_sq = float(np.sum(h * (m.s * pair + 2.0 * m.c * cross)))
    h1_sq = float(np.sum((m.sd * pair - 2.0 * m.cd * cross) / h))
    return float(np.sqrt(max(l2_sq, 0.0))), float(np.sqrt(max(h1_sq, 0.0)))


# ---------------------------------------------------------------------------
# discrete inf-sup estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfSupReport:
    n: int
    delta_T: float
    psi_id: str = ""
    mesh_id: str = ""


def _p1_stiffness(mesh: Mesh) -> TriDiagonal:
    inv = 1.0 / mesh.cell_widths
    diag = np.zeros(mesh.n + 1)
    diag[:-1] += inv
    diag[1:] += inv
    return TriDiagonal(lower=-inv, diag=diag, upper=-inv)


def _vnorm_gram_trial(mesh: Mesh) -> np.ndarray:
    """Graph-norm Gram matrix on cell constants x hat functions."""
    p_block = assemble_mass_classical(mesh).to_dense() + _p1_stiffness(mesh).to_dense()
    return scipy.linalg.block_diag(np.diag(mesh.cell_widths), p_block)


def _vnorm_gram_test(mesh: Mesh, m: MomentTable) -> np.ndarray:
    """Graph-norm Gram matrix on cell constants x psi nodal functions."""
    h = mesh.cell_widths
    diag = np.zeros(mesh.n + 1)
    contrib = m.s * h + m.sd / h
    diag[:-1] += contrib
    diag[1:] += contrib
    off = m.c * h - m.cd / h
    q_block = TriDiagonal(lower=off, diag=diag, upper=off).to_dense()
    return scipy.linalg.block_diag(np.diag(h), q_block)


def _coupling_matrix(mesh: Mesh, m: MomentTable) -> np.ndarray:
    """Matrix of the coupling form, test rows (v, q) by trial columns (u, p)."""
    n = mesh.n
    B = np.eye(n, n + 1, 1) - np.eye(n, n + 1)
    G = np.zeros((2 * n + 1, 2 * n + 1))
    G[:n, n:] = B                                      # (div p, v)
    G[n:, :n] = B.T                                    # (u, div q)
    G[n:, n:] = assemble_mass_pg(mesh, m).to_dense().T  # (p, q)
    return G


def _whitened_coupling(mesh: Mesh, m: MomentTable) -> np.ndarray:
    G1 = _vnorm_gram_trial(mesh)
    G2 = _vnorm_gram_test(mesh, m)
    try:
        L1 = np.linalg.cholesky(G1)
        L2 = np.linalg.cholesky(G2)
    except np.linalg.LinAlgError as exc:
        raise ValueError("norm Gram matrix is not positive definite "
                         "(degenerate weighting function)") from exc
    Y = scipy.linalg.solve_triangular(L2, _coupling_matrix(mesh, m), lower=True)
    return scipy.linalg.solve_triangular(L1, Y.T, lower=True).T


def infsup_constant(mesh: Mesh, m: MomentTable, psi_id: str = "",
                    mesh_id: str = "") -> InfSupReport:
    """Discrete inf-sup constant of the coupling form in the graph norms.

    Computed as the smallest singular value of the coupling matrix whitened
    by Cholesky factors of the two norm Gram matrices (dense; sizes stay at
    2n + 1).
    """
    Z = _whitened_coupling(mesh, m)
    sigma = np.linalg.svd(Z, compute_uv=False)
    return InfSupReport(n=mesh.n, delta_T=float(sigma[-1]), psi_id=psi_id, mesh_id=mesh_id)


def infsup_witness_sup(mesh: Mesh, m: MomentTable) -> float:
    """Best normalized test response to the trial pair u = 1, p = 0.

    This particular trial direction has unit graph norm and is the one along
    which unstable weighting functions lose the inf-sup bound as n grows.
    """
    G2 = _vnorm_gram_test(mesh, m)
    try:
        L2 = np.linalg.cholesky(G2)
    except np.linalg.LinAlgError as exc:
        raise ValueError("test-norm Gram matrix is not positive definite") from exc
    xi = np.concatenate([np.ones(mesh.n), np.zeros(mesh.n + 1)])
    y = scipy.linalg.solve_triangular(L2, _coupling_matrix(mesh, m) @ xi, lower=True)
    return float(np.linalg.norm(y))


# ---------------------------------------------------------------------------
# study drivers
# ---------------------------------------------------------------------------

def mesh_sequence(n_values: Sequence[int], family: str = "uniform",
                  alpha: float = 0.5, beta: float = 2.0, seed: int = 0) -> List[Mesh]:
    """Build one mesh per n; random-regular draws use seed + index."""
    meshes = []
    for i, n in enumerate(sorted(int(n) for n in n_values)):
        if family == "uniform":
            meshes.append(build_uniform(n))
        elif family == "regular":
            meshes.append(build_random_regular(RegularFamilySpec(alpha, beta, n, seed + i)))
        else:
            raise ValueError(f"unknown mesh family {family!r}")
    return meshes


def run_scheme(mesh: Mesh, problem: ManufacturedProblem, scheme: str,
               psi: Optional[WeightingFunction] = None,
               quad_order: int = DEFAULT_QUAD_ORDER) -> DiscreteSolution:
    """Solve one problem on one mesh with the named scheme."""
    if scheme == "fv":
        return solve_fv(mesh, problem.f, quad_order)
    if scheme == "classical":
        return solve_mixed(saddle_classical(mesh, problem.f, quad_order))
    if scheme == "pg":
        if psi is None:
            raise ValueError("the pg scheme needs a weighting function")
        return solve_mixed(saddle_pg(mesh, moments(psi), problem.f, quad_order,
                                     label=f"pg:{psi.label}"))
    raise ValueError(f"unknown scheme {scheme!r}")


def convergence_study(problem: ManufacturedProblem, n_values: Sequence[int],
                      scheme: str = "fv", psi: Optional[WeightingFunction] = None,
                      family: str = "uniform", alpha: float = 0.5, beta: float = 2.0,
                      seed: int = 0, quad_order: int = DEFAULT_QUAD_ORDER) -> ConvergenceTable:
    rows = []
    for mesh in mesh_sequence(n_values, family, alpha, beta, seed):
        solution = run_scheme(mesh, problem, scheme, psi, quad_order)
        rows.append(error_norms(solution, problem, quad_order))
    return ConvergenceTable(rows)


def infsup_sweep(psi: WeightingFunction, n_values: Sequence[int],
                 family: str = "uniform", alpha: float = 0.5, beta: float = 2.0,
                 seed: int = 0) -> List[InfSupReport]:
    m = moments(psi)
    reports = []
    for mesh in mesh_sequence(n_values, family, alpha, beta, seed):
        mesh_id = f"{family}:n={mesh.n}"
        reports.append(infsup_constant(mesh, m, psi_id=psi.label, mesh_id=mesh_id))
    return reports
