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
epsilon the reflection defect of ``stability_constants``.  All of it is O(n):
the flux-balance kernel of the solver, a closed-form check that each Gram
matrix is positive definite and a short Lanczos run, no (2n + 1)^2 matrix.
The witness of ``infsup_witness_sup`` reduces the test Gram matrix onto its
two end nodes by pairwise merges of the cells, in numpy alone.  Every psi
quadratic form (these three and ``discrete_norm_q``) reads s +- c and sd -+ cd
from ``_moment_combinations``, cell by cell: no two 1/h terms are subtracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .assembly import (DEFAULT_QUAD_ORDER, SourceFunction, cell_gauss_rule, saddle_classical,
                       saddle_pg)
from .mesh import Mesh, RegularFamilySpec, build_random_regular, build_uniform
from .solver import (SINGULAR_RTOL, DiscreteSolution, SolverError, flux_balance, solve_fv,
                     solve_mixed)
from .weighting import MomentTable, WeightingFunction, builtin_affine, moments

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

INFSUP_RTOL = 1e-10   # Lanczos stop: Ritz residual relative to the Ritz value
INFSUP_MAXITER = 60   # 6-13 steps suffice in the tested cases, whatever n is
DEGENERATE_GRAM = "degenerate weighting function: its Gram matrix is not positive definite"


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
    return cell_gauss_rule(mesh, quad_order, lambda at, x, cells: (at(v),))[0]


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
    against -f.  ``cell_gauss_rule`` sums each squared error over the Gauss
    points of a cell in its fixed pairwise order, block by block; each norm
    is then one ``np.sum`` over the full per-cell array, so the memory is
    three per-cell arrays plus one block of points.
    """
    mesh = solution.mesh
    u, p = solution.u_cells, solution.p_nodes

    def squared_errors(at, x, cells):  # one at a time: a single squared block is alive
        left, right = p[:-1][cells], p[1:][cells]
        d = at(problem.u_exact) - u[cells]
        yield np.square(d, out=d)
        d = left * (1.0 - x)[:, None]
        d += right * x[:, None]
        np.subtract(at(problem.p_exact), d, out=d)
        yield np.square(d, out=d)
        d = np.negative(at(problem.f.f))
        d -= (right - left) / mesh.cell_widths[cells]
        yield np.square(d, out=d)

    sums = cell_gauss_rule(mesh, quad_order, squared_errors, count=3)
    for row in sums:
        row *= mesh.cell_widths
    err_u_sq, err_p_sq, err_div_sq = (float(np.sum(row)) for row in sums)

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

def _moment_combinations(m: MomentTable):
    """s + c, s - c, sd - cd and sd + cd: each a square integral, >= 0 (as
    s + c = 1/2 int (psi(t) + psi(1 - t))^2), formed once from the table; one
    of at most 1e-14 (|x| + |y|) is rounding and counts as 0."""
    pairs = ((m.s, m.c), (m.s, -m.c), (m.sd, -m.cd), (m.sd, m.cd))
    return tuple(0.0 if abs(x + y) <= 1e-14 * (abs(x) + abs(y)) else x + y for x, y in pairs)


def discrete_norm_q(mesh: Mesh, m: MomentTable, coeffs: Sequence[float]):
    """Exact L2 and H1-seminorm of a field in the psi nodal basis.

    On each cell the field is q_j psi(1 - t) + q_{j+1} psi(t) in the local
    coordinate, so with q+- = q_j +- q_{j+1} the squared norms reduce to the
    moment combinations:

        l2^2      = sum_j h_j/2    [ (s + c) q+^2 + (s - c) q-^2 ]
        h1_semi^2 = sum_j 1/(2h_j) [ (sd - cd) q+^2 + (sd + cd) q-^2 ]

    Returns (l2, h1_semi).
    """
    q = np.asarray(coeffs, dtype=float)
    if q.shape != (mesh.n + 1,):
        raise ValueError("need one coefficient per vertex")
    h = mesh.cell_widths
    plus, minus = np.square(q[:-1] + q[1:]), np.square(q[:-1] - q[1:])
    sc_plus, sc_minus, sd_minus, sd_plus = _moment_combinations(m)
    l2_sq = 0.5 * float(np.sum(h * (sc_plus * plus + sc_minus * minus)))
    h1_sq = 0.5 * float(np.sum((sd_minus * plus + sd_plus * minus) / h))
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


def _gram_halves(mesh: Mesh, m: MomentTable):
    """2a and 2b of every cell, for the element matrix
    a (e_l + e_r)(e_l + e_r)^t + b (e_l - e_r)(e_l - e_r)^t of the graph-norm
    Gram matrix of the psi nodal functions:

        2a = (s + c) h + (sd - cd) / h,    2b = (s - c) h + (sd + cd) / h.

    The Gram matrix is positive definite exactly when a > 0 and b > 0 on every
    cell; ValueError otherwise.
    """
    sc_plus, sc_minus, sd_minus, sd_plus = _moment_combinations(m)
    h = mesh.cell_widths
    a2, b2 = sc_plus * h + sd_minus / h, sc_minus * h + sd_plus / h
    if not (np.all(a2 > 0.0) and np.all(b2 > 0.0)):
        raise ValueError(DEGENERATE_GRAM)
    return a2, b2


def _largest_eigenvalue(apply_op: Callable, gram: Callable, start: np.ndarray) -> float:
    """Largest eigenvalue of an operator self-adjoint in <x, y> = x^t gram(y),
    by Lanczos with full reorthogonalization; ``apply_op`` receives gram(x).
    Stops once the Ritz residual |beta_k s_k| <= INFSUP_RTOL * theta_k."""
    basis, alpha, beta = [], [], []
    w, gw = start, gram(start)
    norm = np.sqrt(w @ gw)
    for k in range(min(INFSUP_MAXITER, start.size)):
        basis.append((w / norm, gw / norm))
        w = apply_op(basis[-1][1])
        alpha.append(basis[-1][1] @ w)
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthogonal
            for b, gb in basis:
                w -= (gb @ w) * b
        gw = gram(w)
        norm = np.sqrt(max(w @ gw, 0.0))
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        if norm * abs(s[-1, -1]) <= INFSUP_RTOL * theta[-1] or k + 1 == start.size:
            return float(theta[-1])
        beta.append(norm)
    raise SolverError(f"inf-sup eigensolver did not converge in {INFSUP_MAXITER} steps")


def infsup_constant(mesh: Mesh, m: MomentTable, psi_id: str = "",
                    mesh_id: str = "") -> InfSupReport:
    """Discrete inf-sup constant of the coupling form in the graph norms.

    delta_T = 1/sqrt(theta), theta the largest eigenvalue of G^{-1} G2 G^{-t} G1
    for the coupling matrix G and the trial and test Gram matrices G1, G2.
    Interleaved, G is the symmetric pg saddle matrix: ``flux_balance`` applies
    G^{-1} = G^{-t}.  G is singular, and delta_T = 0, when m_psi = m1 + m0 = 0,
    which a sum within 1e-12 (|m1| + |m0|) is taken to be.  The
    nodal block of each Gram matrix is applied cell by cell from the a and b
    of ``_gram_halves``, as a (x_l + x_r) and b (x_l - x_r) scattered to both
    nodes, so the lowest mode keeps its digits at any n.
    """
    test = [0.5 * x for x in _gram_halves(mesh, m)]  # a and b of every cell
    trial = [0.5 * x for x in _gram_halves(mesh, moments(builtin_affine()))]
    h = mesh.cell_widths

    def gram(halves, x):  # blockdiag(T, diag(h)), interleaved, T from its halves a and b
        (a, b), y, xl, xr = halves, np.empty_like(x), x[0:-1:2], x[2::2]
        s, d = xl + xr, xl - xr
        s *= a
        d *= b
        np.add(s, d, out=y[0:-1:2])
        y[-1] = 0.0
        y[2::2] += s - d
        np.multiply(h, x[1::2], out=y[1::2])
        return y

    def solve(x):  # G^{-1} x = G^{-t} x, interleaved
        y = np.empty_like(x)
        y[0::2], y[1::2] = flux_balance(mesh, m.m1, m.m0, x[1::2], x[0::2])
        return y

    theta = (np.inf if abs(m.m1 + m.m0) <= SINGULAR_RTOL * (abs(m.m1) + abs(m.m0)) else
             _largest_eigenvalue(lambda g1x: solve(gram(test, solve(g1x))),
                                 lambda x: gram(trial, x), np.ones(2 * mesh.n + 1)))
    return InfSupReport(mesh.n, float(1.0 / np.sqrt(theta)), psi_id, mesh_id)


def infsup_witness_sup(mesh: Mesh, m: MomentTable) -> float:
    """Best normalized test response to the trial pair u = 1, p = 0.

    This particular trial direction has unit graph norm and is the one along
    which unstable weighting functions lose the inf-sup bound as n grows.  Its
    response is r = B^t 1 = e_n - e_0 on the nodes and 0 on the cells, so the
    witness sqrt(r^t T^{-1} r) needs only the Schur complement of the test Gram
    matrix T onto the end nodes.  Each cell is the two-port
    diag(sigma_l, sigma_r) + g (e_l - e_r)(e_l - e_r)^t, sigma = 2a and g = b - a
    from ``_gram_halves``; neighbours merge pairwise (the shared node
    eliminated, about log2 n numpy passes, O(n) work) until one two-port is
    left: r^t T^{-1} r = (sigma_l + sigma_r) / (sigma_l sigma_r + g (sigma_l + sigma_r)).
    """
    a2, b2 = _gram_halves(mesh, m)
    left, right, g = a2, a2, 0.5 * (b2 - a2)
    while g.size > 1:
        end = g.size - g.size % 2  # with an odd count the last two-port waits a pass
        g1, g2 = g[0:end:2], g[1:end:2]
        mid = right[0:end:2] + left[1:end:2]  # the shared node's own sigma
        d = mid + g1 + g2
        t = mid / d
        merged = (left[0:end:2] + g1 * t, right[1:end:2] + g2 * t, g1 * g2 / d)
        if end < g.size:
            merged = tuple(np.append(x, y[-1]) for x, y in zip(merged, (left, right, g)))
        left, right, g = merged
    total = left[0] + right[0]
    return float(np.sqrt(total / (left[0] * right[0] + g[0] * total)))


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
