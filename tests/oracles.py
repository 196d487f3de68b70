"""Independent reference computations used to pin expected test values.

Nothing in here imports from the package under test.  The tools:

* exact polynomial calculus over ``fractions.Fraction`` (integration of the
  weighting-function moments without any floating-point rounding);
* a composite Simpson rule (independent of Gauss-Legendre) for callables;
* a brute-force inf-sup oracle that assembles every matrix by pointwise
  quadrature over basis functions and extracts the constant from a
  generalized eigenproblem;
* the dense inf-sup estimator: Gram and coupling matrices built from the
  moment table, whitened by Cholesky factors, smallest singular value, and
  the witness supremum from the same matrices;
* the witness supremum by sequential elimination in extended precision, and
  in closed form on uniform meshes;
* the inf-sup constant in closed form on uniform meshes and its limit as
  n -> infinity, for reflection-compatible psi, from exact moments;
* dense tests of whether the Schur complement of a mixed system and the
  nodal graph-norm Gram matrix are positive definite, a dense copy of a
  tridiagonal band container and a banded product with it;
* per-cell Gauss sums and the three squared error integrals written as one
  expression each, with every (n, order) temporary alive and no blocks, the
  Gauss points summed in the package's pairwise order;
* the nodal gradient that every scheme returns for exact cell loads, in
  closed form from the exact gradient;
* the solve CSV written as one joined text.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg

# ---------------------------------------------------------------------------
# exact polynomial calculus (coefficients low-to-high, Fraction entries)
# ---------------------------------------------------------------------------

def p_make(coeffs):
    return [Fraction(c) for c in coeffs]


def p_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def p_deriv(a):
    if len(a) <= 1:
        return [Fraction(0)]
    return [Fraction(k) * a[k] for k in range(1, len(a))]


def p_reflect(a):
    """Coefficients of p(1 - x)."""
    out = [Fraction(0)] * len(a)
    for k, ak in enumerate(a):
        # (1 - x)^k expanded
        for i in range(k + 1):
            out[i] += ak * Fraction(_binom(k, i)) * (-1) ** i
    return out


def _binom(n, k):
    r = 1
    for i in range(k):
        r = r * (n - i) // (i + 1)
    return r


def p_int01(a):
    """Exact integral of the polynomial over [0, 1]."""
    return sum(ak / Fraction(k + 1) for k, ak in enumerate(a))


def psi_moments_exact(coeffs):
    """The seven weighting-function moments as exact Fractions.

    Keys mirror the package's moment table: m_psi, m1, m0, s, c, sd, cd.
    """
    a = p_make(coeffs)
    ar = p_reflect(a)
    d = p_deriv(a)
    dr = p_reflect(d)
    theta = [Fraction(0), Fraction(1)]
    one_minus = [Fraction(1), Fraction(-1)]
    return {
        "m_psi": p_int01(a),
        "m1": p_int01(p_mul(theta, a)),
        "m0": p_int01(p_mul(one_minus, a)),
        "s": p_int01(p_mul(a, a)),
        "c": p_int01(p_mul(a, ar)),
        "sd": p_int01(p_mul(d, d)),
        "cd": p_int01(p_mul(d, dr)),
    }


# ---------------------------------------------------------------------------
# composite Simpson rule
# ---------------------------------------------------------------------------

def simpson(f, a, b, panels=256):
    """Composite Simpson approximation of the integral of f over [a, b]."""
    if panels < 1:
        raise ValueError("need at least one panel")
    x = np.linspace(a, b, 2 * panels + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


# ---------------------------------------------------------------------------
# brute-force inf-sup oracle
# ---------------------------------------------------------------------------

def _gauss01(order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def oracle_infsup(vertices, psi, dpsi, order=24):
    """Discrete inf-sup constant assembled from scratch.

    ``vertices`` is the mesh 0 = x_0 < ... < x_n = 1; ``psi``/``dpsi``
    evaluate the weighting shape function and its derivative on [0, 1].

    Trial fields are (cell constants, hat-basis nodal values); test fields are
    (cell constants, psi-basis nodal values).  On a cell the left vertex's
    test function is psi(1 - t), the right vertex's is psi(t), in the local
    coordinate t.  Every block is integrated pointwise with Gauss-Legendre of
    the given order, and the constant is the square root of the smallest
    eigenvalue of

        Gamma^T G2^{-1} Gamma  x = lambda G1 x,

    which is the operator statement of min over unit trial spheres of the
    normalized supremum over the test space.
    """
    v = np.asarray(vertices, dtype=float)
    n = v.size - 1
    h = np.diff(v)
    t, w = _gauss01(order)

    # local basis values on the reference cell
    hat_l, hat_r = 1.0 - t, t                   # trial P1
    psi_l, psi_r = psi(1.0 - t), psi(t)         # test shape functions
    dpsi_l, dpsi_r = -dpsi(1.0 - t), dpsi(t)    # their reference derivatives

    Mp = np.zeros((n + 1, n + 1))   # hat mass
    Kp = np.zeros((n + 1, n + 1))   # hat stiffness
    Mq = np.zeros((n + 1, n + 1))   # psi mass
    Kq = np.zeros((n + 1, n + 1))   # psi stiffness
    C = np.zeros((n + 1, n + 1))    # cross mass, C[i, j] = int hat_i psi_j
    Bp = np.zeros((n, n + 1))       # int over cell of hat derivative
    Bq = np.zeros((n, n + 1))       # int over cell of psi-function derivative

    for j in range(n):
        hj = h[j]
        trial = (hat_l, hat_r)
        test = (psi_l, psi_r)
        dtest = (dpsi_l, dpsi_r)
        dtrial = (-np.ones_like(t), np.ones_like(t))
        for a in range(2):
            Bp[j, j + a] = float(w @ dtrial[a])
            Bq[j, j + a] = float(w @ dtest[a])
            for b in range(2):
                Mp[j + a, j + b] += hj * float(w @ (trial[a] * trial[b]))
                Kp[j + a, j + b] += float(w @ (dtrial[a] * dtrial[b])) / hj
                Mq[j + a, j + b] += hj * float(w @ (test[a] * test[b]))
                Kq[j + a, j + b] += float(w @ (dtest[a] * dtest[b])) / hj
                C[j + a, j + b] += hj * float(w @ (trial[a] * test[b]))

    # coupling form, test rows (v, q) by trial columns (u, p)
    G = np.zeros((2 * n + 1, 2 * n + 1))
    G[:n, n:] = Bp         # (div p, v): cell constants integrate p'
    G[n:, :n] = Bq.T       # (u, div q)
    G[n:, n:] = C.T        # (p, q), row q-index, column p-index

    G1 = scipy.linalg.block_diag(np.diag(h), Mp + Kp)
    G2 = scipy.linalg.block_diag(np.diag(h), Mq + Kq)

    A = G.T @ np.linalg.solve(G2, G)
    lam = scipy.linalg.eigh(A, G1, eigvals_only=True)
    return float(np.sqrt(max(lam[0], 0.0)))


# ---------------------------------------------------------------------------
# dense whitened-SVD inf-sup estimator
# ---------------------------------------------------------------------------

def _dense_infsup_blocks(vertices, m):
    """Dense graph-norm Gram matrices G1 (trial), G2 (test) and the coupling
    matrix G, blocks ordered (cells, nodes).

    ``m`` is any object with the moment attributes m0, m1, s, c, sd, cd.
    The trial nodal block is the hat mass matrix plus the hat stiffness
    matrix; the test nodal block adds h (s, c; c, s) + (1/h) (sd, -cd; -cd, sd)
    per cell; G holds (div p, v), (u, div q) and (p, q), test rows by trial
    columns.
    """
    h = np.diff(np.asarray(vertices, dtype=float))
    n = h.size
    dual = 0.5 * (np.append(h, 0.0) + np.append(0.0, h))

    def nodal(diag, off):
        return np.diag(diag) + np.diag(off, k=1) + np.diag(off, k=-1)

    def per_cell(cell, off):
        return nodal(np.append(cell, 0.0) + np.append(0.0, cell), off)

    hat_mass = nodal((2.0 / 3.0) * dual, h / 6.0)
    hat_stiffness = per_cell(1.0 / h, -1.0 / h)
    G1 = scipy.linalg.block_diag(np.diag(h), hat_mass + hat_stiffness)
    G2 = scipy.linalg.block_diag(np.diag(h), per_cell(m.s * h + m.sd / h, m.c * h - m.cd / h))
    B = np.eye(n, n + 1, 1) - np.eye(n, n + 1)
    G = np.zeros((2 * n + 1, 2 * n + 1))
    G[:n, n:] = B                                            # (div p, v)
    G[n:, :n] = B.T                                          # (u, div q)
    G[n:, n:] = nodal(2.0 * m.m1 * dual, m.m0 * h).T         # (p, q)
    return G1, G2, G


def dense_infsup(vertices, m):
    """Smallest singular value of L2^{-1} G L1^{-t}, with L1, L2 the Cholesky
    factors of the two Gram matrices: O(n^3) time, O(n^2) memory."""
    G1, G2, G = _dense_infsup_blocks(vertices, m)
    L1 = np.linalg.cholesky(G1)
    L2 = np.linalg.cholesky(G2)
    Y = scipy.linalg.solve_triangular(L2, G, lower=True)
    Z = scipy.linalg.solve_triangular(L1, Y.T, lower=True).T
    return float(np.linalg.svd(Z, compute_uv=False)[-1])


def dense_witness_sup(vertices, m):
    """||L2^{-1} G xi|| for the trial pair xi = (u = 1, p = 0)."""
    _, G2, G = _dense_infsup_blocks(vertices, m)
    n = (G.shape[0] - 1) // 2
    xi = np.concatenate([np.ones(n), np.zeros(n + 1)])
    y = scipy.linalg.solve_triangular(np.linalg.cholesky(G2), G @ xi, lower=True)
    return float(np.linalg.norm(y))


def longdouble_witness_sup(vertices, m):
    """sqrt(r^t T^{-1} r), r = e_n - e_0, for the nodal Gram matrix T of the
    moment table ``m``: its bands cell = s h + sd/h and off = c h - cd/h formed
    and eliminated node by node in ``np.longdouble``.  The 1/h terms still
    cancel, but in 64 bits of mantissa: within 1.1e-15 of a 60-digit
    elimination for n <= 512, 6.8e-14 at n = 4096."""
    ld = np.longdouble
    h = np.diff(np.asarray(vertices, dtype=float)).astype(ld)
    s, c, sd, cd = (ld(x) for x in (m.s, m.c, m.sd, m.cd))
    cell, off = s * h + sd / h, c * h - cd / h
    diag = np.append(cell, ld(0)) + np.append(ld(0), cell)
    n = h.size
    pivot, y = diag[0], ld(-1)
    acc = y * y / pivot
    for j in range(1, n + 1):
        l = off[j - 1] / pivot
        pivot = diag[j] - l * off[j - 1]
        y = (ld(1) if j == n else ld(0)) - l * y
        acc += y * y / pivot
    return float(np.sqrt(acc))


def uniform_witness_sup(n, m):
    """The witness supremum on the uniform mesh with n cells in closed form.

    Interior rows of T read -g x_{j-1} + 2 (sigma + g) x_j - g x_{j+1} with
    g = |off| and sigma = cell - |off| = (s + c) h + (sd - cd)/h, so with
    cosh kappa = 1 + sigma/g the solution of T x = e_n - e_0 is a sinh, and
    r^t x = 2 tanh(kappa n / 2) / (g sinh kappa).  Needs off < 0."""
    h = 1.0 / n
    g = m.cd / h - m.c * h
    if not g > 0.0:
        raise ValueError("the closed form needs a negative off-diagonal")
    sigma = (m.s + m.c) * h + (m.sd - m.cd) / h
    kappa = 2.0 * np.arcsinh(np.sqrt(sigma / (2.0 * g)))
    return float(np.sqrt(2.0 * np.tanh(0.5 * kappa * n) / (g * np.sinh(kappa))))


def _exact_combinations(coeffs):
    """s + c, c, sd - cd, cd, m1, m0 and m_psi of psi, each formed in exact
    arithmetic and rounded once (the float table's sd - cd is rounding)."""
    e = psi_moments_exact(coeffs)
    return tuple(float(x) for x in (e["s"] + e["c"], e["c"], e["sd"] - e["cd"], e["cd"],
                                    e["m1"], e["m0"], e["m_psi"]))


def uniform_infsup(n, coeffs):
    """delta_T on the uniform mesh with n cells in closed form, for psi with
    psi(t) + psi(1 - t) = 1 given by its coefficients.

    The lowest cosine/sine pair diagonalizes every uniform-mesh operator.  With
    h = 1/n and theta = pi/n, the Gram symbols are
    T_k = 2h (s_k + c_k cos theta) + (2/h) ((sd_k - cd_k) + 2 cd_k sin^2(theta/2))
    for the affine trial table (k = 1) and psi (k = 2), the coupling reads
    mu = 2h (m1 + m0 cos theta) and b = e^{i theta} - 1, and delta_T is the
    smallest singular value of
    diag(T2, h)^{-1/2} [[mu, conj(b)], [b, 0]] diag(T1, h)^{-1/2}."""
    h, theta = 1.0 / n, np.pi / n
    sin2 = np.sin(0.5 * theta) ** 2

    def symbol(sc, c, sd_minus, cd):  # s + c cos(theta) = (s + c) - 2 c sin^2(theta/2)
        return 2.0 * h * (sc - 2.0 * c * sin2) + (2.0 / h) * (sd_minus + 2.0 * cd * sin2)

    trial, test = _exact_combinations([0, 1]), _exact_combinations(coeffs)
    T1, T2 = symbol(*trial[:4]), symbol(*test[:4])
    mu = 2.0 * h * (test[4] + test[5] * np.cos(theta))
    b = np.exp(1j * theta) - 1.0
    A = np.array([[mu / np.sqrt(T1 * T2), np.conj(b) / np.sqrt(T2 * h)],
                  [b / np.sqrt(h * T1), 0.0]])
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def infsup_limit(coeffs):
    """lim delta_T as n -> infinity, for psi with psi(t) + psi(1 - t) = 1: the
    smallest singular value of
    [[2 m_psi / sqrt(tau1 tau2), -i pi / sqrt(tau2)], [i pi / sqrt(tau1), 0]],
    tau_k = 2 (s_k + c_k) + cd_k pi^2 (tau1 = 1 + pi^2 for the affine trial)."""
    trial, test = _exact_combinations([0, 1]), _exact_combinations(coeffs)
    tau1, tau2 = (2.0 * t[0] + t[3] * np.pi ** 2 for t in (trial, test))
    A = np.array([[2.0 * test[6] / np.sqrt(tau1 * tau2), -1j * np.pi / np.sqrt(tau2)],
                  [1j * np.pi / np.sqrt(tau1), 0.0]])
    return float(np.linalg.svd(A, compute_uv=False)[-1])


# ---------------------------------------------------------------------------
# dense Schur-complement test and band containers
# ---------------------------------------------------------------------------

def dense_tridiagonal(T):
    """Dense copy of a tridiagonal matrix stored as ``lower``, ``diag``, ``upper``."""
    return np.diag(T.diag) + np.diag(T.lower, k=-1) + np.diag(T.upper, k=1)


def band_matvec(lower, diag, upper, x):
    """The tridiagonal matrix with these bands times x, with no dense matrix."""
    y = diag * x
    y[1:] += lower * x[:-1]
    y[:-1] += upper * x[1:]
    return y


def schur_is_pd(M_dense):
    """Whether B M^{-1} B^t is positive definite for the (n+1) x (n+1) mass M.

    B is the dense n x (n+1) divergence block with -1, +1 on each row; the
    answer comes from a Cholesky factorization of the explicit complement.
    """
    M = np.asarray(M_dense, dtype=float)
    n = M.shape[0] - 1
    B = np.zeros((n, n + 1))
    for j in range(n):
        B[j, j], B[j, j + 1] = -1.0, 1.0
    S = B @ np.linalg.solve(M, B.T)
    try:
        np.linalg.cholesky(0.5 * (S + S.T))
    except np.linalg.LinAlgError:
        return False
    return True


def gram_is_pd(vertices, m, rtol=1e-12):
    """Whether the nodal graph-norm Gram matrix of the moment table ``m`` is
    positive definite, from a dense Cholesky factorization.

    The matrix sums h (s, c; c, s) + (1/h) (sd, -cd; -cd, sd) over the cells.
    Rounding can let a singular matrix factor with a last pivot near eps, so
    a squared pivot below ``rtol`` times the largest entry counts as zero.
    """
    h = np.diff(np.asarray(vertices, dtype=float))
    cell, off = m.s * h + m.sd / h, m.c * h - m.cd / h
    T = (np.diag(np.append(cell, 0.0) + np.append(0.0, cell))
         + np.diag(off, k=1) + np.diag(off, k=-1))
    try:
        L = np.linalg.cholesky(T)
    except np.linalg.LinAlgError:
        return False
    return bool(np.min(np.diag(L)) ** 2 > rtol * np.abs(T).max())


def _tree_sum(terms):
    """Sum the columns of an (n, order) array by the package's fixed pairwise
    tree: the upper half of the columns is added onto the lower half, the
    middle column of an odd count waits a level."""
    while terms.shape[1] > 1:
        m = terms.shape[1]
        half = m // 2
        terms = np.concatenate((terms[:, :half] + terms[:, m - half:],
                                terms[:, half:m - half]), axis=1)
    return terms[:, 0]


def _cell_points(vertices, order):
    v = np.asarray(vertices, dtype=float)
    h = np.diff(v)
    x, w = _gauss01(order)
    return h, x, w, v[:-1, None] + h[:, None] * x[None, :]


def gauss_cell_sums(vertices, fn, order):
    """sum_k w_k fn(x_jk) for every cell j, unblocked (no factor h_j)."""
    _, _, w, pts = _cell_points(vertices, order)
    values = np.broadcast_to(np.asarray(fn(pts), dtype=float), pts.shape)
    return _tree_sum(values * w[None, :])


def squared_errors(vertices, u_cells, p_nodes, u_exact, p_exact, f, order):
    """Squared L2 errors of u and p and of the divergence -f - p', by per-cell
    Gauss-Legendre quadrature; the package must reproduce them bit for bit."""
    h, x, w, pts = _cell_points(vertices, order)

    def at(fn):
        return np.broadcast_to(np.asarray(fn(pts), dtype=float), pts.shape)

    du = at(u_exact) - u_cells[:, None]
    p_lin = p_nodes[:-1, None] * (1.0 - x)[None, :] + p_nodes[1:, None] * x[None, :]
    dp = at(p_exact) - p_lin
    ddiv = -at(f) - (np.diff(p_nodes) / h)[:, None]
    return tuple(float(np.sum(_tree_sum(d * d * w[None, :]) * h)) for d in (du, dp, ddiv))


# ---------------------------------------------------------------------------
# closed-form discrete gradient
# ---------------------------------------------------------------------------

def nodal_gradient(mesh, p_exact):
    """The vertex gradient of every scheme for exact cell loads.

    The cell rows make p_j - p_0 = -int_0^{x_j} f = u'(x_j) - u'(0), and the
    last gradient row makes the dual-width mean of p vanish, so
    p_j = u'(x_j) - sum_k w_k u'(x_k) / sum_k w_k: the exact gradient minus
    its trapezoid mean.  Only ``mesh.vertices`` is read.
    """
    v = np.asarray(mesh.vertices, dtype=float)
    h = np.diff(v)
    w = 0.5 * (np.append(h, 0.0) + np.append(0.0, h))
    q = np.asarray(p_exact(v), dtype=float)
    return q - (w @ q) / w.sum()


# ---------------------------------------------------------------------------
# the solve CSV as one joined text
# ---------------------------------------------------------------------------

def solve_csv_text(vertices, u_cells, p_nodes):
    """The bytes of a solve CSV, built as one list of lines joined at the end
    (17 significant digits per value): the cell table, then the node table."""
    def fmt(x):
        return format(float(x), ".17g")

    xs = list(map(fmt, np.asarray(vertices).tolist()))
    lines = ["x_left,x_right,u_cell",
             *map(",".join, zip(xs[:-1], xs[1:], map(fmt, np.asarray(u_cells).tolist()))),
             "x_node,p_node",
             *map(",".join, zip(xs, map(fmt, np.asarray(p_nodes).tolist())))]
    return "\n".join(lines) + "\n"
