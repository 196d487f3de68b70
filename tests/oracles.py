"""Independent reference computations used to pin expected test values.

Nothing in here imports from the package under test.  Four tools:

* exact polynomial calculus over ``fractions.Fraction`` (integration of the
  weighting-function moments without any floating-point rounding);
* a composite Simpson rule (independent of Gauss-Legendre) for callables;
* a brute-force inf-sup oracle that assembles every matrix by pointwise
  quadrature over basis functions and extracts the constant from a
  generalized eigenproblem instead of a whitened SVD;
* a dense test of whether the Schur complement of a mixed system is
  positive definite.
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
# dense Schur-complement test
# ---------------------------------------------------------------------------

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
