"""Weighting shape functions on [0, 1].

A weighting function psi generates the test space of the Petrov-Galerkin
scheme: on each pair of adjacent cells the nodal test function is an affine
image of psi, rising from 0 to 1 over the left cell and falling back over the
right one (mirrored).  Everything the discrete schemes and their stability
analysis need from psi is a handful of integrals over [0, 1]:

    m_psi = int psi                      m1 = int theta*psi(theta)
    m0    = int (1 - theta)*psi(theta)
    s     = int psi^2                    c  = int psi(theta)*psi(1 - theta)
    sd    = int psi'^2                   cd = int psi'(theta)*psi'(1 - theta)

Four pointwise/integral conditions classify a weighting function:

* localization:  psi(0) = 0 and psi(1) = 1, so the nodal test functions are
  continuous with local support;
* orthogonality: m0 = 0, which makes the trial/test cross mass matrix
  diagonal;
* fv_compat:     m1 = 1/2, which turns that diagonal into the dual widths and
  makes the scheme coincide with the heuristic finite-volume scheme;
* interp_compat: psi(theta) + psi(1 - theta) = 1 identically, the reflection
  identity under which nodal interpolation sums to one inside each cell.

Polynomial weighting functions are integrated exactly via coefficient
algebra; callable ones fall back to Gauss-Legendre quadrature.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "WeightingFunction",
    "MomentTable",
    "StabilityConstants",
    "ConditionReport",
    "gauss_legendre",
    "moments",
    "stability_constants",
    "check_localization",
    "check_orthogonality",
    "check_fv_compat",
    "check_interp_compat",
    "condition_report",
    "builtin_affine",
    "builtin_spline",
    "design_cubic",
    "perturbed_family",
]

POINT_TOL = 1e-12  # pointwise conditions (localization, reflection identity)
MOMENT_TOL = 1e-12  # integral conditions (orthogonality, fv compatibility)
DEFAULT_QUAD_ORDER = 16
_FD_STEP = 1e-6
MAX_QUAD_ORDER = 32
NON_FINITE_MOMENTS = "weighting-function moments contain NaN or inf"


def gauss_legendre(order: int):
    """Gauss-Legendre rule mapped to [0, 1].

    Returns (nodes, weights); the weights are positive and sum to one, and the
    rule integrates polynomials up to degree 2*order - 1 exactly.
    """
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order must be in [1, {MAX_QUAD_ORDER}]")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


# ---------------------------------------------------------------------------
# polynomial coefficient calculus (low-to-high order)
# ---------------------------------------------------------------------------

def _poly_integral_01(coeffs) -> float:
    c = np.asarray(coeffs, dtype=float)
    return float(np.sum(c / np.arange(1.0, c.size + 1.0)))


def _poly_reflect(coeffs) -> np.ndarray:
    """Coefficients of p(1 - x) given those of p(x)."""
    c = np.asarray(coeffs, dtype=float)
    out = np.zeros_like(c)
    for k, a in enumerate(c):
        if a == 0.0:
            continue
        for i in range(k + 1):
            out[i] += a * math.comb(k, i) * (-1.0) ** i
    return out


@dataclass(frozen=True)
class WeightingFunction:
    """A shape function on [0, 1] together with its derivative.

    ``kind`` is either ``"polynomial"`` (exact coefficient algebra, low-to-high
    coefficients) or ``"callable"`` (arbitrary vectorized evaluator; the
    derivative defaults to a central difference with step 1e-6, which assumes
    the evaluator tolerates arguments slightly outside [0, 1]).
    """

    label: str
    kind: str
    coefficients: Optional[tuple] = None
    _eval: Optional[Callable] = None
    _deriv: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("polynomial", "callable"):
            raise ValueError("kind must be 'polynomial' or 'callable'")
        if self.kind == "polynomial" and not self.coefficients:
            raise ValueError("polynomial weighting needs coefficients")
        if self.kind == "callable" and self._eval is None:
            raise ValueError("callable weighting needs an evaluator")

    @classmethod
    def from_coefficients(cls, coeffs, label: Optional[str] = None) -> "WeightingFunction":
        coeffs = tuple(float(c) for c in coeffs)
        if not all(math.isfinite(c) for c in coeffs):  # its moments would not be finite
            raise ValueError(NON_FINITE_MOMENTS)
        if not coeffs:
            coeffs = (0.0,)
        if label is None:
            label = "poly:" + ",".join(format(c, "g") for c in coeffs)
        return cls(label=label, kind="polynomial", coefficients=coeffs)

    @classmethod
    def from_callable(cls, func: Callable, deriv: Optional[Callable] = None,
                      label: str = "callable") -> "WeightingFunction":
        return cls(label=label, kind="callable", _eval=func, _deriv=deriv)

    def __call__(self, theta):
        if self.kind == "polynomial":
            return npoly.polyval(theta, self.coefficients)
        return self._eval(theta)

    def deriv(self, theta):
        if self.kind == "polynomial":
            d = npoly.polyder(np.asarray(self.coefficients, dtype=float))
            return npoly.polyval(theta, d)
        if self._deriv is not None:
            return self._deriv(theta)
        t = np.asarray(theta, dtype=float)
        return (self._eval(t + _FD_STEP) - self._eval(t - _FD_STEP)) / (2.0 * _FD_STEP)


@dataclass(frozen=True)
class MomentTable:
    """The seven integrals of a weighting function used downstream."""

    m_psi: float  # int psi
    m1: float     # int theta * psi(theta)
    m0: float     # int (1 - theta) * psi(theta)
    s: float      # int psi^2
    c: float      # int psi(theta) * psi(1 - theta)
    sd: float     # int psi'^2
    cd: float     # int psi'(theta) * psi'(1 - theta)

    def __post_init__(self):
        if not np.isfinite(astuple(self)).all():
            raise ValueError(NON_FINITE_MOMENTS)
        scale = 1.0 + abs(self.s) + abs(self.sd)
        if abs(self.m_psi - (self.m0 + self.m1)) > 1e-10 * scale:
            raise ValueError("inconsistent moments: m_psi must equal m0 + m1")
        # Cauchy-Schwarz; the reflection integral cannot exceed the square one
        if self.s < abs(self.c) - 1e-12 * scale or self.sd < abs(self.cd) - 1e-12 * scale:
            raise ValueError("inconsistent moments: cross terms exceed the Cauchy-Schwarz bound")


@dataclass(frozen=True)
class StabilityConstants:
    """Constants controlling the discrete norms and the inf-sup behaviour.

    delta bounds the psi-norm of a nodal field from below against its hat-basis
    norm, delta_tilde from above; epsilon measures how far the reflection
    identity fails at the gradient level (zero exactly when interp_compat
    holds); K is the continuity constant of the coupling form.
    """

    delta: float
    delta_tilde: float
    epsilon: float
    K: float


def moments(psi: WeightingFunction, order: int = DEFAULT_QUAD_ORDER) -> MomentTable:
    """Integrate the seven moments of psi.

    Polynomial weighting functions are integrated exactly (the quadrature
    order is ignored); callables use the Gauss-Legendre rule of the given
    order for every integral.
    """
    if psi.kind == "polynomial":
        # finite coefficients can still overflow; MomentTable rejects the
        # result with one message, so numpy need not warn on the way there
        with np.errstate(over="ignore", invalid="ignore"):
            c = np.asarray(psi.coefficients, dtype=float)
            cr = _poly_reflect(c)
            d = npoly.polyder(c) if c.size > 1 else np.zeros(1)
            dr = _poly_reflect(d)
            return MomentTable(
                m_psi=_poly_integral_01(c),
                m1=_poly_integral_01(npoly.polymul([0.0, 1.0], c)),
                m0=_poly_integral_01(npoly.polymul([1.0, -1.0], c)),
                s=_poly_integral_01(npoly.polymul(c, c)),
                c=_poly_integral_01(npoly.polymul(c, cr)),
                sd=_poly_integral_01(npoly.polymul(d, d)),
                cd=_poly_integral_01(npoly.polymul(d, dr)),
            )
    x, w = gauss_legendre(order)
    v = np.asarray(psi(x), dtype=float)
    vr = np.asarray(psi(1.0 - x), dtype=float)
    dv = np.asarray(psi.deriv(x), dtype=float)
    dvr = np.asarray(psi.deriv(1.0 - x), dtype=float)
    return MomentTable(
        m_psi=float(w @ v),
        m1=float(w @ (x * v)),
        m0=float(w @ ((1.0 - x) * v)),
        s=float(w @ (v * v)),
        c=float(w @ (v * vr)),
        sd=float(w @ (dv * dv)),
        cd=float(w @ (dv * dvr)),
    )


def stability_constants(m: MomentTable) -> StabilityConstants:
    delta = m.s - abs(m.c)
    delta_tilde = m.s
    epsilon = m.sd - m.cd
    K = (4.0 / 3.0) * (1.0 + math.sqrt(max(12.0 * delta_tilde, 0.0)))
    return StabilityConstants(delta=delta, delta_tilde=delta_tilde, epsilon=epsilon, K=K)


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------

def check_localization(psi: WeightingFunction) -> bool:
    """psi(0) = 0 and psi(1) = 1 within the pointwise tolerance."""
    return bool(abs(float(psi(0.0))) <= POINT_TOL
                and abs(float(psi(1.0)) - 1.0) <= POINT_TOL)


def check_orthogonality(psi: WeightingFunction, order: int = DEFAULT_QUAD_ORDER) -> bool:
    """The (1 - theta) moment vanishes: the cross mass matrix is diagonal."""
    return _orthogonal(moments(psi, order))


def check_fv_compat(psi: WeightingFunction, order: int = DEFAULT_QUAD_ORDER) -> bool:
    """The theta moment equals one half: the diagonal is the dual widths."""
    return _fv_compatible(moments(psi, order))


def _orthogonal(m: MomentTable) -> bool:
    return bool(abs(m.m0) <= MOMENT_TOL)


def _fv_compatible(m: MomentTable) -> bool:
    return bool(abs(m.m1 - 0.5) <= MOMENT_TOL)


def check_interp_compat(psi: WeightingFunction, sample_count: int = 33) -> bool:
    """Reflection identity psi(theta) + psi(1 - theta) = 1.

    Polynomials are checked exactly on coefficients; callables on
    ``sample_count`` Chebyshev-distributed sample points.
    """
    if sample_count < 3:
        raise ValueError("sample_count must be at least 3")
    if psi.kind == "polynomial":
        resid = npoly.polysub(npoly.polyadd(psi.coefficients, _poly_reflect(psi.coefficients)), [1.0])
        return bool(np.max(np.abs(resid)) <= POINT_TOL)
    k = np.arange(sample_count)
    theta = 0.5 * (1.0 - np.cos((2.0 * k + 1.0) * np.pi / (2.0 * sample_count)))
    resid = np.asarray(psi(theta), dtype=float) + np.asarray(psi(1.0 - theta), dtype=float) - 1.0
    return bool(np.max(np.abs(resid)) <= POINT_TOL)


@dataclass(frozen=True)
class ConditionReport:
    """Truth values of the four conditions, plus the tolerances used."""

    localization: bool
    orthogonality: bool
    fv_compat: bool
    interp_compat: bool
    point_tol: float = POINT_TOL
    moment_tol: float = MOMENT_TOL

    def as_dict(self) -> dict:
        return {
            "localization": self.localization,
            "orthogonality": self.orthogonality,
            "fv_compat": self.fv_compat,
            "interp_compat": self.interp_compat,
        }


def condition_report(psi: WeightingFunction, order: int = DEFAULT_QUAD_ORDER,
                     sample_count: int = 33, m: Optional[MomentTable] = None) -> ConditionReport:
    """The four conditions; ``m``, when given, is ``moments(psi, order)``."""
    m = moments(psi, order) if m is None else m
    return ConditionReport(
        localization=check_localization(psi),
        orthogonality=_orthogonal(m),
        fv_compat=_fv_compatible(m),
        interp_compat=check_interp_compat(psi, sample_count),
    )


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def builtin_affine() -> WeightingFunction:
    """psi(theta) = theta: the test space degenerates to the hat functions and
    the Petrov-Galerkin scheme becomes the classical mixed scheme."""
    return WeightingFunction.from_coefficients([0.0, 1.0], label="affine")


def builtin_spline() -> WeightingFunction:
    """The cubic satisfying localization, orthogonality and fv_compat.

    Its nodal test functions make the cross mass matrix equal to the dual-width
    diagonal, so the Petrov-Galerkin scheme reproduces the heuristic
    finite-volume scheme; the reflection identity holds as well.
    """
    return WeightingFunction.from_coefficients([0.0, -9.0, 30.0, -20.0], label="spline")


def _cubic_ansatz_solution():
    """Solve the 2x2 moment system for psi(x) = x*(1 + a(1-x) + b(1-x)^2).

    The two conditions int psi = 1/2 and int x*psi = 1/2 (together equivalent
    to orthogonality and fv compatibility for this ansatz) read
    a/6 + b/12 = 0 and a/12 + b/30 = 1/6.
    """
    A = np.array([[1.0 / 6.0, 1.0 / 12.0],
                  [1.0 / 12.0, 1.0 / 30.0]])
    rhs = np.array([0.0, 1.0 / 6.0])
    try:
        a, b = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:  # fixed well-conditioned system; guard anyway
        raise RuntimeError("cubic ansatz system is singular") from exc
    return float(a), float(b)


def design_cubic() -> WeightingFunction:
    """Re-derive the built-in cubic from its defining moment conditions."""
    a, b = _cubic_ansatz_solution()
    # x*(1 + a(1-x) + b(1-x)^2) expanded into monomials
    coeffs = [0.0, 1.0 + a + b, -(a + 2.0 * b), b]
    return WeightingFunction.from_coefficients(coeffs, label="spline")


# x(1-x)(1 - 5x(1-x)): symmetric about 1/2 and with vanishing mean and
# first moment, so adding it preserves localization, orthogonality and
# fv_compat while breaking the reflection identity.
_BUMP_COEFFS = (0.0, 1.0, -6.0, 10.0, -5.0)


def perturbed_family(c: float) -> WeightingFunction:
    """The built-in cubic plus c times a symmetric quartic bump.

    For c != 0 the reflection identity fails while the other three conditions
    still hold, which makes this the stock example of a scheme that is
    algebraically identical to finite volumes yet loses uniform stability.
    """
    base = builtin_spline().coefficients + (0.0,)
    coeffs = [b + float(c) * g for b, g in zip(base, _BUMP_COEFFS)]
    return WeightingFunction.from_coefficients(coeffs, label=f"perturbed:{c:g}")
