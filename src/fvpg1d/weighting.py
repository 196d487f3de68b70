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

A weighting function is a polynomial and nothing else: every psi the paper
studies is one, so each moment and each condition is exact coefficient
algebra, with no quadrature rule anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "WeightingFunction",
    "MomentTable",
    "StabilityConstants",
    "ConditionReport",
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
NON_FINITE_MOMENTS = "weighting-function moments contain NaN or inf"


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
    """A polynomial shape function on [0, 1], coefficients low to high."""

    label: str
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ValueError("a weighting function needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coefficients):  # its moments would not be finite
            raise ValueError(NON_FINITE_MOMENTS)

    @classmethod
    def from_coefficients(cls, coeffs, label: Optional[str] = None) -> "WeightingFunction":
        try:
            coeffs = tuple(float(c) for c in coeffs) or (0.0,)
        except OverflowError:  # an int beyond the float range
            raise ValueError(NON_FINITE_MOMENTS) from None
        if label is None:
            label = "poly:" + ",".join(format(c, "g") for c in coeffs)
        return cls(label=label, coefficients=coeffs)

    def __call__(self, theta):
        return npoly.polyval(theta, self.coefficients)


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


def moments(psi: WeightingFunction) -> MomentTable:
    """The seven moments of psi, integrated exactly on its coefficients."""
    # finite coefficients can still overflow; MomentTable rejects the result
    # with one message, so numpy need not warn on the way there
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


def check_orthogonality(psi: WeightingFunction) -> bool:
    """The (1 - theta) moment vanishes: the cross mass matrix is diagonal."""
    return _orthogonal(moments(psi))


def check_fv_compat(psi: WeightingFunction) -> bool:
    """The theta moment equals one half: the diagonal is the dual widths."""
    return _fv_compatible(moments(psi))


def _orthogonal(m: MomentTable) -> bool:
    return bool(abs(m.m0) <= MOMENT_TOL)


def _fv_compatible(m: MomentTable) -> bool:
    return bool(abs(m.m1 - 0.5) <= MOMENT_TOL)


def check_interp_compat(psi: WeightingFunction) -> bool:
    """Reflection identity psi(theta) + psi(1 - theta) = 1, on coefficients."""
    c = psi.coefficients
    resid = npoly.polysub(npoly.polyadd(c, _poly_reflect(c)), [1.0])
    return bool(np.max(np.abs(resid)) <= POINT_TOL)


@dataclass(frozen=True)
class ConditionReport:
    """Truth values of the four conditions."""

    localization: bool
    orthogonality: bool
    fv_compat: bool
    interp_compat: bool

    def as_dict(self) -> dict:
        return asdict(self)


def condition_report(psi: WeightingFunction, m: Optional[MomentTable] = None) -> ConditionReport:
    """The four conditions; ``m``, when given, is ``moments(psi)``."""
    m = moments(psi) if m is None else m
    return ConditionReport(
        localization=check_localization(psi),
        orthogonality=_orthogonal(m),
        fv_compat=_fv_compatible(m),
        interp_compat=check_interp_compat(psi),
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
    a, b = np.linalg.solve(A, rhs)  # det A = -1/720
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
