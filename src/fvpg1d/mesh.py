"""Partitions of the unit interval and the uniformly-regular random family.

A mesh is a strictly increasing vertex list 0 = x_0 < ... < x_n = 1.  Besides
the n cell widths it carries the n+1 dual widths: the distance between
midpoints of the two cells meeting at a vertex, halved at the two boundary
vertices.  The dual widths are the natural vertex weights of the schemes in
this package (they show up as mass-matrix row sums and as the denominators of
the discrete gradient).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "RegularFamilySpec",
    "build_uniform",
    "build_random_regular",
    "validate_regular",
]

# slack for endpoint/width comparisons; absorbs cumsum rounding only
_GEOMETRY_TOL = 1e-14
_BAND_SLACK = 1e-12


@dataclass(frozen=True)
class Mesh:
    """Immutable partition of [0, 1] with primal and dual widths."""

    vertices: np.ndarray
    cell_widths: np.ndarray = field(init=False, repr=False)
    dual_widths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float, copy=True)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("a mesh needs at least two vertices")
        if abs(v[0]) > _GEOMETRY_TOL or abs(v[-1] - 1.0) > _GEOMETRY_TOL:
            raise ValueError("mesh must span exactly [0, 1]")
        v[0] = 0.0
        v[-1] = 1.0
        widths = np.diff(v)
        if np.any(widths <= 0.0):
            raise ValueError("vertices must be strictly increasing")
        dual = np.empty(v.size)
        dual[0] = 0.5 * widths[0]
        dual[-1] = 0.5 * widths[-1]
        dual[1:-1] = 0.5 * (widths[:-1] + widths[1:])
        for name, arr in (("vertices", v), ("cell_widths", widths), ("dual_widths", dual)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        """Number of cells."""
        return self.cell_widths.size

    @property
    def h_max(self) -> float:
        return float(self.cell_widths.max())

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.vertices[:-1] + self.vertices[1:])


@dataclass(frozen=True)
class RegularFamilySpec:
    """Parameters of the random uniformly-regular family.

    All cell widths are kept inside [alpha/n, beta/n] with 0 < alpha < 1 < beta < inf,
    so the width ratio of any two cells is bounded by beta/alpha independently
    of n.  ``seed`` makes draws reproducible.
    """

    alpha: float
    beta: float
    n: int
    seed: int

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0 < self.beta < np.inf):
            raise ValueError("need 0 < alpha < 1 < beta < inf")
        if self.n < 1:
            raise ValueError("need at least one cell")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def build_uniform(n: int) -> Mesh:
    """Uniform mesh with n cells of width 1/n."""
    if n < 1:
        raise ValueError("need at least one cell")
    return Mesh(np.arange(n + 1, dtype=float) / n)


def build_random_regular(spec: RegularFamilySpec) -> Mesh:
    """Draw a mesh from the uniformly-regular family.

    Widths are sampled i.i.d. uniformly in [alpha/n, beta/n], rescaled to unit
    sum, and clipped back into the band until both constraints hold; the last
    rounding residual is absorbed by the width with the most slack.  The
    vertices are their prefix sums, repaired only if their rounding leaves the band.
    """
    lo = spec.alpha / spec.n
    hi = spec.beta / spec.n
    rng = np.random.default_rng(spec.seed)
    w = rng.uniform(lo, hi, size=spec.n)
    for _ in range(200):
        w = np.clip(w / w.sum(), lo, hi)
        if abs(w.sum() - 1.0) <= 1e-15:
            break
    r = 1.0 - w.sum()
    if r != 0.0:
        k = int(np.argmax(hi - w)) if r > 0.0 else int(np.argmax(w - lo))
        w[k] += r
    vertices = np.concatenate(([0.0], np.cumsum(w)))
    vertices[-1] = 1.0
    if not _in_band(np.diff(vertices), lo, hi):
        # each prefix sum rounds by < 1 ulp of 1: pull every width 4 ulps inside
        # the band and move the drift of the sums onto the cell with the most slack
        w = np.clip(w, lo + 4.0 * np.finfo(float).eps, hi - 4.0 * np.finfo(float).eps)
        vertices = np.concatenate(([0.0], np.cumsum(w)))
        drift = 1.0 - vertices[-1]
        vertices[1 + int(np.argmax(hi - w) if drift > 0.0 else np.argmax(w - lo)):] += drift
        vertices[-1] = 1.0
        if not _in_band(np.diff(vertices), lo, hi):
            raise RuntimeError("mesh widths failed to reach the regularity band")
    return Mesh(vertices)


def _in_band(w: np.ndarray, lo: float, hi: float) -> bool:
    return bool(w.min() >= lo * (1.0 - _BAND_SLACK) and w.max() <= hi * (1.0 + _BAND_SLACK))


def validate_regular(mesh: Mesh, alpha: float, beta: float) -> bool:
    """True iff every cell width lies in [alpha/n, beta/n].

    Comparisons carry a 1e-12 relative slack so meshes rebuilt from rounded
    vertex coordinates do not fail at the band edges.
    """
    if not (0.0 < alpha < 1.0 < beta < np.inf):
        raise ValueError("need 0 < alpha < 1 < beta < inf")
    return _in_band(mesh.cell_widths, alpha / mesh.n, beta / mesh.n)
