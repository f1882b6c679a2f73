"""Ambient geometry of the Berger spheres.

The Berger sphere is the unit 3-sphere in C^2 carrying the 1-parameter
family of metrics

    g_a(X, Y) = <X, Y> + (a - 1) <X, V> <Y, V>,      a > 0,

where <,> is the round metric and V_(z,w) = (iz, iw) is the Hopf field.
a = 1 is the round sphere.  Points and tangent vectors are stored as
4 real coordinates (Re z, Im z, Re w, Im w); the complex structure is
applied by component shuffles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POINT_TOL = 1e-12
TANGENT_TOL = 1e-10
# Largest accepted mean curvature, well below where the routes break: the
# torus radius r2^2 = 1/2 - H/(2 sqrt(1 + H^2)) rounds to 0 from about
# H = 1e8, and the sphere's spectrum and closed forms fail from about
# H = 1e77.
H_MAX = 1e6


class ContractViolation(ValueError):
    """A geometric precondition (base-point match, tangency, ...) failed."""


@dataclass(frozen=True)
class BergerParam:
    """Metric deformation parameter of the Berger sphere (alpha > 0)."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ContractViolation(f"alpha must be positive, got {self.alpha}")


def as_alpha(p) -> float:
    """Accept a BergerParam or a bare positive float."""
    a = p.alpha if isinstance(p, BergerParam) else float(p)
    if not (a > 0.0 and math.isfinite(a)):
        raise ContractViolation(f"alpha must be positive, got {a}")
    return a


def as_H(H) -> float:
    """Accept a mean curvature 0 <= H <= H_MAX (so not NaN or inf)."""
    h = float(H)
    if not 0.0 <= h <= H_MAX:
        raise ContractViolation(f"mean curvature H must lie in [0, {H_MAX:g}], got {h}")
    return h


@dataclass(frozen=True)
class AmbientPoint:
    """A point of S^3, stored as (Re z, Im z, Re w, Im w)."""

    coords: tuple

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (4,):
            raise ContractViolation("ambient point needs 4 real coordinates")
        if abs(float(c @ c) - 1.0) > POINT_TOL:
            raise ContractViolation(f"|z|^2+|w|^2 = {float(c @ c)} != 1")
        object.__setattr__(self, "coords", tuple(float(x) for x in c))

    @staticmethod
    def from_complex(z: complex, w: complex) -> "AmbientPoint":
        return AmbientPoint((z.real, z.imag, w.real, w.imag))

    @property
    def z(self) -> complex:
        return complex(self.coords[0], self.coords[1])

    @property
    def w(self) -> complex:
        return complex(self.coords[2], self.coords[3])

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class AmbientVector:
    """A tangent vector of S^3 at a base point."""

    base: AmbientPoint
    components: tuple

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if c.shape != (4,):
            raise ContractViolation("ambient vector needs 4 real components")
        if abs(float(c @ self.base.array())) > TANGENT_TOL:
            raise ContractViolation("vector is not tangent to S^3")
        object.__setattr__(self, "components", tuple(float(x) for x in c))

    def array(self) -> np.ndarray:
        return np.asarray(self.components, dtype=float)


def _mul_i(c: np.ndarray) -> np.ndarray:
    """Multiply (z, w) by i, acting on 4 real coordinates."""
    return np.array([-c[1], c[0], -c[3], c[2]])


def killing_vector(q: np.ndarray) -> np.ndarray:
    """V = (iz, iw) at the point with real coordinates q (raw array form)."""
    return _mul_i(np.asarray(q, dtype=float))


def killing_field(q: AmbientPoint) -> AmbientVector:
    """The Hopf Killing field V_(z,w) = (iz, iw); g_a(V, V) = a for every a."""
    return AmbientVector(q, tuple(killing_vector(q.array())))


def metric_eval(p, X: AmbientVector, Y: AmbientVector) -> float:
    """Evaluate g_a(X, Y) for tangent vectors at a common base point."""
    a = as_alpha(p)
    if X.base != Y.base:
        raise ContractViolation("metric_eval needs vectors at the same base point")
    return metric_eval_raw(a, X.base.array(), X.array(), Y.array())


def metric_eval_raw(alpha: float, base: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """g_a(x, y) on raw arrays, skipping the dataclass checks (hot paths)."""
    v = killing_vector(base)
    return float(x @ y + (alpha - 1.0) * (x @ v) * (y @ v))


def hopf_project(q: AmbientPoint) -> np.ndarray:
    """Hopf fibration onto the 2-sphere of radius 1/2 in R^3.

    (z, w) |-> (z wbar, (|z|^2 - |w|^2)/2), the complex first factor packed
    into two real slots.
    """
    z, w = q.z, q.w
    zw = z * w.conjugate()
    return np.array([zw.real, zw.imag, (abs(z) ** 2 - abs(w) ** 2) / 2.0])


def total_volume(p) -> float:
    """Riemannian volume of the Berger sphere: 2 pi^2 sqrt(a)."""
    return 2.0 * math.pi**2 * math.sqrt(as_alpha(p))


def frame_at(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round-orthonormal global frame (V, E1, E2) at q = (z, w).

    V = (iz, iw), E1 = (-wbar, zbar), E2 = (-i wbar, i zbar).  All three are
    unit and mutually orthogonal for the round metric; V is vertical, E1 and
    E2 are horizontal, so {V/sqrt(a), E1, E2} is g_a-orthonormal.  A stack
    of points q of shape (..., 4) gives frame vectors of the same shape.
    """
    x1, y1, x2, y2 = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    V = np.stack([-y1, x1, -y2, x2], axis=-1)
    E1 = np.stack([-x2, y2, x1, -y1], axis=-1)
    E2 = np.stack([-y2, -x2, y1, x1], axis=-1)
    return V, E1, E2


def random_point(rng: np.random.Generator) -> AmbientPoint:
    """Uniform random point of S^3 (for property tests)."""
    c = rng.standard_normal(4)
    c /= np.linalg.norm(c)
    return AmbientPoint(tuple(c))


def random_tangent(rng: np.random.Generator, q: AmbientPoint) -> AmbientVector:
    """Random tangent vector at q (not normalised)."""
    c = rng.standard_normal(4)
    qa = q.array()
    c -= (c @ qa) * qa
    return AmbientVector(q, tuple(c))
