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

import numpy as np

# Largest accepted mean curvature, well below where the routes break: the
# torus radius r2^2 = 1/2 - H/(2 sqrt(1 + H^2)) rounds to 0 from about
# H = 1e8, and the sphere's spectrum and closed forms fail from about
# H = 1e77.
H_MAX = 1e6
# Smallest accepted alpha: below about 2.5e-13 the torus threshold H*(a) exceeds
# H_MAX, and from 2^-54 down 1 - a rounds to 1, where the sphere closed forms fail.
ALPHA_MIN = 1e-12
# Largest accepted alpha, the mirror of ALPHA_MIN: from about 2^53 the torus
# form's entries 1/a + 1 round to 1 and its reduction divides by zero.
ALPHA_MAX = 1e12


class ContractViolation(ValueError):
    """An input precondition (ALPHA_MIN <= alpha <= ALPHA_MAX, 0 <= H <= H_MAX) failed."""


def as_alpha(p) -> float:
    """Accept an alpha in [ALPHA_MIN, ALPHA_MAX]."""
    a = float(p)
    if not ALPHA_MIN <= a <= ALPHA_MAX:
        raise ContractViolation(f"alpha must be positive, at least {ALPHA_MIN:g} and "
                                f"at most {ALPHA_MAX:g}, got {a}")
    return a


def as_H(H) -> float:
    """Accept a mean curvature 0 <= H <= H_MAX (so not NaN or inf)."""
    h = float(H)
    if not 0.0 <= h <= H_MAX:
        raise ContractViolation(f"mean curvature H must lie in [0, {H_MAX:g}], got {h}")
    return h


def metric_eval(alpha: float, q, x, y):
    """g_a(x, y) for tangent vectors x, y at the point q of S^3.

    q, x and y are arrays of shape (..., 4) that broadcast together; the
    result has their common leading shape (a float for single vectors).
    """
    V = frame_at(q)[0]
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return (x * y).sum(axis=-1) + (alpha - 1.0) * (x * V).sum(axis=-1) * (y * V).sum(axis=-1)


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
