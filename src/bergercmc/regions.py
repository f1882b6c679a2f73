"""Polynomial region analysis behind the compact-surface stability bounds.

For t = |C| in [0, 1] and epsilon the sign of 1 - alpha, the quadratic

    P_t(alpha) = A(t) alpha^2 + B(t) alpha + C(t),
    A = -(t^4 + 2 t^2 - 8 eps t + 1),
    B = 2 (t^4 - 4 eps t + 3),
    C = -(1 - t^2)^2,

controls the sign of the test-function integrand F.  P_t(1) = 4 for every
t and the discriminant is 32 (t - eps)^2 (1 + t^2).  The extreme roots
give the constants of interest: t0 (the zero of A for eps = +1), alpha_1
(the maximum of the root curve below 1) and 4/3 (the minimum of the root
curve above 1).
"""

from __future__ import annotations

import math

import numpy as np

from .ambient import as_alpha
from .svgplot import write_csv

ALPHA_CURVE_N = 401  # rows of the root-curve CSV


def region_coefficients(t, epsilon: int):
    """(A, B, C) of P_t for epsilon = +-1; t a float or an array in [0, 1]."""
    if not np.all((np.asarray(t) >= 0.0) & (np.asarray(t) <= 1.0)):
        raise ValueError("t must lie in [0, 1]")
    if epsilon not in (+1, -1):
        raise ValueError("epsilon must be +1 or -1")
    A = -(t**4 + 2.0 * t**2 - 8.0 * epsilon * t + 1.0)
    B = 2.0 * (t**4 - 4.0 * epsilon * t + 3.0)
    C = -((1.0 - t**2) ** 2)
    return A, B, C


def poly_eval(t, epsilon: int, alpha: float):
    """P_t(alpha); equals 4 at alpha = 1 for every t."""
    A, B, C = region_coefficients(t, epsilon)
    return (A * alpha + B) * alpha + C


def t0_constant() -> float:
    """The unique zero of A(t) = -(t^4 + 2t^2 - 8t + 1) in (0, 1)."""
    from scipy.optimize import brentq

    return brentq(lambda t: t**4 + 2.0 * t**2 - 8.0 * t + 1.0, 0.0, 1.0,
                  xtol=1e-14, rtol=8.9e-16)


def alpha_root(t: float, epsilon: int) -> float:
    """The distinguished root alpha(t) of P_t.

    eps = -1: the larger root, always above 1 (minimum 4/3 at t = 1).
    eps = +1: the root inside (0, 1).  The textbook quadratic formula
    divides by A(t), which vanishes at t0; the equivalent factored form
    -2C / (B + sqrt(disc)) is regular across t0 and is used instead.
    """
    A, B, C = region_coefficients(t, epsilon)
    if epsilon == -1:
        disc = 32.0 * (t + 1.0) ** 2 * (1.0 + t**2)
        return (-B - math.sqrt(disc)) / (2.0 * A)
    if t == 1.0:
        return 0.0  # P_1 = 4 alpha^2: double root
    disc = 32.0 * (t - 1.0) ** 2 * (1.0 + t**2)
    return -2.0 * C / (B + math.sqrt(disc))


def critical_constants() -> tuple[float, float, float]:
    """(t0, alpha_1, alpha_hyperbolic): pole of the root formula, the
    maximum of alpha(t) below 1 and the minimum of alpha(t) above 1.

    alpha(t) for eps = +1 rises from 3 - 2 sqrt(2) to a single maximum and
    falls to 0 at t = 1, so a bounded minimization over [0, 1] finds alpha_1;
    alpha(t) for eps = -1 decreases to 4/3 at t = 1 (both shapes are checked
    on a dense grid by the tests).
    """
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda t: -alpha_root(t, +1), bounds=(0.0, 1.0),
                          method="bounded", options={"xatol": 1e-12})
    return t0_constant(), -res.fun, alpha_root(1.0, -1)


def F_nonnegative(p) -> tuple[bool, float]:
    """Is F(t; alpha) = P_t(alpha), eps = sign(1 - alpha), >= 0 on all of t in [0, 1]?

    F is a quartic in t, so its minimum on [0, 1] lies at t = 0, at t = 1
    or at a real critical point of dF/dt (a cubic) inside.  True exactly
    when alpha in [alpha_1, 1) or (1, 4/3].
    """
    alpha = as_alpha(p)
    if alpha == 1.0:
        raise ValueError("F is defined for alpha != 1 (epsilon is the sign of 1 - alpha)")
    e = 1 if alpha < 1.0 else -1
    # dF/dt = A' alpha^2 + B' alpha + C' collects to the cubic
    # -4 (alpha-1)^2 t^3 + (4 - 4 alpha^2) t + 8 eps alpha (alpha - 1)
    c3 = -4.0 * (alpha - 1.0) ** 2
    c1 = 4.0 - 4.0 * alpha**2
    c0 = 8.0 * e * alpha * (alpha - 1.0)
    roots = np.roots([c3, 0.0, c1, c0])
    crit = [float(r.real) for r in roots if abs(r.imag) < 1e-12 and 0.0 <= r.real <= 1.0]
    fmin = float(poly_eval(np.asarray([0.0, 1.0] + crit), e, alpha).min())
    return fmin >= 0.0, fmin


def theorem_area_note() -> str:
    """Known wrinkle: the area-bound display quotes the sphere threshold
    while the statement uses the torus-side constant alpha_1; the artifact
    follows alpha_1."""
    return ("note: the area-bound range is taken as [alpha_1, 1), matching the "
            "stability statement; the source display also shows alpha_0 and the "
            "discrepancy is left unresolved here")


def stability_integrand(p, H: float, c: float) -> float:
    """Integrand of the paired harmonic test functions on a stable surface:

        -4 H^2 - 4 a + ((a - 1)^2 / a) (1 - c^2)^2,

    nonpositive on 1/3 <= a < 1 for all H >= 0, |c| <= 1, vanishing only
    at (1/3, 0, 0) (the Clifford torus case).
    """
    a = as_alpha(p)
    return -4.0 * H**2 - 4.0 * a + ((a - 1.0) ** 2 / a) * (1.0 - c**2) ** 2


def alpha_curve_csv(path) -> None:
    """CSV of the two root curves: columns t, alpha_root_plus, alpha_root_minus."""
    ts = np.linspace(0.0, 1.0, ALPHA_CURVE_N).tolist()
    write_csv(path, ("t", "alpha_root_plus", "alpha_root_minus"),
              [(t, alpha_root(t, +1), alpha_root(t, -1)) for t in ts])
