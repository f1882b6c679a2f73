"""Polynomial region analysis behind the compact-surface stability bounds.

For t = |C| in [0, 1] and epsilon the sign of 1 - alpha, the quadratic

    P_t(alpha) = A(t) alpha^2 + B(t) alpha + C(t),
    A = -(t^4 + 2 t^2 - 8 eps t + 1),
    B = 2 (t^4 - 4 eps t + 3),
    C = -(1 - t^2)^2,

controls the sign of the test-function integrand F.  P_t(1) = 4 for every
t and the discriminant is 32 (t - eps)^2 (1 + t^2).  The extreme roots
give the constants of interest: t0 (the zero of A for eps = +1), alpha_1
(the maximum of the root curve below 1, the real root of a cubic) and 4/3
(the minimum of the root curve above 1).
"""

from __future__ import annotations

import math

from .ambient import as_alpha, brentq, linspace

ALPHA_CURVE_N = 401  # rows of the root-curve CSV


def region_coefficients(t, epsilon: int):
    """(A, B, C) of P_t for epsilon = +-1; t a float or an array in [0, 1]."""
    if isinstance(t, (int, float)):
        inside = 0.0 <= t <= 1.0
    else:
        import numpy as np

        inside = np.all((np.asarray(t) >= 0.0) & (np.asarray(t) <= 1.0))
    if not inside:
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
    falls to 0 at t = 1 (checked on a dense grid by the tests).  There
    P_t(alpha) and dP_t/dt vanish together, so alpha_1 is a root of their
    resultant in t, 4096 a^3 (a - 1)^8 (23 a^3 - 26 a^2 + 23 a - 4) (sympy);
    the cubic factor is strictly increasing (its derivative has no real
    root) and alpha_1 is its one real root.  alpha(t) for eps = -1
    decreases to 4/3 at t = 1.
    """
    alpha_1 = brentq(lambda a: ((23.0 * a - 26.0) * a + 23.0) * a - 4.0, 0.0, 1.0,
                     xtol=1e-14, rtol=8.9e-16)
    return t0_constant(), alpha_1, alpha_root(1.0, -1)


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
    from .svgplot import write_csv  # the one writer outside the CLI; the checks need no svgplot
    ts = linspace(0.0, 1.0, ALPHA_CURVE_N)
    write_csv(path, ("t", "alpha_root_plus", "alpha_root_minus"),
              [(t, alpha_root(t, +1), alpha_root(t, -1)) for t in ts])
