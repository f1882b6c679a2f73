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
from dataclasses import dataclass

import numpy as np

from .ambient import as_alpha
from .svgplot import write_csv


@dataclass(frozen=True)
class RegionPolynomial:
    t: float
    epsilon: int
    A: float
    B: float
    C: float

    def __call__(self, alpha: float) -> float:
        return (self.A * alpha + self.B) * alpha + self.C

    @property
    def discriminant(self) -> float:
        return self.B**2 - 4.0 * self.A * self.C


def _coefficients(t, e: float):
    """(A, B, C) of P_t for the sign e = +-1.0; t a float or an array."""
    A = -(t**4 + 2.0 * t**2 - 8.0 * e * t + 1.0)
    B = 2.0 * (t**4 - 4.0 * e * t + 3.0)
    C = -((1.0 - t**2) ** 2)
    return A, B, C


def region_polynomial(t: float, epsilon: int) -> RegionPolynomial:
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if epsilon not in (+1, -1):
        raise ValueError("epsilon must be +1 or -1")
    A, B, C = _coefficients(t, float(epsilon))
    return RegionPolynomial(t=float(t), epsilon=epsilon, A=A, B=B, C=C)


def poly_eval(t: float, epsilon: int, alpha: float) -> float:
    """P_t(alpha); equals 4 at alpha = 1 for every t."""
    return region_polynomial(t, epsilon)(alpha)


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
    P = region_polynomial(t, epsilon)
    if epsilon == -1:
        disc = 32.0 * (t + 1.0) ** 2 * (1.0 + t**2)
        return (-P.B - math.sqrt(disc)) / (2.0 * P.A)
    if t == 1.0:
        return 0.0  # P_1 = 4 alpha^2: double root
    disc = 32.0 * (t - 1.0) ** 2 * (1.0 + t**2)
    return -2.0 * P.C / (P.B + math.sqrt(disc))


def critical_constants(scan_points: int = 10001) -> tuple[float, float, float]:
    """(t0, alpha_1, alpha_hyperbolic): pole of the root formula, the
    maximum of alpha(t) below 1 and the minimum of alpha(t) above 1.

    alpha_1 is located by a dense scan refined with bounded minimization;
    the hyperbolic minimum is checked to sit at t = 1 where it equals 4/3.
    """
    from scipy.optimize import minimize_scalar

    t0 = t0_constant()

    ts = np.linspace(0.0, 1.0, scan_points)
    vals = np.array([alpha_root(t, +1) for t in ts])
    i = int(np.argmax(vals))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, scan_points - 1)]
    res = minimize_scalar(lambda t: -alpha_root(t, +1), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-12})
    alpha1 = -res.fun

    vals_h = np.array([alpha_root(t, -1) for t in ts])
    j = int(np.argmin(vals_h))
    if ts[j] != 1.0:
        raise RuntimeError("hyperbolic root minimum expected at t = 1")
    alpha_hyp = alpha_root(1.0, -1)
    return t0, alpha1, alpha_hyp


def F_function(alpha: float, t) -> np.ndarray:
    """F(t; alpha) = P_t(alpha) with eps = sign(1 - alpha), vectorized in t."""
    A, B, C = _coefficients(np.asarray(t, dtype=float), 1.0 if alpha < 1.0 else -1.0)
    return (A * alpha + B) * alpha + C


def F_nonnegative(p, n: int = 2000) -> tuple[bool, float]:
    """Is F(t; alpha) >= 0 on the whole of t in [0, 1]?

    Evaluates F on a grid plus the real critical points of dF/dt (a cubic),
    so the reported minimum is not a grid artifact.  True exactly when
    alpha in [alpha_1, 1) or (1, 4/3].
    """
    alpha = as_alpha(p)
    if alpha == 1.0:
        raise ValueError("F is defined for alpha != 1 (epsilon is the sign of 1 - alpha)")
    if n < 1000:
        raise ValueError("need n >= 1000 grid points")
    e = 1.0 if alpha < 1.0 else -1.0
    ts = np.linspace(0.0, 1.0, n)
    # dF/dt = A' alpha^2 + B' alpha + C' collects to the cubic
    # -4 (alpha-1)^2 t^3 + (4 - 4 alpha^2) t + 8 eps alpha (alpha - 1)
    c3 = -4.0 * (alpha - 1.0) ** 2
    c1 = 4.0 - 4.0 * alpha**2
    c0 = 8.0 * e * alpha * (alpha - 1.0)
    roots = np.roots([c3, 0.0, c1, c0])
    crit = [float(r.real) for r in roots if abs(r.imag) < 1e-12 and 0.0 <= r.real <= 1.0]
    sample = np.concatenate([ts, np.asarray(crit)]) if crit else ts
    vals = F_function(alpha, sample)
    fmin = float(vals.min())
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


def alpha_curve_csv(path, n: int = 401) -> None:
    """CSV of the two root curves: columns t, alpha_root_plus, alpha_root_minus."""
    ts = np.linspace(0.0, 1.0, n).tolist()
    write_csv(path, ("t", "alpha_root_plus", "alpha_root_minus"),
              [(t, alpha_root(t, +1), alpha_root(t, -1)) for t in ts])
