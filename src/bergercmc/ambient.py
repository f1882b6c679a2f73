"""Ambient geometry of the Berger spheres.

The Berger sphere is the unit 3-sphere in C^2 carrying the 1-parameter
family of metrics

    g_a(X, Y) = <X, Y> + (a - 1) <X, V> <Y, V>,      a > 0,

where <,> is the round metric and V_(z,w) = (iz, iw) is the Hopf field.
a = 1 is the round sphere.  Points and tangent vectors are complex rows (z, w),
read by frame_coordinates on the g_a-orthonormal frame {V/sqrt(a), E1, E2},
E1 = (-conj w, conj z), E2 = i E1; there is no 4-real frame.  The module also holds
what every other module shares: error classes, brentq, even_integral, linspace and the
one set of input checks, as_alpha, as_H and as_count, each raising a ValueError (CLI exit 2).
The numerical modules import numpy in the body of each array route, not when they load,
so the routes on Python floats run without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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
BRENTQ_MAXITER = 100  # scipy.optimize.brentq's default
QUAD_STEP, QUAD_RTOL = 1.0 / 80.0, 1e-14  # even_integral's first step, and error over Int |f|
QUAD_MAX_NODES = 2**20  # even_integral's cap on nodes in [0, cutoff]: arrays of at most 4 MB


class ContractViolation(ValueError):
    """An input precondition (ALPHA_MIN <= alpha <= ALPHA_MAX, 0 <= H <= H_MAX) failed."""


class NumericalError(RuntimeError):
    """A computation broke one of its numerical contracts (CLI exit code 3)."""


class ConsistencyError(NumericalError):
    """Two independent evaluation routes disagreed beyond tolerance."""


class QuadratureError(NumericalError):
    """even_integral missed its error tolerance."""


@dataclass(frozen=True)
class StabilityVerdict:
    """A sphere's or torus's stability: stable iff margin >= 0."""

    stable: bool
    margin: float
    alpha: float
    H: float


def as_alpha(p) -> float:
    """Accept an alpha in [ALPHA_MIN, ALPHA_MAX]."""
    a = float(p)
    if not ALPHA_MIN <= a <= ALPHA_MAX:
        raise ContractViolation(f"alpha must be positive, at least {ALPHA_MIN:g} and "
                                f"at most {ALPHA_MAX:g}, got {a}")
    return a


def as_H(H):
    """Accept a mean curvature 0 <= H <= H_MAX (so not NaN or inf): a number, returned
    as a float, or an array, returned as it is once its min and max pass."""
    np = sys.modules.get("numpy")  # not loaded, so H is no array
    if np is not None and isinstance(H, np.ndarray):
        as_H(H.min())  # a NaN entry propagates to the min and the max,
        as_H(H.max())  # so these two calls check every entry
        return H
    h = float(H)
    if not 0.0 <= h <= H_MAX:
        raise ContractViolation(f"mean curvature H must lie in [0, {H_MAX:g}], got {h}")
    return h


def as_count(n, lo: int, hi, name: str) -> int:
    """Accept a size lo <= n <= hi: a Python or numpy integer, not a bool or a float."""
    np = sys.modules.get("numpy")  # not loaded, so n is no numpy integer
    integer = isinstance(n, int) or (np is not None and isinstance(n, np.integer))
    if isinstance(n, bool) or not integer or not lo <= n <= hi:
        raise ValueError(f"need {lo} <= {name} <= {hi}, got {n!r}")
    return int(n)


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """numpy.linspace(lo, hi, n), n >= 2, as a list of floats equal to the bit: entry i
    is i step + lo, step = (hi - lo)/(n - 1), and the last is hi."""
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [float(hi)]


def brentq(f, a, b, xtol=2e-12, rtol=8.881784197001252e-16) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign: Brent's method
    (Algorithms for Minimization without Derivatives, 1973, ch. 4), transcribed
    step for step from scipy.optimize.brentq's C code, so it takes the same
    iterates and returns the same float.  The root is within xtol + rtol |x|;
    like scipy's default, it gives up after BRENTQ_MAXITER steps."""
    def fx(x):
        y = float(f(x))
        if y != y:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return y

    xpre, xcur = float(a), float(b)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {BRENTQ_MAXITER} iterations.")


def even_integral(f, cutoff: float) -> float:
    """Int f dx over [-cutoff, cutoff], f even and mapping arrays of x to arrays, by the
    trapezoidal rule in x, exponentially convergent for integrands analytic in a strip
    (Trefethen-Weideman, SIAM Review 56, 2014).  The step halves from QUAD_STEP on, at the
    new midpoints only, until T(h) - T(2h) and f(cutoff) are within QUAD_RTOL of Int |f|.
    Raises QuadratureError past QUAD_MAX_NODES, or where Int |f| > 100 max(|T|, 1): the
    rounding of so cancelling an integrand may pass 1e-12 of T unseen by the halving."""
    import numpy as np

    n = max(1, round(cutoff / QUAD_STEP))
    h = cutoff / n
    y = f(np.arange(n + 1) * h)
    total = y.sum() - 0.5 * y[0]  # T(h) = 2 h total: x = 0 is the one node not mirrored
    size = np.abs(y).sum() - 0.5 * abs(y[0])
    edge = abs(y[-1])
    while 2 * n <= QUAD_MAX_NODES:
        y = f((np.arange(n) + 0.5) * h)
        mid = y.sum()
        size += np.abs(y).sum()
        n, h = 2 * n, 0.5 * h
        scale, change = 2.0 * h * size, 2.0 * h * abs(mid - total)  # Int |f|, |T(h) - T(2h)|
        total += mid
        if max(change, edge) <= QUAD_RTOL * scale:
            value = 2.0 * h * total
            if scale > 100.0 * max(abs(value), 1.0):
                raise QuadratureError(f"the integrand cancels: Int f = {value}, Int |f| = {scale}")
            return float(value)
    raise QuadratureError(f"no convergence on {n} nodes: |T(h) - T(2h)| = {change}, f(L) = {edge}")


def total_volume(p) -> float:
    """Riemannian volume of the Berger sphere: 2 pi^2 sqrt(a)."""
    return 2.0 * math.pi**2 * math.sqrt(as_alpha(p))


def frame_coordinates(alpha: float, z, w, uz, uw):
    """The coordinates (u0, u12) of the tangent vector u = (uz, uw) at the point (z, w)
    of S^3 on the g_a-orthonormal frame: u0 = sqrt(a) Im(uz conj z + uw conj w) on
    V/sqrt(a), u12 = z uw - w uz = <u, E1> + i <u, E2> on E1 + i E2, so that
    g_a(u, v) = u0 v0 + Re(u12 conj v12).  Arrays broadcast together."""
    u0 = math.sqrt(alpha) * (uz * z.conjugate() + uw * w.conjugate()).imag
    return u0, z * uw - w * uz
