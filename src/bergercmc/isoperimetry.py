"""Area/volume profiles of the two CMC families and candidate ranking.

Both families have closed-form profiles.  The sphere volume V, on the side
holding V(0) = pi^2 sqrt(a) at the minimal sphere, has the rate

    dV/dH = d(area)/du |_{u = H^2} = -2 K,   K = Int f dA,

where f solves Lf = 1 and K is stability.koiso_integral.  The
first equality is the first-variation identity dA = 2H dV written in
u = H^2, which is regular at H = 0; the second makes the rate the closed
Koiso integral, so the volume falls exactly where the spheres are stable.
sphere_volume reads V from the turning angle Theta and the area A:

    V(H) = 2 pi sqrt(a) Theta(a, H) - H A(a, H)/2.

Proof: at H = 0, Theta = pi/2 and both sides are pi^2 sqrt(a).  With
c = 1 + H^2, differentiating the closed forms gives 2 pi sqrt(a) dTheta/dH =
A/2 - 2 c K and dA/dH = -4 H K, so the right side has the derivative
A/2 - 2 c K - A/2 + 2 H^2 K = -2 K = dV/dH.  The Hopf tori satisfy the same
identity with Theta = pi/2: V_T + H A_T/2 = pi^2 sqrt(a).

tests/float_oracles.py keeps the quadrature of the u-derivative of the area
integrand as an independent check of the rate identity.

The isoperimetric candidate at a prescribed volume is the least-area
stable member of the two families; for 1/3 <= a < 1 that settles the
isoperimetric problem, below 1/3 it is a ranking of the known candidates.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

from .ambient import H_MAX, as_alpha, as_count, as_H, brentq, even_integral, total_volume
from .cmc_spheres import AREA_CUTOFF, area_sphere, turning_angle
from .stability import classify_sphere, koiso_integral
from .tori import classify_torus, torus_area_volume, torus_stability_threshold

SPHERE = "Sphere"
TORUS = "Torus"
PROFILE_MIN_N, PROFILE_MAX_N = 50, 10**6  # fewest and most points of a graded H grid
# sphere_volume = pi sum_n P_n(a) H^-(2n + 1), n = 1 ... 9, from H^2 >= 16 max(a, 4) on,
# where the closed form cancels towards (4 pi/3) H^-3 and the first omitted term is
# below 2e-13 of V; rows (coefficients of P_n, highest power first; denominator), sympy
VOLUME_SERIES = (
    ((4,), 3),
    ((8, -32), 15),
    ((-4, -32, 96), 35),
    ((16, 64, 384, -1024), 315),
    ((-20, -64, -192, -1024, 2560), 693),
    ((56, 160, 384, 1024, 5120, -12288), 3003),
    ((-84, -224, -480, -1024, -2560, -12288, 28672), 6435),
    ((1056, 2688, 5376, 10240, 20480, 49152, 229376, -524288), 109395),
    ((-1716, -4224, -8064, -14336, -25600, -49152, -114688, -524288, 1179648), 230945),
)


# the volume-rate oracle integrates through this module attribute, which callers can wrap
# or replace; bench/tracer.py SPEC wraps it
def quad(f):
    return even_integral(f, AREA_CUTOFF)


# unused since the sphere volume has a closed form; bench/tracer.py SPEC wraps it
def solve_ivp(*args, **kwargs):
    import scipy.integrate
    return scipy.integrate.solve_ivp(*args, **kwargs)


def _pchip_end_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point slope at an end knot, set to 0 where its sign
    differs from the end interval's and capped at 3 m0 where the data turn."""
    import numpy as np

    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flip = np.sign(d) != np.sign(m0)
    steep = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(flip, 0.0, np.where(steep, 3.0 * m0, d))


@dataclass
class IsoperimetricProfile:
    """A family's (area, volume) at the knots H, and between them the monotone
    piecewise-cubic (PCHIP, Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980)
    interpolant of each, with scipy's PchipInterpolator slopes and coefficients,
    so it returns the same floats."""

    family: str
    alpha: float
    H: np.ndarray
    area: np.ndarray
    volume: np.ndarray
    monotone: bool = True
    notes: str = ""

    @cached_property
    def _hermite(self):
        """(knots, [(c0, c1, c2, c3) of area, of volume]) as flat lists of floats
        (few objects for the garbage collector to track), built on first use: on knot
        interval i the interpolant is c3[i] + c2[i] s + c1[i] s^2 + c0[i] s^3,
        s = H - knots[i].  The knot slopes are the weighted harmonic mean of the
        adjacent secants where they agree in sign, else 0, and one-sided at the ends."""
        import numpy as np

        y = np.column_stack([self.area, self.volume])
        h = np.diff(self.H)[:, None]
        m = np.diff(y, axis=0) / h
        d = np.zeros_like(y)
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        agree = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][agree] = 1.0 / whmean[agree]
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        coeffs = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])
        return self.H.tolist(), [c.tolist() for c in coeffs.transpose(2, 0, 1)]

    def _interpolate(self, H: float, col: int) -> float:
        knots, columns = self._hermite
        c0, c1, c2, c3 = columns[col]
        i = min(max(bisect.bisect_right(knots, H) - 1, 0), len(knots) - 2)
        s = float(H) - knots[i]
        return c3[i] + c2[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)

    def area_at(self, H: float) -> float:
        return self._interpolate(H, 0)

    def volume_at(self, H: float) -> float:
        return self._interpolate(H, 1)

    def invert_volume(self, V: float) -> list[float]:
        """All H on the grid range with volume(H) = V (several if non-monotone).

        One array pass finds the knots where V is met and the knot intervals
        whose ends straddle it; each straddling interval gets one brentq root."""
        import numpy as np

        out = []
        vals = self.volume - V
        for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)).tolist():
            if vals[i] == 0.0:
                out.append(float(self.H[i]))
            else:
                out.append(brentq(lambda h: self.volume_at(h) - V,
                                  self.H[i], self.H[i + 1], xtol=1e-12))
        if vals[-1] == 0.0:
            out.append(float(self.H[-1]))
        return out

    @cached_property
    def reach(self) -> tuple[float, float]:
        """The volumes (lo, total - lo) isoperimetric_candidate serves with this
        sphere profile.

        The profile spheres enclose their volumes directly or as the complement
        (at small alpha some exceed the total), the stable tori (H <= H*(a),
        only for a <= 1/3) theirs, and the torus at min(V, total - V) needs a
        mean curvature of at most H_MAX.
        """
        a = self.alpha
        total = total_volume(a)
        lo = min(self.volume.min(), total - self.volume.max())
        if a <= 1.0 / 3.0:
            lo = min(lo, torus_area_volume(a, torus_stability_threshold(a))[1])
        lo = max(lo, torus_area_volume(a, H_MAX)[1])
        return float(lo), float(total - lo)


def _graded_grid(H_max: float, n: int) -> np.ndarray:
    import numpy as np

    n = as_count(n, PROFILE_MIN_N, PROFILE_MAX_N, "n")
    if not 0.0 < H_max < math.inf:
        raise ValueError(f"need H_max > 0, got H_max={H_max}")
    return as_H(H_max) * np.linspace(0.0, 1.0, n)**2


def sphere_volume(p, H) -> np.ndarray:
    """Volume enclosed by S_a(H) (the side that holds V(0) = pi^2 sqrt(a) at
    the minimal sphere) for an array of H: 2 pi sqrt(a) Theta - H A/2 of the
    module docstring, and VOLUME_SERIES where that difference cancels."""
    import numpy as np

    a = as_alpha(p)
    H = as_H(np.asarray(H, dtype=float))
    vol = np.asarray(2.0 * math.pi * math.sqrt(a) * turning_angle(a, H)
                     - 0.5 * H * area_sphere(a, H))
    far = H * H >= 16.0 * max(a, 4.0)
    u = 1.0 / H[far]
    series = 0.0
    for num, den in reversed(VOLUME_SERIES):
        coef = 0.0
        for k in num:  # Horner's rule in a
            coef = coef * a + k
        series = series * u * u + coef / den
    vol[far] = math.pi * series * u**3
    return vol


def sphere_profile(p, H_max: float = 20.0, n: int = 400) -> IsoperimetricProfile:
    """Sphere-family profile on a graded H grid: closed-form areas, volumes
    and volume rates dV/dH = -2 Int f dA."""
    a = as_alpha(p)
    H = _graded_grid(H_max, n)
    rate = -2.0 * koiso_integral(a, H)
    monotone = bool((rate <= 1e-12).all())
    notes = ""
    if not monotone:
        inc = H[rate > 1e-12]
        notes = (f"volume is not monotone in H (increasing near H in "
                 f"[{inc.min():.3f}, {inc.max():.3f}]): noncongruent spheres "
                 f"enclose equal volumes")
    return IsoperimetricProfile(family=SPHERE, alpha=a, H=H, area=area_sphere(a, H),
                                volume=sphere_volume(a, H), monotone=monotone, notes=notes)


def torus_profile(p, H_max: float = 20.0, n: int = 400) -> IsoperimetricProfile:
    """Torus-family profile; closed forms, dA = 2H dV holds identically."""
    a = as_alpha(p)
    H = _graded_grid(H_max, n)
    area, vol = torus_area_volume(a, H)
    return IsoperimetricProfile(family=TORUS, alpha=a, H=H, area=area, volume=vol)


def torus_H_at_volume(alpha: float, V: float) -> float:
    """Invert the torus volume closed form on the smaller-volume branch."""
    half = math.pi**2 * math.sqrt(as_alpha(alpha))
    if not 0.0 < V <= half:
        raise ValueError("torus volumes cover (0, half-total]")
    t = V / half  # s = 1 - t, and 1 - s^2 = t (2 - t) without cancellation
    return (1.0 - t) / math.sqrt(t * (2.0 - t))


def clifford_vs_minimal_sphere(p) -> tuple[float, float, str]:
    """Areas of the two half-volume candidates and the smaller one's family.

    The Clifford torus T_a(0) and the minimal sphere S_a(0) both bound half
    the total volume; returns (torus area, sphere area, winner).
    """
    a = as_alpha(p)
    a_torus = 2.0 * math.pi**2 * math.sqrt(a)
    a_sphere = area_sphere(a, 0.0)
    return a_torus, a_sphere, (SPHERE if a_sphere <= a_torus else TORUS)


def crossing_alpha() -> float:
    """The deformation where minimal sphere and Clifford torus have equal area.

    Root of 2 pi^2 sqrt(a) = area_sphere(a, 0) on (0, 1/3); near 0.166.
    """
    def f(a):
        return 2.0 * math.pi**2 * math.sqrt(a) - area_sphere(a, 0.0)

    return brentq(f, 1e-6, 1.0 / 3.0, xtol=1e-12, rtol=8.9e-16)


@dataclass
class CandidateReport:
    family: str
    H: float
    area: float
    volume: float
    alpha: float
    complemented: bool
    candidates: list
    notes: str


def isoperimetric_candidate(p, V: float,
                            profile: IsoperimetricProfile | None = None) -> CandidateReport:
    """Least-area stable CMC candidate enclosing volume V.

    A surface encloses V either directly or as the boundary of the
    complementary region, so both V and total - V are inverted on each
    family (at small alpha the sphere volumes overshoot half of the total,
    which makes the two sides genuinely different).  Only stability-passing
    members compete; for a < 1/3 the ranking is reported as such (the two
    families are the known candidates, not a proven exhaustive list).
    A given profile must be the sphere family's at this alpha.
    """
    a = as_alpha(p)
    total = total_volume(a)
    if not 0.0 < V < total:
        raise ValueError(f"volume must lie in (0, {total}), got {V}")

    prof = profile if profile is not None else sphere_profile(a)
    if prof.family != SPHERE or prof.alpha != a:
        raise ValueError(f"the candidate at alpha={a} needs a Sphere profile at that alpha, "
                         f"got a {prof.family} profile at alpha={prof.alpha}")
    lo, hi = prof.reach
    reach = (f"spheres with H <= {prof.H[-1]:g} and stable tori enclose volumes in "
             f"[{lo:.6g}, {hi:.6g}]")
    if not lo <= V <= hi:
        raise ValueError(f"no candidate encloses V={V} at alpha={a}: {reach}")
    notes = []
    if prof.notes:
        notes.append(prof.notes)

    candidates = []
    for side, vtarget in (("direct", V), ("complement", total - V)):
        for H in prof.invert_volume(vtarget):
            if side == "complement" and any(
                    c["family"] == SPHERE and abs(c["H"] - H) < 1e-11
                    for c in candidates):
                continue  # V = total/2: both sides find the same surface
            verdict = classify_sphere(a, H)
            candidates.append({"family": SPHERE, "H": H, "area": prof.area_at(H),
                               "side": side, "stable": verdict.stable,
                               "margin": verdict.margin})
    Ht = torus_H_at_volume(a, min(V, total - V))  # its smaller side holds at most half
    verdict = classify_torus(a, Ht)
    area_t, _ = torus_area_volume(a, Ht)
    candidates.append({"family": TORUS, "H": Ht, "area": area_t,
                       "side": "direct" if 2.0 * V <= total else "complement",
                       "stable": verdict.stable, "margin": verdict.margin})

    stable = [c for c in candidates if c["stable"]]
    if not stable:
        raise ValueError(f"no stable candidate encloses V={V} at alpha={a}: {reach}")
    best = min(stable, key=lambda c: c["area"])

    runners = sorted((c for c in stable if c is not best), key=lambda c: c["area"])
    if runners:
        r = runners[0]
        notes.append(f"other stable candidate: {r['family']} H={r['H']:.6f} "
                     f"area={r['area']:.6f}")
    if a < 1.0 / 3.0:
        notes.append("ranking of the known CMC candidates only; the solution of the "
                     "isoperimetric problem is established for 1/3 <= alpha < 1")
    if sum(1 for c in candidates if c["family"] == SPHERE) > 1:
        notes.append("noncongruent spheres enclose this volume")

    return CandidateReport(family=best["family"], H=best["H"], area=best["area"],
                           volume=V, alpha=a, complemented=best["side"] == "complement",
                           candidates=candidates, notes="; ".join(notes))
