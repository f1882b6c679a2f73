"""The rotationally invariant CMC sphere family of the Berger spheres.

For every alpha > 0 and H >= 0 there is, up to congruence, one immersed
CMC sphere.  Its fundamental data have closed forms which we carry in the
cylinder chart w = x + iy (z = e^w on the Riemann sphere), where the
normal-vertical angle function is C(x) = tanh x and everything depends on
x only:

    den(x)  = (1 - a) + (H^2 + a) cosh^2 x = q(x) cosh^2 x
    conf(x) = (H^2 + a) cosh^2 x / den^2          (metric conf |dw|^2)
    A(x)    = -(H + i sqrt(a)) / (2 den)          (<Phi_w, xi>)
    p(x)    = (1 - a)(H + i sqrt(a)) / (2 den^2)  (Hopf-differential datum)

with q(x) = H^2 + a tanh^2 x + sech^2 x; conf = (H^2 + a) sech^2 x / q^2 cannot
overflow.  tests/float_oracles.py carries conf, C, A and p, checks the
integrability conditions and the Gauss equation on them, and integrates conf
by quadrature, the oracle of the closed-form area.
The meridian y = 0 has a closed form too: with c = 1 + H^2, t = tanh x,
s = sech x,

    gamma(x) = e^{i phi} (s + H^2 - i sqrt(a) H t, sqrt(a) t + i H (1 - s)) / sqrt(c q),
    phi(x)   = Int_0^x (a - 1) H sech^2 / (sqrt(a) q) = -(H / sqrt(a)) X t G(X t^2),

with X = (1 - a)/c and G = artanh_ratio, the one function behind the
artanh (a < 1) and arctan (a > 1) branches of every closed form of the
family.  On the g_a-orthonormal frame (xi, E1 + i E2), xi = i gamma / sqrt(a),
E1 = (-conj w, conj z), E2 = i E1, whose coordinates ambient.frame_coordinates reads,
gamma_x = (s/q) (-H s, e^{2 i phi} (sqrt(a) + i H t)), of squared g_a-norm conf, and
the g_a-unit normal is N = tanh x xi + sech x (-sin 2phi E1 + cos 2phi E2), so
g_a(N, xi) = tanh x = C(x) and N = E2 at the equator.  As t and phi are odd in
x, s and q even, gamma(-x) = (conj z, -conj w) and N(-x) = (conj N_z, -conj N_w):
the isometry (z, w) -> (conj z, -conj w) maps S_a(H) to itself, so the meridian
is evaluated at x >= 0 and reflected.  The surface is (x, y) -> exp(yW) gamma(x) with
the exact generator W = [[i, -H], [H, i H^2]]/c, of eigenvalues 0 and i; its kernel
vector (H, i)/sqrt(c) gives the invariant coordinate (H z - i w)/sqrt(c) of the orbits.

In that coordinate the meridian is the planar curve
w'(t) = e^{i phi} (H - i sqrt(a) t)/sqrt(q), t in (-1, 1), with
|w'|^2 = (H^2 + a t^2)/q rising strictly in |t| and w'(-t) = conj w'(t):
it meets itself only where its angle is a nonzero multiple of pi.  The
angle turns monotonically for a < 1 and stays within pi/2 for a >= 1, so
the sphere is embedded iff the turning angle

    Theta(a, H) = atan2(sqrt a, H) + (H / sqrt(a)) X G(X)

is at most pi, and the curve crosses itself ceil(Theta/pi) - 1 times.
Theta has one maximum in H: sqrt(a) (a + H^2) dTheta/dH = (1 - X)(X G(X) - 1)
with 1 - X = (H^2 + a)/c > 0, X G(X) = sqrt(X) artanh(sqrt X) rises strictly in X
(and is <= 0 for X <= 0), and X falls strictly in H for a < 1; so Theta rises
while X > X_STAR = 0.69481653805..., the root of X G(X) = 1, and falls after.

The module computes areas, evaluates the meridian curve in S^3 with its
normal, checked on the stored rows for g_a(N, W gamma) = 0 and g_a(N, xi) = tanh x,
and decides embeddedness from Theta.  The sampled route,
is_embedded, is kept as the reference that Theta is checked against: it
counts the sign changes of Im w' on the half x > 0 of the sampled meridian
and takes its margin from the distance 2|Im w'| between mirror points.  It
refuses a sampling on which the turning angle of w' moves by pi or more
between two samples, where a sign count would miss zeros of Im w'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# ConsistencyError and QuadratureError stay importable from here, where callers import them
from .ambient import (ALPHA_MIN, ConsistencyError, NumericalError, QuadratureError, as_alpha,
                      as_count, as_H, brentq, even_integral, frame_coordinates)

# conf(L)/conf(0) <= 4e^{-2L}/min(a, 1)^2 = 1e-16 at a = ALPHA_MIN: the cutoff L = 46.7
AREA_CUTOFF = 0.5 * math.log(4e16 / ALPHA_MIN**2)
# the meridian's residuals within this times max(1, sqrt a, 1/sqrt a), the rounding of the stored
# N along xi and across it; on 49 a in [1e-12, 1e12] by 26 H, x_max 8 and 700, n = 4001 and 10^5
# they reach 1.75 and 4.0 eps times that
RESIDUAL_TOL = 16.0 * 2.0**-52
ARC_FACTOR = 20.0  # least arc between is_embedded's mirror pairs, and its margin cap, in longest segments
# fewest and most meridian samples: a meridian of 10^5 points and its embeddedness
# verdict peak about 32 MB above the import, one of 10^6 points about 314 MB
MERIDIAN_MIN_N, MERIDIAN_MAX_N = 64, 10**5
MERIDIAN_X_LIMIT = 700.0  # largest |x| endpoint; math.cosh overflows from about 710
X_STAR = 0.6948165380537966  # the root of X G(X) = 1, where Theta turns from rising to falling


# the rule of the tests' oracle integrals over this module's data, a module
# attribute that callers can wrap or replace; no routine here calls it
def quad(f):
    return even_integral(f, AREA_CUTOFF)


# unused since the meridian has a closed form; bench/tracer.py SPEC wraps it
def solve_ivp(*args, **kwargs):
    import scipy.integrate
    return scipy.integrate.solve_ivp(*args, **kwargs)


class ReconstructionError(NumericalError):
    """A meridian violated a profile invariant."""


def artanh_ratio(x, one_minus_x):
    """G(x) = sum_n x^n/(2n + 1) = artanh(sqrt x)/sqrt x (0 < x < 1), atan(sqrt -x)/sqrt -x
    (x < 0), 1 (x = 0): the branch function of every closed form of the family, taken
    at X = (1 - a)/(1 + H^2).  The caller passes 1 - x, which it holds without
    cancellation ((H^2 + a)/(1 + H^2) at X), and artanh r = log1p(2r(1 + r)/(1 - x))/2
    keeps every digit as x -> 1.  A Python float takes a math-only path, an array numpy's."""
    if isinstance(x, float):
        if x > 0.0:
            r = math.sqrt(x)
            return 0.5 * math.log1p(2.0 * r * (1.0 + r) / one_minus_x) / r
        if x < 0.0:
            r = math.sqrt(-x)
            return math.atan(r) / r
        return 1.0
    import numpy as np

    x, one_minus_x = np.broadcast_arrays(np.asarray(x, dtype=float), one_minus_x)
    r = np.sqrt(np.abs(x))
    out = np.ones_like(x)
    pos, neg = x > 0.0, x < 0.0
    rp = r[pos]
    out[pos] = 0.5 * np.log1p(2.0 * rp * (1.0 + rp) / one_minus_x[pos]) / rp
    out[neg] = np.arctan(r[neg]) / r[neg]
    return out


def area_sphere(p, H):
    """Area 2 pi Int conf dx of S_a(H) in closed form, 2 pi (1 + (H^2 + a) G(X)/c)/c,
    c = 1 + H^2, X = (1 - a)/c, for a float or an array of H."""
    a, H = as_alpha(p), as_H(H)
    h2 = H * H
    c = 1.0 + h2
    return 2.0 * math.pi * (1.0 + (h2 + a) * artanh_ratio((1.0 - a) / c, (h2 + a) / c) / c) / c


# ---------------------------------------------------------------------------
# meridian reconstruction
# ---------------------------------------------------------------------------

@dataclass
class MeridianProfile:
    """Meridian of S_a(H) with its normal and residuals: points[i] is the curve in S^3 and
    normals[i] its g_a-unit normal N (module docstring), rows (Re z, Im z, Re w, Im w)
    that view as complex rows (z, w).  The residuals are read by ambient.frame_coordinates
    off the stored points and normals, and both are odd in x: metric_residual is
    g_a(N, W gamma) / max(1, sqrt a), N against the orbit field W gamma = d Phi / dy
    of g_a-norm sqrt(conf) <= max(1, sqrt a); C_residual is g_a(N, xi) - tanh x."""

    alpha: float
    H: float
    x: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    metric_residual: np.ndarray
    C_residual: np.ndarray

    @property
    def max_metric_residual(self) -> float:
        """Largest |residual|; NaN if a sample is NaN."""
        return float(abs(self.metric_residual).max())

    @property
    def max_C_residual(self) -> float:
        return float(abs(self.C_residual).max())

    @property
    def residual_tol(self) -> float:
        """The bound of both residuals, RESIDUAL_TOL max(1, sqrt a, 1/sqrt a)."""
        sa = math.sqrt(self.alpha)
        return RESIDUAL_TOL * max(1.0, sa, 1.0 / sa)

    @property
    def holds_contract(self) -> bool:
        """Both residuals within residual_tol; a NaN or inf is a violation."""
        tol = self.residual_tol
        return self.max_metric_residual <= tol and self.max_C_residual <= tol


def meridian_range(x_range) -> tuple[float, float]:
    """Validated meridian endpoints (lo, hi): finite, lo = -hi < 0, within
    MERIDIAN_X_LIMIT of the equator."""
    lo, hi = float(x_range[0]), float(x_range[1])
    if not -MERIDIAN_X_LIMIT <= lo < 0.0 < hi <= MERIDIAN_X_LIMIT:
        raise ValueError(f"x_range must contain the equator x = 0 and lie within "
                         f"+-{MERIDIAN_X_LIMIT:g}, got ({lo}, {hi})")
    if lo != -hi:
        raise ValueError(f"x_range must be symmetric about the equator, got ({lo}, {hi})")
    return lo, hi


def _phase(a: float, H: float, t, q):
    """(H / sqrt a) X t G(X t^2), X = (1 - a)/c, c = 1 + H^2, q = c (1 - X t^2): -phi of
    the module docstring, and the turning angle past atan2(sqrt(a) t, H).  Odd in t, it is
    (H / sqrt a) sqrt(X) artanh(sqrt(X) t) for X > 0, artanh r = log1p(2r(1 + r) c/q)/2 at
    |t| (1 + r cancels for t < 0), else -(H / sqrt a) sqrt(-X) atan(sqrt(-X) t)."""
    import numpy as np

    c = 1.0 + H * H
    X = (1.0 - a) / c
    if X > 0.0:
        r = math.sqrt(X) * np.abs(t)
        return np.copysign((0.5 * H * math.sqrt(X / a)) * np.log1p(2.0 * c * r * (1.0 + r) / q), t)
    r = math.sqrt(-X)
    return (-H * r / math.sqrt(a)) * np.arctan(r * t)


def _meridian_profile(a: float, H: float, xs: np.ndarray, m: int = 0) -> MeridianProfile:
    """The closed-form meridian at the samples xs, residuals not yet checked; on an odd
    grid (xs[::-1] == -xs), m = len(xs) // 2 evaluates xs[m:] >= 0 and reflects the rest."""
    import numpy as np

    n, x = len(xs), xs[m:]
    sa, c = math.sqrt(a), 1.0 + H * H
    t, s = np.tanh(x), 1.0 / np.cosh(x)
    # q = den sech^2 x; H^2 + a t^2 + s^2 sums nonnegative terms, where
    # c - (1 - a) t^2 cancels and leaves |gamma| - 1 = 5e-11 at a = 1e-6
    q = H * H + a * t * t + s * s
    e = np.exp(-1j * _phase(a, H, t, q)) / np.sqrt(c * q)
    # rows (z, w) of gamma and of N, viewed as rows (Re z, Im z, Re w, Im w)
    gamma, metric_residual, C_residual = np.empty((n, 2), dtype=complex), np.empty(n), np.empty(n)
    z = np.multiply(e, (s + H * H) - 1j * (sa * H) * t, out=gamma[m:, 0])
    w = np.multiply(e, sa * t + 1j * H * (1.0 - s), out=gamma[m:, 1])
    # N = (i t / sqrt a) gamma + i s e^{2 i phi} (-conj w, conj z), e^{2 i phi} = c q e^2
    normal = np.empty_like(gamma)
    vert, horiz = (1j / sa) * t, (1j * c) * (s * q) * e * e
    np.subtract(vert * z, horiz * w.conj(), out=normal[m:, 0])
    np.add(vert * w, horiz * z.conj(), out=normal[m:, 1])
    del e, q, vert, horiz  # fewer live temporaries, fewer fresh pages: a faster call
    n0, n12 = frame_coordinates(a, z, w, normal[m:, 0], normal[m:, 1])
    C_residual[m:] = n0 - t
    # g_a(N, W gamma) / max(1, sqrt a), where max(1, sqrt a) bounds |W gamma| = sqrt(conf), on
    # W gamma's coordinates (sqrt(a) |z + i H w|^2, H (z^2 + w^2) + i (H^2 - 1) z w) / c
    k = 1.0 / (c * max(1.0, sa))
    wg12 = H * (z * z + w * w) + (1j * (H * H - 1.0)) * (z * w)
    np.multiply(n0, (sa * k) * np.abs(z + (1j * H) * w) ** 2, out=metric_residual[m:])
    metric_residual[m:] += k * (n12 * wg12.conj()).real
    for arr in (gamma, normal):  # rows n - 1, n - 2, ... reflected to rows 0, 1, ...
        np.conjugate(arr[:n - m - 1:-1], out=arr[:m])
        np.negative(arr[:m, 1], out=arr[:m, 1])
    for arr in (metric_residual, C_residual):  # odd in x
        np.negative(arr[:n - m - 1:-1], out=arr[:m])
    return MeridianProfile(alpha=a, H=H, x=xs, points=gamma.view(np.float64),
                           normals=normal.view(np.float64),
                           metric_residual=metric_residual, C_residual=C_residual)


def reconstruct_meridian(p, H: float, x_range=(-8.0, 8.0), n: int = 1024) -> MeridianProfile:
    """The meridian y = 0 of S_a(H) on n equispaced samples, exactly symmetric about
    the equator, validated.

    Evaluates the closed forms of the module docstring at x >= 0, the curve gamma
    and its g_a-unit normal N (E2 at the equator x = 0), and reflects them to
    x < 0.  Raises ReconstructionError if a residual of the stored rows breaks the
    contract, RESIDUAL_TOL max(1, sqrt a, 1/sqrt a).
    """
    import numpy as np

    a, H, n = as_alpha(p), as_H(H), as_count(n, MERIDIAN_MIN_N, MERIDIAN_MAX_N, "n")
    hi = meridian_range(x_range)[1]
    # odd to the bit (j / (n - 1) and hi v round alike for +-j); x = 0 is a sample for odd n
    prof = _meridian_profile(a, H, hi * (np.arange(1 - n, n, 2) / (n - 1)), n // 2)
    if prof.holds_contract:
        return prof
    msg = (f"reconstruction invariants violated: g_a(N, W gamma) {prof.max_metric_residual:.3e}, "
           f"C {prof.max_C_residual:.3e} (tol {prof.residual_tol:.3e})")
    # a traceback keeps this frame's locals alive, so they hold no meridian arrays
    del prof
    raise ReconstructionError(msg)


# ---------------------------------------------------------------------------
# embeddedness: the turning angle of the orbit-space curve
# ---------------------------------------------------------------------------

def turning_angle(p, H):
    """Theta(a, H) = atan2(sqrt a, H) + (H / sqrt a) X G(X), X = (1 - a)/(1 + H^2):
    the angle the orbit-space curve w'(t) turns through from the equator
    t = 0 to the pole t = 1, for a float or an array of H.  For a > 1 these terms
    cancel, so Theta = (H/sqrt a)(d atan r1 + r2 atan(d/(1 + r1 r2))) sums positive
    ones: r1 = sqrt(a)/H, r2 = sqrt(-X), d = r1 - r2 = (a + H^2)/(H^2 c (r1 + r2)),
    c = 1 + H^2; with u = H/sqrt a, e = u d = (1 + u^2)/(c (1 + u r2)) is 1 at H = 0."""
    a, H = as_alpha(p), as_H(H)
    sa = math.sqrt(a)
    c = 1.0 + H * H
    scalar = isinstance(c, float)
    if scalar:
        atan2, sqrt, arctan = math.atan2, math.sqrt, math.atan
    else:
        import numpy as np

        atan2, sqrt, arctan = np.arctan2, np.sqrt, np.arctan
    atan = atan2(sa, H)
    if a <= 1.0:
        X = (1.0 - a) / c
        return atan + (H / sa) * X * artanh_ratio(X, (H * H + a) / c)
    u = H / sa
    r2 = sqrt((a - 1.0) / c)
    e = (1.0 + u * u) / (c * (1.0 + u * r2))
    return e * atan + u * r2 * arctan(e / (u + r2))


@dataclass(frozen=True)
class EmbeddingVerdict:
    embedded: bool
    crossings: int
    margin: float  # pi - Theta
    alpha: float
    H: float


def classify_embedding(p, H: float) -> EmbeddingVerdict:
    """S_a(H) is embedded iff Theta <= pi; its meridian's orbit-space curve
    crosses itself once for each nonzero multiple of pi below Theta."""
    a, H = as_alpha(p), as_H(H)
    theta = turning_angle(a, H)
    return EmbeddingVerdict(embedded=theta <= math.pi,
                            crossings=max(0, math.ceil(theta / math.pi) - 1),
                            margin=math.pi - theta, alpha=a, H=H)


def _max_turning_angle(a: float) -> tuple[float, float]:
    """(argmax_H Theta, max_H Theta): X = (1 - a)/(1 + H^2) is X_STAR at the peak, or
    the peak is at H = 0 (Theta = pi/2) where 1 - a <= X_STAR."""
    h = math.sqrt((1.0 - a) / X_STAR - 1.0) if 1.0 - a > X_STAR else 0.0
    return h, turning_angle(a, h)


def nonembedded_band(p):
    """(H_-, H_+): S_a(H) is non-embedded iff H_- < H < H_+, the two roots of
    Theta = pi on either side of argmax_H Theta; None where max_H Theta <= pi,
    that is from alpha_emb() upward."""
    a = as_alpha(p)
    h_top, top = _max_turning_angle(a)
    if top <= math.pi:
        return None
    h_far = 2.0 * h_top
    while turning_angle(a, h_far) >= math.pi:  # Theta -> 0 as H -> inf
        h_far *= 2.0

    def excess(h):
        return turning_angle(a, h) - math.pi

    # xtol > 0 but far below rtol |H|, so both edges keep every digit
    return (brentq(excess, 0.0, h_top, xtol=1e-300, rtol=8.9e-16),
            brentq(excess, h_top, h_far, xtol=1e-300, rtol=8.9e-16))


def alpha_emb() -> float:
    """The deformation below which some spheres are non-embedded: the root of
    max_H Theta(a, H) = pi, 0.0473807639."""
    return brentq(lambda a: _max_turning_angle(a)[1] - math.pi, 0.01, 0.1,
                  xtol=1e-14, rtol=8.9e-16)


# ---------------------------------------------------------------------------
# the reference route: the sampled orbit-space curve
# ---------------------------------------------------------------------------

def fit_orbit_generator(m: MeridianProfile) -> np.ndarray:
    """The exact generator W = [[i, -H], [H, i H^2]]/(1 + H^2) of S_a(H).

    The surface is (x, y) |-> exp(yW) gamma(x), so d Phi / dy = W gamma
    along the meridian for every a.  W has the eigenvalues 0 and i (the
    y-flow closes with period 2 pi), with the unit eigenvectors
    (H, i)/sqrt(1 + H^2) and (1, -i H)/sqrt(1 + H^2).
    """
    import numpy as np

    H = m.H
    return np.array([[1j, -H], [H, 1j * H * H]]) / (1.0 + H * H)


def orbit_space_curve(m: MeridianProfile) -> np.ndarray:
    """Project the meridian to the orbit space of its isometry group.

    The invariant coordinate is the component of gamma along the kernel
    vector (H, i)/sqrt(1 + H^2) of W, that is (H z - i w)/sqrt(1 + H^2);
    the meridian becomes a planar curve inside the closed unit disk, and
    the immersed sphere is embedded iff this curve is simple.
    """
    import numpy as np

    u = np.array([m.H, 1j]) / math.sqrt(1.0 + m.H * m.H)
    zw = np.ascontiguousarray(m.points).view(np.complex128)  # rows (z, w)
    wprime = np.conj(u[0]) * zw[:, 0] + np.conj(u[1]) * zw[:, 1]
    return wprime[:, None].view(np.float64)


@dataclass
class EmbeddednessResult:
    embedded: bool | None  # None means undecided: refine the grid
    margin: float
    crossings: int


def _turning_angles(a: float, H: float, x: np.ndarray) -> np.ndarray:
    """theta(x) = atan2(sqrt(a) t, H) + (H / sqrt a) X t G(X t^2), t = tanh x: the angle
    the orbit-space curve w' turns through from the equator to x; Theta at t = 1."""
    import numpy as np

    t = np.tanh(x)
    return np.arctan2(math.sqrt(a) * t, H) + _phase(a, H, t, 1.0 + H * H - (1.0 - a) * t * t)


def is_embedded(m: MeridianProfile) -> EmbeddednessResult:
    """Decide embeddedness of the CMC sphere from its sampled meridian: the
    reference route that classify_embedding is checked against.

    The meridian is projected onto the invariant coordinate of the exact
    orbit generator (orbit_space_curve).  As w'(-t) = conj w'(t) and |w'|
    rises strictly in |t|, the curve meets itself only on the real axis,
    once for each zero of Im w' on either half.  The crossings are the sign
    changes of Im w' over the samples with x > 0, exact zeros left out: on the
    odd grid of reconstruct_meridian, Im w' at -x is minus Im w' at x.  The
    margin of a curve without crossings is the least distance 2|Im w'|
    between mirror points over the samples at least ARC_FACTOR/2 times the
    longest segment of arc from the equator, capped at ARC_FACTOR times it; a
    crossing curve has margin 0.
    A margin below 10x the longest segment yields an undecided verdict.

    Raises ReconstructionError unless the meridian holds its contract and the
    turning angle theta(x) of w' moves by less than pi from the equator to the
    first sample and between samples on either half: as theta is monotone for
    a < 1 and within pi/2 for a >= 1, each zero of Im w' is then one sign change.
    """
    import numpy as np

    if not m.holds_contract:
        raise ReconstructionError("meridian residuals too large for an embeddedness verdict")
    a, H, x = m.alpha, m.H, m.x
    neg, pos = np.searchsorted(x, 0.0, "left"), np.searchsorted(x, 0.0, "right")  # x < 0, x > 0
    # the steps on a half sum to theta at its end for a < 1: below pi there, each is
    if not np.max(np.abs(_turning_angles(a, H, x[[0, -1]]))) < math.pi:
        # theta(0) = 0 joins both halves at the equator
        step = float(np.max(np.abs(np.diff(np.insert(_turning_angles(a, H, x), neg, 0.0)))))
        if not step < math.pi:
            raise ReconstructionError(f"the turning angle moves by {step:.3e} between two "
                                      f"samples (at least pi); refine the grid")
    curve = orbit_space_curve(m)
    im = curve[:, 1]
    sign = np.sign(im[pos:])
    sign = sign[sign != 0.0]
    crossings = int(np.count_nonzero(sign[1:] != sign[:-1]))
    if crossings > 0:
        return EmbeddednessResult(False, 0.0, crossings)
    seglen = np.hypot(np.diff(curve[:, 0]), np.diff(im))
    res = float(np.max(seglen))
    arc_min = ARC_FACTOR * res
    arclen = np.concatenate([[0.0], np.cumsum(seglen)])
    far = np.abs(arclen - np.interp(0.0, x, arclen)) >= arc_min / 2.0
    margin = min(arc_min, 2.0 * float(np.min(np.abs(im[far]), initial=np.inf)))
    if margin < 10.0 * res:
        return EmbeddednessResult(None, margin, 0)
    return EmbeddednessResult(True, margin, 0)
