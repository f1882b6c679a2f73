"""Float oracles of the derivation: independent routes to what the package
computes in closed form.

Each routine here re-derives one identity of the CMC sphere family in
double precision (the z-chart data, the integrability conditions, the
Gauss equation, Gauss-Bonnet, the area, the Koiso function and its
integral, the universal flat potential, the Jacobi field tanh x, the volume
rate, the round caps, the sign of F).  None is on a command's path; the
tests check the closed forms of bergercmc against them.  The integrals go
through the production modules' `quad` attribute (cmc_spheres.quad,
stability.quad, isoperimetry.quad), looked up at each call, so a test that
wraps one of those sees these integrals too.
"""

import math
from dataclasses import dataclass

import numpy as np

from bergercmc import cmc_spheres, isoperimetry, stability
from bergercmc.ambient import ConsistencyError, as_alpha, as_H
from bergercmc.cmc_spheres import artanh_ratio
from bergercmc.regions import poly_eval

GAUSS_RTOL = 1e-12  # conformal route vs Gauss equation of the Gauss curvature
RAYLEIGH_SCALE = 8.0 / (3.0 * math.sqrt(3.0))  # Int |sech^4 - 2 sech^2 tanh^2| dx


def random_spheres():
    """Ten (a, H) spread over (0.08, 2.5) x (0, 2.5): the grid of the
    integrability, Gauss-Bonnet and quadrature checks."""
    return np.random.default_rng(88).uniform((0.08, 0.0), (2.5, 2.5), (10, 2)).tolist()


# ---------------------------------------------------------------------------
# the fundamental data that only the oracles read
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleData:
    """The w-chart data of the CMC sphere S_a(H) in closed form: conf, C, A, p and
    |sigma|^2."""

    alpha: float
    H: float

    def _sech2_q(self, x):
        """(sech^2 x, q(x)) with q = den sech^2 = H^2 + a tanh^2 x + sech^2 x >= min(1, a)."""
        x = np.asarray(x, dtype=float)
        t, s = np.tanh(x), 1.0 / np.cosh(x)
        return s * s, self.H**2 + self.alpha * t * t + s * s

    def conf(self, x):
        s2, q = self._sech2_q(x)
        return (self.H**2 + self.alpha) * s2 / (q * q)

    def C(self, x):
        return np.tanh(np.asarray(x, dtype=float))

    def A(self, x):
        s2, q = self._sech2_q(x)
        return -(self.H + 1j * math.sqrt(self.alpha)) * s2 / (2.0 * q)

    def p(self, x):
        s2, q = self._sech2_q(x)
        return (1.0 - self.alpha) * (self.H + 1j * math.sqrt(self.alpha)) * (s2 / q) ** 2 / 2.0

    def sigma_norm2(self, x):
        """|sigma|^2 = 2 H^2 + 8 conf^-2 |p|^2 = 2 H^2 + 2 (1 - a)^2 sech^4 x / (H^2 + a)."""
        s2, _ = self._sech2_q(x)
        return 2.0 * self.H**2 + 2.0 * (1.0 - self.alpha) ** 2 * s2 * s2 / (self.H**2 + self.alpha)


def oracle_data(p, H: float) -> OracleData:
    """The fundamental data of S_a(H), a and H checked as the closed forms check them."""
    return OracleData(alpha=as_alpha(p), H=as_H(H))


def zchart_data(alpha: float, H: float, x):
    """(conf, A, p) at |z| = e^x transported from the raw z-chart formulas:
    conf = e^{2u(z)} |z|^2,  A_w = A(z) z,  p_w = p(z) z^2.
    Overflows for |x| beyond ~80; meant for test grids."""
    x = np.asarray(x, dtype=float)
    r2 = np.exp(2.0 * x)  # |z|^2
    hia = H + 1j * math.sqrt(alpha)
    D = 4.0 * (1.0 - alpha) * r2 + (H**2 + alpha) * (r2 + 1.0) ** 2
    e2u = 4.0 * (r2 + 1.0) ** 2 * (H**2 + alpha) / D**2
    conf = e2u * r2
    A_w = -2.0 * hia * r2 / D  # A(z) * z with zbar z = |z|^2
    p_w = (2.0 * (1.0 - alpha) / hia) * A_w**2
    return conf, A_w, p_w


# ---------------------------------------------------------------------------
# integrability conditions, Gauss equation, Gauss-Bonnet
# ---------------------------------------------------------------------------

def integrability_residual(d: OracleData, x_range=(-5.0, 5.0), n: int = 400):
    """Sup-norm finite-difference residuals of the four integrability equations.

    In the w-chart all data depend on x only, so d/dw = d/dwbar = (1/2) d/dx.
    Central differences make each residual O(h^2); the fourth equation is
    algebraic and sits at machine precision.
    """
    if n < 16:
        raise ValueError("grid size n must be at least 16")
    lo, hi = float(x_range[0]), float(x_range[1])
    if not hi > lo:
        raise ValueError("degenerate x_range")
    x = np.linspace(lo, hi, n)
    h = x[1] - x[0]
    a, H = d.alpha, d.H
    hia = H + 1j * math.sqrt(a)

    C, conf, A, p = d.C(x), d.conf(x), d.A(x), d.p(x)

    def ddx(f):
        return (f[2:] - f[:-2]) / (2.0 * h)

    mid = slice(1, -1)
    r1 = 0.5 * ddx(p) - 2.0 * (1.0 - a) * (conf * C * A)[mid]
    r2 = 0.5 * ddx(A) - 0.5 * (conf * C)[mid] * hia
    r3 = 0.5 * ddx(C) + (hia.conjugate() * A + 2.0 * p * A.conjugate() / conf)[mid]
    r4 = np.abs(A) ** 2 - 0.25 * conf * (1.0 - C**2)

    return {
        "p_wbar": float(np.max(np.abs(r1))),
        "A_wbar": float(np.max(np.abs(r2))),
        "C_w": float(np.max(np.abs(r3))),
        "A_norm": float(np.max(np.abs(r4))),
        "h": float(h),
    }


def gauss_curvature(d: OracleData, x):
    """Gauss curvature K(x) for a float or an array of x, computed two independent ways.

    (a) conformal route: K = -(1/2) conf^-1 (log conf)'', with the
        logarithmic derivative of the closed form taken exactly, which
        leaves K = (P - (1 - a) sech^2 x) q / P + 4 (1 - a) tanh^2 x, P = H^2 + a;
    (b) ambient route: the Gauss equation
        K = 2 H^2 - |sigma|^2 / 2 + a + 4 (1 - a) C^2.
    They must agree to GAUSS_RTOL of the sum of (b)'s terms, else ConsistencyError.
    """
    a, H = d.alpha, d.H
    P = H**2 + a
    s2, q = d._sech2_q(x)
    sigma2, C2 = d.sigma_norm2(x), np.tanh(np.asarray(x, dtype=float)) ** 2
    k_conformal = (P - (1.0 - a) * s2) * q / P + 4.0 * (1.0 - a) * C2
    k_gauss = 2.0 * H**2 - 0.5 * sigma2 + a + 4.0 * (1.0 - a) * C2

    scale = 2.0 * H**2 + 0.5 * sigma2 + a + 4.0 * abs(1.0 - a) * C2
    if np.any(np.abs(k_conformal - k_gauss) > GAUSS_RTOL * scale):
        raise ConsistencyError(f"Gauss curvature routes disagree at x={x}: conformal "
                               f"{k_conformal} vs Gauss equation {k_gauss}")
    return k_conformal if np.ndim(x) else float(k_conformal)


def gauss_bonnet_integral(d: OracleData) -> float:
    """2 pi Int K conf dx by cmc_spheres.quad; equals 4 pi for every (a, H) (sphere topology)."""
    return 2.0 * math.pi * cmc_spheres.quad(lambda x: gauss_curvature(d, x) * d.conf(x))


def area_sphere_quadrature(p, H: float) -> float:
    """2 pi Int conf dx by cmc_spheres.quad: the check route of cmc_spheres.area_sphere."""
    return 2.0 * math.pi * cmc_spheres.quad(oracle_data(p, H).conf)


def planarity_report(points: np.ndarray) -> dict:
    """How close a curve in R^4 is to a circle in an affine 2-plane.

    plane_residual is the out-of-plane deviation (3rd singular value over
    the 1st after centering); circle_residual is the relative radius error
    of a least-squares circle fitted in the plane.  Both vanish for the
    umbilical meridians.
    """
    ctr = points.mean(axis=0)
    Q = points - ctr
    U, svals, Vt = np.linalg.svd(Q, full_matrices=False)
    uv = Q @ Vt[:2].T
    # algebraic circle fit: u^2 + v^2 = 2 a u + 2 b v + c
    M = np.column_stack([2.0 * uv[:, 0], 2.0 * uv[:, 1], np.ones(len(uv))])
    rhs = (uv**2).sum(axis=1)
    # normal equations: the centred columns u, v are orthogonal to 1 and to
    # each other, so M^T M is (nearly) diagonal and well conditioned
    ca, cb, cc = np.linalg.solve(M.T @ M, M.T @ rhs)
    radius = math.sqrt(max(cc + ca**2 + cb**2, 0.0))
    dist = np.linalg.norm(uv - np.array([ca, cb]), axis=1)
    return {
        "plane_residual": float(svals[2] / svals[0]),
        "circle_residual": float(np.max(np.abs(dist - radius)) / radius),
    }


# ---------------------------------------------------------------------------
# the Jacobi operator: flat potential, the Koiso function, the Jacobi field tanh x
# ---------------------------------------------------------------------------

def jacobi_potential_flat(x) -> np.ndarray:
    """q * conf = 2 / cosh^2 x, independent of (a, H)."""
    return 2.0 / np.cosh(np.asarray(x, dtype=float)) ** 2


def potential_from_data(d: OracleData, x) -> np.ndarray:
    """(|sigma|^2 + Ric(N)) * conf recomputed from the fundamental data."""
    x = np.asarray(x, dtype=float)
    C2 = np.tanh(x) ** 2
    q = d.sigma_norm2(x) + 2.0 * d.alpha + 4.0 * (1.0 - d.alpha) * (1.0 - C2)
    return q * d.conf(x)


def koiso_solution(p, H: float, x):
    """The solution f = (1 - h^2 G(h^2)) / (2c) of Lf = 1 on S_a(H), in the
    flat chart, with c = 1 + H^2, h^2 = (1 - a) tanh^2 x / c and
    G = artanh_ratio; at a = 1 it is the constant 1/(2c)."""
    a = as_alpha(p)
    c = H**2 + 1.0
    x = np.asarray(x, dtype=float)
    t2 = np.tanh(x) ** 2
    h2 = (1.0 - a) / c * t2
    q = H**2 + a * t2 + 1.0 / np.cosh(x) ** 2  # c (1 - h^2), a sum of nonnegative terms
    return (1.0 - h2 * artanh_ratio(h2, q / c)) / (2.0 * c)


def koiso_scale(a: float, H: float) -> float:
    """pi/(2c^2) (3 + |(H^2 + 3a - 2) G(X)/c|), c = 1 + H^2, X = (1 - a)/c: the sum of
    the sizes of the two terms of stability.koiso_integral, the scale on which its
    rounding is measured where the integral itself vanishes (at H(a))."""
    c = 1.0 + H * H
    G = artanh_ratio((1.0 - a) / c, (H * H + a) / c)
    return math.pi * (3.0 + abs((H * H + 3.0 * a - 2.0) * G / c)) / (2.0 * c * c)


def koiso_integral_quadrature(p, H: float) -> float:
    """2 pi Int f conf dx by stability.quad: the check route of stability.koiso_integral."""
    d = oracle_data(p, H)
    return 2.0 * math.pi * stability.quad(lambda x: koiso_solution(d.alpha, H, x) * d.conf(x))


def jacobi_rayleigh_C(p, H: float) -> float:
    """Relative residual of the vertical-angle function C = tanh x in the Jacobi form.

    C is always a Jacobi function, and in the flat chart its quadratic form
    Q(C) = Int sech^4 - 2 sech^2 tanh^2 dx is the same for every (a, H), so it
    vanishes up to quadrature error; returned as |Q(C)| over its integrand's
    scale RAYLEIGH_SCALE, by stability.quad, independent of any grid.
    """
    as_alpha(p)
    as_H(H)

    def num(x):
        sech2 = 1.0 / np.cosh(x) ** 2
        return sech2**2 - 2.0 * sech2 * np.tanh(x) ** 2

    return abs(stability.quad(num)) / RAYLEIGH_SCALE


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

def sphere_volume_rate(alpha: float, H: float) -> float:
    """dV/dH along the sphere family by isoperimetry.quad: the quadrature of the
    u-derivative of the area integrand, u = H^2 (the check route of
    -2 stability.koiso_integral; negative where volume shrinks)."""
    u = H * H

    def integrand(x):  # d conf/du, with q = u + a tanh^2 + sech^2 a sum of nonnegative terms
        t, s2 = np.tanh(x), 1.0 / np.cosh(x) ** 2
        q = u + alpha * t * t + s2
        return s2 * ((1.0 - alpha) * s2 - (u + alpha)) / q**3

    return 2.0 * math.pi * isoperimetry.quad(integrand)


def round_cap_area_volume(r: float) -> tuple[float, float, float]:
    """Geodesic sphere of radius r in the unit S^3:
    (H, area, volume) = (cot r, 4 pi sin^2 r, pi (2r - sin 2r))."""
    return (1.0 / math.tan(r), 4.0 * math.pi * math.sin(r) ** 2,
            math.pi * (2.0 * r - math.sin(2.0 * r)))


# ---------------------------------------------------------------------------
# the region polynomial
# ---------------------------------------------------------------------------

def F_nonnegative(p) -> tuple[bool, float]:
    """Is F(t; alpha) = P_t(alpha), eps = sign(1 - alpha), >= 0 on all of t in [0, 1]?

    F is a quartic in t, so its minimum on [0, 1] lies at t = 0, at t = 1
    or at a real critical point of dF/dt (a cubic) inside.  True exactly
    when alpha in [alpha_1, 1) or (1, 4/3]: the independent check of
    regions.critical_constants.
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
