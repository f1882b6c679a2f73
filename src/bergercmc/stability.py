"""Stability of the CMC spheres S_a(H).

The second-variation quadratic form of every sphere in the family is the
same after conformally flattening: the potential times the conformal
factor is the (a, H)-independent function 2/cosh^2 x.  Stability is then
decided by the Koiso criterion (the surface has index one and mean-zero
Jacobi functions): S_a(H) is stable iff the solution f of Lf = 1
integrates to a nonnegative value.  Both f and its integral have closed
forms with an arctanh branch for a < 1 and an arctan branch for a > 1.

The spectral route is kept as well: mode by Fourier mode, the flattened
eigenvalue problem compactifies under t = tanh x into the Legendre-type
problem

    -((1 - t^2) f')' + (k^2/(1 - t^2) - 2) f = lambda w(t) f,
    w(t) = (H^2 + a) / (1 + H^2 - (1 - a) t^2)^2,

on [-1, 1] with natural boundary conditions, so no artificial domain
truncation is involved and the three zero modes (t and sqrt(1 - t^2)
times the two first harmonics) are resolved to discretization accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import as_alpha, as_H
from .cmc_spheres import AREA_CUTOFF, ConsistencyError, SphereFundamentalData, fundamental_data
from .svgplot import write_csv

KOISO_INTEGRAL = "KoisoIntegral"
LAMBDA1_GAP = "Lambda1Gap"
KOISO_RTOL = 1e-6  # closed form vs quadrature of the Koiso integral
PER_MODE = 6  # eigenvalues computed per Fourier mode
TINY = float(np.finfo(float).tiny)  # smallest normal float
SPECTRUM_MIN_N = 200  # fewest grid cells of the Jacobi spectrum


# scipy loads on first call, so importing this module costs no scipy import;
# the names stay module attributes that callers can wrap or replace
def quad(*args, **kwargs):
    import scipy.integrate
    return scipy.integrate.quad(*args, **kwargs)


def eigh_tridiagonal(*args, **kwargs):
    import scipy.linalg
    return scipy.linalg.eigh_tridiagonal(*args, **kwargs)


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    margin: float
    criterion: str
    alpha: float
    H: float


@dataclass
class SpectrumResult:
    """Sorted generalized eigenvalues with Fourier mode bookkeeping."""

    eigenvalues: np.ndarray
    modes: np.ndarray
    negatives: int
    zeros: int
    gap: float
    zero_tol: float

    @property
    def index(self) -> int:
        return self.negatives

    @property
    def nullity(self) -> int:
        return self.zeros

    def to_csv(self, path) -> None:
        write_csv(path, ("k", "lambda"), zip(self.modes, self.eigenvalues))


# ---------------------------------------------------------------------------
# the universal flat-chart potential
# ---------------------------------------------------------------------------

def jacobi_potential_flat(x) -> np.ndarray:
    """q * conf = 2 / cosh^2 x, independent of (a, H)."""
    return 2.0 / np.cosh(np.asarray(x, dtype=float)) ** 2


def potential_from_data(d: SphereFundamentalData, x) -> np.ndarray:
    """(|sigma|^2 + Ric(N)) * conf recomputed from the fundamental data."""
    x = np.asarray(x, dtype=float)
    C2 = np.tanh(x) ** 2
    q = d.sigma_norm2(x) + 2.0 * d.alpha + 4.0 * (1.0 - d.alpha) * (1.0 - C2)
    return q * d.conf(x)


# ---------------------------------------------------------------------------
# Koiso solution and its integral
# ---------------------------------------------------------------------------

def koiso_solution(p, H: float, x):
    """The solution f of Lf = 1 on S_a(H), in the flat chart.

    With h(x) = sqrt(|1-a|)/sqrt(H^2+1) * tanh x:
        a < 1:  f = (1 - h artanh h) / (2 (H^2 + 1))
        a > 1:  f = (1 + h arctan h) / (2 (H^2 + 1))
        a = 1:  f = 1 / (2 (H^2 + 1))   (common limit)
    """
    a = as_alpha(p)
    x = np.asarray(x, dtype=float)
    c = 2.0 * (H**2 + 1.0)
    if a == 1.0:
        return np.full_like(x, 1.0 / c)
    h = math.sqrt(abs(1.0 - a) / (H**2 + 1.0)) * np.tanh(x)
    if a < 1.0:
        return (1.0 - h * np.arctanh(h)) / c
    return (1.0 + h * np.arctan(h)) / c


def koiso_integral_closed(p, H: float) -> float:
    """Closed form of Int f dA over S_a(H) (sign decides stability)."""
    a = as_alpha(p)
    c = H**2 + 1.0
    pref = math.pi / (2.0 * c**2)
    if a == 1.0:
        return pref * 4.0
    if a < 1.0:
        s = math.sqrt(1.0 - a)
        return pref * (3.0 + (H**2 + 3.0 * a - 2.0) / (math.sqrt(c) * s)
                       * math.atanh(s / math.sqrt(c)))
    s = math.sqrt(a - 1.0)
    return pref * (3.0 + (H**2 + 3.0 * a - 2.0) / (math.sqrt(c) * s)
                   * math.atan(s / math.sqrt(c)))


def koiso_integral_quadrature(p, H: float) -> float:
    """Independent quadrature route: 2 pi Int f(x) conf(x) dx."""
    a = as_alpha(p)
    d = fundamental_data(a, H)

    def integrand(x):
        return float(koiso_solution(a, H, x)) * float(d.conf(x))

    val, _ = quad(integrand, 0.0, AREA_CUTOFF, epsabs=1e-14, epsrel=1e-12, limit=200)
    return 4.0 * math.pi * val  # integrand is even


def koiso_integral(p, H: float) -> float:
    """Int f dA by the closed form, cross-checked against quadrature."""
    closed = koiso_integral_closed(p, H)
    quadr = koiso_integral_quadrature(p, H)
    scale = max(abs(closed), abs(quadr), 1e-12)
    if abs(closed - quadr) > KOISO_RTOL * scale:
        raise ConsistencyError(
            f"Koiso integral mismatch: closed {closed} vs quadrature {quadr}")
    return closed


def classify_sphere(p, H: float) -> StabilityVerdict:
    """Koiso criterion: S_a(H) is stable iff Int f dA >= 0."""
    a = as_alpha(p)
    H = as_H(H)
    margin = koiso_integral_closed(a, H)
    return StabilityVerdict(stable=margin >= 0.0, margin=margin,
                            criterion=KOISO_INTEGRAL, alpha=a, H=H)


def alpha0() -> float:
    """The threshold deformation: below it some spheres are unstable.

    Root of artanh(sqrt(1-a)) = 3 sqrt(1-a) / (2 - 3a) on (0, 1/3); the
    minimal sphere S_a(0) changes stability here.
    """
    from scipy.optimize import brentq

    def f(a):
        s = math.sqrt(1.0 - a)
        return math.atanh(s) - 3.0 * s / (2.0 - 3.0 * a)

    return brentq(f, 1e-9, 1.0 / 3.0 - 1e-12, xtol=1e-14, rtol=8.9e-16)


def _boundary_equation(alpha: float, H: float) -> float:
    """3 sqrt(H^2+1) sqrt(1-a) + (H^2 + 3a - 2) artanh(sqrt(1-a)/sqrt(H^2+1));
    same sign as the Koiso integral for a < 1."""
    c = math.sqrt(H**2 + 1.0)
    s = math.sqrt(1.0 - alpha)
    return 3.0 * c * s + (H**2 + 3.0 * alpha - 2.0) * math.atanh(s / c)


def sphere_stability_boundary(alpha_grid) -> np.ndarray:
    """H(a) on a grid of a < alpha0: spheres are stable iff H >= H(a).

    Returns an array of rows (a, H(a)); raises for a >= alpha0 where no
    positive root exists.
    """
    from scipy.optimize import brentq

    a0 = alpha0()
    out = []
    for a in np.atleast_1d(np.asarray(alpha_grid, dtype=float)):
        if not 0.0 < a < a0:
            raise ValueError(f"alpha={a} is not below alpha0={a0:.6f}")
        hi = 1.0
        while _boundary_equation(a, hi) <= 0.0:
            hi *= 2.0
            if hi > 1e6:
                raise RuntimeError("no sign change found for the stability boundary")
        H = brentq(lambda h: _boundary_equation(a, h), 0.0, hi, xtol=1e-12, rtol=8.9e-16)
        out.append((a, H))
    return np.asarray(out)


# ---------------------------------------------------------------------------
# direct spectral verification
# ---------------------------------------------------------------------------

def _grid(n: int):
    """Cell width, cell centres and cell edges of n cells on t in [-1, 1]."""
    h = 2.0 / n
    return h, -1.0 + (np.arange(n) + 0.5) * h, -1.0 + np.arange(n + 1) * h


def _mode_eigenvalues(alpha: float, H: float, k: int, n: int, count: int) -> np.ndarray:
    """Smallest eigenvalues of the Fourier-mode-k problem on t in [-1, 1].

    Eigenfunctions behave like (1 - t^2)^{k/2} at the poles, so we solve for
    the regular part g with f = (1 - t^2)^{k/2} g; the quadratic form becomes

        Int sigma^{k+1} g'^2 + (k^2 + k - 2) sigma^k g^2 dt,
        sigma = 1 - t^2,

    with weight w sigma^k.  Everything in sight is smooth, the finite-volume
    scheme converges at second order for every mode, and the k = 1 zero mode
    is the exact constant g = 1.
    """
    h, t_node, t_edge = _grid(n)
    sig_node = 1.0 - t_node**2
    sig_edge = 1.0 - t_edge**2
    w = (H**2 + alpha) / (1.0 + H**2 - (1.0 - alpha) * t_node**2) ** 2

    flux = sig_edge ** (k + 1) / h
    pot = h * (k**2 + k - 2.0) * sig_node**k
    diag = flux[:-1] + flux[1:] + pot
    off = -flux[1:-1]
    m = h * w * sig_node**k
    sm = np.sqrt(m)
    diag_b = diag / m
    off_b = off / (sm[:-1] * sm[1:])
    count = min(count, n)
    vals = eigh_tridiagonal(diag_b, off_b, select="i",
                            select_range=(0, count - 1), eigvals_only=True)
    return vals


def jacobi_spectrum(p, H: float, k_max: int = 3, n: int = 4000) -> SpectrumResult:
    """Low end of the Jacobi spectrum of S_a(H), merged over Fourier modes.

    Modes k and -k coincide, so k != 0 eigenvalues enter twice.  Zero
    eigenvalues are classified by |lambda| < 1e-3 times the spread between
    the 3rd and 4th smallest |lambda| (the nullity is exactly three, which
    makes this relative rule grid-robust).
    """
    a = as_alpha(p)
    if k_max < 2:
        raise ValueError("need k_max >= 2 to see all candidate zero modes")
    if n < SPECTRUM_MIN_N:
        raise ValueError(f"need n >= {SPECTRUM_MIN_N} grid cells")
    # the mode-k mass carries sigma^k, smallest at the outermost node; below
    # the normal floats the mass matrix loses digits and then reaches 0
    sig_min = float(np.min(1.0 - _grid(n)[1] ** 2))
    if sig_min**k_max < TINY:
        k_top = math.floor(math.log(TINY) / math.log(sig_min))
        raise ValueError(f"k_max={k_max} is beyond the grid: on n={n} cells the mode "
                         f"weight sigma^k stays a normal float only up to k_max={k_top}")
    lams, ks = [], []
    for k in range(k_max + 1):
        vals = _mode_eigenvalues(a, H, k, n, PER_MODE)
        reps = 1 if k == 0 else 2
        for v in vals:
            for _ in range(reps):
                lams.append(float(v))
                ks.append(k)
    lams = np.asarray(lams)
    ks = np.asarray(ks)
    order = np.argsort(lams)
    lams, ks = lams[order], ks[order]

    absl = np.sort(np.abs(lams))
    gap34 = float(absl[3] - absl[2])
    zero_tol = 1e-3 * gap34
    zeros = int(np.sum(np.abs(lams) < zero_tol))
    negatives = int(np.sum(lams < -zero_tol))
    positive = lams[lams > zero_tol]
    gap = float(positive[0]) if len(positive) else math.inf
    return SpectrumResult(eigenvalues=lams, modes=ks, negatives=negatives,
                          zeros=zeros, gap=gap, zero_tol=zero_tol)


def jacobi_rayleigh_C(p, H: float) -> float:
    """Rayleigh quotient of the vertical-angle function C = tanh x.

    C is always a Jacobi function, so the quotient vanishes up to
    quadrature error; computed as Q(C) / Int C^2 dA with adaptive
    quadrature, independent of any grid.
    """
    a = as_alpha(p)
    d = fundamental_data(a, H)

    def num(x):
        sech2 = 1.0 / math.cosh(x) ** 2
        return sech2**2 - 2.0 * sech2 * math.tanh(x) ** 2

    def den(x):
        return math.tanh(x) ** 2 * float(d.conf(x))

    qn, _ = quad(num, 0.0, AREA_CUTOFF, epsabs=1e-14, epsrel=1e-12)
    qd, _ = quad(den, 0.0, AREA_CUTOFF, epsabs=1e-14, epsrel=1e-12)
    return abs(qn) / qd
