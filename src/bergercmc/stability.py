"""Stability of the CMC spheres S_a(H).

The second-variation quadratic form of every sphere in the family is the
same after conformally flattening: the potential times the conformal
factor is the (a, H)-independent function 2/cosh^2 x.  Stability is then
decided by the Koiso criterion (the surface has index one and mean-zero
Jacobi functions): S_a(H) is stable iff the solution f of Lf = 1
integrates to a nonnegative value.  Both f and its integral have closed
forms through cmc_spheres.artanh_ratio.

The spectral route is kept as well: mode by Fourier mode, the flattened
eigenvalue problem compactifies under t = tanh x into the Legendre-type
problem

    -((1 - t^2) f')' + (k^2/(1 - t^2) - 2) f = lambda w(t) f,
    w(t) = (H^2 + a) / (1 + H^2 - (1 - a) t^2)^2,

on [-1, 1] with natural boundary conditions, so no artificial domain
truncation is involved.  Every S_a(H) has index 1 and nullity 3, mode by
mode, by the oscillation theorem (Zettl, Sturm-Liouville Theory, ch. 10):
mode 0 has the eigenfunction t at 0 with one interior zero, so 0 is its
second eigenvalue and it is simple; modes +-1 have a form Int sigma^2 g'^2
(f = sqrt(sigma) g, sigma = 1 - t^2) with kernel g = 1; modes |k| >= 2
have a positive form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import as_alpha, as_H
from .cmc_spheres import (AREA_CUTOFF, ConsistencyError, SphereFundamentalData, artanh_ratio,
                          fundamental_data)
from .svgplot import write_csv

KOISO_INTEGRAL = "KoisoIntegral"
LAMBDA1_GAP = "Lambda1Gap"
KOISO_RTOL = 1e-6  # closed form vs quadrature of the Koiso integral
PER_MODE = 6  # eigenvalues computed per Fourier mode
TINY = float(np.finfo(float).tiny)  # smallest normal float
ZERO_RTOL = 1e-3  # the computed zero eigenvalues, relative to the spectral gap
SPECTRUM_MIN_N, SPECTRUM_MAX_N = 200, 10**6  # fewest and most Jacobi-spectrum grid cells


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


class SpectrumError(RuntimeError):
    """The computed spectrum breaks the zero-mode contract of jacobi_spectrum."""


@dataclass
class SpectrumResult:
    """Sorted generalized eigenvalues with Fourier mode bookkeeping."""

    eigenvalues: np.ndarray
    modes: np.ndarray
    gap: float
    index, nullity = 1, 3  # for every (a, H), by the theorem of the module docstring

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


def koiso_integral_closed(p, H):
    """Closed form pi/(2c^2) (3 + (H^2 + 3a - 2) G((1 - a)/c)/c) of Int f dA over
    S_a(H), c = 1 + H^2, for a float or an array of H (sign decides stability)."""
    a = as_alpha(p)
    h2 = H * H
    c = h2 + 1.0
    G = artanh_ratio((1.0 - a) / c, (h2 + a) / c)
    return math.pi * (3.0 + (h2 + 3.0 * a - 2.0) * G / c) / (2.0 * c * c)


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

    Root of koiso_integral_closed(a, 0) on (0, 1/3); the minimal sphere
    S_a(0) changes stability here.
    """
    from scipy.optimize import brentq

    return brentq(koiso_integral_closed, 1e-9, 1.0 / 3.0, args=(0.0,),
                  xtol=1e-14, rtol=8.9e-16)


def sphere_stability_boundary(alpha_grid) -> np.ndarray:
    """H(a) on a grid of a < alpha0: spheres are stable iff H >= H(a).

    Returns an array of rows (a, H(a)), the roots of koiso_integral_closed
    in H, which [0, 1] brackets: H(a) rises to 0.3708 as a -> 0.  Raises
    for a >= alpha0, where no positive root exists.
    """
    from scipy.optimize import brentq

    a0 = alpha0()
    out = []
    for a in np.atleast_1d(np.asarray(alpha_grid, dtype=float)):
        if not 0.0 < a < a0:
            raise ValueError(f"alpha={a} is not below alpha0={a0:.6f}")
        H = brentq(lambda h: koiso_integral_closed(a, h), 0.0, 1.0, xtol=1e-12, rtol=8.9e-16)
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
    w = (H**2 + alpha) / (1.0 + H**2 - (1.0 - alpha) * t_node**2) ** 2

    flux = (1.0 - t_edge**2) ** (k + 1) / h
    diag = flux[:-1] + flux[1:] + h * (k**2 + k - 2.0) * sig_node**k
    m = h * w * sig_node**k
    sm = np.sqrt(m)
    return eigh_tridiagonal(diag / m, -flux[1:-1] / (sm[:-1] * sm[1:]), select="i",
                            select_range=(0, min(count, n) - 1), eigvals_only=True)


def jacobi_spectrum(p, H: float, k_max: int = 3, n: int = 4000) -> SpectrumResult:
    """Low end of the Jacobi spectrum of S_a(H), merged over Fourier modes;
    modes k and -k coincide, so k != 0 eigenvalues enter twice.

    Index 1 and nullity 3 hold for every (a, H) (module docstring):
      - mode 0 has the eigenfunction t at 0 with one interior zero, so 0 is
        its second eigenvalue and it is simple;
      - modes +-1 have a form Int sigma^2 g'^2 with kernel g = 1;
      - modes |k| >= 2 have a positive form.
    So the gap is the least of mode 0's third, mode 1's second and every
    higher mode's first eigenvalue.  Raises SpectrumError unless the two
    computed zeros, which measure the discretization, are within ZERO_RTOL
    times the gap, the gap is positive and mode 0's first is negative.
    """
    a = as_alpha(p)
    if k_max < 2:
        raise ValueError("need k_max >= 2 to see all candidate zero modes")
    if not SPECTRUM_MIN_N <= n <= SPECTRUM_MAX_N:
        raise ValueError(f"need {SPECTRUM_MIN_N} <= n <= {SPECTRUM_MAX_N} grid cells, got {n}")
    # the mode-k mass carries sigma^k, smallest at the outermost node; below
    # the normal floats the mass matrix loses digits and then reaches 0
    sig_min = float(np.min(1.0 - _grid(n)[1] ** 2))
    if sig_min**k_max < TINY:
        k_top = math.floor(math.log(TINY) / math.log(sig_min))
        raise ValueError(f"k_max={k_max} is beyond the grid: on n={n} cells the mode "
                         f"weight sigma^k stays a normal float only up to k_max={k_top}")
    vals = [_mode_eigenvalues(a, H, k, n, PER_MODE) for k in range(k_max + 1)]
    gap = float(min(vals[0][2], vals[1][1], *(v[0] for v in vals[2:])))
    if not (vals[0][0] < 0.0 < gap and max(abs(vals[0][1]), abs(vals[1][0])) <= ZERO_RTOL * gap):
        raise SpectrumError(f"zero-mode contract failed: zeros {vals[0][1]:.3e} (mode 0) and "
                            f"{vals[1][0]:.3e} (mode 1), gap {gap:.3e}, lowest {vals[0][0]:.3e}")
    lams = np.concatenate([np.repeat(v, 1 if k == 0 else 2) for k, v in enumerate(vals)])
    ks = np.concatenate([np.full(len(v) * (1 if k == 0 else 2), k) for k, v in enumerate(vals)])
    order = np.argsort(lams)
    return SpectrumResult(eigenvalues=lams[order], modes=ks[order], gap=gap)


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
