"""Stability of the CMC spheres S_a(H).

The second-variation quadratic form of every sphere in the family is the
same after conformally flattening: the potential times the conformal
factor is the (a, H)-independent function 2/cosh^2 x.  Stability is then
decided by the Koiso criterion (the surface has index one and mean-zero
Jacobi functions): S_a(H) is stable iff the solution f of Lf = 1
integrates to a nonnegative value.  Both f and its integral have closed
forms through G = cmc_spheres.artanh_ratio.  As H^2 + 3a - 2 = c (1 - 3X),
c = 1 + H^2, X = (1 - a)/c, the integral is pi kappa(X)/(2 c^2) with
kappa(X) = 3 + (1 - 3X) G(X): kappa > 0 for X <= 1/3 (G > 0), kappa' =
-3G + (1 - 3X) G' < 0 on (1/3, 1) (G, G' > 0) and kappa -> -inf as X -> 1,
so S_a(H) is stable iff X <= X_K = 0.879116531926, kappa's one root.  At
H = 0, X = 1 - a, so alpha0 = 1 - X_K: S_a(H) is stable for every H if
a >= alpha0, and for a < alpha0 iff H >= H(a) = sqrt((alpha0 - a)/(1 - alpha0)),
which rises to H(0+) = sqrt(alpha0/(1 - alpha0)) = 0.370817508879 as a -> 0
(Torralbo-Urbano, arXiv 0906.1439).

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
have a positive form.  jacobi_spectrum checks the discrete counterpart on its
finite-volume grid by Sturm counts at -+1e-3 times the spectral gap: mode 0 has
one eigenvalue below that window and one in it, modes +-1 one each in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambient import (ConsistencyError, NumericalError, StabilityVerdict, as_alpha, as_H, brentq,
                      even_integral)
from .cmc_spheres import AREA_CUTOFF, artanh_ratio, fundamental_data
from .svgplot import write_csv

KOISO_RTOL = 1e-6  # closed form vs quadrature of the Koiso integral
PER_MODE = 6  # eigenvalues per Fourier mode in SpectrumResult's table
EPS, TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)  # ulp of 1, least normal
ZERO_RTOL = 1e-3  # the window +-ZERO_RTOL * gap that must hold the zero eigenvalues
COUNT_ULPS = 2.5  # a Sturm count's backward error in the off-diagonal, in ulps (_certify)
SPECTRUM_MIN_N, SPECTRUM_MAX_N = 200, 10**6  # fewest and most Jacobi-spectrum grid cells


# module attributes that callers can wrap or replace; scipy loads on first call
def quad(f):
    return even_integral(f, AREA_CUTOFF)


def eigh_tridiagonal(*args, **kwargs):
    import scipy.linalg
    return scipy.linalg.eigh_tridiagonal(*args, **kwargs)


class SpectrumError(NumericalError):
    """The computed spectrum breaks the zero-mode contract of jacobi_spectrum."""


@dataclass
class SpectrumResult:
    """The spectral gap of S_a(H) on n grid cells; the sorted eigenvalues of modes
    0..k_max (PER_MODE each, k != 0 twice) and their Fourier modes are solved on
    first read of eigenvalues, modes or to_csv, and raise SpectrumError off the
    zero-mode contract of jacobi_spectrum."""

    alpha: float
    H: float
    k_max: int
    n: int
    gap: float
    index, nullity = 1, 3  # for every (a, H), by the theorem of the module docstring

    @cached_property
    def _table(self):
        vals = [_mode_eigenvalues(self.alpha, self.H, k, self.n, PER_MODE)
                for k in range(self.k_max + 1)]
        gap = float(min(vals[0][2], vals[1][1], *(v[0] for v in vals[2:])))
        _certify(gap, [(f"mode {k}", _mode_matrix(self.alpha, self.H, k, self.n), expected)
                       for k, expected in ((0, (1, 2)), (1, (0, 1)))])
        lams = np.concatenate([np.repeat(v, 1 if k == 0 else 2) for k, v in enumerate(vals)])
        ks = np.concatenate([np.full(len(v) * (1 if k == 0 else 2), k) for k, v in enumerate(vals)])
        order = np.argsort(lams)
        return lams[order], ks[order]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._table[0]

    @property
    def modes(self) -> np.ndarray:
        return self._table[1]

    def to_csv(self, path) -> None:
        write_csv(path, ("k", "lambda"), zip(self.modes, self.eigenvalues))


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
    S_a(H), c = 1 + H^2, for a float or an array of H; it is pi kappa(X)/(2c^2),
    X = (1 - a)/c, whose sign decides stability (module docstring)."""
    a = as_alpha(p)
    h2 = H * H
    c = h2 + 1.0
    G = artanh_ratio((1.0 - a) / c, (h2 + a) / c)
    return math.pi * (3.0 + (h2 + 3.0 * a - 2.0) * G / c) / (2.0 * c * c)


def koiso_integral_quadrature(p, H: float) -> float:
    """Independent quadrature route: 2 pi Int f(x) conf(x) dx, by the trapezoidal rule."""
    d = fundamental_data(p, H)
    return 2.0 * math.pi * quad(lambda x: koiso_solution(d.alpha, H, x) * d.conf(x))


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
    return StabilityVerdict(stable=margin >= 0.0, margin=margin, alpha=a, H=H)


def alpha0() -> float:
    """The threshold deformation 1 - X_K: below it some spheres are unstable.

    Root of koiso_integral_closed(a, 0) on (0, 1/3); the minimal sphere
    S_a(0) changes stability here.
    """
    return brentq(lambda a: koiso_integral_closed(a, 0.0), 1e-9, 1.0 / 3.0,
                  xtol=1e-14, rtol=8.9e-16)


def sphere_stability_boundary(alpha_grid) -> np.ndarray:
    """Rows (a, H(a)), H(a) = sqrt((alpha0 - a)/(1 - alpha0)), on a grid of a in
    (0, alpha0): S_a(H) is stable iff H >= H(a) (module docstring).  alpha0 - a
    is exact near alpha0 (Sterbenz), where (1 - a)/X_K - 1 would cancel.
    Raises ValueError naming the first entry that is NaN or not in (0, alpha0)."""
    a0 = alpha0()
    a = np.atleast_1d(np.asarray(alpha_grid, dtype=float))
    bad = ~((0.0 < a) & (a < a0))
    if bad.any():
        raise ValueError(f"alpha={a[bad][0]} is not in (0, alpha0={a0:.6f})")
    return np.column_stack([a, np.sqrt((a0 - a) / (1.0 - a0))])


# ---------------------------------------------------------------------------
# direct spectral verification
# ---------------------------------------------------------------------------

def _grid(n: int):
    """Cell width, cell centres and cell edges of n cells on t in [-1, 1]."""
    h = 2.0 / n
    return h, -1.0 + (np.arange(n) + 0.5) * h, -1.0 + np.arange(n + 1) * h


def _mode_matrix(alpha: float, H: float, k: int, n: int):
    """Diagonal d and off-diagonal e of the Fourier-mode-k problem on t in [-1, 1].

    Eigenfunctions behave like (1 - t^2)^{k/2} at the poles, so we solve for
    the regular part g with f = (1 - t^2)^{k/2} g; the quadratic form becomes

        Int sigma^{k+1} g'^2 + (k^2 + k - 2) sigma^k g^2 dt,
        sigma = 1 - t^2,

    with weight w sigma^k.  Everything in sight is smooth, the finite-volume
    scheme converges at second order for every mode, and the k = 1 zero mode
    is the exact constant g = 1.  The grid, w and sigma are even in t, so the
    matrix is persymmetric: d[i] = d[n-1-i] and e[i] = e[n-2-i] up to rounding.
    """
    h, t_node, t_edge = _grid(n)
    sig_node = 1.0 - t_node**2
    w = (H**2 + alpha) / (1.0 + H**2 - (1.0 - alpha) * t_node**2) ** 2

    flux = (1.0 - t_edge**2) ** (k + 1) / h
    diag = flux[:-1] + flux[1:] + h * (k**2 + k - 2.0) * sig_node**k
    m = h * w * sig_node**k
    sm = np.sqrt(m)
    return diag / m, -flux[1:-1] / (sm[:-1] * sm[1:])


def _lowest(d, e, count: int) -> np.ndarray:
    """The count smallest eigenvalues of the tridiagonal matrix (d, e), by bisection."""
    return eigh_tridiagonal(d, e, select="i", select_range=(0, min(count, len(d)) - 1),
                            eigvals_only=True)


def _mode_eigenvalues(alpha: float, H: float, k: int, n: int, count: int) -> np.ndarray:
    """Smallest eigenvalues of the Fourier-mode-k problem on the full n-row matrix."""
    return _lowest(*_mode_matrix(alpha, H, k, n), count)


def _parity_blocks(d, e):
    """The even and odd blocks of a persymmetric tridiagonal matrix (d, e), each on
    the rows t > 0 (Cantoni and Butler, Linear Algebra Appl. 13 (1976) 275-288).
    For n = 2m the centre coupling e[m-1] adds to (even) or subtracts from (odd)
    d[m]; for n = 2c + 1 the even block keeps the centre row c, coupled by
    sqrt(2) e[c], and the odd block, which vanishes there, starts at row c + 1."""
    n = len(d)
    c = n // 2
    if n % 2 == 0:
        even, odd = d[c:].copy(), d[c:].copy()
        even[0] += e[c - 1]
        odd[0] -= e[c - 1]
        return (even, e[c:]), (odd, e[c:])
    e_even = e[c:].copy()
    e_even[0] *= math.sqrt(2.0)
    return (d[c:], e_even), (d[c + 1:], e[c + 1:])


def _count_below(d, e, x: float, lo: float) -> int:
    """The number of eigenvalues of (d, e) in (lo, x]: a value window whose tolerance
    is its own width stops stebz's bisection at once, after the Sturm counts at its
    ends."""
    return len(eigh_tridiagonal(d, e, select="v", select_range=(lo, x), tol=x - lo,
                                eigvals_only=True))


def _certify(gap: float, counted) -> float:
    """The gap, once the zero-mode contract holds: counted lists (name, (d, e),
    expected) with expected = (index, index + nullity) of that matrix, its counts of
    eigenvalues below -delta and below +delta, delta = ZERO_RTOL * gap.

    A Sturm count at x, computed in floating point, is the exact count of a matrix
    whose off-diagonal entries differ from e by at most 2.5 ulps relative, and whose
    diagonal moves by no more than pivmin and eps |x| (Kahan, Stanford CS41, 1966;
    Demmel, Dhillon and Ren, ETNA 3 (1995) 116-149).  By Weyl's theorem that matrix
    is within rho = COUNT_ULPS eps max_i (|e[i-1]| + |e[i]|) of (d, e), up to those
    negligible diagonal terms.  So the counts at +-delta place the eigenvalues of
    (d, e) only if delta > rho: then its index eigenvalues lie below
    -delta + rho < 0, its nullity ones within delta + rho of 0, and the rest above
    delta - rho > 0.  The off-diagonal row sums of these matrices are half their
    Gershgorin norm ||T|| (0.55 of it at the centre row of an odd n's even block),
    so the contract is refused once delta falls below about 1.25 eps ||T||.  Raises
    SpectrumError unless the gap is positive, delta > rho for every matrix and
    every count is as expected."""
    if not gap > 0.0:
        raise SpectrumError(f"zero-mode contract failed: the gap {gap:.3e} is not positive")
    delta = ZERO_RTOL * gap
    rows = []  # off-diagonal row sums of each matrix
    for _, (d, e), _ in counted:
        ae = np.abs(e)
        rows.append(np.r_[ae, 0.0] + np.r_[0.0, ae])
    rho = COUNT_ULPS * EPS * max(float(np.max(r)) for r in rows)
    if delta <= rho:
        raise SpectrumError(f"zero-mode contract failed: {ZERO_RTOL:g} x gap = {delta:.3e} "
                            f"is within the Sturm counts' resolution {rho:.3e} (gap {gap:.3e})")
    for (name, (d, e), expected), r in zip(counted, rows):
        low = float(np.min(d - r))  # the lower end of the Gershgorin interval
        lo = low - 1.0 - abs(low)  # strictly below it
        got = (_count_below(d, e, -delta, lo), _count_below(d, e, delta, lo))
        if got != expected:
            raise SpectrumError(f"zero-mode contract failed: {name} has {got[0]} and {got[1]} "
                                f"eigenvalues below -{delta:.3e} and {delta:.3e}, not "
                                f"{expected[0]} and {expected[1]} (gap {gap:.3e})")
    return gap


def _spectral_gap(alpha: float, H: float, n: int) -> float:
    """The least of mode 0's third, mode 1's second and mode 2's first eigenvalue,
    under the zero-mode contract (_certify), on the modes' half-size parity blocks.
    The matrices are persymmetric Jacobi matrices, so their eigenvectors alternate
    even, odd, even from the lowest, as the eigenfunctions do by the oscillation
    theorem: these are the first eigenvalues of mode 0's even block above its
    negative one, of mode 1's odd block and of mode 2's even block.  Only mode 2's
    is bisected from the Gershgorin interval.  Mode 0's even block, then mode 1's
    odd block, are solved only in the window (0, gap], gap the least eigenvalue
    found so far; mode 0's first eigenvalue is negative and lies below it.  Mode
    0's block goes first: its eigenvalue is most often the least, and mode 1's
    window is then usually empty, which two Sturm counts show."""
    (even0, odd0), (even1, odd1), (even2, _) = (_parity_blocks(*_mode_matrix(alpha, H, k, n))
                                                for k in range(3))
    gap = float(_lowest(*even2, 1)[0])
    for block in (even0, odd1):
        if gap > 0.0:
            found = eigh_tridiagonal(*block, select="v", select_range=(0.0, gap),
                                     eigvals_only=True)
            gap = float(min([gap, *found]))
    return _certify(gap, (("mode 0's even block", even0, (1, 1)),
                          ("mode 0's odd block", odd0, (0, 1)),
                          ("mode 1's even block", even1, (0, 1))))


def jacobi_spectrum(p, H: float, k_max: int = 3, n: int = 4000) -> SpectrumResult:
    """Low end of the Jacobi spectrum of S_a(H) on n grid cells, merged over
    Fourier modes 0..k_max; modes k and -k coincide.

    Index 1 and nullity 3 hold for every (a, H) (module docstring):
      - mode 0 has the eigenfunction t at 0 with one interior zero, so 0 is
        its second eigenvalue and it is simple;
      - modes +-1 have a form Int sigma^2 g'^2 with kernel g = 1;
      - modes |k| >= 2 have a positive form; for |k| >= 3 it is mode 2's plus
        (k^2 - 4) Int f^2/(1 - t^2) dt > 0 on the same form domain, so by
        min-max (Courant-Hilbert I, ch. VI) mode k starts above mode 2.
    So the gap is the least of mode 0's third, mode 1's second and mode 2's
    first eigenvalue, and this call solves no mode >= 3.  It bisects mode 2's
    first eigenvalue from the Gershgorin interval and finds the other two in the
    window below it, on the modes' half-size parity blocks (_spectral_gap).  The
    index and nullity are then certified by Sturm counts at -+ZERO_RTOL * gap, not
    by computed zeros (_certify); off that zero-mode contract, or when the counts
    cannot resolve ZERO_RTOL * gap, it raises SpectrumError.  The table of modes
    0..k_max, PER_MODE eigenvalues each, is solved on the full matrices on first
    read of the result's eigenvalues, modes or to_csv, under the same contract on
    the full matrices of modes 0 and 1.
    """
    a = as_alpha(p)
    H = as_H(H)
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
    return SpectrumResult(alpha=a, H=H, k_max=k_max, n=n, gap=_spectral_gap(a, H, n))
