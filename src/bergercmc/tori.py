"""The CMC Hopf tori T_a(H) = S^1(r1) x S^1(r2) and their stability.

For each H >= 0 there is one embedded CMC flat torus, with

    r1^2 = 1/2 + H / (2 sqrt(1 + H^2)),      r1^2 + r2^2 = 1.

It is flat, and its Laplace eigenvalues are the values over integer (m, n)
of the inverse of the induced metric g (det g = a r1^2 r2^2), u = r1/r2:

    (m, n) g^-1 (m, n)^T = (m + n)^2 / a + (m/u - n u)^2.

The Jacobi operator is Delta + 4(H^2 + 1), so the torus is stable iff the
first nonzero eigenvalue lambda_1 is at least 4(H^2 + 1), the value at (1, -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ambient import (ConsistencyError, NumericalError, StabilityVerdict, as_alpha, as_count,
                      as_H)

GROUP_TOL = 1e-9  # eigenvalues within this relative distance of a group's first are one
LAMBDA1_RTOL = 1e-10  # enumerated lambda_1 vs lambda1_closed_form
TORUS_MIN_N, TORUS_MAX_N = 3, 1000  # enumeration cutoffs; (2N + 1)^2 <= 4.0M lattice points


@dataclass(frozen=True)
class TorusData:
    alpha: float
    H: float
    r1: float
    r2: float

    @property
    def dual_gram(self) -> np.ndarray:
        """g^-1 = [[1/a + 1/u^2, b], [b, 1/a + u^2]], u = r1/r2, b = (1 - a)/a
        (not 1/a - 1, which loses digits near a = 1)."""
        import numpy as np

        u = self.H + math.sqrt(1.0 + self.H**2)
        b = (1.0 - self.alpha) / self.alpha
        return np.array([[1.0 / self.alpha + 1.0 / u**2, b], [b, 1.0 / self.alpha + u**2]])

    def pairing(self, v, w):
        """v g^-1 w^T for v = (m, n) and w = (m', n') (numbers or arrays), term by
        term: (m + n)(m' + n')/a + (m/u - n u)(m'/u - n' u).  The entries of
        dual_gram would cancel where a >> 1, or a << 1 with H > 0."""
        u = self.H + math.sqrt(1.0 + self.H**2)
        return ((v[0] + v[1]) * (w[0] + w[1]) / self.alpha
                + (v[0] / u - v[1] * u) * (w[0] / u - w[1] * u))


def torus_data(p, H: float) -> TorusData:
    """Radii of the CMC Hopf torus T_a(H)."""
    a = as_alpha(p)
    H = as_H(H)
    c = math.sqrt(1.0 + H**2)
    r1sq = 0.5 + H / (2.0 * c)
    r2sq = 1.0 / (2.0 * c * (c + H))  # = 1 - r1sq, which cancels for large H
    return TorusData(alpha=a, H=H, r1=math.sqrt(r1sq), r2=math.sqrt(r2sq))


@dataclass
class TorusSpectrum:
    """Sorted Laplace eigenvalues of the flat torus with multiplicities."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    lambda1: float
    shell_min: float  # smallest form value on the enumeration boundary


class CutoffError(NumericalError):
    """The enumeration box cannot certify lambda_1; enlarge N."""


def torus_spectrum(t: TorusData, N: int = 8) -> TorusSpectrum:
    """Laplace spectrum {t.pairing((m, n), (m, n))} by brute-force enumeration
    of (m, n) in [-N, N]^2.

    Certified: the minimum of the quadratic form on the continuous boundary
    of the [-N, N]^2 box bounds every lattice point outside the box, so the
    reported lambda_1 is exact once that minimum exceeds it, and it must match
    lambda1_closed_form within LAMBDA1_RTOL.  Only the values below shell_min
    are complete: above it, points outside the box are missing.
    """
    import numpy as np

    N = as_count(N, TORUS_MIN_N, TORUS_MAX_N, "N")
    G = t.dual_gram
    m, n = np.meshgrid(np.arange(-N, N + 1), np.arange(-N, N + 1), indexing="ij")
    vals = t.pairing((m, n), (m, n)).ravel()
    vals.sort()

    # smallest value of the form on the boundary of the box (continuous)
    def edge_min(fixed, axis):
        # minimize Q(x, y) over y in [-N, N] with x = fixed (or swapped)
        y = min(max(-G[0, 1] * fixed / G[1 - axis, 1 - axis], -N), N)
        v = (fixed, y) if axis == 0 else (y, fixed)
        return t.pairing(v, v)

    shell = min(edge_min(N, 0), edge_min(-N, 0), edge_min(N, 1), edge_min(-N, 1))

    # the origin is the only zero: every other (m, n) gives at least min(1/a, 4) > 0
    positive = vals[vals > 0.0]
    lambda1 = float(positive[0])
    if shell <= lambda1:
        raise CutoffError(
            f"boundary shell minimum {shell} does not exceed lambda_1 {lambda1}: increase N")
    lam_cf = lambda1_closed_form(t.alpha, t.H)
    if abs(lambda1 - lam_cf) > LAMBDA1_RTOL * lam_cf:
        raise ConsistencyError(f"torus lambda1: enumeration {lambda1} vs closed form {lam_cf}")

    uniq, counts = [], []
    for v in vals:
        if uniq and v - uniq[-1] < GROUP_TOL * uniq[-1]:
            counts[-1] += 1
        else:
            uniq.append(float(v))
            counts.append(1)
    return TorusSpectrum(eigenvalues=np.asarray(uniq), multiplicities=np.asarray(counts),
                         lambda1=lambda1, shell_min=float(shell))


def torus_stability_threshold(alpha: float) -> float:
    """H*(a) = (1 - 3a) / (2 sqrt(a (1 - 2a))) for a <= 1/3 (else no stable H)."""
    a = as_alpha(alpha)
    if a > 1.0 / 3.0:
        raise ValueError("threshold defined for 0 < alpha <= 1/3")
    return (1.0 - 3.0 * a) / (2.0 * math.sqrt(a * (1.0 - 2.0 * a)))


def _shortest_norm(t: TorusData) -> float:
    """Smallest nonzero value of the form t.pairing over the integers, by
    Lagrange-Gauss reduction of the Gram matrix dual_gram; the reduced
    vector (m, n) is tracked and the form evaluated there term by term."""
    G = t.dual_gram
    g11, g12, g22 = float(G[0, 0]), float(G[0, 1]), float(G[1, 1])
    v, w = (1, 0), (0, 1)
    while True:
        if g22 < g11:
            g11, g22, v, w = g22, g11, w, v
        mu = round(g12 / g11)
        if mu == 0:
            return t.pairing(v, v)
        g22 += mu * (mu * g11 - 2.0 * g12)
        g12 -= mu * g11
        w = (w[0] - mu * v[0], w[1] - mu * v[1])


def lambda1_closed_form(p, H: float) -> float:
    """First nonzero Laplace eigenvalue of T_a(H): the least nonzero value
    of the form over the integers.

    Two values have closed forms: (1, -1) gives 4(H^2+1), the least for
    a <= 1/3 below the threshold H*(a), and (1, 0) gives
    2 sqrt(H^2+1)/(H + sqrt(H^2+1)) + (1-a)/a, the least otherwise up to
    a = 3.  Beyond, other values are smaller ((1, 1) gives 4/a at H = 0),
    so the reduced form decides.  The closed form is returned unless a
    value is smaller by more than GROUP_TOL, which keeps the margins at
    H*(a) and at the Clifford torus of a = 1/3 exactly zero.
    """
    a = as_alpha(p)
    H = as_H(H)
    if a <= 1.0 / 3.0 and H <= torus_stability_threshold(a):
        lam = 4.0 * (H**2 + 1.0)
    else:
        c = math.sqrt(H**2 + 1.0)
        lam = 2.0 * c / (H + c) + (1.0 - a) / a
    shortest = _shortest_norm(torus_data(a, H))
    return shortest if shortest < lam * (1.0 - GROUP_TOL) else lam


def classify_torus(p, H: float) -> StabilityVerdict:
    """Jacobi operator Delta + 4(H^2+1): stable iff lambda_1 >= 4(H^2+1)."""
    a = as_alpha(p)
    H = as_H(H)
    lam1 = lambda1_closed_form(a, H)
    margin = lam1 - 4.0 * (H**2 + 1.0)
    return StabilityVerdict(stable=margin >= 0.0, margin=margin, alpha=a, H=H)


def torus_area_volume(p, H):
    """Area of T_a(H) and the volume of the smaller side it bounds.

    area = 2 pi^2 sqrt(a/(1+H^2)) (that is 4 pi^2 sqrt(det g)); the side
    {|z| >= r1} has g_a-volume sqrt(a) * 2 pi^2 (1 - r1^2) = 2 pi^2
    sqrt(a) r2^2 = pi^2 sqrt(a) / (c (c + H)), c = sqrt(1 + H^2), which is
    at most half of the total for H >= 0.  H may be an array; the result
    then holds arrays of the same shape.
    """
    import numpy as np

    a = as_alpha(p)
    H = as_H(np.asarray(H, dtype=float))
    c = np.sqrt(1.0 + H**2)
    area = 2.0 * math.pi**2 * np.sqrt(a / (1.0 + H**2))
    volume = math.pi**2 * math.sqrt(a) / (c * (c + H))  # 1 - H/c without the cancellation
    if H.ndim == 0:
        return float(area), float(volume)
    return area, volume

