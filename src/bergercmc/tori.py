"""The CMC Hopf tori T_a(H) = S^1(r1) x S^1(r2) and their stability.

For each H >= 0 there is one embedded CMC flat torus, with

    r1^2 = 1/2 + H / (2 sqrt(1 + H^2)),      r1^2 + r2^2 = 1.

Intrinsically it is R^2 / Lambda for an explicit lattice Lambda realizing
the induced metric; the Laplace spectrum is the set of squared norms of
the dual lattice, and the Jacobi operator is Delta + 4(H^2 + 1), so the
torus is stable iff the first nonzero eigenvalue lambda_1 is at least
4(H^2 + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import as_alpha, as_H
from .stability import LAMBDA1_GAP, StabilityVerdict
from .svgplot import write_csv

GROUP_TOL = 1e-9  # eigenvalues within this relative distance are one eigenvalue
TORUS_MIN_N, TORUS_MAX_N = 3, 1000  # enumeration cutoffs; (2N + 1)^2 <= 4.0M lattice points


@dataclass(frozen=True)
class TorusData:
    alpha: float
    H: float
    r1: float
    r2: float
    metric: np.ndarray  # 2x2 induced metric in the (t, s) angles

    @property
    def det_metric(self) -> float:
        g = self.metric
        return float(g[0, 0] * g[1, 1] - g[0, 1] ** 2)


@dataclass(frozen=True)
class LatticeBasis:
    v1: np.ndarray
    v2: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.column_stack([self.v1, self.v2])

    def gram(self) -> np.ndarray:
        B = self.matrix()
        return B.T @ B


def torus_data(p, H: float) -> TorusData:
    """Radii and induced metric of the CMC Hopf torus T_a(H)."""
    a = as_alpha(p)
    H = as_H(H)
    c = math.sqrt(1.0 + H**2)
    r1sq = 0.5 + H / (2.0 * c)
    r2sq = 1.0 / (2.0 * c * (c + H))  # = 1 - r1sq, which cancels for large H
    g11 = r1sq * (1.0 - (1.0 - a) * r1sq)
    g22 = r2sq * (1.0 - (1.0 - a) * r2sq)
    g12 = -r1sq * r2sq * (1.0 - a)
    g = np.array([[g11, g12], [g12, g22]])
    return TorusData(alpha=a, H=H, r1=math.sqrt(r1sq), r2=math.sqrt(r2sq), metric=g)


def lattice_and_dual(t: TorusData) -> tuple[LatticeBasis, LatticeBasis]:
    """Basis (v1, v2) of the defining lattice (scaled by 2 pi) and its dual.

    The Gram matrix of (2 pi v1, 2 pi v2) is 4 pi^2 g, and <v_i, v_j*> =
    delta_ij, so the dual squared norms are the Laplace eigenvalues.
    """
    a = t.alpha
    r1, r2 = t.r1, t.r2
    x = 1.0 - (1.0 - a) * r1**2
    sx = math.sqrt(x)
    sa = math.sqrt(a)
    v1 = np.array([r1 * sx, 0.0])
    v2 = (r2 / sx) * np.array([-r1 * r2 * (1.0 - a), sa])
    v1s = (1.0 / sx) * np.array([1.0 / r1, r2 * (1.0 - a) / sa])
    v2s = np.array([0.0, sx / (r2 * sa)])
    return LatticeBasis(v1, v2), LatticeBasis(v1s, v2s)


@dataclass
class TorusSpectrum:
    """Sorted Laplace eigenvalues of the flat torus with multiplicities."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    lambda1: float
    shell_min: float  # smallest form value on the enumeration boundary

    def to_csv(self, path) -> None:
        write_csv(path, ("lambda", "multiplicity"), zip(self.eigenvalues, self.multiplicities))


class CutoffError(RuntimeError):
    """The enumeration box cannot certify lambda_1; enlarge N."""


def torus_spectrum(t: TorusData, N: int = 8) -> TorusSpectrum:
    """Laplace spectrum {|m v1* + n v2*|^2} by brute-force dual enumeration.

    Certified: the minimum of the quadratic form on the continuous boundary
    of the [-N, N]^2 box bounds every lattice point outside the box, so the
    reported lambda_1 is exact once that minimum exceeds it.
    """
    if not TORUS_MIN_N <= N <= TORUS_MAX_N:
        raise ValueError(f"need enumeration cutoff {TORUS_MIN_N} <= N <= {TORUS_MAX_N}, got {N}")
    _, dual = lattice_and_dual(t)
    G = dual.gram()  # |m v1* + n v2*|^2 = (m,n) G (m,n)^T
    m, n = np.meshgrid(np.arange(-N, N + 1), np.arange(-N, N + 1), indexing="ij")
    vals = (G[0, 0] * m**2 + 2.0 * G[0, 1] * m * n + G[1, 1] * n**2).ravel()
    vals.sort()

    # smallest value of the form on the boundary of the box (continuous)
    def edge_min(fixed, axis):
        # minimize Q(x, y) over y in [-N, N] with x = fixed (or swapped)
        aa = G[1, 1] if axis == 0 else G[0, 0]
        bb = G[0, 1] * fixed
        y = min(max(-bb / aa, -N), N)
        if axis == 0:
            return G[0, 0] * fixed**2 + 2 * G[0, 1] * fixed * y + G[1, 1] * y**2
        return G[0, 0] * y**2 + 2 * G[0, 1] * y * fixed + G[1, 1] * fixed**2

    shell = min(edge_min(N, 0), edge_min(-N, 0), edge_min(N, 1), edge_min(-N, 1))

    positive = vals[vals > GROUP_TOL]
    lambda1 = float(positive[0])
    if shell <= lambda1:
        raise CutoffError(
            f"boundary shell minimum {shell} does not exceed lambda_1 {lambda1}: increase N")

    uniq, counts = [], []
    for v in vals:
        if uniq and v - uniq[-1] < GROUP_TOL * max(1.0, uniq[-1]):
            counts[-1] += 1
        else:
            uniq.append(float(v))
            counts.append(1)
    return TorusSpectrum(eigenvalues=np.asarray(uniq), multiplicities=np.asarray(counts),
                         lambda1=lambda1, shell_min=float(shell))


def torus_stability_threshold(alpha: float) -> float:
    """H*(a) = (1 - 3a) / (2 sqrt(a (1 - 2a))) for a <= 1/3 (else no stable H)."""
    if not 0.0 < alpha <= 1.0 / 3.0:
        raise ValueError("threshold defined for 0 < alpha <= 1/3")
    return (1.0 - 3.0 * alpha) / (2.0 * math.sqrt(alpha * (1.0 - 2.0 * alpha)))


def _shortest_norm(G: np.ndarray) -> float:
    """Smallest nonzero value of (m, n) G (m, n)^T over the integers, by
    Lagrange-Gauss reduction of the 2x2 Gram matrix G."""
    g11, g12, g22 = float(G[0, 0]), float(G[0, 1]), float(G[1, 1])
    while True:
        if g22 < g11:
            g11, g22 = g22, g11
        mu = round(g12 / g11)
        if mu == 0:
            return g11
        g22 += mu * (mu * g11 - 2.0 * g12)
        g12 -= mu * g11


def lambda1_closed_form(p, H: float) -> float:
    """First nonzero Laplace eigenvalue of T_a(H): the shortest dual norm.

    Two dual vectors have closed-form norms: v1* - v2* gives 4(H^2+1), the
    shortest for a <= 1/3 below the threshold H*(a), and v1* gives
    2 sqrt(H^2+1)/(H + sqrt(H^2+1)) + (1-a)/a, the shortest otherwise up
    to a = 3.  Beyond, other vectors are shorter (v1* + v2* has 4/a at
    H = 0), so the reduced dual basis decides.  The closed form is returned
    unless a vector is shorter by more than GROUP_TOL, which keeps the
    margins at H*(a) and at the Clifford torus of a = 1/3 exactly zero.
    """
    a = as_alpha(p)
    H = as_H(H)
    if a <= 1.0 / 3.0 and H <= torus_stability_threshold(a):
        lam = 4.0 * (H**2 + 1.0)
    else:
        c = math.sqrt(H**2 + 1.0)
        lam = 2.0 * c / (H + c) + (1.0 - a) / a
    shortest = _shortest_norm(lattice_and_dual(torus_data(a, H))[1].gram())
    return shortest if shortest < lam * (1.0 - GROUP_TOL) else lam


def classify_torus(p, H: float) -> StabilityVerdict:
    """Jacobi operator Delta + 4(H^2+1): stable iff lambda_1 >= 4(H^2+1)."""
    a = as_alpha(p)
    H = as_H(H)
    lam1 = lambda1_closed_form(a, H)
    margin = lam1 - 4.0 * (H**2 + 1.0)
    return StabilityVerdict(stable=margin >= 0.0, margin=margin,
                            criterion=LAMBDA1_GAP, alpha=a, H=H)


def torus_area_volume(p, H):
    """Area of T_a(H) and the volume of the smaller side it bounds.

    area = 2 pi^2 sqrt(a/(1+H^2)) (that is 4 pi^2 sqrt(det g)); the side
    {|z| >= r1} has g_a-volume sqrt(a) * 2 pi^2 (1 - r1^2) = 2 pi^2
    sqrt(a) r2^2 = pi^2 sqrt(a) / (c (c + H)), c = sqrt(1 + H^2), which is
    at most half of the total for H >= 0.  H may be an array; the result
    then holds arrays of the same shape.
    """
    a = as_alpha(p)
    H = np.asarray(H, dtype=float)
    as_H(H.min())  # a NaN entry propagates to the min and the max,
    as_H(H.max())  # so these two calls check every entry
    c = np.sqrt(1.0 + H**2)
    area = 2.0 * math.pi**2 * np.sqrt(a / (1.0 + H**2))
    volume = math.pi**2 * math.sqrt(a) / (c * (c + H))  # 1 - H/c without the cancellation
    if H.ndim == 0:
        return float(area), float(volume)
    return area, volume

