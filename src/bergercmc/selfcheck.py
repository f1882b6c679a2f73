"""Invariant suite behind the `selftest` CLI command.

Each check is a quick, deterministic assertion of one of the paper's
claims or of what a command outputs: the round sphere's area, the constants,
the Koiso verdicts, the zero-mode contract, torus lambda1, the regions, the
integrand sign, the isoperimetric winner, the meridian's frame identities and
the embedding verdict.  No check runs a quadrature: the float oracles of the
derivation (z-chart, Gauss equation, Gauss-Bonnet, flat potential, volume
rate, round caps, the quadratures of the area and the Koiso integral) are
checked by tests/float_oracles.py and the tests that use it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import ambient, regions, tori
from .cmc_spheres import (alpha_emb, area_sphere, classify_embedding, fit_orbit_generator,
                          is_embedded, nonembedded_band, reconstruct_meridian, turning_angle)
from .isoperimetry import (clifford_vs_minimal_sphere, crossing_alpha, isoperimetric_candidate,
                           sphere_profile)
from .stability import (alpha0, classify_sphere, jacobi_spectrum, koiso_integral,
                        sphere_stability_boundary)


def check_areas():
    assert abs(area_sphere(1.0, 0.0) - 4 * math.pi) < 1e-9


def check_koiso():
    a0 = alpha0()
    assert abs(a0 - 0.121) < 5e-4, "alpha0 printed value"
    assert abs(koiso_integral(a0, 0.0)) < 1e-9, "alpha0 root property"
    rows = sphere_stability_boundary(np.linspace(0.02 * a0, 0.995 * a0, 60))  # the regions grid
    assert max(abs(koiso_integral(a, H)) for a, H in rows) <= 1e-14, "Koiso root at H(a)"
    assert not classify_sphere(0.05, 0.0).stable and classify_sphere(2.0, 0.0).stable


# spheres of the spectrum check
SPHERE_GRID = [(a, H) for a in (0.05, 0.3, 1.0, 2.0, 3.0) for H in (0.0, 0.7, 1.5, 2.5)]


def check_jacobi_spectrum():
    for a, H in SPHERE_GRID:
        jacobi_spectrum(a, H, n=2500)  # raises SpectrumError off its zero-mode contract


def check_torus():
    G = tori.torus_data(1 / 3, 0.0).dual_gram  # the Clifford torus sits on the bound
    assert abs(G[0, 0] - 4.0) < 1e-12, "lambda(1, 0) = 4 at a = 1/3"
    assert abs(G[0, 0] - 2.0 * G[0, 1] + G[1, 1] - 4.0) < 1e-12, "lambda(1, -1) = 4 at a = 1/3"
    for a in np.linspace(0.02, 3.0, 30):
        for H in np.linspace(0.0, 4.0, 30):
            tori.torus_spectrum(tori.torus_data(a, H), N=10)  # raises off the closed-form lambda1
    assert not tori.classify_torus(0.5, 0.0).stable
    assert tori.classify_torus(1 / 3, 0.0).stable
    assert abs(tori.classify_torus(1 / 3, 0.0).margin) < 1e-12


def check_regions():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = float(rng.uniform(0, 1))
        e = int(rng.choice([-1, 1]))
        A, B, C = regions.region_coefficients(t, e)
        assert abs(regions.poly_eval(t, e, 1.0) - 4.0) < 1e-12, "P_t(1) = 4"
        assert abs(B**2 - 4.0 * A * C - 32 * (t - e) ** 2 * (1 + t**2)) < 1e-10
        root = regions.alpha_root(t, e)
        assert abs(regions.poly_eval(t, e, root)) < 1e-9, "root residual"
    t0, a1, ah = regions.critical_constants()
    assert abs(t0 - 0.1292) < 5e-5 and abs(a1 - 0.217) < 5e-4 and abs(ah - 4 / 3) < 1e-12


def check_integrand_sign():
    H, c = np.meshgrid(np.linspace(0.0, 3.0, 46), np.linspace(-1.0, 1.0, 47), indexing="ij")
    for a in np.linspace(1 / 3, 1.0 - 1e-9, 47):
        assert np.max(regions.stability_integrand(a, H, c)) <= 1e-12, f"integrand at a={a}"
    assert abs(regions.stability_integrand(1 / 3, 0.0, 0.0)) < 1e-12


def check_isoperimetry():
    ca = crossing_alpha()
    assert abs(ca - 0.166) < 5e-4, "crossing alpha printed value"
    at, asph, win = clifford_vs_minimal_sphere(1 / 3)
    assert win == "Sphere" and at > asph
    for a in (0.4, 0.8):
        prof = sphere_profile(a, H_max=16.0, n=250)
        for frac in np.linspace(0.025, 0.5, 20):
            rep = isoperimetric_candidate(a, frac * ambient.total_volume(a), profile=prof)
            assert rep.family == "Sphere", f"candidate at alpha={a}, {frac} of the volume"


def check_reconstruction():
    for a, H in ((1.0, 0.0), (1.0, 1.0), (0.5, 1.0), (1 / 3, 0.0), (2.0, 0.7)):
        m = reconstruct_meridian(a, H, (-8, 8), 4096)
        assert m.max_metric_residual < 1e-4 and m.max_C_residual < 1e-6, f"residual at ({a}, {H})"
        wg = (m.points[:, 0::2] + 1j * m.points[:, 1::2]) @ fit_orbit_generator(m).T
        phi_y = np.stack([wg.real, wg.imag], axis=-1).reshape(-1, 4)  # exact W gamma
        g = functools.partial(ambient.metric_eval, a, m.points)
        s2 = 1.0 / np.cosh(m.x) ** 2
        q = H * H + a * np.tanh(m.x) ** 2 + s2
        conf = (H * H + a) * s2 / (q * q)  # the conformal factor of cmc_spheres' docstring
        assert np.max(np.abs(np.linalg.norm(m.points, axis=1) - 1.0)) <= 1e-12, "|gamma| = 1"
        assert np.max(np.abs(g(phi_y, phi_y) / conf - 1.0)) <= 1e-10, "g_a(W gamma, W gamma) = conf"
        assert np.max(np.abs(g(m.normals, m.normals) - 1.0)) <= 1e-12, "g_a(N, N) = 1"
        assert np.max(np.abs(g(m.normals, phi_y))) <= 1e-12, "g_a(N, W gamma) = 0"


def check_embedding():
    # the turning-angle verdict against the sign changes of Im w' along the
    # sampled meridian, on meridians they decide: 2 and 1 crossings, embedded
    # next to the band, embedded for a = 0.5, a > 1 and H = 0
    for a, H in ((0.005, 0.5), (0.02, 1.0), (0.04, 0.5), (0.05, 0.6), (0.5, 1.0),
                 (2.0, 0.7), (0.1, 0.0)):
        r = is_embedded(reconstruct_meridian(a, H, (-9, 9), 4096))
        v = classify_embedding(a, H)
        assert r.embedded is not None, f"sampled route undecided at ({a}, {H})"
        assert (v.embedded, v.crossings) == (r.embedded, r.crossings), f"verdict at ({a}, {H})"
    for a in (1e-6, 0.3, 1.0, 50.0):  # the minimal sphere's curve is a diameter
        assert turning_angle(a, 0.0) == math.pi / 2, f"Theta(a, 0) at a = {a}"
    ae = alpha_emb()  # the band of non-embedded spheres closes there
    assert nonembedded_band(ae * (1.0 + 1e-9)) is None, "no band just above alpha_emb"
    assert nonembedded_band(ae * (1.0 - 1e-9)) is not None, "a band just below alpha_emb"


CHECKS = [check_areas, check_koiso, check_jacobi_spectrum, check_torus, check_regions,
          check_integrand_sign, check_isoperimetry, check_reconstruction, check_embedding]


def run():
    """Run every check in turn, yielding (name, the exception it raised or None);
    the name is the function name without "check_" and with hyphens."""
    for fn in CHECKS:
        name = fn.__name__.removeprefix("check_").replace("_", "-")
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            yield name, exc
        else:
            yield name, None
