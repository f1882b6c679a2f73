"""Invariant suite behind the `selftest` CLI command.

Each check is a quick, deterministic assertion of one of the library's
internal consistency contracts; together they exercise every module.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import ambient, regions, tori
from .cmc_spheres import (area_sphere, area_sphere_closed, classify_embedding,
                          fit_orbit_generator, fundamental_data, gauss_bonnet_integral,
                          gauss_curvature, integrability_residual, is_embedded,
                          planarity_report, reconstruct_meridian, turning_angle, zchart_data)
from .isoperimetry import (clifford_vs_minimal_sphere, crossing_alpha,
                           isoperimetric_candidate, round_cap_area_volume,
                           sphere_profile, sphere_volume, sphere_volume_rate)
from .stability import (alpha0, classify_sphere, jacobi_potential_flat, jacobi_rayleigh_C,
                        jacobi_spectrum, koiso_integral, koiso_integral_closed,
                        potential_from_data, sphere_stability_boundary)


def check_volume_form():
    rng = np.random.default_rng(11)
    q = rng.standard_normal((10, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a = rng.uniform(0.1, 2.5, 10)
    vecs = ambient.frame_at(q)
    G = np.stack([np.stack([ambient.metric_eval(a, q, u, v) for v in vecs], axis=-1)
                  for u in vecs], axis=-2)
    assert np.max(np.abs(G[:, 0, 0] - a)) < 1e-10, "g(V, V) = alpha"
    assert np.max(np.abs(np.linalg.det(G) - a)) < 1e-10, "det g_a = alpha in round frame"


def check_zchart_transport():
    x = np.linspace(-15.0, 15.0, 61)
    for a, H in ((0.3, 0.0), (0.5, 1.0), (2.0, 0.7), (1 / 3, 0.0)):
        d = fundamental_data(a, H)
        conf_z, A_z, p_z = zchart_data(a, H, x)
        assert np.max(np.abs(conf_z - d.conf(x))) < 1e-12, "conf transport"
        assert np.max(np.abs(A_z - d.A(x))) < 1e-12, "A transport"
        assert np.max(np.abs(p_z - d.p(x))) < 1e-12, "p transport"
        r4 = np.abs(d.A(x)) ** 2 - 0.25 * d.conf(x) * (1 - d.C(x) ** 2)
        assert np.max(np.abs(r4)) < 1e-12, "|A|^2 identity"


def _random_spheres():
    """The ten (a, H) of the integrability and Gauss-Bonnet checks."""
    return np.random.default_rng(88).uniform((0.08, 0.0), (2.5, 2.5), (10, 2)).tolist()


def check_integrability_order():
    for a, H in _random_spheres():
        d = fundamental_data(a, H)
        r1 = integrability_residual(d, (-5, 5), 400)
        r2 = integrability_residual(d, (-5, 5), 800)
        for key in ("p_wbar", "A_wbar", "C_w"):
            assert r1[key] < 1e-3, f"integrability residual ({key}) at ({a}, {H})"
            if r1[key] > 1e-12:  # else roundoff, which has no order
                assert 3.0 < r1[key] / r2[key] < 5.0, f"order-2 ({key}) at ({a}, {H})"


def check_gauss_equation():
    for a, H, x in ((1.0, 0.0, 0.4), (1.0, 2.0, -1.1), (1 / 3, 0.0, 0.0),
                    (0.5, 1.0, 0.8), (2.5, 0.3, 1.7)):
        gauss_curvature(fundamental_data(a, H), x)  # raises on mismatch
    assert abs(gauss_curvature(fundamental_data(1 / 3, 0.0), 0.0) + 1.0) < 1e-12


def check_areas():
    assert abs(area_sphere(1.0, 0.0) - 4 * math.pi) < 1e-9
    assert abs(area_sphere(1 / 3, 0.0) - area_sphere_closed(1 / 3, 0.0)) < 1e-8
    for a, H in _random_spheres():
        assert abs(gauss_bonnet_integral(fundamental_data(a, H)) - 4 * math.pi) < 1e-12, (a, H)


# spheres of the potential and spectrum checks
SPHERE_GRID = [(a, H) for a in (0.05, 0.3, 1.0, 2.0, 3.0) for H in (0.0, 0.7, 1.5, 2.5)]


def check_potential_universality():
    x = np.random.default_rng(55).uniform(-8, 8, 64)
    for a, H in SPHERE_GRID:
        d = fundamental_data(a, H)
        assert np.max(np.abs(potential_from_data(d, x) - jacobi_potential_flat(x))) < 1e-12, (a, H)


def check_koiso():
    for a in np.linspace(0.05, 2.5, 20):
        for H in np.linspace(0.0, 3.0, 20):
            koiso_integral(a, H)  # raises ConsistencyError if quadrature disagrees
    a0 = alpha0()
    assert abs(a0 - 0.121) < 5e-4, "alpha0 printed value"
    assert abs(koiso_integral_closed(a0, 0.0)) < 1e-9, "alpha0 root property"
    rows = sphere_stability_boundary(np.linspace(0.02 * a0, 0.995 * a0, 60))  # the regions grid
    assert max(abs(koiso_integral_closed(a, H)) for a, H in rows) <= 1e-14, "Koiso root at H(a)"
    assert not classify_sphere(0.05, 0.0).stable and classify_sphere(2.0, 0.0).stable


def check_volume_rate():
    for a in (0.004, alpha0(), 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 3.0, 50.0):
        for H in (0.0, 1e-3, 1.0, 20.0):
            closed = -2.0 * koiso_integral_closed(a, H)
            quadr = sphere_volume_rate(a, H)
            assert abs(closed - quadr) <= max(1e-9 * abs(quadr), 1e-12), "dV/dH = -2 Int f dA"


def check_jacobi_spectrum():
    for a, H in SPHERE_GRID:
        jacobi_spectrum(a, H, n=2500)  # raises SpectrumError off its zero-mode contract
        assert jacobi_rayleigh_C(a, H) < 1e-6, "tanh is a Jacobi function"


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
    prof1 = sphere_profile(1.0, H_max=12.0, n=200)
    for r in np.linspace(0.12, math.pi / 2, 30):  # geodesic spheres of the round S^3
        H, A, V = round_cap_area_volume(r)
        if H <= prof1.H[-1]:
            assert abs(prof1.area_at(H) - A) / A < 1e-5, f"round-sphere area at r = {r}"
            assert abs(prof1.volume_at(H) - V) / V < 1e-5, f"round-sphere volume at r = {r}"
    H, _, V = round_cap_area_volume(1.0)
    assert abs(sphere_volume(1.0, H) - V) / V < 1e-14, "closed volume on the round sphere"


def check_reconstruction():
    for a, H in ((1.0, 0.0), (1.0, 1.0), (0.5, 1.0), (1 / 3, 0.0), (2.0, 0.7)):
        m = reconstruct_meridian(a, H, (-8, 8), 4096)
        assert m.max_metric_residual < 1e-4 and m.max_C_residual < 1e-6, f"residual at ({a}, {H})"
        wg = (m.points[:, 0::2] + 1j * m.points[:, 1::2]) @ fit_orbit_generator(m).T
        phi_y = np.stack([wg.real, wg.imag], axis=-1).reshape(-1, 4)  # exact W gamma
        g = functools.partial(ambient.metric_eval, a, m.points)
        conf = fundamental_data(a, H).conf(m.x)
        assert np.max(np.abs(np.linalg.norm(m.points, axis=1) - 1.0)) <= 1e-12, "|gamma| = 1"
        assert np.max(np.abs(g(phi_y, phi_y) / conf - 1.0)) <= 1e-10, "g_a(W gamma, W gamma) = conf"
        assert np.max(np.abs(g(m.normals, m.normals) - 1.0)) <= 1e-12, "g_a(N, N) = 1"
        assert np.max(np.abs(g(m.normals, phi_y))) <= 1e-12, "g_a(N, W gamma) = 0"
    for H in (0.0, 1.0, 3.0):  # round meridians: embedded planar circles
        m = reconstruct_meridian(1.0, H, (-8, 8), 2048)
        pl = planarity_report(m.points)
        assert pl["plane_residual"] < 1e-6 and pl["circle_residual"] < 1e-6, f"circle at H={H}"
        assert is_embedded(m).embedded is True


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


CHECKS = [check_volume_form, check_zchart_transport, check_integrability_order,
          check_gauss_equation, check_areas, check_potential_universality, check_koiso,
          check_volume_rate, check_jacobi_spectrum, check_torus, check_regions,
          check_integrand_sign, check_isoperimetry, check_reconstruction, check_embedding]


def run(verbose: bool = True) -> list[str]:
    """Run every check; returns the names of the failures, each the function
    name without "check_" and with hyphens."""
    failures = []
    for fn in CHECKS:
        name = fn.__name__.removeprefix("check_").replace("_", "-")
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures.append(name)
            if verbose:
                print(f"FAIL {name}: {exc}")
        else:
            if verbose:
                print(f"PASS {name}")
    return failures
