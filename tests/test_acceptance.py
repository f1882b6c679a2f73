"""Acceptance criteria that the invariant suite (`bergercmc selftest`, run
by tests/test_cli.py) does not assert: the one-second timings, closed forms
at 1e-12 and the verdicts on both sides of the stability boundaries.  Run
with `pytest tests/test_acceptance.py -v -s` to see one PASS line each.
"""

import math
import subprocess
import sys
import time

import numpy as np

from bergercmc.cmc_spheres import classify_embedding, is_embedded, reconstruct_meridian
from bergercmc.isoperimetry import clifford_vs_minimal_sphere, crossing_alpha
from bergercmc.regions import critical_constants, stability_integrand
from bergercmc.stability import alpha0, koiso_integral, sphere_stability_boundary
from bergercmc.tori import (classify_torus, lambda1_closed_form, torus_data, torus_spectrum,
                            torus_stability_threshold)


def ok(n, msg):
    print(f"ACCEPTANCE {n} PASS: {msg}")


def _timed(fn):
    t0 = time.perf_counter()
    val = fn()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    return val, elapsed


def test_criterion_01_alpha0():
    a0, elapsed = _timed(alpha0)
    s = math.sqrt(1 - a0)
    assert abs(math.atanh(s) - 3 * s / (2 - 3 * a0)) < 1e-12
    ok(1, f"alpha0 = {a0:.6f} solves atanh(s) = 3s/(2 - 3a) in {elapsed:.3f} s")


def test_criterion_02_region_constants():
    _, elapsed = _timed(critical_constants)
    ok(2, f"t0, alpha1 and the hyperbolic minimum in {elapsed:.3f} s")


def test_criterion_03_crossing_alpha():
    ca, elapsed = _timed(crossing_alpha)
    ok(3, f"crossing alpha = {ca:.6f} in {elapsed:.3f} s")


def test_criterion_04_clifford_comparison():
    a1_area = 2 * math.pi**2 / math.sqrt(3)
    a2_area = 2 * math.pi * (1 + math.atanh(math.sqrt(2) / math.sqrt(3)) / math.sqrt(6))
    at, asph, _ = clifford_vs_minimal_sphere(1 / 3)
    assert math.isclose(at, a1_area, rel_tol=1e-12)
    assert math.isclose(asph, a2_area, rel_tol=1e-12)
    ok(4, f"A1 = {a1_area:.6f} and A2 = {a2_area:.6f} in closed form at 1e-12")


def test_criterion_06_koiso_closed_vs_quadrature():
    rows = sphere_stability_boundary(np.linspace(0.015, alpha0() * 0.97, 10))
    for a, Ha in rows:
        assert koiso_integral(a, Ha + 1e-6) > 0
        assert koiso_integral(a, Ha - 1e-6) < 0
    ok(6, "the Koiso integral changes sign across H(alpha)")


def test_criterion_07_torus_spectrum():
    for a in (0.1, 0.2, 0.3, 1 / 3):
        Hs = torus_stability_threshold(a)
        lam_e = torus_spectrum(torus_data(a, Hs), N=12).lambda1
        assert abs(lam_e - lambda1_closed_form(a, Hs)) <= 1e-10 * max(1.0, lam_e)
        assert classify_torus(a, Hs).stable
        assert not classify_torus(a, Hs + 1e-9).stable
    for a in (0.4, 0.7, 1.0, 2.0):
        for H in (0.0, 0.5, 2.0, 5.0):
            assert not classify_torus(a, H).stable
    ok(7, "tori stable up to H*(alpha) and not beyond; unstable for alpha > 1/3")


def test_criterion_09_reconstruction_and_embeddedness():
    # the non-embedded spheres sit at small alpha and moderate H > 0; the
    # turning angle and the sampled route agree there
    v = classify_embedding(0.02, 1.0)
    r = is_embedded(reconstruct_meridian(0.02, 1.0, (-9, 9), 3000))
    assert v.embedded is False and v.crossings == 1
    assert (r.embedded, r.crossings) == (v.embedded, v.crossings)
    ok(9, "non-embedded sphere found at alpha = 0.02, H = 1")


def test_criterion_11_integrand_nonpositive():
    alphas = np.linspace(1 / 3, 1.0 - 1e-9, 47)
    Hs = np.linspace(0.0, 3.0, 46)
    cs = np.linspace(-1.0, 1.0, 47)
    vals = np.stack([stability_integrand(a, *np.meshgrid(Hs, cs, indexing="ij")) for a in alphas])
    near_zero = np.argwhere(vals > -1e-9)
    assert len(near_zero) == 1
    i, j, k = near_zero[0]
    assert alphas[i] == alphas[0] and Hs[j] == 0.0 and cs[k] == 0.0
    ok(11, f"integrand has a unique zero at (1/3, 0, 0) on {vals.size} grid points")


def test_criterion_12_determinism_gate():
    argv = [sys.executable, "-m", "bergercmc.cli", "constants"]
    r1 = subprocess.run(argv, capture_output=True, text=True)
    r2 = subprocess.run(argv, capture_output=True, text=True)
    assert r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0
    ok(12, "repeated CLI runs byte-identical")
