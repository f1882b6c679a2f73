"""The one quadrature rule of the oracle integrals, ambient.even_integral.

scipy.integrate.quad is its oracle on the grids of the float oracles
(tests/float_oracles.py) and of the tests that run them, and the 50-digit
closed forms of tests/oracles.py check every oracle integral at the corners
of the accepted (a, H) box.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate

import float_oracles as fo
import oracles
from bergercmc import ambient, cmc_spheres, isoperimetry, selfcheck, stability
from bergercmc.ambient import QUAD_MAX_NODES, QuadratureError, even_integral
from bergercmc.cmc_spheres import AREA_CUTOFF


def test_gaussian_and_sech2_to_rounding():
    assert even_integral(lambda x: np.exp(-x * x), 10.0) == pytest.approx(math.sqrt(math.pi),
                                                                          rel=1e-15)
    assert even_integral(lambda x: 1.0 / np.cosh(x) ** 2, AREA_CUTOFF) == pytest.approx(
        2.0, rel=1e-15)


def test_halving_evaluates_only_the_new_midpoints():
    seen = []

    def f(x):
        seen.append(x)
        return 1.0 / (1.0 + 1e4 * np.sinh(x) ** 2)  # a peak of width 0.01: several halvings

    # Int dx/(1 + k^2 sinh^2 x) = 2 arccos(1/k)/sqrt(k^2 - 1)
    assert even_integral(f, 30.0) == pytest.approx(2.0 * math.acos(0.01) / math.sqrt(9999.0),
                                                   rel=1e-14)
    x = np.concatenate(seen)
    assert len(seen) > 3 and len(np.unique(x)) == len(x)
    assert np.allclose(np.diff(np.sort(x)), x.max() / (len(x) - 1))


@pytest.mark.parametrize("f, match", [
    (lambda x: 1.0 / (1.0 + (1e6 * x) ** 2), "no convergence"),  # a pole 1e-6 off the axis
    (lambda x: np.exp(-0.01 * x * x), "no convergence"),  # f(cutoff) is not negligible
    (lambda x: 1e3 * (1.0 / np.cosh(x) ** 2 - 2.0 / np.cosh(2.0 * x) ** 2), "cancels"),
])
def test_refusals(f, match):
    with pytest.raises(QuadratureError, match=match):
        even_integral(f, 20.0)


def test_node_cap():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.ones_like(x)

    with pytest.raises(QuadratureError):
        even_integral(f, 1.0)
    assert sum(calls) <= QUAD_MAX_NODES + 1


def test_quadrature_error_stays_importable_from_cmc_spheres():
    assert cmc_spheres.QuadratureError is ambient.QuadratureError


def test_rule_against_scipy_quad_on_the_selftest_grids(monkeypatch):
    # each module's quad runs the rule and scipy.integrate.quad on the same integrand
    found = []
    for mod in (cmc_spheres, stability, isoperimetry):
        def both(f, rule=mod.quad):
            value = rule(f)
            half, _ = scipy.integrate.quad(f, 0.0, AREA_CUTOFF, epsabs=1e-13, epsrel=1e-12,
                                           limit=200)
            found.append((value, 2.0 * half))
            return value

        monkeypatch.setattr(mod, "quad", both)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, H in fo.random_spheres():
            fo.area_sphere_quadrature(a, H)
            fo.gauss_bonnet_integral(fo.oracle_data(a, H))
        for a in np.linspace(0.05, 2.5, 20):
            for H in np.linspace(0.0, 3.0, 20):
                fo.koiso_integral_quadrature(a, H)
        for a in (0.004, stability.alpha0(), 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 3.0, 50.0):
            for H in (0.0, 1e-3, 1.0, 20.0):
                fo.sphere_volume_rate(a, H)
        for a, H in selfcheck.SPHERE_GRID:
            fo.jacobi_rayleigh_C(a, H)
    assert len(found) == 20 + 400 + 32 + 20
    for value, ref in found:
        assert abs(value - ref) <= 1e-12 * max(abs(ref), 1.0), (value, ref)


def test_cutoff_covers_the_smallest_alpha():
    # the claim of AREA_CUTOFF at a = ALPHA_MIN, H = 0: conf(L)/conf(0) = 4e^-2L/a^2 < 1e-16
    d = fo.oracle_data(ambient.ALPHA_MIN, 0.0)
    assert d.conf(AREA_CUTOFF) / d.conf(0.0) < 1e-16
    with mpmath.workdps(50):
        area = oracles.area(mpmath, ambient.ALPHA_MIN, 0)
        koiso = oracles.koiso(mpmath, ambient.ALPHA_MIN, 0)
        assert abs(fo.area_sphere_quadrature(ambient.ALPHA_MIN, 0.0) - area) <= 1e-14 * area
        assert (abs(fo.koiso_integral_quadrature(ambient.ALPHA_MIN, 0.0) - koiso)
                <= 1e-14 * abs(koiso))


BOX_ALPHAS = [1e-12, 1e-6, 1e-3, 50.0, 1e4, 1e6]
BOX_HS = [0.0, 1.0, 1e4]


@pytest.mark.parametrize("a", BOX_ALPHAS)
@pytest.mark.parametrize("H", BOX_HS)
def test_every_oracle_is_right_or_refuses_at_the_box_corners(a, H):
    # each oracle integral is within 1e-12 of its closed form or raises QuadratureError,
    # and none warns
    with mpmath.workdps(50):
        area = float(oracles.area(mpmath, a, H))
        koiso = float(oracles.koiso(mpmath, a, H))
    checks = {
        "area": (lambda: fo.area_sphere_quadrature(a, H), area),
        "gauss-bonnet": (lambda: fo.gauss_bonnet_integral(fo.oracle_data(a, H)), 4.0 * math.pi),
        "koiso": (lambda: fo.koiso_integral_quadrature(a, H), koiso),
        "volume rate": (lambda: fo.sphere_volume_rate(a, H), -2.0 * koiso),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, (run, exact) in checks.items():
            try:
                value = run()
            except QuadratureError:
                continue
            assert abs(value - exact) <= 1e-12 * abs(exact), (name, value, exact)


@pytest.mark.parametrize("a", BOX_ALPHAS)
@pytest.mark.parametrize("H", BOX_HS)
def test_rayleigh_numerator_is_zero_to_its_scale_at_the_box_corners(a, H, monkeypatch):
    parts = []

    def recording(f, rule=stability.quad):
        parts.append(rule(f))
        return parts[-1]

    monkeypatch.setattr(stability, "quad", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            quotient = fo.jacobi_rayleigh_C(a, H)
        except QuadratureError:
            return
    numerator, = parts
    assert abs(numerator) <= 1e-12 * fo.RAYLEIGH_SCALE
    assert quotient == abs(numerator) / fo.RAYLEIGH_SCALE <= 1e-12
