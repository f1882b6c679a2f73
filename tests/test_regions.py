import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bergercmc.regions import (alpha_root, critical_constants, poly_eval,
                               region_coefficients, stability_integrand, t0_constant)
import oracles
from float_oracles import F_nonnegative

TS = st.floats(min_value=0.0, max_value=1.0)
EPS = st.sampled_from([+1, -1])

T0_REF = 0.1292085522452843
ALPHA1_REF = 0.21688593121267774


@given(TS, EPS)
def test_value_at_one_is_four(t, eps):
    assert poly_eval(t, eps, 1.0) == pytest.approx(4.0, abs=1e-12)


def discriminant(t, eps):
    A, B, C = region_coefficients(t, eps)
    return B**2 - 4.0 * A * C


@given(TS, EPS)
def test_discriminant_identity(t, eps):
    assert discriminant(t, eps) == pytest.approx(32 * (t - eps) ** 2 * (1 + t**2), abs=1e-9)


def test_double_root_at_one_plus():
    assert discriminant(1.0, +1) == pytest.approx(0.0, abs=1e-12)
    assert alpha_root(1.0, +1) == 0.0


@given(TS, EPS)
def test_root_annihilates_polynomial(t, eps):
    root = alpha_root(t, eps)
    assert abs(poly_eval(t, eps, root)) < 1e-9


def test_root_examples():
    assert alpha_root(1.0, -1) == pytest.approx(4 / 3, abs=1e-15)
    assert alpha_root(0.0, +1) == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-12)
    # P_0 = -a^2 + 6a - 1 has roots 3 +- 2 sqrt(2)
    for r in (3 - 2 * math.sqrt(2), 3 + 2 * math.sqrt(2)):
        assert poly_eval(0.0, +1, r) == pytest.approx(0.0, abs=1e-12)


@given(TS)
def test_root_ranges(t):
    assert alpha_root(t, -1) > 1.0
    assert 0.0 <= alpha_root(t, +1) < 1.0


def test_root_regular_across_pole():
    t0 = t0_constant()
    A, B, C = region_coefficients(t0, +1)
    assert abs(A) < 1e-12
    assert alpha_root(t0, +1) == pytest.approx(-C / B, rel=1e-12)
    # continuity on both sides of the pole
    left = alpha_root(t0 - 1e-8, +1)
    right = alpha_root(t0 + 1e-8, +1)
    assert left == pytest.approx(right, abs=1e-6)


def beta_root(t: float, epsilon: int = 1) -> float:
    """The companion root of P_t for eps = +1 (beta(t) <= alpha(t) for t > t0)."""
    A, B, _ = region_coefficients(t, epsilon)
    disc = 32.0 * (t - 1.0) ** 2 * (1.0 + t**2)
    if A == 0.0:
        return math.inf
    return (-B - math.copysign(math.sqrt(disc), A)) / (2.0 * A)


def test_beta_below_alpha_above_pole():
    for t in (0.3, 0.6, 0.9):
        assert beta_root(t) <= alpha_root(t, +1) + 1e-12


def test_critical_constants():
    t0, a1, ah = critical_constants()
    assert t0 == pytest.approx(T0_REF, abs=1e-12)
    assert t0 == pytest.approx(0.1292, abs=5e-5)
    assert a1 == pytest.approx(ALPHA1_REF, abs=1e-9)
    assert a1 == pytest.approx(0.217, abs=5e-4)
    assert ah == pytest.approx(4 / 3, abs=1e-12)


def test_F_region_equivalence():
    _, a1, _ = critical_constants()
    for a in np.concatenate([np.linspace(0.02, 0.99, 40), np.linspace(1.01, 2.0, 30),
                             [a1 - 1e-7, a1 + 1e-7, 4 / 3, 4 / 3 + 1e-7]]):
        ok, fmin = F_nonnegative(float(a))
        expected = (a1 <= a < 1.0) or (1.0 < a <= 4 / 3)
        assert ok == expected, (a, fmin)
        # the minimum over t = 0, t = 1 and the critical points bounds a dense grid
        grid = poly_eval(np.linspace(0.0, 1.0, 2001), 1 if a < 1.0 else -1, float(a))
        assert fmin <= grid.min() + 1e-15, a


def test_F_examples():
    assert F_nonnegative(0.25)[0]
    ok, fmin = F_nonnegative(4 / 3)
    assert ok and abs(fmin) < 1e-12
    assert poly_eval(1.0, -1, 4 / 3) == pytest.approx(0.0, abs=1e-12)  # F(1; 4/3)
    assert not F_nonnegative(0.15)[0]


def test_F_rejects_alpha_one():
    with pytest.raises(ValueError):
        F_nonnegative(1.0)


def test_integrand_values():
    assert stability_integrand(1 / 3, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert stability_integrand(0.5, 0.0, 0.0) == pytest.approx(-1.5, rel=1e-12)
    assert stability_integrand(1 / 3, 1.0, 0.0) == pytest.approx(-4.0, rel=1e-12)


def test_integrand_nonpositive_with_unique_zero():
    best = (None, -math.inf)
    for a in np.linspace(1 / 3, 0.999, 30):
        c_bound = -4 * a + (1 - a) ** 2 / a  # the c = 0 envelope
        assert c_bound <= 1e-9
        for H in np.linspace(0.0, 3.0, 10):
            for c in np.linspace(-1.0, 1.0, 11):
                v = stability_integrand(float(a), float(H), float(c))
                assert v <= 1e-9
                if v > best[1]:
                    best = ((a, H, c), v)
    (a, H, c), v = best
    assert abs(a - 1 / 3) < 0.03 and H == 0.0 and abs(c) < 0.3


def test_discriminant_identity_hundred_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        t = float(rng.uniform(0, 1))
        e = int(rng.choice([-1, 1]))
        assert abs(discriminant(t, e) - 32 * (t - e) ** 2 * (1 + t**2)) < 1e-10


def test_coefficients_on_arrays_match_floats():
    # equal up to roundoff: numpy evaluates t**4 on arrays in its own way
    ts = np.linspace(0.0, 1.0, 101)
    for eps in (+1, -1):
        arrays = region_coefficients(ts, eps)
        floats = np.array([region_coefficients(t, eps) for t in ts.tolist()])
        np.testing.assert_allclose(np.stack(arrays, axis=1), floats, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(poly_eval(ts, eps, 0.7),
                                   [poly_eval(t, eps, 0.7) for t in ts.tolist()],
                                   rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("t", [-1e-12, 1.0 + 1e-12, math.nan, math.inf,
                               np.array([0.5, 1.5]), np.array([0.0, math.nan])])
def test_coefficients_reject_t_outside_unit_interval(t):
    with pytest.raises(ValueError, match="t must lie in"):
        region_coefficients(t, +1)
    with pytest.raises(ValueError, match="t must lie in"):
        alpha_root(t, -1)


def test_coefficients_range_check_is_the_same_on_floats_and_arrays():
    # the float path checks t without numpy; it refuses exactly what the array path refuses
    for t in (0.0, -0.0, 1.0, 0.5, 5e-324, -5e-324, math.nextafter(1.0, 2.0), -1.0,
              math.nan, math.inf, -math.inf):
        refused = []
        for arg in (t, np.array([t]), np.array([0.5, t])):
            try:
                region_coefficients(arg, +1)
                refused.append(False)
            except ValueError:
                refused.append(True)
        assert refused in ([False] * 3, [True] * 3), t


@pytest.mark.parametrize("eps", [0, 2, -2, 0.5])
def test_coefficients_reject_bad_epsilon(eps):
    with pytest.raises(ValueError, match="epsilon"):
        region_coefficients(0.5, eps)
    with pytest.raises(ValueError, match="epsilon"):
        poly_eval(0.5, eps, 0.7)


DENSE_T = np.linspace(0.0, 1.0, 100_001).tolist()


def test_alpha1_is_the_real_root_of_the_resultant_cubic():
    import mpmath
    import sympy

    t, a = sympy.symbols("t a")
    P = (-(t**4 + 2 * t**2 - 8 * t + 1) * a**2 + 2 * (t**4 - 4 * t + 3) * a
         - (1 - t**2) ** 2)
    cubic = oracles.alpha1_cubic(a)
    assert sympy.expand(sympy.resultant(P, sympy.diff(P, t), t)
                        - 4096 * a**3 * (a - 1) ** 8 * cubic) == 0
    assert len(sympy.real_roots(cubic)) == 1
    _, a1, _ = critical_constants()
    with mpmath.workdps(50):
        assert abs(mpmath.findroot(oracles.alpha1_cubic, mpmath.mpf("0.2")) - a1) <= math.ulp(a1)


def test_plus_root_curve_has_one_maximum():
    # alpha(t, +1) rises, then falls, with exactly one slope sign change, so
    # alpha_1 = max alpha(t, +1) is where P_t and dP_t/dt vanish together
    slope = np.sign(np.diff([alpha_root(t, +1) for t in DENSE_T]))
    slope = slope[slope != 0]
    assert np.count_nonzero(slope[1:] != slope[:-1]) == 1
    assert slope[0] > 0 and slope[-1] < 0


def test_minus_root_curve_is_non_increasing():
    # so its minimum over [0, 1] is alpha(1, -1) = 4/3
    vals = np.array([alpha_root(t, -1) for t in DENSE_T])
    assert np.all(np.diff(vals) <= 0.0)
    assert vals.min() == vals[-1] == alpha_root(1.0, -1)
