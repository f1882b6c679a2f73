import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bergercmc import cmc_spheres
from bergercmc.ambient import ConsistencyError
from bergercmc.cmc_spheres import (ReconstructionError, alpha_emb, area_sphere, artanh_ratio,
                                   classify_embedding, fit_orbit_generator, is_embedded,
                                   nonembedded_band, reconstruct_meridian, turning_angle)
import oracles
from float_oracles import (area_sphere_quadrature, gauss_bonnet_integral, gauss_curvature,
                           integrability_residual, oracle_data, planarity_report,
                           random_spheres, zchart_data)
from scipy.integrate import quad, solve_ivp

ALPHAS = st.floats(min_value=0.05, max_value=4.0)
HS = st.floats(min_value=0.0, max_value=3.0)


# ---------------------------------------------------------------------------
# fundamental data
# ---------------------------------------------------------------------------

def test_round_minimal_is_mercator():
    d = oracle_data(1.0, 0.0)
    x = np.linspace(-4, 4, 41)
    assert np.max(np.abs(d.conf(x) - 1 / np.cosh(x) ** 2)) < 1e-15
    assert np.max(np.abs(d.p(x))) == 0.0  # umbilical at alpha = 1


def test_conf_at_equator_third():
    d = oracle_data(1 / 3, 0.0)
    assert float(d.conf(0.0)) == pytest.approx(1 / 3, abs=1e-15)


def test_equator_A_norm_identity():
    for a, H in ((0.3, 0.0), (2.0, 1.5), (0.7, 0.2)):
        d = oracle_data(a, H)
        assert abs(d.A(0.0)) ** 2 == pytest.approx(float(d.conf(0.0)) / 4, abs=1e-15)


@given(ALPHAS, HS)
@example(0.3, 0.0)
@example(0.5, 1.0)
@example(2.0, 0.7)
@example(1 / 3, 0.0)
def test_zchart_transport_and_A_identity(alpha, H):
    d = oracle_data(alpha, H)
    x = np.linspace(-15, 15, 61)
    conf_z, A_z, p_z = zchart_data(alpha, H, x)
    assert np.max(np.abs(conf_z - d.conf(x))) < 1e-12
    assert np.max(np.abs(A_z - d.A(x))) < 1e-12
    assert np.max(np.abs(p_z - d.p(x))) < 1e-12
    r4 = np.abs(d.A(x)) ** 2 - d.conf(x) / 4 * (1 - d.C(x) ** 2)
    assert np.max(np.abs(r4)) < 1e-12


def test_C_is_tanh_and_conf_decays():
    d = oracle_data(0.5, 1.0)
    x = np.linspace(-20, 20, 81)
    assert np.max(np.abs(d.C(x) - np.tanh(x))) == 0.0
    assert np.all(d.conf(x) > 0)
    assert float(d.conf(20.0)) < 1e-15 * float(d.conf(0.0))


def test_fundamental_data_rejects_bad_args():
    with pytest.raises(Exception):
        oracle_data(-0.5, 0.0)
    with pytest.raises(ValueError):
        oracle_data(0.5, -1.0)


# ---------------------------------------------------------------------------
# integrability conditions
# ---------------------------------------------------------------------------

def test_integrability_residuals_small():
    d = oracle_data(0.5, 1.0)
    r = integrability_residual(d, (-5, 5), 400)
    for key in ("p_wbar", "A_wbar", "C_w", "A_norm"):
        assert r[key] < 1e-3


def test_integrability_round_minimal():
    d = oracle_data(1.0, 0.0)
    r = integrability_residual(d, (-5, 5), 256)
    assert r["p_wbar"] < 1e-15  # p vanishes identically
    assert r["A_norm"] < 1e-15
    assert r["A_wbar"] < 1e-3 and r["C_w"] < 1e-3


def test_integrability_second_order():
    rng = np.random.default_rng(42)
    more = [(float(rng.uniform(0.1, 2.5)), float(rng.uniform(0.0, 2.0))) for _ in range(4)]
    for a, H in random_spheres() + more:
        d = oracle_data(a, H)
        r1 = integrability_residual(d, (-5, 5), 400)
        r2 = integrability_residual(d, (-5, 5), 800)
        for key in ("p_wbar", "A_wbar", "C_w"):
            assert r1[key] < 1e-3, (key, a, H)
            if r1[key] > 1e-12:  # else roundoff, which has no order
                assert 3.0 < r1[key] / r2[key] < 5.0, (key, a, H)


def test_integrability_rejects_degenerate():
    d = oracle_data(0.5, 1.0)
    with pytest.raises(ValueError):
        integrability_residual(d, (2.0, 2.0), 100)
    with pytest.raises(ValueError):
        integrability_residual(d, (-5, 5), 8)


# ---------------------------------------------------------------------------
# curvature and area
# ---------------------------------------------------------------------------

def test_gauss_curvature_round():
    d = oracle_data(1.0, 0.0)
    for x in (-2.0, 0.0, 1.5):
        assert gauss_curvature(d, x) == pytest.approx(1.0, abs=1e-12)


def test_gauss_curvature_umbilical():
    for H in (0.5, 1.0, 2.0):
        d = oracle_data(1.0, H)
        assert gauss_curvature(d, 0.7) == pytest.approx(1 + H**2, rel=1e-12)


def test_gauss_curvature_cross_route():
    # the operation itself raises if the two routes disagree beyond GAUSS_RTOL
    for a, H, x in ((1 / 3, 0.0, 0.0), (0.5, 1.0, -1.3), (2.5, 0.4, 2.0), (1.0, 0.0, 0.4),
                    (1.0, 2.0, -1.1), (0.5, 1.0, 0.8), (2.5, 0.3, 1.7)):
        gauss_curvature(oracle_data(a, H), x)
    d = oracle_data(1 / 3, 0.0)
    assert gauss_curvature(d, 0.0) == pytest.approx(-1.0, abs=1e-12)


def test_gauss_curvature_refuses_a_slip_in_one_route(monkeypatch):
    # only the Gauss-equation route reads |sigma|^2: a 1e-9 relative slip
    # there moves it by 3e-10 of the scale, where the routes agree to 8e-16
    d = oracle_data(0.5, 1.0)
    gauss_curvature(d, 0.3)
    sigma_norm2 = type(d).sigma_norm2
    monkeypatch.setattr(type(d), "sigma_norm2", lambda self, x: sigma_norm2(self, x) * (1.0 + 1e-9))
    with pytest.raises(ConsistencyError, match="Gauss curvature routes disagree"):
        gauss_curvature(d, 0.3)


# The forms that sigma_norm2 and gauss_curvature had before, as oracles:
# 8 |p|^2 / conf^2 divides two underflowed values (NaN from |x| ~ 200), and
# cosh^2 x overflows from |x| ~ 355.
def _sigma_norm2_via_p(d, x):
    return 2.0 * d.H**2 + 8.0 * np.abs(d.p(x)) ** 2 / d.conf(x) ** 2


def _k_conformal_via_den(d, x):
    a, P = d.alpha, d.H**2 + d.alpha
    c2 = math.cosh(x) ** 2
    den = (1.0 - a) + P * c2
    wronsk = 2.0 * P * (P * c2 + (1.0 - a) * (2.0 * c2 - 1.0))
    return (wronsk / den**2 - 1.0 / c2) / float(d.conf(x))


@pytest.mark.parametrize("a", [0.01, 0.1, 1 / 3, 0.5, 1.0, 2.0, 50.0])
@pytest.mark.parametrize("H", [0.0, 0.7, 3.0])
def test_sigma_norm2_and_curvature_match_former_forms(a, H):
    d = oracle_data(a, H)
    x = np.linspace(-15.0, 15.0, 61)
    np.testing.assert_allclose(d.sigma_norm2(x), _sigma_norm2_via_p(d, x), rtol=1e-14)
    for xi in x:
        want = _k_conformal_via_den(d, xi)
        assert abs(gauss_curvature(d, xi) - want) <= 1e-13 * max(abs(want), 1.0)


@pytest.mark.parametrize("x", [0.0, 20.0, 200.0, 400.0, 700.0])
def test_sigma_norm2_and_curvature_finite_at_large_x(x):
    # no overflow or 0/0 out to the meridian's x limit; at the poles
    # |sigma|^2 -> 2 H^2 and K -> H^2 + a + 4 (1 - a)
    for a, H in ((0.5, 1.0), (0.01, 0.7), (1e-6, 1e3), (1e4, 0.0)):
        d = oracle_data(a, H)
        for xs in (x, -x):
            with np.errstate(all="raise", under="ignore"):
                sig = float(d.sigma_norm2(xs))
                K = gauss_curvature(d, xs)
            assert math.isfinite(sig) and math.isfinite(K)
            if abs(xs) >= 200.0:
                assert sig == 2.0 * H**2
                assert K == pytest.approx(H**2 + a + 4.0 * (1.0 - a), rel=1e-12)


def test_area_examples():
    assert area_sphere(1.0, 0.0) == pytest.approx(4 * math.pi, rel=1e-10)
    a2 = 2 * math.pi * (1 + math.atanh(math.sqrt(2 / 3)) / math.sqrt(6))
    assert area_sphere(1 / 3, 0.0) == pytest.approx(a2, rel=1e-10)
    assert a2 == pytest.approx(9.2233431556, abs=1e-9)


def test_area_closed_forms_match_quadrature():
    for a in (0.1, 0.5, 1.0, 1.7, 3.0):
        for H in (0.0, 0.8, 2.5):
            assert area_sphere_quadrature(a, H) == pytest.approx(area_sphere(a, H), rel=1e-10)
    assert area_sphere(0.4, 0.0) == pytest.approx(area_sphere_quadrature(0.4, 0.0), rel=1e-10)


def test_area_closed_array_matches_scalars():
    H = np.array([0.0, 1e-3, 0.8, 2.5, 40.0, 1e6])
    for a in (1e-6, 0.1, 1.0, 1.7, 1e4):
        want = np.array([area_sphere(a, float(h)) for h in H])
        np.testing.assert_allclose(area_sphere(a, H), want, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# artanh_ratio, the branch function of every closed form
# ---------------------------------------------------------------------------

ARTANH_X = np.concatenate([-np.geomspace(1e6, 1e-300, 300), [0.0],
                           np.geomspace(1e-300, 1.0 - 2.0**-53, 300)])


def test_artanh_ratio_float_and_array_paths_agree():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arr = artanh_ratio(ARTANH_X, 1.0 - ARTANH_X)
    scal = np.array([artanh_ratio(float(x), 1.0 - float(x)) for x in ARTANH_X])
    assert all(type(artanh_ratio(float(x), 1.0 - float(x))) is float for x in ARTANH_X[::50])
    assert np.all(np.abs(arr - scal) <= np.spacing(scal))


def test_artanh_ratio_branches_and_zero():
    assert artanh_ratio(0.0, 1.0) == 1.0
    assert artanh_ratio(0.25, 0.75) == pytest.approx(2.0 * math.atanh(0.5), rel=1e-15)
    assert artanh_ratio(-3.0, 4.0) == pytest.approx(math.atan(math.sqrt(3.0)) / math.sqrt(3.0),
                                                    rel=1e-15)
    # continuous through 0: the series sum x^n/(2n + 1) is 1 + x/3 + ...
    for x in (-1e-300, 1e-300, -1e-12, 1e-12):
        assert artanh_ratio(x, 1.0 - x) == pytest.approx(1.0 + x / 3.0, rel=1e-15)
        assert float(artanh_ratio(np.array([x]), 1.0 - x)[0]) == artanh_ratio(x, 1.0 - x)
    assert np.array_equal(artanh_ratio(np.array([-1e-300, 0.0, 1e-300]), 1.0), np.ones(3))
    # where x = (1 - a)/(1 + H^2) rounds to 1, at H = 0 and a <= 2^-54, the
    # complement still holds a: G = artanh(sqrt(1 - a))/sqrt(1 - a) ~ log(4/a)/2
    for G in (artanh_ratio(1.0, 1e-20), artanh_ratio(np.array([1.0]), 1e-20)[0]):
        assert G == pytest.approx(0.5 * math.log(4e20), rel=1e-15)


@given(st.floats(min_value=-12.0, max_value=0.0).map(lambda e: 10.0**e)
       .filter(lambda a: a < 1.0), st.floats(min_value=0.0, max_value=10.0))
def test_closed_forms_keep_their_digits_as_X_nears_one(a, H):
    # X = (1 - a)/c nears 1 for small a and H; G is taken from the complement
    # (H^2 + a)/c, so G, the area and Theta keep every digit, and the Koiso
    # integral and V, which cross zero, keep them against their terms' size
    import mpmath

    from bergercmc.isoperimetry import sphere_volume
    from bergercmc.stability import koiso_integral

    c = 1.0 + H * H
    got = [artanh_ratio((1.0 - a) / c, (H * H + a) / c), area_sphere(a, H),
           koiso_integral(a, H), turning_angle(a, H),
           float(sphere_volume(a, np.array([H]))[0])]
    with mpmath.workdps(50):
        # each value with the sum of its terms' magnitudes
        want = [(sum(t), sum(map(abs, t))) for t in (
            (oracles.G(mpmath, oracles.X_at(mpmath, a, H)),), (oracles.area(mpmath, a, H),),
            oracles.koiso(mpmath, a, H, terms=True), (oracles.theta(mpmath, a, H),),
            oracles.volume(mpmath, a, H, terms=True))]
    for name, g, (w, scale), tol in zip(("G", "area", "Koiso", "Theta", "V"), got, want,
                                        (1e-15, 4e-15, 4e-15, 4e-15, 4e-15)):
        assert float(abs(g - w) / scale) <= tol, (name, a, H)


def test_area_decays_with_H():
    vals = [area_sphere(1 / 3, H) for H in (0.0, 1.0, 10.0, 100.0)]
    assert all(vals[i] > vals[i + 1] for i in range(3))
    assert vals[-1] < 0.005


def test_gauss_bonnet():
    for a, H in random_spheres() + [(1.0, 0.0), (0.5, 1.0), (2.5, 0.3), (0.1, 0.0)]:
        assert abs(gauss_bonnet_integral(oracle_data(a, H)) - 4 * math.pi) < 1e-12, (a, H)


def test_vertical_angle_integrates_to_zero():
    # Int C dA = 0: C conf is odd in x
    d = oracle_data(0.4, 0.9)
    val, _ = quad(lambda x: float(d.C(x)) * float(d.conf(x)), -25, 25, limit=200)
    assert abs(2 * math.pi * val) < 1e-9


# ---------------------------------------------------------------------------
# meridian reconstruction
# ---------------------------------------------------------------------------

def test_reconstruction_residuals():
    m = reconstruct_meridian(0.5, 1.0, (-8, 8), 4096)
    assert m.max_metric_residual < 1e-4
    assert m.max_C_residual < 1e-4
    assert np.max(np.abs(np.linalg.norm(m.points, axis=1) - 1.0)) < 1e-9


def test_reconstruction_round_is_planar_circle():
    for H in (0.0, 1.0, 3.0):
        m = reconstruct_meridian(1.0, H, (-8, 8), 2048)
        pl = planarity_report(m.points)
        assert pl["plane_residual"] < 1e-6
        assert pl["circle_residual"] < 1e-6


def test_minimal_meridians_planar_every_alpha():
    # minimal spheres are great equators for every alpha
    for a in (0.2, 0.7, 2.0):
        m = reconstruct_meridian(a, 0.0, (-8, 8), 1024)
        assert planarity_report(m.points)["plane_residual"] < 1e-8


def test_pole_tails_cauchy():
    m = reconstruct_meridian(0.5, 1.0, (-12, 12), 4096)
    # the curve settles at the poles: displacement over the last unit of x
    sel = m.x > 11.0
    disp = np.linalg.norm(m.points[sel] - m.points[-1], axis=1).max()
    assert disp < 1e-4
    sel = m.x < -11.0
    disp = np.linalg.norm(m.points[sel] - m.points[0], axis=1).max()
    assert disp < 1e-4


def test_reconstruction_errors():
    with pytest.raises(ValueError):
        reconstruct_meridian(0.5, 1.0, (-8, 8), 32)
    with pytest.raises(ValueError):
        reconstruct_meridian(0.5, 1.0, (1, 8), 128)
    m = reconstruct_meridian(1e-6, 1.0, (-700, 700), 64)
    assert m.holds_contract  # the closed form holds
    with pytest.raises(ReconstructionError, match="turning angle moves by"):
        # theta' ~ 500 at the equator, and the first samples sit at |x| = 11.1
        is_embedded(m)


def test_normal_is_unit_and_orthogonal():
    from bergercmc.ambient import metric_eval

    m = reconstruct_meridian(0.7, 0.5, (-8, 8), 512)
    h = m.x[1] - m.x[0]
    dgam = (m.points[2:] - m.points[:-2]) / (2 * h)
    for i in range(1, len(m.x) - 1, 50):
        n = m.normals[i]
        q = m.points[i]
        assert metric_eval(0.7, q, n, n) == pytest.approx(1.0, abs=1e-8)
        assert metric_eval(0.7, q, n, dgam[i - 1]) == pytest.approx(0.0, abs=1e-4)


def _frame_rhs_reference(alpha, H, x, y):
    """The moving-frame right-hand side in array form, frame from frame_at."""
    from bergercmc.ambient import frame_at

    sa = math.sqrt(alpha)
    ha = H**2 + alpha
    c1 = (alpha - 2.0) / sa
    gamma, a, b, nn = y[0:4], y[4:7], y[7:10], y[10:13]
    ch = math.cosh(x)
    den = (1.0 - alpha) + ha * ch * ch
    ev = math.sqrt(ha * ch * ch / (den * den))
    mu = H / (math.sqrt(ha) * ch)
    nu = -(1.0 - alpha) * sa / (den * math.sqrt(ha) * ch)
    O01, O02, O12 = sa * a[2], -sa * a[1], -c1 * a[0]

    def rot(w):
        return np.array([O01 * w[1] + O02 * w[2], -O01 * w[0] + O12 * w[2],
                         -O02 * w[0] - O12 * w[1]])

    V, E1, E2 = frame_at(gamma)
    dgamma = ev * (a[0] * V / sa + a[1] * E1 + a[2] * E2)
    return np.concatenate([dgamma, -ev * rot(a) + mu * nn, -ev * rot(b) + nu * nn,
                           -ev * rot(nn) - mu * a - nu * b])


def _two_sided_states(a, H, xs):
    """The frame states (gamma, a, b, n) at the samples xs, one row each, from
    two solves outward from x = 0; xs must straddle 0."""
    sa, rho = math.sqrt(a), math.sqrt(H**2 + a)
    y0 = np.array([1.0, 0.0, 0.0, 0.0, -H / rho, sa / rho, 0.0,
                   sa / rho, H / rho, 0.0, 0.0, 0.0, 1.0])
    out = np.empty((len(xs), 13))
    for sign, xcut in ((1.0, xs[-1]), (-1.0, xs[0])):
        sel = xs >= 0 if sign > 0 else xs <= 0
        t_eval = xs[sel] if sign > 0 else xs[sel][::-1]
        sol = solve_ivp(lambda x, y: _frame_rhs_reference(a, H, x, y), (0.0, xcut), y0,
                        method="DOP853", t_eval=t_eval, rtol=1e-10, atol=1e-12)
        assert sol.success, sol.message
        out[sel] = sol.y.T if sign > 0 else sol.y.T[::-1]
    return out


def _ode_meridian(a, H, xs):
    """(points, normals, Phi_y, C_residual) of the moving-frame ODE at xs."""
    from bergercmc.ambient import frame_at

    out = _two_sided_states(a, H, xs)
    points, coeff_b, coeff_n = out[:, 0:4], out[:, 7:10], out[:, 10:13]
    V, E1, E2 = frame_at(points)
    xi = V / math.sqrt(a)
    normals = coeff_n[:, 0:1] * xi + coeff_n[:, 1:2] * E1 + coeff_n[:, 2:3] * E2
    ev = np.sqrt(oracle_data(a, H).conf(xs))[:, None]
    phi_y = ev * (coeff_b[:, 0:1] * xi + coeff_b[:, 1:2] * E1 + coeff_b[:, 2:3] * E2)
    return points, normals, phi_y, coeff_n[:, 0] - np.tanh(xs)


def test_meridian_makes_no_ode_solve(monkeypatch):
    # the production meridian is the closed form
    calls = []
    monkeypatch.setattr(cmc_spheres, "solve_ivp", lambda *args, **kwargs: calls.append(args))
    for x_range in ((-8, 8), (-5, 5), (-9, 9)):
        reconstruct_meridian(0.5, 1.0, x_range, 2048)
    assert calls == []


@pytest.mark.parametrize("x_range", [(-math.inf, 8.0), (-8.0, math.inf), (-math.nan, 8.0),
                                     (-8.0, 1e300), (-701.0, 8.0), (-8.0, 700.5),
                                     (0.0, 8.0), (-8.0, -1.0), (-5.0, 9.0)])
def test_meridian_range_rejects_bad_endpoints(x_range):
    with pytest.raises(ValueError, match="x_range"):
        reconstruct_meridian(0.5, 1.0, x_range, 128)


def test_meridian_range_limit():
    lim = cmc_spheres.MERIDIAN_X_LIMIT
    assert lim < 709.0  # math.cosh overflows from about 710.5
    math.cosh(lim)
    assert cmc_spheres.meridian_range((-lim, lim)) == (-lim, lim)


@pytest.mark.parametrize("L", [8.0, 9.0, cmc_spheres.MERIDIAN_X_LIMIT])
@pytest.mark.parametrize("n", [64, 2048, 2049, 4096, 4097, cmc_spheres.MERIDIAN_MAX_N])
def test_meridian_grid_is_odd_to_the_bit(L, n):
    # the samples mirror exactly, so the reflected half is the meridian at -x;
    # they are equispaced to 2 ulps of L (measured 1.3) and within 4 ulps of
    # np.linspace(-L, L, n) (measured 0-3)
    x = reconstruct_meridian(0.5, 1.0, (-L, L), n).x
    assert len(x) == n and x[0] == -L and x[-1] == L
    assert np.array_equal(x[::-1], -x)
    assert (0.0 in x) == (n % 2 == 1)
    assert np.max(np.abs(np.diff(x) - 2.0 * L / (n - 1))) <= 2.0 * np.spacing(L)
    assert np.max(np.abs(x - np.linspace(-L, L, n))) <= 4.0 * np.spacing(L)


@pytest.mark.parametrize("a, H, L, n", [(0.04, 0.3505, 9.0, 4097), (0.5, 1.0, 8.0, 2048),
                                        (0.004, 0.0, 9.0, 3000), (2.0, 0.7, 8.0, 4096),
                                        (1e-6, 0.3, 700.0, 4097), (50.0, 2.5, 9.0, 3001)])
def test_reflected_rows_equal_the_closed_form_at_negative_x(a, H, L, n):
    # reconstruct_meridian evaluates the closed forms at x >= 0 and reflects them
    # to x < 0: those rows against _meridian_profile evaluated at the negative
    # samples themselves, within 2 ulps of each value (measured: bitwise equal).
    # Im w' is then exactly odd too, as is_embedded's one-half sign count assumes
    m = reconstruct_meridian(a, H, (-L, L), n)
    k = n // 2
    direct = cmc_spheres._meridian_profile(a, H, m.x[:k])
    for field in ("points", "normals", "metric_residual", "C_residual"):
        got, want = getattr(m, field)[:k], getattr(direct, field)
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want))), field
    im = cmc_spheres.orbit_space_curve(m)[:, 1]
    assert np.array_equal(im[:k], -im[:n - k - 1:-1])


def test_meridian_postprocessing_matches_per_sample_loop():
    # the component-wise frame arithmetic against one sample at a time: gamma_x
    # from the 30-digit closed form by mpmath.diff, (xi, E1, E2) from frame_at,
    # the coefficients of gamma_x and of W gamma from metric_eval, and the
    # normal from np.cross.  Measured: 1.2e-13 on the normals (|N| ~ 1/sqrt(a)
    # = 10), 1.2e-14 on C, 3.9e-14 on the metric residual
    import mpmath
    from bergercmc.ambient import frame_at, metric_eval

    a, H, n = 0.01, 1.0, 2048
    m = reconstruct_meridian(a, H, (-9, 9), n)
    conf = oracle_data(a, H).conf(m.x)
    W = fit_orbit_generator(m)
    for i in [*range(0, n, 37), n - 1]:
        with mpmath.workdps(30):
            zx, wx = (complex(mpmath.diff(lambda u: oracles.meridian(mpmath, a, H, u)[k],
                                          mpmath.mpf(m.x[i]))) for k in (0, 1))
        gx = np.array([zx.real, zx.imag, wx.real, wx.imag])
        gam = m.points[i]
        wg = W @ (gam[0::2] + 1j * gam[1::2])
        wg = np.array([wg[0].real, wg[0].imag, wg[1].real, wg[1].imag])
        V, E1, E2 = frame_at(gam)
        frame = np.array([V / math.sqrt(a), E1, E2])
        nvec = np.cross([metric_eval(a, gam, wg, f) for f in frame],
                        [metric_eval(a, gam, gx, f) for f in frame])
        nvec /= np.linalg.norm(nvec)
        np.testing.assert_allclose(m.normals[i], nvec @ frame, rtol=0, atol=3e-13)
        assert abs(m.C_residual[i] - (nvec[0] - math.tanh(m.x[i]))) <= 3e-14
        speed_residual = abs(metric_eval(a, gam, gx, gx) / conf[i] - 1.0)
        assert abs(speed_residual - m.metric_residual[i]) <= 1e-13


def test_analytic_metric_residual_measures_the_closed_form():
    # the analytic speed^2 of gamma_x against conf, on every sample out to the
    # x limit, where the finite-difference quotient of the samples reads 0
    xs = np.concatenate([np.linspace(-cmc_spheres.MERIDIAN_X_LIMIT,
                                     cmc_spheres.MERIDIAN_X_LIMIT, 2001),
                         np.linspace(-30.0, 30.0, 601)])
    worst = max(cmc_spheres._meridian_profile(a, H, xs).max_metric_residual
                for a in np.geomspace(1e-6, 1e4, 21).tolist()
                for H in (0.0, 1e-3, 0.3, 1.0, 3.0, 30.0, 1e3))
    assert worst <= 1e-10
    # x = +-30 on 2048 samples: the closed form holds, and the sampled route
    # decides this meridian, which a finite-difference speed would miss by far
    m = reconstruct_meridian(0.5, 1.0, (-30.0, 30.0), 2048)
    assert m.max_metric_residual <= 1e-14
    assert is_embedded(m).embedded is True


# H = 0, a = 1, a > 1, small a; odd and even n.  At a = 50 and a = 1e-3 the
# ODE itself is off by up to 3.6e-9 (its C_residual reaches 5e-10), so those
# stay out of a 1e-9 comparison.
CLOSED_FORM_CASES = [(0.5, 0.0, 8.0, 1024), (0.3, 0.0, 9.0, 777), (1.0, 0.0, 8.0, 1025),
                     (1.0, 1.0, 8.0, 1024), (2.0, 0.0, 12.0, 4097), (2.0, 1.5, 6.0, 513),
                     (0.5, 1.0, 8.0, 2048), (0.02, 1.0, 9.0, 3001), (0.01, 1.0, 9.0, 2048)]


def _w_gamma(m):
    """d Phi / dy = W gamma at the meridian points, as rows (Re z, Im z, Re w, Im w)."""
    wg = (m.points[:, 0::2] + 1j * m.points[:, 1::2]) @ fit_orbit_generator(m).T
    return np.stack([wg.real, wg.imag], axis=-1).reshape(-1, 4)


@pytest.mark.parametrize("a,H,x_max,n", CLOSED_FORM_CASES)
def test_closed_form_matches_ode_oracle(a, H, x_max, n):
    m = reconstruct_meridian(a, H, (-x_max, x_max), n)
    points, normals, phi_y, C_residual = _ode_meridian(a, H, m.x)
    w_gamma = _w_gamma(m)  # the exact W
    for got, want in ((m.points, points), (w_gamma, phi_y), (m.normals, normals)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    # g_a(N, xi) = tanh x holds to roundoff; the ODE keeps it to about 1e-10
    assert m.max_C_residual <= 1e-15
    assert np.max(np.abs(C_residual)) <= 1e-9


ORBIT_FIT_XMAX = 6.0  # the least-squares fit uses |x| <= this


def _lstsq_orbit_generator(x, points, tangent_y):
    """Least-squares fit of W in u(2) to d Phi / dy = W gamma along a meridian."""
    sel = np.abs(x) <= min(ORBIT_FIT_XMAX, float(np.max(np.abs(x))))
    P = points[sel]
    B = tangent_y[sel]
    zr, zi, wr, wi = P[:, 0], P[:, 1], P[:, 2], P[:, 3]
    b1r, b1i, b2r, b2i = B[:, 0], B[:, 1], B[:, 2], B[:, 3]
    nrow = P.shape[0]
    Amat = np.zeros((4 * nrow, 4))
    rhs = np.zeros(4 * nrow)
    # unknowns: (a11, a22, cr, ci) in W = [[i a11, c], [-conj(c), i a22]]
    Amat[0::4, 0] = -zi
    Amat[0::4, 2] = wr
    Amat[0::4, 3] = -wi
    rhs[0::4] = b1r
    Amat[1::4, 0] = zr
    Amat[1::4, 2] = wi
    Amat[1::4, 3] = wr
    rhs[1::4] = b1i
    Amat[2::4, 1] = -wi
    Amat[2::4, 2] = -zr
    Amat[2::4, 3] = -zi
    rhs[2::4] = b2r
    Amat[3::4, 1] = wr
    Amat[3::4, 2] = -zi
    Amat[3::4, 3] = zr
    rhs[3::4] = b2i
    (a11, a22, cr, ci), *_ = np.linalg.lstsq(Amat, rhs, rcond=None)
    return np.array([[1j * a11, cr + 1j * ci], [-(cr - 1j * ci), 1j * a22]])


@pytest.mark.parametrize("a,H,x_max,n", CLOSED_FORM_CASES)
def test_exact_orbit_generator_matches_lstsq_oracle(a, H, x_max, n):
    # W fitted to the moving-frame ODE's gamma and Phi_y
    m = reconstruct_meridian(a, H, (-x_max, x_max), n)
    points, _, phi_y, _ = _ode_meridian(a, H, m.x)
    fitted = _lstsq_orbit_generator(m.x, points, phi_y)
    np.testing.assert_allclose(fit_orbit_generator(m), fitted, rtol=0, atol=1e-10)


def test_embed_scan_pool_parity():
    # every pool point of the figure-1 benchmark: the sign count gives the
    # verdicts and crossing counts that the ODE meridian gave, and decides the
    # 20 points whose reference is an error, with Theta's 2 or 3 crossings;
    # the turning angle agrees wherever the sign count decides, and decides
    # the one undecided point
    import json
    from pathlib import Path

    ref = Path(__file__).resolve().parents[1] / "bench" / "reference" / "embed_scan.json"
    pool = json.loads(ref.read_text())["pool"]
    assert len(pool) == 200
    errors = decided = 0
    for case in pool:
        p, want = case["params"], case["ref"]
        v = classify_embedding(p["alpha"], p["H"])
        m = reconstruct_meridian(p["alpha"], p["H"], (-p["x_max"], p["x_max"]), p["n"])
        r = is_embedded(m)
        if want.get("error") == "ReconstructionError":
            errors += 1
            assert v.crossings in (2, 3), p
        else:
            assert (r.embedded, r.crossings) == (want["embedded"], want["crossings"]), p
        if r.embedded is None:
            assert (p["alpha"], p["H"]) == (0.0452637, 0.875146)
            assert v.embedded and abs(math.pi - v.margin - 3.0821) < 5e-5
            continue
        decided += 1
        assert (v.embedded, v.crossings) == (r.embedded, r.crossings), p
    assert (errors, decided) == (20, 199)


@given(st.floats(min_value=math.log(0.004), max_value=math.log(0.2)).map(math.exp),
       st.floats(min_value=0.0, max_value=3.0), st.sampled_from([2048, 3000, 4096]),
       st.sampled_from([8.0, 9.0]))
def test_sign_count_agrees_with_theta_over_the_embed_scan_box(a, H, n, x_max):
    # the box the figure-1 benchmark draws from: the turning angle steps by less
    # than pi there, and each decided verdict is Theta's
    r = is_embedded(reconstruct_meridian(a, H, (-x_max, x_max), n))
    if r.embedded is not None:
        v = classify_embedding(a, H)
        assert (r.embedded, r.crossings) == (v.embedded, v.crossings)


@pytest.mark.parametrize("a,H,metric,C", [(1e12, 1e6, 1.48e-4, 1e-15),
                                          (1e10, 1e5, 2.10e-6, 1e-15)])
def test_meridian_residuals_at_large_a_H_no_worse(a, H, metric, C):
    # the analytic gamma_x loses digits at large a H: the metric bounds are its
    # residuals, rounded up in the third digit; the closed-form normal keeps
    # g_a(N, xi) = tanh x to roundoff (measured 5.6e-16 and 6.7e-16)
    m = reconstruct_meridian(a, H, (-700.0, 700.0), 4001)
    assert m.max_metric_residual <= metric and m.max_C_residual <= C


ORACLE_XS = [-700.0, -30.0, -3.0, -0.7, -0.1, 0.0, 0.05, 0.7, 2.0, 9.0, 30.0, 700.0]


def _oracle_normal_error(a, H, m):
    """Largest error of m's normals and points against the mpmath closed form,
    each sample at 30 digits beyond those that W gamma ~ sech x loses at the
    poles: gamma from oracles.meridian, gamma_x by mpmath.diff, W gamma from
    the exact W, and N along the cross product (W gamma) x gamma_x of their
    coefficients on the g_a-orthonormal (xi, E1, E2).  The normal's error is
    measured on those coefficients, g_a-unit for every a."""
    import mpmath

    def inner(u, v):
        return (u[0] * mpmath.conj(v[0]) + u[1] * mpmath.conj(v[1])).real

    worst_n = worst_p = 0.0
    for x, P, N in zip(m.x.tolist(), m.points, m.normals):
        with mpmath.workdps(30 + int(abs(x) / 2.3)):
            xm, A, Hm = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(H)
            z, w = oracles.meridian(mpmath, a, H, xm)
            gx = [mpmath.diff(lambda u: oracles.meridian(mpmath, a, H, u)[k], xm)
                  for k in (0, 1)]
            wg = [(1j * z - Hm * w) / (1 + Hm * Hm), (Hm * z + 1j * Hm * Hm * w) / (1 + Hm * Hm)]
            E1 = [-mpmath.conj(w), mpmath.conj(z)]

            def coeff(v):
                return mpmath.matrix([mpmath.sqrt(A) * inner(v, [1j * z, 1j * w]),
                                      inner(v, E1), inner(v, [1j * E1[0], 1j * E1[1]])])

            cw, cg = coeff(wg), coeff(gx)
            n = mpmath.matrix([cw[1] * cg[2] - cw[2] * cg[1], cw[2] * cg[0] - cw[0] * cg[2],
                               cw[0] * cg[1] - cw[1] * cg[0]])
            n /= mpmath.norm(n)
            got = coeff([mpmath.mpc(N[0], N[1]), mpmath.mpc(N[2], N[3])])
            worst_n = max(worst_n, float(mpmath.norm(got - n)))
            worst_p = max(worst_p, float(max(abs(mpmath.mpc(P[0], P[1]) - z),
                                             abs(mpmath.mpc(P[2], P[3]) - w))))
    return worst_n, worst_p


# large a H (where a cross-product normal lost up to 8e-5), a = 1 (X = 0), a > 1,
# a < 1, and tiny a and H, where X -> 1 and the phase's 1 + sqrt(X) t cancels for
# t < 0.  Measured errors (normal, points): 3.1e-16, 2.2e-16; 3.3e-16, 1.8e-16;
# 6.3e-16, 2.3e-16; 2.6e-16, 2.1e-16; 7.4e-16, 4.6e-16; 1.1e-12, 3.0e-16 (the
# stored N carries t/sqrt(a) = 1e6 along i gamma, so its horizontal part keeps
# 1e-12 of it)
@pytest.mark.parametrize("a,H,normal_tol", [(1e10, 1e5, 1e-15), (1e12, 1e6, 1e-15),
                                            (1.0, 0.7, 1e-15), (3.0, 2.0, 1e-15),
                                            (0.05, 1.2, 2e-15), (1e-12, 1e-6, 3e-12)])
def test_closed_form_normal_matches_the_30_digit_oracle(a, H, normal_tol):
    m = cmc_spheres._meridian_profile(a, H, np.array(ORACLE_XS))
    normal_err, point_err = _oracle_normal_error(a, H, m)
    assert normal_err <= normal_tol
    assert point_err <= 1e-15


@pytest.mark.parametrize("a,H", [(1e10, 1e5), (1e12, 1e6), (1.0, 0.7), (3.0, 2.0),
                                 (0.05, 1.2), (1e-12, 1e-6), (1e-6, 1e-3)])
def test_phase_matches_the_30_digit_oracle_and_is_odd(a, H):
    # (H / sqrt a) X t G(X t^2) against mpmath, with t and q as the meridian
    # takes them; measured at most 3.1e-16 of max(1, |phase|), and exactly 0
    # at a = 1.  The X > 0 branch evaluates artanh at sqrt(X)|t|: at (1e-12,
    # 1e-6) and x = -700, log1p(2r(1 + r)c/q) at r = sqrt(X) t < 0 is NaN
    import mpmath

    def phase(xs):
        t, s = np.tanh(xs), 1.0 / np.cosh(xs)
        with np.errstate(all="raise", under="ignore"):
            return cmc_spheres._phase(a, H, t, H * H + a * t * t + s * s)

    got = phase(np.array(ORACLE_XS))
    assert np.array_equal(phase(-np.array(ORACLE_XS)), -got)
    with mpmath.workdps(30):
        X = oracles.X_at(mpmath, a, H)
        for g, x in zip(got.tolist(), ORACLE_XS):
            tm = mpmath.tanh(mpmath.mpf(x))
            want = H / mpmath.sqrt(a) * X * tm * oracles.G(mpmath, X * tm * tm)
            assert abs(g - want) <= 4e-16 * max(1, abs(want)), x
    if a == 1.0:
        assert not got.any()


@given(st.floats(min_value=-6.0, max_value=4.0), st.floats(min_value=0.0, max_value=1e3),
       st.sampled_from([8.0, 300.0, cmc_spheres.MERIDIAN_X_LIMIT]),
       st.sampled_from([64, 1001, 2048]))
def test_closed_form_extreme_parameters(log_a, H, x_max, n):
    a = 10.0**log_a
    with np.errstate(all="raise", under="ignore"):
        m = cmc_spheres._meridian_profile(a, H, np.linspace(-x_max, x_max, n))
    assert np.max(np.abs(np.linalg.norm(m.points, axis=1) - 1.0)) <= 1e-14
    assert np.isfinite(m.normals).all()
    assert np.isfinite(_w_gamma(m)).all()
    assert m.max_C_residual <= 1e-11


def _frame_locals(exc):
    tb = exc.__traceback__
    while tb is not None:
        yield from tb.tb_frame.f_locals.items()
        tb = tb.tb_next


def test_reconstruction_error_traceback_holds_no_meridian_arrays(monkeypatch):
    # a failing case's traceback must not keep the meridian alive: not the
    # profile that broke its contract, nor is_embedded's work arrays
    n = 700
    real = cmc_spheres._meridian_profile

    def broken(*args):
        m = real(*args)
        m.C_residual[1] = math.nan
        return m

    monkeypatch.setattr(cmc_spheres, "_meridian_profile", broken)
    with pytest.raises(ReconstructionError) as info:
        reconstruct_meridian(0.5, 1.0, (-9, 9), n)
    for name, value in _frame_locals(info.value):
        assert not isinstance(value, cmc_spheres.MeridianProfile), name
        assert not (isinstance(value, np.ndarray) and n in value.shape), name
    monkeypatch.undo()

    m = reconstruct_meridian(1e-6, 1.0, (-700, 700), n)
    own = [m.x, m.points, m.normals, m.metric_residual, m.C_residual]
    with pytest.raises(ReconstructionError, match="turning angle") as info:
        is_embedded(m)
    for name, value in _frame_locals(info.value):
        if isinstance(value, np.ndarray) and not any(value is arr for arr in own):
            assert not any(k in value.shape for k in (n - 1, n, n + 1)), name


@pytest.mark.parametrize("field", ["metric_residual", "C_residual"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_interior_residual_breaks_contract(field, bad):
    m = reconstruct_meridian(0.5, 1.0, (-8, 8), 1024)
    assert m.holds_contract
    getattr(m, field)[500] = bad
    assert not m.holds_contract
    with pytest.raises(ReconstructionError):
        is_embedded(m)


def test_fundamental_data_finite_out_to_x_limit():
    # conf, A and p in sech^2 x / q: no overflow or 0/0 out to the meridian's
    # x limit (the cosh^2 x / den^2 form overflowed from |x| ~ 178)
    x = np.linspace(-cmc_spheres.MERIDIAN_X_LIMIT, cmc_spheres.MERIDIAN_X_LIMIT, 4001)
    for a, H in ((0.5, 1.0), (1e-6, 1e3), (1e4, 0.0)):
        d = oracle_data(a, H)
        with np.errstate(all="raise", under="ignore"):
            vals = (d.conf(x), d.A(x), d.p(x))
        assert all(np.isfinite(v).all() for v in vals)
        # the cosh^2 x / den^2 form where it does not overflow
        xm = x[np.abs(x) < 20.0]
        ch2 = np.cosh(xm) ** 2
        den = (1.0 - a) + (H**2 + a) * ch2
        np.testing.assert_allclose(d.conf(xm), (H**2 + a) * ch2 / den**2, rtol=1e-14)


# ---------------------------------------------------------------------------
# embeddedness
# ---------------------------------------------------------------------------

def test_embedded_round_spheres():
    for H in (0.0, 1.0, 3.0):
        m = reconstruct_meridian(1.0, H, (-8, 8), 2048)
        assert is_embedded(m).embedded is True


def test_embedded_moderate_alpha():
    m = reconstruct_meridian(0.5, 0.0, (-8, 8), 2048)
    assert is_embedded(m).embedded is True


def test_minimal_sphere_small_alpha_embedded():
    # minimal spheres are great equators, hence embedded, for every alpha
    m = reconstruct_meridian(0.05, 0.0, (-8, 8), 4096)
    assert is_embedded(m).embedded is True


def test_non_embedded_small_alpha():
    m = reconstruct_meridian(0.02, 1.0, (-9, 9), 3000)
    r = is_embedded(m)
    assert r.embedded is False
    assert r.crossings >= 1


def test_non_embedded_verdict_stable_under_refinement():
    for n in (3000, 6000):
        m = reconstruct_meridian(0.01, 1.0, (-9, 9), n)
        assert is_embedded(m).embedded is False


@given(st.floats(min_value=math.log(0.004), max_value=math.log(5.0)).map(math.exp),
       st.floats(min_value=0.0, max_value=3.0),
       st.sampled_from([2048, 2049, 4096, 4097]),
       st.sampled_from([8.0, 9.0]))
def test_sign_count_matches_the_polyline_reference(a, H, n, x_max):
    # the sign changes of Im w' on x > 0 and the mirror margin against the
    # general polyline search on the same samples: the same crossings, and
    # the same undecided verdicts
    from bergercmc.geometry2d import polyline_self_intersection_report

    m = reconstruct_meridian(a, H, (-x_max, x_max), n)
    r = is_embedded(m)
    ref = polyline_self_intersection_report(cmc_spheres.orbit_space_curve(m))
    assert r.crossings == ref.crossings
    assert (r.embedded is None) == (ref.crossings == 0 and ref.margin < 10.0 * ref.resolution)
    assert (r.embedded is False) == (ref.crossings > 0)


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _unwrapped_turning_angle(a, H, x_end=30.0, steps=20000):
    """Theta as the unwrapped angle of the orbit-space curve
    w'(t) = e^{i phi(t)} (H - i sqrt(a) t)/sqrt(q), t = tanh x, with phi from
    Gauss-Legendre quadrature of d phi/dx = (a - 1) H sech^2 x/(sqrt(a) q):
    no atan2 and no G.  Steps of 1.5e-3 in x turn the angle by less than 1,
    so the unwrap follows it; beyond x = 30 sech^2 x < 4e-26."""
    sa = math.sqrt(a)

    def dphi(x):
        s2 = 1.0 / np.cosh(x) ** 2
        return (a - 1.0) * H * s2 / (sa * (H * H + a * np.tanh(x) ** 2 + s2))

    edges = np.linspace(0.0, x_end, steps + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    pieces = (dphi(mid[:, None] + half[:, None] * GL_NODES) * GL_WEIGHTS).sum(axis=1) * half
    t = np.tanh(edges)
    q = H * H + a * t * t + 1.0 / np.cosh(edges) ** 2
    w = np.exp(1j * np.concatenate([[0.0], np.cumsum(pieces)])) * (H - 1j * sa * t) / np.sqrt(q)
    coarse = np.unwrap(np.angle(w))[-1]
    # the last angle again from the correctly rounded sum of the pieces
    last = float(np.angle(np.exp(1j * math.fsum(pieces)) * (H - 1j * sa * t[-1])))
    return -(last + 2.0 * math.pi * round((coarse - last) / (2.0 * math.pi)))


def test_turning_angle_is_the_unwrapped_angle_of_the_orbit_curve():
    worst = 0.0
    for a in np.geomspace(1e-6, 1e4, 11).tolist():
        for H in np.geomspace(1e-3, 1e3, 9).tolist():
            theta = turning_angle(a, H)
            worst = max(worst, abs(_unwrapped_turning_angle(a, H) - theta) / theta)
    assert worst <= 1e-11


def test_turning_angle_array_and_float_paths_agree():
    Hs = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 97)])
    for a in (1e-12, 0.01, 0.5, 1.0, 2.0, 1e12):
        got = turning_angle(a, Hs)
        want = [turning_angle(a, H) for H in Hs.tolist()]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        assert got[0] == math.pi / 2  # the minimal sphere's curve is a diameter


def test_turning_angle_above_a_one_against_mpmath():
    # for a > 1, Theta ~ 1/(sqrt(a) H) is a difference of two terms near
    # atan(sqrt(a)/H); the code sums positive terms
    import mpmath

    Hs = np.geomspace(1e-3, 1e6, 37)
    worst = 0.0
    with mpmath.workdps(50):
        for a in np.geomspace(1.0 + 1e-3, 1e12, 49).tolist():
            arr = turning_angle(a, Hs)
            for H, theta in zip(Hs.tolist(), arr.tolist()):
                want = oracles.theta(mpmath, a, H)
                for got in (theta, turning_angle(a, H)):
                    worst = max(worst, float(abs(got - want) / want))
    assert worst <= 1e-15, worst


@given(st.floats(min_value=1.0, max_value=1e12), st.floats(min_value=0.0, max_value=1e6))
def test_spheres_are_embedded_for_a_at_least_one(a, H):
    # X <= 0, so the G term is <= 0 and Theta <= atan2(sqrt a, H) <= pi/2
    assert turning_angle(a, H) <= math.pi / 2
    v = classify_embedding(a, H)
    assert v.embedded and v.crossings == 0 and v.margin >= math.pi / 2


def test_classify_embedding_counts_crossings():
    for a, H, crossings in ((0.04, 0.5, 1), (0.02, 1.0, 1), (0.005, 0.5, 2),
                            (0.00421758, 0.950525, 3), (0.002, 1.0, 4), (0.5, 1.0, 0)):
        v = classify_embedding(a, H)
        theta = turning_angle(a, H)
        assert (v.embedded, v.crossings) == (crossings == 0, crossings), (a, H)
        assert crossings * math.pi < theta <= (crossings + 1) * math.pi
        assert v.margin == math.pi - theta and (v.alpha, v.H) == (a, H)
    assert classify_embedding(0.00421758, 0.950525).margin == pytest.approx(math.pi - 9.749,
                                                                            abs=5e-4)
    with pytest.raises(ValueError):
        classify_embedding(0.5, -1.0)


@pytest.mark.parametrize("sign", [1, -1])
def test_turning_slope_factors_through_X_G_minus_one(sign):
    # sqrt(a) (a + H^2) dTheta/dH = (1 - X)(X G(X) - 1): its sign is that of X G(X) - 1
    import sympy

    H, a = oracles.branch_symbols(sign)
    X = oracles.X_at(sympy, a, H)
    lhs = sympy.sqrt(a) * (a + H**2) * sympy.diff(oracles.theta(sympy, a, H), H)
    assert sympy.simplify(lhs - (1 - X) * (X * oracles.G(sympy, X) - 1)) == 0


@pytest.mark.parametrize("sign", [1, -1])
def test_theta_and_area_rates_are_the_volume_rate(sign):
    # 2 pi sqrt(a) Theta' = A/2 - 2 c K and A' = -4 H K, so (2 pi sqrt(a) Theta - H A/2)' = -2 K,
    # the rate of isoperimetry.sphere_volume
    import sympy

    H, a = oracles.branch_symbols(sign)
    theta, A, K = (f(sympy, a, H) for f in (oracles.theta, oracles.area, oracles.koiso))
    c = 1 + H**2
    assert sympy.simplify(2 * sympy.pi * sympy.sqrt(a) * sympy.diff(theta, H)
                          - (A / 2 - 2 * c * K)) == 0
    assert sympy.simplify(sympy.diff(A, H) + 4 * H * K) == 0
    # and the volume oracle's expanded terms are that difference
    assert sympy.simplify(oracles.volume(sympy, a, H)
                          - (2 * sympy.pi * sympy.sqrt(a) * theta - H * A / 2)) == 0


def test_X_STAR_is_the_root_of_X_G_equal_one():
    import mpmath

    with mpmath.workdps(50):
        assert abs(oracles.X_star(mpmath) - cmc_spheres.X_STAR) <= math.ulp(cmc_spheres.X_STAR)


def _mp_turning_slope(mp, a, H):
    """dTheta/dH at mp's working precision."""
    return mp.diff(lambda h: oracles.theta(mp, a, h), mp.mpf(H))


@pytest.mark.parametrize("a", [1e-6, 1e-3, 0.01, alpha_emb(), 0.1, 0.2, 0.3, 0.305])
def test_theta_peaks_where_X_is_X_STAR(a):
    # one maximum: Theta rises before h_top and falls after it, where its slope vanishes
    import mpmath

    h_top, top = cmc_spheres._max_turning_angle(a)
    assert h_top > 0.0 and top == turning_angle(a, h_top)
    with mpmath.workdps(50):
        slope = float(_mp_turning_slope(mpmath, a, h_top))
        assert abs(math.sqrt(a) * (a + h_top * h_top) * slope) <= 1e-14  # (1 - X)(X G - 1)
        assert _mp_turning_slope(mpmath, a, 0.5 * h_top) > 0
        assert _mp_turning_slope(mpmath, a, 2.0 * h_top) < 0


@pytest.mark.parametrize("a", [1.0 - cmc_spheres.X_STAR + 1e-9, 0.4, 0.9, 1.0, 2.0, 1e6])
def test_theta_falls_from_H_zero_when_a_is_at_least_one_minus_X_STAR(a):
    import mpmath

    assert cmc_spheres._max_turning_angle(a) == (0.0, math.pi / 2)
    with mpmath.workdps(50):
        assert _mp_turning_slope(mpmath, a, 0) < 0
        assert _mp_turning_slope(mpmath, a, 1.0) < 0


def test_alpha_emb_closes_the_band():
    import mpmath
    from scipy.optimize import minimize_scalar

    ae = alpha_emb()
    assert abs(ae - 0.0473807639) < 5e-11
    with mpmath.workdps(50):  # measured 0.46 ulp
        assert abs(oracles.alpha_emb(mpmath) - ae) <= math.ulp(ae)
    res = minimize_scalar(lambda h: -turning_angle(ae, h), bounds=(0.0, 2.0), method="bounded",
                          options={"xatol": 1e-12})
    assert abs(-res.fun - math.pi) < 1e-12
    assert nonembedded_band(ae * (1.0 + 1e-9)) is None
    assert nonembedded_band(ae * (1.0 - 1e-6)) is not None
    for a in (0.06, 0.5, 1.0, 3.0):
        assert nonembedded_band(a) is None


@pytest.mark.parametrize("a,lo,hi", [(0.01, 0.08385, 2.96250), (0.04, 0.34948, 1.01161),
                                     (0.001, None, None), (0.004, None, None),
                                     (0.0277, None, None), (0.0408, None, None),
                                     (0.047, None, None)])
def test_nonembedded_band_edges(a, lo, hi):
    # against the 50-digit roots of Theta = pi: worst 2.32e-15 (measured, at
    # a = 0.047), and Theta within 4.5e-16 (one ulp of pi) of pi at both edges
    import mpmath

    H_lo, H_hi = nonembedded_band(a)
    with mpmath.workdps(50):
        for H, want in zip((H_lo, H_hi), oracles.band_edges(mpmath, a)):
            assert abs(H - want) <= 2.4e-15 * want, (a, H)
    if lo is not None:
        assert abs(H_lo - lo) < 5e-6 and abs(H_hi - hi) < 5e-6
        for H in (H_lo, H_hi):
            assert abs(turning_angle(a, H) - math.pi) <= 4.5e-16
    assert classify_embedding(a, H_lo * (1.0 - 1e-6)).embedded
    assert not classify_embedding(a, H_lo * (1.0 + 1e-6)).embedded
    assert not classify_embedding(a, H_hi * (1.0 - 1e-6)).embedded
    assert classify_embedding(a, H_hi * (1.0 + 1e-6)).embedded


def test_csv_roundtrip(tmp_path, capsys):
    from bergercmc.cli import main

    assert main(["--out", str(tmp_path), "sphere", "--alpha", "0.5", "--H", "1",
                 "--meridian-n", "512", "--x-max", "6"]) == 0
    capsys.readouterr()
    m = reconstruct_meridian(0.5, 1.0, (-6, 6), 512)
    data = (tmp_path / "meridian_alpha0.5_H1.csv").read_text().splitlines()
    assert data[0] == "x,re_z,im_z,re_w,im_w,metric_residual,C_residual"
    assert len(data) == 513
    row = data[256].split(",")
    assert len(row) == 7
    assert float(row[0]) == pytest.approx(m.x[255])
    # shortest round-trip floats: every cell reads back as the computed value
    cells = np.array([[float(v) for v in line.split(",")] for line in data[1:]])
    assert np.array_equal(cells, np.column_stack([m.x, m.points, m.metric_residual,
                                                  m.C_residual]))


def test_minimal_meridian_is_great_circle():
    # H = 0: the sphere is a great equator, so the meridian circle has unit
    # radius and passes through the origin-centered plane for every alpha
    for a in (0.2, 1.0, 2.0):
        m = reconstruct_meridian(a, 0.0, (-8, 8), 1024)
        _, _, Vt = np.linalg.svd(m.points - m.points.mean(axis=0), full_matrices=False)
        # points sit on S^3, so in-plane radius 1 about the origin pins both
        # the containing 2-plane through the origin and the unit radius
        radii = np.linalg.norm(m.points @ Vt[:2].T, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-8


def test_orbit_generator_eigenvalues():
    # the y-flow closes with period 2 pi: W is anti-Hermitian with the
    # eigenvalues 0 and i, and its kernel vector (H, i)/sqrt(1 + H^2) gives
    # the invariant coordinate (H z - i w)/sqrt(1 + H^2)
    from bergercmc.cmc_spheres import orbit_space_curve

    for a, H in ((0.3, 0.0), (1.0, 1.0), (2.0, 0.5), (0.01, 3.0)):
        m = reconstruct_meridian(a, H, (-8, 8), 1024)
        W = fit_orbit_generator(m)
        c = 1.0 + H * H
        U = np.array([[H, 1.0], [1j, -1j * H]]) / math.sqrt(c)  # kernel vector first
        np.testing.assert_allclose(W + W.conj().T, 0.0, rtol=0, atol=1e-15)
        eig = np.linalg.eigvals(W)
        np.testing.assert_allclose(eig[np.argsort(eig.imag)], [0.0, 1j], rtol=0, atol=1e-15)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(2), rtol=0, atol=1e-15)
        np.testing.assert_allclose(W @ U, U * [0.0, 1j], rtol=0, atol=1e-15)
        z = m.points[:, 0] + 1j * m.points[:, 1]
        w = m.points[:, 2] + 1j * m.points[:, 3]
        curve = orbit_space_curve(m)
        np.testing.assert_allclose(curve[:, 0] + 1j * curve[:, 1],
                                   U[0, 0].conjugate() * z + U[1, 0].conjugate() * w,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(curve[:, 0] + 1j * curve[:, 1],
                                   (H * z - 1j * w) / math.sqrt(c), rtol=0, atol=1e-15)