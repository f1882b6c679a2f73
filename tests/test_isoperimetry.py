import math

import numpy as np
import pytest

from bergercmc.ambient import total_volume
from bergercmc.cmc_spheres import area_sphere_closed
from bergercmc.isoperimetry import (SPHERE, TORUS, candidate_reach, clifford_vs_minimal_sphere,
                                    crossing_alpha, isoperimetric_candidate,
                                    round_cap_area_volume, sphere_profile,
                                    sphere_volume, sphere_volume_rate, torus_H_at_volume,
                                    torus_profile)
from bergercmc.stability import alpha0, koiso_integral_closed
from bergercmc.tori import torus_area_volume

CROSSING_REF = 0.1664476396914846


@pytest.fixture(scope="module")
def prof_round():
    return sphere_profile(1.0, H_max=12.0, n=200)


@pytest.fixture(scope="module")
def prof_half():
    return sphere_profile(0.5, H_max=12.0, n=200)


# ---------------------------------------------------------------------------
# sphere profile
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,a,H_max,n", [
    (SPHERE, 0.5, 12.0, 200), (SPHERE, 1.0, 20.0, 400),
    (SPHERE, 0.04, 20.0, 400), (SPHERE, 0.01, 20.0, 301),  # volume not monotone below alpha0
    (SPHERE, 3.0, 5.0, 50), (TORUS, 0.2, 20.0, 300)])
def test_profile_interpolant_matches_scipy_pchip(family, a, H_max, n):
    from scipy.interpolate import PchipInterpolator

    prof = (sphere_profile if family == SPHERE else torus_profile)(a, H_max=H_max, n=n)
    assert prof.monotone == (a > 0.1)
    ref = PchipInterpolator(prof.H, np.column_stack([prof.area, prof.volume]))
    knots = prof.H
    xs = np.concatenate([knots, (knots[:-1] + knots[1:]) / 2.0,
                         np.random.default_rng(n).uniform(0.0, H_max, 500),
                         np.nextafter(knots, -np.inf)[1:], [H_max * (1.0 + 1e-3)]])
    for x, (area, volume) in zip(xs.tolist(), ref(xs).tolist()):
        assert (prof.area_at(x).hex(), prof.volume_at(x).hex()) == (area.hex(), volume.hex()), x


def test_round_profile_matches_geodesic_spheres(prof_round):
    for r in np.linspace(0.12, math.pi / 2, 25):
        H, A, V = round_cap_area_volume(r)
        if H > prof_round.H[-1]:
            continue
        assert prof_round.area_at(H) == pytest.approx(A, rel=1e-5)
        assert prof_round.volume_at(H) == pytest.approx(V, rel=1e-5)


def test_profile_anchors_at_half_volume(prof_half):
    assert prof_half.volume[0] == pytest.approx(math.pi**2 * math.sqrt(0.5), rel=1e-12)
    assert prof_half.monotone
    assert np.all(np.diff(prof_half.volume) < 0)
    assert np.all(prof_half.area > 0) and np.all(prof_half.volume > 0)


def test_profile_decays(prof_half):
    assert prof_half.volume[-1] < 0.01 * prof_half.volume[0]
    assert prof_half.area[-1] < 0.01 * prof_half.area[0]


def test_first_variation_identity_sphere():
    # uniform grid so the central differences are second order
    H = np.linspace(0.0, 4.0, 401)
    A, V = area_sphere_closed(0.5, H), sphere_volume(0.5, H)
    dA = (A[2:] - A[:-2]) / (H[2:] - H[:-2])
    dV = (V[2:] - V[:-2]) / (H[2:] - H[:-2])
    Hm = H[1:-1]
    sel = Hm > 0.2  # away from the symmetric point where both sides vanish
    rel = np.abs(dA[sel] - 2 * Hm[sel] * dV[sel]) / np.abs(dA[sel])
    assert np.max(rel) < 1e-4


def test_volume_rate_is_first_variation():
    a = 0.7
    for H in (0.4, 1.1):
        h = 1e-4
        dA = (area_sphere_closed(a, H + h) - area_sphere_closed(a, H - h)) / (2 * h)
        assert sphere_volume_rate(a, H) == pytest.approx(dA / (2 * H), rel=1e-6)


@pytest.mark.parametrize("a", [0.004, alpha0(), 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 3.0, 50.0])
@pytest.mark.parametrize("H", [0.0, 1e-3, 1.0, 20.0])
def test_closed_volume_rate_is_minus_twice_koiso_integral(a, H):
    # the profile's volume rate against the quadrature of d(area)/du; the
    # absolute floor covers (alpha0, 0), where the rate vanishes
    closed = -2.0 * koiso_integral_closed(a, H)
    assert closed == pytest.approx(sphere_volume_rate(a, H), rel=1e-9, abs=1e-12)


def _mp_sphere_volume(mp, a, H):
    """2 pi sqrt(a) Theta - H A/2 with its terms expanded, at the working precision of mp:
    an oracle for sphere_volume that shares no evaluation order with it."""
    a, H = mp.mpf(a), mp.mpf(H)
    c, sa, x = 1 + H * H, mp.sqrt(a), (1 - a) / (1 + H * H)
    G = mp.atanh(mp.sqrt(x)) / mp.sqrt(x) if x > 0 else (
        mp.atan(mp.sqrt(-x)) / mp.sqrt(-x) if x < 0 else mp.mpf(1))
    return (mp.pi**2 * sa - 2 * mp.pi * sa * mp.atan(H / sa) - mp.pi * H / c
            + mp.pi * H * ((2 - 3 * a) + (1 - 2 * a) * H * H) * G / c**2)


def test_sphere_volume_against_mpmath():
    # 2 pi sqrt(a) Theta - H A/2 cancels towards (4 pi/3) H^-3, where the large-H series
    # takes over; just below that switch, at H^2 = 16 a, it cancels by a factor of order
    # a: every volume up to H_MAX is positive, and above a = 50 within 51 a eps (measured)
    import mpmath

    from bergercmc.ambient import H_MAX
    H = np.concatenate([[0.0], np.geomspace(1e-2, H_MAX, 161)])
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for a in np.geomspace(1e-6, 1e12, 73).tolist():
            vol = sphere_volume(a, H)
            assert np.all(vol > 0.0), a
            want = [_mp_sphere_volume(mpmath, a, h) for h in H.tolist()]
            worst = max(float(abs(v - w) / w) for v, w in zip(vol.tolist(), want))
            assert worst <= (5e-13 if a <= 50.0 else 2e-10 if a <= 1e4 else 128.0 * a * eps), \
                (a, worst)


def test_torus_volume_plus_half_H_area_is_half_the_total():
    # the tori's form of V = 2 pi sqrt(a) Theta - H A/2, with Theta = pi/2
    H = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 49)])
    for a in (1e-6, 0.3, 1.0, 1e4):
        area, vol = torus_area_volume(a, H)
        np.testing.assert_allclose(vol + 0.5 * H * area, math.pi**2 * math.sqrt(a),
                                   rtol=4e-16, atol=0.0)


def test_sphere_volume_closed_form_integrates_the_rate():
    # d/dH of the closed form is -2 koiso_integral_closed, and V(0) = pi^2 sqrt(a)
    import mpmath

    with mpmath.workdps(30):
        for a in (0.004, 0.5, 1.0, 3.0, 50.0):
            assert _mp_sphere_volume(mpmath, a, 0) == pytest.approx(
                float(mpmath.pi**2 * mpmath.sqrt(a)), rel=1e-15)
            for H in (0.3, 1.0, 20.0):
                rate = mpmath.diff(lambda h: _mp_sphere_volume(mpmath, a, h), H)
                assert float(rate) == pytest.approx(-2.0 * koiso_integral_closed(a, H),
                                                    rel=1e-12)


def test_sphere_volume_round_sphere():
    # below r ~ 0.3 the oracle pi (2r - sin 2r) itself cancels
    for r in np.linspace(0.3, math.pi / 2, 40):
        H, _, V = round_cap_area_volume(r)
        assert abs(float(sphere_volume(1.0, H)) - V) <= 1e-14 * V


def test_sphere_profile_is_the_closed_forms(prof_half):
    from bergercmc.cmc_spheres import area_sphere_closed

    assert np.array_equal(prof_half.volume, sphere_volume(0.5, prof_half.H))
    assert np.array_equal(prof_half.area, area_sphere_closed(0.5, prof_half.H))


def test_non_monotone_detection_small_alpha():
    prof = sphere_profile(0.06, H_max=6.0, n=150)
    assert not prof.monotone
    assert "noncongruent" in prof.notes
    prof = sphere_profile(0.14, H_max=6.0, n=150)
    assert prof.monotone


# ---------------------------------------------------------------------------
# torus profile
# ---------------------------------------------------------------------------

def test_torus_profile_endpoints_and_identity():
    prof = torus_profile(0.3, H_max=15.0, n=150)
    assert prof.volume[0] == pytest.approx(math.pi**2 * math.sqrt(0.3), rel=1e-12)
    assert prof.area[0] == pytest.approx(2 * math.pi**2 * math.sqrt(0.3), rel=1e-12)
    assert np.all(np.diff(prof.volume) < 0)
    assert prof.volume[-1] < 0.01 * prof.volume[0]
    assert prof.area[-1] < 0.35 * prof.area[0]


def test_torus_clifford_third_values():
    prof = torus_profile(1 / 3, H_max=5.0, n=100)
    assert prof.area[0] == pytest.approx(2 * math.pi**2 / math.sqrt(3), rel=1e-12)
    assert prof.area[0] == pytest.approx(11.396437515528113, rel=1e-14)


def test_torus_volume_inversion():
    for a in (0.1, 1 / 3, 0.8):
        half = math.pi**2 * math.sqrt(a)
        for V in (0.2 * half, 0.7 * half, half):
            H = torus_H_at_volume(a, V)
            _, vol = torus_area_volume(a, H)
            assert vol == pytest.approx(V, rel=1e-12)


# ---------------------------------------------------------------------------
# comparisons and crossing
# ---------------------------------------------------------------------------

def test_clifford_comparison_third():
    at, asph, winner = clifford_vs_minimal_sphere(1 / 3)
    assert at == pytest.approx(11.396437515528113, rel=1e-14)
    assert asph == pytest.approx(9.2233431556, abs=1e-9)
    assert at > asph and winner == SPHERE


def test_clifford_comparison_small_alpha():
    assert clifford_vs_minimal_sphere(0.14)[2] == TORUS


def test_clifford_comparison_round():
    at, asph, winner = clifford_vs_minimal_sphere(1.0)
    assert winner == SPHERE
    assert asph == pytest.approx(4 * math.pi, rel=1e-12)
    assert at == pytest.approx(2 * math.pi**2, rel=1e-12)


def test_crossing_alpha_value():
    ca = crossing_alpha()
    assert ca == pytest.approx(CROSSING_REF, abs=1e-10)
    assert ca == pytest.approx(0.166, abs=5e-4)  # printed precision


def test_crossing_alpha_defining_property():
    ca = crossing_alpha()
    at, asph, _ = clifford_vs_minimal_sphere(ca)
    assert abs(at - asph) < 1e-8
    assert clifford_vs_minimal_sphere(ca - 0.02)[2] == TORUS
    assert clifford_vs_minimal_sphere(ca + 0.02)[2] == SPHERE


def test_crossing_alpha_area_against_quadrature():
    # the closed minimal-sphere area at the root, checked by the area quadrature
    from bergercmc.cmc_spheres import area_sphere, area_sphere_closed

    ca = crossing_alpha()
    assert area_sphere(ca, 0.0) == pytest.approx(area_sphere_closed(ca, 0.0), rel=1e-9)


# ---------------------------------------------------------------------------
# candidate selection
# ---------------------------------------------------------------------------

def test_candidate_half_volume_mid_alpha(prof_half):
    rep = isoperimetric_candidate(0.5, math.pi**2 * math.sqrt(0.5), profile=prof_half)
    assert rep.family == SPHERE
    assert rep.H == pytest.approx(0.0, abs=1e-9)


def test_candidate_third_reports_clifford_runner_up():
    prof = sphere_profile(1 / 3, H_max=12.0, n=200)
    rep = isoperimetric_candidate(1 / 3, math.pi**2 / math.sqrt(3), profile=prof)
    assert rep.family == SPHERE
    assert rep.area == pytest.approx(9.2233, abs=1e-3)
    assert "Torus" in rep.notes  # the other stable candidate, with larger area


def test_candidate_small_alpha_torus_wins():
    prof = sphere_profile(0.14, H_max=12.0, n=200)
    rep = isoperimetric_candidate(0.14, math.pi**2 * math.sqrt(0.14), profile=prof)
    assert rep.family == TORUS
    assert "1/3 <= alpha < 1" in rep.notes


def test_candidate_sphere_for_admissible_alphas(prof_half):
    total = total_volume(0.5)
    for frac in np.linspace(0.05, 0.5, 8):
        rep = isoperimetric_candidate(0.5, frac * total, profile=prof_half)
        assert rep.family == SPHERE


def test_complement_symmetry(prof_half):
    total = total_volume(0.5)
    r1 = isoperimetric_candidate(0.5, 0.3 * total, profile=prof_half)
    r2 = isoperimetric_candidate(0.5, 0.7 * total, profile=prof_half)
    assert r1.family == r2.family == SPHERE
    assert r1.H == pytest.approx(r2.H, abs=1e-9)
    assert r1.area == pytest.approx(r2.area, rel=1e-9)
    assert r2.complemented and not r1.complemented


def test_candidate_rejects_out_of_range(prof_half):
    with pytest.raises(ValueError):
        isoperimetric_candidate(0.5, 0.0, profile=prof_half)
    with pytest.raises(ValueError):
        isoperimetric_candidate(0.5, total_volume(0.5), profile=prof_half)


def test_noncongruent_spheres_reported():
    prof = sphere_profile(0.06, H_max=6.0, n=200)
    # at small alpha the family volume overshoots half of the total before
    # falling: volumes inside the hump are enclosed by several spheres
    assert prof.volume.max() > prof.volume[0]
    V = 0.5 * (prof.volume[0] + prof.volume.max())
    rep = isoperimetric_candidate(0.06, V, profile=prof)
    sphere_count = sum(1 for c in rep.candidates if c["family"] == SPHERE)
    assert sphere_count >= 3  # two on the rising side, one on the complement
    assert "noncongruent" in rep.notes


def test_profile_third_half_volume_values():
    prof = sphere_profile(1 / 3, H_max=5.0, n=120)
    assert prof.area[0] == pytest.approx(9.2233431556, abs=1e-6)
    assert prof.volume[0] == pytest.approx(math.pi**2 / math.sqrt(3), rel=1e-12)
    assert prof.volume[0] == pytest.approx(5.6982187578, abs=1e-9)


def test_torus_volume_inversion_tiny_volumes():
    # 1 - s^2 with s = 1 - V/half rounds to 0 for tiny V; t (2 - t) does not
    import mpmath

    a = 0.5
    half = math.pi**2 * math.sqrt(a)
    for V in (1e-5, 1e-10, 1e-16, 1e-300):
        H = torus_H_at_volume(a, V)
        t = mpmath.mpf(V) / mpmath.mpf(half)
        want = (1 - t) / mpmath.sqrt(t * (2 - t))
        assert abs(H - want) <= 4e-16 * want
        if H <= 1e6:
            assert torus_area_volume(a, H)[1] == pytest.approx(V, rel=1e-9)


@pytest.mark.parametrize("a", [0.004, 0.05, 0.3, 0.5, 3.0])
def test_candidate_reach(a):
    prof = sphere_profile(a, n=300)
    total = total_volume(a)
    lo, hi = candidate_reach(a, prof)
    assert 0.0 < lo < 0.5 * total and hi == total - lo
    for V in (lo * (1 + 1e-9), 0.5 * total, total - lo * (1 + 1e-9)):
        assert isoperimetric_candidate(a, V, profile=prof).family in (SPHERE, TORUS)
    for V in (math.nextafter(lo, 0.0), math.nextafter(hi, total)):
        with pytest.raises(ValueError, match="enclose volumes in"):
            isoperimetric_candidate(a, V, profile=prof)


def test_torus_profile_volume_against_mpmath():
    # pi^2 sqrt(a) (1 - H/sqrt(1 + H^2)) cancels for large H; the closed form
    # takes 1/(c (c + H)), c = sqrt(1 + H^2)
    import mpmath

    from bergercmc.ambient import H_MAX
    H = np.concatenate([[0.0, 1e-8, 0.3, 1.0], np.geomspace(1.0, H_MAX, 61)[1:]])
    a = 0.3
    _, vol = torus_area_volume(a, H)
    with mpmath.workdps(50):
        for h, v in zip(H, vol):
            h = mpmath.mpf(float(h))
            want = mpmath.pi**2 * mpmath.sqrt(mpmath.mpf(a)) * (1 - h / mpmath.sqrt(1 + h**2))
            assert abs(v - want) <= 1e-14 * want, float(h)
