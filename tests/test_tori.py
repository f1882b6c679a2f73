import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bergercmc.stability import LAMBDA1_GAP
from bergercmc.tori import (TORUS_MAX_N, CutoffError, TorusData, classify_torus,
                            lambda1_closed_form, torus_area_volume, torus_data, torus_spectrum,
                            torus_stability_threshold)

ALPHAS = st.floats(min_value=0.02, max_value=4.0)
HS = st.floats(min_value=0.0, max_value=5.0)


# ---------------------------------------------------------------------------
# torus data, and the induced metric and lattice as the oracle of dual_gram
# ---------------------------------------------------------------------------

def metric(t):
    """Induced metric g of T_a(H) in the (t, s) angles of the two circles."""
    a, r1sq, r2sq = t.alpha, t.r1**2, t.r2**2
    g12 = -r1sq * r2sq * (1.0 - a)
    return np.array([[r1sq * (1.0 - (1.0 - a) * r1sq), g12],
                     [g12, r2sq * (1.0 - (1.0 - a) * r2sq)]])


def lattice_and_dual(t):
    """Columns (v1, v2) of a lattice basis whose Gram matrix is g, and of its
    dual basis (<v_i, v_j*> = delta_ij): the dual Gram matrix is g^-1."""
    a, r1, r2 = t.alpha, t.r1, t.r2
    sx = math.sqrt(1.0 - (1.0 - a) * r1**2)
    sa = math.sqrt(a)
    lat = np.column_stack([[r1 * sx, 0.0], (r2 / sx) * np.array([-r1 * r2 * (1.0 - a), sa])])
    dual = np.column_stack([(1.0 / sx) * np.array([1.0 / r1, r2 * (1.0 - a) / sa]),
                            [0.0, sx / (r2 * sa)]])
    return lat, dual


def form(t, m, n):
    """The Laplace eigenvalue (m, n) dual_gram (m, n)^T."""
    return float(np.array([m, n]) @ t.dual_gram @ np.array([m, n]))


def test_clifford_radii():
    t = torus_data(0.7, 0.0)
    assert t.r1**2 == pytest.approx(0.5, abs=1e-15)
    assert t.r2**2 == pytest.approx(0.5, abs=1e-15)


@given(ALPHAS, HS)
def test_radii_identity_and_detg(alpha, H):
    t = torus_data(alpha, H)
    g = metric(t)
    assert t.r1**2 + t.r2**2 == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.det(g) == pytest.approx(alpha * t.r1**2 * t.r2**2, abs=1e-12)
    assert np.linalg.det(g) > 0
    assert np.max(np.abs(t.dual_gram - np.linalg.inv(g))) <= 1e-12 * np.max(t.dual_gram)


def test_detg_clifford_third():
    assert np.linalg.det(metric(torus_data(1 / 3, 0.0))) == pytest.approx(1 / 12, abs=1e-15)


def test_round_clifford_lattice_rectangular():
    t = torus_data(1.0, 0.0)
    lat, _ = lattice_and_dual(t)
    s = 1 / math.sqrt(2)
    assert lat[:, 0] == pytest.approx([s, 0.0], abs=1e-15)
    assert lat[:, 1] == pytest.approx([0.0, s], abs=1e-15)
    assert np.array_equal(t.dual_gram, 2.0 * np.eye(2))


@given(ALPHAS, HS)
def test_lattice_duality_and_gram(alpha, H):
    t = torus_data(alpha, H)
    lat, dual = lattice_and_dual(t)
    assert np.max(np.abs(lat.T @ dual - np.eye(2))) < 1e-12
    assert np.max(np.abs(lat.T @ lat - metric(t))) < 1e-12  # 2pi scaling: 4pi^2 g
    assert np.max(np.abs(dual.T @ dual - t.dual_gram)) <= 1e-12 * np.max(t.dual_gram)


def test_dual_norm_value_third():
    t = torus_data(1 / 3, 0.0)
    lat, dual = lattice_and_dual(t)
    # |v2*|^2 = (1 - (1-a) r1^2) / (r2^2 a) = (2/3)/(1/6) = 4
    x = 1 - (1 - 1 / 3) * t.r1**2
    assert float(dual[:, 1] @ dual[:, 1]) == pytest.approx(x / (t.r2**2 * (1 / 3)), rel=1e-12)
    assert float(dual[:, 1] @ dual[:, 1]) == pytest.approx(4.0, rel=1e-12)
    assert np.max(np.abs(np.linalg.inv(lat).T - dual)) < 1e-12
    # the Clifford torus of a = 1/3 sits on the bound: lambda(1, 0) = lambda(1, -1) = 4
    assert form(t, 1, 0) == pytest.approx(4.0, rel=1e-15)
    assert form(t, 1, -1) == pytest.approx(4.0, rel=1e-15)
    assert form(t, 0, 1) == pytest.approx(4.0, rel=1e-15)


def test_dual_gram_matches_mpmath():
    # u = r1/r2 = H + sqrt(1 + H^2), b = (1 - a)/a: within a few ulps up to H_MAX
    import mpmath

    from bergercmc.ambient import H_MAX
    worst = 0.0
    with mpmath.workdps(50):
        for a in np.concatenate([np.geomspace(1e-6, 1e4, 41), [1 - 1e-9, 1 + 1e-9, 1 / 3]]):
            for H in np.concatenate([[0.0, 1e-9], np.geomspace(1e-3, H_MAX, 40)]):
                G = torus_data(a, H).dual_gram
                ma, h = mpmath.mpf(float(a)), mpmath.mpf(float(H))
                u = h + mpmath.sqrt(1 + h**2)
                b = (1 - ma) / ma
                want = ((1 / ma + 1 / u**2, b), (b, 1 / ma + u**2))
                for i in range(2):
                    for j in range(2):
                        err = abs(G[i, j] - want[i][j])  # b = 0 exactly at a = 1
                        worst = max(worst, float(err / abs(want[i][j])) if err else 0.0)
    assert worst <= 2e-15


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_zero_mode():
    s = torus_spectrum(torus_data(0.5, 0.7))
    assert s.eigenvalues[0] == 0.0
    assert s.multiplicities[0] == 1


def test_spectrum_clifford_third():
    s = torus_spectrum(torus_data(1 / 3, 0.0))
    assert s.lambda1 == pytest.approx(4.0, rel=1e-12)


def test_lambda1_closed_form_examples():
    assert lambda1_closed_form(1 / 3, 0.0) == pytest.approx(4.0, rel=1e-14)
    assert lambda1_closed_form(0.5, 0.0) == pytest.approx(3.0, rel=1e-14)
    assert lambda1_closed_form(0.2, 0.0) == pytest.approx(4.0, rel=1e-14)
    assert lambda1_closed_form(0.4, 0.0) == pytest.approx(3.5, rel=1e-14)
    assert lambda1_closed_form(1.0, 1.0) == pytest.approx(
        2 * math.sqrt(2) / (1 + math.sqrt(2)), rel=1e-14)
    assert lambda1_closed_form(1.0, 1.0) == pytest.approx(1.1716, abs=1e-4)


def test_lambda1_enumeration_matches_closed_form_lattice():
    # includes both branches and the branch boundary H*(a)
    alphas = np.linspace(0.02, 3.0, 30)
    Hs = np.linspace(0.0, 4.0, 30)
    for a in alphas:
        for H in Hs:
            lam_e = torus_spectrum(torus_data(a, H), N=10).lambda1
            lam_c = lambda1_closed_form(a, H)
            assert abs(lam_e - lam_c) <= 1e-10 * max(1.0, lam_c), (a, H)
    for a in (0.1, 0.25, 1 / 3):
        Hs_ = torus_stability_threshold(a)
        lam_e = torus_spectrum(torus_data(a, Hs_), N=12).lambda1
        assert abs(lam_e - lambda1_closed_form(a, Hs_)) <= 1e-10 * max(1.0, lam_e)


def _two_branch(a, H):
    """The closed form of the two dual vectors v1* - v2* and v1*."""
    if a <= 1 / 3 and H <= torus_stability_threshold(a):
        return 4.0 * (H**2 + 1.0)
    c = math.sqrt(H**2 + 1.0)
    return 2.0 * c / (H + c) + (1.0 - a) / a


def test_lambda1_is_two_branch_form_bit_for_bit_where_it_is_shortest():
    points = [(a, H) for a in np.linspace(0.02, 3.0, 30) for H in np.linspace(0.0, 4.0, 30)]
    points += [(a, torus_stability_threshold(a)) for a in (0.05, 0.1, 0.25, 1 / 3)]
    for a, H in points:
        assert lambda1_closed_form(a, H) == _two_branch(a, H), (a, H)
    # so the margins at the threshold H*(a) and the Clifford torus stay exactly 0
    assert classify_torus(1 / 3, 0.0).margin == 0.0
    for a in (0.05, 0.1, 0.25):
        assert classify_torus(a, torus_stability_threshold(a)).margin == 0.0


@pytest.mark.parametrize("a", [3.5, 5.0, 10.0, 100.0, 1e3, 1e4])
def test_lambda1_above_three_is_shortest_dual_vector(a):
    for H in (0.0, 0.5, 1.0, 3.0):
        td = torus_data(a, H)
        N = 12
        while True:  # enlarge the box until the enumeration certifies lambda_1
            try:
                lam_e = torus_spectrum(td, N=N).lambda1
                break
            except CutoffError:
                N *= 2
        lam_c = lambda1_closed_form(a, H)
        assert abs(lam_e - lam_c) <= 1e-10 * lam_e, (a, H, N)
        assert lam_c <= _two_branch(a, H)
    # at H = 0 the dual vector v1* + v2* has 4/a, below the branch value 1 + 1/a
    _, dual = lattice_and_dual(torus_data(a, 0.0))
    s = dual[:, 0] + dual[:, 1]
    assert lambda1_closed_form(a, 0.0) == pytest.approx(float(s @ s), rel=1e-12)
    assert lambda1_closed_form(a, 0.0) == pytest.approx(form(torus_data(a, 0.0), 1, 1),
                                                        rel=1e-12)
    assert lambda1_closed_form(a, 0.0) == pytest.approx(4.0 / a, rel=1e-12)


@pytest.mark.parametrize("a,H", [(1e4, 0.3), (1e-6, 0.3), (1000.0, 0.0)])
def test_spectrum_matches_mpmath(a, H):
    # where the Gram entries cancel (a >> 1, or a << 1 with H > 0), the
    # eigenvalues summed term by term keep their digits
    import mpmath

    N = 12
    s = torus_spectrum(torus_data(a, H), N=N)
    with mpmath.workdps(50):
        ma, h = mpmath.mpf(a), mpmath.mpf(H)
        u = h + mpmath.sqrt(1 + h**2)
        exact = sorted((m + n) ** 2 / ma + (m / u - n * u) ** 2
                       for m in range(-N, N + 1) for n in range(-N, N + 1))
    exact = np.array([float(v) for v in exact])
    for lam in s.eigenvalues[1:]:
        assert np.min(np.abs(exact - lam)) <= 2e-14 * lam
    lam1 = exact[exact > 0][0]
    assert abs(s.lambda1 - lam1) <= 2e-14 * lam1
    assert abs(lambda1_closed_form(a, H) - lam1) <= 2e-14 * lam1
    assert s.multiplicities.sum() == (2 * N + 1) ** 2


def test_spectrum_cutoff_certification():
    # |v1* - v2*|^2 = 4(H^2+1) identically, so the minimal vector always sits
    # inside a tiny box and the boundary-shell certificate holds at N = 3
    for a, H in ((1e-4, 8.0), (0.01, 0.0), (0.5, 20.0), (3.0, 1.0)):
        td = torus_data(a, H)
        s3 = torus_spectrum(td, N=3)
        s40 = torus_spectrum(td, N=40)
        assert s3.lambda1 == pytest.approx(s40.lambda1, rel=1e-12)
        assert s3.shell_min > s3.lambda1
    with pytest.raises(ValueError):
        torus_spectrum(torus_data(0.5, 0.0), N=2)


def test_spectrum_cutoff_above_maximum_raises_before_enumerating(monkeypatch):
    td = torus_data(0.5, 0.0)
    assert torus_spectrum(td, N=TORUS_MAX_N).lambda1 == pytest.approx(3.0, rel=1e-12)

    def no_enumeration(*_args, **_kwargs):
        raise AssertionError("the quadratic form was built before the cutoff check")

    monkeypatch.setattr(TorusData, "dual_gram", property(no_enumeration))  # read before the meshgrid
    for N in (TORUS_MAX_N + 1, 100000):
        with pytest.raises(ValueError, match=f"N <= {TORUS_MAX_N}, got {N}"):
            torus_spectrum(td, N=N)


def test_dual_difference_identity():
    # the (1, -1) dual vector realizes the Jacobi constant for every (a, H)
    for a in (1e-3, 0.2, 1.0, 2.7):
        for H in (0.0, 0.5, 3.0):
            t = torus_data(a, H)
            _, dual = lattice_and_dual(t)
            diff = dual[:, 0] - dual[:, 1]
            assert float(diff @ diff) == pytest.approx(4 * (H**2 + 1), rel=1e-12)
            assert form(t, 1, -1) == pytest.approx(4 * (H**2 + 1), rel=1e-14)


# ---------------------------------------------------------------------------
# stability classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    v = classify_torus(1 / 3, 0.0)
    assert v.stable and abs(v.margin) < 1e-12 and v.criterion == LAMBDA1_GAP
    assert not classify_torus(0.5, 0.0).stable
    assert classify_torus(0.2, 0.5).stable  # 0.5 below threshold 0.577


@given(st.floats(min_value=0.34, max_value=4.0), HS)
def test_unstable_above_one_third(alpha, H):
    assert not classify_torus(alpha, H).stable


def test_threshold_flip():
    for a in (0.05, 0.15, 0.25, 1 / 3 - 1e-9):
        Hs = torus_stability_threshold(a)
        assert classify_torus(a, max(Hs - 1e-8, 0.0)).stable
        assert not classify_torus(a, Hs + 1e-8).stable


def test_threshold_value():
    assert torus_stability_threshold(0.2) == pytest.approx(
        0.4 / (2 * math.sqrt(0.2 * 0.6)), rel=1e-14)


# ---------------------------------------------------------------------------
# area and volume
# ---------------------------------------------------------------------------

def test_area_volume_clifford_third():
    area, vol = torus_area_volume(1 / 3, 0.0)
    assert area == pytest.approx(2 * math.pi**2 / math.sqrt(3), rel=1e-14)
    assert area == pytest.approx(11.396437515528113, rel=1e-15)
    assert vol == pytest.approx(math.pi**2 / math.sqrt(3), rel=1e-14)


@given(ALPHAS)
def test_minimal_torus_halves_volume(alpha):
    _, vol = torus_area_volume(alpha, 0.0)
    assert vol == pytest.approx(math.pi**2 * math.sqrt(alpha), rel=1e-12)


def test_area_volume_values_quarter():
    area, vol = torus_area_volume(0.25, 1.0)
    assert area == pytest.approx(2 * math.pi**2 * 0.5 / math.sqrt(2), rel=1e-12)
    assert area == pytest.approx(6.978864199638879, rel=1e-14)
    r2sq = 0.5 - 1 / (2 * math.sqrt(2))
    assert vol == pytest.approx(2 * math.pi**2 * 0.5 * r2sq, rel=1e-12)
    assert vol == pytest.approx(1.4453701007252397, rel=1e-14)


def round_solid_torus_volume(s: float) -> float:
    """Round-metric volume of {|z|^2 >= s} in S^3: 2 pi^2 (1 - s)."""
    return 2.0 * math.pi**2 * (1.0 - s)


@given(ALPHAS, HS)
def test_area_from_lattice_and_volume_from_round_formula(alpha, H):
    t = torus_data(alpha, H)
    area, vol = torus_area_volume(alpha, H)
    assert area == pytest.approx(4 * math.pi**2 * math.sqrt(np.linalg.det(metric(t))), rel=1e-12)
    assert vol == pytest.approx(
        math.sqrt(alpha) * round_solid_torus_volume(t.r1**2), rel=1e-12)
    assert vol <= math.pi**2 * math.sqrt(alpha) * (1 + 1e-12)  # smaller side


def test_area_volume_arrays_match_scalars():
    H = np.array([0.0, 1e-8, 0.3, 1.0, 25.0, 1e3, 1e6])
    area, vol = torus_area_volume(0.3, H)
    assert area.shape == vol.shape == H.shape
    for h, ar, v in zip(H, area, vol):
        got = torus_area_volume(0.3, float(h))
        assert type(got[0]) is float and type(got[1]) is float
        assert got == (ar, v)


@pytest.mark.parametrize("H", [math.nan, -1e-3, 1e6 * (1 + 1e-12), math.inf,
                               [0.0, math.nan, 1.0], [0.0, -1.0], [1.0, 2e6]])
def test_area_volume_rejects_bad_H(H):
    from bergercmc.ambient import ContractViolation

    with pytest.raises(ContractViolation, match="mean curvature H"):
        torus_area_volume(0.3, H)


def test_volume_monte_carlo_oracle():
    # seeded MC sanity check of the solid-torus volume at one parameter point
    alpha, H = 0.25, 1.0
    t = torus_data(alpha, H)
    rng = np.random.default_rng(123)
    pts = rng.standard_normal((200_000, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    frac = np.mean(pts[:, 0] ** 2 + pts[:, 1] ** 2 >= t.r1**2)
    mc = math.sqrt(alpha) * 2 * math.pi**2 * frac
    _, vol = torus_area_volume(alpha, H)
    assert mc == pytest.approx(vol, rel=0.02)


def test_first_variation_identity_exact():
    # dA/dH = 2H dV/dH with exact derivatives of the closed forms
    for a in (0.1, 1 / 3, 0.8):
        for H in (0.3, 1.0, 2.5):
            c = math.sqrt(1 + H**2)
            dA = -2 * math.pi**2 * math.sqrt(a) * H / c**3
            dV = -math.pi**2 * math.sqrt(a) / c**3
            assert dA == pytest.approx(2 * H * dV, rel=1e-12)
            h = 1e-5
            ap, _ = torus_area_volume(a, H + h)
            am, _ = torus_area_volume(a, H - h)
            assert (ap - am) / (2 * h) == pytest.approx(dA, rel=1e-6)
            _, vp = torus_area_volume(a, H + h)
            _, vm = torus_area_volume(a, H - h)
            assert (vp - vm) / (2 * h) == pytest.approx(dV, rel=1e-6)


def test_torus_radii_match_mpmath_up_to_H_MAX():
    # r2^2 = 1/(2c(c + H)), c = sqrt(1 + H^2): no cancellation against r1^2
    import mpmath

    from bergercmc.ambient import H_MAX
    with mpmath.workdps(50):
        for H in np.concatenate([[0.0, 1e-9], np.geomspace(1e-3, H_MAX, 60)]):
            t = torus_data(0.5, H)
            h = mpmath.mpf(float(H))
            c = mpmath.sqrt(1 + h**2)
            r1 = mpmath.sqrt(mpmath.mpf(1) / 2 + h / (2 * c))
            r2 = mpmath.sqrt(1 - r1**2)
            assert abs(t.r1 - r1) <= 4e-16 * r1
            assert abs(t.r2 - r2) <= 4e-16 * r2
