import math
import os

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bergercmc.selfcheck import SPHERE_GRID
from bergercmc.ambient import linspace
from bergercmc.stability import (SpectrumError, alpha0, classify_sphere, jacobi_spectrum,
                                 koiso_integral, sphere_stability_boundary, sphere_stability_rows)
from bergercmc.svgplot import write_csv
import oracles
from float_oracles import (jacobi_potential_flat, jacobi_rayleigh_C, koiso_integral_quadrature,
                           koiso_scale, koiso_solution, oracle_data, potential_from_data)

ALPHAS = st.floats(min_value=0.05, max_value=4.0)
HS = st.floats(min_value=0.0, max_value=3.0)

# the double nearest the root 0.1208834680743984390... of artanh(sqrt(1-a)) = 3 sqrt(1-a)/(2-3a)
ALPHA0_REF = 0.12088346807439844


# ---------------------------------------------------------------------------
# universal potential
# ---------------------------------------------------------------------------

def test_flat_potential_values():
    assert float(jacobi_potential_flat(0.0)) == 2.0
    assert float(jacobi_potential_flat(1.0)) == pytest.approx(2 / math.cosh(1) ** 2, rel=1e-14)
    assert float(jacobi_potential_flat(1.0)) == pytest.approx(0.83995, abs=1e-5)


@given(ALPHAS, HS)
def test_potential_universality(alpha, H):
    d = oracle_data(alpha, H)
    x = np.linspace(-9, 9, 37)
    assert np.max(np.abs(potential_from_data(d, x) - jacobi_potential_flat(x))) < 1e-12


def test_potential_universality_specific_triples():
    x = np.concatenate([np.random.default_rng(8).uniform(-10, 10, 100),
                        np.random.default_rng(55).uniform(-8, 8, 64)])
    for a, H in [(0.1, 0.0), (1.0, 2.0), (3.0, 0.5)] + SPHERE_GRID:
        d = oracle_data(a, H)
        assert np.max(np.abs(potential_from_data(d, x) - jacobi_potential_flat(x))) < 1e-12, (a, H)


def test_LC_zero_finite_difference():
    # C = tanh x solves f'' + (2/cosh^2 x) f = 0; central differences O(h^2)
    for n in (400, 800):
        x = np.linspace(-6, 6, n)
        h = x[1] - x[0]
        f = np.tanh(x)
        res = (f[2:] - 2 * f[1:-1] + f[:-2]) / h**2 + jacobi_potential_flat(x[1:-1]) * f[1:-1]
        assert np.max(np.abs(res)) < 2 * h**2


# ---------------------------------------------------------------------------
# Koiso solution and integral
# ---------------------------------------------------------------------------

def test_koiso_solution_at_equator():
    assert float(koiso_solution(1 / 3, 0.0, 0.0)) == pytest.approx(0.5, abs=1e-15)


def test_koiso_solution_alpha_one_limit():
    for H in (0.0, 1.0, 2.0):
        c = 1 / (2 * (H**2 + 1))
        x = np.linspace(-5, 5, 11)
        assert np.max(np.abs(koiso_solution(1.0, H, x) - c)) == 0.0
        # two-sided limit
        assert np.max(np.abs(koiso_solution(1 - 1e-9, H, x) - c)) < 1e-8
        assert np.max(np.abs(koiso_solution(1 + 1e-9, H, x) - c)) < 1e-8


def test_koiso_solution_solves_ode():
    a, H = 0.5, 1.0
    d = oracle_data(a, H)
    x = np.linspace(-10, 10, 2000)
    h = x[1] - x[0]
    f = koiso_solution(a, H, x)
    lhs = (f[2:] - 2 * f[1:-1] + f[:-2]) / h**2 + jacobi_potential_flat(x[1:-1]) * f[1:-1]
    res = lhs - d.conf(x[1:-1])
    assert np.max(np.abs(res)) < 1e-5


def test_koiso_solution_ode_second_order():
    a, H = 2.5, 0.4
    d = oracle_data(a, H)

    def sup_res(n):
        x = np.linspace(-10, 10, n)
        h = x[1] - x[0]
        f = koiso_solution(a, H, x)
        lhs = (f[2:] - 2 * f[1:-1] + f[:-2]) / h**2 + jacobi_potential_flat(x[1:-1]) * f[1:-1]
        return np.max(np.abs(lhs - d.conf(x[1:-1])))

    assert 3.0 < sup_res(1000) / sup_res(2000) < 5.0


def test_koiso_integral_clifford_value():
    expected = (math.pi / 2) * (3 + (3 * (1 / 3) - 2) / math.sqrt(2 / 3)
                                * math.atanh(math.sqrt(2 / 3)))
    assert koiso_integral(1 / 3, 0.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(2.5072705940, abs=1e-9)
    assert expected > 0


@given(st.floats(min_value=1.001, max_value=6.0), HS)
def test_koiso_integral_positive_above_one(alpha, H):
    assert koiso_integral(alpha, H) > 0


def test_koiso_integral_array_matches_scalars():
    H = np.array([0.0, 1e-3, 0.5, 3.0, 40.0, 1e6])
    for a in (1e-6, alpha0(), 0.5, 1.0, 1 + 1e-9, 2.5, 1e4):
        want = np.array([koiso_integral(a, float(h)) for h in H])
        np.testing.assert_allclose(koiso_integral(a, H), want, rtol=1e-15, atol=0.0)


def test_koiso_integral_negative_small_alpha():
    assert koiso_integral(0.05, 0.0) < 0


def test_koiso_closed_vs_quadrature_lattice():
    # within 1e-12 of the closed form's term sizes koiso_scale, also where the integral
    # vanishes: near H(a) at (0.11706, 0.0659486), at (alpha0, 0) and at (0.05, H(0.05));
    # at a = 1 the Koiso function is the constant 1/(2c)
    points = [(a, H) for a in np.linspace(0.05, 2.5, 20) for H in np.linspace(0.0, 3.0, 20)]
    points += [(0.11706, 0.0659486), (alpha0(), 0.0),
               (0.05, float(sphere_stability_boundary([0.05])[0, 1])), (1.0, 0.7)]
    for a, H in points:
        err = abs(koiso_integral(a, H) - koiso_integral_quadrature(a, H))
        assert err <= 1e-12 * koiso_scale(a, H), (a, H, err)


def test_koiso_continuity_at_alpha_one():
    for H in (0.0, 1.5):
        lim = 2 * math.pi / (H**2 + 1) ** 2
        assert koiso_integral(1 - 1e-8, H) == pytest.approx(lim, rel=1e-6)
        assert koiso_integral(1 + 1e-8, H) == pytest.approx(lim, rel=1e-6)
        assert koiso_integral(1.0, H) == pytest.approx(lim, rel=1e-14)


# ---------------------------------------------------------------------------
# classification, alpha0, boundary curve
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert classify_sphere(2.0, 0.0).stable
    assert not classify_sphere(0.05, 0.0).stable
    assert classify_sphere(0.05, 5.0).stable
    v = classify_sphere(0.5, 1.0)
    assert v.stable == (v.margin >= 0)


def test_alpha0_value_and_root_property():
    a0 = alpha0()
    assert abs(a0 - ALPHA0_REF) <= 2 * math.ulp(ALPHA0_REF)
    assert a0 == pytest.approx(0.121, abs=5e-4)  # printed precision
    assert abs(koiso_integral(a0, 0.0)) < 1e-9
    assert koiso_integral(a0 + 1e-3, 0.0) > 0
    assert koiso_integral(a0 - 1e-3, 0.0) < 0


def test_boundary_meets_zero_at_alpha0():
    a0 = alpha0()
    rows = sphere_stability_boundary([a0 * (1 - 1e-6)])
    assert rows[0, 1] < 5e-3


def test_boundary_flips_verdict_and_decreases():
    a0 = alpha0()
    grid = np.linspace(0.02, a0 * 0.98, 10)
    rows = sphere_stability_boundary(grid)
    H = rows[:, 1]
    assert np.all(np.diff(H) < 0)  # H(alpha) decreasing
    for a, Ha in rows:
        assert Ha > 0
        # the least offset that flips every verdict: 6.5e-15 fails at a = 0.98 alpha0
        assert classify_sphere(a, Ha * (1 + 7e-15)).stable
        assert not classify_sphere(a, Ha * (1 - 7e-15)).stable


def test_boundary_rows_flip_the_verdict():
    # the float rows that regions writes, on its grid
    a0 = alpha0()
    for a, Ha in sphere_stability_rows(linspace(a0 * 0.02, a0 * 0.98, 12)):
        assert classify_sphere(a, Ha * (1 + 7e-15)).stable
        assert not classify_sphere(a, Ha * (1 - 7e-15)).stable


def test_boundary_rows_and_arrays_agree_to_the_bit():
    # the float rows, the array API and numpy's expression of H(a), from the least
    # positive float to the float below alpha0
    a0 = alpha0()
    grid = [5e-324, 1e-300, *np.linspace(1e-6, a0, 201)[1:-1].tolist(), math.nextafter(a0, 0.0)]
    a = np.array(grid)
    numpy_rows = np.column_stack([a, np.sqrt((a0 - a) / (1.0 - a0))])
    rows = sphere_stability_rows(grid)
    assert list(map(list, rows)) == sphere_stability_boundary(a).tolist() == numpy_rows.tolist()
    assert all(type(v) is float for row in rows for v in row)
    for bad in ([0.0], [a0], [0.05, math.nan]):
        with pytest.raises(ValueError) as rows_error:
            sphere_stability_rows(bad)
        with pytest.raises(ValueError) as array_error:
            sphere_stability_boundary(np.array(bad))
        assert str(rows_error.value) == str(array_error.value)


def test_boundary_rejects_alpha_above_alpha0():
    with pytest.raises(ValueError):
        sphere_stability_boundary([alpha0() + 0.01])


def test_boundary_names_the_first_entry_off_the_open_interval():
    a0 = alpha0()
    for grid, bad in (([0.05, math.nan, 0.2], "nan"), ([0.05, 0.2, math.nan], "0.2"),
                      ([0.01, a0, 0.02], repr(a0)), ([0.01, 0.0], "0.0")):
        with pytest.raises(ValueError, match=rf"^alpha={bad} is not in \(0, alpha0"):
            sphere_stability_boundary(grid)


def test_koiso_integral_depends_on_X_alone():
    # (H^2 + 3a - 2)/c = 1 - 3X, so Int f dA = pi kappa(X)/(2 c^2), on both branches of G
    import sympy

    for sign in (1, -1):
        H, a = oracles.branch_symbols(sign)
        kappa = oracles.kappa(sympy, oracles.X_at(sympy, a, H))
        assert sympy.simplify(oracles.koiso(sympy, a, H)
                              - sympy.pi * kappa / (2 * (1 + H**2) ** 2)) == 0


def test_kappa_falls_on_one_third_to_one_and_its_root_is_one_minus_alpha0():
    import mpmath

    with mpmath.workdps(30):
        for X in np.linspace(1 / 3, 1, 2002)[1:-1]:
            assert mpmath.diff(lambda x: oracles.kappa(mpmath, x), mpmath.mpf(X)) < 0, X
        for X in (1 - 1e-6, 1 - 1e-12):  # toward -inf as X -> 1
            assert oracles.kappa(mpmath, mpmath.mpf(X)) < -5
    with mpmath.workdps(50):
        X_K = oracles.X_K(mpmath)
        assert abs(X_K - mpmath.mpf("0.879116531925601561")) < 1e-18
        assert abs(1 - alpha0() - X_K) <= math.ulp(float(X_K))


@pytest.mark.parametrize("grid,rtol", [
    (np.geomspace(1e-12, 0.995 * ALPHA0_REF, 400), 2e-14),
    (ALPHA0_REF * (1 - np.linspace(1e-3, 5e-3, 20)), 1e-13)])
def test_boundary_against_mpmath(grid, rtol):
    import mpmath

    with mpmath.workdps(50):
        X_K = oracles.X_K(mpmath)
        for a, Ha in sphere_stability_boundary(grid):
            want = oracles.H_at_X(mpmath, a, X_K)
            assert abs(Ha - want) <= rtol * want, a


@given(e_a=st.floats(-12.0, 12.0),
       H=st.one_of(st.just(0.0), st.floats(-4.0, 6.0).map(lambda e: 10.0**e)))
def test_verdict_is_the_X_test(e_a, H):
    # stable iff X = (1 - a)/(1 + H^2) <= 1 - alpha0; off the 1e-12 band around the
    # boundary, where the float sign of the Koiso integral decides.  The band is
    # taken in X: where H(a) is small, a relative offset in H moves X by only
    # 2H^2/c times as much
    a = 10.0**e_a
    X, X_K = (1.0 - a) / (1.0 + H * H), 1.0 - alpha0()
    assume(abs(X - X_K) > 1e-12 * X_K)
    assert classify_sphere(a, H).stable == (X <= X_K)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_round_sphere():
    s = jacobi_spectrum(1.0, 0.0, n=3000)
    assert s.index == 1 and s.nullity == 3
    assert s.eigenvalues[0] == pytest.approx(-2.0, abs=1e-6)
    assert s.gap == pytest.approx(4.0, abs=1e-4)


@pytest.mark.xfail(strict=True, reason="FOUND 52: the finite-difference gap is 1.56e-7 low; "
                                        "ROADMAP item 2 resolves it")
@pytest.mark.parametrize("H", [0.0, 1.0, 3.0])
def test_spectrum_gap_of_the_round_sphere_is_exact(H):
    # at a = 1 the weight is constant and S_1(H) is umbilic with curvature 1 + H^2: the
    # Jacobi operator is -Laplacian - 2 (1 + H^2), on levels l (l + 1) (1 + H^2), so
    # index 1 (l = 0), nullity 3 (l = 1) and the gap is the l = 2 level 4 (1 + H^2)
    assert jacobi_spectrum(1.0, H).gap == pytest.approx(4.0 * (1.0 + H * H), rel=1e-12)


def test_spectrum_index_nullity_everywhere():
    for a, H in ((0.3, 0.0), (2.0, 1.7), (0.05, 0.0), (5.0, 0.2), (0.01, 3.0)):
        s = jacobi_spectrum(a, H, n=2500)
        assert s.index == 1, (a, H)
        assert s.nullity == 3, (a, H)


def test_zero_modes_are_universal(monkeypatch):
    # the radical of the quadratic form does not depend on (alpha, H): per
    # mode, the zeros are mode 0's second and mode +-1's first eigenvalue (to
    # the grid's accuracy), and the next eigenvalue of each mode is the gap or
    # above.  The gap (one bisection, two windows and six Sturm counts on the
    # half-size parity blocks) and the table (6 per mode on the full matrices,
    # and four counts) are separate solves, each converged to stebz's absolute
    # tolerance, about eps times the matrix norm, so they agree within
    # tol = eps * max|diag|; on 8000 cells the zeros too are bisection noise below tol
    from bergercmc import stability

    diag_max = []

    def recording(d, e, **kwargs):
        diag_max.append(float(np.max(np.abs(d))))
        return solve(d, e, **kwargs)

    solve = stability.eigh_tridiagonal
    monkeypatch.setattr(stability, "eigh_tridiagonal", recording)
    for a, H, n in ((0.3, 0.0, 3000), (2.0, 1.7, 3000), (0.0369307, 0.309026, 8000)):
        diag_max.clear()
        s = jacobi_spectrum(a, H, n=n)
        mode = {k: s.eigenvalues[s.modes == k] for k in range(4)}  # modes 1-3 twice
        tol = np.finfo(float).eps * max(diag_max)
        zeros = np.array([mode[0][1], mode[1][0], mode[1][1]])
        assert np.max(np.abs(zeros)) <= max(1e-8 * s.gap, tol)
        assert mode[0][0] < 0.0
        firsts = [mode[0][2], mode[1][2], mode[2][0], mode[3][0]]
        assert len(diag_max) == 9 + 8
        assert abs(min(firsts) - s.gap) <= tol, (a, H, n)


def test_spectra_same_signature_not_same_eigenvalues():
    # the quadratic form is universal, hence index/nullity agree; the
    # eigenvalues themselves are weight-dependent and genuinely differ
    s1 = jacobi_spectrum(0.3, 0.0, n=2500)
    s2 = jacobi_spectrum(2.0, 1.7, n=2500)
    assert (s1.index, s1.nullity) == (s2.index, s2.nullity) == (1, 3)
    assert abs(s1.eigenvalues[0] - s2.eigenvalues[0]) > 1.0


def test_tanh_rayleigh_quotient():
    for a, H in [(0.3, 0.0), (1.0, 2.0), (3.0, 0.5), (0.5, 1e6)] + SPHERE_GRID:
        assert jacobi_rayleigh_C(a, H) < 1e-12, (a, H)


def test_spectrum_grid_refinement():
    s1 = jacobi_spectrum(0.5, 1.0, n=2000)
    s2 = jacobi_spectrum(0.5, 1.0, n=4000)
    assert abs(s1.eigenvalues[0] - s2.eigenvalues[0]) < 1e-4
    assert (s1.index, s1.nullity) == (s2.index, s2.nullity)


def test_spectrum_rejects_bad_args():
    with pytest.raises(ValueError):
        jacobi_spectrum(0.5, 1.0, k_max=1)
    with pytest.raises(ValueError):
        jacobi_spectrum(0.5, 1.0, n=100)


def test_spectrum_k_max_within_the_normal_floats(monkeypatch):
    # on n = 200 cells sigma^k at the outermost node, 0.009975^k, leaves the
    # normal floats at k = 154; the check refuses that before solving a mode.
    # k_max = 153 is accepted without a warning, but the table's high modes
    # lose their low eigenvalues to rounding (one comes out at -2e17), which
    # the table's zero-mode contract reports as a negative gap
    from bergercmc import stability

    with np.errstate(all="raise", under="ignore"):
        s = jacobi_spectrum(0.5, 1.0, k_max=153, n=200)
        with pytest.raises(SpectrumError, match="zero-mode contract failed: .* gap -2"):
            s.eigenvalues

    def no_solve(*_args, **_kwargs):
        raise AssertionError("a mode was solved before the k_max check")

    monkeypatch.setattr(stability, "eigh_tridiagonal", no_solve)
    for k_max in (154, 100000):
        with pytest.raises(ValueError, match="up to k_max=153$"):
            jacobi_spectrum(0.5, 1.0, k_max=k_max, n=200)


@pytest.mark.parametrize("a, H, n, k_max", [(1e5, 0.0, 4000, 3), (1e5, 1.0, 4000, 3),
                                             (3e5, 1.0, 4000, 3), (0.5, 1.0, 200, 93)])
def test_spectrum_refuses_uncertified_index(a, H, n, k_max):
    # at a >= 1e5 on 4000 cells, 1e-3 of the gap is below the Sturm counts'
    # resolution, so the gap's own contract refuses; at k_max = 93 on 200 cells
    # only the table's does, as its high mode has its first eigenvalue at -2e14.
    # There every read of the table refuses
    if k_max != 93:
        with pytest.raises(SpectrumError, match="zero-mode contract failed: .* resolution"):
            jacobi_spectrum(a, H, k_max=k_max, n=n)
        return
    s = jacobi_spectrum(a, H, k_max=k_max, n=n)
    for read in (lambda: s.eigenvalues, lambda: s.modes,
                 lambda: write_csv(os.devnull, ("k", "lambda"), zip(s.modes, s.eigenvalues))):
        with pytest.raises(SpectrumError, match="zero-mode contract failed"):
            read()


def test_spectrum_gap_bisects_once_then_solves_windows_and_counts(monkeypatch):
    # the gap bisects mode 2's even block from its Gershgorin interval, then
    # solves mode 0's even and mode 1's odd block in the window (0, gap], and
    # certifies by two Sturm counts on each of mode 0's blocks and mode 1's even
    # block.  Modes >= 3 and the PER_MODE table, on the full matrices, wait for
    # the first read of the table, whose contract counts twice on modes 0 and 1
    from bergercmc import stability

    solves, table = [], []

    def recording_solve(d, e, **kwargs):
        lo, hi = kwargs["select_range"]
        if kwargs["select"] == "i":
            solves.append(("index", len(d), (lo, hi)))
        elif "tol" in kwargs:
            assert kwargs["tol"] == hi - lo and abs(hi) < 1e-2
            solves.append(("count", len(d)))
        else:
            assert lo == 0.0 and 0.0 < hi < 10.0
            solves.append(("window", len(d)))
        return solve(d, e, **kwargs)

    def recording_table(alpha, H, k, n, count):
        table.append((k, count))
        return mode_eigenvalues(alpha, H, k, n, count)

    solve, mode_eigenvalues = stability.eigh_tridiagonal, stability._mode_eigenvalues
    monkeypatch.setattr(stability, "eigh_tridiagonal", recording_solve)
    monkeypatch.setattr(stability, "_mode_eigenvalues", recording_table)
    for n, (even, odd) in ((400, (200, 200)), (401, (201, 200))):
        for k_max in (2, 3, 60):
            solves.clear()
            table.clear()
            s = jacobi_spectrum(0.5, 1.0, k_max=k_max, n=n)
            assert solves == [("index", even, (0, 0)), ("window", even), ("window", odd),
                              ("count", even), ("count", even), ("count", odd),
                              ("count", odd), ("count", even), ("count", even)]
            assert table == []
            s.modes
            s.eigenvalues
            write_csv(os.devnull, ("k", "lambda"), zip(s.modes, s.eigenvalues))
            assert table == [(k, stability.PER_MODE) for k in range(k_max + 1)]
            assert solves[9:] == ([("index", n, (0, stability.PER_MODE - 1))] * (k_max + 1)
                                  + [("count", n)] * 4)


# (0.5, 1), a small, a large and a large-H point, and classify_sweep pool points
# within 1e-6 relative of H(a) and of H*(a)
PARITY_POINTS = [(0.5, 1.0), (0.01, 0.0), (100.0, 0.0), (0.05, 3.0),
                 (0.0140804, 0.3485526882197894), (0.0273838, 2.8524922961107686)]
PARITY_NS = (200, 201, 2501, 4000, 4001)


def _gershgorin(d, e):
    ae = np.abs(e)
    return float(np.max(np.abs(d) + np.r_[0.0, ae] + np.r_[ae, 0.0]))


@pytest.mark.parametrize("a, H", PARITY_POINTS)
def test_mode_matrix_is_reflection_symmetric(a, H):
    # the grid mirrors to one ulp; the matrix T mirrors (T = JTJ, J the reversal)
    # to rounding: ||T - JTJ|| reaches 32 ulps of ||T|| for mode 2 at n = 200,
    # from sigma^k's relative rounding, eps/sigma, in the pole rows
    from bergercmc import stability

    eps = np.finfo(float).eps
    for n in PARITY_NS + (8000,):
        _, t_node, t_edge = stability._grid(n)
        assert np.max(np.abs(t_node + t_node[::-1])) <= eps
        assert np.max(np.abs(t_edge + t_edge[::-1])) <= eps
        for k in range(3):
            d, e = stability._mode_matrix(a, H, k, n)
            assert _gershgorin(d - d[::-1], e - e[::-1]) <= 64 * eps * _gershgorin(d, e), (n, k)


@pytest.mark.parametrize("a, H", PARITY_POINTS)
def test_parity_blocks_give_the_full_matrix_eigenvalues(a, H):
    # per mode, the merged even and odd block spectra are the full matrix's lowest
    # eigenvalues, alternating even, odd, even, ... (PER_MODE of them, so past the
    # gap's), within stebz's tolerance, ulp times the Gershgorin norm; the gap from
    # the blocks is the least of mode 0's third, mode 1's second and mode 2's first
    from bergercmc import stability

    eps = np.finfo(float).eps
    half = stability.PER_MODE // 2
    for n in PARITY_NS:
        full, tol = [], 0.0
        for k in range(3):
            d, e = stability._mode_matrix(a, H, k, n)
            full.append(stability._mode_eigenvalues(a, H, k, n, stability.PER_MODE))
            tol = max(tol, eps * _gershgorin(d, e))
            even, odd = stability._parity_blocks(d, e)
            blocks = np.empty(stability.PER_MODE)
            blocks[0::2] = stability._lowest(*even, half)
            blocks[1::2] = stability._lowest(*odd, half)
            assert np.max(np.abs(blocks - full[k])) <= eps * _gershgorin(d, e), (n, k)
        gap = min(full[0][2], full[1][1], full[2][0])
        assert abs(stability._spectral_gap(a, H, n) - gap) <= tol, n


@pytest.mark.parametrize("n", [200, 201])
def test_mode_eigenvectors_alternate_even_and_odd(n):
    # the discrete counterpart of the oscillation theorem: the full matrix's
    # eigenvectors, lowest first, are even, odd, even, ... under t -> -t
    from bergercmc import stability

    for a, H in PARITY_POINTS:
        for k in range(3):
            d, e = stability._mode_matrix(a, H, k, n)
            _, vecs = stability.eigh_tridiagonal(d, e, select="i", select_range=(0, 5))
            for j in range(6):
                v = vecs[:, j]
                sign = 1.0 if j % 2 == 0 else -1.0
                assert np.max(np.abs(v[::-1] - sign * v)) <= 1e-8, (a, H, k, j)


@pytest.mark.parametrize("H", [-1.0, 1e7, math.nan, math.inf])
def test_spectrum_validates_H_before_solving(H, monkeypatch):
    # H goes through as_H before any solve: a negative H, one above H_MAX, NaN
    # and inf raise ContractViolation, not a gap or scipy's complaint about NaNs
    from bergercmc import stability
    from bergercmc.ambient import ContractViolation

    def no_solve(*_args, **_kwargs):
        raise AssertionError("a mode was solved before H was checked")

    monkeypatch.setattr(stability, "eigh_tridiagonal", no_solve)
    with pytest.raises(ContractViolation, match="mean curvature H"):
        jacobi_spectrum(0.5, H, n=400)
    with pytest.raises(ContractViolation, match="mean curvature H"):
        jacobi_spectrum(0.5, H, k_max=1, n=400)  # before the k_max check


def _table_csv_of_the_full_route(a, H, k_max, n):
    # the table as jacobi_spectrum built it when it solved every mode up front
    from bergercmc import stability

    vals = [stability._mode_eigenvalues(a, H, k, n, 6) for k in range(k_max + 1)]
    lams = np.concatenate([np.repeat(v, 1 if k == 0 else 2) for k, v in enumerate(vals)])
    ks = np.concatenate([np.full(len(v) * (1 if k == 0 else 2), k) for k, v in enumerate(vals)])
    order = np.argsort(lams)
    rows = zip(ks[order], lams[order])
    return "k,lambda\n" + "".join(f"{int(k)},{float(lam)!r}\n" for k, lam in rows)


@pytest.mark.parametrize("a, H, k_max, n", [(0.5, 1.0, 3, 4000), (0.177834, 0.685469, 3, 4000),
                                             (1e-4, 0.0, 3, 2000), (1.0, 0.0, 3, 4000),
                                             (1e4, 1.0, 5, 4000), (3.2136, 3.81505, 2, 8000)])
def test_spectrum_table_csv_is_the_full_route_byte_for_byte(a, H, k_max, n, tmp_path):
    # written as the sphere command writes it
    path = tmp_path / "spectrum.csv"
    s = jacobi_spectrum(a, H, k_max=k_max, n=n)
    write_csv(path, ("k", "lambda"), zip(s.modes, s.eigenvalues))
    assert path.read_bytes() == _table_csv_of_the_full_route(a, H, k_max, n).encode()


@pytest.mark.parametrize("a, H, n, k_max", [(1e5, 0.0, 200, 3), (1e4, 1.0, 4000, 3),
                                             (0.5, 1.0, 200, 44)])
def test_spectrum_certified_at_extremes(a, H, n, k_max):
    s = jacobi_spectrum(a, H, k_max=k_max, n=n)
    assert (s.index, s.nullity) == (1, 3)


def test_spectrum_contract_holds_on_a_fine_grid_and_for_many_modes():
    # a = 1e4 on 8000 cells is refused: 1e-3 of its gap is 0.92 eps times the
    # Gershgorin norm of its blocks, below what a Sturm count resolves.  61 modes
    # on 2000 cells pass the zero-mode contract; the gap lies in modes 0-2, so
    # more modes leave it unchanged
    with pytest.raises(SpectrumError, match="within the Sturm counts' resolution"):
        jacobi_spectrum(1e4, 0.0, n=8000)
    many = jacobi_spectrum(0.5, 1.0, k_max=60, n=2000)
    assert (many.index, many.nullity) == (1, 3)
    assert many.gap == jacobi_spectrum(0.5, 1.0, k_max=3, n=2000).gap


# (a, H, n) where 1e-3 of the gap is at least 4 times the counts' resolution;
# at (1e4, 0, 4000) it is 2.9 times
INERTIA_POINTS = [(a, H, n) for a in (1e-4, 0.01, 0.5, 1.0, 30.0, 1e3, 1e4)
                  for H in (0.0, 1.0, 30.0) for n in (200, 401, 4000)
                  if (a, H, n) != (1e4, 0.0, 4000)]


@pytest.mark.parametrize("a, H, n", INERTIA_POINTS)
def test_sturm_counts_match_the_inertia_of_the_full_matrix_eigenvalues(a, H, n):
    # the counts the contract makes, on the parity blocks (the gap's) and on the
    # full matrices (the table's), against an independent oracle: the inertia of
    # the full matrix's lowest PER_MODE computed eigenvalues, at +-1e-3 gap and
    # at the midpoints between those eigenvalues.  The verdict is the oracle's:
    # index 1 and nullity 3 within 1e-3 of the gap
    from bergercmc import stability

    eps = np.finfo(float).eps
    full = [stability._mode_eigenvalues(a, H, k, n, stability.PER_MODE) for k in range(3)]
    gap = min(full[0][2], full[1][1], full[2][0])
    delta = stability.ZERO_RTOL * gap
    for k in range(3):
        d, e = stability._mode_matrix(a, H, k, n)
        blocks = stability._parity_blocks(d, e)
        rho = 0.0
        for _, e_ in ((d, e), *blocks):
            ae = np.abs(e_)
            rho = max(rho, stability.COUNT_ULPS * eps * np.max(np.r_[ae, 0.0] + np.r_[0.0, ae]))
        assert delta >= 4 * rho, (k, delta / rho)
        lo = -2.0 * _gershgorin(d, e)  # below the spectra of the matrix and its blocks
        # midpoints of the pairs 8 rho apart or more: at small a, mode 2's first
        # two eigenvalues, of the two pole layers, are closer
        pairs = np.c_[full[k][:-1], full[k][1:]]
        mids = [(lo_ + hi_) / 2 for lo_, hi_ in pairs if hi_ - lo_ >= 8 * rho]
        for x in (-delta, delta, *mids):
            oracle = int(np.sum(full[k] < x))
            assert stability._count_below(d, e, x, lo) == oracle, (k, x)
            assert sum(stability._count_below(*b, x, lo) for b in blocks) == oracle, (k, x)
    inertia = [(int(np.sum(v < -delta)), int(np.sum(v < delta))) for v in full]
    try:
        s = jacobi_spectrum(a, H, n=n)
        s.eigenvalues  # the table's contract too
        accepted = True
    except SpectrumError:
        accepted = False
    assert accepted == (inertia == [(1, 2), (0, 1), (0, 0)])
    assert abs(s.gap - gap) <= eps * max(_gershgorin(*stability._mode_matrix(a, H, k, n))
                                         for k in range(3))


@pytest.mark.parametrize("n", [200, 201, 333, 2000, 4000, 8000, 12345])
def test_spectrum_k_max_limit_is_the_last_normal_power(n):
    h = 2.0 / n
    sig_min = float(np.min(1.0 - (-1.0 + (np.arange(n) + 0.5) * h) ** 2))
    with pytest.raises(ValueError) as err:
        jacobi_spectrum(0.5, 1.0, k_max=10**6, n=n)
    k_top = int(str(err.value).rsplit("=", 1)[1])
    tiny = np.finfo(float).tiny
    assert sig_min**k_top >= tiny > sig_min ** (k_top + 1)


def test_spectrum_refine_check():
    # doubling the grid moves every reported eigenvalue by less than 1e-4
    coarse = jacobi_spectrum(0.5, 1.0, n=2000)
    fine = jacobi_spectrum(0.5, 1.0, n=4000)
    drift = np.abs(coarse.eigenvalues - fine.eigenvalues)
    assert np.max(drift / np.maximum(1.0, np.abs(fine.eigenvalues))) <= 1e-4
    assert fine.index == 1 and fine.nullity == 3


def _shoot_ground_state(alpha, H, lam, n=20000):
    # integrate the k = 0 mode -((1-t^2) f')' - 2 f = lam w f from the
    # regular-singular pole t = -1 and return f'(0) (even ground state)
    import numpy as np

    h = 1.0 / n
    t = -1.0 + h
    w0 = (H**2 + alpha) / (1 + H**2 - (1 - alpha)) ** 2
    c1 = -(lam * w0 + 2.0) / 2.0
    f, fp = 1.0 + c1 * h, c1
    while t < -1e-12:
        w = (H**2 + alpha) / (1 + H**2 - (1 - alpha) * t * t) ** 2
        p = 1.0 - t * t
        fpp = (-(lam * w + 2.0) * f + 2.0 * t * fp) / p
        f += h * fp + 0.5 * h * h * fpp
        fp += h * fpp
        t += h
    return fp


def test_ground_state_against_shooting_oracle():
    # independent route to the lowest eigenvalue: bisection on the shooting
    # mismatch at the equator (ground state is even, so f'(0) = 0)
    for a, H in ((0.5, 1.0), (2.0, 0.3)):
        lo, hi = -30.0, -0.5
        assert _shoot_ground_state(a, H, lo) * _shoot_ground_state(a, H, hi) < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _shoot_ground_state(a, H, lo) * _shoot_ground_state(a, H, mid) <= 0:
                hi = mid
            else:
                lo = mid
        lam_shoot = 0.5 * (lo + hi)
        lam_matrix = jacobi_spectrum(a, H, n=4000).eigenvalues[0]
        assert lam_matrix == pytest.approx(lam_shoot, abs=5e-4)


def test_verdict_sign_matches_quadrature_lattice():
    # the classification must agree with the sign of the independently
    # quadratured integral of f, across stable and unstable territory
    for a in (0.05, 0.09, 0.3, 1.0, 2.0):
        for H in (0.0, 0.15, 1.0, 3.0):
            verdict = classify_sphere(a, H)
            quadr = koiso_integral_quadrature(a, H)
            assert verdict.stable == (quadr >= 0), (a, H)
            s = jacobi_spectrum(a, H, n=1500)
            assert (s.index, s.nullity) == (1, 3), (a, H)
