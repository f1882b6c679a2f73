import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergercmc import ambient
from bergercmc.ambient import ContractViolation, frame_at, metric_eval, total_volume

ALPHAS = st.floats(min_value=0.02, max_value=5.0, allow_nan=False)
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def _point_and_tangents(rng, k=2):
    """A uniform random point q of S^3 and k random tangent vectors at q."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    X = rng.standard_normal((k, 4))
    X -= np.outer(X @ q, q)
    return q, X


def test_berger_param_validation():
    assert ambient.as_alpha(0.5) == 0.5 and ambient.as_alpha(3) == 3.0
    assert ambient.as_alpha(ambient.ALPHA_MIN) == 1e-12
    for bad in (0.0, -1.0, math.nan, math.inf, 2e-13, 1e-17, 5e-324):
        with pytest.raises(ContractViolation, match="alpha must be positive"):
            ambient.as_alpha(bad)


def test_mean_curvature_validation():
    assert ambient.as_H(0) == 0.0 and ambient.as_H(2.5) == 2.5
    for bad in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(ContractViolation):
            ambient.as_H(bad)
    assert ambient.as_H(ambient.H_MAX) == ambient.H_MAX
    for big in (math.nextafter(ambient.H_MAX, math.inf), 1e10, 1e100, 1e200):
        with pytest.raises(ContractViolation, match="mean curvature H"):
            ambient.as_H(big)
    # an array passes as it is, or fails on any one bad entry
    H = np.array([0.0, 1.0, ambient.H_MAX])
    assert ambient.as_H(H) is H
    for bad in (-1.0, math.nan, math.inf, 2e6):
        with pytest.raises(ContractViolation, match="mean curvature H"):
            ambient.as_H(np.array([0.5, bad, 1.0]))


@pytest.mark.parametrize("H", [-1.0, math.nan, math.inf, 1.000001e6,
                               np.array([0.0, 0.5, math.nan, 2.0])])
@pytest.mark.parametrize("closed_form", ["cmc_spheres.turning_angle",
                                         "cmc_spheres.area_sphere",
                                         "isoperimetry.sphere_volume",
                                         "stability.koiso_integral"])
def test_closed_forms_refuse_a_bad_H(closed_form, H):
    # as classify_sphere and torus_area_volume do: no value for an H off [0, H_MAX]
    import importlib

    module, name = closed_form.split(".")
    fn = getattr(importlib.import_module(f"bergercmc.{module}"), name)
    with pytest.raises(ContractViolation, match="mean curvature H"):
        fn(0.5, H)


def test_hopf_field_values():
    # V = (iz, iw): (i, 0) at (1, 0) and (0, i) at (0, 1)
    assert frame_at([1.0, 0.0, 0.0, 0.0])[0].tolist() == [0.0, 1.0, 0.0, 0.0]
    assert frame_at([0.0, 0.0, 1.0, 0.0])[0].tolist() == [0.0, 0.0, 0.0, 1.0]


def test_metric_on_hopf_field_round():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    V = frame_at(q)[0]
    assert metric_eval(1.0, q, V, V) == pytest.approx(1.0, abs=1e-15)
    assert metric_eval(0.5, q, V, V) == pytest.approx(0.5, abs=1e-15)
    E = np.array([0.0, 0.0, 1.0, 0.0])  # horizontal at (1, 0)
    assert metric_eval(2.0, q, E, E) == pytest.approx(1.0, abs=1e-15)


@given(ALPHAS, SEEDS)
def test_metric_symmetric_and_killing_norm(alpha, seed):
    q, (X, Y) = _point_and_tangents(np.random.default_rng(seed))
    assert metric_eval(alpha, q, X, Y) == pytest.approx(metric_eval(alpha, q, Y, X), abs=1e-10)
    V = frame_at(q)[0]
    assert metric_eval(alpha, q, V, V) == pytest.approx(alpha, abs=1e-10)


@given(ALPHAS, SEEDS)
def test_metric_bilinear(alpha, seed):
    q, (X, Y) = _point_and_tangents(np.random.default_rng(seed))
    lhs = metric_eval(alpha, q, 2.5 * X + Y, Y)
    rhs = 2.5 * metric_eval(alpha, q, X, Y) + metric_eval(alpha, q, Y, Y)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_metric_on_stacks_matches_rows():
    rng = np.random.default_rng(4)
    rows = [_point_and_tangents(rng) for _ in range(6)]
    q = np.array([r[0] for r in rows])
    X = np.array([r[1][0] for r in rows])
    Y = np.array([r[1][1] for r in rows])
    a = rng.uniform(0.1, 3.0, 6)
    got = metric_eval(a, q, X, Y)
    assert got.shape == (6,)
    want = [metric_eval(a[i], q[i], X[i], Y[i]) for i in range(6)]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def test_total_volume():
    assert total_volume(1.0) == pytest.approx(2 * math.pi**2, rel=1e-14)
    assert total_volume(1 / 3) == pytest.approx(2 * math.pi**2 / math.sqrt(3), rel=1e-14)
    assert total_volume(0.25) == pytest.approx(math.pi**2, rel=1e-14)


@given(ALPHAS, SEEDS)
def test_volume_form_scaling(alpha, seed):
    # det of g_a in a round-orthonormal frame is alpha everywhere
    q, _ = _point_and_tangents(np.random.default_rng(seed))
    vecs = frame_at(q)
    G = np.array([[metric_eval(alpha, q, u, v) for v in vecs] for u in vecs])
    assert np.linalg.det(G) == pytest.approx(alpha, rel=1e-10)


def test_volume_form_at_ten_random_points():
    # g(V, V) = alpha and det g_a = alpha on a stack of ten points, one alpha each
    rng = np.random.default_rng(11)
    q = rng.standard_normal((10, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a = rng.uniform(0.1, 2.5, 10)
    vecs = frame_at(q)
    G = np.stack([np.stack([metric_eval(a, q, u, v) for v in vecs], axis=-1)
                  for u in vecs], axis=-2)
    assert np.max(np.abs(G[:, 0, 0] - a)) < 1e-10
    assert np.max(np.abs(np.linalg.det(G) - a)) < 1e-10


def test_frame_is_round_orthonormal():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((5, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    F = np.stack(frame_at(q), axis=1)  # (5, 3, 4): V, E1, E2 at each point
    assert np.abs(F @ F.transpose(0, 2, 1) - np.eye(3)).max() < 1e-12
    assert np.abs(np.einsum("kij,kj->ki", F, q)).max() < 1e-12


# ---------------------------------------------------------------------------
# brentq against scipy.optimize.brentq, the C code it transcribes: same floats
# ---------------------------------------------------------------------------

BRENTQ_SITES = {"alpha0", "t0_constant", "critical_constants",
                "crossing_alpha", "invert_volume", "nonembedded_band", "alpha_emb"}


def _outcome(solve, *args, **kwargs):
    """The root as float.hex, or the exception's type and message."""
    try:
        return float(solve(*args, **kwargs)).hex()
    except (ValueError, RuntimeError) as e:
        return type(e).__name__, str(e)


def test_brentq_matches_scipy_at_every_call_site(monkeypatch):
    import sys

    from scipy.optimize import brentq as scipy_brentq

    from bergercmc import cmc_spheres, isoperimetry, regions, stability

    sites = set()

    def checked(f, a, b, **kwargs):
        sites.add(sys._getframe(1).f_code.co_name)
        ours = ambient.brentq(f, a, b, **kwargs)
        assert ours.hex() == scipy_brentq(f, a, b, **kwargs).hex(), (a, b, kwargs)
        return ours

    for mod in (cmc_spheres, isoperimetry, regions, stability):
        monkeypatch.setattr(mod, "brentq", checked)
    stability.alpha0()
    regions.critical_constants()  # t0 and alpha_1
    isoperimetry.crossing_alpha()
    for a, V in ((0.04, 0.5), (0.01, 1.2), (0.5, 6.9)):
        isoperimetry.isoperimetric_candidate(a, V)  # invert_volume
    for a in (0.004, 0.01, 0.04, 0.2):
        cmc_spheres.nonembedded_band(a)
    cmc_spheres.alpha_emb()
    assert sites == BRENTQ_SITES


@settings(max_examples=400)
@given(root=st.floats(-10.0, 10.0), left=st.floats(1e-6, 10.0), right=st.floats(1e-6, 10.0),
       cubic=st.floats(0.0, 5.0), wiggle=st.floats(0.0, 3.0), k=st.floats(0.1, 20.0),
       sign=st.sampled_from([1.0, -1.0]), flip=st.booleans(),
       tol=st.sampled_from([{}, {"xtol": 1e-14, "rtol": 8.9e-16}, {"xtol": 1e-12},
                            {"xtol": 1e-3, "rtol": 1e-8}, {"xtol": 5e-324}]))
def test_brentq_matches_scipy_on_a_family(root, left, right, cubic, wiggle, k, sign, flip, tol):
    # below wiggle = 1 the function increases through its one root; above, it can
    # have several in the bracket or none at its ends
    from scipy.optimize import brentq as scipy_brentq

    def f(x):
        u = x - root
        return sign * (u + cubic * u**3 + wiggle * math.sin(k * u) / k)

    a, b = root - left, root + right
    if flip:
        a, b = b, a
    assert _outcome(ambient.brentq, f, a, b, **tol) == _outcome(scipy_brentq, f, a, b, **tol)


def test_brentq_edge_cases_match_scipy():
    from scipy.optimize import brentq as scipy_brentq

    cases = [
        (lambda x: x - 1.0, 0.0, 1.0, {}),  # root at the right end
        (lambda x: x, 0.0, 2.0, {}),  # root at the left end
        (lambda x: x * x + 1.0, 0.0, 1.0, {}),  # no sign change
        (lambda x: x * x - 0.25, -1.0, 1.0, {}),  # even number of roots: no sign change
        (lambda x: math.nan if x > 0.5 else x - 0.3, 0.0, 1.0, {}),
        (lambda x: -1.0 if x < 0.3 else 1.0, -1e300, 1e300, {"xtol": 5e-324}),  # too slow
    ]
    for f, a, b, kw in cases:
        assert _outcome(ambient.brentq, f, a, b, **kw) == _outcome(scipy_brentq, f, a, b, **kw)
    assert _outcome(ambient.brentq, lambda x: x - 1.0, 0.0, 1.0) == (1.0).hex()
    with pytest.raises(ValueError, match="f\\(a\\) and f\\(b\\) must have different signs"):
        ambient.brentq(lambda x: x * x + 1.0, 0.0, 1.0)
    with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
        ambient.brentq(lambda x: -1.0 if x < 0.3 else 1.0, -1e300, 1e300, xtol=5e-324)
