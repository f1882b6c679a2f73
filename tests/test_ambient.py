import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bergercmc import ambient
from bergercmc.ambient import (AmbientPoint, AmbientVector, BergerParam,
                               ContractViolation, hopf_project, killing_field,
                               metric_eval, total_volume)

ALPHAS = st.floats(min_value=0.02, max_value=5.0, allow_nan=False)
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def test_berger_param_validation():
    BergerParam(0.5)
    with pytest.raises(ContractViolation):
        BergerParam(0.0)
    with pytest.raises(ContractViolation):
        BergerParam(-1.0)


def test_mean_curvature_validation():
    assert ambient.as_H(0) == 0.0 and ambient.as_H(2.5) == 2.5
    for bad in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(ContractViolation):
            ambient.as_H(bad)
    assert ambient.as_H(ambient.H_MAX) == ambient.H_MAX
    for big in (math.nextafter(ambient.H_MAX, math.inf), 1e10, 1e100, 1e200):
        with pytest.raises(ContractViolation, match="mean curvature H"):
            ambient.as_H(big)


def test_point_and_vector_invariants():
    with pytest.raises(ContractViolation):
        AmbientPoint((1.0, 0.0, 0.0, 1e-3))
    q = AmbientPoint((1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ContractViolation):
        AmbientVector(q, (1.0, 0.0, 0.0, 0.0))  # radial, not tangent


def test_killing_field_values():
    q = AmbientPoint.from_complex(1 + 0j, 0j)
    assert killing_field(q).components == (0.0, 1.0, 0.0, 0.0)  # (i, 0)
    q = AmbientPoint.from_complex(0j, 1 + 0j)
    assert killing_field(q).components == (0.0, 0.0, 0.0, 1.0)  # (0, i)


def test_metric_on_killing_field_round():
    q = AmbientPoint.from_complex(1 + 0j, 0j)
    V = killing_field(q)
    assert metric_eval(1.0, V, V) == pytest.approx(1.0, abs=1e-15)
    assert metric_eval(0.5, V, V) == pytest.approx(0.5, abs=1e-15)
    E = AmbientVector(q, (0.0, 0.0, 1.0, 0.0))  # horizontal at (1, 0)
    assert metric_eval(2.0, E, E) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ContractViolation):
        q2 = AmbientPoint.from_complex(0j, 1 + 0j)
        metric_eval(1.0, V, killing_field(q2))


@given(ALPHAS, SEEDS)
def test_metric_symmetric_and_killing_norm(alpha, seed):
    rng = np.random.default_rng(seed)
    q = ambient.random_point(rng)
    X = ambient.random_tangent(rng, q)
    Y = ambient.random_tangent(rng, q)
    assert metric_eval(alpha, X, Y) == pytest.approx(metric_eval(alpha, Y, X), abs=1e-10)
    V = killing_field(q)
    assert metric_eval(alpha, V, V) == pytest.approx(alpha, abs=1e-10)


@given(ALPHAS, SEEDS)
def test_metric_bilinear(alpha, seed):
    rng = np.random.default_rng(seed)
    q = ambient.random_point(rng)
    X = ambient.random_tangent(rng, q)
    Y = ambient.random_tangent(rng, q)
    Z = AmbientVector(q, tuple(2.5 * X.array() + Y.array()))
    lhs = metric_eval(alpha, Z, Y)
    rhs = 2.5 * metric_eval(alpha, X, Y) + metric_eval(alpha, Y, Y)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@given(SEEDS)
def test_hopf_lands_on_half_sphere(seed):
    rng = np.random.default_rng(seed)
    q = ambient.random_point(rng)
    assert np.linalg.norm(hopf_project(q)) == pytest.approx(0.5, abs=1e-12)


def test_hopf_examples():
    assert hopf_project(AmbientPoint.from_complex(1, 0)) == pytest.approx([0, 0, 0.5])
    assert hopf_project(AmbientPoint.from_complex(0, 1)) == pytest.approx([0, 0, -0.5])
    s = 1 / math.sqrt(2)
    assert hopf_project(AmbientPoint.from_complex(s, s)) == pytest.approx([0.5, 0, 0])


def test_total_volume():
    assert total_volume(1.0) == pytest.approx(2 * math.pi**2, rel=1e-14)
    assert total_volume(1 / 3) == pytest.approx(2 * math.pi**2 / math.sqrt(3), rel=1e-14)
    assert total_volume(0.25) == pytest.approx(math.pi**2, rel=1e-14)
    assert total_volume(BergerParam(0.25)) == total_volume(0.25)


@given(ALPHAS, SEEDS)
def test_volume_form_scaling(alpha, seed):
    # det of g_a in a round-orthonormal frame is alpha everywhere
    rng = np.random.default_rng(seed)
    q = ambient.random_point(rng).array()
    vecs = ambient.frame_at(q)
    G = np.array([[ambient.metric_eval_raw(alpha, q, u, v) for v in vecs] for u in vecs])
    assert np.linalg.det(G) == pytest.approx(alpha, rel=1e-10)


def test_frame_is_round_orthonormal():
    rng = np.random.default_rng(0)
    for _ in range(5):
        q = ambient.random_point(rng).array()
        F = np.stack(ambient.frame_at(q))
        assert np.abs(F @ F.T - np.eye(3)).max() < 1e-12
        assert np.abs(F @ q).max() < 1e-12
