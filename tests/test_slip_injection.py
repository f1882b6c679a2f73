"""Slip injection (mutation analysis: DeMillo, Lipton and Sayward, Computer 11, 1978):
each closed form of the sphere family, its value moved by 1e-9 relative, must fail the
test that owns it.  The slip is set on the name in the owning test module's namespace,
and the owning test is called in process, not through pytest.  The meridian's rows are
slipped where reconstruct_meridian has written them, before its contract reads them."""

import dataclasses
import importlib
import math
from functools import partial

import numpy as np
import pytest

from bergercmc import cmc_spheres
from bergercmc.cmc_spheres import ReconstructionError, reconstruct_meridian

SLIP = 1e-9

def _scaled(exact):
    return lambda *args: exact(*args) * (1.0 + SLIP)


def _float_path(exact):  # artanh_ratio on Python floats alone
    return lambda x, rest: exact(x, rest) * (1.0 + SLIP * isinstance(x, float))


def _array_path(exact):  # artanh_ratio on arrays alone
    return lambda x, rest: exact(x, rest) * (1.0 + SLIP * (not isinstance(x, float)))


def _H_column(exact):  # the rows (a, H(a)) of sphere_stability_boundary
    return lambda alphas: exact(alphas) * np.array([1.0, 1.0 + SLIP])


def _H_entries(exact):  # the float rows (a, H(a)) of sphere_stability_rows
    return lambda alphas: [(a, H * (1.0 + SLIP)) for a, H in exact(alphas)]


def _both_edges(exact):  # the band (H_lo, H_hi)
    return lambda a: tuple(H * (1.0 + SLIP) for H in exact(a))


def _property(exact):
    return property(lambda self: exact.fget(self) * (1.0 + SLIP))


def _entry(i):  # the i-th value of a returned tuple alone
    def slip(exact):
        return lambda *args: tuple(v * (1.0 + SLIP * (j == i)) for j, v in enumerate(exact(*args)))
    slip.__name__ = f"_entry{i}"
    return slip


def _radius(field):  # one radius of the returned TorusData
    def slip(exact):
        def slipped(*args):
            t = exact(*args)
            return dataclasses.replace(t, **{field: getattr(t, field) * (1.0 + SLIP)})
        return slipped
    slip.__name__ = f"_{field}"
    return slip




# (closed form, dotted from the owning test module's namespace, how it slips, owning
# test module, owning test, that test's arguments; that test's bound)
OWNERS = [
    ("area_sphere", _scaled, "test_cmc_spheres",
     "test_area_closed_forms_match_quadrature", ()),  # rel 1e-10
    ("turning_angle", _scaled, "test_cmc_spheres",
     "test_turning_angle_above_a_one_against_mpmath", ()),  # rel 1e-15
    ("koiso_integral", _scaled, "test_stability",
     "test_koiso_closed_vs_quadrature_lattice", ()),  # 1e-12 S
    ("sphere_volume", _scaled, "test_isoperimetry",
     "test_sphere_volume_against_mpmath", ()),  # rel 5e-13 up to a = 50
    ("alpha_emb", _scaled, "test_cmc_spheres", "test_alpha_emb_closes_the_band", ()),  # 1 ulp
    ("lambda1_closed_form", _scaled, "test_tori",
     "test_lambda1_closed_form_examples", ()),  # rel 1e-14
    ("artanh_ratio", _float_path, "test_cmc_spheres",
     "test_artanh_ratio_branches_and_zero", ()),  # rel 1e-15
    ("artanh_ratio", _array_path, "test_cmc_spheres",
     "test_artanh_ratio_float_and_array_paths_agree", ()),  # 1 ulp of the float path
    ("sphere_stability_boundary", _H_column, "test_stability",
     "test_boundary_flips_verdict_and_decreases", ()),  # rel 7e-15
    ("sphere_stability_rows", _H_entries, "test_stability",
     "test_boundary_rows_flip_the_verdict", ()),  # rel 7e-15
    ("nonembedded_band", _both_edges, "test_cmc_spheres",
     "test_nonembedded_band_edges", (0.01, 0.08385, 2.96250)),  # rel 2.4e-15
    ("TorusData.dual_gram", _property, "test_tori",
     "test_dual_gram_matches_mpmath", ()),  # rel 2e-15
    # the phase rotates z and w together, along the Hopf fibre, and no residual of the
    # contract moves (a 1e-6 slip leaves them at 2-9e-16): the 30-digit gamma_x owns it
    ("cmc_spheres._phase", _scaled, "test_cmc_spheres",
     "test_meridian_postprocessing_matches_per_sample_loop", ()),  # 3e-13 on N
    ("torus_data", _radius("r1"), "test_tori",
     "test_torus_radii_match_mpmath_up_to_H_MAX", ()),  # rel 4e-16
    ("torus_data", _radius("r2"), "test_tori",
     "test_torus_radii_match_mpmath_up_to_H_MAX", ()),  # rel 4e-16
    ("regions.region_coefficients", _entry(2), "test_regions",
     "test_value_at_one_is_four", ()),  # P_t(1) = 4 within 1e-12
    ("alpha0", _scaled, "test_stability", "test_alpha0_value_and_root_property", ()),  # 2 ulp
    ("critical_constants", _entry(0), "test_regions", "test_critical_constants", ()),  # 1e-12
    ("critical_constants", _entry(1), "test_regions",
     "test_alpha1_is_the_real_root_of_the_resultant_cubic", ()),  # 1 ulp
    ("critical_constants", _entry(2), "test_regions", "test_critical_constants", ()),  # 1e-12
    ("crossing_alpha", _scaled, "test_isoperimetry", "test_crossing_alpha_value", ()),
    # the gap from the parity blocks against the full matrices' eigenvalues, at stebz's
    # tolerance; its distance from the converged gap is item 2's (FOUND 52 in CHANGES.md)
    ("stability._spectral_gap", _scaled, "test_stability",
     "test_parity_blocks_give_the_full_matrix_eigenvalues", (0.5, 1.0)),  # eps Gershgorin
]


@pytest.mark.parametrize("name, slip, module, test, args", OWNERS, ids=[
    f"{name}{'' if slip is _scaled else slip.__name__}-{module}-{test}"
    for name, slip, module, test, _ in OWNERS])
def test_a_slip_in_a_closed_form_fails_its_owning_test(monkeypatch, name, slip, module, test,
                                                       args):
    owner = importlib.import_module(module)
    *path, attr = name.split(".")
    target = owner
    for part in path:  # a package module the owning test does not import by name
        target = getattr(target, part, None) or importlib.import_module(f"bergercmc.{part}")
    monkeypatch.setattr(target, attr, slip(getattr(target, attr)))
    with pytest.raises(AssertionError):
        getattr(owner, test)(*args)


REAL_FRAME_COORDINATES = cmc_spheres.frame_coordinates


# slips of the stored x >= 0 rows (z, w) of gamma and (nz, nw) of N, in place, given the
# meridian's (a, H)
def _z_rotated(angle, a, H, z, w, nz, nw):
    z *= np.exp(1j * angle)  # every point off the surface, |gamma| = 1 kept


def normal_flipped(a, H, z, w, nz, nw):
    nz *= -1.0
    nw *= -1.0


def normal_horizontal_scaled(a, H, z, w, nz, nw):
    # N's part across the Hopf fibre i gamma grows by SLIP
    vert = (nz * z.conj() + nw * w.conj()).imag
    nz += SLIP * (nz - vert * 1j * z)
    nw += SLIP * (nw - vert * 1j * w)


def off_sphere(a, H, z, w, nz, nw):
    z *= 1.0 + SLIP
    w *= 1.0 + SLIP


def normal_not_unit(a, H, z, w, nz, nw):
    nz *= 1.0 + SLIP
    nw *= 1.0 + SLIP


def normal_tilted_toward_orbit(a, H, z, w, nz, nw):
    # still g_a-unit, no longer g_a-orthogonal to W gamma = d Phi / dy
    c = 1.0 + H * H
    wz, ww = (1j * z - H * w) / c, (H * z + 1j * H * H * w) / c
    u0, u12 = REAL_FRAME_COORDINATES(a, z, w, wz, ww)
    norm = np.sqrt(u0 * u0 + np.abs(u12) ** 2)
    for part, orbit in ((nz, wz), (nw, ww)):
        part *= math.cos(1e-6)
        part += math.sin(1e-6) * orbit / norm


def slip_meridian_rows(monkeypatch, slip):
    """Make every meridian apply slip to its rows at _meridian_profile's one
    frame_coordinates call, the first read of its contract."""
    profile = cmc_spheres._meridian_profile

    def slipped_profile(a, H, *args):
        def frame_coordinates(alpha, z, w, nz, nw):
            slip(a, H, z, w, nz, nw)
            return REAL_FRAME_COORDINATES(alpha, z, w, nz, nw)

        monkeypatch.setattr(cmc_spheres, "frame_coordinates", frame_coordinates)
        return profile(a, H, *args)

    monkeypatch.setattr(cmc_spheres, "_meridian_profile", slipped_profile)


MERIDIAN_SLIPS = {"z_rotated_1e-9": partial(_z_rotated, 1e-9),
                  "z_rotated_0.01": partial(_z_rotated, 0.01),
                  "normal_flipped": normal_flipped,
                  "normal_horizontal_scaled": normal_horizontal_scaled,
                  "off_sphere": off_sphere,
                  "normal_not_unit": normal_not_unit,
                  "normal_tilted_toward_orbit": normal_tilted_toward_orbit}


# slips that pass the contract, whose tolerance scales with a alone where |W gamma| is
# far below max(1, sqrt a) (FOUND 98 in CHANGES.md)
WEAK_CONTRACT = {(1e12, 1e6): ("z_rotated_1e-9", "normal_horizontal_scaled", "off_sphere",
                               "normal_not_unit"),
                 (1e-6, 0.3): ("normal_horizontal_scaled",)}


# H > 0: at H = 0 rotating z is the orbit action, which keeps the points on the surface
@pytest.mark.parametrize("a, H, name", [
    pytest.param(a, H, name, id=f"{name}-{a}-{H}", marks=[pytest.mark.xfail(
        strict=True, reason="FOUND 98: the contract is weak where |W gamma| is small")]
        if name in WEAK_CONTRACT.get((a, H), ()) else [])
    for name in MERIDIAN_SLIPS
    for a, H in [(0.5, 1.0), (2.0, 0.7), (0.01, 1.0), (1e12, 1e6), (1e-6, 0.3)]])
def test_a_slip_in_the_meridian_rows_breaks_its_contract(monkeypatch, a, H, name):
    assert reconstruct_meridian(a, H, (-8, 8), 1024).holds_contract
    slip_meridian_rows(monkeypatch, MERIDIAN_SLIPS[name])
    with pytest.raises(ReconstructionError):
        reconstruct_meridian(a, H, (-8, 8), 1024)
