"""Slip injection (mutation analysis: DeMillo, Lipton and Sayward, Computer 11, 1978):
each closed form of the sphere family, its value moved by 1e-9 relative, must fail the
test that owns it.  The slip is set on the name in the owning test module's namespace,
and the owning test is called in process, not through pytest.  The meridian's rows are
slipped where reconstruct_meridian has written them, before its contract reads them."""

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


def _both_edges(exact):  # the band (H_lo, H_hi)
    return lambda a: tuple(H * (1.0 + SLIP) for H in exact(a))


def _property(exact):
    return property(lambda self: exact.fget(self) * (1.0 + SLIP))


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
    ("nonembedded_band", _both_edges, "test_cmc_spheres",
     "test_nonembedded_band_edges", (0.01, 0.08385, 2.96250)),  # rel 2.4e-15
    ("TorusData.dual_gram", _property, "test_tori",
     "test_dual_gram_matches_mpmath", ()),  # rel 2e-15
    # the phase rotates z and w together, along the Hopf fibre, and no residual of the
    # contract moves (a 1e-6 slip leaves them at 2-9e-16): the 30-digit gamma_x owns it
    ("cmc_spheres._phase", _scaled, "test_cmc_spheres",
     "test_meridian_postprocessing_matches_per_sample_loop", ()),  # 3e-13 on N
]


@pytest.mark.parametrize("name, slip, module, test, args", OWNERS, ids=[
    f"{name}{'' if slip is _scaled else slip.__name__}-{module}-{test}"
    for name, slip, module, test, _ in OWNERS])
def test_a_slip_in_a_closed_form_fails_its_owning_test(monkeypatch, name, slip, module, test,
                                                       args):
    owner = importlib.import_module(module)
    *path, attr = name.split(".")
    target = owner
    for part in path:
        target = getattr(target, part)
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


# H > 0: at H = 0 rotating z is the orbit action, which keeps the points on the surface
@pytest.mark.parametrize("a, H", [(0.5, 1.0), (2.0, 0.7), (0.01, 1.0)])
@pytest.mark.parametrize("slip", MERIDIAN_SLIPS.values(), ids=list(MERIDIAN_SLIPS))
def test_a_slip_in_the_meridian_rows_breaks_its_contract(monkeypatch, slip, a, H):
    assert reconstruct_meridian(a, H, (-8, 8), 1024).holds_contract
    slip_meridian_rows(monkeypatch, slip)
    with pytest.raises(ReconstructionError):
        reconstruct_meridian(a, H, (-8, 8), 1024)
