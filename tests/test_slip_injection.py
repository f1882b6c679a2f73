"""Slip injection (mutation analysis: DeMillo, Lipton and Sayward, Computer 11, 1978):
each closed form of the sphere family, its value moved by 1e-9 relative, must fail the
test that owns it.  The slip is set on the name in the owning test module's namespace,
and the owning test is called in process, not through pytest."""

import importlib

import pytest

SLIP = 1e-9

# (closed form, owning test module, owning test, that test's bound)
OWNERS = [
    ("area_sphere", "test_cmc_spheres", "test_area_closed_forms_match_quadrature"),  # rel 1e-10
    ("turning_angle", "test_cmc_spheres",
     "test_turning_angle_above_a_one_against_mpmath"),  # rel 1e-15
    ("koiso_integral", "test_stability", "test_koiso_closed_vs_quadrature_lattice"),  # 1e-12 S
    ("sphere_volume", "test_isoperimetry",
     "test_sphere_volume_against_mpmath"),  # rel 5e-13 up to a = 50
]


@pytest.mark.parametrize("name, module, test", OWNERS)
def test_a_slip_in_a_closed_form_fails_its_owning_test(monkeypatch, name, module, test):
    owner = importlib.import_module(module)
    exact = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: exact(*args) * (1.0 + SLIP))
    with pytest.raises(AssertionError):
        getattr(owner, test)()
