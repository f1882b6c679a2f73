import sys

import pytest

import output_lock


def test_outputs_match_the_lock(tmp_path):
    output_lock.compare(output_lock.capture(tmp_path), output_lock.load())


@pytest.mark.parametrize("name", ["sphere", "profiles"])
def test_a_slip_in_area_sphere_fails_the_lock(name, monkeypatch, tmp_path):
    # the closed form moved by 1e-11 relative in every module that holds it, as in
    # test_slip_injection: sphere prints the area, profiles writes it
    from bergercmc import cmc_spheres

    exact = cmc_spheres.area_sphere
    for module in [m for key, m in sys.modules.items() if key.startswith("bergercmc.")]:
        if getattr(module, "area_sphere", None) is exact:
            monkeypatch.setattr(module, "area_sphere", lambda *args: exact(*args) * (1.0 + 1e-11))
    command = [c for c in output_lock.COMMANDS if c[0] == name]
    with pytest.raises(AssertionError, match=f"^{name}"):
        output_lock.compare(output_lock.capture(tmp_path, command),
                            {name: output_lock.load()[name]})
