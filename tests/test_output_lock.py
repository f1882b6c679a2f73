import importlib
import pkgutil
import sys

import pytest

import output_lock

SLIP = 1e-11


def test_outputs_match_the_lock(tmp_path):
    output_lock.compare(output_lock.capture(tmp_path), output_lock.load())


def _slip(monkeypatch, module, name):
    """Move bergercmc.<module>.<name> by SLIP relative under every name that binds it in
    the package, as in test_slip_injection.  Every package module is imported first: one
    loaded while the slip is in place would keep the slipped function after the test."""
    import bergercmc

    for info in pkgutil.iter_modules(bergercmc.__path__):
        importlib.import_module(f"bergercmc.{info.name}")
    exact = getattr(sys.modules[f"bergercmc.{module}"], name)
    for loaded in [m for key, m in sys.modules.items() if key.startswith("bergercmc.")]:
        if getattr(loaded, name, None) is exact:
            monkeypatch.setattr(loaded, name, lambda *args: exact(*args) * (1.0 + SLIP))


def _capture(tmp_path, name):
    """The outputs of the lock's command name, and the lock's record of them."""
    command = [c for c in output_lock.COMMANDS if c[0] == name]
    return output_lock.capture(tmp_path, command)[name], output_lock.load()[name]


@pytest.mark.parametrize("name", ["sphere", "profiles"])
def test_a_slip_in_area_sphere_fails_the_lock(name, monkeypatch, tmp_path):
    # sphere prints the area, profiles writes it
    _slip(monkeypatch, "cmc_spheres", "area_sphere")
    got, want = _capture(tmp_path, name)
    with pytest.raises(AssertionError, match=f"^{name}"):
        output_lock.compare({name: got}, {name: want})


@pytest.mark.parametrize("module, function, name, output", [
    ("cmc_spheres", "turning_angle", "embeddedness", "figure1_embeddedness.csv"),
    ("stability", "alpha0", "constants", "stdout"),
    ("stability", "alpha0", "regions", "figure2_sphere_boundary.csv"),
    ("tori", "torus_stability_threshold", "regions", "figure3_torus_boundary.csv"),
    ("regions", "alpha_root", "regions", "alpha_roots.csv"),
    ("isoperimetry", "crossing_alpha", "constants", "stdout"),
])
def test_a_slip_in_a_float_route_fails_the_lock(module, function, name, output, monkeypatch,
                                                tmp_path):
    # the closed forms that constants, regions and embeddedness evaluate on Python
    # floats, each caught by the one output that carries it
    _slip(monkeypatch, module, function)
    got, want = _capture(tmp_path, name)
    if output == "stdout":
        got, want = ({**r, "files": {}} for r in (got, want))
        where = f"{name}: stdout"
    else:
        got, want = ({**r, "stdout": "", "files": {output: r["files"][output]}}
                     for r in (got, want))
        where = f"{name}/{output}"
    with pytest.raises(AssertionError, match=f"^{where}"):
        output_lock.compare({name: got}, {name: want})
