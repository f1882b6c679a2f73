"""Start-up cost: scipy loads on first use, and a module loads only the
package modules it imports.

Each test runs a fresh interpreter and lists the scipy (or bergercmc)
modules it loaded, so a later top-level import anywhere in the package
fails here.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def modules_after(code, package="scipy"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (f"import sys\n{code}\n"
             f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_scipy():
    assert modules_after("import bergercmc.cli") == []


def test_a_module_loads_only_the_package_modules_it_imports():
    # the package namespace re-exports nothing, so it loads no module itself
    assert modules_after("import bergercmc", "bergercmc") == ["bergercmc"]
    assert modules_after("import bergercmc.cmc_spheres", "bergercmc") == [
        "bergercmc", "bergercmc.ambient", "bergercmc.cmc_spheres", "bergercmc.svgplot"]
    assert modules_after("import bergercmc.tori", "bergercmc") == [
        "bergercmc", "bergercmc.ambient", "bergercmc.svgplot", "bergercmc.tori"]
    # the invariant suite loads only under selftest
    assert "bergercmc.selfcheck" not in modules_after("import bergercmc.cli", "bergercmc")


def test_torus_command_loads_no_scipy(tmp_path):
    code = ("import bergercmc.cli\n"
            f"assert bergercmc.cli.main(['--out', {str(tmp_path)!r}, 'torus', "
            "'--alpha', '0.5', '--H', '0']) == 0")
    assert modules_after(code) == []


def test_sphere_command_loads_only_scipy_linalg(tmp_path):
    code = ("import bergercmc.cli\n"
            f"assert bergercmc.cli.main(['--out', {str(tmp_path)!r}, 'sphere', "
            "'--alpha', '0.5', '--H', '1']) == 0")
    loaded = set(modules_after(code))
    assert "scipy.linalg" in loaded
    assert loaded.isdisjoint({"scipy.integrate", "scipy.interpolate", "scipy.optimize",
                              "scipy.spatial"})


def test_selftest_loads_only_scipy_linalg():
    # the oracle integrals use the package's own trapezoidal rule; the one scipy
    # routine left on a runtime path is the tridiagonal eigensolver
    code = "import bergercmc.cli\nassert bergercmc.cli.main(['selftest']) == 0"
    loaded = set(modules_after(code))
    assert "scipy.linalg" in loaded
    assert loaded.isdisjoint({"scipy.integrate", "scipy.optimize", "scipy.spatial",
                              "scipy.special"})


def test_oracle_integrals_load_no_scipy():
    code = ("from bergercmc import cmc_spheres, stability\n"
            "stability.koiso_integral(0.5, 1.0)\n"
            "cmc_spheres.area_sphere(0.5, 1.0)")
    assert modules_after(code) == []


def test_root_finding_commands_load_no_scipy(tmp_path):
    # the root finder and the profile interpolant are the package's own, so
    # candidate, constants, regions and profiles (with its crossing value) need no scipy
    code = "import bergercmc.cli\n" + "".join(
        f"assert bergercmc.cli.main(['--out', {str(tmp_path)!r}, {', '.join(map(repr, args))}]) == 0\n"
        for args in (("candidate", "--alpha", "0.5", "--V", "6.9"),
                     ("candidate", "--alpha", "0.04", "--V", "0.5"),
                     ("constants",),
                     ("regions", "--n", "50", "--format", "csv+svg"),
                     ("profiles", "--n", "60"),
                     ("profiles", "--alphas", "0.3", "--n", "60")))
    assert modules_after(code) == []


def test_embeddedness_scan_loads_no_scipy(tmp_path):
    script = SRC.parent / "scripts" / "embeddedness_scan.py"
    code = ("import runpy\n"
            f"sys.argv = [{str(script)!r}, {str(tmp_path)!r}, '4']\n"
            f"runpy.run_path({str(script)!r}, run_name='__main__')")
    assert modules_after(code) == []
    assert (tmp_path / "embeddedness_band.csv").exists()


def test_profiles_command_loads_no_scipy(tmp_path):
    # the profile interpolant is built on first use, and profiles never uses it
    code = ("import bergercmc.cli\n"
            f"assert bergercmc.cli.main(['--out', {str(tmp_path)!r}, 'profiles', "
            "'--alphas', '0.5', '--n', '60']) == 0")
    assert modules_after(code) == []


def test_embeddedness_command_loads_no_scipy(tmp_path):
    # the verdict is the closed-form turning angle: no meridian, no polyline
    code = ("import bergercmc.cli\n"
            f"assert bergercmc.cli.main(['--out', {str(tmp_path)!r}, 'embeddedness']) == 0")
    assert modules_after(code) == []


def test_is_embedded_loads_no_polyline_search():
    # the verdict counts sign changes of Im w': no geometry2d, no k-d tree
    code = ("from bergercmc import cmc_spheres\n"
            "m = cmc_spheres.reconstruct_meridian(0.02, 1.0, (-9.0, 9.0), 3000)\n"
            "assert cmc_spheres.is_embedded(m).crossings == 1")
    assert "bergercmc.geometry2d" not in modules_after(code, "bergercmc")
    assert "scipy.spatial" not in modules_after(code)


def test_the_polyline_reference_loads_no_scipy():
    # the reference tests every index pair with numpy: no k-d tree
    code = ("from bergercmc import cmc_spheres, geometry2d\n"
            "m = cmc_spheres.reconstruct_meridian(0.02, 1.0, (-9.0, 9.0), 3000)\n"
            "r = geometry2d.polyline_self_intersection_report(cmc_spheres.orbit_space_curve(m))\n"
            "assert r.crossings == 1")
    assert modules_after(code) == []


def test_the_oracles_load_no_package_module_and_no_scipy():
    # tests/oracles.py shares no code with the routines it checks
    code = (f"sys.path.insert(0, {str(SRC.parent / 'tests')!r})\n"
            "import mpmath, oracles\n"
            "oracles.band_edges(mpmath, 0.01), oracles.torus_form(mpmath, 0.5, 1.0, 1, 0)")
    assert modules_after(code, "bergercmc") == []
    assert modules_after(code) == []
