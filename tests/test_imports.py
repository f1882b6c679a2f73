"""Start-up cost: scipy loads on first use, not with the package.

Each test runs a fresh interpreter and lists the scipy modules it loaded,
so a later top-level scipy import anywhere in the package fails here.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def scipy_modules_after(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (f"import sys\n{code}\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_scipy():
    assert scipy_modules_after("import bergercmc.cli") == []


def test_torus_command_loads_no_scipy(tmp_path):
    code = ("import bergercmc.cli\n"
            f"assert bergercmc.cli.main(['--out', {str(tmp_path)!r}, 'torus', "
            "'--alpha', '0.5', '--H', '0']) == 0")
    assert scipy_modules_after(code) == []


def test_sphere_command_loads_only_scipy_linalg(tmp_path):
    code = ("import bergercmc.cli\n"
            f"assert bergercmc.cli.main(['--out', {str(tmp_path)!r}, 'sphere', "
            "'--alpha', '0.5', '--H', '1']) == 0")
    loaded = set(scipy_modules_after(code))
    assert "scipy.linalg" in loaded
    assert loaded.isdisjoint({"scipy.integrate", "scipy.interpolate", "scipy.optimize",
                              "scipy.spatial"})


def test_candidate_and_profiles_load_no_scipy_integrate(tmp_path):
    # the sphere volume has a closed form, so no ODE solver is needed
    code = ("import bergercmc.cli\n"
            f"assert bergercmc.cli.main(['--out', {str(tmp_path)!r}, 'candidate', "
            "'--alpha', '0.5', '--V', '6.9']) == 0\n"
            f"assert bergercmc.cli.main(['--out', {str(tmp_path)!r}, 'profiles', "
            "'--alphas', '0.3', '--n', '60']) == 0")
    loaded = set(scipy_modules_after(code))
    assert "scipy.interpolate" in loaded
    assert not any(m.startswith("scipy.integrate") for m in loaded)


def test_profiles_command_loads_no_scipy(tmp_path):
    # the profile interpolant is built on first use, and profiles never uses it
    code = ("import bergercmc.cli\n"
            f"assert bergercmc.cli.main(['--out', {str(tmp_path)!r}, 'profiles', "
            "'--alphas', '0.5', '--n', '60']) == 0")
    assert scipy_modules_after(code) == []


def test_embeddedness_command_loads_no_scipy(tmp_path):
    # the verdict is the closed-form turning angle: no meridian, no polyline
    code = ("import bergercmc.cli\n"
            f"assert bergercmc.cli.main(['--out', {str(tmp_path)!r}, 'embeddedness']) == 0")
    assert scipy_modules_after(code) == []
