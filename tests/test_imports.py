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

import pytest

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
        "bergercmc", "bergercmc.ambient", "bergercmc.cmc_spheres"]
    assert modules_after("import bergercmc.tori", "bergercmc") == [
        "bergercmc", "bergercmc.ambient", "bergercmc.tori"]
    # the invariant suite loads only under selftest
    assert "bergercmc.selfcheck" not in modules_after("import bergercmc.cli", "bergercmc")


def test_the_numerical_modules_load_no_output_module():
    # the CLI is the one output layer: the computations and the checks write no
    # file.  selfcheck imports the four numerical modules, so one probe covers all
    loaded = modules_after("import bergercmc.selfcheck", "bergercmc")
    assert {f"bergercmc.{m}" for m in ("cmc_spheres", "stability", "tori", "isoperimetry",
                                       "selfcheck")} <= set(loaded)
    assert "bergercmc.svgplot" not in loaded


@pytest.mark.parametrize("argv, exit_code", [
    ([], None), (["constants"], 0), (["regions", "--format", "csv+svg"], 0),
    (["embeddedness"], 0), (["regions", "--n", "1"], 2)])
def test_the_float_commands_load_no_numpy(argv, exit_code, tmp_path):
    # constants, regions and embeddedness evaluate closed forms on Python floats, and
    # the numerical modules import numpy only inside their array routes; [] is the import
    code = "import bergercmc.cli\n"
    if argv:
        code += (f"assert bergercmc.cli.main(['--out', {str(tmp_path)!r}, *{argv!r}]) == "
                 f"{exit_code}\n")
    assert modules_after(code, "numpy") == []


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
    code = (f"sys.path.insert(0, {str(SRC.parent / 'tests')!r})\n"
            "import float_oracles as fo\n"
            "fo.koiso_integral_quadrature(0.5, 1.0)\n"
            "fo.area_sphere_quadrature(0.5, 1.0)")
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


GUARDED = ("ambient", "cmc_spheres", "stability", "isoperimetry", "regions", "tori")


def _referenced_names(tree, skip=None):
    """Names and attribute names the code of tree refers to, imported names
    included; docstrings and other strings are not references.  skip is a
    top-level definition whose own body does not count."""
    names = set()
    for node in tree.body:
        if node is skip:
            continue
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.alias):
                names.add(n.name.rpartition(".")[2])
    return names


def _tracer_spec(root):
    """The (module, attribute) pairs of bench/tracer.py's SPEC."""
    tree = ast.parse((root / "bench" / "tracer.py").read_text())
    spec, = (node.value for node in tree.body if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "SPEC" for t in node.targets))
    return {(row.elts[0].value, row.elts[1].value) for row in spec.elts}


def test_every_public_routine_has_a_caller_outside_the_tests():
    # a public function or class of the library modules is called by the program
    # (a package module, its own included, cli.py or selfcheck.py), a script, or
    # the benchmark (bench/workloads.py, or bench/tracer.py's SPEC); oracles that
    # only the tests call belong in tests/float_oracles.py
    root = SRC.parent
    pkg = SRC / "bergercmc"
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(pkg.glob("*.py"))}
    outside = set().union(*(_referenced_names(ast.parse(p.read_text())) for p in
                            [*sorted((root / "scripts").glob("*.py")),
                             root / "bench" / "workloads.py"]))
    spec = _tracer_spec(root)
    unused = []
    for mod in GUARDED:
        for node in trees[mod].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            callers = set().union(*(_referenced_names(t, node if m == mod else None)
                                    for m, t in trees.items()))
            if node.name not in callers | outside and (mod, node.name) not in spec:
                unused.append(f"{mod}.{node.name}")
    assert unused == []


def test_every_python_file_parses_as_python_3_10():
    # requires-python is >= 3.10, so syntax of a later version (except*, type
    # parameters) would fail there on import, on a version tier-1 may not run
    root = SRC.parent
    files = sorted(p for d in ("src", "tests", "scripts", "bench") for p in (root / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
