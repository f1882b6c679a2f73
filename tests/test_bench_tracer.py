"""The benchmark tracer wraps module attributes of bergercmc by name.

Importing it and installing it here makes a rename or deletion of a traced
name fail the test suite, not only a traced benchmark run.  The bench
directory is only read.
"""

import importlib.util
import math
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # tracer.py imports benchstats
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_install_wraps_every_traced_name_and_uninstall_restores(tracer):
    mods = {m: importlib.import_module(f"bergercmc.{m}") for m, *_ in tracer.SPEC}
    before = {(m, attr): getattr(mods[m], attr) for m, attr, *_ in tracer.SPEC}
    patches = tracer.install(tracer.Tracer())
    try:
        for (m, attr), orig in before.items():
            assert getattr(mods[m], attr) is not orig, f"{m}.{attr} not wrapped"
    finally:
        tracer.uninstall(patches)
    for (m, attr), orig in before.items():
        assert getattr(mods[m], attr) is orig, f"{m}.{attr} not restored"


def test_sphere_profile_and_candidate_make_no_quadrature_calls(tracer, tmp_path):
    # the closed forms are the one route: no command and no selftest check runs a
    # quadrature, which only the tests' oracles do
    from bergercmc import cli, isoperimetry

    t = tracer.Tracer()
    patches = tracer.install(t)
    try:
        prof = isoperimetry.sphere_profile(0.5, n=100)
        isoperimetry.isoperimetric_candidate(0.5, math.pi**2 * math.sqrt(0.5), profile=prof)
        calls, _, _ = tracer.aggregate(t.spans)
        assert calls["isoperimetry.profile"] == 1
        assert calls["isoperimetry.volume_ode"] == 0
        for argv in (["constants"],
                     ["sphere", "--alpha", "0.5", "--H", "1", "--meridian-n", "2048"],
                     ["torus", "--alpha", "0.5", "--H", "0"],
                     ["regions", "--format", "csv+svg"], ["embeddedness"],
                     ["profiles", "--format", "csv+svg"],
                     ["candidate", "--alpha", "0.5", "--V", "6.9"], ["selftest"]):
            assert cli.main(["--out", str(tmp_path), *argv]) == 0, argv
            calls, _, _ = tracer.aggregate(t.spans)
            for name in ("cmc_spheres.quad", "stability.quad", "isoperimetry.quad"):
                assert calls[name] == 0, (argv, name)
    finally:
        tracer.uninstall(patches)


def test_embeddedness_spans_measure_the_figure1_layers(tracer):
    # the benchmark's figure-1 layer metrics read these spans: the orbit
    # projection runs, the meridian needs no ODE, and the polyline report no
    # longer runs, as is_embedded counts sign changes of Im w'
    from bergercmc import cmc_spheres

    t = tracer.Tracer()
    patches = tracer.install(t)
    try:
        m = cmc_spheres.reconstruct_meridian(0.5, 1.0, (-8.0, 8.0), 1024)
        cmc_spheres.is_embedded(m)
    finally:
        tracer.uninstall(patches)
    calls, _, _ = tracer.aggregate(t.spans)
    assert calls["cmc_spheres.meridian"] == 1
    assert calls["cmc_spheres.orbit"] >= 1
    assert calls["cmc_spheres.meridian_ode"] == 0
    assert calls["geometry2d.report"] == 0


def test_scipy_wrappers_get_one_span_name_per_module(tracer):
    # each module defines its own quad (over the package's trapezoidal rule) and its
    # own first-use scipy wrappers; install() wraps a bergercmc-defined function under
    # every name that binds it, so a shared object would merge the per-module spans
    from bergercmc import cmc_spheres, isoperimetry, stability
    import float_oracles

    own = {(mod, attr): getattr(mod, attr)
           for mod, attr in ((cmc_spheres, "quad"), (cmc_spheres, "solve_ivp"),
                             (isoperimetry, "quad"), (isoperimetry, "solve_ivp"),
                             (stability, "quad"), (stability, "eigh_tridiagonal"))}
    assert len({id(fn) for fn in own.values()}) == len(own)
    for (mod, _), fn in own.items():
        assert fn.__module__ == mod.__name__

    t = tracer.Tracer()
    patches = tracer.install(t)
    try:
        float_oracles.koiso_integral_quadrature(0.5, 1.0)
        calls, _, _ = tracer.aggregate(t.spans)
        assert calls["stability.quad"] >= 1
        assert calls["isoperimetry.quad"] == 0
        assert calls["cmc_spheres.quad"] == 0

        spec = stability.jacobi_spectrum(0.5, 1.0, k_max=3, n=400)
        calls, _, _ = tracer.aggregate(t.spans)
        # the gap: one bisection and two windows on parity blocks, six Sturm counts
        assert calls["stability.eigh"] == 9
        spec.eigenvalues
        calls, _, _ = tracer.aggregate(t.spans)
        assert calls["stability.eigh"] == 9 + 8  # and the table of modes 0-3, four counts

        isoperimetry.sphere_profile(0.5, n=60)
        calls, _, _ = tracer.aggregate(t.spans)
        assert calls["isoperimetry.volume_ode"] == 0
        assert t.counts["isoperimetry.volume_ode.nfev"] == 0
    finally:
        tracer.uninstall(patches)
    for (mod, attr), fn in own.items():
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} not restored"
