import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergercmc.ambient import ALPHA_MAX, ALPHA_MIN, H_MAX
from bergercmc.cli import REGIONS_MAX_N, main
from bergercmc.cmc_spheres import (MERIDIAN_MAX_N, MERIDIAN_X_LIMIT, ConsistencyError,
                                   QuadratureError, ReconstructionError, is_embedded,
                                   reconstruct_meridian, turning_angle)
from bergercmc.isoperimetry import PROFILE_MAX_N
from bergercmc.stability import SpectrumError
from bergercmc.tori import CutoffError
from test_slip_injection import (normal_not_unit, normal_tilted_toward_orbit, off_sphere,
                                 slip_meridian_rows)


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    out.mkdir(exist_ok=True)
    proc = subprocess.run([sys.executable, "-m", "bergercmc.cli", "--out", str(out), *args],
                          capture_output=True, text=True, timeout=600)
    return proc, out


def test_constants_output(capsys):
    assert main(["constants"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    vals = dict(line.split(" = ") for line in lines)
    assert round(float(vals["alpha0"]), 3) == 0.121
    assert round(float(vals["alpha1"]), 3) == 0.217
    assert round(float(vals["t0"]), 4) == 0.1292
    assert vals["alpha_hyperbolic"].startswith("1.33333333333")
    assert round(float(vals["crossing_alpha"]), 3) == 0.166
    for v in vals.values():
        assert len(v.replace(".", "").replace("-", "").lstrip("0")) >= 11  # 12 sig digits


def test_torus_subcommand(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "torus", "--alpha", "0.5", "--H", "0"]) == 0
    out = capsys.readouterr().out
    assert "verdict = unstable" in out
    assert "lambda1 = 3" in out
    csv = tmp_path / "torus_spectrum_alpha0.5_H0.csv"
    assert csv.exists()
    assert csv.read_text().splitlines()[0] == "lambda,multiplicity"


def test_torus_subcommand_above_alpha_three(tmp_path, capsys):
    # lambda1 is the shortest dual vector, 4/a at H = 0, so enumeration agrees
    assert main(["--out", str(tmp_path), "torus", "--alpha", "5", "--H", "0"]) == 0
    out = capsys.readouterr().out
    assert "verdict = unstable" in out
    assert "lambda1 = 0.8\n" in out
    assert (tmp_path / "torus_spectrum_alpha5_H0.csv").exists()


def test_sphere_subcommand(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "sphere", "--alpha", "2", "--H", "0"]) == 0
    out = capsys.readouterr().out
    assert "verdict = stable" in out
    assert "index = 1" in out
    assert "nullity = 3" in out
    csv = tmp_path / "sphere_spectrum_alpha2_H0.csv"
    assert csv.read_text().splitlines()[0] == "k,lambda"


@pytest.mark.parametrize("flag", [["--n", "4000"], ["--k-max", "3"]])
def test_sphere_takes_no_grid_or_mode_flag(flag, tmp_path, capsys):
    # the spectrum runs at the library defaults: a finer grid does not converge
    # the gap, and modes |k| >= 3 lie above mode 2 by min-max
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "sphere", "--alpha", "0.5", "--H", "1", *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_candidate_subcommand(capsys):
    V = math.pi**2 * math.sqrt(0.5)
    assert main(["candidate", "--alpha", "0.5", "--V", str(V)]) == 0
    out = capsys.readouterr().out
    assert "candidate = Sphere" in out


def test_regions_outputs(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "regions", "--n", "12"]) == 0
    fig2 = (tmp_path / "figure2_sphere_boundary.csv").read_text().splitlines()
    assert fig2[0] == "alpha,H_of_alpha"
    assert len(fig2) == 13
    fig3 = (tmp_path / "figure3_torus_boundary.csv").read_text().splitlines()
    assert fig3[0] == "alpha,H_threshold"
    roots = (tmp_path / "alpha_roots.csv").read_text().splitlines()
    assert roots[0] == "t,alpha_root_plus,alpha_root_minus"
    out = capsys.readouterr().out
    assert "alpha1 = 0.216885931213" in out
    assert "note:" in out


def test_profiles_with_svg(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "profiles", "--alphas", "0.5",
                 "--n", "60", "--H-max", "6", "--format", "csv+svg"]) == 0
    csv = (tmp_path / "figure4_profiles_alpha0.5.csv").read_text().splitlines()
    assert csv[0] == "family,H,area,volume"
    assert sum(1 for line in csv if line.startswith("Sphere,")) == 60
    assert sum(1 for line in csv if line.startswith("Torus,")) == 60
    svg = (tmp_path / "figure4_profiles_alpha0.5.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_config_error_exit_code(capsys):
    assert main(["torus", "--alpha", "-1", "--H", "0"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sphere", "torus"])
@pytest.mark.parametrize("H", ["nan", "inf", "-1", "1e10", "1e100", "1e200"])
def test_bad_mean_curvature_exit_code(command, H, capsys):
    assert main([command, "--alpha", "0.5", "--H", H]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "mean curvature H" in err


@pytest.mark.parametrize("H_max", ["nan", "inf", "0"])
def test_bad_profile_range_exit_code(H_max, tmp_path, capsys):
    assert main(["--out", str(tmp_path), "profiles", "--alphas", "0.5", "--H-max", H_max]) == 2
    assert "need H_max > 0" in capsys.readouterr().err


def test_huge_mean_curvature_without_traceback(tmp_path):
    proc, _ = run_cli(["sphere", "--alpha", "0.5", "--H", "1e200"], tmp_path, "huge")
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr and "Traceback" not in proc.stderr


# the refusal of a bad --n: the regions grid is bounded by the CLI, the others
# by the library routine that allocates the grid
GRID_SIZE_MESSAGE = {"regions": "--n must be at least 2",
                     "profiles": "need H_max > 0 and 50 <= n <= 1000000 grid points"}


@pytest.mark.parametrize("args,least", [
    (["regions", "--format", "csv+svg"], 2),
    (["profiles", "--alphas", "0.5", "--format", "csv+svg"], 50),
])
def test_grid_size_below_minimum_exit_code(args, least, tmp_path, capsys):
    message = GRID_SIZE_MESSAGE[args[0]]
    for n in (0, least - 1):
        assert main(["--out", str(tmp_path), *args, "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert f"configuration error: {message}" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("N", ["1001", "100000", "2"])
def test_torus_cutoff_out_of_range_exit_code(N, tmp_path, capsys):
    assert main(["--out", str(tmp_path / "out"), "torus", "--alpha", "0.5", "--H", "0",
                 "--N", N]) == 2
    captured = capsys.readouterr()
    assert f"configuration error: need enumeration cutoff 3 <= N <= 1000, got {N}" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_torus_huge_alpha_groups_eigenvalues_relatively(tmp_path, capsys):
    # (1, 1) gives 4/a = 4e-11, below any absolute grouping tolerance
    assert main(["--out", str(tmp_path), "torus", "--alpha", "99999999999", "--H", "0"]) == 0
    assert "lambda1 = 4.00000000004e-11\n" in capsys.readouterr().out
    rows = (tmp_path / "torus_spectrum_alpha1e+11_H0.csv").read_text().splitlines()
    assert rows[1:4] == ["0.0,1", "4.00000000004e-11,2", "1.600000000016e-10,2"]


def test_regions_computes_before_any_output(tmp_path, monkeypatch, capsys):
    import bergercmc.cli as cli

    def fail(_grid):
        raise ConsistencyError("boundary root not certified")

    monkeypatch.setattr(cli, "sphere_stability_boundary", fail)
    out = tmp_path / "out"
    assert main(["--out", str(out), "regions", "--n", "5"]) == 3
    captured = capsys.readouterr()
    assert "numerical contract failure: boundary root not certified" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("error", [ConsistencyError, CutoffError, QuadratureError,
                                   ReconstructionError, SpectrumError])
def test_every_numerical_error_exits_3(error, monkeypatch, capsys):
    import bergercmc.cli as cli

    def fail(*_args):
        raise error("contract broken")

    monkeypatch.setattr(cli, "classify_torus", fail)
    assert main(["torus", "--alpha", "0.5", "--H", "0"]) == 3
    captured = capsys.readouterr()
    assert "numerical contract failure: contract broken" in captured.err and captured.out == ""


def test_torus_huge_cutoff_without_traceback(tmp_path):
    proc, out = run_cli(["torus", "--alpha", "0.5", "--H", "0", "--N", "100000"], tmp_path, "N")
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == "" and list(out.iterdir()) == []


def test_sphere_uncertified_spectrum_exit_code(tmp_path, capsys):
    # at a = 1e5, 1e-3 of the spectral gap is below what a Sturm count resolves
    assert main(["--out", str(tmp_path), "sphere", "--alpha", "1e5", "--H", "0"]) == 3
    out = capsys.readouterr()
    assert "numerical contract failure: zero-mode contract failed" in out.err
    assert out.out == "" and list(tmp_path.iterdir()) == []


def test_profiles_up_to_H_MAX_keep_positive_volumes(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "profiles", "--alphas", "0.5", "--H-max", "1e6"]) == 0
    rows = [r.split(",") for r in
            (tmp_path / "figure4_profiles_alpha0.5.csv").read_text().splitlines()[1:]]
    vol = [float(r[3]) for r in rows if r[0] == "Sphere"]
    assert len(vol) == 300 and min(vol) > 0.0
    assert all(v > w for v, w in zip(vol, vol[1:]))


def test_profiles_at_large_alpha_keep_positive_volumes(tmp_path, capsys):
    # just below the series switch H^2 = 16 a, 2 pi sqrt(a) Theta - H A/2 cancels by a factor
    # of order a
    assert main(["--out", str(tmp_path), "profiles", "--alphas", "1e10", "--H-max", "1e6",
                 "--n", "50"]) == 0
    rows = [r.split(",") for r in
            (tmp_path / "figure4_profiles_alpha1e+10.csv").read_text().splitlines()[1:]]
    vol = [float(r[3]) for r in rows if r[0] == "Sphere"]
    assert len(vol) == 50 and min(vol) > 0.0
    assert all(v > w for v, w in zip(vol, vol[1:]))


def test_torus_nan_exits_2_without_traceback(tmp_path):
    proc, _ = run_cli(["torus", "--alpha", "0.5", "--H", "nan"], tmp_path, "nan")
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr and "Traceback" not in proc.stderr


def test_embeddedness_scan(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "embeddedness", "--alphas", "0.02,1.0",
                 "--Hs", "1.0"]) == 0
    lines = (tmp_path / "figure1_embeddedness.csv").read_text().splitlines()
    assert lines[0] == "alpha,H,embedded,margin"
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[1:]}
    assert rows[("0.02", "1.0")] == ["0", repr(math.pi - turning_angle(0.02, 1.0))]
    assert rows[("1.0", "1.0")] == ["1", repr(math.pi - math.pi / 4)]  # Theta = atan2(1, H)
    assert "alpha=0.02 H=1: non-embedded (margin -1.29182)" in capsys.readouterr().out


def test_embeddedness_command_builds_no_meridian(tmp_path, monkeypatch, capsys):
    from bergercmc import cmc_spheres

    monkeypatch.setattr(cmc_spheres, "_meridian_profile", None)  # a meridian would raise
    assert main(["--out", str(tmp_path), "embeddedness"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 26


def run_script(name, outdir):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(root / "scripts" / name), str(outdir)],
                          capture_output=True, text=True, timeout=300, env=env)


def test_band_script_writes_the_roots_of_theta(tmp_path):
    from bergercmc.cmc_spheres import nonembedded_band

    proc = run_script("embeddedness_scan.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in
            (tmp_path / "embeddedness_band.csv").read_text().splitlines()]
    assert rows[0] == ["alpha", "H_lo", "H_hi"] and len(rows) == 9
    for a, lo, hi in rows[1:-1]:  # a from 0.004 to 0.041, all below alpha_emb
        assert (float(lo), float(hi)) == nonembedded_band(float(a))
    assert rows[-1] == ["0.06", "nan", "nan"]  # above alpha_emb: no band
    assert "alpha=0.0087: non-embedded for H in (0.075, 3.214)" in proc.stdout


def test_make_figures_writes_the_same_14_files_twice(tmp_path):
    files = []
    for run in ("first", "second"):
        proc = run_script("make_figures.py", tmp_path / run)
        assert proc.returncode == 0, proc.stderr
        files.append({p.name: p.read_bytes() for p in (tmp_path / run).iterdir()})
    assert len(files[0]) == 14 and files[0] == files[1]


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    # the read end closes before the child starts, so its first write fails
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = subprocess.run([sys.executable, "-m", "bergercmc.cli", "--out", str(tmp_path),
                               "torus", "--alpha", "0.5", "--H", "0"], stdout=write_fd,
                              stderr=subprocess.PIPE, text=True, timeout=300)
    finally:
        os.close(write_fd)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr == "bergercmc: stdout closed before the output ended\n"


def test_cli_runs_byte_identical(tmp_path):
    p1, d1 = run_cli(["regions", "--n", "10", "--format", "csv+svg"], tmp_path, "r1")
    p2, d2 = run_cli(["regions", "--n", "10", "--format", "csv+svg"], tmp_path, "r2")
    assert p1.returncode == p2.returncode == 0
    assert p1.stdout.replace(str(d1), "") == p2.stdout.replace(str(d2), "")
    for name in ("figure2_sphere_boundary.csv", "figure3_torus_boundary.csv",
                 "alpha_roots.csv", "figure2_sphere_boundary.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_env_var_outdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BERGERCMC_OUT", str(tmp_path / "envout"))
    assert main(["torus", "--alpha", "0.5", "--H", "0"]) == 0
    capsys.readouterr()
    assert (tmp_path / "envout" / "torus_spectrum_alpha0.5_H0.csv").exists()


def test_selftest_failure_exit_code(monkeypatch, capsys):
    from bergercmc import cli, selfcheck

    monkeypatch.setattr(selfcheck, "run",
                        lambda: iter([("fake-invariant", AssertionError("broken"))]))
    assert cli.main(["selftest"]) == 3
    out, err = capsys.readouterr()
    assert out == "FAIL fake-invariant: broken\n"
    assert "fake-invariant" in err


SELFTEST_NAMES = ["areas", "koiso", "jacobi-spectrum", "torus", "regions", "integrand-sign",
                  "isoperimetry", "reconstruction", "embedding"]


def test_selftest_prints_each_check(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == (
        [f"PASS {name}" for name in SELFTEST_NAMES] + ["all invariants passed"])


@pytest.mark.parametrize("breakage", [off_sphere, normal_not_unit, normal_tilted_toward_orbit])
def test_selftest_reconstruction_check_catches_broken_meridian(breakage, monkeypatch):
    from bergercmc import selfcheck

    # the meridian's rows broken before its contract reads them, run through run()
    slip_meridian_rows(monkeypatch, breakage)
    monkeypatch.setattr(selfcheck, "CHECKS", [selfcheck.check_reconstruction])
    [(name, exc)] = selfcheck.run()
    assert name == "reconstruction" and isinstance(exc, ReconstructionError)


@pytest.mark.parametrize("args", [
    ["sphere", "--alpha", "3e5", "--H", "1"],
    ["sphere", "--alpha", "3e5", "--H", "1", "--meridian-n", "2048"],
    ["sphere", "--alpha", "1e5", "--H", "1"],
    ["sphere", "--alpha", "1e5", "--H", "1", "--meridian-n", "2048"],
])
def test_numerical_failure_exits_3_before_any_output(args, tmp_path, capsys):
    # the spectrum breaks its zero-mode contract, after the meridian and its
    # verdict are computed: at both points 1e-3 of the gap is below the
    # resolution of the Sturm counts that certify index and nullity
    out = tmp_path / "out"
    assert main(["--out", str(out), *args]) == 3
    captured = capsys.readouterr()
    assert "numerical contract failure: zero-mode contract failed" in captured.err
    assert captured.out == "" and not out.exists()


def test_meridian_reaching_the_poles_holds_its_contract(tmp_path, capsys):
    # beyond |x| ~ 30 the samples move by less than roundoff; the contract
    # measures the closed form, not the sampling
    assert main(["--out", str(tmp_path), "sphere", "--alpha", "0.5", "--H", "1",
                 "--meridian-n", "2048", "--x-max", "30"]) == 0
    assert "embeddedness = embedded (margin 2.13769, crossings 0)" in capsys.readouterr().out


def test_sphere_meridian_export(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "sphere", "--alpha", "0.5", "--H", "1",
                 "--meridian-n", "1024"]) == 0
    out = capsys.readouterr().out
    assert "embeddedness = embedded" in out
    csv = tmp_path / "meridian_alpha0.5_H1.csv"
    assert csv.read_text().splitlines()[0] == \
        "x,re_z,im_z,re_w,im_w,metric_residual,C_residual"


@pytest.mark.parametrize("extra", [["--x-max", "inf"], ["--x-max", "1e300"], ["--x-max", "nan"],
                                   ["--x-max", "701"], ["--x-max", "-8"], ["--x-max", "0"],
                                   ["--meridian-n", "10"], ["--meridian-n", "-5"]])
def test_bad_meridian_arguments_exit_code(extra, tmp_path, capsys):
    argv = ["--out", str(tmp_path), "sphere", "--alpha", "0.5", "--H", "1",
            "--meridian-n", "2048", *extra]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,message", [
    (["profiles", "--alphas", "0.5,-1"], "alpha must be positive"),
    (["embeddedness", "--alphas", "0.5", "--Hs", "0,-1"], "mean curvature H"),
])
def test_bad_list_entry_exit_code_before_any_output(args, message, tmp_path, capsys):
    assert main(["--out", str(tmp_path), *args]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and message in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["sphere", "--alpha", "1e-17", "--H", "0"],
    ["candidate", "--alpha", "2e-13", "--V", "1e-7"],
    ["profiles", "--alphas", "1e-17"],
])
def test_alpha_below_floor_exit_code(args, tmp_path, capsys):
    assert main(["--out", str(tmp_path), *args]) == 2
    captured = capsys.readouterr()
    assert "configuration error: alpha must be positive, at least 1e-12" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("x_max", ["inf", "1e300", "701", "0"])
def test_bad_embeddedness_range_exit_code(x_max, tmp_path, capsys):
    # the verdict needs no meridian, so embeddedness takes no range: argparse
    # refuses --x-max (and --n) with exit 2
    for flag in ("--x-max", "--n"):
        argv = ["--out", str(tmp_path), "embeddedness", "--alphas", "0.5", "--Hs", "1",
                f"{flag}={x_max}"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_infinite_x_max_without_traceback(tmp_path):
    proc, out = run_cli(["sphere", "--alpha", "0.5", "--H", "1", "--meridian-n", "2048",
                         "--x-max", "inf"], tmp_path, "xinf")
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == "" and list(out.iterdir()) == []


@pytest.mark.parametrize("V", ["1e-5", "1e-10", "1e-300", "5e-324", "13.9575"])
def test_unreachable_candidate_volume_exit_code(V, capsys):
    assert main(["candidate", "--alpha", "0.5", "--V", V]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and captured.out == ""
    assert "enclose volumes in [0.000521772, 13.9572]" in captured.err


def test_tiny_candidate_volume_without_traceback(tmp_path):
    proc, _ = run_cli(["candidate", "--alpha", "0.5", "--V", "1e-300"], tmp_path, "tinyV")
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("H_max", ["1e100", "1.000001e6"])
def test_profile_range_above_H_MAX_exit_code(H_max, tmp_path, capsys):
    assert main(["--out", str(tmp_path), "profiles", "--alphas", "0.5", "--H-max", H_max]) == 2
    assert "mean curvature H" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["sphere", "--alpha", "0.5", "--H", "1", "--meridian-n", "2048", "--x-max", x]
    for x in ("200", "300", "400", "700")],
    ids=["sphere200", "sphere300", "sphere400", "sphere700"])
def test_wide_meridian_range_fails_contract_without_warnings(args, tmp_path):
    # sphere exports these meridians, whose closed form holds its contract, and
    # is_embedded decides them.  At a = 1e-4 the turning angle moves by more
    # than pi from the equator to the first sample on the same range, and
    # is_embedded refuses the meridian.  conf, the residuals, the normals and
    # the turning angle must get there without overflow or 0/0
    proc, out = run_cli(args, tmp_path, "wide")
    assert proc.returncode == 0
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert (out / "meridian_alpha0.5_H1.csv").exists()
    x_max = float(args[-1])
    with np.errstate(all="raise", under="ignore"):
        m = reconstruct_meridian(0.5, 1.0, (-x_max, x_max), 2048)
        assert is_embedded(m).embedded is True
        m = reconstruct_meridian(1e-4, 1.0, (-x_max, x_max), 2048)
        assert m.holds_contract
        with pytest.raises(ReconstructionError, match="turning angle moves by"):
            is_embedded(m)


# ---------------------------------------------------------------------------
# property: every numeric flag refuses bad values with exit 2, a message,
# no traceback and no output
# ---------------------------------------------------------------------------

_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity"])
_NEGATIVE = st.floats(max_value=-5e-324, allow_infinity=False).map(repr)


def _floats_above(x):
    return st.floats(min_value=x, exclude_min=True, allow_infinity=False).map(repr)


def _ints_outside(lo, hi):
    """Integers below lo or above hi, and strings argparse cannot read as int."""
    return st.one_of(st.integers(max_value=lo - 1).map(str),
                     st.integers(min_value=hi + 1, max_value=10**30).map(str),
                     st.sampled_from(["nan", "inf", "-inf", "1.5", "1e3"]))


_ALPHA = st.one_of(_NON_FINITE, _NEGATIVE, st.just("0"), _floats_above(ALPHA_MAX),
                   st.floats(0.0, ALPHA_MIN, exclude_max=True).map(repr))
_H = st.one_of(_NON_FINITE, _NEGATIVE, _floats_above(H_MAX))
_X_MAX = st.one_of(_NON_FINITE, _NEGATIVE, st.just("0"), _floats_above(MERIDIAN_X_LIMIT))

# base arguments of each subcommand: valid and cheap, so a value that slipped
# through would show as exit 0 rather than as a long run
_BASE = {
    "sphere": ["--alpha", "0.5", "--H", "1"],
    "torus": ["--alpha", "0.5", "--H", "0"],
    "regions": ["--n", "5"],
    "embeddedness": ["--alphas", "0.5", "--Hs", "1"],
    "profiles": ["--alphas", "0.5", "--n", "50"],
    "candidate": ["--alpha", "0.5", "--V", "3"],
}
_BAD_VALUES = {
    ("sphere", "--alpha"): _ALPHA,
    ("sphere", "--H"): _H,
    ("sphere", "--meridian-n"): st.one_of(_ints_outside(0, MERIDIAN_MAX_N),
                                          st.integers(1, 63).map(str)),
    ("sphere", "--x-max"): _X_MAX,
    ("torus", "--alpha"): _ALPHA,
    ("torus", "--H"): _H,
    ("torus", "--N"): _ints_outside(3, 1000),
    ("regions", "--n"): _ints_outside(2, REGIONS_MAX_N),
    ("embeddedness", "--alphas"): _ALPHA.map(lambda v: f"0.5,{v}"),
    ("embeddedness", "--Hs"): _H.map(lambda v: f"{v},1"),
    ("profiles", "--alphas"): _ALPHA,
    ("profiles", "--H-max"): st.one_of(_NON_FINITE, _NEGATIVE, st.just("0"),
                                       _floats_above(H_MAX)),
    ("profiles", "--n"): _ints_outside(50, PROFILE_MAX_N),
    ("candidate", "--alpha"): _ALPHA,
    # the total volume at a = 0.5 is 2 pi^2 sqrt(0.5) = 13.957...
    ("candidate", "--V"): st.one_of(_NON_FINITE, _NEGATIVE, st.just("0"), _floats_above(13.96)),
}


def _run_in_process(argv):
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(a=st.floats(min_value=-12.0, max_value=12.0).map(lambda e: 10.0**e),
       H=st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=6.0).map(lambda e: 10.0**e)))
def test_sphere_over_its_input_box_answers_or_refuses(a, H):
    # a log-uniform over [ALPHA_MIN, ALPHA_MAX], H = 0 or log-uniform up to
    # H_MAX, at the default grid: index 1, nullity 3 and a finite positive
    # gap, or exit 3 with nothing written
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        argv = ["--out", str(out_dir), "sphere", "--alpha", repr(a), "--H", repr(H)]
        code, out, err = _run_in_process(argv)
        if code == 3:
            assert "numerical contract failure" in err and "Traceback" not in err
            assert out == "" and not out_dir.exists()
            return
        assert code == 0, (a, H, err)
        lines = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
        assert (lines["index"], lines["nullity"]) == ("1", "3")
        assert 0.0 < float(lines["spectral_gap"]) < math.inf


@pytest.mark.parametrize("command,flag", sorted(_BAD_VALUES))
def test_bad_numeric_flag_exits_2_and_writes_nothing(command, flag):
    base = _BASE[command]
    if flag in base:
        k = base.index(flag)
        base = base[:k] + base[k + 2:]

    @settings(max_examples=20)
    @given(value=_BAD_VALUES[command, flag])
    def check(value):
        # --flag=value, so that argparse takes "-inf" or "-1e-300" as a value
        argv = [*base, f"{flag}={value}"]
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "out"
            code, out, err = _run_in_process(["--out", str(out_dir), command, *argv])
            assert code == 2, (argv, code, err)
            assert "error" in err and "Traceback" not in err
            assert "unrecognized arguments" not in err  # the flag itself exists
            assert out == "" and not out_dir.exists()

    check()
