"""Command-line frontend: constants, classifications, figure data, selftest.

Exit codes: 0 success, 1 stdout closed before the output ended, 2
configuration errors (a bad value, or an unusable output directory), 3
numerical-contract failures (with the failing invariant named).  Each command
computes, then writes its files, then prints, so exit 2 or 3 prints nothing.
Output is byte-stable across runs for identical configurations; CSV floats use
the shortest round-trip representation.  The output directory is --out,
else BERGERCMC_OUT, else the current directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .ambient import NumericalError, as_alpha, as_count, as_H, total_volume
from .cmc_spheres import area_sphere, classify_embedding, meridian_range, reconstruct_meridian
from .isoperimetry import crossing_alpha, isoperimetric_candidate, sphere_profile, torus_profile
from .regions import alpha_curve_csv, critical_constants
from .stability import alpha0, classify_sphere, jacobi_spectrum, sphere_stability_boundary
from .svgplot import polyline_svg, write_csv
from .tori import (classify_torus, lambda1_closed_form, torus_data, torus_spectrum,
                   torus_stability_threshold)

EMBEDDED_TAG = {True: "embedded", False: "non-embedded"}
# points of each regions boundary curve, the one grid the CLI builds: a curve needs two
REGIONS_MIN_N, REGIONS_MAX_N = 2, 10**6
# the source's area-bound display quotes the sphere threshold alpha_0 while the
# statement uses the torus-side constant alpha_1; the output follows alpha_1
AREA_BOUND_NOTE = ("note: the area-bound range is taken as [alpha_1, 1), matching the "
                   "stability statement; the source display also shows alpha_0 and the "
                   "discrepancy is left unresolved here")


def _check_args(args) -> None:
    """Turn --alphas and --Hs into lists of checked floats; the library and
    cmd_regions check every other size and range before they allocate."""
    for name, check in (("alphas", as_alpha), ("Hs", as_H)):
        if getattr(args, name, None) is not None:
            setattr(args, name, [check(v) for v in getattr(args, name).split(",")])


def _outdir(args) -> Path:
    out = Path(args.out or os.environ.get("BERGERCMC_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_constants(args) -> int:
    t0, a1, ah = critical_constants()
    for name, val in (("alpha0", alpha0()), ("alpha1", a1), ("t0", t0),
                      ("alpha_hyperbolic", ah), ("crossing_alpha", crossing_alpha())):
        print(f"{name} = {val:.12g}")
    return 0


def cmd_sphere(args) -> int:
    x_range = meridian_range((-args.x_max, args.x_max))
    verdict = classify_sphere(args.alpha, args.H)
    area = area_sphere(args.alpha, args.H)
    if args.meridian_n:  # before the spectrum, so that a bad --meridian-n fails fast
        m = reconstruct_meridian(args.alpha, args.H, x_range, args.meridian_n)
        r = classify_embedding(args.alpha, args.H)
    spec = jacobi_spectrum(args.alpha, args.H)
    rows = list(zip(spec.modes, spec.eigenvalues))  # the table's contract is read here
    out = _outdir(args)
    path, mpath = (out / f"{kind}_alpha{args.alpha:g}_H{args.H:g}.csv"
                   for kind in ("sphere_spectrum", "meridian"))
    write_csv(path, ("k", "lambda"), rows)
    if args.meridian_n:
        write_csv(mpath, ("x", "re_z", "im_z", "re_w", "im_w", "metric_residual", "C_residual"),
                  np.column_stack([m.x, m.points, m.metric_residual, m.C_residual]))
    print(f"sphere alpha={args.alpha:.12g} H={args.H:.12g}")
    print(f"verdict = {'stable' if verdict.stable else 'unstable'}")
    print(f"koiso_integral = {verdict.margin:.12g}")
    print(f"area = {area:.12g}")
    print(f"index = {spec.index}")
    print(f"nullity = {spec.nullity}")
    print(f"spectral_gap = {spec.gap:.12g}")
    print(f"wrote {path}")
    if args.meridian_n:
        print(f"embeddedness = {EMBEDDED_TAG[r.embedded]} (margin {r.margin:.6g}, "
              f"crossings {r.crossings})")
        print(f"wrote {mpath}")
    return 0


def cmd_torus(args) -> int:
    verdict = classify_torus(args.alpha, args.H)
    lam1 = lambda1_closed_form(args.alpha, args.H)
    spec = torus_spectrum(torus_data(args.alpha, args.H), N=args.N)
    out = _outdir(args) / f"torus_spectrum_alpha{args.alpha:g}_H{args.H:g}.csv"
    write_csv(out, ("lambda", "multiplicity"), zip(spec.eigenvalues, spec.multiplicities))
    print(f"torus alpha={args.alpha:.12g} H={args.H:.12g}")
    print(f"verdict = {'stable' if verdict.stable else 'unstable'}")
    print(f"lambda1 = {lam1:.12g}")
    print(f"jacobi_margin = {verdict.margin:.12g}")
    print(f"wrote {out}")
    return 0


def cmd_regions(args) -> int:
    n = as_count(args.n, REGIONS_MIN_N, REGIONS_MAX_N, "--n")
    a0 = alpha0()
    t0, a1, ah = critical_constants()
    rows2 = sphere_stability_boundary(np.linspace(a0 * 0.02, a0 * 0.995, n))
    rows3 = np.array([(a, torus_stability_threshold(a)) for a in np.linspace(0.004, 1.0 / 3.0, n)])
    out = _outdir(args)
    write_csv(out / "figure2_sphere_boundary.csv", ("alpha", "H_of_alpha"), rows2)
    write_csv(out / "figure3_torus_boundary.csv", ("alpha", "H_threshold"), rows3)
    alpha_curve_csv(out / "alpha_roots.csv")  # a fixed table of closed forms, solved as written
    if args.format == "csv+svg":
        polyline_svg(out / "figure2_sphere_boundary.svg",
                     [(rows2[:, 0], rows2[:, 1], "H(alpha)")],
                     title="Sphere stability boundary", xlabel="alpha", ylabel="H")
        polyline_svg(out / "figure3_torus_boundary.svg",
                     [(rows3[:, 0], rows3[:, 1], "H*(alpha)")],
                     title="Torus stability boundary", xlabel="alpha", ylabel="H")
    print(f"t0 = {t0:.12g}")
    print(f"alpha1 = {a1:.12g}")
    print(f"alpha_hyperbolic = {ah:.12g}")
    print(AREA_BOUND_NOTE)
    for name in ("figure2_sphere_boundary.csv", "figure3_torus_boundary.csv", "alpha_roots.csv"):
        print(f"wrote {out / name}")
    return 0


def cmd_embeddedness(args) -> int:
    verdicts = [classify_embedding(a, H) for a in args.alphas for H in args.Hs]
    path = _outdir(args) / "figure1_embeddedness.csv"
    write_csv(path, ("alpha", "H", "embedded", "margin"),
              [(r.alpha, r.H, r.embedded, r.margin) for r in verdicts])
    for r in verdicts:
        print(f"alpha={r.alpha:g} H={r.H:g}: {EMBEDDED_TAG[r.embedded]} (margin {r.margin:.6g})")
    print(f"wrote {path}")
    return 0


def cmd_profiles(args) -> int:
    profiles = [(a, sphere_profile(a, H_max=args.H_max, n=args.n),
                 torus_profile(a, H_max=args.H_max, n=args.n))
                for a in args.alphas or [0.25, crossing_alpha(), 0.14, 0.06]]
    out = _outdir(args)
    for a, sp, tp in profiles:
        write_csv(out / f"figure4_profiles_alpha{a:.6g}.csv", ("family", "H", "area", "volume"),
                  [(p.family, h, ar, v) for p in (sp, tp)
                   for h, ar, v in zip(p.H, p.area, p.volume)])
        if args.format == "csv+svg":
            polyline_svg(out / f"figure4_profiles_alpha{a:.6g}.svg",
                         [(sp.volume, sp.area, "sphere"), (tp.volume, tp.area, "torus")],
                         title=f"area vs volume, alpha={a:.6g}",
                         xlabel="enclosed volume", ylabel="area")
    for a, sp, _ in profiles:
        if sp.notes:
            print(f"alpha={a:.6g}: {sp.notes}")
        print(f"wrote {out / f'figure4_profiles_alpha{a:.6g}.csv'}")
    return 0


def cmd_candidate(args) -> int:
    rep = isoperimetric_candidate(args.alpha, args.V)
    print(f"alpha={args.alpha:.12g} V={args.V:.12g} (total={total_volume(args.alpha):.12g})")
    print(f"candidate = {rep.family}")
    print(f"H = {rep.H:.12g}")
    print(f"area = {rep.area:.12g}")
    if rep.notes:
        print(f"notes: {rep.notes}")
    return 0


def cmd_selftest(args) -> int:
    from . import selfcheck  # the invariant suite loads only for this command
    failures = []
    for name, exc in selfcheck.run():
        if exc is None:
            print(f"PASS {name}")
        else:
            failures.append(name)
            print(f"FAIL {name}: {exc}")
    if failures:
        print(f"FAILED invariants: {', '.join(failures)}", file=sys.stderr)
        return 3
    print("all invariants passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bergercmc",
                                 description="CMC sphere/torus stability in Berger spheres")
    ap.add_argument("--out", default=None, help="output directory (default: $BERGERCMC_OUT or .)")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(run, text):
        """The subcommand named after its handler run, cmd_<name>."""
        p = sub.add_parser(run.__name__.removeprefix("cmd_"), help=text)
        p.set_defaults(run=run)
        return p

    command(cmd_constants, "the five reproduced constants")

    sp = command(cmd_sphere, "classify a CMC sphere, spectrum + area")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--H", type=float, required=True)
    sp.add_argument("--meridian-n", type=int, default=0,
                    help="also reconstruct the meridian on this many samples "
                         "(CSV export + embeddedness verdict from the turning angle)")
    sp.add_argument("--x-max", type=float, default=8.0)

    tp = command(cmd_torus, "classify a CMC flat torus, lambda1 + spectrum")
    tp.add_argument("--alpha", type=float, required=True)
    tp.add_argument("--H", type=float, required=True)
    tp.add_argument("--N", type=int, default=12)

    rg = command(cmd_regions, "stability boundary curves (figures 2 and 3)")
    rg.add_argument("--n", type=int, default=60)
    rg.add_argument("--format", choices=("csv", "csv+svg"), default="csv")

    em = command(cmd_embeddedness, "embeddedness scan by the turning angle (figure 1)")
    em.add_argument("--alphas", default="0.01,0.02,0.04,0.08,0.12")
    em.add_argument("--Hs", default="0,0.5,1,1.5,2")

    pr = command(cmd_profiles, "area/volume profiles (figure 4)")
    pr.add_argument("--alphas", default=None)
    pr.add_argument("--H-max", type=float, default=20.0)
    pr.add_argument("--n", type=int, default=300)
    pr.add_argument("--format", choices=("csv", "csv+svg"), default="csv")

    cd = command(cmd_candidate, "least-area stable candidate at a volume")
    cd.add_argument("--alpha", type=float, required=True)
    cd.add_argument("--V", type=float, required=True)

    command(cmd_selftest, "run the invariant suite; exit 0 iff all pass")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout raises here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more on exit: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("bergercmc: stdout closed before the output ended", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # a bad value, or an --out that cannot be written
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
