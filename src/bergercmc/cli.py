"""Command-line frontend: constants, classifications, figure data, selftest.

Exit codes: 0 success, 1 stdout closed before the output ended, 2
configuration errors, 3 numerical-contract failures (with the failing
invariant named).  Output is byte-stable across runs for identical
configurations; CSV floats use the shortest round-trip representation.
The default output directory is BERGERCMC_OUT or the current directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .ambient import NumericalError, as_alpha, as_H, total_volume
from .cmc_spheres import (area_sphere_closed, classify_embedding, meridian_range,
                          reconstruct_meridian)
from .isoperimetry import (PROFILE_COLUMNS, crossing_alpha, isoperimetric_candidate,
                           sphere_profile, torus_profile)
from .regions import alpha_curve_csv, critical_constants, theorem_area_note
from .stability import alpha0, classify_sphere, jacobi_spectrum, sphere_stability_boundary
from .svgplot import polyline_svg, write_csv
from .tori import (classify_torus, lambda1_closed_form, torus_data, torus_spectrum,
                   torus_stability_threshold)

EMBEDDED_TAG = {True: "embedded", False: "non-embedded"}
# points of each regions boundary curve, the one grid this module builds:
# a curve needs two
REGIONS_MIN_N, REGIONS_MAX_N = 2, 10**6


def _check_args(args) -> None:
    """Turn --alphas and --Hs into lists of checked floats and bound the
    regions grid; the library checks every other size and range before it
    allocates, and each command computes before its first output."""
    if args.command == "regions" and not REGIONS_MIN_N <= args.n <= REGIONS_MAX_N:
        raise ValueError(f"--n must be at least {REGIONS_MIN_N} and at most {REGIONS_MAX_N} "
                         f"for regions, got {args.n}")
    for name, check in (("alphas", as_alpha), ("Hs", as_H)):
        if getattr(args, name, None) is not None:
            setattr(args, name, [check(v) for v in getattr(args, name).split(",")])


def _outdir(args) -> Path:
    out = Path(args.out or os.environ.get("BERGERCMC_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_constants(args) -> int:
    a0 = alpha0()
    t0, a1, ah = critical_constants()
    ca = crossing_alpha()
    for name, val in (("alpha0", a0), ("alpha1", a1), ("t0", t0),
                      ("alpha_hyperbolic", ah), ("crossing_alpha", ca)):
        print(f"{name} = {val:.12g}")
    return 0


def cmd_sphere(args) -> int:
    x_range = meridian_range((-args.x_max, args.x_max))
    verdict = classify_sphere(args.alpha, args.H)
    area = area_sphere_closed(args.alpha, args.H)
    if args.meridian_n:  # before the spectrum, so that a bad --meridian-n fails fast
        m = reconstruct_meridian(args.alpha, args.H, x_range, args.meridian_n)
        r = classify_embedding(args.alpha, args.H)
    spec = jacobi_spectrum(args.alpha, args.H)
    spec.eigenvalues  # solves the CSV's table, so that its contract fails before any output
    print(f"sphere alpha={args.alpha:.12g} H={args.H:.12g}")
    print(f"verdict = {'stable' if verdict.stable else 'unstable'}")
    print(f"koiso_integral = {verdict.margin:.12g}")
    print(f"area = {area:.12g}")
    print(f"index = {spec.index}")
    print(f"nullity = {spec.nullity}")
    print(f"spectral_gap = {spec.gap:.12g}")
    out = _outdir(args) / f"sphere_spectrum_alpha{args.alpha:g}_H{args.H:g}.csv"
    spec.to_csv(out)
    print(f"wrote {out}")
    if args.meridian_n:
        print(f"embeddedness = {EMBEDDED_TAG[r.embedded]} (margin {r.margin:.6g}, "
              f"crossings {r.crossings})")
        mpath = _outdir(args) / f"meridian_alpha{args.alpha:g}_H{args.H:g}.csv"
        m.to_csv(mpath)
        print(f"wrote {mpath}")
    return 0


def cmd_torus(args) -> int:
    verdict = classify_torus(args.alpha, args.H)
    lam1 = lambda1_closed_form(args.alpha, args.H)
    spec = torus_spectrum(torus_data(args.alpha, args.H), N=args.N)
    print(f"torus alpha={args.alpha:.12g} H={args.H:.12g}")
    print(f"verdict = {'stable' if verdict.stable else 'unstable'}")
    print(f"lambda1 = {lam1:.12g}")
    print(f"jacobi_margin = {verdict.margin:.12g}")
    out = _outdir(args) / f"torus_spectrum_alpha{args.alpha:g}_H{args.H:g}.csv"
    spec.to_csv(out)
    print(f"wrote {out}")
    return 0


def cmd_regions(args) -> int:
    a0 = alpha0()
    t0, a1, ah = critical_constants()
    rows2 = sphere_stability_boundary(np.linspace(a0 * 0.02, a0 * 0.995, args.n))
    rows3 = [(a, torus_stability_threshold(a)) for a in np.linspace(0.004, 1.0 / 3.0, args.n)]
    out = _outdir(args)
    print(f"t0 = {t0:.12g}")
    print(f"alpha1 = {a1:.12g}")
    print(f"alpha_hyperbolic = {ah:.12g}")
    print(theorem_area_note())
    write_csv(out / "figure2_sphere_boundary.csv", ("alpha", "H_of_alpha"), rows2)
    write_csv(out / "figure3_torus_boundary.csv", ("alpha", "H_threshold"), rows3)
    alpha_curve_csv(out / "alpha_roots.csv")
    if args.format == "csv+svg":
        polyline_svg(out / "figure2_sphere_boundary.svg",
                     [(rows2[:, 0], rows2[:, 1], "H(alpha)")],
                     title="Sphere stability boundary", xlabel="alpha", ylabel="H")
        r3 = np.asarray(rows3)
        polyline_svg(out / "figure3_torus_boundary.svg",
                     [(r3[:, 0], r3[:, 1], "H*(alpha)")],
                     title="Torus stability boundary", xlabel="alpha", ylabel="H")
    print(f"wrote {out / 'figure2_sphere_boundary.csv'}")
    print(f"wrote {out / 'figure3_torus_boundary.csv'}")
    print(f"wrote {out / 'alpha_roots.csv'}")
    return 0


def cmd_embeddedness(args) -> int:
    verdicts = [classify_embedding(a, H) for a in args.alphas for H in args.Hs]
    for r in verdicts:
        print(f"alpha={r.alpha:g} H={r.H:g}: {EMBEDDED_TAG[r.embedded]} (margin {r.margin:.6g})")
    path = _outdir(args) / "figure1_embeddedness.csv"
    write_csv(path, ("alpha", "H", "embedded", "margin"),
              [(r.alpha, r.H, r.embedded, r.margin) for r in verdicts])
    print(f"wrote {path}")
    return 0


def cmd_profiles(args) -> int:
    profiles = [(a, sphere_profile(a, H_max=args.H_max, n=args.n),
                 torus_profile(a, H_max=args.H_max, n=args.n))
                for a in args.alphas or [0.25, crossing_alpha(), 0.14, 0.06]]
    out = _outdir(args)
    for a, sp, tp in profiles:
        path = out / f"figure4_profiles_alpha{a:.6g}.csv"
        write_csv(path, PROFILE_COLUMNS, sp.rows() + tp.rows())
        if sp.notes:
            print(f"alpha={a:.6g}: {sp.notes}")
        if args.format == "csv+svg":
            polyline_svg(out / f"figure4_profiles_alpha{a:.6g}.svg",
                         [(sp.volume, sp.area, "sphere"), (tp.volume, tp.area, "torus")],
                         title=f"area vs volume, alpha={a:.6g}",
                         xlabel="enclosed volume", ylabel="area")
        print(f"wrote {path}")
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
    failures = selfcheck.run(verbose=True)
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

    sub.add_parser("constants", help="the five reproduced constants")

    sp = sub.add_parser("sphere", help="classify a CMC sphere, spectrum + area")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--H", type=float, required=True)
    sp.add_argument("--meridian-n", type=int, default=0,
                    help="also reconstruct the meridian on this many samples "
                         "(CSV export + embeddedness verdict from the turning angle)")
    sp.add_argument("--x-max", type=float, default=8.0)

    tp = sub.add_parser("torus", help="classify a CMC flat torus, lambda1 + spectrum")
    tp.add_argument("--alpha", type=float, required=True)
    tp.add_argument("--H", type=float, required=True)
    tp.add_argument("--N", type=int, default=12)

    rg = sub.add_parser("regions", help="stability boundary curves (figures 2 and 3)")
    rg.add_argument("--n", type=int, default=60)
    rg.add_argument("--format", choices=("csv", "csv+svg"), default="csv")

    em = sub.add_parser("embeddedness", help="embeddedness scan by the turning angle (figure 1)")
    em.add_argument("--alphas", default="0.01,0.02,0.04,0.08,0.12")
    em.add_argument("--Hs", default="0,0.5,1,1.5,2")

    pr = sub.add_parser("profiles", help="area/volume profiles (figure 4)")
    pr.add_argument("--alphas", default=None)
    pr.add_argument("--H-max", type=float, default=20.0)
    pr.add_argument("--n", type=int, default=300)
    pr.add_argument("--format", choices=("csv", "csv+svg"), default="csv")

    cd = sub.add_parser("candidate", help="least-area stable candidate at a volume")
    cd.add_argument("--alpha", type=float, required=True)
    cd.add_argument("--V", type=float, required=True)

    sub.add_parser("selftest", help="run the invariant suite; exit 0 iff all pass")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "constants": cmd_constants,
        "sphere": cmd_sphere,
        "torus": cmd_torus,
        "regions": cmd_regions,
        "embeddedness": cmd_embeddedness,
        "profiles": cmd_profiles,
        "candidate": cmd_candidate,
        "selftest": cmd_selftest,
    }[args.command]
    try:
        _check_args(args)
        code = handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more on exit: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("bergercmc: stdout closed before the output ended", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
