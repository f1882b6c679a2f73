#!/usr/bin/env python3
"""Regenerate every figure data file (boundary curves, embeddedness scan,
area/volume profiles) plus the constants report into ./figures.

Equivalent to running the CLI subcommands one after another; kept as a
single script so a full reproduction is one command:

    python scripts/make_figures.py [outdir]

An outdir that cannot be made is refused before the first job: exit 2 with a
message on stderr and nothing on stdout, as the CLI refuses an unusable --out.
"""

import sys
from pathlib import Path

from bergercmc.cli import main


def run(outdir: str) -> int:
    try:
        Path(outdir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    jobs = [
        ["constants"],
        ["--out", outdir, "regions", "--n", "80", "--format", "csv+svg"],
        ["--out", outdir, "embeddedness",
         "--alphas", "0.005,0.01,0.02,0.04,0.08,0.12",
         "--Hs", "0,0.25,0.5,1,1.5,2,3"],
        ["--out", outdir, "profiles", "--format", "csv+svg"],
    ]
    for argv in jobs:
        print(f"$ bergercmc {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1] if len(sys.argv) > 1 else "figures"))
