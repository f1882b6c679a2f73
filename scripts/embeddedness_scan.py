#!/usr/bin/env python3
"""Locate the non-embedded region of the CMC sphere family.

For each alpha in a small-deformation range, find the lower and upper edges
of the non-embedded band: the two roots in H of the turning angle
Theta(a, H) = pi (`cmc_spheres.nonembedded_band`).  Minimal spheres are
great equators, hence embedded; the band opens up at moderate H below
alpha_emb = 0.0473807639.  Writes embeddedness_band.csv with columns
alpha,H_lo,H_hi (NaN bounds mean there is no band at that alpha).

    python scripts/embeddedness_scan.py [outdir] [n_alpha]
"""

import math
import sys
from pathlib import Path

import numpy as np

from bergercmc.cmc_spheres import nonembedded_band
from bergercmc.svgplot import write_csv


def scan(outdir: str, n_alpha: int) -> None:
    rows = []
    for a in np.geomspace(0.004, 0.06, n_alpha):
        band = nonembedded_band(float(a))
        if band is None:
            rows.append((float(a), math.nan, math.nan))
            print(f"alpha={a:.4f}: embedded for all H")
            continue
        rows.append((float(a), *band))
        print(f"alpha={a:.4f}: non-embedded for H in ({band[0]:.3f}, {band[1]:.3f})")

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "embeddedness_band.csv", ("alpha", "H_lo", "H_hi"), rows)
    print(f"wrote {out / 'embeddedness_band.csv'}")


if __name__ == "__main__":
    outdir = sys.argv[1] if len(sys.argv) > 1 else "figures"
    n_alpha = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    scan(outdir, n_alpha)
