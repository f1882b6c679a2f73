#!/usr/bin/env python3
"""Refine the non-embedded region of the CMC sphere family.

For each alpha in a small-deformation range, bisect in H for the lower and
upper edges of the non-embedded band (minimal spheres are great equators,
hence embedded; the band opens up at moderate H once alpha is small
enough).  Writes embeddedness_band.csv with columns alpha,H_lo,H_hi
(NaN bounds mean no band was detected at that alpha).

    python scripts/embeddedness_scan.py [outdir] [n_alpha]
"""

import math
import sys
from pathlib import Path

import numpy as np

from bergercmc.cmc_spheres import is_embedded, reconstruct_meridian
from bergercmc.svgplot import write_csv


def verdict(alpha: float, H: float, n: int = 3000) -> bool | None:
    m = reconstruct_meridian(alpha, H, (-9.0, 9.0), n)
    return is_embedded(m).embedded


def bisect_edge(alpha: float, h_emb: float, h_non: float, steps: int = 12) -> float:
    for _ in range(steps):
        mid = 0.5 * (h_emb + h_non)
        if verdict(alpha, mid) is False:
            h_non = mid
        else:
            h_emb = mid
    return 0.5 * (h_emb + h_non)


def scan(outdir: str, n_alpha: int) -> None:
    alphas = np.geomspace(0.004, 0.06, n_alpha)
    Hs = np.concatenate([[0.05], np.linspace(0.15, 3.0, 20)])
    rows = []
    for a in alphas:
        flags = [(H, verdict(float(a), float(H))) for H in Hs]
        non = [H for H, f in flags if f is False]
        if not non:
            rows.append((float(a), math.nan, math.nan))
            print(f"alpha={a:.4f}: embedded for all sampled H")
            continue
        h_first, h_last = min(non), max(non)
        emb_below = max([H for H, f in flags if f is True and H < h_first], default=0.0)
        emb_above = min([H for H, f in flags if f is True and H > h_last], default=Hs[-1])
        lo = bisect_edge(float(a), emb_below, h_first)
        hi = bisect_edge(float(a), emb_above, h_last)
        rows.append((float(a), lo, hi))
        print(f"alpha={a:.4f}: non-embedded for H in ({lo:.3f}, {hi:.3f})")

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "embeddedness_band.csv", ("alpha", "H_lo", "H_hi"), rows)
    print(f"wrote {out / 'embeddedness_band.csv'}")


if __name__ == "__main__":
    outdir = sys.argv[1] if len(sys.argv) > 1 else "figures"
    n_alpha = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    scan(outdir, n_alpha)
