#!/usr/bin/env python3
"""Generate the pools and reference outputs in bench/reference/.

    python3 bench/make_reference.py [workload ...]

For each slot of a workload's block design this draws PER_SLOT points from the
slot's stratum with a fixed generator (for embed_scan: near one center
drawn from the stratum) and runs the program on them.  A
point is redrawn when its outcome does not fit the slot: a seed_failing
slot of embed_scan holds only points that raise, every other slot only
points that complete, so the share of failing cases is fixed by the design
(4 of 40 on embed_scan, 0 elsewhere).  The redraw count per slot is stored.

Run it at the commit whose outputs are the reference; it overwrites the
files.  A later change regenerates them only when it changes what the
program is expected to output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from importlib import metadata

import workloads as wl

PER_SLOT = {"embed_scan": 5, "profile_rank": 5, "classify_sweep": 10, "cli_batch": 4}
MAX_DRAWS = 200
RECENTER = 10  # draws without a fitting point before a slot's center moves


def build(name: str, lib) -> dict:
    w = wl.WORKLOADS[name]
    pool, redrawn = [], {}
    for i, slot in enumerate(w.design()):
        if slot["kind"] == "repeat":
            continue
        k = 1 if slot["kind"] == "constants" else PER_SLOT[name]
        rng = random.Random(f"pool/{name}/{i}")
        kept = draws = 0
        center = None
        while kept < k:
            draws += 1
            if draws > MAX_DRAWS:
                raise SystemExit(f"{name} slot {i}: no fitting point in {MAX_DRAWS} draws")
            if hasattr(w, "near"):
                if center is None or (kept == 0 and draws % RECENTER == 0):
                    center = w.sample(slot, rng, lib)
                params = w.near(center, slot, rng)
            else:
                params = w.sample(slot, rng, lib)
            got, exc, _ = wl.timed(w.run, params)
            if (exc is not None) != w.expects_error(slot):
                continue
            if exc is not None:
                ref = {"error": type(exc).__name__}
            else:
                ref = w.reference(got) if name == "cli_batch" else got
            pool.append({"slot": i, "params": params, "ref": ref})
            kept += 1
        redrawn[i] = draws - kept
        print(f"{name} slot {i} ({slot['kind']}): {kept} kept, {draws - kept} redrawn",
              file=sys.stderr, flush=True)
    out = {"workload": name,
           "generated_with": {"src_sha256": wl.src_sha256(),
                              "python": sys.version.split()[0],
                              "numpy": metadata.version("numpy"),
                              "scipy": metadata.version("scipy")},
           "redrawn_per_slot": redrawn, "pool": pool}
    if name == "classify_sweep":
        out["constants"] = w.run_constants()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", nargs="*", default=list(wl.POOLED))
    args = ap.parse_args(argv)
    for var in wl.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(wl.ROOT / "src"))
    from bergercmc import stability, tori
    lib = argparse.Namespace(stability=stability, tori=tori)
    wl.REFERENCE.mkdir(exist_ok=True)
    for name in args.workload:
        w = wl.WORKLOADS[name]
        if name == "cli_batch":
            w.open()
        try:
            data = build(name, lib)
        finally:
            if name == "cli_batch":
                w.close()
        path = wl.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n")
        print(f"wrote {path} ({len(data['pool'])} pool points)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
