"""The workloads: block designs, seeded case lists, program calls, checks.

Each workload has a block design of BLOCK slots.  A slot is a stratum of
the workload's stated parameter distribution (a bin of log alpha, a bin of
H, one grid size, ...), so every block is a stratified sample of that
distribution and two seeds differ in which points they draw, not in how
much work a block holds.  The points a slot can draw form its pool; the
pools and the program's outputs on them (the references) were generated
once at the seed commit by make_reference.py and live in reference/.
A seed picks one pool point per slot and shuffles the block.

Four workloads have pools of their own: embed_scan, profile_rank,
classify_sweep and cli_batch.  query_mix draws its slots from the last
three, so every case keeps the part (the workload) it came from, and with
it the part's call and check.

The program receives only the generated inputs.  Every call goes through a
module attribute (`cmc_spheres.reconstruct_meridian`, ...) so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import refcheck

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
BLOCK = 40          # cases per block: its p75 has ten cases beyond it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150


def _r6(x: float) -> float:
    return float(f"{x:.6g}")


def _loguniform(rng, lo, hi):
    return _r6(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _log_bins(lo, hi, k):
    e = [math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * i / k) for i in range(k + 1)]
    e[0], e[-1] = lo, hi
    return list(zip(e[:-1], e[1:]))


def _lin_bins(lo, hi, k):
    return [(lo + (hi - lo) * i / k, lo + (hi - lo) * (i + 1) / k) for i in range(k)]


def src_sha256() -> str:
    """Hash of the program's sources, for results from a checkout without git."""
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "bergercmc").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("BERGERCMC_OUT", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# embed_scan: reconstruct_meridian + is_embedded (figure 1)
# ---------------------------------------------------------------------------

class EmbedScan:
    name = "embed_scan"
    N = (2048, 3000, 4096)
    ALPHA, H_RANGE, X_MAX = (0.004, 0.2), (0.0, 3.0), (8.0, 9.0)

    def design(self):
        # 4 slots in the small-alpha, n = 2048 corner where the seed commit
        # raises ReconstructionError, 6 at H = 0, 30 spread over
        # (log alpha bin) x (H bin) x n in a Latin pattern.
        slots = [dict(kind="seed_failing", alpha=(0.004, 0.005), H=(0.6, 1.1),
                      n=2048, x_max=8.0) for _ in range(4)]
        for i, ab in enumerate(_log_bins(*self.ALPHA, 6)):
            slots.append(dict(kind="h0", alpha=ab, H=(0.0, 0.0), n=self.N[i % 3], x_max=None))
        hb = _lin_bins(*self.H_RANGE, 3)
        for i, ab in enumerate(_log_bins(*self.ALPHA, 10)):
            for j in range(3):
                slots.append(dict(kind="general", alpha=ab, H=hb[(i + j) % 3],
                                  n=self.N[j], x_max=None))
        return slots

    def expects_error(self, slot) -> bool:
        return slot["kind"] == "seed_failing"

    def sample(self, slot, rng, lib):
        return {"alpha": _loguniform(rng, *slot["alpha"]),
                "H": _r6(rng.uniform(*slot["H"])) if slot["H"][1] > 0 else 0.0,
                "n": slot["n"],
                "x_max": slot["x_max"] or rng.choice(self.X_MAX)}

    def near(self, center, slot, rng):
        """A point within 3 % in alpha and 0.05 in H of a slot's center.

        The cost of a case varies up to 3x across a slot (crossing versus
        clear curves, H), so pool points stay close to one center per slot:
        then the seeds differ in the points they draw but hardly in the work.
        """
        lo, hi = slot["alpha"]
        a = min(max(center["alpha"] * math.exp(rng.uniform(-0.03, 0.03)), lo), hi)
        H = center["H"]
        if H > 0:
            H = min(max(H + rng.uniform(-0.05, 0.05), slot["H"][0]), slot["H"][1])
        return dict(center, alpha=_r6(a), H=_r6(H))

    def run(self, p):
        from bergercmc import cmc_spheres
        m = cmc_spheres.reconstruct_meridian(p["alpha"], p["H"], (-p["x_max"], p["x_max"]), p["n"])
        r = cmc_spheres.is_embedded(m)
        return {"embedded": r.embedded, "crossings": int(r.crossings), "margin": float(r.margin)}

    def check(self, got, ref):
        out = refcheck.compare_fields(got, ref, exact=("embedded", "crossings"))
        if not (math.isfinite(got["margin"]) and got["margin"] >= 0.0):
            out.append(f"margin {got['margin']!r} is not a finite nonnegative number")
        return out


# ---------------------------------------------------------------------------
# profile_rank: sphere/torus profiles and candidate ranking (figure 4)
# ---------------------------------------------------------------------------

class ProfileRank:
    name = "profile_rank"
    N = (300, 400)
    ALPHA = (0.02, 3.0)
    VOLUMES = 4            # candidate volumes per profile
    FRACTION = (0.05, 0.95)  # of the total volume

    def design(self):
        return [dict(kind="profile", alpha=ab, n=n)
                for ab in _log_bins(*self.ALPHA, 20) for n in self.N]

    def expects_error(self, slot) -> bool:
        return False

    def sample(self, slot, rng, lib):
        a = _loguniform(rng, *slot["alpha"])
        total = 2.0 * math.pi**2 * math.sqrt(a)
        return {"alpha": a, "n": slot["n"],
                "V": sorted(_r6(rng.uniform(*self.FRACTION) * total) for _ in range(self.VOLUMES))}

    def run(self, p):
        from bergercmc import isoperimetry
        sp = isoperimetry.sphere_profile(p["alpha"], n=p["n"])
        tp = isoperimetry.torus_profile(p["alpha"], n=p["n"])
        reps = [isoperimetry.isoperimetric_candidate(p["alpha"], V, profile=sp) for V in p["V"]]
        mid = len(sp.H) // 2
        return {
            "monotone": bool(sp.monotone),
            "sphere": [float(v) for i in (mid, -1) for v in (sp.H[i], sp.area[i], sp.volume[i])],
            "torus": [float(tp.area[-1]), float(tp.volume[-1])],
            "candidates": [{"family": r.family, "complemented": bool(r.complemented),
                            "H": float(r.H), "area": float(r.area)} for r in reps],
        }

    def check(self, got, ref):
        out = refcheck.compare_fields(got, ref, exact=("monotone",))
        for key in ("sphere", "torus"):
            for i, (g, r) in enumerate(zip(got[key], ref[key])):
                if not refcheck.close(g, r, abs_=1e-9):
                    out.append(f"{key}[{i}]: got {g!r}, reference {r!r}")
        if len(got["candidates"]) != len(ref["candidates"]):
            return out + ["candidate count differs"]
        for g, r in zip(got["candidates"], ref["candidates"]):
            out += refcheck.compare_fields(g, r, exact=("family", "complemented"))
            for k in ("H", "area"):
                if not refcheck.close(g[k], r[k], abs_=1e-9):
                    out.append(f"candidate {k}: got {g[k]!r}, reference {r[k]!r}")
        return out


# ---------------------------------------------------------------------------
# classify_sweep: the computational content of `sphere` plus `torus`
# ---------------------------------------------------------------------------

class ClassifySweep:
    name = "classify_sweep"
    N = (2000, 4000, 8000)
    ALPHA, H_RANGE = (0.01, 5.0), (0.0, 5.0)
    NEAR = 1e-6          # relative distance of the near-boundary H values
    TORUS_N = 12
    ALPHA0 = 0.12088346807439847  # alpha0 at the seed commit (constants reference)

    def design(self):
        # 4 slots within 1e-6 relative of H(a), 4 of H*(a), 32 over
        # (log alpha bin) x (H bin) with n in a Latin pattern.
        slots = [dict(kind="near_H", alpha=(0.01, 0.12), n=self.N[i % 3]) for i in range(4)]
        slots += [dict(kind="near_H_star", alpha=(0.0105, 0.33), n=self.N[(i + 1) % 3])
                  for i in range(4)]
        hb = _lin_bins(*self.H_RANGE, 4)
        for i, ab in enumerate(_log_bins(*self.ALPHA, 8)):
            for j in range(4):
                slots.append(dict(kind="general", alpha=ab, H=hb[j], n=self.N[(i + j) % 3]))
        return slots

    def expects_error(self, slot) -> bool:
        return False

    def sample(self, slot, rng, lib):
        a = _loguniform(rng, *slot["alpha"])
        if slot["kind"] == "general":
            H = _r6(rng.uniform(*slot["H"]))
        else:
            if slot["kind"] == "near_H":
                edge = float(lib.stability.sphere_stability_boundary([a])[0, 1])
            else:
                edge = lib.tori.torus_stability_threshold(a)
            H = edge * (1.0 + rng.uniform(-self.NEAR, self.NEAR))
        return {"alpha": a, "H": H, "n": slot["n"]}

    def run(self, p):
        if p.get("constants"):
            return self.run_constants()
        from bergercmc import cmc_spheres, stability, tori
        from bergercmc.cmc_spheres import ConsistencyError
        a, H = p["alpha"], p["H"]
        verdict = stability.classify_sphere(a, H)
        koiso = stability.koiso_integral(a, H)
        area = cmc_spheres.area_sphere(a, H)
        spec = stability.jacobi_spectrum(a, H, n=p["n"])
        tv = tori.classify_torus(a, H)
        ts = tori.torus_spectrum(tori.torus_data(a, H), N=self.TORUS_N)
        lam1 = tori.lambda1_closed_form(a, H)
        if abs(ts.lambda1 - lam1) > 1e-10 * max(1.0, lam1):
            raise ConsistencyError(f"torus lambda1: enumeration {ts.lambda1} vs closed form {lam1}")
        boundary = (float(stability.sphere_stability_boundary([a])[0, 1])
                    if a < self.ALPHA0 else None)
        return {"sphere_stable": bool(verdict.stable), "koiso": float(koiso),
                "area": float(area), "index": int(spec.index), "nullity": int(spec.nullity),
                "gap": float(spec.gap), "torus_stable": bool(tv.stable),
                "torus_margin": float(tv.margin), "lambda1": float(lam1),
                "torus_levels": len(ts.eigenvalues), "H_boundary": boundary}

    def run_constants(self):
        from bergercmc import isoperimetry, regions, stability
        t0, a1, ah = regions.critical_constants()
        return {"alpha0": refcheck.sig12(stability.alpha0()), "alpha1": refcheck.sig12(a1),
                "t0": refcheck.sig12(t0), "alpha_hyperbolic": refcheck.sig12(ah),
                "crossing_alpha": refcheck.sig12(isoperimetry.crossing_alpha())}

    def check(self, got, ref):
        if "alpha0" in ref:  # the constants, as 12-significant-digit strings
            return refcheck.compare_fields(got, ref, exact=refcheck.CONSTANTS)
        return refcheck.compare_fields(
            got, ref, exact=("sphere_stable", "index", "nullity", "torus_stable", "torus_levels"),
            numeric=("koiso", "area", "gap", "torus_margin", "lambda1", "H_boundary"))


# ---------------------------------------------------------------------------
# cli_batch: fresh `python -m bergercmc.cli` processes, one at a time
# ---------------------------------------------------------------------------

OUT_TOKEN = "<OUT>"
CSV_ROWS = 64  # rows stored per CSV file, evenly strided
MERIDIAN_SKIP = ("metric_residual", "C_residual")  # grid diagnostics


class CliBatch:
    name = "cli_batch"
    SUB = [("constants", 3), ("sphere", 6), ("sphere_meridian", 3), ("torus", 8),
           ("candidate", 8), ("regions", 3), ("profiles", 5)]
    REPEATS = ("sphere_meridian", "regions", "candidate", "profiles")

    def __init__(self):
        self.scratch = None
        self.seen = {}  # argv -> bytes of the first run in this process

    def design(self):
        # The last four slots rerun an earlier command of the same block, so
        # every block checks byte-identical stdout, CSV and SVG output.
        slots = [dict(kind=k) for k, count in self.SUB for _ in range(count)]
        first = {s["kind"]: i for i, s in reversed(list(enumerate(slots)))}
        slots += [dict(kind="repeat", of=first[k]) for k in self.REPEATS]
        return slots

    def expects_error(self, slot) -> bool:
        return False

    def sample(self, slot, rng, lib):
        k = slot["kind"]
        if k == "constants":
            return {"argv": ["constants"]}
        if k in ("sphere", "torus"):
            argv = [k, "--alpha", repr(_loguniform(rng, 0.01, 5.0)),
                    "--H", repr(_r6(rng.uniform(0.0, 5.0)))]
        elif k == "sphere_meridian":
            argv = ["sphere", "--alpha", repr(_loguniform(rng, 0.02, 0.2)),
                    "--H", repr(_r6(rng.uniform(0.0, 3.0))), "--meridian-n", "2048"]
        elif k == "candidate":
            a = _loguniform(rng, 0.02, 3.0)
            V = _r6(rng.uniform(0.05, 0.95) * 2.0 * math.pi**2 * math.sqrt(a))
            argv = ["candidate", "--alpha", repr(a), "--V", repr(V)]
        elif k == "regions":
            argv = ["regions", "--n", str(rng.randint(20, 60)), "--format", "csv+svg"]
        else:
            argv = ["profiles", "--alphas", repr(_loguniform(rng, 0.02, 3.0)),
                    "--n", str(rng.randint(50, 80))]
        return {"argv": argv}

    # -- process handling ---------------------------------------------------

    def open(self):
        self.scratch = ROOT / ".bench_tmp" / str(os.getpid())
        self.scratch.mkdir(parents=True, exist_ok=True)

    def close(self):
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)
            try:
                self.scratch.parent.rmdir()
            except OSError:
                pass  # another run still uses it

    def run(self, p, traced=False):
        out = self.scratch / "out"
        shutil.rmtree(out, ignore_errors=True)
        trace_path = self.scratch / "trace.json"
        if traced:
            cmd = [sys.executable, "-X", "importtime", str(BENCH / "traced_cli.py"),
                   str(trace_path), "--out", str(out)] + p["argv"]
        else:
            cmd = [sys.executable, "-m", "bergercmc.cli", "--out", str(out)] + p["argv"]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.is_dir() else {}
        got = {"argv": p["argv"], "stdout": proc.stdout, "files": files}
        if traced:
            got["trace"] = json.loads(trace_path.read_text())
            got["trace"]["importtime"] = proc.stderr.decode()
        return got

    def reference(self, got) -> dict:
        """Stored form of an output (make_reference.py)."""
        files = {}
        for name, data in got["files"].items():
            if name.endswith(".csv"):
                text = data.decode()
                stride = -(-text.count("\n") // CSV_ROWS)
                skip = MERIDIAN_SKIP if name.startswith("meridian_") else ()
                files[name] = refcheck.csv_reference(text, stride, skip)
            else:
                files[name] = None
        return {"stdout": self._stdout_lines(got), "files": files}

    def _stdout_lines(self, got):
        return got["stdout"].decode().replace(str(self.scratch / "out"), OUT_TOKEN).splitlines()

    def check(self, got, ref):
        out = refcheck.compare_stdout(self._stdout_lines(got), ref["stdout"])
        if sorted(got["files"]) != sorted(ref["files"]):
            out.append(f"files {sorted(got['files'])} vs reference {sorted(ref['files'])}")
        for name, fref in ref["files"].items():
            if fref is not None and name in got["files"]:
                out += refcheck.compare_csv(name, got["files"][name].decode(), fref)
        key = tuple(got["argv"])
        raw = (got["stdout"], got["files"])
        if key in self.seen and self.seen[key] != raw:
            out.append("a rerun of the same command wrote different bytes")
        self.seen.setdefault(key, raw)
        return out


# ---------------------------------------------------------------------------
# query_mix: profile ranking, stability point queries and CLI commands
# ---------------------------------------------------------------------------

class QueryMix:
    """One block of the point queries a user makes, drawn from three pools.

    20 profile_rank slots (every alpha bin, n alternating), 16
    classify_sweep slots (2 near H(a), 2 near H*(a), 12 general covering
    every alpha bin, H bin and n) and 4 cli_batch slots (sphere, candidate,
    regions with csv+svg, profiles).  Sorted by latency the classify cases
    come first and the CLI processes last, so the p50 and p75 fall among the
    profile cases.  No slot reaches the meridian or geometry2d.
    """
    name = "query_mix"
    PROFILE = [2 * i + i % 2 for i in range(20)]
    CLASSIFY = [0, 2, 4, 5] + [8 + 4 * i + i % 4 for i in range(8)] \
        + [8 + 4 * i + (i + 2) % 4 for i in range(4)]
    CLI = ("sphere", "candidate", "regions", "profiles")

    def design(self):
        cli = WORKLOADS["cli_batch"].design()
        parts = [("profile_rank", i) for i in self.PROFILE] \
            + [("classify_sweep", i) for i in self.CLASSIFY] \
            + [("cli_batch", [s["kind"] for s in cli].index(k)) for k in self.CLI]
        return [dict(WORKLOADS[part].design()[i], part=part, src=i) for part, i in parts]


WORKLOADS = {w.name: w for w in (EmbedScan(), ProfileRank(), ClassifySweep(), CliBatch(),
                                  QueryMix())}
POOLED = ("embed_scan", "profile_rank", "classify_sweep", "cli_batch")  # own reference files


# ---------------------------------------------------------------------------
# pools and case lists
# ---------------------------------------------------------------------------

def load_pool(name: str) -> dict:
    """The stored pool of a workload; for query_mix, those of its parts."""
    if name == "query_mix":
        return {"parts": {p: load_pool(p) for p in ("profile_rank", "classify_sweep",
                                                     "cli_batch")}}
    return json.loads((REFERENCE / f"{name}.json").read_text())


def case_list(name: str, seed: int, pool: dict) -> list[dict]:
    """One block of pool entries drawn with the seed, shuffled.

    An entry is {"slot", "part", "params", "ref"}; a cli_batch repeat slot
    reuses the entry drawn for its source slot.
    """
    design = WORKLOADS[name].design()
    pools = pool["parts"] if "parts" in pool else {name: pool}
    by_slot = {}
    for part, p in pools.items():
        for e in p["pool"]:
            by_slot.setdefault((part, e["slot"]), []).append(e)
    rng = random.Random(f"{name}/{seed}")
    drawn = {}
    for i, slot in enumerate(design):
        if slot["kind"] == "repeat":
            drawn[i] = drawn[slot["of"]]
            continue
        part = slot.get("part", name)
        e = rng.choice(by_slot[(part, slot.get("src", i))])
        drawn[i] = {"slot": i, "part": part, "params": e["params"], "ref": e["ref"]}
    block = list(drawn.values())
    rng.shuffle(block)
    return block


def case_list_hash(cases) -> str:
    blob = json.dumps([[c["slot"], c["params"]] for c in cases], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def constants_case(pool: dict) -> dict:
    """The one constants case a classify_sweep or query_mix run adds."""
    pool = pool["parts"]["classify_sweep"] if "parts" in pool else pool
    return {"slot": "constants", "part": "classify_sweep", "params": {"constants": True},
            "ref": pool["constants"]}


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs), None, time.perf_counter() - t0
    except Exception as exc:  # the benchmark keeps running and records the failure
        return None, exc, time.perf_counter() - t0
