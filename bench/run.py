#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): embed_scan and query_mix, the two that
BENCHMARK.json gates, and profile_rank, classify_sweep and cli_batch, the
pools query_mix draws from, runnable alone.  Each is a closed loop with one
client: the next case starts when the previous one has returned, in this
process (or, for CLI cases, in one child process at a time).  A run draws
one block of 40 cases from the seed (41 with the constants case) and
executes it in passes, at least two and as many as fit in --seconds.
Every execution is scaled to a reference host speed measured by a probe
kernel run before and after it (see Run), and a case's latency is the mean
of its scaled passes: the host's own speed drifts by up to 1.7x, more than
any bound a change is judged by.

--trace 0 prints the end-to-end metrics: setup_s, ok_cases_per_s,
case_ms_p50, case_ms_p75, fail_ratio and ok_ratio (1 - fail_ratio, the form
the final JSON carries, since a gated metric must not be 0) and peak_rss_mb.
--trace 1 wraps the program's module-level functions (tracer.py), prints
the per-layer metrics, each layer's share of the wall time and the tracing
overhead, and checks which layers each workload reaches.

Every output is checked against the stored reference; a disagreement is
printed to stderr, the result says "correct": false and the exit code is 1.
The last line of stdout is the JSON result.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402

import benchstats  # noqa: E402
import refcheck  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 5   # fresh-interpreter imports per run; setup_s is their median
PROBE_REF_S = 0.010  # the probe's time on a steady reference host (see probe_s)
MIN_PASSES = 2      # passes over the block in every run
INF_MS = 1e9        # stands for +inf (a failed case) in the JSON result

S, COUNT, RATIO, BYTES = "s/case", "count/case", "ratio", "B/case"
PER_LAYER = [
    ("cmc_spheres.meridian.busy_s", S), ("cmc_spheres.meridian.calls", COUNT),
    ("cmc_spheres.meridian.ode_nfev", COUNT), ("cmc_spheres.meridian.failed", COUNT),
    ("cmc_spheres.orbit.busy_s", S), ("cmc_spheres.embed.self_s", S),
    ("cmc_spheres.embed.undecided", COUNT),
    ("geometry2d.report.self_s", S), ("geometry2d.exact.calls", COUNT),
    ("geometry2d.exact.busy_s", S), ("geometry2d.exact.hit_ratio", RATIO),
    ("geometry2d.segments", COUNT), ("geometry2d.seglen_spread", RATIO),
    ("isoperimetry.quad.calls", COUNT), ("isoperimetry.quad.busy_s", S),
    ("cmc_spheres.quad.calls", COUNT), ("cmc_spheres.quad.busy_s", S),
    ("isoperimetry.volume_ode.nfev", COUNT), ("isoperimetry.profile.self_s", S),
    ("isoperimetry.candidate.busy_s", S),
    ("stability.spectrum.busy_s", S), ("stability.spectrum.calls", COUNT),
    ("stability.spectrum.cells", COUNT), ("stability.eigh.calls", COUNT),
    ("stability.eigh.busy_s", S), ("stability.koiso.busy_s", S),
    ("stability.quad.calls", COUNT),
    ("tori.spectrum.busy_s", S), ("tori.lattice_points", COUNT), ("regions.busy_s", S),
    ("cli.import_s", S), ("cli.scipy_import_s", S), ("cli.after_import_s", S),
    ("cli.csv_bytes", BYTES), ("svgplot.bytes", BYTES),
    ("trace.overhead_ratio", RATIO),
]
GEOMETRY = ("geometry2d.", "cmc_spheres.meridian")
ISOPERIMETRY = ("isoperimetry.",)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(case_hash: str) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "git_sha": git_sha(),
            "src_sha256": wl.src_sha256(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "case_list_sha256": case_hash}


def measure_setup() -> tuple[list[float], list[float]]:
    """Times of fresh interpreters that import bergercmc.cli: scaled to the
    reference host by the probes around each (see Run), and as wall times."""
    scaled, walls = [], []
    before = probe_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import bergercmc.cli"], cwd=wl.ROOT,
                              env=wl.child_env(), capture_output=True,
                              timeout=wl.CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"import bergercmc.cli failed: {proc.stderr.decode()[-300:]}")
        after = probe_s()
        scaled.append(walls[-1] * PROBE_REF_S / statistics.mean((before, after)))
        before = after
    return scaled, walls


# ---------------------------------------------------------------------------
# the case loop
# ---------------------------------------------------------------------------

def probe_s() -> float:
    """Wall time of a fixed kernel that does not touch the program: the host's speed now.

    The kernel mixes the three kinds of work the program spends its time in:
    Python arithmetic, numpy passes over arrays and scipy quad calls on a
    Python integrand.  On the 2-core Xeon the benchmark was written on it
    takes 10 ms when the host is quiet and up to 17 ms when other tenants
    load it; PROBE_REF_S is the quiet value.
    """
    import numpy as np
    from scipy import integrate

    t0 = time.perf_counter()
    s = 0
    for i in range(60000):
        s += (i * i) % 7
    x = np.linspace(0.0, 1.0, 50000)
    for _ in range(5):
        s += float(np.cumsum(np.sin(x) * np.exp(-x))[-1])
    for k in range(4):
        s += integrate.quad(lambda t, k=k: t * t + k, 0.0, 1.0)[0]
    return time.perf_counter() - t0


def evaluate(w, entry, got, exc) -> dict:
    """Outcome of one execution of a case against its reference."""
    ref = entry["ref"]
    if exc is not None:
        err = type(exc).__name__
        mism = [] if ref.get("error") == err else [
            f"raised {err}: {exc}" + (f" (reference raised {ref['error']})" if "error" in ref
                                      else " (reference completed)")]
        return {"failed": True, "mismatches": mism, "fixed": False}
    if "error" in ref:
        # raised at the seed commit, completes now: nothing to compare with
        return {"failed": False, "mismatches": [], "fixed": True}
    mism = w.check(got, ref)
    return {"failed": bool(mism), "mismatches": mism, "fixed": False}


class Run:
    """One block of cases, executed in passes, timed against the host's speed.

    Every pass runs the whole block in the same order.  Passes continue
    while the next one is expected to end within --seconds, and there are
    at least MIN_PASSES: the second pass averages out part of the noise of
    a single execution, checks that a CLI rerun writes the same bytes, and
    lets a traced run time every case both ways.  A case fails if any of its
    executions failed.

    The host's speed drifts by up to 1.7x over tens of seconds (other
    tenants share its cores), far more than the bounds a change is judged
    by.  So every untraced execution is timed between two probes (probe_s)
    and scaled by PROBE_REF_S over their mean: a duration in reference
    seconds, what the case takes on the quiet host.  A case's latency is
    the mean of its scaled passes.  The raw wall times are kept and printed.

    In a traced run, case k of pass p is traced when p + k is odd, so each
    case runs both ways in the first two passes, and nothing is scaled.
    """

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name, self.seconds, self.trace = name, seconds, trace
        self.pool = wl.load_pool(name)
        self.cases = wl.case_list(name, seed, self.pool)
        if name in ("classify_sweep", "query_mix"):
            self.cases = [wl.constants_case(self.pool)] + self.cases
        self.cli = wl.WORKLOADS["cli_batch"]
        self.uses_cli = any(c["part"] == "cli_batch" for c in self.cases)
        n = len(self.cases)
        self.times = [[] for _ in range(n)]     # untraced scaled time per pass
        self.walls = [[] for _ in range(n)]     # untraced wall time per pass
        self.probes = []
        self.failed, self.fixed = [False] * n, [False] * n
        self.mismatched = [False] * n
        self.passes = 0
        self.sample_output = None  # (entry, output) of the first case that passed
        self.paired = ([], [])     # traced walls, untraced walls
        self.traced_cases, self.traced_wall, self.traced_ids = 0, 0.0, set()
        self.tr = tracer.Tracer() if trace else None
        self.patches = []

    def execute(self, entry, case_id, traced):
        params, w = entry["params"], wl.WORKLOADS[entry["part"]]
        if entry["part"] == "cli_batch":
            got, exc, dt = wl.timed(self.cli.run, params, traced=traced)
            if traced and exc is None:
                self.merge_child_trace(got, case_id)
            return got, exc, dt
        if not self.trace:
            return wl.timed(w.run, params)
        if traced:
            self.tr.case = case_id
            return wl.timed(w.run, params)
        tracer.uninstall(self.patches)
        try:
            return wl.timed(w.run, params)
        finally:
            self.patches = tracer.install(self.tr)

    def merge_child_trace(self, got, case_id):
        t, tr = got.pop("trace"), self.tr
        offset = len(tr.spans)
        for name, start, end, parent, _ in t["spans"]:
            tr.spans.append([name, start, end, None if parent is None else parent + offset,
                             case_id])
        tr.counts.update(t["counts"])
        for k, v in t["samples"].items():
            tr.samples[k].extend(v)
        tr.counts["cli.import_s"] += t["import_s"]
        tr.counts["cli.after_import_s"] += t["after_import_s"]
        tr.counts["cli.scipy_import_s"] += scipy_import_s(t["importtime"])
        tr.counts["cli.csv_bytes"] += sum(len(b) for n, b in got["files"].items()
                                          if n.endswith(".csv"))
        tr.counts["svgplot.bytes"] += sum(len(b) for n, b in got["files"].items()
                                          if n.endswith(".svg"))
        tr.counts["cli.processes"] += 1

    def one_case(self, k):
        entry = self.cases[k]
        traced = self.trace and (self.passes + k) % 2 == 1
        if not self.trace and not self.probes:
            self.probes.append(probe_s())
        got, exc, dt = self.execute(entry, k, traced)
        if not self.trace:
            self.probes.append(probe_s())
            self.times[k].append(dt * PROBE_REF_S / statistics.mean(self.probes[-2:]))
        outcome = evaluate(wl.WORKLOADS[entry["part"]], entry, got, exc)
        if self.trace:
            if self.passes < 2:
                self.paired[0 if traced else 1].append(dt)
        if traced:
            self.traced_cases += 1
            self.traced_wall += dt
            self.traced_ids.add(k)
        else:
            self.walls[k].append(dt)
        self.failed[k] |= outcome["failed"]
        self.fixed[k] |= outcome["fixed"]
        self.mismatched[k] |= bool(outcome["mismatches"])
        if self.sample_output is None and not outcome["failed"] and "error" not in entry["ref"]:
            self.sample_output = (entry, got)
        for m in outcome["mismatches"]:
            log(f"MISMATCH pass {self.passes} case {k} slot {entry['slot']} "
                f"{entry['params']}: {m}")

    def warm_up(self):
        """One untimed execution of an in-process case of each part that
        completes at the seed: lazy imports and first-call set-up finish
        before timing.  (A CLI case starts a fresh process every time.)"""
        seen = {"cli_batch"}
        for entry in self.cases:
            if entry["part"] not in seen and "error" not in entry["ref"]:
                seen.add(entry["part"])
                wl.timed(wl.WORKLOADS[entry["part"]].run, entry["params"])
        probe_s()

    def loop(self):
        self.warm_up()
        if self.trace:
            self.patches = tracer.install(self.tr)
        try:
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                for k in range(len(self.cases)):
                    self.one_case(k)
                self.passes += 1
                now = time.perf_counter()
                if self.passes >= MIN_PASSES and now + (now - t0) - start > self.seconds:
                    break
        finally:
            tracer.uninstall(self.patches)

    def latencies_s(self) -> list[float]:
        """Each case's mean scaled time over its passes; +inf for a case that failed."""
        return [math.inf if f else statistics.mean(t) for f, t in zip(self.failed, self.times)]

    def checker_catches_perturbation(self) -> bool:
        """The comparison must reject a reference with one value changed."""
        if self.sample_output is None:
            return True  # no passing case to perturb: every case already failed
        entry, got = self.sample_output
        bad = refcheck.perturb(entry["ref"])
        return bad is None or bool(wl.WORKLOADS[entry["part"]].check(got, bad))


def scipy_import_s(importtime: str) -> float:
    """Cumulative import time of the top-level scipy imports, from -X importtime."""
    rows = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cum), name.strip()))
    total, stack = 0, []  # reversed post-order walks parents before children
    for depth, cum, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            total += cum
        stack.append((depth, is_scipy))
    return total * 1e-6


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(run: Run, setup: list[float], peak_rss_kb: int) -> tuple[dict, list[str]]:
    lat_ms = [t * 1e3 for t in run.latencies_s()]
    wall_ms = [math.inf if f else statistics.mean(w) * 1e3
               for f, w in zip(run.failed, run.walls)]
    attempted = len(lat_ms)
    ok = sum(1 for t in lat_ms if math.isfinite(t))
    p50, p75 = benchstats.percentile(lat_ms, 50), benchstats.percentile(lat_ms, 75)
    beyond = attempted - math.ceil(0.75 * attempted)
    total = sum(t for t in lat_ms if math.isfinite(t)) / 1e3
    wall = sum(t for t in wall_ms if math.isfinite(t)) / 1e3
    metrics = {
        "setup_s": (statistics.median(setup[0]), "s"),
        "ok_cases_per_s": (ok / total, "1/s"),
        "case_ms_p50": (min(p50, INF_MS), "ms"),
        "case_ms_p75": (min(p75, INF_MS), "ms"),
        "ok_ratio": (ok / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    q1, q3 = (benchstats.percentile(run.probes, q) * 1e3 for q in (25, 75))
    lines = [
        f"host: probe median {statistics.median(run.probes) * 1e3:.2f} ms, quartiles "
        f"{q1:.2f} / {q3:.2f} ms over {len(run.probes)} probes; "
        f"reference {PROBE_REF_S * 1e3:g} ms",
        "timings are scaled to the reference host (probe = reference); wall times in brackets",
        f"setup_s = {metrics['setup_s'][0]:.4f} s (median of {len(setup[0])} fresh imports: "
        + ", ".join(f"{t:.4f}" for t in setup[0]) + f"; wall {statistics.median(setup[1]):.4f} s)",
        f"ok_cases_per_s = {metrics['ok_cases_per_s'][0]:.4f} 1/s "
        f"({ok} ok cases in {total:.3f} s, each the mean of {run.passes} passes; "
        f"wall {ok / wall:.4f} 1/s)",
        f"case_ms_p50 = {p50:.3f} ms (nearest rank, n={attempted}, failed cases as +inf; "
        f"wall {benchstats.percentile(wall_ms, 50):.3f} ms)",
        f"case_ms_p75 = {p75:.3f} ms (nearest rank, n={attempted}, {beyond} samples beyond; "
        f"wall {benchstats.percentile(wall_ms, 75):.3f} ms)",
        "pass totals: " + ", ".join(
            f"{sum(t[p] for t in run.times) :.3f} s (wall {sum(w[p] for w in run.walls):.3f} s)"
            for p in range(run.passes)),
        f"fail_ratio = {(attempted - ok) / attempted:.4f} ({attempted - ok} of {attempted})",
        f"ok_ratio = {ok / attempted:.4f} ratio",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB"
        + {"cli_batch": " (largest child)", "query_mix": " (process or largest child)"}.get(
            run.name, ""),
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(run: Run) -> tuple[dict, list[str]]:
    tr = run.tr
    ncase = run.traced_cases
    calls, busy, selft = tracer.aggregate(tr.spans)
    c = tr.counts
    spread = tr.samples.get("geometry2d.seglen_spread", [])
    exact_calls = calls["geometry2d.exact"]
    values = {
        "cmc_spheres.meridian.busy_s": busy["cmc_spheres.meridian"],
        "cmc_spheres.meridian.calls": calls["cmc_spheres.meridian"],
        "cmc_spheres.meridian.ode_nfev": c["cmc_spheres.meridian_ode.nfev"],
        "cmc_spheres.meridian.failed": c["cmc_spheres.meridian.failed"],
        "cmc_spheres.orbit.busy_s": busy["cmc_spheres.orbit"],
        "cmc_spheres.embed.self_s": selft["cmc_spheres.embed"],
        "cmc_spheres.embed.undecided": c["cmc_spheres.embed.undecided"],
        "geometry2d.report.self_s": selft["geometry2d.report"],
        "geometry2d.exact.calls": exact_calls,
        "geometry2d.exact.busy_s": busy["geometry2d.exact"],
        "geometry2d.segments": c["geometry2d.segments"],
        "isoperimetry.quad.calls": calls["isoperimetry.quad"],
        "isoperimetry.quad.busy_s": busy["isoperimetry.quad"],
        "cmc_spheres.quad.calls": calls["cmc_spheres.quad"],
        "cmc_spheres.quad.busy_s": busy["cmc_spheres.quad"],
        "isoperimetry.volume_ode.nfev": c["isoperimetry.volume_ode.nfev"],
        "isoperimetry.profile.self_s": selft["isoperimetry.profile"],
        "isoperimetry.candidate.busy_s": busy["isoperimetry.candidate"],
        "stability.spectrum.busy_s": busy["stability.spectrum"],
        "stability.spectrum.calls": calls["stability.spectrum"],
        "stability.spectrum.cells": c["stability.spectrum.cells"],
        "stability.eigh.calls": calls["stability.eigh"],
        "stability.eigh.busy_s": busy["stability.eigh"],
        "stability.koiso.busy_s": busy["stability.koiso"],
        "stability.quad.calls": calls["stability.quad"],
        "tori.spectrum.busy_s": busy["tori.spectrum"],
        "tori.lattice_points": c["tori.lattice_points"],
        "regions.busy_s": busy["regions"],
        "cli.import_s": c["cli.import_s"],
        "cli.scipy_import_s": c["cli.scipy_import_s"],
        "cli.after_import_s": c["cli.after_import_s"],
        "cli.csv_bytes": c["cli.csv_bytes"],
        "svgplot.bytes": c["svgplot.bytes"],
    }
    values = {k: v / ncase for k, v in values.items()}
    values["geometry2d.exact.hit_ratio"] = (c["geometry2d.exact.hits"] / exact_calls
                                            if exact_calls else 0.0)
    values["geometry2d.seglen_spread"] = statistics.median(spread) if spread else 0.0
    values["trace.overhead_ratio"] = benchstats.overhead_ratio(*run.paired)
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in PER_LAYER}

    wall = run.traced_wall
    lines = [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"tracing overhead: traced/untraced wall = {values['trace.overhead_ratio']:.4f}"
                 f" over the first 2 passes ({len(run.paired[0])} + {len(run.paired[1])}"
                 " executions)")
    lines.append(f"share of traced wall time ({wall:.3f} s over {ncase} traced executions),"
                 " by self time:")
    shares = sorted(((v / wall, k) for k, v in selft.items() if calls[k]), reverse=True)
    if run.uses_cli:
        shares.append((c["cli.import_s"] / wall, "cli import (child)"))
        shares.sort(reverse=True)
    for share, k in shares:
        lines.append(f"  {k:32s} {100 * share:6.2f} %")
    return metrics, lines


def isolation_problems(run: Run) -> list[str]:
    """Which layers each workload's cases reach, from the spans of the traced run."""
    names = defaultdict(set)
    for span in run.tr.spans:
        names[span[4]].add(span[0])

    def reaches(case_names, prefixes):
        return any(n.startswith(prefixes) for n in case_names)

    out = []
    for k, entry in enumerate(run.cases):
        part, n = entry["part"], names[k]
        if k not in run.traced_ids:
            continue
        argv = entry["params"].get("argv", [])
        if part == "embed_scan":
            if "error" not in entry["ref"] and not reaches(n, GEOMETRY):
                out.append(f"embed_scan case {k} has no geometry2d or meridian spans")
            if reaches(n, ISOPERIMETRY):
                out.append(f"embed_scan case {k} reaches isoperimetry")
        elif reaches(n, GEOMETRY) and "--meridian-n" not in argv:
            out.append(f"{part} case {k} {argv or entry['params']} reaches geometry2d")
        if part == "classify_sweep":
            constants = entry["slot"] == "constants"
            if reaches(n, ISOPERIMETRY) != constants:
                out.append(f"classify_sweep case {k} "
                           + ("does not reach isoperimetry.crossing_alpha" if constants
                              else "reaches isoperimetry"))
    return out


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bergercmc benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = wl.ROOT / "src" / "bergercmc"
    if not (src / "__init__.py").is_file() or not (src / "cli.py").is_file():
        log(f"error: the program's sources are missing ({src})")
        return 2
    parts = ("profile_rank", "classify_sweep", "cli_batch") if args.workload == "query_mix" \
        else (args.workload,)
    for part in parts:
        if not (wl.REFERENCE / f"{part}.json").is_file():
            log(f"error: no reference for {part} in {wl.REFERENCE}")
            return 2
    sys.path.insert(0, str(wl.ROOT / "src"))
    try:
        import bergercmc.cli  # noqa: F401  (loads the program; writes its bytecode cache)
        setup = ([], []) if args.trace else measure_setup()
    except Exception as exc:  # the program cannot even be imported: no result
        log(f"error: cannot import the program: {exc}")
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    case_hash = wl.case_list_hash(run.cases)
    print("env: " + json.dumps(environment(case_hash), sort_keys=True))
    if run.uses_cli:
        run.cli.open()
    try:
        run.loop()
    finally:
        if run.uses_cli:
            run.cli.close()
    peak_rss_kb = max(resource.getrusage(who).ru_maxrss for who in
                      ([resource.RUSAGE_CHILDREN] if run.uses_cli else [])
                      + ([] if args.workload == "cli_batch" else [resource.RUSAGE_SELF]))

    attempted = len(run.cases)
    failed = sum(run.failed)
    mismatched = sum(run.mismatched)
    fixed = sum(run.fixed)
    problems = []
    if mismatched:
        problems.append(f"{mismatched} cases disagree with the reference")
    if not run.checker_catches_perturbation():
        problems.append("the output check accepted a perturbed reference")
    print(f"workload {args.workload} seed {args.seed}: {attempted} cases in {run.passes} passes, "
          f"{failed} failed, {fixed} failing at the seed commit now complete, "
          f"trace={args.trace}")
    if args.trace:
        metrics, lines = per_layer(run)
        problems += isolation_problems(run)
    else:
        metrics, lines = end_to_end(run, setup, peak_rss_kb)
    for line in lines:
        print(line)
    for p in problems:
        log(f"INCORRECT: {p}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
