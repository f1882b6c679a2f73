"""In-memory spans around the program's module-level functions.

The tracer replaces module attributes of the bergercmc modules with
wrappers that record a span (name, start, end, parent, case id) per call
plus a few counts taken from arguments and results.  Nothing under src/
changes: the program's own calls go through the module globals, so they
reach the wrappers.  `install` returns the patches and `uninstall` undoes
them, so traced and untraced executions can alternate in one process.

Only the stdlib is imported here; the traced CLI child imports this module
before timing its import of the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

from benchstats import self_time


def _arg(call, name):
    sig, args, kwargs = call
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _nfev(prefix):
    def hook(_call, result, tracer):
        tracer.counts[prefix + ".nfev"] += int(result.nfev)
    return hook


def _undecided(_call, result, tracer):
    if result.embedded is None:
        tracer.counts["cmc_spheres.embed.undecided"] += 1


def _exact_hit(_call, result, tracer):
    if result:
        tracer.counts["geometry2d.exact.hits"] += 1


def _report_input(call, _result, tracer):
    import numpy as np  # loaded by the program before this hook can run

    pts = np.asarray(_arg(call, "points"), dtype=float)
    seg = np.hypot(*np.diff(pts, axis=0).T)
    tracer.counts["geometry2d.segments"] += len(seg)
    med = float(np.median(seg))
    tracer.samples["geometry2d.seglen_spread"].append(
        float(seg.max()) / med if med > 0 else float("inf"))


def _spectrum_cells(call, _result, tracer):
    tracer.counts["stability.spectrum.cells"] += _arg(call, "n") * (_arg(call, "k_max") + 1)


def _lattice_points(call, _result, tracer):
    tracer.counts["tori.lattice_points"] += (2 * _arg(call, "N") + 1) ** 2


# (module, attribute, span name, hook).  Functions defined in bergercmc are
# replaced under every name that binds them in a loaded bergercmc module;
# scipy functions only under the named module, so each module's quadratures
# and ODE solves get their own span name.
SPEC = [
    ("cmc_spheres", "reconstruct_meridian", "cmc_spheres.meridian", None),
    ("cmc_spheres", "solve_ivp", "cmc_spheres.meridian_ode", _nfev("cmc_spheres.meridian_ode")),
    ("cmc_spheres", "fit_orbit_generator", "cmc_spheres.orbit", None),
    ("cmc_spheres", "orbit_space_curve", "cmc_spheres.orbit", None),
    ("cmc_spheres", "is_embedded", "cmc_spheres.embed", _undecided),
    ("cmc_spheres", "quad", "cmc_spheres.quad", None),
    ("geometry2d", "polyline_self_intersection_report", "geometry2d.report", _report_input),
    ("geometry2d", "segments_cross", "geometry2d.exact", _exact_hit),
    ("isoperimetry", "quad", "isoperimetry.quad", None),
    ("isoperimetry", "solve_ivp", "isoperimetry.volume_ode", _nfev("isoperimetry.volume_ode")),
    ("isoperimetry", "sphere_profile", "isoperimetry.profile", None),
    ("isoperimetry", "torus_profile", "isoperimetry.torus_profile", None),
    ("isoperimetry", "isoperimetric_candidate", "isoperimetry.candidate", None),
    ("isoperimetry", "crossing_alpha", "isoperimetry.crossing", None),
    ("stability", "jacobi_spectrum", "stability.spectrum", _spectrum_cells),
    ("stability", "eigh_tridiagonal", "stability.eigh", None),
    ("stability", "koiso_integral", "stability.koiso", None),
    ("stability", "quad", "stability.quad", None),
    ("stability", "sphere_stability_boundary", "stability.boundary", None),
    ("tori", "torus_spectrum", "tori.spectrum", _lattice_points),
    ("regions", "critical_constants", "regions", None),
    ("regions", "alpha_curve_csv", "regions", None),
    ("svgplot", "polyline_svg", "svgplot", None),
]


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, case id]
        self.counts = Counter()
        self.samples = defaultdict(list)  # per-call values, e.g. segment-length spread
        self.case = None
        self._stack = []

    def wrap(self, fn, name, hook=None):
        sig = inspect.signature(fn) if hook is not None else None
        spans, counts, stack = self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.case]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".failed"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook((sig, args, kwargs), result, self)
            return result

        return traced


def install(tracer: Tracer) -> list:
    """Wrap the SPEC functions; returns the patches for `uninstall`."""
    mods = [importlib.import_module(f"bergercmc.{m}") for m, *_ in SPEC]
    loaded = [m for k, m in sorted(sys.modules.items())
              if k == "bergercmc" or k.startswith("bergercmc.")]
    patches = []
    for mod, (_, attr, name, hook) in zip(mods, SPEC):
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(orig, name, hook)
        if getattr(orig, "__module__", "").startswith("bergercmc"):
            targets = [(m, k) for m in loaded for k, v in vars(m).items() if v is orig]
        else:
            targets = [(mod, attr)]
        for m, k in targets:
            patches.append((m, k, orig))
            setattr(m, k, wrapped)
    return patches


def uninstall(patches) -> None:
    for m, k, orig in reversed(patches):
        setattr(m, k, orig)


def aggregate(spans):
    """Per span name: call count, busy time and self time.

    Busy time sums the spans with no ancestor of the same name, so a
    function that calls itself counts once; self time subtracts from each
    span what its children cover.
    """
    children = defaultdict(list)
    for name, start, end, parent, _case in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls, busy, selft = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent, _case) in enumerate(spans):
        calls[name] += 1
        selft[name] += self_time(start, end, children[i])
        p, nested = parent, False
        while p is not None:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            busy[name] += end - start
    return calls, busy, selft
