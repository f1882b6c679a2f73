"""The output lock: every command's stdout, exit code, CSVs and SVGs, pinned in
tests/golden/outputs.json.

The commands run in process, through cli.main and the two scripts' entry
points, each into its own directory.  Output paths are replaced by OUT_TOKEN.
The manifest stores the exact stdout, and for each CSV its header, its row count
and every k-th row, about ROWS_KEPT of them (every row of a short file); for each
SVG, each polyline's point count and every k-th point.  Comparison: text exactly, numbers within
REL_TOL relative, the meridian's residual columns within RESIDUAL_FLOOR absolute,
the sphere spectrum's zero rows as the multiset of their modes k, and SVG
coordinates within PX_TOL pixels.

Regenerate the manifest, after a change that moves an output on purpose:

    PYTHONPATH=src python tests/output_lock.py
"""

import contextlib
import importlib.util
import io
import json
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "outputs.json"
OUT_TOKEN = "<out>"
ROWS_KEPT = 24  # a file keeps every row up to twice this, else about this many
REL_TOL = 1e-13
# the meridian's residual columns are rounding noise below its contract's
# tolerance, 16 eps max(1, sqrt a, 1/sqrt a): 3.6e-12 at a = 1e-6
RESIDUAL_COLUMNS = ("metric_residual", "C_residual")
RESIDUAL_FLOOR = 1e-11
# the zero modes of the sphere spectrum are eigensolver noise near 1e-9, and their
# signs set their order among themselves
ZERO_MODE = 1e-8
PX_TOL = 0.01

# (name, the arguments of cli.main after --out DIR, or the script run with DIR)
COMMANDS = [
    ("constants", ["constants"]),
    ("sphere", ["sphere", "--alpha", "0.5", "--H", "1"]),
    ("sphere-meridian", ["sphere", "--alpha", "0.5", "--H", "1", "--meridian-n", "2048"]),
    ("torus", ["torus", "--alpha", "0.5", "--H", "0"]),
    ("candidate-sphere", ["candidate", "--alpha", "0.5", "--V", "6.9"]),
    ("regions", ["regions"]),
    ("embeddedness", ["embeddedness"]),
    ("profiles", ["profiles"]),
    ("selftest", ["selftest"]),
    ("sphere-meridian-x700", ["sphere", "--alpha", "1e-6", "--H", "0.3", "--x-max", "700",
                              "--meridian-n", "4096"]),
    ("torus-a3", ["torus", "--alpha", "3", "--H", "0.5"]),
    ("torus-a50", ["torus", "--alpha", "50", "--H", "2"]),
    ("candidate-torus", ["candidate", "--alpha", "0.1", "--V", "2.5"]),
    ("make_figures", "make_figures.py"),
    ("embeddedness_scan", "embeddedness_scan.py"),
]


def _script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv, out: Path) -> int:
    from bergercmc.cli import main

    if isinstance(argv, list):
        return main(["--out", str(out), *argv])
    if argv == "make_figures.py":
        return _script(argv).run(str(out))
    _script(argv).scan(str(out), 8)  # the script's default of 8 values of alpha
    return 0


def _stride(n: int) -> int:
    return 1 if n <= 2 * ROWS_KEPT else n // ROWS_KEPT


def _csv(path: Path) -> dict:
    header, *rows = path.read_text().splitlines()
    k = _stride(len(rows))
    return {"header": header, "rows": len(rows), "stride": k,
            "kept": [row.split(",") for row in rows[::k]]}


def _svg(path: Path) -> dict:
    lines = []
    for points in re.findall(r'<polyline points="([^"]*)"', path.read_text()):
        xy = [[float(v) for v in p.split(",")] for p in points.split()]
        k = _stride(len(xy))
        lines.append({"points": len(xy), "stride": k, "kept": xy[::k]})
    return {"polylines": lines}


def capture(tmp: Path, commands=COMMANDS) -> dict:
    """Run each command into its own directory under tmp; their outputs by name."""
    result = {}
    for name, argv in commands:
        out = tmp / name
        out.mkdir(parents=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = _run(argv, out)
        files = {}
        for path in sorted(out.iterdir()):
            files[path.name] = _csv(path) if path.suffix == ".csv" else _svg(path)
        result[name] = {"code": code, "stdout": buf.getvalue().replace(str(out), OUT_TOKEN),
                        "files": files}
    return result


def _close(got: str, want: str, floor: float) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= max(REL_TOL * max(abs(g), abs(w)), floor)


def _zero_modes(rows):
    """Split the rows (k, lambda) of a sphere spectrum: the modes of the zero rows,
    sorted, and the other rows with their positions."""
    zero = sorted(k for k, lam in rows if abs(float(lam)) < ZERO_MODE)
    return zero, [(i, row) for i, row in enumerate(rows) if abs(float(row[1])) >= ZERO_MODE]


def _compare_csv(where: str, got: dict, want: dict) -> None:
    assert (got["header"], got["rows"], got["stride"]) == \
        (want["header"], want["rows"], want["stride"]), where
    columns = want["header"].split(",")
    floors = [RESIDUAL_FLOOR if c in RESIDUAL_COLUMNS else 0.0 for c in columns]
    g_rows, w_rows = got["kept"], want["kept"]
    if columns == ["k", "lambda"]:
        (g_zero, g_rows), (w_zero, w_rows) = _zero_modes(g_rows), _zero_modes(w_rows)
        assert g_zero == w_zero, f"{where}: zero modes {g_zero} != {w_zero}"
        assert [i for i, _ in g_rows] == [i for i, _ in w_rows], f"{where}: zero rows moved"
        g_rows, w_rows = [r for _, r in g_rows], [r for _, r in w_rows]
    for i, (g, w) in enumerate(zip(g_rows, w_rows)):
        assert len(g) == len(w) and all(map(_close, g, w, floors)), f"{where} row {i}: {g} != {w}"


def _compare_svg(where: str, got: dict, want: dict) -> None:
    assert len(got["polylines"]) == len(want["polylines"]), where
    for j, (g, w) in enumerate(zip(got["polylines"], want["polylines"])):
        assert (g["points"], g["stride"]) == (w["points"], w["stride"]), f"{where} polyline {j}"
        for i, (p, q) in enumerate(zip(g["kept"], w["kept"])):
            assert max(abs(p[0] - q[0]), abs(p[1] - q[1])) <= PX_TOL, \
                f"{where} polyline {j} point {i}: {p} != {q}"


def compare(got: dict, want: dict) -> None:
    """Raise AssertionError at the first output of got that differs from want."""
    assert sorted(got) == sorted(want), "the commands differ from the manifest's"
    for name, w in want.items():
        g = got[name]
        assert g["code"] == w["code"], f"{name}: exit code {g['code']} != {w['code']}"
        assert g["stdout"] == w["stdout"], f"{name}: stdout differs"
        assert sorted(g["files"]) == sorted(w["files"]), f"{name}: files differ"
        for fname, wf in w["files"].items():
            check = _compare_csv if fname.endswith(".csv") else _compare_svg
            check(f"{name}/{fname}", g["files"][fname], wf)


def load() -> dict:
    return json.loads(MANIFEST.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = capture(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(outputs, indent=1) + "\n")
    print(f"wrote {MANIFEST.relative_to(ROOT)}: {len(outputs)} commands")
