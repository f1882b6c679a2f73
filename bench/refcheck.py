"""Comparison of program outputs with the references stored at the seed commit.

Tolerances, by kind of quantity:
  - verdicts, embeddedness flags, crossing counts, index, nullity, candidate
    family and every integer are compared exactly;
  - the five constants are compared to 12 significant digits, the precision
    `bergercmc constants` prints;
  - other floats are integral quantities, compared to 1e-6 relative (the
    README's convention), with an absolute floor for values that vanish up
    to rounding.  A number printed rounded (six or more significant digits)
    also may move by one unit in its last printed digit.
Text in stdout and CSV files is compared exactly.  Quantities that measure
the discretization rather than the surface (the embeddedness clearance
margin, the meridian residual columns) are not compared with the reference.
"""

from __future__ import annotations

import math
import re

REL = 1e-6
ABS = 1e-12      # margins and other quantities that are zero up to rounding
TEXT_ABS = 1e-9  # CSV and stdout: zero modes and residual columns at unit scale
CONSTANTS = ("alpha0", "alpha1", "t0", "alpha_hyperbolic", "crossing_alpha")

EMBED_LINE = re.compile(r"\(margin [^,]*, (crossings \d+)\)")
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def sig12(x: float) -> str:
    return f"{x:.12g}"


def close(got: float, ref: float, rel: float = REL, abs_: float = ABS) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return got == ref or (math.isnan(ref) and math.isnan(got))
    return abs(got - ref) <= max(rel * abs(ref), abs_)


def compare_fields(got: dict, ref: dict, exact=(), numeric=()) -> list[str]:
    """Mismatch messages for the named fields of two flat output records."""
    out = []
    for k in exact:
        if got[k] != ref[k]:
            out.append(f"{k}: got {got[k]!r}, reference {ref[k]!r}")
    for k in numeric:
        if (got[k] is None) != (ref[k] is None) or (
                ref[k] is not None and not close(got[k], ref[k])):
            out.append(f"{k}: got {got[k]!r}, reference {ref[k]!r}")
    return out


def _token_unit(tok: str) -> float:
    """One unit in the last printed digit of a token with six or more
    significant digits (a rounded print); 0 for shorter tokens, which %g
    leaves short only when the value is short."""
    mant, _, exp = tok.lower().partition("e")
    mant = mant.lstrip("+-")
    if len(mant.replace(".", "").lstrip("0")) < 6:
        return 0.0
    decimals = len(mant.partition(".")[2])
    return 10.0 ** (int(exp or 0) - decimals)


def _is_int(tok: str) -> bool:
    return re.fullmatch(r"[-+]?\d+", tok) is not None


def compare_text(got: str, ref: str) -> str | None:
    """None if two lines agree: text exactly, numbers by the tolerances above."""
    if got == ref:
        return None
    gparts, rparts = NUMBER.split(got), NUMBER.split(ref)
    gnums, rnums = NUMBER.findall(got), NUMBER.findall(ref)
    if gparts != rparts or len(gnums) != len(rnums):
        return f"text differs: {got!r} vs reference {ref!r}"
    for g, r in zip(gnums, rnums):
        if _is_int(r) or _is_int(g):
            if g != r:
                return f"integer {g} vs reference {r} in {ref!r}"
            continue
        gv, rv = float(g), float(r)
        if not close(gv, rv, abs_=max(TEXT_ABS, 1.5 * _token_unit(r))):
            return f"number {g} vs reference {r} in {ref!r}"
    return None


def compare_stdout(got_lines, ref_lines) -> list[str]:
    if len(got_lines) != len(ref_lines):
        return [f"stdout has {len(got_lines)} lines, reference {len(ref_lines)}"]
    out = []
    for g, r in zip(got_lines, ref_lines):
        key = r.partition(" = ")[0]
        if key == "embeddedness":
            # verdict and crossing count; the clearance margin is a grid quantity
            g, r = EMBED_LINE.sub(r"\1", g), EMBED_LINE.sub(r"\1", r)
        if key in CONSTANTS or key == "embeddedness" or r.startswith("wrote "):
            if g != r:
                out.append(f"stdout line {g!r} vs reference {r!r}")
            continue
        msg = compare_text(g, r)
        if msg:
            out.append("stdout " + msg)
    return out


def csv_reference(text: str, stride: int = 1, skip=()) -> dict:
    """The stored form of a CSV file: header, row count, every stride-th row
    and the names of columns left out of the comparison."""
    lines = text.splitlines()
    return {"header": lines[0], "nrows": len(lines) - 1, "stride": stride,
            "skip": list(skip), "rows": lines[1::stride]}


def compare_csv(name: str, text: str, ref: dict) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != ref["header"]:
        return [f"{name}: header {lines[:1]} vs reference {ref['header']!r}"]
    if len(lines) - 1 != ref["nrows"]:
        return [f"{name}: {len(lines) - 1} rows, reference {ref['nrows']}"]
    out = []
    skip = {ref["header"].split(",").index(c) for c in ref["skip"]}
    for g, r in zip(lines[1::ref["stride"]], ref["rows"]):
        gf, rf = g.split(","), r.split(",")
        if len(gf) != len(rf):
            out.append(f"{name}: row {g!r} vs reference {r!r}")
            continue
        for col, (gv, rv) in enumerate(zip(gf, rf)):
            if col in skip:
                continue
            msg = compare_text(gv, rv)
            if msg:
                out.append(f"{name}: {msg}")
                break
    return out


def perturb(ref):
    """A copy of a reference with its first value changed: a flag flipped,
    an integer incremented or a float moved by 1e-3 relative.

    Used to prove that the comparison of a workload catches a wrong value;
    returns None if the reference holds none of these.
    """
    done = [False]

    def bump(x: float) -> float:
        return x * (1.0 + 1e-3) if x else 1e-3

    def walk(v):
        if done[0]:
            return v
        if v is None:
            return v
        if isinstance(v, bool):
            done[0] = True
            return not v
        if isinstance(v, int):
            done[0] = True
            return v + 1
        if isinstance(v, float) and math.isfinite(v):
            done[0] = True
            return bump(v)
        if isinstance(v, str):
            for m in NUMBER.finditer(v):
                tok = m.group(0)
                if _is_int(tok) or tok in ("inf", "nan"):
                    continue
                done[0] = True
                return v[:m.start()] + repr(bump(float(tok))) + v[m.end():]
            return v
        if isinstance(v, list):
            return [walk(x) for x in v]
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        return v

    out = walk(ref)
    return out if done[0] else None
