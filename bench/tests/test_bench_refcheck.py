"""The output checks catch wrong values and accept the reference itself."""

import copy

import pytest

import refcheck
import workloads as wl

IN_PROCESS = ("embed_scan", "profile_rank", "classify_sweep")


@pytest.mark.parametrize("name", IN_PROCESS)
def test_perturbed_reference_is_caught(name):
    w = wl.WORKLOADS[name]
    pool = wl.load_pool(name)
    checked = 0
    for e in pool["pool"]:
        ref = e["ref"]
        if "error" in ref:
            continue
        assert w.check(copy.deepcopy(ref), ref) == []
        bad = refcheck.perturb(ref)
        assert bad is not None
        assert w.check(copy.deepcopy(ref), bad), (name, e)
        checked += 1
    assert checked > 0


def test_constants_compare_to_12_digits():
    w = wl.WORKLOADS["classify_sweep"]
    ref = wl.load_pool("classify_sweep")["constants"]
    assert w.check(dict(ref), ref) == []
    bad = refcheck.perturb(ref)
    assert w.check(dict(ref), bad)
    off = dict(ref, alpha0="0.120883468075")  # last of the 12 digits
    assert w.check(off, ref)


def test_cli_reference_compares_stdout_and_csv():
    pool = wl.load_pool("cli_batch")
    for e in pool["pool"]:
        ref = e["ref"]
        assert refcheck.compare_stdout(ref["stdout"], ref["stdout"]) == []
        bad = refcheck.perturb(ref["stdout"])
        if bad is not None:
            assert refcheck.compare_stdout(bad, ref["stdout"]), e["params"]
        for name, fref in ref["files"].items():
            if fref is None:
                continue
            text = "\n".join([fref["header"]] + fref["rows"]) + "\n"
            one = dict(fref, stride=1, nrows=len(fref["rows"]))
            assert refcheck.compare_csv(name, text, one) == []
            bad = refcheck.perturb(one["rows"])
            if bad is not None:
                bad_text = "\n".join([fref["header"]] + bad) + "\n"
                assert refcheck.compare_csv(name, bad_text, one), name


def test_compare_text_rules():
    assert refcheck.compare_text("verdict = stable", "verdict = stable") is None
    assert refcheck.compare_text("verdict = unstable", "verdict = stable")
    assert refcheck.compare_text("index = 2", "index = 1")
    assert refcheck.compare_text("area = 12.5663706144", "area = 12.5663706143") is None
    assert refcheck.compare_text("area = 12.5664706144", "area = 12.5663706144")
    # a rounded print may move by one unit in its last digit
    assert refcheck.compare_text("H=0.123457", "H=0.123456") is None
    assert refcheck.compare_text("H=0.123459", "H=0.123456")
    # a short %g print is exact to the digits it shows
    assert refcheck.compare_text("alpha=0.5005", "alpha=0.5")
    assert refcheck.compare_text("k,1e-10", "k,2e-10") is None  # zero mode at unit scale


def test_embeddedness_line_compares_verdict_and_crossings_only():
    ref = ["embeddedness = embedded (margin 0.0614, crossings 0)"]
    assert refcheck.compare_stdout(["embeddedness = embedded (margin 0.0611, crossings 0)"],
                                   ref) == []
    assert refcheck.compare_stdout(["embeddedness = undecided (margin 0.0614, crossings 0)"],
                                   ref)
    assert refcheck.compare_stdout(["embeddedness = embedded (margin 0.0614, crossings 1)"],
                                   ref)


def test_perturb_without_numbers():
    assert refcheck.perturb({"error": "ReconstructionError"}) is None
    assert refcheck.perturb({"x": 0.0}) == {"x": 1e-3}
    assert refcheck.perturb({"a": None, "b": False, "c": 2}) == {"a": None, "b": True, "c": 2}
    assert refcheck.perturb(["n = 3", "x = 2.5"]) == ["n = 3", f"x = {2.5 * 1.001!r}"]
