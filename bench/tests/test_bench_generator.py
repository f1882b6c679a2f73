"""The seeded case lists drawn from the stored pools."""

import math

import pytest

import workloads as wl

ALL = sorted(wl.WORKLOADS)


@pytest.fixture(scope="module")
def pools():
    return {name: wl.load_pool(name) for name in ALL}


@pytest.mark.parametrize("name", ALL)
def test_same_seed_same_list_other_seed_other_list(name, pools):
    h1 = wl.case_list_hash(wl.case_list(name, 1, pools[name]))
    assert h1 == wl.case_list_hash(wl.case_list(name, 1, pools[name]))
    assert h1 != wl.case_list_hash(wl.case_list(name, 2, pools[name]))


@pytest.mark.parametrize("name", ALL)
def test_the_block_fills_the_design(name, pools):
    cases = wl.case_list(name, 5, pools[name])
    design = wl.WORKLOADS[name].design()
    assert len(design) == wl.BLOCK >= 40
    assert len(cases) == wl.BLOCK
    expected = sorted(s.get("of", i) for i, s in enumerate(design))
    assert sorted(c["slot"] for c in cases) == expected
    for c in cases:
        assert c["part"] == design[c["slot"]].get("part", name)


@pytest.mark.parametrize("name", wl.POOLED)
def test_pool_points_sit_in_their_slots(name, pools):
    design = wl.WORKLOADS[name].design()
    for e in pools[name]["pool"]:
        slot, p = design[e["slot"]], e["params"]
        if "alpha" in slot:  # drawn values are rounded to 6 significant digits
            lo, hi = slot["alpha"]
            assert lo * (1 - 1e-5) <= p["alpha"] <= hi * (1 + 1e-5), (e, slot)
        if "H" in slot:
            lo, hi = slot["H"]
            assert lo - 1e-5 <= p["H"] <= hi + 1e-5, (e, slot)


def test_embed_scan_ranges(pools):
    for e in pools["embed_scan"]["pool"]:
        p = e["params"]
        assert 0.004 <= p["alpha"] <= 0.2
        assert 0.0 <= p["H"] <= 3.0
        assert p["n"] in (2048, 3000, 4096)
        assert p["x_max"] in (8.0, 9.0)


def test_embed_scan_holds_h0_band_and_seed_failing_cases(pools):
    block = wl.case_list("embed_scan", 11, pools["embed_scan"])
    h0 = [c for c in block if c["params"]["H"] == 0.0]
    band = [c for c in block if c["ref"].get("embedded") is False]
    failing = [c for c in block if c["ref"].get("error") == "ReconstructionError"]
    assert len(h0) >= 6
    assert len(band) >= 3
    assert len(failing) == 4
    assert all(c["params"]["n"] == 2048 and c["params"]["alpha"] <= 0.005 for c in failing)


def test_profile_rank_ranges(pools):
    alphas = []
    for e in pools["profile_rank"]["pool"]:
        p = e["params"]
        alphas.append(p["alpha"])
        assert 0.02 <= p["alpha"] <= 3.0
        assert p["n"] in (300, 400)
        total = 2.0 * math.pi**2 * math.sqrt(p["alpha"])
        assert len(p["V"]) >= 2
        assert all(0.0 < V < total for V in p["V"])
    # the three regimes a < 1/3, 1/3 <= a < 1 and a > 1 are all present
    assert min(alphas) < 1 / 3 and any(1 / 3 <= a < 1 for a in alphas) and max(alphas) > 1


def test_classify_sweep_ranges_and_near_boundary_share(pools):
    pool = pools["classify_sweep"]
    design = wl.WORKLOADS["classify_sweep"].design()
    near = 0
    for e in pool["pool"]:
        p, kind = e["params"], design[e["slot"]]["kind"]
        assert 0.01 <= p["alpha"] <= 5.0
        assert 0.0 <= p["H"] <= 5.0
        assert p["n"] in (2000, 4000, 8000)
        if kind == "near_H":
            assert abs(p["H"] / e["ref"]["H_boundary"] - 1.0) <= 1e-6
            near += 1
        elif kind == "near_H_star":
            a = p["alpha"]
            h_star = (1 - 3 * a) / (2 * math.sqrt(a * (1 - 2 * a)))
            assert abs(p["H"] / h_star - 1.0) <= 1e-6 + 1e-12
            near += 1
    assert near > 0 and set(pool["constants"]) == {"alpha0", "alpha1", "t0",
                                                   "alpha_hyperbolic", "crossing_alpha"}


def test_cli_batch_commands(pools):
    kinds = {e["params"]["argv"][0] for e in pools["cli_batch"]["pool"]}
    assert kinds == {"constants", "sphere", "torus", "candidate", "regions", "profiles"}
    for e in pools["cli_batch"]["pool"]:
        argv = e["params"]["argv"]
        assert "--out" not in argv
        if argv[0] == "profiles":
            assert int(argv[argv.index("--n") + 1]) <= 80
        if argv[0] == "regions":
            assert argv[-2:] == ["--format", "csv+svg"]
    assert any("--meridian-n" in e["params"]["argv"] for e in pools["cli_batch"]["pool"])
    block = wl.case_list("cli_batch", 3, pools["cli_batch"])
    argvs = [tuple(c["params"]["argv"]) for c in block if c["params"]["argv"] != ["constants"]]
    assert len(argvs) - len(set(argvs)) == len(wl.CliBatch.REPEATS)  # determinism reruns


def test_query_mix_draws_every_part_and_no_meridian(pools):
    block = wl.case_list("query_mix", 4, pools["query_mix"])
    parts = [c["part"] for c in block]
    assert (parts.count("profile_rank"), parts.count("classify_sweep"),
            parts.count("cli_batch")) == (20, 16, 4)
    design = wl.WORKLOADS["query_mix"].design()
    # the profile slots cover every alpha bin of profile_rank, both n
    prof = [s for s in design if s["part"] == "profile_rank"]
    assert len({s["alpha"] for s in prof}) == 20 and {s["n"] for s in prof} == {300, 400}
    # the classify slots keep both near-boundary kinds, every alpha and H bin, every n
    cls = [s for s in design if s["part"] == "classify_sweep"]
    assert {s["kind"] for s in cls} == {"near_H", "near_H_star", "general"}
    general = [s for s in cls if s["kind"] == "general"]
    assert len({s["alpha"] for s in general}) == 8 and len({s["H"] for s in general}) == 4
    assert {s["n"] for s in cls} == {2000, 4000, 8000}
    argvs = [c["params"]["argv"] for c in block if c["part"] == "cli_batch"]
    assert sorted(a[0] for a in argvs) == ["candidate", "profiles", "regions", "sphere"]
    assert not any("--meridian-n" in a for a in argvs)
    assert wl.constants_case(pools["query_mix"])["ref"] == pools["classify_sweep"]["constants"]
