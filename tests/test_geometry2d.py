import math
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from bergercmc.cmc_spheres import orbit_space_curve, reconstruct_meridian
from bergercmc.geometry2d import (CLOSE_CAP, _candidate_pairs, _clearance_pairs, _ramp,
                                  polyline_self_intersection_report,
                                  segments_cross)


def test_segments_cross_basic():
    assert segments_cross((0, 0), (1, 1), (0, 1), (1, 0))
    assert not segments_cross((0, 0), (1, 0), (0, 1), (1, 1))
    # shared endpoint only: adjacent-style touch does not count as a crossing
    assert segments_cross((0, 0), (1, 0), (0.5, -1), (0.5, 1))


def test_segments_collinear():
    assert segments_cross((0, 0), (2, 0), (1, 0), (3, 0))  # overlap
    assert not segments_cross((0, 0), (1, 0), (2, 0), (3, 0))  # disjoint
    assert not segments_cross((0, 0), (1, 0), (1, 0), (2, 0))  # endpoint touch


def test_segments_cross_is_exact():
    # 0.1 + 0.2 = 0.30000000000000004 exactly: a vertical segment at 0.3
    # misses a horizontal one starting at 0.1 + 0.2, but crosses one that
    # starts at 0.3; tolerance-based predicates get one of these wrong
    assert not segments_cross((0.1 + 0.2, 0), (1, 0), (0.3, -1), (0.3, 1))
    assert segments_cross((0.3, 0), (1, 0), (0.1 + 0.2, -1), (0.1 + 0.2, 1))


def test_simple_arc_has_no_crossings():
    t = np.linspace(0, np.pi, 400)
    pts = np.column_stack([np.cos(t), np.sin(t)])
    rep = polyline_self_intersection_report(pts)
    assert rep.crossings == 0
    assert rep.margin >= 10 * rep.resolution


def test_figure_eight_detected():
    t = np.linspace(0, 2 * np.pi, 801)
    pts = np.column_stack([np.sin(2 * t), np.sin(t)])  # crosses at the origin
    rep = polyline_self_intersection_report(pts)
    assert rep.crossings >= 1


def test_straight_segment_is_simple():
    x = np.linspace(0, 1, 300)
    pts = np.column_stack([x, np.zeros_like(x)])  # exactly collinear samples
    rep = polyline_self_intersection_report(pts)
    assert rep.crossings == 0
    assert rep.margin >= 10 * rep.resolution


def test_near_touch_margin_small():
    # two long prongs at distance delta force a small margin
    delta = 1e-4
    up = np.column_stack([np.linspace(0, 1, 200), np.zeros(200)])
    back = np.column_stack([np.linspace(1, 0, 200), np.full(200, delta)])
    pts = np.vstack([up, back + [0, 0]])
    rep = polyline_self_intersection_report(pts)
    assert rep.crossings == 0
    assert rep.margin == pytest.approx(delta, rel=0.5)
    assert rep.margin < 10 * rep.resolution  # an undecided configuration


def test_rejects_bad_input():
    t = np.linspace(0, 1, 50)
    good = np.column_stack([t, t**2])
    for bad in (np.nan, np.inf, -np.inf):
        pts = good.copy()
        pts[17, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            polyline_self_intersection_report(pts)
    for pts in (np.empty((0, 2)), good[:1], [], good[:, :1], good.ravel()):
        with pytest.raises(ValueError, match="n >= 2"):
            polyline_self_intersection_report(pts)
    assert polyline_self_intersection_report(good[:2]).crossings == 0


@pytest.mark.parametrize("pts,margin,resolution", [
    (np.full((40, 2), 0.3), 0.0, 0.0),  # every point coincides: zero resolution
    (np.ones((2, 2)), 0.0, 0.0),
    (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), 20.0, 1.0),  # one repeated point
])
def test_degenerate_curves(pts, margin, resolution):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = polyline_self_intersection_report(pts)
    assert (rep.crossings, rep.margin, rep.resolution) == (0, margin, resolution)


# ---------------------------------------------------------------------------
# oracles: the spatial-hash candidate search and the per-pair clearance loop
# ---------------------------------------------------------------------------

def _hash_candidate_pairs(points, index_gap):
    """Segment pairs with overlapping bounding boxes, from a uniform spatial hash."""
    n = len(points) - 1
    seg_lo = np.minimum(points[:-1], points[1:])
    seg_hi = np.maximum(points[:-1], points[1:])
    cell = float(np.max(seg_hi - seg_lo))
    if cell == 0.0:
        return []
    grid = {}
    for i in range(n):
        i0, j0 = int(seg_lo[i, 0] // cell), int(seg_lo[i, 1] // cell)
        i1, j1 = int(seg_hi[i, 0] // cell), int(seg_hi[i, 1] // cell)
        for ci in range(i0, i1 + 1):
            for cj in range(j0, j1 + 1):
                grid.setdefault((ci, cj), []).append(i)
    pairs = set()
    for bucket in grid.values():
        bucket.sort()
        for u in range(len(bucket)):
            for v in range(u + 1, len(bucket)):
                i, j = bucket[u], bucket[v]
                if j - i > index_gap:
                    if (seg_lo[i, 0] <= seg_hi[j, 0] and seg_lo[j, 0] <= seg_hi[i, 0] and
                            seg_lo[i, 1] <= seg_hi[j, 1] and seg_lo[j, 1] <= seg_hi[i, 1]):
                        pairs.add((i, j))
    return sorted(pairs)


def _segment_distance(p, q, r, s):
    # elementwise sums, as in _point_segment_distance: a BLAS dot product may
    # round differently (1 ulp on the a = 0.01 meridian)
    def norm(v):
        return float(np.sqrt((v * v).sum()))

    def pt_seg(c, a, b):
        ab = b - a
        denom = float((ab * ab).sum())
        if denom == 0.0:
            return norm(c - a)
        t = float(((c - a) * ab).sum()) / denom
        t = min(1.0, max(0.0, t))
        return norm(c - (a + t * ab))

    return min(pt_seg(p, r, s), pt_seg(q, r, s), pt_seg(r, p, q), pt_seg(s, p, q))


def _query_far_pairs(pts, arc_factor=20.0):
    """Clearance pairs from query_pairs over all points, then the arc filter."""
    seglen = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    res = float(np.max(seglen))
    arclen = np.concatenate([[0.0], np.cumsum(seglen)])
    arc_min = arc_factor * res
    qp = cKDTree(pts).query_pairs(arc_min, output_type="ndarray")
    keep = arclen[qp[:, 1]] - arclen[qp[:, 0]] >= arc_min
    return qp[keep, 0], qp[keep, 1], arclen, res, arc_min


def _loop_margin(pts, arc_factor=20.0):
    """Clearance margin refined pair by pair; also returns the close-pair count."""
    ii, jj, _, res, arc_min = _query_far_pairs(pts, arc_factor)
    nseg = len(pts) - 1
    if not len(ii):
        return arc_min, 0
    d = np.linalg.norm(pts[ii] - pts[jj], axis=1)
    dmin = float(d.min())
    close = np.nonzero(d <= dmin + 2.0 * res)[0]
    nclose = len(close)
    if nclose > CLOSE_CAP:
        close = close[np.lexsort((jj[close], ii[close], d[close]))[:CLOSE_CAP]]
    best = dmin
    for a_, b_ in zip(ii[close], jj[close]):
        for si in range(max(a_ - 1, 0), min(a_, nseg - 1) + 1):
            for sj in range(max(b_ - 1, 0), min(b_, nseg - 1) + 1):
                best = min(best, _segment_distance(pts[si], pts[si + 1], pts[sj], pts[sj + 1]))
    return min(arc_min, best), nclose


def _with_repeats(pts, every):
    """Insert a copy of every `every`-th point: zero-length segments."""
    idx = np.repeat(np.arange(len(pts)), np.where(np.arange(len(pts)) % every == 0, 2, 1))
    return pts[idx]


def _oracle_curves():
    rng = np.random.default_rng(7)
    curves = {f"walk{k}": np.cumsum(rng.standard_normal((n, 2)), axis=0)
              for k, n in enumerate((50, 400, 1500))}
    t = np.linspace(0, 2 * np.pi, 801)
    curves["figure8"] = np.column_stack([np.sin(2 * t), np.sin(t)])
    # meridian-like: speed decays like sech^2, so the tail segments shrink
    # geometrically and pile up near the two end points
    x = np.linspace(-8, 8, 2048)
    s = np.tanh(x)
    curves["meridian_like"] = np.column_stack([s * np.cos(5 * s), 0.3 * np.sin(7 * s)])
    u = np.linspace(0, 1, 300)
    curves["horizontal"] = np.column_stack([u, np.zeros_like(u)])
    curves["vertical"] = np.column_stack([np.full_like(u, 0.25), u])
    curves["vertical_back"] = np.column_stack([np.full(600, 0.25), np.r_[u, u[::-1]]])
    curves["walk_repeats"] = _with_repeats(curves["walk1"], 5)
    curves["figure8_repeats"] = _with_repeats(curves["figure8"], 3)
    return curves


@pytest.mark.parametrize("name", sorted(_oracle_curves()))
def test_candidate_pairs_match_spatial_hash(name):
    pts = _oracle_curves()[name]
    for gap in (1, 3):
        swept = [tuple(p) for p in _candidate_pairs(pts, gap).tolist()]
        assert swept == _hash_candidate_pairs(pts, gap)


def test_candidate_pairs_all_identical_points():
    # the hash has no cell size here and returns no pairs; the sweep pairs
    # every point with every other, and the exact test finds no crossing
    pts = np.full((40, 2), 0.3)
    assert _hash_candidate_pairs(pts, 1) == []
    assert len(_candidate_pairs(pts, 1)) == 38 * 37 // 2
    assert polyline_self_intersection_report(pts).crossings == 0


def _prongs(npts, delta):
    up = np.column_stack([np.linspace(0, 1, npts), np.zeros(npts)])
    back = np.column_stack([np.linspace(1, 0, npts), np.full(npts, delta)])
    return np.vstack([up, back])


def _meridian_curve(alpha, H, n, x_max=8.0):
    m = reconstruct_meridian(alpha, H, (-x_max, x_max), n)
    return orbit_space_curve(m)


# embed_scan pool points: near contact whose close pairs pass the cap, two
# crossings, no far pair at all, and 1,999 close pairs below the 2000th least
# distance with 2 pairs at it, so the cap must break a tie
POOL_MERIDIANS = {
    "meridian_capped_near_contact": (0.0458186, 0.875413, 2048, 8.0),
    "meridian_two_crossings": (0.00546184, 1.27128, 3000, 9.0),
    "meridian_no_far_pairs": (0.05, 0.0, 4096, 8.0),
    "meridian_tie_at_cap": (0.010059, 2.50451, 2048, 8.0),
}


@pytest.mark.parametrize("name,pts,capped", [
    ("figure8", _oracle_curves()["figure8"], False),
    ("walk_repeats", _oracle_curves()["walk_repeats"], True),
    ("figure8_repeats", _oracle_curves()["figure8_repeats"], False),
    ("prongs", _prongs(200, 1e-4), False),
    ("prongs_capped", _prongs(1000, 1e-4), True),
    ("prongs_capped_repeats", _with_repeats(_prongs(1000, 1e-4), 7), True),
])
def test_margin_matches_pairwise_loop(name, pts, capped):
    margin, nclose = _loop_margin(pts)
    assert (nclose > CLOSE_CAP) == capped
    assert polyline_self_intersection_report(pts).margin == margin


@pytest.mark.parametrize("name,least,most", [
    ("meridian_capped_near_contact", CLOSE_CAP + 1, math.inf),
    ("meridian_two_crossings", 1, CLOSE_CAP),
    ("meridian_no_far_pairs", 0, 0),  # the margin stays at its cap arc_min
])
def test_pool_meridian_margin_matches_pairwise_loop(name, least, most):
    pts = _meridian_curve(*POOL_MERIDIANS[name])
    margin, nclose = _loop_margin(pts)
    assert least <= nclose <= most
    assert polyline_self_intersection_report(pts).margin == margin


def test_cap_breaks_ties_by_distance_then_index():
    # two pairs tie for the 2000th least distance; the cap keeps the one
    # first in (i, j), whatever order the search forms the pairs in
    pts = _meridian_curve(*POOL_MERIDIANS["meridian_tie_at_cap"])
    ii, jj, _, res, _ = _query_far_pairs(pts)
    d = np.linalg.norm(pts[ii] - pts[jj], axis=1)
    close = np.sort(d[d <= d.min() + 2.0 * res])
    assert len(close) > CLOSE_CAP
    at = close[CLOSE_CAP - 1]
    assert ((close < at).sum(), (close == at).sum()) == (CLOSE_CAP - 1, 2)
    assert polyline_self_intersection_report(pts).margin == _loop_margin(pts)[0]


# ---------------------------------------------------------------------------
# oracle: the clearance pairs from query_pairs over all points, and the
# all-pairs arc-chunked search
# ---------------------------------------------------------------------------

def _far_pairs(pts, arclen, h, arc_min):
    """Point index pairs (i, j), i < j, at most arc_min apart in the plane
    and at least arc_min apart along the curve, with their distances,
    without enumerating the pairs that are near along the curve.

    The polyline is cut into runs of consecutive points whose arc span is
    below h > 0; as chord <= arc, every point lies within h of its run's
    head.  Two points at most arc_min apart therefore belong to runs whose
    heads are at most arc_min + 2 h apart.  Of those run pairs (a, b), the
    ones whose largest arc separation is below arc_min are dropped, and so
    is each point of run a whose largest arc separation from run b is below
    arc_min; only the rest is expanded into point pairs.
    """
    run = np.floor(arclen / h)
    start = np.flatnonzero(np.r_[True, run[1:] != run[:-1]])
    size = np.diff(np.r_[start, len(pts)])
    last = start + size - 1
    rho = np.linalg.norm(pts - np.repeat(pts[start], size, axis=0), axis=1)
    runs = cKDTree(pts[start]).query_pairs(arc_min + 2.0 * float(rho.max()),
                                           output_type="ndarray")
    a, b = runs[:, 0], runs[:, 1]  # a < b
    keep = arclen[last[b]] - arclen[start[a]] >= arc_min
    a, b = a[keep], b[keep]
    i = np.repeat(start[a], size[a]) + _ramp(size[a])
    b = np.repeat(b, size[a])
    keep = arclen[last[b]] - arclen[i] >= arc_min
    i, b = i[keep], b[keep]
    j = np.repeat(start[b], size[b]) + _ramp(size[b])
    i = np.repeat(i, size[b])
    dx = pts[i, 0] - pts[j, 0]
    dy = pts[i, 1] - pts[j, 1]
    sq = dx * dx + dy * dy
    keep = (arclen[j] - arclen[i] >= arc_min) & (sq <= arc_min * arc_min)
    return i[keep], j[keep], np.sqrt(sq[keep])


def _far_pair_curves():
    curves = {name: (lambda pts=pts: pts) for name, pts in _oracle_curves().items()}
    curves["prongs"] = lambda: _prongs(200, 1e-4)
    curves["prongs_capped"] = lambda: _prongs(1000, 1e-4)
    curves["prongs_capped_repeats"] = lambda: _with_repeats(_prongs(1000, 1e-4), 7)
    curves["meridian_a0.01_H1_n2048"] = lambda: _meridian_curve(0.01, 1.0, 2048)
    curves["round_sphere_n4096"] = lambda: _meridian_curve(1.0, 0.0, 4096)
    # unit steps, legs exactly arc_min = 20 apart: the pairs on the boundary count
    leg = np.arange(31.0)
    curves["u_turn_at_arc_min"] = lambda: np.vstack([
        np.column_stack([np.zeros(31), leg]),
        np.column_stack([np.arange(1.0, 20.0), np.full(19, 30.0)]),
        np.column_stack([np.full(31, 20.0), leg[::-1]])])
    return curves


@pytest.mark.parametrize("name", sorted(_far_pair_curves()))
def test_far_pairs_match_query_pairs(name):
    pts = _far_pair_curves()[name]()
    ii, jj, arclen, res, arc_min = _query_far_pairs(pts)
    want = set(zip(ii.tolist(), jj.tolist()))
    i, j, d = _far_pairs(pts, arclen, res, arc_min)
    got = list(zip(i.tolist(), j.tolist()))
    assert len(got) == len(set(got))
    assert set(got) == want
    assert np.array_equal(d, np.linalg.norm(pts[i] - pts[j], axis=1))
    assert polyline_self_intersection_report(pts).margin == _loop_margin(pts)[0]


def _clearance_curves():
    curves = _far_pair_curves()
    for name, args in POOL_MERIDIANS.items():
        curves[name] = lambda args=args: _meridian_curve(*args)
    return curves


@pytest.mark.parametrize("name", sorted(_clearance_curves()))
def test_clearance_pairs_hold_every_pair_that_can_set_the_margin(name):
    # the bounded search returns far pairs only, with their exact distances,
    # and among them the least distance and the close pairs the margin
    # refines: all within 2 res of it, or the CLOSE_CAP first in (d, i, j)
    pts = _clearance_curves()[name]()
    ii, jj, arclen, res, arc_min = _query_far_pairs(pts)
    i, j, d = _clearance_pairs(pts, arclen, res, arc_min)
    got = list(zip(i.tolist(), j.tolist()))
    assert len(got) == len(set(got))
    assert set(got) <= set(zip(ii.tolist(), jj.tolist()))
    assert np.array_equal(d, np.linalg.norm(pts[i] - pts[j], axis=1))
    if not len(ii):
        assert not got
        return
    dd = np.linalg.norm(pts[ii] - pts[jj], axis=1)
    close = np.nonzero(dd <= dd.min() + 2.0 * res)[0]
    close = close[np.lexsort((jj[close], ii[close], dd[close]))[:CLOSE_CAP]]
    assert d.min() == dd.min()
    assert set(zip(ii[close].tolist(), jj[close].tolist())) <= set(got)


def test_clearance_search_forms_few_pairs_on_a_crossing_meridian():
    # a work count, not a timing: the all-pairs search forms every far pair
    pts = _meridian_curve(*POOL_MERIDIANS["meridian_two_crossings"])
    ii, _, arclen, res, arc_min = _query_far_pairs(pts)
    assert len(ii) == 248_718
    assert len(_clearance_pairs(pts, arclen, res, arc_min)[0]) <= 5000
    assert polyline_self_intersection_report(pts).crossings == 2
