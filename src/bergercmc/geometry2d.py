"""Robust planar polyline self-intersection tests.

Candidate segment pairs are the pairs with overlapping bounding boxes,
found by a sort-and-sweep in array code; the actual crossing test runs in
exact rational arithmetic (floats convert exactly to Fractions), so a
reported transverse crossing is never a rounding artifact.  The clearance
margin comes from the point pairs that are near in the plane but far along
the curve, found by a bounded search over short runs of consecutive points:
one k-d tree query over the run heads, an upper bound on the least
distance from the heads themselves, and a lower bound per run pair, so that
only the run pairs that can hold the least distance or a pair close to it
are expanded into point pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ARC_FACTOR = 20.0  # clearance pairs are more than this many segment lengths apart
CLOSE_CAP = 2000  # most point pairs whose segments refine the margin
RUN_MAX = 32  # most points in a run of the clearance search
SLACK = 1e-9  # relative allowance for rounding in the clearance bounds


def _orient(ax, ay, bx, by, cx, cy):
    """Exact sign of the cross product (b - a) x (c - a)."""
    v = (Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay)) - \
        (Fraction(by) - Fraction(ay)) * (Fraction(cx) - Fraction(ax))
    return (v > 0) - (v < 0)


def segments_cross(p, q, r, s) -> bool:
    """Exact test: do the closed segments [p,q] and [r,s] intersect?

    Transverse crossings and improper touchings both count; collinear
    segments count only if their overlap is more than a single shared
    endpoint would give for adjacent segments (callers exclude adjacency).
    """
    o1 = _orient(p[0], p[1], q[0], q[1], r[0], r[1])
    o2 = _orient(p[0], p[1], q[0], q[1], s[0], s[1])
    o3 = _orient(r[0], r[1], s[0], s[1], p[0], p[1])
    o4 = _orient(r[0], r[1], s[0], s[1], q[0], q[1])
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    if o1 == o2 == o3 == o4 == 0:
        # collinear: check 1-d overlap on the dominant axis
        axis = 0 if abs(Fraction(q[0]) - Fraction(p[0])) >= abs(Fraction(q[1]) - Fraction(p[1])) else 1
        a0, a1 = sorted((Fraction(p[axis]), Fraction(q[axis])))
        b0, b1 = sorted((Fraction(r[axis]), Fraction(s[axis])))
        return max(a0, b0) < min(a1, b1)
    # an endpoint lies exactly on the other segment
    for o, a, b, c in ((o1, p, q, r), (o2, p, q, s), (o3, r, s, p), (o4, r, s, q)):
        if o == 0 and _between(a, b, c):
            return True
    return False


def _between(a, b, c) -> bool:
    """c collinear with [a,b]: is c strictly inside the bounding box of [a,b]?"""
    return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) and
            min(a[1], b[1]) <= c[1] <= max(a[1], b[1]) and
            not ((c[0] == a[0] and c[1] == a[1]) or (c[0] == b[0] and c[1] == b[1])))


@dataclass
class IntersectionReport:
    crossings: int
    pairs: list
    margin: float
    resolution: float


def _ramp(count: np.ndarray) -> np.ndarray:
    """0, 1, ..., count[k] - 1 for each k in turn, as one array."""
    return np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)


def _candidate_pairs(points: np.ndarray, index_gap: int) -> np.ndarray:
    """Sorted segment index pairs (i, j), j - i > index_gap, whose closed
    bounding boxes overlap, by a sort-and-sweep (Bentley & Ottmann 1979).

    The sweep runs along the axis of larger extent, along which a straight
    curve is monotone and each segment meets only its neighbours.  Overlap
    runs are expanded and filtered on the other axis as arrays: the cost is
    linear in the number of pairs that overlap along the sweep axis.
    """
    lo = np.minimum(points[:-1], points[1:])
    hi = np.maximum(points[:-1], points[1:])
    ax = int(np.ptp(lo[:, 1]) > np.ptp(lo[:, 0]))
    order = np.argsort(lo[:, ax])
    # sorted position k overlaps along ax with the positions k + 1 .. stop[k] - 1
    stop = np.searchsorted(lo[order, ax], hi[order, ax], side="right")
    run = stop - np.arange(1, len(order) + 1)
    k = np.repeat(np.arange(len(order)), run)
    m = k + 1 + _ramp(run)
    i, j = np.minimum(order[k], order[m]), np.maximum(order[k], order[m])
    keep = (j - i > index_gap) & (lo[i, 1 - ax] <= hi[j, 1 - ax]) & (lo[j, 1 - ax] <= hi[i, 1 - ax])
    i, j = i[keep], j[keep]
    return np.column_stack([i, j])[np.lexsort((j, i))]


def _point_segment_distance(c, a, b) -> np.ndarray:
    """Row-wise distance from the points c to the segments [a, b]."""
    ab = b - a
    denom = (ab * ab).sum(axis=1)
    t = ((c - a) * ab).sum(axis=1)
    # a zero-length segment has ab == 0, so t = 0 leaves the distance |c - a|
    t = np.clip(np.divide(t, denom, out=np.zeros_like(t), where=denom != 0.0), 0.0, 1.0)
    return np.linalg.norm(c - (a + t[:, None] * ab), axis=1)


def _segment_distances(p, q, r, s) -> np.ndarray:
    """Row-wise Euclidean distance between the segments [p, q] and [r, s]."""
    return np.minimum.reduce([_point_segment_distance(p, r, s), _point_segment_distance(q, r, s),
                              _point_segment_distance(r, p, q), _point_segment_distance(s, p, q)])


def _clearance_pairs(pts, arclen, h, arc_min):
    """The point pairs that can set the clearance margin: index pairs
    (i, j), i < j, at least arc_min apart along the curve, with distances.

    The polyline is cut into runs of at most RUN_MAX consecutive points
    whose arc span is below h > 0; as chord <= arc, every point of run a
    lies within rho_a < h of the run's head.  One k-d tree query over the
    heads finds the run pairs whose heads are within arc_min + 2 max(rho),
    the only ones that can hold two points at most arc_min apart; run pairs
    whose largest arc separation is below arc_min are dropped.  Two bounds
    follow from the heads alone:

    - the arc-separated head pairs at most arc_min apart are such point
      pairs themselves, so the nearest of them bounds the least distance
      from above by U;
    - the run pairs whose point pairs are all arc-separated and at most
      ub = |head_a - head_b| + rho_a + rho_b apart bound the CLOSE_CAP-th
      least distance from above by V, the ub at which their point counts,
      in order of ub, first add up to CLOSE_CAP.

    A point pair at most T = min(U + 2 h, V) apart lies in a run pair whose
    lower bound |head_a - head_b| - rho_a - rho_b is at most min(T, arc_min),
    and only those run pairs are expanded into point pairs.

    Returns every pair that cKDTree(pts).query_pairs(arc_min) holds with
    arclen[j] - arclen[i] >= arc_min and distance at most T, in order of
    run pair, then i, then j.  The least distance is among them, and so
    are every pair within 2 h of it or, when those are more than CLOSE_CAP,
    the CLOSE_CAP nearest.
    """
    from scipy.spatial import cKDTree

    run = np.floor(arclen / h)
    cut = (run[1:] != run[:-1]) | (np.arange(1, len(pts)) % RUN_MAX == 0)
    start = np.flatnonzero(np.r_[True, cut])
    size = np.diff(np.r_[start, len(pts)])
    last = start + size - 1
    # the measured distances to the heads (below h) set the query radius and
    # the bounds, so rounding in arclen cannot lose a pair
    rho = np.maximum.reduceat(np.linalg.norm(pts - np.repeat(pts[start], size, axis=0), axis=1),
                              start)
    runs = cKDTree(pts[start]).query_pairs(arc_min + 2.0 * float(rho.max()),
                                           output_type="ndarray")
    a, b = runs[:, 0], runs[:, 1]  # a < b
    keep = arclen[last[b]] - arclen[start[a]] >= arc_min
    a, b = a[keep], b[keep]
    sq = _sq_dist(pts, start[a], start[b])
    head = np.sqrt(sq)
    far = (arclen[start[b]] - arclen[start[a]] >= arc_min) & (sq <= arc_min * arc_min)
    bound = float(head[far].min()) + 2.0 * h if far.any() else np.inf
    # SLACK covers the rounding of the distances in both bounds
    keep = head - rho[a] - rho[b] <= min(bound, arc_min) * (1.0 + SLACK)
    a, b, head = a[keep], b[keep], head[keep]
    ub = (head + rho[a] + rho[b]) * (1.0 + SLACK)
    full = ((ub <= min(bound, arc_min * (1.0 - SLACK)))
            & (arclen[start[b]] - arclen[last[a]] >= arc_min))
    order = np.argsort(ub[full], kind="stable")
    count = np.cumsum((size[a] * size[b])[full][order])
    if len(count) and count[-1] >= CLOSE_CAP:
        bound = float(ub[full][order[np.searchsorted(count, CLOSE_CAP)]])
        keep = head - rho[a] - rho[b] <= bound * (1.0 + SLACK)
        a, b = a[keep], b[keep]
    # expand each run pair into (i, b) for the points i of run a ...
    i = np.repeat(start[a], size[a]) + _ramp(size[a])
    b = np.repeat(b, size[a])
    keep = arclen[last[b]] - arclen[i] >= arc_min
    i, b = i[keep], b[keep]
    # ... and each (i, b) into (i, j) for the points j of run b
    j = np.repeat(start[b], size[b]) + _ramp(size[b])
    i = np.repeat(i, size[b])
    sq = _sq_dist(pts, i, j)
    d = np.sqrt(sq)
    keep = (arclen[j] - arclen[i] >= arc_min) & (sq <= arc_min * arc_min) & (d <= bound)
    return i[keep], j[keep], d[keep]


def _sq_dist(pts, i, j):
    """Squared distances of the point pairs (i, j), summed as np.linalg.norm
    sums them, so their square roots match it bit for bit."""
    dx = pts[i, 0] - pts[j, 0]
    dy = pts[i, 1] - pts[j, 1]
    return dx * dx + dy * dy


def polyline_self_intersection_report(points: np.ndarray) -> IntersectionReport:
    """Exact self-intersection count and clearance margin of an open polyline.

    Crossings are counted over all segment pairs that do not share an
    endpoint.  The margin is the minimum distance between segment pairs
    whose separation along the curve exceeds ARC_FACTOR times the coarsest
    segment length, so it measures genuine near-self-contact rather than
    neighbours along the curve.  Raises ValueError unless points is an
    (n, 2) array of n >= 2 finite points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError(f"polyline needs an (n, 2) array with n >= 2, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("polyline points must be finite")
    seglen = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    res = float(np.max(seglen))
    arclen = np.concatenate([[0.0], np.cumsum(seglen)])

    crossing_pairs = []
    for i, j in _candidate_pairs(pts, index_gap=1).tolist():
        if segments_cross(pts[i], pts[i + 1], pts[j], pts[j + 1]):
            crossing_pairs.append((i, j))

    # clearance margin among arc-separated parts of the curve
    arc_min = ARC_FACTOR * res
    margin = arc_min  # capped: beyond this the curve is safely clear
    nseg = len(seglen)
    if res > 0.0:  # else every point coincides, and the margin is arc_min = 0
        ii, jj, d = _clearance_pairs(pts, arclen, res, arc_min)
        if len(d):
            dmin = float(d.min())
            # refine the point-pair minimum with the segments on either side
            # of each close point pair, at most the CLOSE_CAP nearest by
            # (d, i, j), so ties do not depend on the order of the pairs
            close = np.nonzero(d <= dmin + 2.0 * res)[0]
            if len(close) > CLOSE_CAP:
                close = close[np.lexsort((jj[close], ii[close], d[close]))[:CLOSE_CAP]]
            si = np.clip(ii[close, None] - [1, 0], 0, nseg - 1)
            sj = np.clip(jj[close, None] - [1, 0], 0, nseg - 1)
            si, sj = np.repeat(si, 2, axis=1).ravel(), np.tile(sj, 2).ravel()
            dseg = _segment_distances(pts[si], pts[si + 1], pts[sj], pts[sj + 1])
            margin = min(margin, dmin, float(dseg.min()))

    return IntersectionReport(crossings=len(crossing_pairs), pairs=crossing_pairs,
                              margin=margin, resolution=res)
