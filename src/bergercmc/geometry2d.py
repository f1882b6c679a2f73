"""Robust planar polyline self-intersection tests.

The test reference for the sign count of Im w' in cmc_spheres.is_embedded.
No program route calls it: it stays in src/ only because the benchmark
tracer's SPEC names two of its functions.

The report is computed from its definition: every index pair is tested
with numpy, a block of rows at a time.  Segment pairs whose closed bounding
boxes overlap go on to the crossing test in exact rational arithmetic
(floats convert exactly to Fractions), so a reported crossing is never a
rounding artifact; point pairs near in the plane and far along the curve
set the clearance margin.  The cost is O(n^2) time, 0.05-0.3 s for a test
meridian of 2,048-4,096 points, and memory for 2**18 pairs at a time.
That is acceptable for a reference, which must be plainly right rather
than fast: the production verdict is the closed-form turning angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cmc_spheres import ARC_FACTOR  # clearance pairs are at least this many segment lengths apart

CLOSE_CAP = 2000  # most point pairs whose segments refine the margin


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


def _pairs(n: int, near) -> np.ndarray:
    """Every index pair (i, j), 0 <= i < j < n, that near accepts, in (i, j) order:
    near(i, j) maps a column of rows i and a row of columns j to a boolean block."""
    rows = max(1, 2**18 // n)
    found = [np.empty((0, 2), dtype=np.intp)]
    for lo in range(0, n - 1, rows):
        i = np.arange(lo, min(lo + rows, n - 1))[:, None]
        j = np.arange(lo + 1, n)
        r, c = np.nonzero(near(i, j) & (j > i))
        found.append(np.column_stack([i[r, 0], j[c]]))
    return np.concatenate(found)


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


def polyline_self_intersection_report(points: np.ndarray) -> IntersectionReport:
    """Exact self-intersection count and clearance margin of an open polyline.

    Crossings are counted over all segment pairs that do not share an
    endpoint.  The margin is the least distance between segment pairs at
    least ARC_FACTOR coarsest segment lengths apart along the curve, so it
    measures genuine near-self-contact rather than neighbours along the
    curve.  Raises ValueError unless points is an (n, 2) array of n >= 2
    finite points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError(f"polyline needs an (n, 2) array with n >= 2, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("polyline points must be finite")
    seglen = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    res = float(np.max(seglen))
    arclen = np.concatenate([[0.0], np.cumsum(seglen)])

    nseg = len(seglen)
    lo, hi = np.minimum(pts[:-1], pts[1:]), np.maximum(pts[:-1], pts[1:])

    def boxes_meet(i, j):  # segments that share no endpoint, closed boxes overlapping
        return ((j - i > 1) & (lo[i, 0] <= hi[j, 0]) & (lo[j, 0] <= hi[i, 0])
                & (lo[i, 1] <= hi[j, 1]) & (lo[j, 1] <= hi[i, 1]))

    crossing_pairs = [(i, j) for i, j in _pairs(nseg, boxes_meet).tolist()
                      if segments_cross(pts[i], pts[i + 1], pts[j], pts[j + 1])]

    # clearance margin among arc-separated parts of the curve
    arc_min = ARC_FACTOR * res
    margin = arc_min  # capped: beyond this the curve is safely clear
    if res > 0.0:  # else every point coincides, and the margin is arc_min = 0
        def sq_dist(i, j):  # summed as np.linalg.norm sums, so sqrt matches it bit for bit
            dx = pts[i, 0] - pts[j, 0]
            dy = pts[i, 1] - pts[j, 1]
            return dx * dx + dy * dy

        ii, jj = _pairs(len(pts), lambda i, j: (sq_dist(i, j) <= arc_min * arc_min)
                        & (arclen[j] - arclen[i] >= arc_min)).T  # near, and far along the curve
        d = np.sqrt(sq_dist(ii, jj))
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
