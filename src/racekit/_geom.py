"""Planar geometry kernels shared by the track and simulator modules.

Conventions: polylines are (N, 2) float arrays with the closing segment
implied (last vertex connects back to the first); segment soups are
(M, 2, 2) arrays of (start, end) pairs. Angles are radians, CCW positive.

The per-step and per-build kernels prune work with an exact broad phase:
they skip only pairs that provably cannot meet and run the unchanged
narrow-phase arithmetic on the rest, so they return what the all-pairs
computation returns. ray_hits tests each segment only against the beams
inside the angular interval it subtends from the sensor;
polyline_self_intersects tests only segment pairs whose midpoints are
within the longest segment length of each other.

project_to_polyline, the one projection kernel, reads a polyline's
segment_table (start point, edge, floored squared length, start arc and
arc length per segment), which its owner derives once and caches, instead
of gathering vertices and recomputing edges on every call. A single point
is held as scalars, so the 100 Hz progress tracker pays for (M,) arrays
only; the arithmetic per (point, segment) is that of the all-segments
broadcast.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(a), 2.0 * np.pi)


def polyline_segments(verts: np.ndarray, closed: bool = True) -> np.ndarray:
    """Turn an (N, 2) vertex array into an (M, 2, 2) segment array."""
    verts = np.asarray(verts, dtype=float)
    if closed:
        nxt = np.roll(verts, -1, axis=0)
    else:
        nxt = verts[1:]
        verts = verts[:-1]
    return np.stack([verts, nxt], axis=1)


def cumulative_arclength(verts: np.ndarray, closed: bool = True):
    """Per-vertex cumulative arc length starting at 0, plus total length.

    For a closed polyline the returned table has N+1 entries; the final
    entry is the total length including the closing segment.
    """
    verts = np.asarray(verts, dtype=float)
    d = np.linalg.norm(np.diff(verts, axis=0), axis=1)
    if closed:
        d = np.append(d, np.linalg.norm(verts[0] - verts[-1]))
    table = np.concatenate([[0.0], np.cumsum(d)])
    return table, float(table[-1])


# Bound, with room to spare, on how far (in radians, per unit of
# conditioning) rounding moves the edges of the cone in which the float
# intersection filter of ray_hits accepts a beam: a few eps.
_ANGLE_SLACK = 64.0 * float(np.finfo(float).eps)


def _runs(counts):
    """Owner index and offset within its run, for runs of the given
    lengths laid end to end."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def ray_hits(origin, heading: float, n_beams: int, segments, max_range: float) -> np.ndarray:
    """Minimum hit distance per beam against a segment soup.

    Beam i points at heading + i * (2*pi / n_beams); origin (2,), segments
    (M, 2, 2). Beams that miss every segment report max_range. Beams
    exactly parallel to a segment are treated as misses.

    Exact angular binning: a beam can only hit a segment if its direction
    lies inside the cone the segment subtends from the origin, so each
    segment is tested only against the beams of that cone plus one beam of
    margin on each side. Rounding moves the cone edges the float filter
    accepts by far less than a beam (see _ANGLE_SLACK). Segments for which
    that bound fails - the origin on or near the segment's line (a cone of
    nearly pi, or a sliver whose orientation is in doubt) or near an
    endpoint - are tested against every beam. Each pair tested goes through
    the all-pairs arithmetic unchanged and a pair skipped has no valid hit,
    so the result equals the all-pairs minimum; only the sign of a zero
    distance (the sensor exactly on a segment) may differ.
    """
    o = np.asarray(origin, dtype=float)
    step = 2.0 * np.pi / n_beams
    angles = heading + np.arange(n_beams) * step
    out = np.full(angles.shape, float(max_range))
    if len(segments) == 0:
        return out
    a = segments[:, 0, :]                                   # (M, 2)
    e = segments[:, 1, :] - a                               # (M, 2)
    ao = a - o                                              # (M, 2)
    bo = segments[:, 1, :] - o
    t_num = ao[:, 0] * e[:, 1] - ao[:, 1] * e[:, 0]         # (M,)

    # the cone from the origin: start angle and CCW extent in [0, pi]
    phi_a = np.arctan2(ao[:, 1], ao[:, 0])
    phi_b = np.arctan2(bo[:, 1], bo[:, 0])
    sweep = wrap_angle(phi_b - phi_a)
    start = np.where(sweep >= 0.0, phi_a, phi_b)
    span = np.abs(sweep)
    la, lb, le = (np.hypot(v[:, 0], v[:, 1]) for v in (ao, bo, e))
    # conditioning: of the cone edges as seen from the origin, and of the
    # beam angles (their rounding grows with their size)
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = _ANGLE_SLACK * ((la + lb + le) / np.minimum(la, lb) + abs(heading) + 4.0 * np.pi)
    full = (~(slack <= 0.5 * step)                          # near an endpoint (or NaN)
            | (span > np.pi - step)                         # nearly pi: origin beside the segment
            | (np.abs(t_num) <= _ANGLE_SLACK * la * le))    # on or near the segment's line
    rel = np.mod(start - heading, 2.0 * np.pi)
    first = np.floor(rel / step) - 1
    last = np.ceil((rel + span) / step) + 1
    first = np.where(full, 0, first).astype(np.int64)
    counts = np.where(full, n_beams, np.minimum(last - first + 1, n_beams)).astype(np.int64)

    seg, offset = _runs(counts)                             # (beam, segment) pairs
    beam = (first[seg] + offset) % n_beams

    dx, dy = np.cos(angles), np.sin(angles)
    bx, by = dx[beam], dy[beam]
    denom = bx * e[seg, 1] - by * e[seg, 0]
    u_num = ao[seg, 0] * by - ao[seg, 1] * bx
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = t_num[seg] / denom
        u = u_num / denom
    valid = (np.abs(denom) > _EPS) & (t >= 0.0) & (u >= 0.0) & (u <= 1.0)
    np.minimum.at(out, beam[valid], t[valid])
    return out


def arc_window(arc_table, s: float, half_width: float) -> np.ndarray:
    """Indices, in increasing order, of the closed polyline's segments that
    overlap the arc interval [s - half_width, s + half_width] (wrapping).

    arc_table (N+1,) is the cumulative arc length; located by arc, not by
    mean spacing, so the window holds on unevenly spaced polylines."""
    n = len(arc_table) - 1
    total = float(arc_table[-1])
    if 2.0 * half_width >= total:
        return np.arange(n)
    # the second mod maps a value that rounded up to `total` back to 0
    lo_s, hi_s = (s - half_width) % total % total, (s + half_width) % total % total
    lo, hi = np.searchsorted(arc_table, [lo_s, hi_s], side="right") - 1
    if lo_s <= hi_s:
        return np.arange(lo, hi + 1)
    # wrapped: [0, hi] and [lo, n); one long segment may hold both ends
    return np.concatenate([np.arange(hi + 1), np.arange(max(lo, hi + 1), n)])


def segment_table(verts, arc_table) -> np.ndarray:
    """Per-segment constants of a closed polyline for project_to_polyline,
    derived once per polyline: a (7, N) read-only array whose rows are the
    start x and y, the edge x and y, the squared length floored at _EPS,
    the start arc and the arc length of each segment (the closing segment
    last). The track's arc lookups locate through the last two rows."""
    verts = np.asarray(verts, dtype=float)
    e = np.roll(verts, -1, axis=0) - verts
    ee = np.maximum(np.einsum("ij,ij->i", e, e), _EPS)
    table = np.stack([verts[:, 0], verts[:, 1], e[:, 0], e[:, 1], ee,
                      arc_table[:-1], np.diff(arc_table)])
    table.setflags(write=False)
    return table


def project_to_polyline(points, table, seg_idx=None):
    """Project points onto a closed polyline.

    points (P, 2) or one (2,) point; table the polyline's segment_table.
    seg_idx optionally restricts the candidate segments (window, e.g. from
    arc_window). Returns (s, d, idx): arc position, signed lateral distance
    (positive left of travel direction) and segment index, each (P,). Ties
    go to the segment listed first.

    One point is held as scalars, so the per-segment arrays are (M,) and
    the winner is read with scalar indexing; several points broadcast as
    (P, 1) against (M,). Both run the same arithmetic per (point, segment).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    one = len(pts) == 1
    ax, ay, ex, ey, ee, s0, seg_len = table if seg_idx is None else table.take(seg_idx, axis=1)
    px, py = pts[0] if one else (pts[:, :1], pts[:, 1:])
    # maximum(0, t) keeps a -0.0 as np.clip(t, 0, 1) does; maximum(t, 0) would not
    t = np.minimum(np.maximum(0.0, ((px - ax) * ex + (py - ay) * ey) / ee), 1.0)
    dx = px - (ax + t * ex)
    dy = py - (ay + t * ey)
    dist2 = dx * dx + dy * dy
    best = dist2.argmin(axis=-1)                   # first minimum
    pick = best if one else (np.arange(len(pts)), best)
    s = s0[best] + t[pick] * seg_len[best]
    cross = ex[best] * dy[pick] - ey[best] * dx[pick]
    d = np.sign(cross) * np.sqrt(dist2[pick])
    seg = best if seg_idx is None else np.asarray(seg_idx)[best]
    # reshape turns one point's scalars into (1,) arrays
    return s.reshape(-1), d.reshape(-1), seg.reshape(-1)


def obb_corners(cx, cy, theta, length, width) -> np.ndarray:
    """Corners of an oriented rectangle centered at (cx, cy), CCW order."""
    c, s = np.cos(theta), np.sin(theta)
    hl, hw = 0.5 * length, 0.5 * width
    local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([cx, cy])


def obb_overlap(ca: np.ndarray, cb: np.ndarray) -> bool:
    """Separating-axis test for two rectangles given as (4, 2) corners.

    Closed intersection: touching counts as overlap.
    """
    for rect in (ca, cb):
        edges = np.roll(rect, -1, axis=0) - rect
        axes = np.stack([-edges[:2, 1], edges[:2, 0]], axis=1)
        for ax in axes:
            pa = ca @ ax
            pb = cb @ ax
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def obb_hits_segments(corners: np.ndarray, segments: np.ndarray) -> bool:
    """True if a rectangle ((4,2) corners) touches any segment (closed test)."""
    if len(segments) == 0:
        return False
    p, q = segments[:, 0, :], segments[:, 1, :]
    e = q - p
    # axes: the rectangle's two edge directions, each segment's direction
    # and normal. Separation on any axis means no contact.
    rect_edges = np.roll(corners, -1, axis=0)[:2] - corners[:2]
    hit = np.ones(len(segments), dtype=bool)
    for ax in rect_edges:
        n = np.array([-ax[1], ax[0]])
        rc = corners @ n
        ps, qs = p @ n, q @ n
        lo, hi = np.minimum(ps, qs), np.maximum(ps, qs)
        hit &= ~((rc.max() < lo) | (hi < rc.min()))
    for axes in (e, np.stack([-e[:, 1], e[:, 0]], axis=1)):
        rc = corners @ axes.T                      # (4, M)
        ps = np.einsum("mi,mi->m", p, axes)
        qs = np.einsum("mi,mi->m", q, axes)
        lo, hi = np.minimum(ps, qs), np.maximum(ps, qs)
        hit &= ~((rc.max(axis=0) < lo) | (hi < rc.min(axis=0)))
    return bool(hit.any())


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def polyline_self_intersects(verts: np.ndarray) -> bool:
    """Check whether a closed polyline crosses itself (adjacent segments
    sharing a vertex are ignored).

    Two segments that touch have midpoints at most the longest segment
    length apart, so only pairs that close are candidates: midpoints are
    sorted along a skew direction (1-Lipschitz, and never parallel to an
    axis-aligned straight), a searchsorted window gives the candidates and
    a distance check prunes them. The orientation crossing and collinear
    overlap predicates then run on the candidates only. Near-linear unless
    a long run of midpoints shares one window.
    """
    segs = polyline_segments(verts, closed=True)
    n = len(segs)
    if n < 4:
        return False
    mid = segs.mean(axis=1)
    seg_len = np.hypot(*(segs[:, 1] - segs[:, 0]).T)
    # slack: rounding in the midpoints, lengths and keys (relative to the
    # coordinates' size) must not drop a pair that touches exactly
    reach = float(seg_len.max() + 1e-9 * (seg_len.max() + np.abs(segs).max()))
    key = mid @ np.array([np.cos(1.0), np.sin(1.0)])
    order = np.argsort(key, kind="stable")
    key = key[order]
    # each unordered pair once: the later ones in key order within reach
    counts = np.searchsorted(key, key + reach, side="right") - np.arange(n) - 1
    first, offset = _runs(counts)
    i, j = order[first], order[first + 1 + offset]
    d = mid[i] - mid[j]
    gap = np.abs(i - j)
    keep = (np.einsum("pi,pi->p", d, d) <= reach * reach) & (gap != 1) & (gap != n - 1)
    i, j = i[keep], j[keep]
    ax, ay = segs[:, 0, 0], segs[:, 0, 1]
    bx, by = segs[:, 1, 0], segs[:, 1, 1]
    o1 = _orient(ax[i], ay[i], bx[i], by[i], ax[j], ay[j])
    o2 = _orient(ax[i], ay[i], bx[i], by[i], bx[j], by[j])
    o3 = _orient(ax[j], ay[j], bx[j], by[j], ax[i], ay[i])
    o4 = _orient(ax[j], ay[j], bx[j], by[j], bx[i], by[i])
    if np.any((o1 * o2 < 0) & (o3 * o4 < 0)):
        return True
    # collinear pair: overlaps iff the 1D bounding intervals overlap
    col = (o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0)
    si, sj = segs[i[col]], segs[j[col]]
    lo1, hi1 = si.min(axis=1), si.max(axis=1)
    lo2, hi2 = sj.min(axis=1), sj.max(axis=1)
    return bool(np.any(np.all(hi1 >= lo2, axis=1) & np.all(hi2 >= lo1, axis=1)))
