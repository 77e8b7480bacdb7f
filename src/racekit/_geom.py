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

segment_distances, the one projection kernel, reads a polyline's
segment_table (start point, edge, floored squared length, start arc and
arc length per segment), which its owner derives once and caches, for
all of its segments or a window of them per point (arc_windows);
project_to_polyline picks each point's nearest segment of them all.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(a), 2.0 * np.pi)


def polyline_segments(verts: np.ndarray) -> np.ndarray:
    """Turn a closed polyline's (N, 2) vertex array into its (N, 2, 2)
    segment array, the closing segment last."""
    verts = np.asarray(verts, dtype=float)
    return np.stack([verts, np.roll(verts, -1, axis=0)], axis=1)


def cumulative_arclength(verts: np.ndarray):
    """Per-vertex cumulative arc length of a closed polyline starting at 0,
    plus total length: the table has N+1 entries, the final one the total
    length including the closing segment."""
    verts = np.asarray(verts, dtype=float)
    d = np.linalg.norm(np.diff(verts, axis=0), axis=1)
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


def ray_hits(origins, headings, n_beams: int, segments, max_range: float) -> np.ndarray:
    """Minimum hit distance per beam of a batch of sensors, each against
    its own segment soup: origins (B, 2), headings (B,) and segments
    (B, M, 2, 2) give (B, n_beams). Beam i of a sensor points at its
    heading + i * (2*pi / n_beams). Beams that miss every segment report
    max_range. Beams exactly parallel to a segment are treated as misses.

    Exact angular binning: a beam can only hit a segment if its direction
    lies inside the cone the segment subtends from the origin, so each
    segment is tested only against the beams of that cone widened on each
    side by the segment's rounding bound `slack`: rounding moves the cone
    edges the float filter accepts, and the beam angles, by less than that
    (see _ANGLE_SLACK), and slack is at most half a beam. Segments for
    which that bound fails - the origin on or near the segment's line (a
    cone of nearly pi, or a sliver whose orientation is in doubt) or near
    an endpoint - are tested against every beam. Each pair tested goes
    through the all-pairs arithmetic unchanged and a pair skipped has no
    valid hit, so the result equals the all-pairs minimum; only the sign of
    a zero distance (the sensor exactly on a segment) may differ. The
    per-segment cone arithmetic runs over the segments of all rows at once,
    the pairs row by row; a row's result does not depend on the other rows.
    """
    o = np.asarray(origins, dtype=float)
    heading = np.asarray(headings, dtype=float)
    step = 2.0 * np.pi / n_beams
    angles = heading[:, None] + np.arange(n_beams) * step       # (B, n_beams)
    out = np.full(angles.shape, float(max_range))
    n_seg = segments.shape[1]
    if n_seg == 0:
        return out
    segs = segments.reshape(-1, 4)                          # (B*M,): ax, ay, bx, by
    row = np.repeat(np.arange(len(o)), n_seg)
    h = heading[row]
    ex, ey = segs[:, 2] - segs[:, 0], segs[:, 3] - segs[:, 1]
    aox, aoy = segs[:, 0] - o[row, 0], segs[:, 1] - o[row, 1]
    box, boy = segs[:, 2] - o[row, 0], segs[:, 3] - o[row, 1]
    t_num = aox * ey - aoy * ex

    # the cone from the origin: start angle and CCW extent in [0, pi]
    phi_a = np.arctan2(aoy, aox)
    phi_b = np.arctan2(boy, box)
    sweep = wrap_angle(phi_b - phi_a)
    start = np.where(sweep >= 0.0, phi_a, phi_b)
    span = np.abs(sweep)
    la, lb, le = np.hypot(aox, aoy), np.hypot(box, boy), np.hypot(ex, ey)
    # conditioning: of the cone edges as seen from the origin, and of the
    # beam angles (their rounding grows with their size)
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = _ANGLE_SLACK * ((la + lb + le) / np.minimum(la, lb) + np.abs(h) + 4.0 * np.pi)
    full = (~(slack <= 0.5 * step)                          # near an endpoint (or NaN)
            | (span > np.pi - step)                         # nearly pi: origin beside the segment
            | (np.abs(t_num) <= _ANGLE_SLACK * la * le))    # on or near the segment's line
    rel = np.mod(start - h, 2.0 * np.pi)
    # the beams in the widened cone; 1e-9 of a beam covers the divisions
    first = np.ceil((rel - slack) / step - 1e-9)
    last = np.floor((rel + span + slack) / step + 1e-9)
    first = np.where(full, 0, first).astype(np.int64)
    counts = np.where(full, n_beams, np.minimum(last - first + 1, n_beams)).astype(np.int64)

    # the (beam, segment) pairs, one row at a time: a row's pair arrays
    # stay small enough to be cache- and heap-resident, which concatenated
    # pairs of several rows are not
    cos_b, sin_b = np.cos(angles), np.sin(angles)
    for b in range(len(o)):
        seg, beam = _runs(counts[b * n_seg:(b + 1) * n_seg])
        seg += b * n_seg
        beam += first.take(seg)
        beam %= n_beams
        bx, by = cos_b[b].take(beam), sin_b[b].take(beam)
        ex_s, ey_s, aox_s, aoy_s = ex.take(seg), ey.take(seg), aox.take(seg), aoy.take(seg)
        # in place where an operand is spent
        denom = bx * ey_s
        ex_s *= by
        denom -= ex_s                                       # bx * ey - by * ex
        aox_s *= by
        aoy_s *= bx
        aox_s -= aoy_s                                      # u_num = aox * by - aoy * bx
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = t_num.take(seg)
            t /= denom
            aox_s /= denom                                  # u
        valid = np.abs(denom) > _EPS
        valid &= t >= 0.0
        valid &= aox_s >= 0.0
        valid &= aox_s <= 1.0
        np.minimum.at(out[b], beam[valid], t[valid])
    return out


def _arc_bounds(arc_table, s, half_width: float):
    """The segments lo and hi (P,) holding the ends of each arc interval
    [s_p - half_width, s_p + half_width], and whether it wraps past 0."""
    total = float(arc_table[-1])
    # the second mod maps a value that rounded up to `total` back to 0
    lo_s = np.mod(np.mod(s - half_width, total), total)
    hi_s = np.mod(np.mod(s + half_width, total), total)
    lo = arc_table.searchsorted(lo_s, side="right") - 1
    hi = arc_table.searchsorted(hi_s, side="right") - 1
    return lo, hi, lo_s > hi_s


def arc_windows(arc_table, s, half_width: float) -> np.ndarray:
    """The arc windows of positions s (P,) on a closed polyline, as a
    (P, M) index array: row p lists, in increasing order, the segments that
    overlap the arc interval [s_p - half_width, s_p + half_width]
    (wrapping), and repeats its last one to fill the row.

    arc_table (N+1,) is the cumulative arc length; located by arc, not by
    mean spacing, so the windows hold on unevenly spaced polylines."""
    s = np.asarray(s, dtype=float).reshape(-1)
    n = len(arc_table) - 1
    if 2.0 * half_width >= float(arc_table[-1]):
        return np.tile(np.arange(n), (len(s), 1))
    lo, hi, wrapped = (a[:, None] for a in _arc_bounds(arc_table, s, half_width))
    # two runs: [lo, hi] and none or, wrapped, [0, hi] and [lo, n) (one
    # long segment may hold both ends)
    start1 = np.where(wrapped, 0, lo)
    len1 = np.where(wrapped, hi + 1, hi + 1 - lo)
    start2 = np.maximum(lo, hi + 1)
    count = len1 + np.where(wrapped, n - start2, 0)
    j = np.minimum(np.arange(count.max()), count - 1)
    return np.where(j < len1, start1 + j, start2 + (j - len1))


def in_arc_windows(arc_table, s, half_width: float, seg_idx) -> np.ndarray:
    """Mask (P, M) of the segment ids seg_idx (P, M) that lie in the arc
    window of their row's position s (P,), as arc_windows forms it."""
    if 2.0 * half_width >= float(arc_table[-1]):
        return np.ones(np.shape(seg_idx), dtype=bool)
    lo, hi, wrapped = (a[:, None] for a in _arc_bounds(arc_table, s, half_width))
    # wrapped: [0, hi] and [lo, n), or every segment when lo <= hi
    return np.where(wrapped, (seg_idx <= hi) | (seg_idx >= lo), (seg_idx >= lo) & (seg_idx <= hi))


def segment_table(verts, arc_table) -> np.ndarray:
    """Per-segment constants of a closed polyline for segment_distances,
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


def segment_distances(px, py, cols):
    """The clamped projection parameter t, the offsets dx and dy from the
    projected point and their squared length, of points (px, py) against
    segment_table columns cols, broadcast: the one projection kernel."""
    ax, ay, ex, ey, ee = cols[:5]
    # maximum(0, t) keeps a -0.0 as np.clip(t, 0, 1) does; maximum(t, 0) would not
    t = np.minimum(np.maximum(0.0, ((px - ax) * ex + (py - ay) * ey) / ee), 1.0)
    dx = px - (ax + t * ex)
    dy = py - (ay + t * ey)
    return t, dx, dy, dx * dx + dy * dy


def project_to_polyline(points, table):
    """Project points (P, 2), or one (2,) point, onto the closed polyline
    whose segment_table is table. Returns (s, d): arc position and signed
    lateral distance (positive left of travel direction), each (P,), on
    the nearest segment; ties go to the segment listed first."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    t, dx, dy, dist2 = segment_distances(pts[:, :1], pts[:, 1:], table)     # (P, N)
    best = dist2.argmin(axis=1)                    # first minimum
    pick = np.arange(len(pts)), best
    s = table[5, best] + t[pick] * table[6, best]
    cross = table[2, best] * dy[pick] - table[3, best] * dx[pick]
    return s, np.sign(cross) * np.sqrt(dist2[pick])


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
    segs = polyline_segments(verts)
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
