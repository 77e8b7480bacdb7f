"""Closed-circuit track geometry.

Loads TUM-style track CSVs (x_m, y_m, w_tr_right_m, w_tr_left_m), derives
boundary polylines and the arc-length table, and generates lateral-offset
racelines with curvature and speed profiles. Also provides the synthetic
desk-scale track generators (circle, oval, stadium, serpentine).

All geometry is immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _geom
from ._atomic import atomic_open


class TrackError(Exception):
    """Base class for track geometry failures."""


class MalformedRow(TrackError):
    pass


class OpenLoop(TrackError):
    pass


class SelfIntersectingBoundary(TrackError):
    pass


class OffsetOutOfRange(TrackError):
    pass


class DegenerateGeometry(TrackError):
    pass


class FarFromRaceline(TrackError):
    pass


MAX_OFFSET_FRACTION = 0.7
PROJECTION_RADIUS = 10.0  # meters; beyond this a projection query is an error

REQUIRED_COLUMNS = ("x_m", "y_m", "w_tr_right_m", "w_tr_left_m")

# named raceline offsets; signed fraction of the available lateral space,
# positive toward the right boundary
NAMED_OFFSETS = {"left": -0.5, "center": 0.0, "right": 0.5}


@dataclass(frozen=True)
class SpeedConfig:
    """Reference-speed rule: v_ref = min(v_max, sqrt(a_lat_max / |kappa|))."""

    v_max: float = 8.0
    a_lat_max: float = 6.0

    def __post_init__(self):
        for key in ("v_max", "a_lat_max"):
            if not getattr(self, key) > 0.0:
                raise TrackError(f"{key} must be > 0, got {getattr(self, key)}")


@dataclass(frozen=True)
class TrackModel:
    xy: np.ndarray            # (N, 2) centerline waypoints
    w_right: np.ndarray       # (N,) lateral free space toward the right boundary
    w_left: np.ndarray        # (N,)
    inner_boundary: np.ndarray   # (N, 2) closed polyline (closing edge implied)
    outer_boundary: np.ndarray
    arc_table: np.ndarray     # (N+1,) cumulative centerline arc length, [-1] == total_length
    total_length: float
    normals: np.ndarray       # (N, 2) unit left normals of the centerline
    boundary_segments: np.ndarray = field(repr=False)  # (M, 2, 2) both boundaries

    # Collision broad-phase and centerline projection constants, derived
    # once per track on first use. cached_property stores them in the
    # instance __dict__, so they travel with the model when it is pickled
    # into pool workers.
    @cached_property
    def segment_table(self) -> np.ndarray:
        """Centerline segment constants for _geom.project_to_polyline."""
        return _geom.segment_table(self.xy, self.arc_table)

    @cached_property
    def segment_midpoints(self) -> np.ndarray:
        """(M, 2) midpoints of boundary_segments."""
        return self.boundary_segments.mean(axis=1)

    @cached_property
    def midpoint_sweep(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, x, y): boundary segment indices in ascending midpoint x
        (a stable sort), and those midpoints' x and y in that order, each
        followed by M entries of +inf. The collision broad phase bounds
        each agent's candidates to a run of at most M entries with
        searchsorted on x; the padding keeps any run inside the arrays and
        fails every distance test."""
        order = np.argsort(self.segment_midpoints[:, 0], kind="stable")
        pad = np.full(len(order), np.inf)
        x, y = self.segment_midpoints[order].T
        return order, np.concatenate([x, pad]), np.concatenate([y, pad])

    @cached_property
    def segment_half_max(self) -> float:
        """Half the length of the longest boundary segment."""
        seg = self.boundary_segments
        return float(np.max(np.linalg.norm(seg[:, 1] - seg[:, 0], axis=1))) / 2.0


def _locate(table, s):
    """Segment index and fractional position of arc positions s >= 0 on a
    closed polyline whose last two table rows hold each segment's start
    arc and arc length (a segment_table's arc rows). An s past the last
    start falls in the closing segment, so the index needs no clamping."""
    start, seg_len = table[-2], table[-1]
    idx = start.searchsorted(s, side="right") - 1
    frac = (s - start[idx]) / np.maximum(seg_len[idx], 1e-300)
    return idx, frac


def _left_normals(xy: np.ndarray) -> np.ndarray:
    """Unit left normals from wrap-around central differences."""
    tang = np.roll(xy, -1, axis=0) - np.roll(xy, 1, axis=0)
    norm = np.linalg.norm(tang, axis=1, keepdims=True)
    if np.any(norm < 1e-12):
        raise DegenerateGeometry("coincident neighbor waypoints")
    tang = tang / norm
    return np.stack([-tang[:, 1], tang[:, 0]], axis=1)


def _three_point_curvature(xy: np.ndarray) -> np.ndarray:
    """Signed curvature from the circumscribed circle of each wrap-around
    waypoint triple; positive for left turns."""
    p0 = np.roll(xy, 1, axis=0)
    p1 = xy
    p2 = np.roll(xy, -1, axis=0)
    a = p1 - p0
    b = p2 - p1
    c = p2 - p0
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    la = np.linalg.norm(a, axis=1)
    lb = np.linalg.norm(b, axis=1)
    lc = np.linalg.norm(c, axis=1)
    denom = la * lb * lc
    if np.any(denom < 1e-18):
        raise DegenerateGeometry("collinear duplicate waypoint triple")
    return 2.0 * cross / denom


def build_track(xy, w_right, w_left) -> TrackModel:
    """Validate raw centerline data and derive the full track model."""
    xy = np.asarray(xy, dtype=float)
    w_right = np.asarray(w_right, dtype=float)
    w_left = np.asarray(w_left, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2 or len(xy) < 3:
        raise MalformedRow("need at least 3 waypoints of (x, y)")
    # tolerate an explicitly repeated closing waypoint
    if np.linalg.norm(xy[0] - xy[-1]) < 1e-9:
        xy, w_right, w_left = xy[:-1], w_right[:-1], w_left[:-1]
    if np.any(w_right <= 0) or np.any(w_left <= 0):
        raise MalformedRow("track widths must be positive")
    seg = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    if np.any(seg <= 1e-6):
        raise DegenerateGeometry("consecutive waypoints closer than 1e-6 m")
    closing = np.linalg.norm(xy[0] - xy[-1])
    mean_spacing = float(seg.mean())
    if closing > 2.0 * mean_spacing:
        raise OpenLoop(
            f"endpoints {closing:.3f} m apart exceed 2x mean spacing {mean_spacing:.3f} m"
        )
    arc_table, total_length = _geom.cumulative_arclength(xy)
    normals = _left_normals(xy)
    left_bound = xy + w_left[:, None] * normals
    right_bound = xy - w_right[:, None] * normals
    for name, bound in (("left", left_bound), ("right", right_bound)):
        if _geom.polyline_self_intersects(bound):
            raise SelfIntersectingBoundary(f"{name} boundary is not simple")
    # smaller enclosed area = inner boundary
    if abs(_signed_area(left_bound)) <= abs(_signed_area(right_bound)):
        inner, outer = left_bound, right_bound
    else:
        inner, outer = right_bound, left_bound
    segments = np.concatenate(
        [_geom.polyline_segments(inner), _geom.polyline_segments(outer)]
    )
    model = TrackModel(
        xy=xy,
        w_right=w_right,
        w_left=w_left,
        inner_boundary=inner,
        outer_boundary=outer,
        arc_table=arc_table,
        total_length=total_length,
        normals=normals,
        boundary_segments=segments,
    )
    for arr in (model.xy, model.arc_table, model.inner_boundary, model.outer_boundary):
        arr.setflags(write=False)
    return model


def _signed_area(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def load_track(path) -> TrackModel:
    """Load a track from a CSV file.

    Header row must name x_m, y_m, w_tr_right_m, w_tr_left_m (any order);
    lines starting with '#' are comments.
    """
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise MalformedRow("empty track file")
    reader = csv.reader(lines)
    header = [h.strip() for h in next(reader)]
    try:
        cols = [header.index(c) for c in REQUIRED_COLUMNS]
    except ValueError as exc:
        raise MalformedRow(f"header must contain {REQUIRED_COLUMNS}, got {header}") from exc
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            rows.append([float(row[c]) for c in cols])
        except (ValueError, IndexError) as exc:
            raise MalformedRow(f"non-numeric field at data row {lineno}: {row!r}") from exc
    if len(rows) < 3:
        raise MalformedRow("need at least 3 waypoints")
    data = np.asarray(rows, dtype=float)
    return build_track(data[:, :2], data[:, 2], data[:, 3])


@dataclass(frozen=True)
class Raceline:
    """A reference path: arc position, pose, curvature and speed per point.

    w_left_avail / w_right_avail are the remaining lateral distances from
    the raceline to the track boundaries, used for candidate containment.
    """

    s: np.ndarray             # (N,) strictly increasing, s[0] == 0
    xy: np.ndarray            # (N, 2)
    heading: np.ndarray       # (N,)
    kappa: np.ndarray         # (N,) signed, positive = left turn
    v_ref: np.ndarray         # (N,) > 0
    w_left_avail: np.ndarray
    w_right_avail: np.ndarray
    length: float
    arc_table: np.ndarray = field(repr=False)  # (N+1,) incl. closing segment

    @property
    def points(self):
        return list(zip(self.s, self.xy[:, 0], self.xy[:, 1], self.heading, self.kappa, self.v_ref))

    def _at(self, s):
        """(segment, next vertex, fraction) of arc positions s, wrapping: the
        one lookup behind every *_at interpolation, which a caller can
        reuse for several interpolations at the same s."""
        idx, frac = _locate(self.segment_table, np.asarray(s, dtype=float) % self.length)
        return idx, (idx + 1) % len(self.s), frac

    def _lerp(self, values, loc, angular=False):
        """values (N,) or (N, D) interpolated at a located arc grid."""
        idx, nxt, frac = loc
        v0 = values[idx]
        v1 = values[nxt]
        if angular:
            v1 = v0 + _geom.wrap_angle(v1 - v0)
        if values.ndim > 1:
            frac = np.expand_dims(frac, -1)
        return v0 * (1 - frac) + v1 * frac

    def _interp(self, values, s, angular=False):
        return self._lerp(values, self._at(s), angular)

    def position_at(self, s):
        return self._interp(self.xy, s)

    def heading_at(self, s):
        return self._interp(self.heading, s, angular=True)

    def v_ref_at(self, s):
        return self._interp(self.v_ref, s)

    # Derived once on first use (cached_property writes the instance
    # __dict__, which a frozen dataclass allows and pickling carries along).
    @cached_property
    def segment_table(self) -> np.ndarray:
        """Segment constants for _geom.project_to_polyline; its arc rows
        also locate every *_at lookup."""
        return _geom.segment_table(self.xy, self.arc_table)

    def project_many(self, points):
        """(s, d) of points (P, 2) on the raceline, each (P,)."""
        return _geom.project_to_polyline(points, self.segment_table)


def normal_of(heading):
    """Unit left normals (..., 2) of headings."""
    return np.stack([-np.sin(heading), np.cos(heading)], axis=-1)


def generate_raceline(track: TrackModel, offset, speed_cfg: SpeedConfig = SpeedConfig()) -> Raceline:
    """Constant lateral-offset raceline with curvature and speed profile.

    offset: named id ('left'/'center'/'right') or signed fraction of the
    available lateral width, positive toward the right boundary. Must stay
    within MAX_OFFSET_FRACTION so a vehicle-width margin remains.
    """
    if isinstance(offset, str):
        try:
            offset = NAMED_OFFSETS[offset.lower()]
        except KeyError:
            raise OffsetOutOfRange(f"unknown raceline id {offset!r}")
    offset = float(offset)
    if abs(offset) > MAX_OFFSET_FRACTION:
        raise OffsetOutOfRange(f"|offset| = {abs(offset):.2f} exceeds {MAX_OFFSET_FRACTION}")
    if offset >= 0:
        center_off = -offset * track.w_right  # toward right boundary = negative left
    else:
        center_off = -offset * track.w_left
    xy = track.xy + center_off[:, None] * track.normals
    seg = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    if np.any(seg <= 1e-9):
        raise DegenerateGeometry("offset raceline collapsed neighboring points")
    arc_table, length = _geom.cumulative_arclength(xy)
    tang = np.roll(xy, -1, axis=0) - np.roll(xy, 1, axis=0)
    heading = np.arctan2(tang[:, 1], tang[:, 0])
    kappa = _three_point_curvature(xy)
    v_ref = np.minimum(speed_cfg.v_max, np.sqrt(speed_cfg.a_lat_max / np.maximum(np.abs(kappa), 1e-12)))
    rl = Raceline(
        s=arc_table[:-1].copy(),
        xy=xy,
        heading=heading,
        kappa=kappa,
        v_ref=v_ref,
        w_left_avail=track.w_left - center_off,
        w_right_avail=track.w_right + center_off,
        length=length,
        arc_table=arc_table,
    )
    for arr in (rl.s, rl.xy, rl.heading, rl.kappa, rl.v_ref, rl.arc_table):
        arr.setflags(write=False)
    return rl


RACELINE_CSV_HEADER = ["s_m", "x_m", "y_m", "psi_rad", "kappa_radpm", "vx_mps"]


def write_raceline_csv(raceline: Raceline, path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RACELINE_CSV_HEADER)
        for s, x, y, psi, kap, v in raceline.points:
            w.writerow([repr(float(v_)) for v_ in (s, x, y, psi, kap, v)])


def write_track_csv(track: TrackModel, path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(REQUIRED_COLUMNS)
        for (x, y), wr, wl in zip(track.xy, track.w_right, track.w_left):
            w.writerow([repr(float(v)) for v in (x, y, wr, wl)])


# ---------------------------------------------------------------------------
# synthetic desk-scale tracks


def make_circle_track(radius: float = 10.0, width: float = 3.0, n_points: int = 360) -> TrackModel:
    """CCW circle; widths are the full per-side free space (width/2 each)."""
    phi = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    xy = radius * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    half = np.full(n_points, width / 2.0)
    return build_track(xy, half, half)


def make_stadium_track(length: float = 60.0, width: float = 3.0, curve_frac: float = 0.4,
                       n_points: int = 480) -> TrackModel:
    """Two straights joined by semicircles; curve_frac of the length is curved."""
    r = curve_frac * length / (2.0 * np.pi)
    straight = (1.0 - curve_frac) * length / 2.0
    ds = length / n_points
    pts = []
    # bottom straight, right arc, top straight, left arc (CCW)
    n_s = max(2, int(round(straight / ds)))
    n_a = max(2, int(round(np.pi * r / ds)))
    xs = np.linspace(-straight / 2, straight / 2, n_s, endpoint=False)
    pts.append(np.stack([xs, np.full(n_s, -r)], axis=1))
    ang = np.linspace(-np.pi / 2, np.pi / 2, n_a, endpoint=False)
    pts.append(np.stack([straight / 2 + r * np.cos(ang), r * np.sin(ang)], axis=1))
    pts.append(np.stack([xs[::-1] + (xs[1] - xs[0] if n_s > 1 else 0), np.full(n_s, r)], axis=1))
    ang2 = np.linspace(np.pi / 2, 3 * np.pi / 2, n_a, endpoint=False)
    pts.append(np.stack([-straight / 2 + r * np.cos(ang2), r * np.sin(ang2)], axis=1))
    xy = np.concatenate(pts)
    half = np.full(len(xy), width / 2.0)
    return build_track(xy, half, half)


def _resample_closed(xy: np.ndarray, length: float, n_points: int) -> np.ndarray:
    """A closed polyline scaled to arc length `length` and resampled at
    n_points uniformly spaced arc positions."""
    table, total = _geom.cumulative_arclength(xy)
    xy = xy * (length / total)
    table = table * (length / total)
    s_new = np.linspace(0.0, length, n_points, endpoint=False)
    idx, frac = _locate(np.stack([table[:-1], np.diff(table)]), s_new)
    nxt = (idx + 1) % len(xy)
    return xy[idx] * (1 - frac[:, None]) + xy[nxt] * frac[:, None]


def make_oval_track(length: float = 60.0, width: float = 3.0, aspect: float = 0.6,
                    n_points: int = 480) -> TrackModel:
    """Ellipse resampled to uniform arc spacing and scaled to the target length."""
    phi = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    xy = np.stack([np.cos(phi), aspect * np.sin(phi)], axis=1)
    res = _resample_closed(xy, length, n_points)
    half = np.full(n_points, width / 2.0)
    return build_track(res, half, half)


def make_serpentine_track(length: float = 60.0, width: float = 3.0, waves: int = 5,
                          wiggle: float = 0.10, n_points: int = 600) -> TrackModel:
    """Radially modulated circle with alternating left/right sweeps."""
    phi = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    r = 1.0 + wiggle * np.sin(waves * phi)
    xy = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
    res = _resample_closed(xy, length, n_points)
    half = np.full(n_points, width / 2.0)
    return build_track(res, half, half)


TRACK_GENERATORS = {
    "circle": make_circle_track,
    "oval": make_oval_track,
    "stadium": make_stadium_track,
    "serpentine": make_serpentine_track,
}


def make_track(shape: str, length: float = 60.0, width: float = 3.0) -> TrackModel:
    try:
        gen = TRACK_GENERATORS[shape]
    except KeyError:
        raise TrackError(f"unknown track shape {shape!r}; have {sorted(TRACK_GENERATORS)}")
    if shape == "circle":
        return gen(radius=length / (2.0 * np.pi), width=width)
    return gen(length=length, width=width)
