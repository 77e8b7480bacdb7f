import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_same_bits, reference_arc_window, reference_project_to_polyline,
                      uneven_circle)
from racekit import _geom
from racekit import track as rtrack
from racekit.track import (
    PROJECTION_RADIUS,
    MalformedRow,
    OffsetOutOfRange,
    OpenLoop,
    SelfIntersectingBoundary,
    SpeedConfig,
    build_track,
    generate_raceline,
    load_track,
)

VEH_HALF_WIDTH = 0.155


def csv_text(rows, header="x_m,y_m,w_tr_right_m,w_tr_left_m"):
    return header + "\n" + "\n".join(",".join(str(v) for v in r) for r in rows)


def load_text(tmp_path, text):
    """load_track of CSV text, written to a file first."""
    path = tmp_path / "track.csv"
    path.write_text(text)
    return load_track(path)


class TestLoadTrack:
    def test_unit_square_perimeter(self, tmp_path):
        rows = [(0, 0, 0.5, 0.5), (1, 0, 0.5, 0.5), (1, 1, 0.5, 0.5), (0, 1, 0.5, 0.5)]
        tm = load_text(tmp_path, csv_text(rows))
        assert tm.total_length == pytest.approx(4.0, abs=1e-12)

    def test_circle_circumference(self, circle10):
        assert abs(circle10.total_length - 2 * np.pi * 10) / (2 * np.pi * 10) < 1e-3

    def test_malformed_row(self, tmp_path):
        with pytest.raises(MalformedRow):
            load_text(tmp_path, "x_m,y_m,w_tr_right_m,w_tr_left_m\na,b,c,d")

    def test_open_loop(self, tmp_path):
        # a straight run of waypoints that never comes back
        rows = [(i, 0, 1, 1) for i in range(10)]
        with pytest.raises(OpenLoop):
            load_text(tmp_path, csv_text(rows))

    def test_comment_lines_skipped(self, tmp_path):
        rows = [(0, 0, 0.5, 0.5), (1, 0, 0.5, 0.5), (1, 1, 0.5, 0.5), (0, 1, 0.5, 0.5)]
        text = "# a comment\n" + csv_text(rows)
        assert load_text(tmp_path, text).total_length == pytest.approx(4.0)

    def test_self_intersecting_boundary(self):
        # offsetting an ellipse beyond its tip curvature radius folds the
        # inner boundary into swallowtail loops
        tm = rtrack.make_oval_track(length=60.0, width=3.0, aspect=0.6)
        n = len(tm.xy)
        with pytest.raises(SelfIntersectingBoundary):
            build_track(tm.xy, np.full(n, 5.0), np.full(n, 5.0))

    def test_arc_table_additivity(self, stadium):
        seg = np.linalg.norm(
            np.diff(np.vstack([stadium.xy, stadium.xy[:1]]), axis=0), axis=1)
        assert np.allclose(np.diff(stadium.arc_table), seg, atol=1e-9)
        assert stadium.arc_table[-1] == pytest.approx(stadium.total_length, abs=1e-12)
        assert np.all(np.diff(stadium.arc_table) > 0)


def dense_self_intersects(verts):
    """Reference: every unordered non-adjacent segment pair, O(N^2)."""
    segs = _geom.polyline_segments(verts)
    n = len(segs)
    if n < 4:
        return False
    (ax, ay), (bx, by) = segs[:, 0].T, segs[:, 1].T
    for i in range(n - 2):
        j = np.arange(i + 2, n - 1 if i == 0 else n)
        o1 = _geom._orient(ax[i], ay[i], bx[i], by[i], ax[j], ay[j])
        o2 = _geom._orient(ax[i], ay[i], bx[i], by[i], bx[j], by[j])
        o3 = _geom._orient(ax[j], ay[j], bx[j], by[j], ax[i], ay[i])
        o4 = _geom._orient(ax[j], ay[j], bx[j], by[j], bx[i], by[i])
        if np.any((o1 * o2 < 0) & (o3 * o4 < 0)):
            return True
        col = j[(o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0)]
        lo1, hi1 = segs[i].min(axis=0), segs[i].max(axis=0)
        lo2, hi2 = segs[col].min(axis=1), segs[col].max(axis=1)
        if np.any(np.all(hi1 >= lo2, axis=1) & np.all(hi2 >= lo1, axis=1)):
            return True
    return False


class TestSelfIntersection:
    """The pruned polyline_self_intersects equals the all-pairs reference."""

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=3, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_random_polylines(self, pts):
        verts = np.array(pts, dtype=float)
        assert _geom.polyline_self_intersects(verts) == dense_self_intersects(verts)

    # a small integer lattice: exact arithmetic, so collinear overlaps,
    # touching endpoints and repeated vertices all occur
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_lattice_polylines(self, pts):
        verts = np.array(pts, dtype=float)
        assert _geom.polyline_self_intersects(verts) == dense_self_intersects(verts)

    def test_collinear_touch_at_full_reach(self):
        # the two longest segments (length 4) meet end to end on y = 0: their
        # midpoints are exactly the longest length apart, the farthest a
        # touching pair can be
        verts = np.array([(0, 0), (4, 0), (3, 1), (4, 0), (8, 0), (6, -2), (3, -2)], dtype=float)
        assert _geom.polyline_self_intersects(verts) is dense_self_intersects(verts) is True

    @pytest.mark.parametrize("shape", ["circle", "oval", "stadium", "serpentine"])
    def test_track_boundaries(self, shape):
        tm = rtrack.make_track(shape, length=60.0, width=3.0)
        for bound in (tm.inner_boundary, tm.outer_boundary):
            assert _geom.polyline_self_intersects(bound) is dense_self_intersects(bound) is False

    def test_folded_boundary(self):
        # the swallowtail loops of an over-wide oval (see test_self_intersecting_boundary)
        tm = rtrack.make_oval_track(length=60.0, width=3.0, aspect=0.6)
        folded = tm.xy + 5.0 * tm.normals
        assert _geom.polyline_self_intersects(folded) is dense_self_intersects(folded) is True


def test_collision_constants_cached_and_pickled(stadium):
    mids = stadium.segment_midpoints
    assert mids is stadium.segment_midpoints
    assert np.array_equal(mids, stadium.boundary_segments.mean(axis=1))
    clone = pickle.loads(pickle.dumps(stadium))
    assert np.array_equal(vars(clone)["segment_midpoints"], mids)
    assert clone.segment_half_max == stadium.segment_half_max
    order, x, y = stadium.midpoint_sweep
    m = len(order)
    assert stadium.midpoint_sweep[0] is order
    assert np.array_equal(x[:m], mids[order, 0]) and np.all(np.diff(x[:m]) >= 0)
    assert np.array_equal(y[:m], mids[order, 1])
    assert len(x) == len(y) == 2 * m and np.all(np.isinf(x[m:])) and np.all(np.isinf(y[m:]))
    assert all(np.array_equal(a, b) for a, b in
               zip(pickle.loads(pickle.dumps(stadium)).midpoint_sweep, stadium.midpoint_sweep))


class TestRaceline:
    def test_circle_curvature_all_radii(self):
        for radius in (3.0, 5.0, 10.0):
            tm = rtrack.make_circle_track(radius=radius, width=1.5, n_points=360)
            rl = generate_raceline(tm, 0.0)
            rel = np.abs(rl.kappa - 1.0 / radius) * radius
            assert rel.mean() < 0.01

    def test_straight_curvature_zero(self, stadium):
        rl = generate_raceline(stadium, 0.0)
        # points on the bottom straight, away from the arcs
        straight = np.abs(rl.xy[:, 0]) < 5.0
        on_bottom = straight & (rl.xy[:, 1] < 0)
        assert np.all(np.abs(rl.kappa[on_bottom]) < 1e-6)

    def test_speed_rule(self):
        cfg = SpeedConfig(v_max=8.0, a_lat_max=6.0)
        tm = rtrack.make_circle_track(radius=1 / 0.24, width=1.0, n_points=720)
        rl = generate_raceline(tm, 0.0, cfg)
        assert np.allclose(rl.v_ref, 5.0, rtol=1e-3)

    def test_offset_out_of_range(self, stadium):
        with pytest.raises(OffsetOutOfRange):
            generate_raceline(stadium, 0.9)

    def test_named_offsets(self, stadium):
        left = generate_raceline(stadium, "left")
        right = generate_raceline(stadium, "right")
        # left line sits left of center: positive offset from the centerline
        _, d_left = _geom.project_to_polyline(left.xy, stadium.segment_table)
        _, d_right = _geom.project_to_polyline(right.xy, stadium.segment_table)
        assert np.all(d_left > 0)
        assert np.all(d_right < 0)

    def test_raceline_inside_boundaries_with_margin(self, stadium):
        for off in (-0.5, 0.0, 0.5, 0.7, -0.7):
            rl = generate_raceline(stadium, off)
            assert np.all(rl.w_left_avail >= VEH_HALF_WIDTH)
            assert np.all(rl.w_right_avail >= VEH_HALF_WIDTH)
            s, d = _geom.project_to_polyline(rl.xy, stadium.segment_table)
            idx, frac = rtrack._locate(stadium.segment_table, s % stadium.total_length)
            nxt = (idx + 1) % len(stadium.xy)
            wr = stadium.w_right[idx] * (1 - frac) + stadium.w_right[nxt] * frac
            wl = stadium.w_left[idx] * (1 - frac) + stadium.w_left[nxt] * frac
            assert np.all(d < wl) and np.all(-d < wr)

    def test_v_ref_positive(self, stadium):
        rl = generate_raceline(stadium, 0.3)
        assert np.all(rl.v_ref > 0)


def project(rl, point):
    """(s, d) of one point, through the projection kernel."""
    s, d = rl.project_many(np.asarray(point, dtype=float)[None, :])
    return float(s[0]), float(d[0])


class TestProjection:
    def test_on_path_projection(self, stadium):
        rl = generate_raceline(stadium, 0.0)
        idx = 17
        s, d = project(rl, rl.xy[idx])
        assert d == pytest.approx(0.0, abs=1e-9)
        assert s == pytest.approx(rl.s[idx], abs=1e-9)

    def test_left_offset_positive(self, tmp_path):
        # straight raceline along +x: left is +y
        rows = [(0, 0, 1.5, 1.5), (10, 0, 1.5, 1.5), (10, 10, 1.5, 1.5), (0, 10, 1.5, 1.5)]
        tm = load_text(tmp_path, csv_text(rows))
        rl = generate_raceline(tm, 0.0)
        s, d = project(rl, (5.0, 0.4))
        assert d == pytest.approx(0.4, abs=1e-9)

    def test_far_from_raceline(self, stadium):
        rl = generate_raceline(stadium, 0.0)
        # beyond the radius inside which the expert accepts a projection
        _, d = project(rl, (500.0, 500.0))
        assert abs(d) > PROJECTION_RADIUS

    def test_tiebreak_smaller_s(self):
        # a point equidistant from two parallel straights of the stadium
        tm = rtrack.make_stadium_track(length=60.0, width=3.0)
        rl = generate_raceline(tm, 0.0)
        s, d = project(rl, (0.0, 0.0))  # centered between bottom and top straight
        s_alt, _ = project(rl, rl.position_at(s))
        assert s == pytest.approx(s_alt, abs=1e-6)
        # bottom straight carries smaller s than top straight
        assert s < tm.total_length / 2

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=59.999))
    def test_project_position_roundtrip(self, s_query):
        tm = rtrack.make_stadium_track(length=60.0, width=3.0)
        rl = generate_raceline(tm, 0.0)
        p = rl.position_at(s_query)
        s, d = project(rl, p)
        spacing = rl.length / len(rl.s)
        err = abs(s - s_query) % rl.length
        assert min(err, rl.length - err) < spacing
        assert abs(d) < 1e-9


def window_by_brute_force(arc_table, s, half_width):
    """Segments [arc[i], arc[i+1]) that meet [s - w, s + w] on the loop,
    by trying the interval shifted by -L, 0 and +L."""
    total = arc_table[-1]
    s = s % total
    return {i for i in range(len(arc_table) - 1) for k in (-1, 0, 1)
            if arc_table[i] + k * total <= s + half_width
            and arc_table[i + 1] + k * total > s - half_width}


class TestArcWindow:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.01, 5.0), min_size=3, max_size=40),
           st.floats(-100.0, 100.0), st.floats(0.0, 60.0))
    def test_matches_brute_force(self, seg_lengths, s, half_width):
        arc_table = np.concatenate([[0.0], np.cumsum(seg_lengths)])
        got = _geom.arc_windows(arc_table, s, half_width)[0]
        assert list(got) == sorted(set(got.tolist()))
        if 2.0 * half_width >= arc_table[-1]:
            assert len(got) == len(seg_lengths)
            return
        # equal away from rounding at the interval's two ends
        inner = window_by_brute_force(arc_table, s, max(half_width - 1e-9, 0.0))
        outer = window_by_brute_force(arc_table, s, half_width + 1e-9)
        assert inner <= set(got.tolist()) <= outer

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.01, 5.0), min_size=3, max_size=40),
           st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=6), st.floats(0.0, 60.0))
    def test_rows_are_single_windows(self, seg_lengths, s, half_width):
        """Each row of arc_windows is its position's window as the
        one-window reference computes it, then that window's last segment
        repeated."""
        arc_table = np.concatenate([[0.0], np.cumsum(seg_lengths)])
        got = _geom.arc_windows(arc_table, np.array(s), half_width)
        assert len(got) == len(s)
        for row, s_p in zip(got, s):
            want = reference_arc_window(arc_table, s_p, half_width)
            assert_same_bits(row[:len(want)], want)
            assert (row[len(want):] == want[-1]).all()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.01, 5.0), min_size=3, max_size=40),
           st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=6), st.floats(0.0, 60.0))
    def test_mask_marks_each_rows_window(self, seg_lengths, s, half_width):
        """Of every segment id, in_arc_windows marks those in the window
        that the one-window reference computes for the row's position."""
        arc_table = np.concatenate([[0.0], np.cumsum(seg_lengths)])
        ids = np.tile(np.arange(len(seg_lengths)), (len(s), 1))
        got = _geom.in_arc_windows(arc_table, np.array(s), half_width, ids)
        for row, s_p in zip(got, s):
            want = reference_arc_window(arc_table, s_p, half_width)
            assert np.flatnonzero(row).tolist() == sorted(set(want.tolist()))


@functools.cache
def projection_polyline(name):
    """(vertices, arc table, segment table) of a closed test polyline."""
    if name == "uneven":
        track = uneven_circle()
    elif name == "left-raceline":
        track = generate_raceline(rtrack.make_stadium_track(), "left")
    else:
        track = rtrack.make_track(name, length=60.0, width=3.0)
    return track.xy, track.arc_table, track.segment_table


# a query point: a segment, a fraction along it (0 / 0.5 / 1 put it on a
# vertex, a midpoint or the segment's line) and an offset along its normal
query_point = st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-0.5, 1.5)),
                        st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-2.0, 2.0)))


class TestProjectionKernel:
    """project_to_polyline over cached segment tables equals the reference
    kernel bit for bit: arc position and signed distance."""

    @given(name=st.sampled_from(["stadium", "serpentine", "uneven", "left-raceline"]),
           queries=st.lists(query_point, min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, name, queries):
        verts, arc_table, table = projection_polyline(name)
        pts = []
        for seg_pick, along, off in queries:
            i = int(seg_pick * len(verts))
            a, b = verts[i], verts[(i + 1) % len(verts)]
            e = b - a
            pts.append(a + along * e + off * np.array([-e[1], e[0]]) / np.hypot(*e))
        pts = np.array(pts)
        want = reference_project_to_polyline(pts, verts, arc_table)
        for got_part, want_part in zip(_geom.project_to_polyline(pts, table), want):
            assert_same_bits(got_part, want_part)
        if len(pts) == 1:  # one (2,) point takes the same path as a (1, 2) batch
            for got_part, want_part in zip(_geom.project_to_polyline(pts[0], table), want):
                assert_same_bits(got_part, want_part)

    def test_equidistant_point_matches_reference(self):
        # midway between the stadium's two straights: a tie between segments
        verts, arc_table, table = projection_polyline("stadium")
        want = reference_project_to_polyline([[0.0, 0.0]], verts, arc_table)
        for got_part, want_part in zip(_geom.project_to_polyline((0.0, 0.0), table), want):
            assert_same_bits(got_part, want_part)


def test_projection_tables_cached_and_pickled(stadium):
    rl = generate_raceline(stadium, "center")
    for owner in (stadium, rl):
        table = owner.segment_table
        assert table is owner.segment_table and not table.flags.writeable
        clone = pickle.loads(pickle.dumps(owner))
        assert np.array_equal(vars(clone)["segment_table"], table)


def reference_locate(arc_table, s):
    """track._locate before it read the segment table's arc rows: search
    the full (N+1,) arc table and clamp the index. Kept as the bit-for-bit
    reference."""
    s = np.asarray(s, dtype=float)
    idx = np.clip(np.searchsorted(arc_table, s, side="right") - 1, 0, len(arc_table) - 2)
    seg_len = arc_table[idx + 1] - arc_table[idx]
    frac = (s - arc_table[idx]) / np.maximum(seg_len, 1e-300)
    return idx, frac


# arc positions: anywhere on a few laps either way, exactly on a vertex,
# or at the values where % and the search meet their edges
arc_query = st.one_of(st.floats(-200.0, 200.0), st.integers(-1, 2000),
                      st.sampled_from([0.0, -0.0, -1e-20, 1e-300, -1e-300]))


class TestArcLookups:
    """The *_at lookups, located through the segment table's arc rows,
    equal the reference _locate and interpolation bit for bit."""

    @given(name=st.sampled_from(["stadium", "serpentine", "uneven", "left-raceline"]),
           picks=st.lists(arc_query, min_size=1, max_size=12), scalar=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, name, picks, scalar):
        track = (uneven_circle() if name == "uneven"
                 else rtrack.make_track(name if name != "left-raceline" else "stadium",
                                        length=60.0, width=3.0))
        rl = generate_raceline(track, "left" if name == "left-raceline" else "center")
        n = len(rl.s)
        # an integer pick is a vertex: its arc, or the loop's end for n
        s = np.array([rl.arc_table[p % (n + 1)] if isinstance(p, int) else p for p in picks])
        if scalar:
            s = s[0]
        idx, frac = reference_locate(rl.arc_table, np.asarray(s, dtype=float) % rl.length)
        nxt = (idx + 1) % n
        for values, got in ((rl.v_ref, rl.v_ref_at(s)),
                            (rl.w_left_avail, rl._interp(rl.w_left_avail, s)),
                            (rl.w_right_avail, rl._interp(rl.w_right_avail, s))):
            assert_same_bits(got, values[idx] * (1 - frac) + values[nxt] * frac)
        h0 = rl.heading[idx]
        h1 = h0 + _geom.wrap_angle(rl.heading[nxt] - h0)
        assert_same_bits(rl.heading_at(s), h0 * (1 - frac) + h1 * frac)
        f = np.expand_dims(frac, -1)
        assert_same_bits(rl.position_at(s), rl.xy[idx] * (1 - f) + rl.xy[nxt] * f)
        idx, frac = reference_locate(track.arc_table, np.asarray(s, dtype=float)
                                     % track.total_length)
        nxt = (idx + 1) % len(track.xy)
        got_idx, got_frac = rtrack._locate(track.segment_table, np.asarray(s, dtype=float)
                                           % track.total_length)
        got_nxt = (got_idx + 1) % len(track.xy)
        for values in (track.w_right, track.w_left):
            got = values[got_idx] * (1 - got_frac) + values[got_nxt] * got_frac
            assert_same_bits(got, values[idx] * (1 - frac) + values[nxt] * frac)

    @given(n=st.integers(3, 40), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_locate_matches_reference(self, n, data):
        # a resampling grid as the track generators use it: s in [0, length]
        # against an arc table that may end a rounding error off length
        steps = data.draw(st.lists(st.sampled_from([0.0, 1e-9, 0.5, 1.0, 3.0]),
                                   min_size=n, max_size=n))
        arc_table = np.concatenate([[0.0], np.cumsum(steps)])
        length = arc_table[-1] * data.draw(st.sampled_from([1.0, 1 - 2**-52, 1 + 2**-52]))
        s = np.array(data.draw(st.lists(st.floats(0.0, max(length, 0.0)), min_size=1,
                                        max_size=20)) + [0.0, length])
        got = rtrack._locate(np.stack([arc_table[:-1], np.diff(arc_table)]), s)
        for got_part, want_part in zip(got, reference_locate(arc_table, s)):
            assert_same_bits(got_part, want_part)


def curvature_at(rl, s):
    """The raceline's kappa lookup, as the expert lattice reads it."""
    return float(rl._interp(rl.kappa, s))


class TestCurvatureAt:
    def test_circle_any_s(self):
        tm = rtrack.make_circle_track(radius=5.0, width=1.0, n_points=360)
        rl = generate_raceline(tm, 0.0)
        for s in (0.0, 3.7, 11.1, 29.9):
            assert curvature_at(rl, s) == pytest.approx(0.2, rel=0.01)

    def test_straight_zero(self, stadium):
        rl = generate_raceline(stadium, 0.0)
        assert abs(curvature_at(rl, 1.0)) < 1e-6

    def test_wraparound(self, stadium):
        rl = generate_raceline(stadium, 0.0)
        assert curvature_at(rl, rl.length + 1.0) == pytest.approx(curvature_at(rl, 1.0), abs=1e-12)


class TestExports:
    def test_raceline_csv_roundtrip(self, stadium, tmp_path):
        rl = generate_raceline(stadium, 0.5)
        path = tmp_path / "rl.csv"
        rtrack.write_raceline_csv(rl, path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert list(data.dtype.names) == ["s_m", "x_m", "y_m", "psi_rad", "kappa_radpm", "vx_mps"]
        assert np.allclose(data["s_m"], rl.s)
        assert np.allclose(data["vx_mps"], rl.v_ref)

    def test_track_csv_roundtrip(self, stadium, tmp_path):
        path = tmp_path / "track.csv"
        rtrack.write_track_csv(stadium, path)
        tm = load_track(path)
        assert tm.total_length == pytest.approx(stadium.total_length, abs=1e-9)


class TestGenerators:
    @pytest.mark.parametrize("shape", ["circle", "oval", "stadium", "serpentine"])
    def test_target_length(self, shape):
        tm = rtrack.make_track(shape, length=60.0, width=3.0)
        assert abs(tm.total_length - 60.0) / 60.0 < 0.02

    def test_serpentine_alternates(self):
        tm = rtrack.make_track("serpentine", length=60.0, width=3.0)
        rl = generate_raceline(tm, 0.0)
        assert (rl.kappa > 1e-3).any() and (rl.kappa < -1e-3).any()
        # stays drivable: min turning radius above the vehicle's physical limit
        assert np.abs(rl.kappa).max() < 1.0

    def test_unknown_shape(self):
        with pytest.raises(rtrack.TrackError):
            rtrack.make_track("mobius")

    @pytest.mark.parametrize("shape, length, width", [
        ("circle", 60.0, 100.0), ("circle", 0.5, 3.0), ("oval", 60.0, 100.0), ("oval", 0.5, 3.0)])
    def test_too_wide_for_its_loop(self, shape, length, width):
        """The inward offset of a loop narrower than the track passes
        through the centre and comes out as a simple loop on the far side,
        around more area than the centreline (a 60 m circle 100 m wide:
        5,140 square metres inside against 286)."""
        with pytest.raises(rtrack.TrackError, match="inner boundary"):
            rtrack.make_track(shape, length=length, width=width)

    @pytest.mark.parametrize("shape", sorted(rtrack.TRACK_GENERATORS))
    @pytest.mark.parametrize("length, width", [(60.0, 3.0), (1000.0, 3.0), (60.0, 0.01),
                                               (20.0, 6.0), (60.0, 12.0)])
    def test_boundaries_nest_around_the_centreline(self, shape, length, width):
        """Every generated track that builds encloses less area inside its
        inner boundary than inside its centreline, and less there than
        inside its outer boundary; the rest fold (not simple)."""
        try:
            tm = rtrack.make_track(shape, length=length, width=width)
        except SelfIntersectingBoundary:
            assert (shape, length, width) in {("oval", 60.0, 12.0), ("serpentine", 20.0, 6.0),
                                              ("serpentine", 60.0, 12.0)}
            return
        area = [abs(rtrack._signed_area(v)) for v in (tm.inner_boundary, tm.xy,
                                                      tm.outer_boundary)]
        assert area[0] < area[1] < area[2]
