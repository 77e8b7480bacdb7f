import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from racekit import _geom, track as rtrack
from racekit import simulator as sim
from racekit.simulator import (
    NonFiniteState,
    SimConfig,
    SimulationError,
    Trace,
    apply_noise,
    collision_events,
    scan_batch,
    step_frame,
)
from conftest import assert_same_bits, make_room_track

ROW = np.arange(1)


def one_row(*poses):
    """A (1, A, 5) pose batch of the given (x, y, theta, v[, delta]) poses."""
    return np.array([[tuple(p) + (0.0,) * (5 - len(p)) for p in poses]], dtype=float)


def one_world(track, *poses):
    """The track and the poses, times and collided flags of one world at
    t = 0 whose agents stand at the given poses."""
    return SimpleNamespace(track=track, poses=one_row(*poses), t=np.zeros(1),
                           collided=np.zeros((1, len(poses)), dtype=bool))


def world_in_room(*poses, half=4.0):
    return one_world(make_room_track(half), *poses)


def commands(*cmds):
    return np.array([cmds], dtype=float)


def frame(w, cmds, n_steps, cfg):
    """step_frame of the one world over n_steps."""
    return step_frame(w.track, w.poses, w.t, w.collided, cmds, n_steps, cfg)


def run_frame(w, cmds, n_steps, cfg):
    """step_frame of the one world over n_steps, written back; the (poses,
    times, flags) of every step."""
    poses, times, flags = frame(w, cmds, n_steps, cfg)
    w.poses[ROW], w.t[ROW], w.collided[ROW] = poses[-1], times[-1], flags[-1]
    return poses, times, flags


class TestDynamics:
    def test_straight_displacement(self, sim_cfg):
        w = world_in_room((-2.5, 0, 0.0, 5.0))
        cmd = commands((5.0, 0.0))
        run_frame(w, cmd, 100, sim_cfg)
        assert w.poses[0, 0, 0] == pytest.approx(-2.5 + 5.0, abs=1e-6)
        assert w.poses[0, 0, 1] == pytest.approx(0.0, abs=1e-12)
        assert w.t[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
    def test_turning_radius(self, delta):
        cfg = SimConfig()
        big = make_room_track(half=50.0)
        v = 2.0
        w = one_world(big, (0.0, 0.0, 0.0, v, delta))
        cmd = commands((v, delta))
        # one full revolution
        n = int(2 * math.pi / ((v / cfg.wheelbase) * math.tan(delta) * cfg.dt)) + 1
        pts = run_frame(w, cmd, n, cfg)[0][:, 0, 0, :2]
        center = pts.mean(axis=0)
        radius = np.linalg.norm(pts - center, axis=1).mean()
        expected = cfg.wheelbase / math.tan(delta)
        assert abs(radius - expected) / expected < 0.005

    def test_rest_state(self, sim_cfg):
        w = world_in_room((0, 0, 0.3, 0.0))
        before = w.poses.copy()
        run_frame(w, commands((0.0, 0.0)), 1, sim_cfg)
        assert before.tolist() == w.poses.tolist()
        assert w.t[0] == pytest.approx(sim_cfg.dt)

    def test_braking_reaches_zero(self, sim_cfg):
        v0 = 6.0
        w = world_in_room((-3.5, 0, 0.0, v0))
        horizon = abs(v0 / sim_cfg.a_min) + sim_cfg.dt
        last_v = v0
        while w.t[0] < horizon:
            run_frame(w, commands((0.0, 0.0)), 1, sim_cfg)
            assert w.poses[0, 0, 3] <= last_v + 1e-12
            last_v = w.poses[0, 0, 3]
        assert w.poses[0, 0, 3] == pytest.approx(0.0, abs=1e-9)

    def test_steering_rate_limit(self, sim_cfg):
        w = world_in_room((0, 0, 0, 1.0, 0.0))
        run_frame(w, commands((1.0, 10.0)), 1, sim_cfg)
        assert w.poses[0, 0, 4] == pytest.approx(sim_cfg.steer_rate_max * sim_cfg.dt)
        # and saturates at delta_max eventually
        run_frame(w, commands((1.0, 10.0)), 200, sim_cfg)
        assert w.poses[0, 0, 4] == pytest.approx(sim_cfg.delta_max)

    def test_non_finite_raises(self, sim_cfg):
        w = world_in_room((0, 0, 0, float("nan")))
        with pytest.raises(NonFiniteState):
            frame(w, commands((0.0, 0.0)), 1, sim_cfg)

    @pytest.mark.parametrize("pose", [(0, 0, math.inf, 1.0, 0.0), (0, 0, 0.0, 1.0, -math.inf)],
                             ids=["theta", "delta"])
    def test_non_finite_input_raises(self, sim_cfg, pose):
        # math.cos and math.tan raise ValueError on an infinite angle
        w = world_in_room((0, 0, 0, 1.0), pose)
        with pytest.raises(NonFiniteState, match=r"before update: \(0\.0, 0\.0, .*inf"):
            frame(w, commands((1.0, 0.0), (1.0, 0.0)), 1, sim_cfg)

    def test_overflow_raises_at_its_step(self, sim_cfg):
        # the second car's heading overflows in the first step, and the
        # second step's math.cos of it raises ValueError: the first step's
        # pose is reported
        w = world_in_room((0, 0, 0, 1.0), (0, 0, 0, 1e308))
        with pytest.raises(NonFiniteState, match=r"after update: \(1e\+306, 0\.0, inf, 10\.0, "):
            frame(w, commands((1.0, 0.0), (10.0, 0.4)), 3, sim_cfg)

    def test_determinism_bitwise(self, sim_cfg):
        def run():
            w = world_in_room((-2, 0.5, 0.1, 3.0), (1, -0.5, 0.2, 2.0))
            cmds = commands((4.0, 0.05), (2.0, -0.03))
            poses = run_frame(w, cmds, 150, sim_cfg)[0][:, 0]
            return [(p[0, 0], p[0, 1], p[1, 2], p[1, 3]) for p in poses]
        assert run() == run()


class TestLidar:
    def test_square_room_cardinals(self, room, sim_cfg):
        ranges = scan_batch(room, one_row((0, 0, 0.0, 0.0)), 0, sim_cfg)[0]
        for beam in (0, 90, 180, 270):
            assert ranges[beam] == pytest.approx(4.0, abs=1e-6)
        assert ranges[45] == pytest.approx(4.0 * math.sqrt(2), abs=1e-6)

    def test_corridor_side_wall(self, stadium, sim_cfg):
        # ego on the bottom straight of the stadium, heading along the track
        ego = (0.0, -3.8197186342054885, 0.0, 0.0)
        ranges = scan_batch(stadium, one_row(ego), 0, sim_cfg)[0]
        assert ranges[90] == pytest.approx(1.5, abs=1e-2)
        assert ranges[270] == pytest.approx(1.5, abs=1e-2)

    def test_opponent_occlusion(self, room, sim_cfg):
        ranges = scan_batch(room, one_row((-2, 0, 0.0, 0.0), (0.0, 0, 0.0, 0.0)), 0, sim_cfg)[0]
        assert ranges[0] < 2.0
        assert ranges[0] >= 2.0 - sim_cfg.veh_length
        # exactly the near face of a centered rectangle
        assert ranges[0] == pytest.approx(2.0 - sim_cfg.veh_length / 2, abs=1e-9)

    def test_symmetry_in_corridor(self, room, sim_cfg):
        ranges = scan_batch(room, one_row((0, 0, 0.0, 0.0)), 0, sim_cfg)[0]
        for i in range(1, 180):
            assert ranges[i] == pytest.approx(ranges[360 - i], abs=1e-6)

    def test_range_cap(self, sim_cfg):
        big = make_room_track(half=100.0)
        ranges = scan_batch(big, one_row((0, 0, 0.0, 0.0)), 0, sim_cfg)[0]
        assert ranges.max() == sim_cfg.lidar_range_max
        assert np.all(ranges <= sim_cfg.lidar_range_max)

    def test_beam_count_follows_config(self, room):
        cfg = SimConfig(n_beams=8)
        assert scan_batch(room, one_row((0, 0, 0.0, 0.0)), 0, cfg)[0].shape == (8,)


def dense_ray_hits(origin, angles, segments, max_range):
    """Reference raycast: every beam against every segment, broadcast."""
    angles = np.asarray(angles, dtype=float)
    o = np.asarray(origin, dtype=float)
    d = np.stack([np.cos(angles), np.sin(angles)], axis=1)  # (R, 2)
    a = segments[:, 0, :]                                   # (M, 2)
    e = segments[:, 1, :] - a                               # (M, 2)
    ao = a - o                                              # (M, 2)
    denom = d[:, 0:1] * e[None, :, 1] - d[:, 1:2] * e[None, :, 0]   # (R, M)
    t_num = ao[:, 0] * e[:, 1] - ao[:, 1] * e[:, 0]                 # (M,)
    u_num = ao[None, :, 0] * d[:, 1:2] - ao[None, :, 1] * d[:, 0:1]  # (R, M)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = t_num[None, :] / denom
        u = u_num / denom
    valid = (np.abs(denom) > 1e-12) & (t >= 0.0) & (u >= 0.0) & (u <= 1.0)
    t = np.where(valid, t, np.inf)
    return np.minimum(t.min(axis=1), max_range)


@functools.cache
def ray_track(name):
    if name == "room":
        return make_room_track()
    return rtrack.make_track(name, length=60.0, width=3.0)


class TestBinnedRaycast:
    """The angular-binned ray_hits equals the all-pairs reference exactly."""

    @given(
        name=st.sampled_from(["room", "stadium", "serpentine"]),
        n_beams=st.sampled_from([8, 90, 360]),
        seg_pick=st.floats(0.0, 1.0, exclude_max=True),
        # fractions 0/0.5/1 put the sensor on a vertex, a midpoint or the
        # segment's line; the rest near the boundary or off its ends
        along=st.one_of(st.sampled_from([0.0, 0.5, 1.0, -0.5, 1.5]), st.floats(-1.0, 2.0)),
        off=st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-0.8, 0.8)),
        heading=st.floats(-20.0, 20.0),
        opp=st.tuples(st.floats(-0.58, 0.58), st.floats(-0.58, 0.58), st.floats(-np.pi, np.pi)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_reference(self, name, n_beams, seg_pick, along, off, heading, opp):
        track = ray_track(name)
        segs = track.boundary_segments
        a, b = segs[int(seg_pick * len(segs))]
        e = b - a
        normal = np.array([-e[1], e[0]]) / np.hypot(*e)
        x, y = a + along * e + off * normal
        cfg = SimConfig(n_beams=n_beams)
        ego = (float(x), float(y), heading, 0.0)
        other = (float(x) + opp[0], float(y) + opp[1], opp[2], 0.0)
        corners = _geom.obb_corners(*other[:3], cfg.veh_length, cfg.veh_width)
        soup = np.concatenate([segs, np.stack([corners, np.roll(corners, -1, axis=0)], axis=1)])
        angles = heading + np.arange(n_beams) * (2.0 * np.pi / n_beams)
        ref = dense_ray_hits((x, y), angles, soup, cfg.lidar_range_max)
        assert np.array_equal(scan_batch(track, one_row(ego, other), 0, cfg)[0], ref)

    def test_empty_soup_reports_max_range(self):
        out = _geom.ray_hits(np.zeros((2, 2)), np.array([0.3, -1.0]), 16,
                             np.zeros((2, 0, 2, 2)), 30.0)
        assert np.array_equal(out, np.full((2, 16), 30.0))


class TestNoise:
    def test_eta_zero_identity(self):
        rng = np.random.default_rng(0)
        scan = np.linspace(0.5, 30.0, 360)
        out = apply_noise(scan, 0.0, rng)
        assert np.array_equal(out, scan)

    def test_eta_030_zeroes_108(self):
        rng = np.random.default_rng(7)
        scan = np.full(360, 5.0)
        out = apply_noise(scan, 0.3, rng)
        assert int((out == 0.0).sum()) == 108

    def test_eta_one_all_zero(self):
        rng = np.random.default_rng(7)
        out = apply_noise(np.full(360, 5.0), 1.0, rng)
        assert np.all(out == 0.0)

    def test_deterministic_given_seed(self):
        scan = np.linspace(0.5, 30.0, 360)
        a = apply_noise(scan, 0.25, np.random.default_rng(123))
        b = apply_noise(scan, 0.25, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_untouched_beams_unchanged(self):
        scan = np.linspace(0.5, 30.0, 360)
        out = apply_noise(scan, 0.3, np.random.default_rng(5))
        kept = out != 0.0
        assert np.array_equal(out[kept], scan[kept])

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_exact_count_property(self, eta):
        out = apply_noise(np.full(360, 9.0), eta, np.random.default_rng(1))
        assert int((out == 0.0).sum()) == math.floor(eta * 360)


class TestCollision:
    @given(st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(-15.0, 15.0)),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_broad_phase_keeps_the_dense_near_sets(self, stadium, sim_cfg, points):
        """The x-sorted windows hand the narrow phase each agent's
        segments within reach, as the all-midpoints distance test picks
        them and in boundary order."""
        rect_half = 0.5 * math.hypot(sim_cfg.veh_length, sim_cfg.veh_width)
        reach = stadium.segment_half_max + rect_half + 1e-6
        mids = stadium.segment_midpoints
        seen = []

        def record(corners, segments):
            seen.append(segments)
            return False

        poses = np.array([[(x, y, 0.0, 0.0, 0.0)] for x, y in points])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim._geom, "obb_hits_segments", record)
            collision_events(stadium, poses, sim_cfg)
        want = []
        for x, y in points:
            near = (mids[:, 0] - x) ** 2 + (mids[:, 1] - y) ** 2 <= reach * reach
            if near.any():
                want.append(stadium.boundary_segments[near])
        assert len(seen) == len(want)
        for got, ref in zip(seen, want):
            assert np.array_equal(got, ref)

    def test_full_overlap(self, room, sim_cfg):
        got = collision_events(room, one_row((0, 0, 0.0, 0), (0, 0, 0.0, 0)), sim_cfg)
        assert got[0].tolist() == [True, True]

    def test_far_apart(self, stadium, sim_cfg):
        got = collision_events(stadium, one_row((0, -3.82, 0.0, 0), (10, 2.8, 0.0, 0)), sim_cfg)
        assert got[0].tolist() == [False, False]

    def test_cars_touching_corner_to_corner(self, room, sim_cfg):
        # centres exactly two half-diagonals apart: one shared corner point
        dx, dy = sim_cfg.veh_length, sim_cfg.veh_width
        got = collision_events(room, one_row((0, 0, 0.0, 0), (dx, dy, 0.0, 0)), sim_cfg)
        assert got[0].tolist() == [True, True]
        got = collision_events(room, one_row((0, 0, 0.0, 0), (dx + 1e-6, dy, 0.0, 0)), sim_cfg)
        assert got[0].tolist() == [False, False]

    def test_touching_counts(self, room, sim_cfg):
        # corner exactly on the wall segment x = 4
        x = 4.0 - sim_cfg.veh_length / 2
        touching = collision_events(room, one_row((x, 0, 0.0, 0)), sim_cfg)
        assert touching[0].tolist() == [True]
        clear = collision_events(room, one_row((x - 1e-6, 0, 0.0, 0)), sim_cfg)
        assert clear[0].tolist() == [False]

    def test_third_agent_is_rejected(self, room, sim_cfg):
        # LiDAR, the ego expert and the car-car test see at most one other
        # car: the car-car test would report no contact for this third car,
        # which sits on the ego
        with pytest.raises(SimulationError):
            collision_events(room, one_row((0, 0, 0.0, 0), (2.0, 0, 0.0, 0), (0.1, 0, 0.0, 0)),
                             sim_cfg)

    def test_latching(self, room, sim_cfg):
        w = one_world(room, (3.9, 0, 0.0, 2.0))
        run_frame(w, commands((0.0, 0.0)), 1, sim_cfg)
        assert w.collided[0].tolist() == [True]
        # drive back into free space; flag must stay set
        w.poses[0, 0] = (0.0, 0.0, 0.0, 0.0, 0.0)
        run_frame(w, commands((0.0, 0.0)), 1, sim_cfg)
        assert w.collided[0].tolist() == [True]


class TestTrace:
    def test_csv_roundtrip(self, room, sim_cfg, tmp_path):
        w = one_world(room, (0, 0, 0.0, 2.0), (1, 0, 0.0, 1.0))
        trace = Trace()
        trace(w.t[0], w.poses[0], w.collided[0], 0.0)
        for _ in range(5):
            run_frame(w, commands((2.0, 0.01), (1.0, -0.01)), 1, sim_cfg)
            trace(w.t[0], w.poses[0], w.collided[0], 0.0)
        path = tmp_path / "trace.csv"
        sim.write_trace_csv(trace, path)
        back = sim.read_trace_csv(path)
        assert back.times == trace.times
        assert np.array_equal(back.poses, trace.poses)
        assert np.array_equal(back.collided, trace.collided)

    @given(data=st.data(), n_agents=st.integers(1, 2),
           times=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20,
                          unique=True).map(sorted))
    @settings(max_examples=60, deadline=None)
    def test_csv_roundtrip_is_bit_equal(self, tmp_path_factory, data, n_agents, times):
        """1 or 2 agents, strictly increasing times and any finite floats,
        -0.0 included, read back with the same bits."""
        finite = st.floats(allow_nan=False, allow_infinity=False)
        poses = data.draw(arrays(float, (len(times), n_agents, 5), elements=finite))
        flags = data.draw(arrays(bool, (len(times), n_agents)))
        trace = Trace(times=list(times), poses=list(poses), collided=list(flags))
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        sim.write_trace_csv(trace, path)
        back = sim.read_trace_csv(path)
        assert_same_bits(np.array(back.times), np.array(times, dtype=float))
        assert len(back.poses) == len(back.collided) == len(times)
        for got, want in zip(back.poses, poses):
            assert_same_bits(got, want)
        for got, want in zip(back.collided, flags):
            assert_same_bits(got, want)
