import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racekit import _geom, track as rtrack
from racekit import simulator as sim
from racekit.simulator import (
    NonFiniteState,
    SimConfig,
    SimulationError,
    Trace,
    VehicleCommand,
    VehicleState,
    WorldState,
    apply_noise,
    check_collision,
    scan_lidar,
    step,
)
from conftest import make_room_track


def world_in_room(states, half=4.0):
    return WorldState(make_room_track(half), list(states))


class TestDynamics:
    def test_straight_displacement(self, sim_cfg):
        w = world_in_room([VehicleState(-2.5, 0, 0.0, 5.0)])
        cmd = [VehicleCommand(5.0, 0.0)]
        for _ in range(100):
            w = step(w, cmd, sim_cfg)
        assert w.agents[0].x == pytest.approx(-2.5 + 5.0, abs=1e-6)
        assert w.agents[0].y == pytest.approx(0.0, abs=1e-12)
        assert w.t == pytest.approx(1.0)

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
    def test_turning_radius(self, delta):
        cfg = SimConfig()
        big = make_room_track(half=50.0)
        v = 2.0
        state = VehicleState(0.0, 0.0, 0.0, v, delta)
        w = WorldState(big, [state])
        cmd = [VehicleCommand(v, delta)]
        pts = []
        # one full revolution
        n = int(2 * math.pi / ((v / cfg.wheelbase) * math.tan(delta) * cfg.dt)) + 1
        for _ in range(n):
            w = step(w, cmd, cfg)
            pts.append((w.agents[0].x, w.agents[0].y))
        pts = np.array(pts)
        center = pts.mean(axis=0)
        radius = np.linalg.norm(pts - center, axis=1).mean()
        expected = cfg.wheelbase / math.tan(delta)
        assert abs(radius - expected) / expected < 0.005

    def test_rest_state(self, sim_cfg):
        w = world_in_room([VehicleState(0, 0, 0.3, 0.0)])
        w2 = step(w, [VehicleCommand(0.0, 0.0)], sim_cfg)
        a, b = w.agents[0], w2.agents[0]
        assert (a.x, a.y, a.theta, a.v, a.delta) == (b.x, b.y, b.theta, b.v, b.delta)
        assert w2.t == pytest.approx(sim_cfg.dt)

    def test_braking_reaches_zero(self, sim_cfg):
        v0 = 6.0
        w = world_in_room([VehicleState(-3.5, 0, 0.0, v0)])
        horizon = abs(v0 / sim_cfg.a_min) + sim_cfg.dt
        last_v = v0
        while w.t < horizon:
            w = step(w, [VehicleCommand(0.0, 0.0)], sim_cfg)
            assert w.agents[0].v <= last_v + 1e-12
            last_v = w.agents[0].v
        assert w.agents[0].v == pytest.approx(0.0, abs=1e-9)

    def test_steering_rate_limit(self, sim_cfg):
        w = world_in_room([VehicleState(0, 0, 0, 1.0, 0.0)])
        w = step(w, [VehicleCommand(1.0, 10.0)], sim_cfg)
        assert w.agents[0].delta == pytest.approx(sim_cfg.steer_rate_max * sim_cfg.dt)
        # and saturates at delta_max eventually
        for _ in range(200):
            w = step(w, [VehicleCommand(1.0, 10.0)], sim_cfg)
        assert w.agents[0].delta == pytest.approx(sim_cfg.delta_max)

    def test_non_finite_raises(self, sim_cfg):
        w = world_in_room([VehicleState(0, 0, 0, float("nan"))])
        with pytest.raises(NonFiniteState):
            step(w, [VehicleCommand(0.0, 0.0)], sim_cfg)

    def test_determinism_bitwise(self, sim_cfg):
        def run():
            w = world_in_room([VehicleState(-2, 0.5, 0.1, 3.0), VehicleState(1, -0.5, 0.2, 2.0)])
            cmds = [VehicleCommand(4.0, 0.05), VehicleCommand(2.0, -0.03)]
            out = []
            for _ in range(150):
                w = step(w, cmds, sim_cfg)
                out.append((w.agents[0].x, w.agents[0].y, w.agents[1].theta, w.agents[1].v))
            return out
        assert run() == run()


class TestLidar:
    def test_square_room_cardinals(self, room, sim_cfg):
        w = WorldState(room, [VehicleState(0, 0, 0.0, 0.0)])
        scan = scan_lidar(w, 0, sim_cfg)
        for beam in (0, 90, 180, 270):
            assert scan[beam] == pytest.approx(4.0, abs=1e-6)
        assert scan[45] == pytest.approx(4.0 * math.sqrt(2), abs=1e-6)

    def test_corridor_side_wall(self, stadium, sim_cfg):
        # ego on the bottom straight of the stadium, heading along the track
        w = WorldState(stadium, [VehicleState(0.0, -3.8197186342054885, 0.0, 0.0)])
        scan = scan_lidar(w, 0, sim_cfg)
        assert scan[90] == pytest.approx(1.5, abs=1e-2)
        assert scan[270] == pytest.approx(1.5, abs=1e-2)

    def test_opponent_occlusion(self, room, sim_cfg):
        w = WorldState(room, [VehicleState(-2, 0, 0.0, 0.0), VehicleState(0.0, 0, 0.0, 0.0)])
        scan = scan_lidar(w, 0, sim_cfg)
        assert scan[0] < 2.0
        assert scan[0] >= 2.0 - sim_cfg.veh_length
        # exactly the near face of a centered rectangle
        assert scan[0] == pytest.approx(2.0 - sim_cfg.veh_length / 2, abs=1e-9)

    def test_symmetry_in_corridor(self, room, sim_cfg):
        w = WorldState(room, [VehicleState(0, 0, 0.0, 0.0)])
        scan = scan_lidar(w, 0, sim_cfg)
        for i in range(1, 180):
            assert scan[i] == pytest.approx(scan[360 - i], abs=1e-6)

    def test_range_cap(self, sim_cfg):
        big = make_room_track(half=100.0)
        w = WorldState(big, [VehicleState(0, 0, 0.0, 0.0)])
        scan = scan_lidar(w, 0, sim_cfg)
        assert scan.max() == sim_cfg.lidar_range_max
        assert np.all(scan <= sim_cfg.lidar_range_max)

    def test_beam_count_follows_config(self, room):
        cfg = SimConfig(n_beams=8)
        w = WorldState(room, [VehicleState(0, 0, 0.0, 0.0)])
        assert scan_lidar(w, 0, cfg).shape == (8,)


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
        w = WorldState(track, [VehicleState(float(x), float(y), heading, 0.0),
                               VehicleState(float(x) + opp[0], float(y) + opp[1], opp[2], 0.0)])
        corners = sim.vehicle_corners(w.agents[1], cfg)
        soup = np.concatenate([segs, np.stack([corners, np.roll(corners, -1, axis=0)], axis=1)])
        angles = heading + np.arange(n_beams) * (2.0 * np.pi / n_beams)
        ref = dense_ray_hits((x, y), angles, soup, cfg.lidar_range_max)
        assert np.array_equal(scan_lidar(w, 0, cfg), ref)

    def test_empty_soup_reports_max_range(self):
        out = _geom.ray_hits((0.0, 0.0), 0.3, 16, np.zeros((0, 2, 2)), 30.0)
        assert np.array_equal(out, np.full(16, 30.0))


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
    def test_full_overlap(self, room, sim_cfg):
        w = WorldState(room, [VehicleState(0, 0, 0.0, 0), VehicleState(0, 0, 0.0, 0)])
        assert check_collision(w, sim_cfg) == [True, True]

    def test_far_apart(self, stadium, sim_cfg):
        w = WorldState(stadium, [VehicleState(0, -3.82, 0.0, 0), VehicleState(10, 2.8, 0.0, 0)])
        hits = check_collision(w, sim_cfg)
        assert hits == [False, False]

    def test_cars_touching_corner_to_corner(self, room, sim_cfg):
        # centres exactly two half-diagonals apart: one shared corner point
        dx, dy = sim_cfg.veh_length, sim_cfg.veh_width
        w = WorldState(room, [VehicleState(0, 0, 0.0, 0), VehicleState(dx, dy, 0.0, 0)])
        assert check_collision(w, sim_cfg) == [True, True]
        w2 = WorldState(room, [VehicleState(0, 0, 0.0, 0), VehicleState(dx + 1e-6, dy, 0.0, 0)])
        assert check_collision(w2, sim_cfg) == [False, False]

    def test_touching_counts(self, room, sim_cfg):
        # corner exactly on the wall segment x = 4
        x = 4.0 - sim_cfg.veh_length / 2
        w = WorldState(room, [VehicleState(x, 0, 0.0, 0)])
        assert check_collision(w, sim_cfg) == [True]
        w2 = WorldState(room, [VehicleState(x - 1e-6, 0, 0.0, 0)])
        assert check_collision(w2, sim_cfg) == [False]

    def test_third_agent_is_rejected(self, room):
        # LiDAR, the ego expert and the car-car test see at most one other
        # car: check_collision would report no contact for this third car,
        # which sits on the ego
        cars = [VehicleState(0, 0, 0.0, 0), VehicleState(2.0, 0, 0.0, 0),
                VehicleState(0.1, 0, 0.0, 0)]
        with pytest.raises(SimulationError):
            WorldState(room, cars)

    def test_latching(self, room, sim_cfg):
        w = WorldState(room, [VehicleState(3.9, 0, 0.0, 2.0)])
        w = step(w, [VehicleCommand(0.0, 0.0)], sim_cfg)
        assert w.collided == [True]
        # drive back into free space; flag must stay set
        w.agents[0] = VehicleState(0.0, 0.0, 0.0, 0.0)
        w = step(w, [VehicleCommand(0.0, 0.0)], sim_cfg)
        assert w.collided == [True]


class TestTrace:
    def test_csv_roundtrip(self, room, sim_cfg, tmp_path):
        w = WorldState(room, [VehicleState(0, 0, 0.0, 2.0), VehicleState(1, 0, 0.0, 1.0)])
        trace = Trace()
        trace.append(w)
        for _ in range(5):
            w = step(w, [VehicleCommand(2.0, 0.01), VehicleCommand(1.0, -0.01)], sim_cfg)
            trace.append(w)
        path = tmp_path / "trace.csv"
        sim.write_trace_csv(trace, path)
        back = sim.read_trace_csv(path)
        assert back.times == trace.times
        assert back.states == trace.states
        assert back.collided == trace.collided
