"""The lockstep engine and its batched kernels.

A batch gives each row the floats the row gets alone, and the pooled
engine gives, record for record and byte for byte, what the per-scenario
loop before it gave (conftest.reference_rollout with its one-scenario
sources). Each batched kernel is checked against its batch of one and
against the one-world reference it replaced (conftest), which shares no
code with it.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (ReferenceExpertSource, ReferencePolicySource, ReferenceProgressTracker,
                      assert_same_bits, make_room_track, reference_advance,
                      reference_check_collision, reference_expert_action,
                      reference_leader_command, reference_ray_hits, reference_rollout,
                      reference_scan_lidar, reference_step)
from racekit import _geom
from racekit import expert as rexpert
from racekit import simulator as rsim
from racekit import track as rtrack
from racekit.evaluator import PolicySource
from racekit.expert import ExpertConfig, NoFeasibleCandidate, Role
from racekit.policy import PolicyConfig, init_params
from racekit.scenario import (ExpertSource, NoValidSpawn, RaceEnvironment, Scenario,
                              ScenarioConfig, enumerate_scenarios, rollout_many, track_progress)
from racekit.simulator import SimConfig, VehicleCommand, VehicleState, WorldBatch, WorldState
from racekit.track import FarFromRaceline

TINY = PolicyConfig(n_beams=360, embed_dim=4, hidden_multiplier=2, mlp_hidden=16)


@functools.cache
def race_env(shape, width):
    return RaceEnvironment.build(rtrack.make_track(shape, length=60.0, width=width))


@functools.cache
def tiny_params():
    return init_params(TINY, np.random.default_rng(3))


def sources(kind, seed):
    """(batched source, reference source) of one kind."""
    if kind == "expert":
        return ExpertSource(), ReferenceExpertSource()
    return (PolicySource(tiny_params(), TINY, noise_eta=0.3, noise_seed=seed),
            ReferencePolicySource(tiny_params(), TINY, noise_eta=0.3, noise_seed=seed))


def assert_same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.scenario_id, g.seed, g.outcome) == (w.scenario_id, w.seed, w.outcome)
        for name in ("scans", "ego_v", "actions", "duration_actual", "ego_progress",
                     "leader_progress"):
            assert_same_bits(getattr(g, name), getattr(w, name))


class TestEngine:
    @given(where=st.tuples(st.sampled_from(["stadium", "serpentine"]), st.sampled_from([3.0, 2.0])),
           racelines=st.sampled_from([(("center",), ("center",)),
                                      (("left", "right"), ("center", "right"))]),
           k=st.integers(1, 9), d_gap=st.floats(0.7, 4.0), phase=st.floats(0.0, 1.0),
           seed=st.integers(0, 99), kind=st.sampled_from(["expert", "policy"]),
           workers=st.sampled_from([1, 2]), duration=st.sampled_from([0.6, 1.2]))
    @settings(max_examples=10, deadline=None)
    def test_pool_matches_reference(self, where, racelines, k, d_gap, phase, seed, kind,
                                    workers, duration):
        """Pools of 1-9 scenarios, with collisions and small gaps, so rows
        of one chunk end at different frames."""
        env = race_env(*where)
        cfg = ScenarioConfig(ego_racelines=racelines[0], leader_racelines=racelines[1],
                             k_positions=k, d_gap=d_gap, seed=seed, spawn_phase=phase)
        try:
            scenarios = enumerate_scenarios(cfg, env)[0][:9]
        except NoValidSpawn:
            assume(False)
        source, reference = sources(kind, seed)
        got = rollout_many(scenarios, source, env, duration, workers)
        want = [reference_rollout(sc, reference, env, duration)[0] for sc in scenarios]
        assert_same_records(got, want)

    @pytest.mark.parametrize("kind", ["expert", "policy"])
    def test_rows_end_at_different_frames(self, kind):
        env = race_env("serpentine", 1.5)
        cfg = ScenarioConfig(ego_racelines=("left", "right"), k_positions=2, d_gap=0.8, seed=4)
        scenarios = enumerate_scenarios(cfg, env)[0]
        source, reference = sources(kind, 4)
        got = rollout_many(scenarios, source, env, 3.0)
        assert len({r.n_frames for r in got[:4]}) > 1
        assert_same_records(got, [reference_rollout(sc, reference, env, 3.0)[0]
                                  for sc in scenarios])

    def test_leaderless_rows_in_a_pool(self):
        env = race_env("stadium", 3.0)
        scenarios = enumerate_scenarios(ScenarioConfig(k_positions=3, seed=2), env)[0]
        solo = [Scenario(id=f"solo:{i}", ego_raceline="center", ego_s=10.0 * i, seed=i)
                for i in range(2)]
        pool = [solo[0], scenarios[0], scenarios[1], solo[1], scenarios[2]]
        got = rollout_many(pool, ExpertSource(), env, 0.5)
        assert_same_records(got, [reference_rollout(sc, ReferenceExpertSource(), env, 0.5)[0]
                                  for sc in pool])


# ---------------------------------------------------------------------------
# dynamics


signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-12.0, 12.0))
poses = st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-40.0, 40.0),
                  st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 10.0)),
                  st.one_of(st.sampled_from([0.0, -0.0, 0.4189, -0.4189]), st.floats(-0.5, 0.5)))
commands = st.tuples(signed, st.one_of(st.sampled_from([0.0, -0.0, 0.4189]), st.floats(-1.0, 1.0)))
sim_configs = st.builds(SimConfig, delta_max=st.sampled_from([0.4189, 0.0]),
                        steer_rate_max=st.sampled_from([3.2, 0.0]),
                        a_min=st.sampled_from([-9.51, 0.0]), a_max=st.sampled_from([9.51, 0.0]),
                        v_hard_max=st.sampled_from([10.0, 0.0]))


class TestDynamics:
    @given(rows=st.lists(st.tuples(poses, commands), min_size=1, max_size=8), cfg=sim_configs)
    @settings(max_examples=300, deadline=None)
    def test_advance_matches_reference(self, rows, cfg):
        pose = np.array([p for p, _ in rows])
        cmd = np.array([c for _, c in rows])
        got = rsim.advance(pose, cmd, cfg)
        for g, (p, c) in zip(got, rows):
            want = reference_advance(VehicleState(*p), VehicleCommand(*c), cfg)
            assert_same_bits(g, np.array([want.x, want.y, want.theta, want.v, want.delta]))

    def test_advance_matches_reference_on_uniform_rows(self):
        """Uniform draws over the driving range: numpy's SIMD tan rounds
        differently from math.tan on ~0.5% of steering angles, which
        hypothesis's draws rarely reach. Half the headings are zero, where
        the heading update is the tan term itself and no rounding of a
        larger heading hides it."""
        rng = np.random.default_rng(0)
        n = 4000
        theta = np.where(np.arange(n) % 2 == 0, 0.0, rng.uniform(-7, 7, n))
        pose = np.stack([rng.uniform(-30, 30, n), rng.uniform(-30, 30, n), theta,
                         rng.uniform(0, 9, n), rng.uniform(-0.42, 0.42, n)], axis=1)
        cmd = np.stack([rng.uniform(-1, 9, n), rng.uniform(-0.6, 0.6, n)], axis=1)
        cfg = SimConfig()
        got = rsim.advance(pose, cmd, cfg)
        for g, p, c in zip(got, pose.tolist(), cmd.tolist()):
            want = reference_advance(VehicleState(*p), VehicleCommand(*c), cfg)
            assert_same_bits(g, np.array([want.x, want.y, want.theta, want.v, want.delta]))

    @given(rows=st.lists(st.tuples(poses, poses, commands, commands), min_size=1, max_size=5),
           name=st.sampled_from(["room", "stadium"]))
    @settings(max_examples=100, deadline=None)
    def test_step_rows_match_one_world_steps(self, rows, name):
        track = kernel_track(name)
        worlds = [WorldState(track, [VehicleState(*a), VehicleState(*b)]) for a, b, _, _ in rows]
        batch = WorldBatch.of(worlds)
        cmds = np.array([[ca, cb] for _, _, ca, cb in rows])
        picked = np.arange(0, len(rows), 2)
        rsim.step_rows(batch, picked, cmds[picked], SimConfig())
        for b, world in enumerate(worlds):
            for step in (rsim.step, reference_step):
                if b in picked:
                    one = step(world, [VehicleCommand(*c) for c in cmds[b]], SimConfig())
                else:
                    one = world
                want = WorldBatch.of([one])
                assert_same_bits(batch.poses[b], want.poses[0])
                assert_same_bits(batch.t[b], want.t[0])
                assert_same_bits(batch.collided[b], want.collided[0])


# ---------------------------------------------------------------------------
# collision and LiDAR


@functools.cache
def kernel_track(name):
    if name == "room":
        return make_room_track()
    return rtrack.make_track(name, length=60.0, width=3.0)


def near_boundary(track, pick, off, gap, turn):
    """A pose `off` metres from a boundary vertex, and a second car `gap`
    away from it: cars that touch walls and each other."""
    segs = track.boundary_segments
    x, y = segs[int(pick * len(segs)), 0] + off
    return (float(x), float(y), turn, 0.0, 0.0), (float(x) + gap[0], float(y) + gap[1],
                                                  turn + gap[2], 0.0, 0.0)


cars = st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                 st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)).map(np.array),
                 st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7), st.floats(-np.pi, np.pi)),
                 st.floats(-np.pi, np.pi))


class TestSensing:
    @given(name=st.sampled_from(["room", "stadium", "serpentine"]),
           rows=st.lists(cars, min_size=1, max_size=5), two=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_collision_events_match_reference(self, name, rows, two):
        track = kernel_track(name)
        cfg = SimConfig()
        pairs = [near_boundary(track, pick, off, gap, turn) for pick, off, gap, turn in rows]
        worlds = [WorldState(track, [VehicleState(*a), VehicleState(*b)][:1 + two])
                  for a, b in pairs]
        got = rsim.collision_events(track, WorldBatch.of(worlds).poses, cfg)
        for g, world in zip(got, worlds):
            assert g.tolist() == reference_check_collision(world, cfg)
            assert g.tolist() == rsim.check_collision(world, cfg)

    @given(name=st.sampled_from(["room", "stadium", "serpentine"]),
           rows=st.lists(cars, min_size=1, max_size=5), agent=st.integers(0, 1),
           n_beams=st.sampled_from([8, 360]))
    @settings(max_examples=100, deadline=None)
    def test_scan_rows_match_one_world_scans(self, name, rows, agent, n_beams):
        track = kernel_track(name)
        cfg = SimConfig(n_beams=n_beams)
        worlds = [WorldState(track, [VehicleState(*a), VehicleState(*b)])
                  for a, b in (near_boundary(track, *row) for row in rows)]
        got = rsim.scan_batch(track, WorldBatch.of(worlds).poses, agent, cfg)
        for g, world in zip(got, worlds):
            assert_same_bits(g, rsim.scan_lidar(world, agent, cfg))
            assert_same_bits(g, reference_scan_lidar(world, agent, cfg))

    @given(name=st.sampled_from(["room", "stadium", "serpentine"]),
           rows=st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
                                   st.floats(-20.0, 20.0)), min_size=1, max_size=5),
           n_beams=st.sampled_from([8, 90, 360]))
    @settings(max_examples=100, deadline=None)
    def test_ray_hits_rows_match_single_sensors(self, name, rows, n_beams):
        segs = kernel_track(name).boundary_segments
        origins = np.array([r[:2] for r in rows])
        headings = np.array([r[2] for r in rows])
        soups = np.broadcast_to(segs, (len(rows),) + segs.shape)
        got = _geom.ray_hits(origins, headings, n_beams, soups, 30.0)
        for b in range(len(rows)):
            assert_same_bits(got[b], _geom.ray_hits(origins[b], float(headings[b]), n_beams,
                                                    segs, 30.0))
            assert_same_bits(got[b], reference_ray_hits(origins[b], float(headings[b]), n_beams,
                                                        segs, 30.0))


# ---------------------------------------------------------------------------
# progress


class TestProgress:
    @given(name=st.sampled_from(["stadium", "serpentine"]),
           points=st.lists(st.tuples(st.floats(-200.0, 200.0), st.floats(-3.0, 3.0),
                                     st.floats(-2.0, 2.0)), min_size=1, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_one_point_trackers(self, name, points):
        track = kernel_track(name)
        hints = np.array([p[0] for p in points])
        xy = np.array([track_xy(track, s + ds, off) for s, ds, off in points])
        got = track_progress(track, hints, xy[:, 0], xy[:, 1])
        for g, (hint, _, _), (x, y) in zip(got, points, xy):
            one = track_progress(track, np.array([hint]), np.array([x]), np.array([y]))[0]
            assert_same_bits(g, np.float64(one))
            assert_same_bits(g, np.float64(ReferenceProgressTracker(track, hint).update(x, y)))


def track_xy(track, s, off):
    idx, frac = rtrack._locate(track.segment_table, np.asarray(s % track.total_length))
    nxt = (idx + 1) % len(track.xy)
    return track.xy[idx] * (1 - frac) + track.xy[nxt] * frac + off * track.normals[idx]


# ---------------------------------------------------------------------------
# expert


@functools.cache
def expert_raceline(shape, width, rid):
    return rtrack.generate_raceline(rtrack.make_track(shape, length=60.0, width=width), rid)


states = st.tuples(st.floats(-100.0, 100.0), st.floats(-1.2, 1.2), st.floats(-0.5, 0.5),
                   st.floats(0.0, 10.0))


def pose_on(rl, s, off, dtheta, v):
    x, y = rl.position_at(s) + off * rtrack.normal_of(rl.heading_at(s))
    return (float(x), float(y), float(rl.heading_at(s)) + dtheta, v, 0.0)


expert_configs = st.builds(ExpertConfig, n_lateral=st.integers(1, 9), n_speed=st.integers(1, 4),
                           horizon_T=st.floats(0.05, 3.0), blend_T=st.floats(0.05, 3.0),
                           sample_dt=st.sampled_from([0.01, 0.02, 0.05, 0.1]),
                           lateral_max=st.floats(0.0, 1.5), safety_margin=st.floats(0.0, 0.6))
where = st.tuples(st.sampled_from(["stadium", "serpentine"]), st.sampled_from([3.0, 1.2]),
                  st.sampled_from(["left", "center", "right"]))


class TestExpert:
    @given(where=where, rows=st.lists(states, min_size=1, max_size=5), cfg=expert_configs,
           far=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_lattice_rows_match_one_state_lattices(self, where, rows, cfg, far):
        rl = expert_raceline(*where)
        poses = np.array([pose_on(rl, *r) for r in rows])
        if far:
            poses[0, :2] += 30.0        # beyond the projection radius
        lattice = rexpert.sample_lattices(poses, rl, cfg)
        for b, pose in enumerate(poses):
            state = VehicleState(*pose.tolist())
            try:
                want = rexpert.sample_lattice(state, rl, None, cfg)
            except (NoFeasibleCandidate, FarFromRaceline) as exc:
                assert type(lattice.errors[b]) is type(exc)
                assert str(lattice.errors[b]) == str(exc)
                assert not lattice.kept[b].any()
                continue
            got = lattice.candidates(b)
            assert [(c.speed_scale, c.lateral_offset) for c in got] == \
                [(c.speed_scale, c.lateral_offset) for c in want]
            for g, w in zip(got, want):
                for name in ("xy", "heading", "v", "d_path", "kappa_path"):
                    assert_same_bits(getattr(g, name), getattr(w, name))

    @given(where=where, rows=st.lists(st.tuples(states, states), min_size=1, max_size=4),
           cfg=expert_configs, alone=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_ego_rows_match_one_world_actions(self, where, rows, cfg, alone):
        rl = expert_raceline(*where)
        egos = np.array([pose_on(rl, *e) for e, _ in rows])
        opps = np.array([pose_on(rl, *o) for _, o in rows])
        got = rexpert.ego_commands(egos, None if alone else opps, rl, cfg)
        for g, ego, opp in zip(got, egos, opps):
            agents = [VehicleState(*ego.tolist())]
            if not alone:
                agents.append(VehicleState(*opp.tolist()))
            world = WorldState(None, agents)
            for action in (rexpert.expert_action, reference_expert_action):
                want = action(world, 0, Role.EGO, rl, cfg)
                assert_same_bits(g, np.array([want.v_cmd, want.delta_cmd]))

    @given(where=where, rows=st.lists(states, min_size=1, max_size=5), cfg=expert_configs)
    @settings(max_examples=100, deadline=None)
    def test_leader_rows_match_reference(self, where, rows, cfg):
        rl = expert_raceline(*where)
        leaders = np.array([pose_on(rl, *r) for r in rows])
        got = rexpert.leader_commands(leaders, rl, cfg)
        for g, pose in zip(got, leaders):
            want = reference_leader_command(VehicleState(*pose.tolist()), rl, cfg)
            assert_same_bits(g, np.array([want.v_cmd, want.delta_cmd]))
            world = WorldState(None, [VehicleState(0.0, 0.0, 0.0, 0.0),
                                      VehicleState(*pose.tolist())])
            assert rexpert.expert_action(world, 1, Role.LEADER, rl, cfg) == want

    @given(rows=st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
                                   st.floats(-40.0, 40.0), st.floats(0.0, 10.0)),
                         min_size=1, max_size=5), cfg=expert_configs)
    @settings(max_examples=100, deadline=None)
    def test_opponent_predictions_match_reference(self, rows, cfg):
        got = rexpert.predict_opponents(np.array([r + (0.0,) for r in rows]), cfg)
        for g, (x, y, theta, v) in zip(got, rows):
            n_steps = max(2, int(round(cfg.horizon_T / cfg.sample_dt)) + 1)
            tau = np.arange(n_steps) * cfg.sample_dt
            vx, vy = v * math.cos(theta), v * math.sin(theta)
            assert_same_bits(g, np.stack([x + vx * tau, y + vy * tau], axis=1))

