"""The lockstep engine and its batched kernels.

A batch gives each row the floats the row gets alone, and the pooled
engine gives, record for record and byte for byte, what the per-scenario
loop before it gave (conftest.reference_rollout with its one-scenario
sources). Each batched kernel is checked row by row against the
one-world reference it replaced (conftest), which shares no code with it.
"""

import dataclasses
import functools
import math
import multiprocessing
from contextlib import closing
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (NoFeasibleCandidate, ReferenceExpertSource, ReferencePolicySource,
                      ReferenceProgressTracker, Role, VehicleCommand, VehicleState, WorldState,
                      assert_same_bits, lattice_scales, make_room_track, reference_advance,
                      reference_check_collision, reference_expert_action,
                      reference_leader_command, reference_ray_hits, reference_rollout,
                      reference_sample_lattice, reference_scan_lidar, reference_step)
from racekit import _geom
from racekit import expert as rexpert
from racekit import simulator as rsim
from racekit import track as rtrack
from racekit.evaluator import PolicySource
from racekit.expert import ExpertConfig
from racekit.policy import PolicyConfig, init_params
from racekit.scenario import (CHUNK, ExpertSource, NoValidSpawn, Outcome, RaceEnvironment, Scenario,
                              ScenarioConfig, enumerate_scenarios, rollout, rollout_batch,
                              rollout_many, track_progress)
from racekit.simulator import SimConfig
from racekit.track import FarFromRaceline

TINY = PolicyConfig(n_beams=360, embed_dim=4, hidden_multiplier=2, mlp_hidden=16)


@functools.cache
def race_env(shape, width):
    return RaceEnvironment.build(rtrack.make_track(shape, length=60.0, width=width))


@functools.cache
def tiny_params():
    return init_params(TINY, np.random.default_rng(3))


def sources(kind, seed, pool):
    """(batched source, reference source) of one kind, for the given pool."""
    if kind == "expert":
        return ExpertSource(), ReferenceExpertSource()
    return (PolicySource(tiny_params(), TINY, noise_eta=0.3, noise_seed=seed),
            ReferencePolicySource(tiny_params(), TINY, noise_eta=0.3, noise_seed=seed,
                                  pool=pool))


class ChunkLog(ExpertSource):
    """The expert, logging the scenario ids of each chunk it starts to a
    file, which pool workers append to as well."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def reset(self, scenarios, env):
        with open(self.path, "a") as fh:
            fh.write(" ".join(sc.id for sc in scenarios) + "\n")
        super().reset(scenarios, env)

    def started(self) -> list[list[str]]:
        return [line.split() for line in self.path.read_text().splitlines()]


class Seen:
    """Rollout observer that logs each call's time, poses, collided flags
    and ego progress, and ends the episode at call number `stop` (call 0
    is the start)."""

    def __init__(self, stop=None):
        self.stop, self.calls = stop, []

    def __call__(self, t, poses, collided, progress):
        self.calls.append((np.float64(t), np.array(poses, dtype=float), np.array(collided),
                           np.float64(progress)))
        return len(self.calls) - 1 == self.stop


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
        source, reference = sources(kind, seed, scenarios)
        got = list(rollout_many(scenarios, source, env, duration, workers))
        want = [reference_rollout(sc, reference, env, duration) for sc in scenarios]
        assert_same_records(got, want)

    @pytest.mark.parametrize("kind", ["expert", "policy"])
    def test_rows_end_at_different_frames(self, kind):
        env = race_env("serpentine", 1.5)
        cfg = ScenarioConfig(ego_racelines=("left", "right"), k_positions=2, d_gap=0.8, seed=4)
        scenarios = enumerate_scenarios(cfg, env)[0]
        source, reference = sources(kind, 4, scenarios)
        got = list(rollout_many(scenarios, source, env, 3.0))
        assert len({r.n_frames for r in got[:4]}) > 1
        assert_same_records(got, [reference_rollout(sc, reference, env, 3.0)
                                  for sc in scenarios])

    @pytest.mark.parametrize("stop", [23, 192, 197])
    def test_rows_ending_inside_a_frame_match_reference(self, stop):
        """right:center:0001 collides at sim step 194 (step 4 of frame 19);
        its chunk mate's observer ends that row at sim step `stop`, inside
        frame 2 or inside frame 19 before or after the collision. Records,
        and every call each row's observer saw, equal the reference's."""
        env = race_env("serpentine", 1.5)
        cfg = ScenarioConfig(ego_racelines=("left", "right"), k_positions=2, d_gap=0.8, seed=4)
        pool = enumerate_scenarios(cfg, env)[0]
        chunk = [pool[3], pool[0]]
        assert chunk[0].id == "right:center:0001"
        seen = [Seen(), Seen(stop)]
        got = rollout_batch(chunk, ExpertSource(), env, 3.0, [[obs] for obs in seen])
        assert [r.duration_actual for r in got] == [1.9400000000000015, seen[1].calls[-1][0]]
        assert [len(obs.calls) for obs in seen] == [195, stop + 1]
        for record, sc, obs in zip(got, chunk, seen):
            reference = Seen(obs.stop)
            assert_same_records([record], [reference_rollout(sc, ReferenceExpertSource(), env, 3.0,
                                                             reference)])
            assert len(obs.calls) == len(reference.calls)
            for call, want in zip(obs.calls, reference.calls):
                for g, w in zip(call, want):
                    assert_same_bits(g, w)

    def test_policy_record_does_not_depend_on_when_chunk_mates_end(self):
        """Row 0 of a four-row chunk gives the same record whether its
        mates run to the time limit or collide in their first sim step:
        ended rows keep stepping, so the products keep their shape."""
        env = race_env("stadium", 3.0)
        pool = enumerate_scenarios(ScenarioConfig(k_positions=4, seed=6), env)[0]
        # a leader half a car length ahead: in contact from the start
        crashing = [dataclasses.replace(sc, id=f"crash:{i}", leader_s=sc.ego_s + 0.3)
                    for i, sc in enumerate(pool[1:])]
        source = PolicySource(tiny_params(), TINY, noise_eta=0.3, noise_seed=6)
        running = rollout_batch(pool, source, env, 0.5)
        ended = rollout_batch(pool[:1] + crashing, source, env, 0.5)
        assert [r.n_frames for r in running] == [5] * 4
        assert [(r.n_frames, r.outcome) for r in ended[1:]] == [(1, Outcome.COLLISION)] * 3
        assert_same_records(running[:1], ended[:1])

    def test_policy_records_equal_across_worker_counts(self):
        # six scenarios: chunks of four and two, one per worker
        env = race_env("serpentine", 2.0)
        pool = enumerate_scenarios(ScenarioConfig(ego_racelines=("left", "right"),
                                                  k_positions=3, seed=8), env)[0]
        assert len(pool) == 6
        source = PolicySource(tiny_params(), TINY, noise_eta=0.3, noise_seed=8)
        assert_same_records(list(rollout_many(pool, source, env, 1.0, workers=2)),
                            list(rollout_many(pool, source, env, 1.0, workers=1)))

    def test_pool_runs_a_chunk_when_its_first_record_is_asked_for(self, tmp_path):
        env = race_env("stadium", 3.0)
        pool = enumerate_scenarios(ScenarioConfig(k_positions=6, seed=2), env)[0]
        source = ChunkLog(tmp_path / "chunks")
        records = rollout_many(pool, source, env, 0.3)
        assert source.started() == []
        assert next(records).scenario_id == pool[0].id
        assert source.started() == [[sc.id for sc in pool[:4]]]
        assert [r.scenario_id for r in records] == [sc.id for sc in pool[1:]]
        assert source.started() == [[sc.id for sc in pool[:4]], [sc.id for sc in pool[4:]]]

    def test_a_failing_consumer_stops_the_pool(self, tmp_path):
        """The consumer raises on the first of twelve chunks' records:
        closing the stream cancels the chunks no worker has taken, the pool
        shuts down, and the error reaches the caller with no worker left."""
        env = race_env("stadium", 3.0)
        pool = enumerate_scenarios(ScenarioConfig(k_positions=48, seed=2), env)[0]
        assert len(pool) == 12 * CHUNK
        source = ChunkLog(tmp_path / "chunks")
        with pytest.raises(RuntimeError, match="consumer failed"):
            with closing(rollout_many(pool, source, env, 0.3, workers=2)) as records:
                for _ in records:
                    raise RuntimeError("consumer failed")
        assert not multiprocessing.active_children()
        assert 1 <= len(source.started()) < 12

    def test_policy_steps_match_reference_rows(self):
        """Open loop, where no actuator limit can hide a last bit: every
        running row of each chunk's batched step is the reference's row of
        an M-row product, in double precision, as rows end one by one."""
        rng = np.random.default_rng(7)
        pool = [Scenario(id=f"row:{i}", ego_raceline="center", ego_s=0.0, seed=i)
                for i in range(6)]
        for chunk in (pool[:4], pool[4:]):
            source = PolicySource(tiny_params(), TINY, noise_eta=0.3, noise_seed=7)
            source.reset(chunk, None)
            references = [ReferencePolicySource(tiny_params(), TINY, noise_eta=0.3,
                                                noise_seed=7, pool=pool) for _ in chunk]
            for sc, reference in zip(chunk, references):
                reference.reset(sc, None)
            rows = np.arange(len(chunk))
            for t in range(6):
                poses = np.zeros((len(chunk), 1, 5))
                poses[:, 0, 3] = rng.uniform(0.0, 8.0, len(chunk))
                scans = rng.uniform(0.1, 30.0, (len(rows), TINY.n_beams))
                got = source.act(rows, poses[rows], scans)
                for g, b, scan in zip(got, rows, scans):
                    want = references[b].act(WorldState(None, [VehicleState(*poses[b, 0])]),
                                             0, scan)
                    assert_same_bits(g, np.array([want.v_cmd, want.delta_cmd]))
                rows = rows[1:] if t % 2 and len(rows) > 1 else rows

    def test_leaderless_rollout_matches_reference(self):
        # the single-agent harness's form: one scenario without a leader
        env = race_env("stadium", 3.0)
        solo = [Scenario(id=f"solo:{i}", ego_raceline="center", ego_s=10.0 * i, seed=i)
                for i in range(2)]
        assert_same_records([rollout(sc, ExpertSource(), env, 0.5) for sc in solo],
                            [reference_rollout(sc, ReferenceExpertSource(), env, 0.5)
                             for sc in solo])


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


def assert_frames_match_reference(pose, cmd, cfg):
    """step_frame over one-car rows at 1 and 10 sim steps, against
    reference_advance step by step, in a room where nothing collides."""
    room = make_room_track(200.0, pieces=40)
    t, collided = np.zeros(len(pose)), np.zeros((len(pose), 1), dtype=bool)
    for n_steps in (1, 10):
        got, _, flags = rsim.step_frame(room, pose[:, None], t, collided, cmd[:, None], n_steps,
                                        cfg)
        want = np.empty_like(got)
        for k, (p, c) in enumerate(zip(pose.tolist(), cmd.tolist())):
            state = VehicleState(*p)
            for j in range(n_steps):
                state = reference_advance(state, VehicleCommand(*c), cfg)
                want[j, k, 0] = state.x, state.y, state.theta, state.v, state.delta
        assert_same_bits(got, want)
        assert not flags.any()


class TestDynamics:
    @given(rows=st.lists(st.tuples(poses, commands), min_size=1, max_size=8), cfg=sim_configs)
    @settings(max_examples=300, deadline=None)
    def test_step_frame_matches_reference(self, rows, cfg):
        assert_frames_match_reference(np.array([p for p, _ in rows]),
                                      np.array([c for _, c in rows]), cfg)

    def test_step_frame_matches_reference_on_uniform_rows(self):
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
        assert_frames_match_reference(pose, cmd, SimConfig())

    @given(rows=st.lists(st.tuples(poses, poses, commands, commands), min_size=1, max_size=5),
           name=st.sampled_from(["room", "stadium"]), n_steps=st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_step_frame_matches_one_world_steps(self, rows, name, n_steps):
        track = kernel_track(name)
        worlds = [WorldState(track, [VehicleState(*a), VehicleState(*b)]) for a, b, _, _ in rows]
        picked = np.arange(0, len(rows), 2)
        state = (np.array([[a, b] for a, b, _, _ in rows])[picked], np.zeros(len(picked)),
                 np.zeros((len(picked), 2), dtype=bool))
        cmds = np.array([[ca, cb] for _, _, ca, cb in rows])
        before = [a.copy() for a in state]
        got = rsim.step_frame(track, *state, cmds[picked], n_steps, SimConfig())
        for a, b in zip(state, before):
            assert_same_bits(a, b)                         # the inputs are not written
        for k, b in enumerate(picked):
            one = worlds[b]
            for poses, times, flags in zip(*got):
                one = reference_step(one, [VehicleCommand(*c) for c in cmds[b]], SimConfig())
                assert_same_bits(poses[k], np.array([(s.x, s.y, s.theta, s.v, s.delta)
                                                     for s in one.agents]))
                assert_same_bits(times[k], np.float64(one.t))
                assert_same_bits(flags[k], np.array(one.collided))


# ---------------------------------------------------------------------------
# collision and LiDAR


@functools.cache
def kernel_track(name):
    if name == "room":
        return make_room_track()
    return rtrack.make_track(name, length=14.0 if name == "circle" else 60.0, width=3.0)


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
        got = rsim.collision_events(track, np.array([[a, b][:1 + two] for a, b in pairs]), cfg)
        for g, (a, b) in zip(got, pairs):
            world = WorldState(track, [VehicleState(*a), VehicleState(*b)][:1 + two])
            assert g.tolist() == reference_check_collision(world, cfg)

    @given(name=st.sampled_from(["room", "stadium", "serpentine"]),
           rows=st.lists(cars, min_size=1, max_size=5), agent=st.integers(0, 1),
           n_beams=st.sampled_from([8, 360]))
    @settings(max_examples=100, deadline=None)
    def test_scan_rows_match_one_world_scans(self, name, rows, agent, n_beams):
        track = kernel_track(name)
        cfg = SimConfig(n_beams=n_beams)
        pairs = [near_boundary(track, *row) for row in rows]
        got = rsim.scan_batch(track, np.array(pairs), agent, cfg)
        for g, (a, b) in zip(got, pairs):
            world = WorldState(track, [VehicleState(*a), VehicleState(*b)])
            assert_same_bits(g, reference_scan_lidar(world, agent, cfg))

    @given(name=st.sampled_from(["room", "stadium", "serpentine"]),
           rows=st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
                                   st.floats(-20.0, 20.0)), min_size=1, max_size=16),
           n_beams=st.sampled_from([8, 90, 360]))
    @settings(max_examples=100, deadline=None)
    def test_ray_hits_rows_match_single_sensors(self, name, rows, n_beams):
        segs = kernel_track(name).boundary_segments
        origins = np.array([r[:2] for r in rows])
        headings = np.array([r[2] for r in rows])
        table = _geom.ray_table(np.broadcast_to(segs, (len(rows),) + segs.shape))
        with mock.patch.object(_geom, "_beam_cones", wraps=_geom._beam_cones) as cones:
            got = _geom.ray_hits(origins, headings, n_beams, table, 30.0)
        assert cones.call_count == 1         # the broad phase of all rows in one pass
        for b in range(len(rows)):
            one = slice(b, b + 1)
            assert_same_bits(got[b], _geom.ray_hits(origins[one], headings[one], n_beams,
                                                    table[:, one], 30.0)[0])
            assert_same_bits(got[b], reference_ray_hits(origins[b], float(headings[b]), n_beams,
                                                        segs, 30.0))


# ---------------------------------------------------------------------------
# progress


class TestProgress:
    @given(name=st.sampled_from(["stadium", "serpentine"]),
           points=st.lists(st.tuples(st.floats(-200.0, 200.0), st.floats(-3.0, 3.0),
                                     st.floats(-2.0, 2.0)), min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_one_point_trackers(self, name, points):
        """One step (S = 1) of N points."""
        track = kernel_track(name)
        hints = np.array([p[0] for p in points])
        xy = np.array([track_xy(track, s + ds, off) for s, ds, off in points])
        with mock.patch.object(_geom, "in_arc_windows", wraps=_geom.in_arc_windows) as rows:
            got = track_progress(track, hints, xy[None, :, 0], xy[None, :, 1])[0]
        for g, (hint, _, _), (x, y) in zip(got, points, xy):
            with mock.patch.object(_geom, "in_arc_windows", wraps=_geom.in_arc_windows) as one_row:
                one = track_progress(track, np.array([hint]), np.array([[x]]),
                                     np.array([[y]]))[0, 0]
            assert rows.call_count == one_row.call_count
            assert_same_bits(g, np.float64(one))
            assert_same_bits(g, np.float64(ReferenceProgressTracker(track, hint).update(x, y)))

    @given(data=st.data(), name=st.sampled_from(["stadium", "serpentine"]),
           far=st.booleans(), n=st.integers(1, 4), n_steps=st.integers(10, 12))
    @settings(max_examples=100, deadline=None)
    def test_trajectory_matches_one_step_calls(self, data, name, far, n, n_steps):
        """S steps of N points that start 0.05-0.4 m short of the lap seam and
        cross it, forward or backward, at most 1 m off the line. Steps of
        0.05-0.2 m stay inside the wide windows; steps of 0.5-1.5 m (far)
        leave them, so they are rebuilt during the trajectory."""
        track = kernel_track(name)
        length = track.total_length
        hints, path = [], []
        for _ in range(n):
            lap, sign = data.draw(st.integers(-2, 3)), data.draw(st.sampled_from([-1, 1]))
            moves = data.draw(st.lists(st.floats(0.5, 1.5) if far else st.floats(0.05, 0.2),
                                       min_size=n_steps, max_size=n_steps))
            offs = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_steps, max_size=n_steps))
            hints.append(lap * length - sign * data.draw(st.floats(0.05, 0.4)))
            arcs = hints[-1] + sign * np.cumsum(moves)
            path.append([track_xy(track, s, off) for s, off in zip(arcs, offs)])
        hints, path = np.array(hints), np.array(path).transpose(1, 0, 2)      # (S, N, 2)
        with mock.patch.object(_geom, "arc_windows", wraps=_geom.arc_windows) as builds:
            got = track_progress(track, hints, path[..., 0], path[..., 1])
        assert (np.floor(got[-1] / length) != np.floor(hints / length)).all()
        assert (builds.call_count > 1) == far
        last = hints
        for j in range(n_steps):
            one = track_progress(track, last, path[j:j + 1, :, 0], path[j:j + 1, :, 1])[0]
            assert_same_bits(got[j], one)
            last = one
        for i, hint in enumerate(hints):
            reference = ReferenceProgressTracker(track, hint)
            assert_same_bits(got[:, i], np.array([reference.update(x, y) for x, y in path[:, i]]))

    @pytest.mark.parametrize("name", ["stadium", "serpentine"])
    def test_passes_do_not_grow_with_steps_or_rows(self, name):
        """Points driving forward along the centerline inside one lap, less
        than the margin in all: every first minimum lies in its window, so
        one pass (two window masks) resolves the steps however many steps
        and points there are."""
        track = kernel_track(name)
        calls = set()
        for n_steps in (2, 10, 20):
            for n in (1, 4, 16):
                hints = 10.0 + 0.3 * np.arange(n)
                arcs = hints + 0.1 * np.arange(1, n_steps + 1)[:, None]
                path = np.array([[track_xy(track, s, 0.0) for s in row] for row in arcs])
                with mock.patch.object(_geom, "in_arc_windows",
                                       wraps=_geom.in_arc_windows) as windows:
                    got = track_progress(track, hints, path[..., 0], path[..., 1])
                calls.add(windows.call_count)
                assert (np.diff(got, axis=0) > 0).all()
        assert calls == {2}

    @given(start=st.floats(0.0, 14.0),
           steps=st.lists(st.tuples(st.floats(-0.3, 0.3), st.floats(2.5, 3.5)), min_size=1,
                          max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_steps_pick_only_in_their_exact_window(self, start, steps):
        """On a 14 m circle (radius 2.2 m), a point past the centre lies
        nearest the far side, 7 m of arc away: outside its 6 m window, and
        inside the wide one, which spans the loop. Each step still picks
        inside its own window."""
        track = kernel_track("circle")
        arcs = start + np.cumsum([ds for ds, _ in steps])
        path = np.array([track_xy(track, s, off) for s, (_, off) in zip(arcs, steps)])[:, None]
        got = track_progress(track, np.array([start]), path[..., 0], path[..., 1])
        nearest, _ = _geom.project_to_polyline(path[:, 0], track.segment_table)
        assert not np.array_equal(np.mod(got[:, 0], track.total_length), nearest)
        reference = ReferenceProgressTracker(track, start)
        assert_same_bits(got[:, 0], np.array([reference.update(x, y) for x, y in path[:, 0]]))


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
                           lateral_max=st.floats(0.0, 1.5), safety_margin=st.floats(0.0, 0.6))
# the candidate grid runs at the sim rate
sim_configs = st.builds(SimConfig, dt=st.sampled_from([0.01, 0.02, 0.05, 0.1]))
where = st.tuples(st.sampled_from(["stadium", "serpentine"]), st.sampled_from([3.0, 1.2]),
                  st.sampled_from(["left", "center", "right"]))


class TestExpert:
    @given(where=where, rows=st.lists(states, min_size=1, max_size=5), cfg=expert_configs,
           sim=sim_configs, far=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_lattice_rows_match_one_state_lattices(self, where, rows, cfg, sim, far):
        """Row b's kept candidates are the reference lattice of its state:
        the same (speed, offset) pairs in the same order with the same
        arrays; a row the reference fails on keeps none."""
        rl = expert_raceline(*where)
        poses = np.array([pose_on(rl, *r) for r in rows])
        if far:
            poses[0, :2] += 30.0        # beyond the projection radius
        lattice = rexpert.sample_lattices(poses, rl, cfg, sim)
        for b, pose in enumerate(poses):
            try:
                want = reference_sample_lattice(VehicleState(*pose.tolist()), rl, cfg, sim)
            except (NoFeasibleCandidate, FarFromRaceline):
                assert not lattice.kept[b].any()
                continue
            js, is_ = np.nonzero(lattice.kept[b])
            assert [(c.speed_scale, c.lateral_offset) for c in want] == \
                list(zip(lattice_scales(cfg)[js].tolist(), lattice.offsets[is_].tolist()))
            for j, i, w in zip(js, is_, want):
                assert_same_bits(lattice.xy[b, j, i], w.xy)
                assert_same_bits(lattice.v[b, j, 0], w.v)
                assert_same_bits(lattice.d[b, 0, i], w.d_path)
                assert_same_bits(lattice.kappa[b, j, 0], rl._interp(rl.kappa, w.s_path))

    @given(where=where, rows=st.lists(st.tuples(states, states), min_size=1, max_size=4),
           cfg=expert_configs, sim=sim_configs, alone=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_ego_rows_match_one_world_actions(self, where, rows, cfg, sim, alone):
        rl = expert_raceline(*where)
        egos = np.array([pose_on(rl, *e) for e, _ in rows])
        opps = np.array([pose_on(rl, *o) for _, o in rows])
        got = rexpert.ego_commands(egos, None if alone else opps, rl, cfg, sim)
        for g, ego, opp in zip(got, egos, opps):
            agents = [VehicleState(*ego.tolist())]
            if not alone:
                agents.append(VehicleState(*opp.tolist()))
            want = reference_expert_action(WorldState(None, agents), 0, Role.EGO, rl, cfg, sim)
            assert_same_bits(g, np.array([want.v_cmd, want.delta_cmd]))

    @given(where=where, rows=st.lists(states, min_size=1, max_size=5), cfg=expert_configs,
           sim=sim_configs)
    @settings(max_examples=100, deadline=None)
    def test_leader_rows_match_reference(self, where, rows, cfg, sim):
        rl = expert_raceline(*where)
        leaders = np.array([pose_on(rl, *r) for r in rows])
        got = rexpert.leader_commands(leaders, rl, cfg, sim)
        for g, pose in zip(got, leaders):
            want = reference_leader_command(VehicleState(*pose.tolist()), rl, cfg, sim)
            assert_same_bits(g, np.array([want.v_cmd, want.delta_cmd]))

    @given(rows=st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
                                   st.floats(-40.0, 40.0), st.floats(0.0, 10.0)),
                         min_size=1, max_size=5), cfg=expert_configs, sim=sim_configs)
    @settings(max_examples=100, deadline=None)
    def test_opponent_predictions_match_reference(self, rows, cfg, sim):
        got = rexpert.predict_opponents(np.array([r + (0.0,) for r in rows]), cfg, sim)
        for g, (x, y, theta, v) in zip(got, rows):
            n_steps = max(2, int(round(cfg.horizon_T / sim.dt)) + 1)
            tau = np.arange(n_steps) * sim.dt
            vx, vy = v * math.cos(theta), v * math.sin(theta)
            assert_same_bits(g, np.stack([x + vx * tau, y + vy * tau], axis=1))

