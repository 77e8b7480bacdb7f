import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (assert_same_bits, reference_arc_window, reference_project_to_polyline,
                      uneven_circle)
from racekit import scenario as rscn
from racekit import track as rtrack
from racekit.expert import ExpertConfig
from racekit.scenario import (
    PROGRESS_WINDOW,
    EmptyDataset,
    EpisodeRecord,
    ExpertSource,
    Outcome,
    RaceEnvironment,
    ScenarioConfig,
    ScenarioError,
    classify_outcome,
    enumerate_scenarios,
    load_episode,
    load_manifest_dataset,
    rollout,
    save_dataset,
    save_episode,
    track_progress,
    write_manifest,
)
from racekit.simulator import Trace


@pytest.fixture(scope="module")
def env(stadium):
    return RaceEnvironment.build(stadium)


def fake_record(outcome, frames=5, sid="x", seed=1, n_beams=360):
    return EpisodeRecord(
        scenario_id=sid, seed=seed,
        scans=np.random.default_rng(seed).uniform(0.1, 30.0, (frames, n_beams)).astype(np.float32),
        ego_v=np.linspace(2, 5, frames).astype(np.float32),
        actions=np.stack([np.full(frames, 4.0), np.full(frames, 0.02)], axis=1).astype(np.float32),
        outcome=outcome, duration_actual=frames / 10.0,
        ego_progress=12.0, leader_progress=10.0)


class TestEnumerate:
    def test_even_spacing(self, env):
        cfg = ScenarioConfig(k_positions=4, d_gap=3.0)
        scenarios, skipped = enumerate_scenarios(cfg, env)
        assert len(scenarios) == 4
        assert skipped == 0
        L = env.racelines["center"].length
        got = sorted(s.ego_s for s in scenarios)
        want = [0.0, L / 4, L / 2, 3 * L / 4]
        assert np.allclose(got, want, atol=1e-9)

    def test_leader_ahead_by_gap(self, env):
        cfg = ScenarioConfig(k_positions=3, d_gap=3.0)
        scenarios, _ = enumerate_scenarios(cfg, env)
        L = env.racelines["center"].length
        for sc in scenarios:
            assert (sc.leader_s - sc.ego_s) % L == pytest.approx(3.0, abs=1e-9)

    def test_gap_exceeding_track_rejected(self, env):
        with pytest.raises(ScenarioError):
            enumerate_scenarios(ScenarioConfig(k_positions=2, d_gap=1000.0), env)

    def test_gap_below_vehicle_length_rejected(self, env):
        with pytest.raises(ScenarioError):
            enumerate_scenarios(ScenarioConfig(k_positions=2, d_gap=0.5), env)

    def test_cross_product_racelines(self, env):
        cfg = ScenarioConfig(ego_racelines=("left", "right"),
                             leader_racelines=("center", "right"), k_positions=2)
        scenarios, _ = enumerate_scenarios(cfg, env)
        combos = {(s.ego_raceline, s.leader_raceline) for s in scenarios}
        assert combos == {("left", "center"), ("left", "right"),
                          ("right", "center"), ("right", "right")}
        assert len(scenarios) == 8

    def test_seeds_distinct_and_deterministic(self, env):
        cfg = ScenarioConfig(k_positions=5, seed=99)
        a, _ = enumerate_scenarios(cfg, env)
        b, _ = enumerate_scenarios(cfg, env)
        assert [s.seed for s in a] == [s.seed for s in b]
        assert len({s.seed for s in a}) == 5


class TestClassify:
    def test_overtaking(self):
        assert classify_outcome(52.1, 49.3, False, False) == Outcome.OVERTAKING

    def test_collision_precedence(self):
        assert classify_outcome(52.1, 49.3, True, False) == Outcome.COLLISION
        assert classify_outcome(10.0, 49.3, False, True) == Outcome.COLLISION

    def test_tie_is_car_following(self):
        assert classify_outcome(50.0, 50.0, False, False) == Outcome.CAR_FOLLOWING

    def test_behind_is_car_following(self):
        assert classify_outcome(45.0, 50.0, False, False) == Outcome.CAR_FOLLOWING


def progress_after(track, progress, x, y):
    """track_progress of one point's one step."""
    return float(track_progress(track, np.array([progress]), np.array([[x]], dtype=float),
                                np.array([[y]], dtype=float))[0, 0])


class TestProgressTracker:
    @pytest.mark.parametrize("track_name", ["stadium", "uneven"])
    def test_follows_the_centerline_for_a_lap(self, stadium, track_name):
        track = stadium if track_name == "stadium" else uneven_circle()
        L = track.total_length
        # a point driven along the centerline in 5 cm steps (one 100 Hz
        # step at 5 m/s), for a little more than one lap
        s_true = np.arange(0.0, L + 1.0, 0.05)
        idx = np.searchsorted(track.arc_table, s_true % L, side="right") - 1
        frac = (s_true % L - track.arc_table[idx]) / np.diff(track.arc_table)[idx]
        pts = track.xy[idx] + frac[:, None] * (track.xy[(idx + 1) % len(track.xy)] - track.xy[idx])
        got = []
        progress = 0.0
        for x, y in pts:
            progress = progress_after(track, progress, x, y)
            got.append(progress)
        assert np.allclose(got, s_true, atol=1e-6)

    @given(name=st.sampled_from(["stadium", "serpentine", "uneven"]),
           hint=st.floats(-200.0, 200.0),
           moves=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0)),
                          min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_update_matches_reference(self, name, hint, moves):
        """Bit for bit the update that windows by arc and projects with the
        reference kernel, on uneven spacing and up to 2 m off the line."""
        track = tracker_track(name)
        L = track.total_length
        tracked = hint
        progress = hint
        s = hint
        for ds, off in moves:
            s += ds
            x, y = track_point(track, s, off)
            window = reference_arc_window(track.arc_table, progress, PROGRESS_WINDOW)
            s_ref, _ = reference_project_to_polyline(np.array([[x, y]]), track.xy,
                                                     track.arc_table, seg_idx=window)
            delta = (float(s_ref[0]) - progress) % L
            if delta > L / 2:
                delta -= L
            progress += delta
            tracked = progress_after(track, tracked, x, y)
            assert_same_bits(tracked, progress)


@functools.cache
def tracker_track(name):
    if name == "uneven":
        return uneven_circle()
    return rtrack.make_track(name, length=60.0, width=3.0)


def track_point(track, s, off):
    """The centerline point at arc s (wrapping), moved off metres along its
    left normal."""
    L = track.total_length
    idx = np.searchsorted(track.arc_table, s % L, side="right") - 1
    idx = min(idx, len(track.xy) - 1)
    frac = (s % L - track.arc_table[idx]) / np.diff(track.arc_table)[idx]
    nxt = (idx + 1) % len(track.xy)
    p = track.xy[idx] + frac * (track.xy[nxt] - track.xy[idx]) + off * track.normals[idx]
    return float(p[0]), float(p[1])


class TestRollout:
    def test_frame_count_full_duration(self, env):
        scenarios, _ = enumerate_scenarios(ScenarioConfig(k_positions=1, d_gap=6.0), env)
        trace = Trace()
        record = rollout(scenarios[0], ExpertSource(), env, duration=2.0, observers=[trace])
        if record.outcome != Outcome.COLLISION:
            assert record.n_frames == 20
        assert record.scans.shape == (record.n_frames, 360)
        assert record.actions.shape == (record.n_frames, 2)
        # trace covers every sim step plus the initial state
        assert len(trace.times) == int(round(record.duration_actual / env.sim.dt)) + 1

    def test_frame_timestamps_at_query_rate(self, env):
        # frames recorded every 10 sim steps: duration_actual must be a
        # multiple of 0.1 for a non-collision episode
        scenarios, _ = enumerate_scenarios(ScenarioConfig(k_positions=1, d_gap=6.0), env)
        record = rollout(scenarios[0], ExpertSource(), env, duration=1.5)
        assert record.duration_actual == pytest.approx(1.5, abs=1e-9)

    def test_collision_truncates_frames(self, env):
        # leader parked right at the spawn gap; drive the ego into it
        class Rammer:
            def reset(self, scenarios, env):
                pass

            def act(self, rows, poses, scans):
                return np.tile([8.0, 0.0], (len(rows), 1))

        scenarios, _ = enumerate_scenarios(ScenarioConfig(k_positions=1, d_gap=1.0), env)
        record = rollout(scenarios[0], Rammer(), env, duration=8.0)
        assert record.outcome == Outcome.COLLISION
        assert record.duration_actual < 8.0
        # frames recorded up to and including the interval of death
        assert record.n_frames == int(np.ceil(record.duration_actual * 10 - 1e-9))

    def test_expert_vs_fast_leader_is_following(self, env):
        # leader at full expert speed cannot be caught within 2 s
        cfg_fast = ExpertConfig(leader_speed_discount=1.0)
        env_fast = RaceEnvironment(env.track, env.racelines, env.sim, cfg_fast)
        scenarios, _ = enumerate_scenarios(
            ScenarioConfig(k_positions=1, d_gap=6.0), env_fast)
        record = rollout(scenarios[0], ExpertSource(), env_fast, duration=2.0)
        assert record.outcome == Outcome.CAR_FOLLOWING

    def test_determinism_bit_identical(self, env):
        scenarios, _ = enumerate_scenarios(ScenarioConfig(k_positions=1, d_gap=3.0), env)
        r1 = rollout(scenarios[0], ExpertSource(), env, duration=1.0)
        r2 = rollout(scenarios[0], ExpertSource(), env, duration=1.0)
        assert np.array_equal(r1.scans, r2.scans)
        assert np.array_equal(r1.actions, r2.actions)
        assert r1.ego_progress == r2.ego_progress


def named(records):
    return [(f"ep_{i}.bin", rec) for i, rec in enumerate(records)]


class TestDataset:
    def test_filtering_and_counts(self, tmp_path):
        pool = ([fake_record(Outcome.CAR_FOLLOWING) for _ in range(4)]
                + [fake_record(Outcome.OVERTAKING) for _ in range(3)]
                + [fake_record(Outcome.COLLISION) for _ in range(2)])
        counts, samples = save_dataset(tmp_path, named(pool))
        assert counts == {Outcome.CAR_FOLLOWING: 4, Outcome.OVERTAKING: 3,
                          Outcome.COLLISION: 2}
        assert samples == 7 * 5
        back = load_manifest_dataset(tmp_path / "dataset.json")
        assert [ep.outcome for ep in back] == [Outcome.CAR_FOLLOWING] * 4 + [Outcome.OVERTAKING] * 3
        assert json.loads((tmp_path / "dataset.json").read_text())["counts"] == counts

    def test_all_safe_keeps_everything(self, tmp_path):
        pool = [fake_record(Outcome.OVERTAKING, frames=7) for _ in range(5)]
        assert save_dataset(tmp_path, named(pool))[1] == 35
        assert len(load_manifest_dataset(tmp_path / "dataset.json")) == 5
        assert json.loads((tmp_path / "dataset.json").read_text())["total_samples"] == 35

    def test_total_samples_counts_frames(self, tmp_path):
        pool = [fake_record(Outcome.CAR_FOLLOWING, frames=80, n_beams=8) for _ in range(572)]
        assert save_dataset(tmp_path, named(pool))[1] == 45760
        assert json.loads((tmp_path / "dataset.json").read_text())["total_samples"] == 45760

    def test_empty_dataset_raises(self, tmp_path):
        manifest = tmp_path / "dataset.json"
        write_manifest(manifest, [], ["episodes/ep_0.bin"], {Outcome.COLLISION: 1}, 0)
        with pytest.raises(EmptyDataset):
            load_manifest_dataset(manifest)


class TestEpisodeIO:
    def test_roundtrip(self, tmp_path):
        rec = fake_record(Outcome.OVERTAKING, frames=13, sid="center:center:0007", seed=42)
        path = tmp_path / "ep.bin"
        save_episode(rec, path)
        back = load_episode(path)
        assert back.scenario_id == rec.scenario_id
        assert back.seed == rec.seed
        assert back.outcome == rec.outcome
        assert np.array_equal(back.scans, rec.scans)
        assert np.array_equal(back.ego_v, rec.ego_v)
        assert np.array_equal(back.actions, rec.actions)

    def test_roundtrip_any_beam_count(self, tmp_path):
        rec = fake_record(Outcome.CAR_FOLLOWING, frames=7, n_beams=180)
        path = tmp_path / "ep.bin"
        save_episode(rec, path)
        back = load_episode(path)
        assert back.scans.shape == (7, 180)
        assert np.array_equal(back.scans, rec.scans)
        assert np.array_equal(back.ego_v, rec.ego_v)
        assert np.array_equal(back.actions, rec.actions)

    @given(data=st.data(), n_beams=st.integers(1, 400), frames=st.integers(0, 50),
           outcome=st.sampled_from(Outcome.ALL), sid=st.text(), seed=st.integers(0, 2**63 - 1),
           header=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_is_byte_equal(self, tmp_path_factory, data, n_beams, frames, outcome, sid,
                                     seed, header):
        """Any beam count, 0-50 frames and any float32 values, NaN and
        infinities included, come back with the same bytes; writing the
        loaded record again gives the same file."""
        f32 = st.floats(width=32)
        rec = EpisodeRecord(
            scenario_id=sid, seed=seed,
            scans=data.draw(arrays(np.float32, (frames, n_beams), elements=f32)),
            ego_v=data.draw(arrays(np.float32, frames, elements=f32)),
            actions=data.draw(arrays(np.float32, (frames, 2), elements=f32)),
            outcome=outcome, duration_actual=header[0], ego_progress=header[1],
            leader_progress=header[2])
        path = tmp_path_factory.mktemp("store") / "ep.bin"
        save_episode(rec, path)
        back = load_episode(path)
        for name in ("scans", "ego_v", "actions", "duration_actual", "ego_progress",
                     "leader_progress"):
            assert_same_bits(np.asarray(getattr(back, name)), np.asarray(getattr(rec, name)))
        assert (back.scenario_id, back.seed, back.outcome) == (sid, seed, outcome)
        again = path.with_name("again.bin")
        save_episode(back, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("key", ["n_beams", "ego_progress", "leader_progress"])
    def test_header_without_a_field_is_rejected(self, tmp_path, key):
        """No field has a default: a header that lacks one does not load."""
        rec = fake_record(Outcome.OVERTAKING, frames=4)
        path = tmp_path / "ep.bin"
        save_episode(rec, path)
        header, payload = path.read_bytes().split(b"\n", 1)
        fields = json.loads(header)
        del fields[key]
        path.write_bytes(json.dumps(fields, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(ScenarioError, match=key):
            load_episode(path)

    def test_truncated_payload_rejected(self, tmp_path):
        rec = fake_record(Outcome.OVERTAKING, frames=13)
        path = tmp_path / "ep.bin"
        save_episode(rec, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ScenarioError):
            load_episode(path)

    def test_open_reads_no_frame(self, tmp_path):
        """An opened episode knows its header; its frames are read, from
        the file as it is then, only when asked for."""
        rec = fake_record(Outcome.OVERTAKING, frames=6, sid="c:c:1", n_beams=12)
        path = tmp_path / "ep.bin"
        save_episode(rec, path)
        episode = rscn.open_episode(path)
        assert (episode.scenario_id, episode.n_frames, episode.n_beams) == ("c:c:1", 6, 12)
        assert (episode.ego_progress, episode.leader_progress) == (12.0, 10.0)
        back = episode.read()
        for name in ("scans", "ego_v", "actions"):
            assert_same_bits(getattr(back, name), getattr(rec, name))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ScenarioError, match="changed since its header was read"):
            episode.read()
        path.unlink()
        with pytest.raises(ScenarioError, match="ep.bin"):
            episode.read()

    @pytest.mark.parametrize("value", ["3", 3.0, -1, True])
    def test_frame_count_must_be_a_count(self, tmp_path, value):
        path = tmp_path / "ep.bin"
        save_episode(fake_record(Outcome.OVERTAKING, frames=3, n_beams=4), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        fields = {**json.loads(header), "frame_count": value}
        path.write_bytes(json.dumps(fields, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(ScenarioError, match="frame_count"):
            rscn.open_episode(path)

    def test_manifest_roundtrip(self, tmp_path):
        recs = [fake_record(Outcome.OVERTAKING, frames=6, sid=f"c:c:{i}") for i in range(3)]
        files = []
        for i, r in enumerate(recs):
            f = f"ep_{i}.bin"
            save_episode(r, tmp_path / f)
            files.append(f)
        rscn.write_manifest(tmp_path / "manifest.json", files, [],
                            {Outcome.CAR_FOLLOWING: 0, Outcome.OVERTAKING: 3,
                             Outcome.COLLISION: 0}, 18)
        back = rscn.load_manifest_dataset(tmp_path / "manifest.json")
        assert [ep.scenario_id for ep in back] == [f"c:c:{i}" for i in range(3)]
        assert sum(ep.n_frames for ep in back) == 18
