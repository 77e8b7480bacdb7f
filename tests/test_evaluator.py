import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from racekit.evaluator import (
    H2HReport,
    PolicySource,
    SingleAgentReport,
    bench_latency,
    render_episode,
    report_json,
    run_h2h,
    run_noise_sweep,
    run_single_agent,
    single_csv_row,
    write_h2h_csv,
    write_single_csv,
)
from racekit.policy import InferenceSession, PolicyConfig, init_params
from racekit.scenario import (ExpertSource, LapTimer, Outcome, RaceEnvironment, Scenario,
                              ScenarioConfig, enumerate_scenarios, rollout)
from racekit.simulator import SimConfig, Trace

TINY360 = PolicyConfig(n_beams=360, embed_dim=4, hidden_multiplier=2, mlp_hidden=16)


@pytest.fixture(scope="module")
def env(stadium):
    return RaceEnvironment.build(stadium)


@pytest.fixture(scope="module")
def rand_policy():
    return init_params(TINY360, np.random.default_rng(0)), TINY360


class TestH2HReport:
    def test_rate_identities(self):
        r = H2HReport(car_following=210, overtaking=355, collision=35)
        assert r.n == 600
        assert r.overtake_rate * r.n / 100 == pytest.approx(355, abs=1e-9)
        assert r.safety_rate + 100.0 * r.collision / r.n == pytest.approx(100.0, abs=1e-12)
        assert r.overtake_rate == pytest.approx(59.2, abs=0.05)
        assert r.safety_rate == pytest.approx(94.2, abs=0.05)

    def test_degenerate_all_collide(self):
        r = H2HReport(car_following=0, overtaking=0, collision=10)
        assert r.safety_rate == 0.0
        assert r.overtake_rate == 0.0


class TestRunners:
    def test_h2h_counts_sum(self, env, rand_policy):
        params, cfg = rand_policy
        scenarios, _ = enumerate_scenarios(
            ScenarioConfig(k_positions=3, seed=5), env)
        report = run_h2h(params, cfg, scenarios, env, seed=1, duration=1.0)
        assert report.n == 3
        assert report.car_following + report.overtaking + report.collision == 3

    def test_single_agent_truncates_on_collision(self, env, rand_policy):
        # an untrained random policy slams into a wall almost immediately
        params, cfg = rand_policy
        trace = Trace()
        report = run_single_agent(params, cfg, env, laps_target=1, seed=0, timeout_s=20.0,
                                  observers=[trace])
        assert 0.0 <= report.laps_completed < 1.0
        assert report.mean_laptime is None
        assert trace is not None and len(trace.times) > 1

    def test_single_agent_default_timeout_covers_the_laps(self, env, rand_policy,
                                                          monkeypatch):
        # without timeout_s a run may last laps_target track lengths at
        # 1 m/s plus a minute; a stub reads the duration handed to rollout
        # and steps one frame instead of simulating it
        params, cfg = rand_policy
        durations = []

        def one_frame(scenario, source, env, duration, observers):
            durations.append(duration)
            return rollout(scenario, source, env, duration=0.1, observers=observers)

        monkeypatch.setattr("racekit.evaluator.rollout", one_frame)
        report = run_single_agent(params, cfg, env, laps_target=3, seed=0)
        assert durations == [3 * env.track.total_length + 60.0]
        assert report.laps_completed < 1.0

    def test_expert_reference_run_completes_laps(self, env):
        # harness sanity: the expert source, driven through the same loop
        # machinery, finishes laps with lap stats populated
        L = env.track.total_length
        record = rollout(Scenario(id="laps", ego_raceline="center", ego_s=0.0, seed=0),
                         ExpertSource(), env, duration=L + 30.0,
                         observers=[LapTimer(L, env.sim.dt, 1.0)])
        laps, collided = record.ego_progress / L, record.outcome == Outcome.COLLISION
        assert laps >= 1.0 and not collided

    def test_seeded_reproducibility(self, env, rand_policy):
        params, cfg = rand_policy
        scenarios, _ = enumerate_scenarios(ScenarioConfig(k_positions=2, seed=5), env)
        r1 = run_h2h(params, cfg, scenarios, env, noise_eta=0.2, seed=9, duration=1.0)
        r2 = run_h2h(params, cfg, scenarios, env, noise_eta=0.2, seed=9, duration=1.0)
        assert report_json(r1) == report_json(r2)

    def test_noise_sweep_levels_and_eta_zero_identity(self, env, rand_policy):
        params, cfg = rand_policy
        sweep = run_noise_sweep(params, cfg, env, [0.3, 0.0], seed=4,
                                mode="single", laps_target=1, timeout_s=5.0)
        assert sweep.eta_levels == [0.0, 0.3]
        assert len(sweep.single) == 2
        base = run_single_agent(params, cfg, env, laps_target=1,
                                noise_eta=0.0, seed=0, timeout_s=5.0)
        # eta = 0 sweep entry equals a plain no-noise run (noise stream unused)
        assert sweep.single[0].mean_speed == base.mean_speed
        assert sweep.single[0].laps_completed == base.laps_completed


class TestPolicySource:
    @pytest.mark.parametrize("cfg", [PolicyConfig(n_beams=32, embed_dim=4, hidden_multiplier=1),
                                     PolicyConfig()], ids=["H36", "H1504"])
    def test_chunk_of_one_is_the_float64_session(self, cfg):
        """A chunk of one scenario steps through the GEMV path of
        `InferenceSession.step` at float64, bit for bit."""
        params = init_params(cfg, np.random.default_rng(2))
        source = PolicySource(params, cfg)
        source.reset([Scenario(id="one", ego_raceline="center", ego_s=0.0, seed=0)], None)
        session = InferenceSession(params, cfg, dtype=np.float64)
        h = session.zero_hidden()
        rng = np.random.default_rng(6)
        rows = np.arange(1)
        for _ in range(8):
            poses = np.zeros((1, 1, 5))
            poses[0, 0, 3] = rng.uniform(0.0, 8.0)
            scan = rng.uniform(0.1, 30.0, cfg.n_beams)
            got = source.act(rows, poses, scan[None])
            want, h = session.step(scan, poses[0, 0, 3], h)
            assert got.tobytes() == want[None].tobytes()
            assert source._h.tobytes() == h[None].tobytes()


class TestLatency:
    """What host load cannot move: the report's fields and the order of
    its timings. How fast a step is belongs to racebench's `latency`
    workload, not to a wall-clock bound here."""

    def test_tiny_config_report_ordered(self):
        cfg = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2)
        params = init_params(cfg, np.random.default_rng(0))
        rep = bench_latency(params, cfg, n_samples=1000, warmup=50)
        assert (rep.samples, rep.precision, rep.input_dim, rep.hidden_dim) == (
            1000, "float32", cfg.input_dim, cfg.hidden_dim)
        assert all(math.isfinite(t) for t in (rep.median_ms, rep.p99_ms, rep.max_ms))
        assert 0.0 < rep.median_ms <= rep.p99_ms <= rep.max_ms

    def test_two_runs_stable(self):
        # two runs agree on every field but the timings, which are the host's
        cfg = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2)
        params = init_params(cfg, np.random.default_rng(0))
        fields = [{k: v for k, v in bench_latency(params, cfg, n_samples=1000, warmup=50)
                   .to_dict().items() if not k.endswith("_ms")} for _ in range(2)]
        assert fields[0] == fields[1] == {"samples": 1000, "precision": "float32",
                                          "input_dim": 10, "hidden_dim": 20}


class TestRender:
    def test_svg_wellformed_with_two_agents(self, env):
        scenarios, _ = enumerate_scenarios(ScenarioConfig(k_positions=1, seed=2), env)
        trace = Trace()
        record = rollout(scenarios[0], ExpertSource(), env, duration=1.0, observers=[trace])
        svg = render_episode(trace, env.track, outcome=record.outcome)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        # 2 boundaries + 2 trajectories
        assert len(polylines) >= 4
        texts = [el for el in root.iter() if el.tag.endswith("text")]
        assert any(record.outcome in (t.text or "") for t in texts)

    def test_collision_marker(self, env, rand_policy):
        params, cfg = rand_policy
        trace = Trace()
        run_single_agent(params, cfg, env, laps_target=1, seed=0, timeout_s=20.0,
                         observers=[trace])
        svg = render_episode(trace, env.track, outcome=Outcome.COLLISION)
        root = ET.fromstring(svg)
        assert any(el.tag.endswith("circle") for el in root.iter())

    def test_footprint_follows_sim_config(self, env):
        trace = Trace(times=[0.0], poses=[np.array([[0.0, -3.82, 0.0, 0.0, 0.0]])],
                      collided=[np.array([False])])
        svg = render_episode(trace, env.track, sim_cfg=SimConfig(veh_length=1.0, veh_width=0.5))
        polygons = [el for el in ET.fromstring(svg).iter() if el.tag.endswith("polygon")]
        assert len(polygons) == 1
        px = np.array([[float(v) for v in p.split(",")]
                       for p in polygons[0].get("points").split()])
        # heading 0: the footprint is axis-aligned; undo the pixel scale
        polylines = [el for el in ET.fromstring(svg).iter() if el.tag.endswith("polyline")]
        inner = np.array([[float(v) for v in p.split(",")]
                          for p in polylines[0].get("points").split()])
        scale = np.ptp(inner[:, 0]) / np.ptp(env.track.inner_boundary[:, 0])
        size = np.ptp(px, axis=0) / scale
        assert size == pytest.approx([1.0, 0.5], abs=0.02)


class TestSerialization:
    def test_report_json_stable(self):
        r = SingleAgentReport("stadium", 5.1234, 0.5, 12.0, 0.01, 10.0, False)
        assert report_json(r) == report_json(r)
        parsed = json.loads(report_json(r))
        assert parsed["mean_speed"] == 5.1234

    def test_single_csv_dash_for_no_laps(self, tmp_path):
        r = SingleAgentReport("stadium", 2.0, 0.1, None, None, 0.6, True)
        row = single_csv_row("50% noise", r)
        assert ",-,-," in row
        assert row.endswith("0.6")
        write_single_csv([("x", r)], tmp_path / "s.csv")
        header = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert "Mean Speed (m/s)" in header and "Laps Completed" in header

    def test_h2h_csv(self, tmp_path):
        r = H2HReport(210, 355, 35)
        write_h2h_csv([("summary", r)], tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert "Overtake Rate (%)" in lines[0]
        assert lines[1] == "summary,210,355,35,59.2,94.2"
