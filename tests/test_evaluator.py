import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from racekit.evaluator import (
    H2HReport,
    LatencyReport,
    NoiseSweepReport,
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
from racekit.policy import PolicyConfig, init_params
from racekit.scenario import (ExpertSource, LapTimer, Outcome, RaceEnvironment, Scenario,
                              ScenarioConfig, enumerate_scenarios, rollout)
from racekit.simulator import SimConfig, Trace, VehicleState

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
        report, outcomes = run_h2h(params, cfg, scenarios, env, seed=1, duration=1.0)
        assert report.n == 3
        assert len(outcomes) == 3
        assert report.car_following + report.overtaking + report.collision == 3

    def test_single_agent_truncates_on_collision(self, env, rand_policy):
        # an untrained random policy slams into a wall almost immediately
        params, cfg = rand_policy
        report, trace = run_single_agent(params, cfg, env, laps_target=1,
                                         seed=0, timeout_s=20.0, record_trace=True)
        assert 0.0 <= report.laps_completed < 1.0
        assert report.mean_laptime is None
        assert trace is not None and len(trace.times) > 1

    def test_expert_reference_run_completes_laps(self, env):
        # harness sanity: the expert source, driven through the same loop
        # machinery, finishes laps with lap stats populated
        L = env.track.total_length
        record, _ = rollout(Scenario(id="laps", ego_raceline="center", ego_s=0.0, seed=0),
                            ExpertSource(), env, duration=L + 30.0,
                            observer=LapTimer(L, env.sim.dt, 1.0))
        laps, collided = record.ego_progress / L, record.outcome == Outcome.COLLISION
        assert laps >= 1.0 and not collided

    def test_seeded_reproducibility(self, env, rand_policy):
        params, cfg = rand_policy
        scenarios, _ = enumerate_scenarios(ScenarioConfig(k_positions=2, seed=5), env)
        r1, o1 = run_h2h(params, cfg, scenarios, env, noise_eta=0.2, seed=9, duration=1.0)
        r2, o2 = run_h2h(params, cfg, scenarios, env, noise_eta=0.2, seed=9, duration=1.0)
        assert o1 == o2
        assert report_json(r1) == report_json(r2)

    def test_noise_sweep_levels_and_eta_zero_identity(self, env, rand_policy):
        params, cfg = rand_policy
        sweep = run_noise_sweep(params, cfg, env, [0.3, 0.0], seed=4,
                                mode="single", laps_target=1, timeout_s=5.0)
        assert sweep.eta_levels == [0.0, 0.3]
        assert len(sweep.single) == 2
        base, _ = run_single_agent(params, cfg, env, laps_target=1,
                                   noise_eta=0.0, seed=0, timeout_s=5.0)
        # eta = 0 sweep entry equals a plain no-noise run (noise stream unused)
        assert sweep.single[0].mean_speed == base.mean_speed
        assert sweep.single[0].laps_completed == base.laps_completed


class TestLatency:
    def test_tiny_config_fast_and_ordered(self):
        cfg = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2)
        params = init_params(cfg, np.random.default_rng(0))
        rep = bench_latency(params, cfg, n_samples=1000, warmup=50)
        assert rep.median_ms <= rep.p99_ms <= rep.max_ms
        assert rep.median_ms < 0.05
        assert rep.samples == 1000

    def test_two_runs_stable(self):
        cfg = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2)
        params = init_params(cfg, np.random.default_rng(0))
        m1 = bench_latency(params, cfg, n_samples=1000, warmup=50).median_ms
        m2 = bench_latency(params, cfg, n_samples=1000, warmup=50).median_ms
        assert abs(m1 - m2) / max(m1, m2) < 0.5


class TestRender:
    def test_svg_wellformed_with_two_agents(self, env):
        scenarios, _ = enumerate_scenarios(ScenarioConfig(k_positions=1, seed=2), env)
        record, trace = rollout(scenarios[0], ExpertSource(), env, duration=1.0,
                                record_trace=True)
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
        _, trace = run_single_agent(params, cfg, env, laps_target=1, seed=0,
                                    timeout_s=20.0, record_trace=True)
        svg = render_episode(trace, env.track, outcome=Outcome.COLLISION)
        root = ET.fromstring(svg)
        assert any(el.tag.endswith("circle") for el in root.iter())

    def test_footprint_follows_sim_config(self, env):
        trace = Trace(times=[0.0], states=[[VehicleState(0.0, -3.82, 0.0, 0.0)]],
                      collided=[[False]])
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
