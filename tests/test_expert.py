import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (NoFeasibleCandidate, VehicleState, lattice_scales, reference_project,
                      reference_sample_lattice)
from racekit import expert as rexpert
from racekit import track as rtrack
from racekit.expert import (
    ExpertConfig,
    _best,
    _mean_rewards,
    ego_commands,
    leader_commands,
    predict_opponents,
    pure_pursuit,
    pure_pursuit_steering,
    sample_lattices,
)
from racekit.scenario import (ExpertSource, LapTimer, Outcome, RaceEnvironment, Scenario,
                              rollout)
from racekit.simulator import SimConfig, Trace
from racekit.track import FarFromRaceline, Raceline, generate_raceline, normal_of

SIM = SimConfig()


def straight_raceline(length=100.0, kappa=0.0, v_ref=5.0, n=101):
    """Hand-built straight raceline along +x with arbitrary stored curvature."""
    s = np.linspace(0.0, length, n, endpoint=False)
    xy = np.stack([s, np.zeros(n)], axis=1)
    arc = np.append(s, length)
    return Raceline(
        s=s, xy=xy, heading=np.zeros(n),
        kappa=np.full(n, kappa), v_ref=np.full(n, v_ref),
        w_left_avail=np.full(n, 5.0), w_right_avail=np.full(n, 5.0),
        length=length, arc_table=arc,
    )


def mean_reward(xy, v, d, kappa, opponent_pred, cfg):
    """_mean_rewards of one candidate given as explicit per-sample lists."""
    return float(_mean_rewards(np.array(v, dtype=float), np.array(xy, dtype=float),
                               np.array(d, dtype=float), np.array(kappa, dtype=float),
                               opponent_pred, cfg))


class TestScore:
    def test_hand_case(self):
        # single-sample candidate: v=5, d_r=0.2 (left), kappa=0.1, d_l = d_scale
        cfg = ExpertConfig(lambda_v=1.0, lambda_p=0.5, lambda_d=1.0, lambda_kappa=0.1,
                           d_scale=0.8)
        opp = np.array([[3.2, 0.2 + 0.8]])
        r = mean_reward([[3.2, 0.2]], [5.0], [0.2], [0.1], opp, cfg)
        expected = math.log(5.0) - 0.5 * 0.2 - math.exp(-1.0) - 0.1 * 0.1 * 5.0
        assert r == pytest.approx(expected, abs=1e-9)

    def test_zero_weights(self):
        cfg = ExpertConfig(lambda_v=0, lambda_p=0, lambda_d=0, lambda_kappa=0)
        r = mean_reward([[1.0, 0.3], [2.0, 0.1]], [4.0, 6.0], [0.3, 0.1], [0.0, 0.0],
                        np.zeros((2, 2)), cfg)
        assert r == 0.0

    def test_ln_monotone_in_speed(self):
        cfg = ExpertConfig(lambda_d=0.0, lambda_kappa=0.0)
        slow = mean_reward([[1.0, 0.0]], [3.0], [0.0], [0.0], None, cfg)
        fast = mean_reward([[1.0, 0.0]], [4.0], [0.0], [0.0], None, cfg)
        assert fast > slow

    def test_nonpositive_speed_rejected(self):
        # from rest with no speed floor the lattice's first samples would be
        # 0 m/s and ln(0) unbounded, so the floor must be positive
        with pytest.raises(rexpert.ExpertError, match="v_floor"):
            ExpertConfig(v_floor=0.0)

    def test_no_opponent_drops_proximity_term(self):
        cfg = ExpertConfig(lambda_v=0, lambda_p=0, lambda_d=99.0, lambda_kappa=0)
        assert mean_reward([[1.0, 0.0]], [5.0], [0.0], [0.0], None, cfg) == 0.0


class TestSelect:
    def test_single_candidate(self):
        assert _best([1.0], [0.0]) == 0

    def test_tiebreak_smaller_offset(self):
        assert _best([2.5, 2.5, 2.5], [0.3, 0.0, -0.3]) == 1

    def test_tiebreak_lower_index(self):
        assert _best([1.0, 1.0], [0.3, -0.3]) == 0

    def test_brute_force_equivalence_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            offsets = [float(rng.uniform(-1, 1)) for _ in range(n)]
            rewards = [float(rng.choice([0.0, 0.5, 1.0, rng.normal()])) for _ in range(n)]
            best = _best(rewards, offsets)
            max_r = max(rewards)
            assert rewards[best] == max_r
            # best among max-reward candidates by |offset| then index
            pool = [i for i in range(n) if rewards[i] == max_r]
            expected = min(pool, key=lambda i: (abs(offsets[i]), i))
            assert best == expected

    @given(st.floats(min_value=-100, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_argmax_invariant_to_constant_shift(self, shift):
        rng = np.random.default_rng(7)
        offsets = [float(rng.uniform(-1, 1)) for _ in range(10)]
        rewards = [float(rng.normal()) for _ in range(10)]
        before = _best(rewards, offsets)
        after = _best([r + shift for r in rewards], offsets)
        assert before == after


class TestPurePursuit:
    def test_formula_case(self):
        delta = pure_pursuit_steering(0.33, math.radians(30.0), 1.0)
        assert delta == pytest.approx(math.atan(0.33), abs=1e-12)
        assert delta == pytest.approx(0.3187, abs=5e-5)

    def test_alpha_zero(self):
        assert pure_pursuit_steering(0.33, 0.0, 1.0) == 0.0

    def test_odd_symmetry(self):
        d1 = pure_pursuit_steering(0.33, math.radians(30.0), 1.0)
        d2 = pure_pursuit_steering(0.33, math.radians(-30.0), 1.0)
        assert d1 == pytest.approx(-d2, abs=1e-15)

    @given(st.floats(min_value=-1.5, max_value=1.5))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_alpha(self, alpha):
        eps = 1e-4
        lo = pure_pursuit_steering(0.33, alpha, 1.0)
        hi = pure_pursuit_steering(0.33, alpha + eps, 1.0)
        assert hi > lo

    def test_lookahead_dead_ahead(self):
        pose = (0.0, 0.0, 0.0, 2.0, 0.0)
        xy = np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
        assert pure_pursuit(pose, xy, ExpertConfig(), SIM) == pytest.approx(0.0, abs=1e-12)

    def test_short_trajectory_uses_farthest(self):
        pose = (0.0, 0.0, 0.0, 9.0, 0.0)  # ell = 2.7 > trajectory extent
        d = pure_pursuit(pose, np.array([[0, 0], [0.3, 0.3]]), ExpertConfig(), SIM)
        assert d > 0  # steers left toward the only point


ONE_STATE = np.array([[1.0, 0.0, 0.0, 5.0, 0.0]])


class TestLattice:
    def test_grid_size_on_wide_straight(self):
        rl = straight_raceline()
        cfg = ExpertConfig(n_lateral=5, n_speed=3, lateral_max=1.0)
        lattice = sample_lattices(ONE_STATE, rl, cfg, SIM)
        assert lattice.kept[0].sum() == 15

    def test_zero_offset_identity_blend(self):
        rl = straight_raceline()
        cfg = ExpertConfig()
        lattice = sample_lattices(ONE_STATE, rl, cfg, SIM)
        center = lattice.xy[0, lattice_scales(cfg) == 1.0, lattice.offsets == 0.0][0]
        assert np.max(np.abs(center[:, 1])) < 1e-3

    def test_narrow_corridor_prunes(self):
        rl = straight_raceline()
        rl = Raceline(**{**rl.__dict__,
                         "w_left_avail": np.full(len(rl.s), 0.5),
                         "w_right_avail": np.full(len(rl.s), 0.5)})
        cfg = ExpertConfig(n_lateral=7, n_speed=1, lateral_max=1.0, safety_margin=0.16)
        lattice = sample_lattices(ONE_STATE, rl, cfg, SIM)
        assert 0 < lattice.kept[0].sum() < 7
        for xy in lattice.xy[0][lattice.kept[0]]:
            assert np.all(np.abs(xy[:, 1]) <= 0.5 - cfg.safety_margin + 1e-12)

    def test_all_blocked_raises(self):
        rl = straight_raceline()
        rl = Raceline(**{**rl.__dict__,
                         "w_left_avail": np.full(len(rl.s), 0.1),
                         "w_right_avail": np.full(len(rl.s), 0.1)})
        lattice = sample_lattices(ONE_STATE, rl, ExpertConfig(), SIM)
        assert not lattice.kept[0].any()

    def test_all_candidate_speeds_positive(self):
        rl = straight_raceline()
        lattice = sample_lattices(np.array([[0.0, 0.0, 0.0, 5.0, 0.0]]), rl, ExpertConfig(),
                                  SIM)
        assert np.all(lattice.v[0][lattice.kept[0].any(axis=1)] > 0)


@functools.cache
def lattice_raceline(shape, width, rid):
    return generate_raceline(rtrack.make_track(shape, length=60.0, width=width), rid)


class TestOneShotLattice:
    """A one-state sample_lattices equals the per-candidate reference: the
    same candidates in the same order with the same arrays, bit for bit."""

    @given(
        where=st.tuples(st.sampled_from(["stadium", "serpentine"]),
                        st.sampled_from([3.0, 1.2]),      # 1.2 m: a narrow corridor
                        st.sampled_from(["left", "center", "right"])),
        pose=st.tuples(st.floats(-100.0, 100.0), st.floats(-1.0, 1.0),
                       st.floats(-0.5, 0.5), st.floats(0.0, 10.0)),
        cfg=st.builds(ExpertConfig,
                      n_lateral=st.integers(1, 9), n_speed=st.integers(1, 4),
                      horizon_T=st.floats(0.05, 3.0), blend_T=st.floats(0.05, 3.0),
                      lateral_max=st.floats(0.0, 1.5), safety_margin=st.floats(0.0, 0.6)),
        sim=st.builds(SimConfig, dt=st.sampled_from([0.01, 0.02, 0.05, 0.1])),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, where, pose, cfg, sim):
        rl = lattice_raceline(*where)
        s, off, dtheta, v = pose
        x, y = rl.position_at(s) + off * normal_of(rl.heading_at(s))
        state = VehicleState(float(x), float(y), float(rl.heading_at(s)) + dtheta, v)
        lattice = sample_lattices(np.array([[state.x, state.y, state.theta, state.v, 0.0]]), rl,
                                  cfg, sim)
        try:
            want = reference_sample_lattice(state, rl, cfg, sim)
        except (NoFeasibleCandidate, FarFromRaceline):
            assert not lattice.kept[0].any()
            return
        js, is_ = np.nonzero(lattice.kept[0])
        assert list(zip(lattice_scales(cfg)[js].tolist(), lattice.offsets[is_].tolist())) == \
            [(c.speed_scale, c.lateral_offset) for c in want]
        for j, i, w in zip(js, is_, want):
            assert np.array_equal(lattice.xy[0, j, i], w.xy), "xy"
            assert np.array_equal(lattice.v[0, j, 0], w.v), "v"
            assert np.array_equal(lattice.d[0, 0, i], w.d_path), "d_path"
            assert np.array_equal(lattice.kappa[0, j, 0], rl._interp(rl.kappa, w.s_path))


def best_candidate(lattice, opponent_pred, cfg):
    """Row 0's kept (speed, offset) indices, their mean rewards and the
    position of the best among them."""
    rewards = _mean_rewards(lattice.v, lattice.xy, lattice.d, lattice.kappa, opponent_pred,
                            cfg)[0]
    js, is_ = np.nonzero(lattice.kept[0])
    kept = rewards[js, is_].tolist()
    return js, is_, kept, _best(kept, lattice.offsets[is_].tolist())


class TestExpertAction:
    def test_empty_track_full_speed_near_zero_offset(self, stadium):
        rl = generate_raceline(stadium, 0.0)
        cfg = ExpertConfig()
        lattice = sample_lattices(np.array([[*rl.xy[0], rl.heading[0], rl.v_ref[0], 0.0]]), rl,
                                  cfg, SIM)
        js, is_, _, k = best_candidate(lattice, None, cfg)
        assert lattice_scales(cfg)[js[k]] == 1.0
        assert abs(lattice.offsets[is_[k]]) <= cfg.lateral_max / (cfg.n_lateral - 1)

    def test_blocking_opponent_forces_deviation(self, stadium):
        rl = generate_raceline(stadium, 0.0)
        cfg = ExpertConfig()
        lattice = sample_lattices(np.array([[*rl.xy[0], rl.heading[0], 3.0, 0.0]]), rl, cfg, SIM)
        # leader dead ahead on the raceline, 1 m away, same heading, slow
        opp_pos = rl.position_at(rl.s[0] + 1.0)
        opp = np.array([[opp_pos[0], opp_pos[1], rl.heading_at(rl.s[0] + 1.0), 1.0, 0.0]])
        opp_pred = predict_opponents(opp, cfg, SIM)[0]
        js, is_, rewards, k = best_candidate(lattice, opp_pred, cfg)
        scales, offsets = lattice_scales(cfg)[js], lattice.offsets[is_]
        center_full = np.flatnonzero((offsets == 0.0) & (scales == 1.0))[0]
        assert rewards[k] > rewards[center_full]
        assert abs(offsets[k]) > 0 or scales[k] < 1.0

    def test_leader_command_speed(self, stadium):
        rl = generate_raceline(stadium, 0.0)
        cfg = ExpertConfig(leader_speed_discount=0.6)
        pose = np.array([[*rl.xy[10], rl.heading[10], 3.0, 0.0]])
        v_cmd, _ = leader_commands(pose, rl, cfg, SIM)[0]
        s_proj, _ = reference_project(rl, pose[0, :2])
        assert v_cmd == pytest.approx(0.6 * rl.v_ref_at(s_proj), abs=1e-9)

    def test_leader_nonreactive(self, stadium):
        # the leader drives the same path whatever the ego behind it does
        env = RaceEnvironment.build(stadium)
        scenario = Scenario(id="x", ego_raceline="center", ego_s=0.0, seed=0,
                            leader_raceline="center", leader_s=3.0)

        class Brake:
            def reset(self, scenarios, env):
                pass

            def act(self, rows, poses, scans):
                return np.zeros((len(rows), 2))

        runs = []
        for ego in (ExpertSource(), Brake()):
            trace = Trace()
            rollout(scenario, ego, env, duration=1.0, observers=[trace])
            runs.append(np.array(trace.poses))
        n = min(len(r) for r in runs)
        assert not np.array_equal(runs[0][:n, 0], runs[1][:n, 0])
        assert np.array_equal(runs[0][:n, 1], runs[1][:n, 1])

    def test_infeasible_brakes_straight(self):
        rl = straight_raceline()
        rl = Raceline(**{**rl.__dict__,
                         "w_left_avail": np.full(len(rl.s), 0.1),
                         "w_right_avail": np.full(len(rl.s), 0.1)})
        cmd = ego_commands(np.array([[1.0, 0.0, 0.0, 5.0, 0.0]]), None, rl, ExpertConfig(), SIM)
        assert cmd.tolist() == [[0.0, 0.0]]


@pytest.mark.slow
def test_expert_three_laps_stadium(stadium):
    """Closed-loop competence: the expert alone drives 3 clean laps."""
    env = RaceEnvironment.build(stadium)
    L = stadium.total_length
    record = rollout(Scenario(id="laps", ego_raceline="center", ego_s=0.0, seed=0),
                     ExpertSource(), env, duration=3 * L + 30.0,
                     observers=[LapTimer(L, env.sim.dt, 3)])
    laps, collided = record.ego_progress / L, record.outcome == Outcome.COLLISION
    assert laps >= 3.0
    assert not collided
