import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_sample_lattice
from racekit import expert as rexpert
from racekit import track as rtrack
from racekit.expert import (
    CandidateTrajectory,
    EmptyCandidateSet,
    ExpertConfig,
    NoFeasibleCandidate,
    Role,
    expert_action,
    predict_opponent,
    pure_pursuit,
    pure_pursuit_steering,
    sample_lattice,
    score_candidate,
    select_trajectory,
)
from racekit.simulator import SimConfig, VehicleCommand, VehicleState, WorldState, step
from racekit.track import FarFromRaceline, Raceline, curvature_at, generate_raceline


def straight_raceline(length=100.0, kappa=0.0, v_ref=5.0, n=101):
    """Hand-built straight raceline along +x with arbitrary stored curvature."""
    s = np.linspace(0.0, length, n, endpoint=False)
    xy = np.stack([s, np.zeros(n)], axis=1)
    arc = np.append(s, length)
    return Raceline(
        offset_id=0.0, s=s, xy=xy, heading=np.zeros(n),
        kappa=np.full(n, kappa), v_ref=np.full(n, v_ref),
        w_left_avail=np.full(n, 5.0), w_right_avail=np.full(n, 5.0),
        center_offset=np.zeros(n), length=length, arc_table=arc,
    )


def make_candidate(xy, v, offset=0.0, scale=1.0):
    xy = np.asarray(xy, dtype=float)
    diffs = np.diff(xy, axis=0)
    heading = np.append(np.arctan2(diffs[:, 1], diffs[:, 0]), 0.0) if len(xy) > 1 else np.zeros(1)
    return CandidateTrajectory(xy=xy, heading=heading, v=np.asarray(v, dtype=float),
                               lateral_offset=offset, speed_scale=scale)


class TestScore:
    def test_hand_case(self):
        # single-sample candidate: v=5, d_r=0.2 (left), kappa=0.1, d_l = d_scale
        cfg = ExpertConfig(lambda_v=1.0, lambda_p=0.5, lambda_d=1.0, lambda_kappa=0.1,
                           d_scale=0.8)
        rl = straight_raceline(kappa=0.1)
        cand = make_candidate([[3.2, 0.2]], [5.0])
        opp = np.array([[3.2, 0.2 + 0.8]])
        r = score_candidate(cand, opp, rl, cfg)
        expected = math.log(5.0) - 0.5 * 0.2 - math.exp(-1.0) - 0.1 * 0.1 * 5.0
        assert r == pytest.approx(expected, abs=1e-9)

    def test_zero_weights(self):
        cfg = ExpertConfig(lambda_v=0, lambda_p=0, lambda_d=0, lambda_kappa=0)
        rl = straight_raceline()
        cand = make_candidate([[1.0, 0.3], [2.0, 0.1]], [4.0, 6.0])
        assert score_candidate(cand, np.zeros((2, 2)), rl, cfg) == 0.0

    def test_ln_monotone_in_speed(self):
        cfg = ExpertConfig(lambda_d=0.0, lambda_kappa=0.0)
        rl = straight_raceline()
        slow = make_candidate([[1.0, 0.0]], [3.0])
        fast = make_candidate([[1.0, 0.0]], [4.0])
        assert score_candidate(fast, None, rl, cfg) > score_candidate(slow, None, rl, cfg)

    def test_nonpositive_speed_rejected(self):
        rl = straight_raceline()
        cand = make_candidate([[1.0, 0.0]], [0.0])
        with pytest.raises(rexpert.NonPositiveSpeed):
            score_candidate(cand, None, rl, ExpertConfig())

    def test_no_opponent_drops_proximity_term(self):
        cfg = ExpertConfig(lambda_v=0, lambda_p=0, lambda_d=99.0, lambda_kappa=0)
        rl = straight_raceline()
        cand = make_candidate([[1.0, 0.0]], [5.0])
        assert score_candidate(cand, None, rl, cfg) == 0.0


class TestSelect:
    def test_single_candidate(self):
        c = make_candidate([[0, 0]], [1.0])
        c.reward = 1.0
        assert select_trajectory([c]) is c

    def test_empty_raises(self):
        with pytest.raises(EmptyCandidateSet):
            select_trajectory([])

    def test_tiebreak_smaller_offset(self):
        a = make_candidate([[0, 0]], [1.0], offset=0.3)
        b = make_candidate([[0, 0]], [1.0], offset=0.0)
        c = make_candidate([[0, 0]], [1.0], offset=-0.3)
        for cand in (a, b, c):
            cand.reward = 2.5
        assert select_trajectory([a, b, c]) is b

    def test_tiebreak_lower_index(self):
        a = make_candidate([[0, 0]], [1.0], offset=0.3)
        b = make_candidate([[0, 0]], [1.0], offset=-0.3)
        a.reward = b.reward = 1.0
        assert select_trajectory([a, b]) is a

    def test_brute_force_equivalence_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            cands = []
            for i in range(n):
                c = make_candidate([[0, 0]], [1.0], offset=float(rng.uniform(-1, 1)))
                c.reward = float(rng.choice([0.0, 0.5, 1.0, rng.normal()]))
                cands.append(c)
            best = select_trajectory(cands)
            max_r = max(c.reward for c in cands)
            assert best.reward == max_r
            # best among max-reward candidates by |offset| then index
            pool = [c for c in cands if c.reward == max_r]
            expected = min(pool, key=lambda c: (abs(c.lateral_offset), cands.index(c)))
            assert best is expected

    @given(st.floats(min_value=-100, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_argmax_invariant_to_constant_shift(self, shift):
        rng = np.random.default_rng(7)
        cands = []
        for i in range(10):
            c = make_candidate([[0, 0]], [1.0], offset=float(rng.uniform(-1, 1)))
            c.reward = float(rng.normal())
            cands.append(c)
        before = cands.index(select_trajectory(cands))
        for c in cands:
            c.reward += shift
        after = cands.index(select_trajectory(cands))
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
        state = VehicleState(0, 0, 0.0, 2.0)
        cand = make_candidate([[0, 0], [1, 0], [2, 0], [3, 0]], [2, 2, 2, 2])
        assert pure_pursuit(state, cand, ExpertConfig()) == pytest.approx(0.0, abs=1e-12)

    def test_short_trajectory_uses_farthest(self):
        state = VehicleState(0, 0, 0.0, 9.0)  # ell = 2.7 > trajectory extent
        cand = make_candidate([[0, 0], [0.3, 0.3]], [2, 2])
        d = pure_pursuit(state, cand, ExpertConfig())
        assert d > 0  # steers left toward the only point


class TestLattice:
    def test_grid_size_on_wide_straight(self):
        rl = straight_raceline()
        cfg = ExpertConfig(n_lateral=5, n_speed=3, lateral_max=1.0)
        state = VehicleState(1.0, 0.0, 0.0, 5.0)
        cands = sample_lattice(state, rl, None, cfg)
        assert len(cands) == 15

    def test_zero_offset_identity_blend(self):
        rl = straight_raceline()
        cfg = ExpertConfig()
        state = VehicleState(1.0, 0.0, 0.0, 5.0)
        cands = sample_lattice(state, rl, None, cfg)
        center = [c for c in cands if c.lateral_offset == 0.0 and c.speed_scale == 1.0][0]
        assert np.max(np.abs(center.xy[:, 1])) < 1e-3

    def test_narrow_corridor_prunes(self):
        rl = straight_raceline()
        rl = Raceline(**{**rl.__dict__,
                         "w_left_avail": np.full(len(rl.s), 0.5),
                         "w_right_avail": np.full(len(rl.s), 0.5)})
        cfg = ExpertConfig(n_lateral=7, n_speed=1, lateral_max=1.0, safety_margin=0.16)
        state = VehicleState(1.0, 0.0, 0.0, 5.0)
        cands = sample_lattice(state, rl, None, cfg)
        assert 0 < len(cands) < 7
        for c in cands:
            assert np.all(np.abs(c.xy[:, 1]) <= 0.5 - cfg.safety_margin + 1e-12)

    def test_all_blocked_raises(self):
        rl = straight_raceline()
        rl = Raceline(**{**rl.__dict__,
                         "w_left_avail": np.full(len(rl.s), 0.1),
                         "w_right_avail": np.full(len(rl.s), 0.1)})
        state = VehicleState(1.0, 0.0, 0.0, 5.0)
        with pytest.raises(NoFeasibleCandidate):
            sample_lattice(state, rl, None, ExpertConfig())

    def test_all_candidate_speeds_positive(self):
        rl = straight_raceline()
        cands = sample_lattice(VehicleState(0, 0, 0, 5.0), rl, None, ExpertConfig())
        for c in cands:
            assert np.all(c.v > 0)


@functools.cache
def lattice_raceline(shape, width, rid):
    return generate_raceline(rtrack.make_track(shape, length=60.0, width=width), rid)


class TestOneShotLattice:
    """sample_lattice equals the per-candidate reference: the same
    candidates in the same order with the same arrays, bit for bit."""

    @given(
        where=st.tuples(st.sampled_from(["stadium", "serpentine"]),
                        st.sampled_from([3.0, 1.2]),      # 1.2 m: a narrow corridor
                        st.sampled_from(["left", "center", "right"])),
        pose=st.tuples(st.floats(-100.0, 100.0), st.floats(-1.0, 1.0),
                       st.floats(-0.5, 0.5), st.floats(0.0, 10.0)),
        cfg=st.builds(ExpertConfig,
                      n_lateral=st.integers(1, 9), n_speed=st.integers(1, 4),
                      horizon_T=st.floats(0.05, 3.0), blend_T=st.floats(0.05, 3.0),
                      sample_dt=st.sampled_from([0.01, 0.02, 0.05, 0.1]),
                      lateral_max=st.floats(0.0, 1.5), safety_margin=st.floats(0.0, 0.6)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, where, pose, cfg):
        rl = lattice_raceline(*where)
        s, off, dtheta, v = pose
        x, y = rl.position_at(s) + off * rl.normal_at(s)
        state = VehicleState(float(x), float(y), float(rl.heading_at(s)) + dtheta, v)
        try:
            want = reference_sample_lattice(state, rl, cfg)
        except (NoFeasibleCandidate, FarFromRaceline) as exc:
            with pytest.raises(type(exc)):
                sample_lattice(state, rl, None, cfg)
            return
        got = sample_lattice(state, rl, None, cfg)
        assert [(c.speed_scale, c.lateral_offset) for c in got] == \
            [(c.speed_scale, c.lateral_offset) for c in want]
        for g, w in zip(got, want):
            for field in ("xy", "heading", "v", "d_path"):
                assert np.array_equal(getattr(g, field), getattr(w, field)), field
            assert np.array_equal(g.kappa_path, curvature_at(rl, w.s_path))


class TestExpertAction:
    def test_empty_track_full_speed_near_zero_offset(self, stadium):
        rl = generate_raceline(stadium, 0.0)
        state = VehicleState(*rl.xy[0], rl.heading[0], rl.v_ref[0])
        world = WorldState(stadium, [state])
        cfg = ExpertConfig()
        cands = sample_lattice(state, rl, stadium, cfg)
        for c in cands:
            c.reward = score_candidate(c, None, rl, cfg)
        best = select_trajectory(cands)
        assert best.speed_scale == 1.0
        assert abs(best.lateral_offset) <= cfg.lateral_max / (cfg.n_lateral - 1)

    def test_blocking_opponent_forces_deviation(self, stadium):
        rl = generate_raceline(stadium, 0.0)
        cfg = ExpertConfig()
        state = VehicleState(*rl.xy[0], rl.heading[0], 3.0)
        # leader dead ahead on the raceline, 1 m away, same heading, slow
        opp_pos = rl.position_at(rl.s[0] + 1.0)
        opp = VehicleState(opp_pos[0], opp_pos[1], rl.heading_at(rl.s[0] + 1.0), 1.0)
        world = WorldState(stadium, [state, opp])
        cands = sample_lattice(state, rl, stadium, cfg)
        opp_pred = predict_opponent(opp, cfg)
        for c in cands:
            c.reward = score_candidate(c, opp_pred, rl, cfg)
        best = select_trajectory(cands)
        center_full = [c for c in cands
                       if c.lateral_offset == 0.0 and c.speed_scale == 1.0][0]
        assert best.reward > center_full.reward
        assert abs(best.lateral_offset) > 0 or best.speed_scale < 1.0

    def test_leader_command_speed(self, stadium):
        rl = generate_raceline(stadium, 0.0)
        cfg = ExpertConfig(leader_speed_discount=0.6)
        state = VehicleState(*rl.xy[10], rl.heading[10], 3.0)
        world = WorldState(stadium, [VehicleState(0, 0, 0, 0), state])
        cmd = expert_action(world, 1, Role.LEADER, rl, cfg)
        s_proj, _ = rl.project((state.x, state.y))
        assert cmd.v_cmd == pytest.approx(0.6 * rl.v_ref_at(s_proj), abs=1e-9)

    def test_leader_nonreactive(self, stadium):
        rl = generate_raceline(stadium, 0.0)
        cfg = ExpertConfig()
        leader = VehicleState(*rl.xy[5], rl.heading[5], 2.5)
        w1 = WorldState(stadium, [VehicleState(0, -3.8, 0, 5.0), leader])
        w2 = WorldState(stadium, [VehicleState(3, -2.9, 0.4, 1.0), leader])
        c1 = expert_action(w1, 1, Role.LEADER, rl, cfg)
        c2 = expert_action(w2, 1, Role.LEADER, rl, cfg)
        assert c1 == c2

    def test_infeasible_brakes_straight(self):
        rl = straight_raceline()
        rl = Raceline(**{**rl.__dict__,
                         "w_left_avail": np.full(len(rl.s), 0.1),
                         "w_right_avail": np.full(len(rl.s), 0.1)})
        world = WorldState.__new__(WorldState)
        world.track = None
        world.agents = [VehicleState(1.0, 0.0, 0.0, 5.0)]
        world.t = 0.0
        world.collided = [False]
        cmd = expert_action(world, 0, Role.EGO, rl, ExpertConfig())
        assert cmd == VehicleCommand(0.0, 0.0)


@pytest.mark.slow
def test_expert_three_laps_stadium(stadium):
    """Closed-loop competence: the expert alone drives 3 clean laps."""
    from racekit.scenario import drive_expert_laps

    laps, collided = drive_expert_laps(stadium, laps=3)
    assert laps >= 3.0
    assert not collided
