"""Rule-based demonstration policy.

The ego expert samples a lattice of lateral-offset / speed-scaled candidate
trajectories around its raceline, scores them with a composite reward
(log-speed bonus, lateral-deviation and curvature penalties, exponential
proximity cost against a constant-velocity opponent prediction) and tracks
the winner with pure pursuit. The leader role skips the search and simply
follows its raceline at a discounted reference speed, never reacting to
the ego.

The lattice is built in one shot: the speed profiles of all speed scales
integrate together (one v_ref lookup per coarse step, located through the
raceline's cached segment table), and the raceline's pose and free space
are interpolated once over the whole (speed, time) grid. Containment is
one (speed, offset) mask, and the kept candidates' points and headings
come out of one broadcast, in the order a per-candidate loop would
produce them and with the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulator import VehicleCommand, VehicleState, WorldState
from .track import FarFromRaceline, Raceline, TrackModel, curvature_at


class ExpertError(Exception):
    pass


class NoFeasibleCandidate(ExpertError):
    """Every lattice candidate leaves the track; caller must brake straight."""


class NonPositiveSpeed(ExpertError):
    pass


class EmptyCandidateSet(ExpertError):
    pass


class Role:
    EGO = "ego"
    LEADER = "leader"


@dataclass(frozen=True)
class ExpertConfig:
    lambda_v: float = 1.0
    lambda_p: float = 0.25
    lambda_d: float = 14.0
    lambda_kappa: float = 0.05
    d_scale: float = 0.4          # shape of the proximity cost exp(-d_l / d_scale)
    horizon_T: float = 2.0
    blend_T: float = 1.0          # lateral transition time; offset held afterwards
    n_lateral: int = 7
    n_speed: int = 3
    lateral_max: float = 1.0      # candidate offsets span [-lateral_max, +lateral_max] m
    speed_scale_min: float = 0.5
    lookahead_ell: float = 0.8    # floor of the speed-scaled lookahead
    lookahead_gain: float = 0.3   # ell = max(lookahead_ell, lookahead_gain * v)
    wheelbase_L: float = 0.33
    steer_limit: float = 0.4189
    leader_speed_discount: float = 0.6
    safety_margin: float = 0.16   # lateral clearance kept to the boundaries
    sample_dt: float = 0.01       # candidate sampling rate (the sim rate)
    accel_max: float = 9.51       # candidate speed ramp limits from the current state
    decel_max: float = -9.51
    speed_preview: float = 0.5    # command the candidate speed this far ahead
    v_floor: float = 0.2          # keeps ln(v) finite when starting near rest

    def __post_init__(self):
        if not 0.0 < self.leader_speed_discount <= 1.0:
            raise ExpertError("leader_speed_discount must be in (0, 1]")


@dataclass(eq=False)
class CandidateTrajectory:
    xy: np.ndarray            # (K, 2)
    heading: np.ndarray       # (K,)
    v: np.ndarray             # (K,) > 0
    lateral_offset: float     # target offset from the raceline, meters
    speed_scale: float
    reward: float = math.nan
    # construction-frame cache set by sample_lattice: arc position on the
    # raceline and signed lateral deviation per sample. Hand-built
    # candidates leave these None and are scored by projection instead.
    s_path: np.ndarray | None = None
    d_path: np.ndarray | None = None


def _blend(u: np.ndarray) -> np.ndarray:
    """Smoothstep lateral blend: 0 -> 1 with zero end slopes."""
    return 3.0 * u * u - 2.0 * u * u * u


def sample_lattice(state: VehicleState, raceline: Raceline, track: TrackModel,
                   cfg: ExpertConfig) -> list[CandidateTrajectory]:
    """n_lateral x n_speed candidates blending from the current offset to
    each target offset over the horizon. Candidates that would leave the
    track (minus safety_margin) are dropped; the rest come speed-major, in
    offset order within a speed."""
    s0, d0 = raceline.project((state.x, state.y))
    n_steps = max(2, int(round(cfg.horizon_T / cfg.sample_dt)) + 1)
    tau = np.arange(n_steps) * cfg.sample_dt
    u = np.minimum(np.maximum(tau / min(cfg.blend_T, cfg.horizon_T), 0.0), 1.0)
    beta = _blend(u)
    offsets = np.linspace(-cfg.lateral_max, cfg.lateral_max, cfg.n_lateral)
    scales = np.linspace(cfg.speed_scale_min, 1.0, cfg.n_speed)

    # speed/arc integration for all scales at once; the ODE runs on a
    # coarser internal grid and is resampled onto the sim-rate grid
    sub = 5
    dt_int = cfg.sample_dt * sub
    n_int = (n_steps - 1) // sub + 2
    s_coarse = np.empty((n_int, cfg.n_speed))
    v_coarse = np.empty((n_int, cfg.n_speed))
    s = np.full(cfg.n_speed, s0)
    v = np.full(cfg.n_speed, max(float(state.v), cfg.v_floor))
    for k in range(n_int):
        s_coarse[k] = s
        v_coarse[k] = v
        s = s + v * dt_int
        # v_ref_at's lookup, called directly: racebench's tracer wraps every
        # public call, and this one runs ~40 times per lattice
        target = scales * raceline._interp(raceline.v_ref, s)
        v = np.minimum(np.maximum(target, v + cfg.decel_max * dt_int),
                       v + cfg.accel_max * dt_int)
        v = np.maximum(v, cfg.v_floor)
    tau_coarse = np.arange(n_int) * dt_int
    s_fine = np.empty((cfg.n_speed, n_steps))
    v_fine = np.empty((cfg.n_speed, n_steps))
    for j in range(cfg.n_speed):
        s_fine[j] = np.interp(tau, tau_coarse, s_coarse[:, j])
        v_fine[j] = np.interp(tau, tau_coarse, v_coarse[:, j])

    # the whole (speed, offset) lattice at once: base points, normals and
    # free space per speed row (S, K), lateral paths per offset (L, K)
    base = raceline.position_at(s_fine)                         # (S, K, 2)
    normals = raceline.normal_at(s_fine)                        # (S, K, 2)
    avail_l, avail_r = raceline.avail_at(s_fine)
    d_path = d0 + (offsets[:, None] - d0) * beta                # (L, K)
    leaves = (np.any(d_path > (avail_l - cfg.safety_margin)[:, None], axis=2)
              | np.any(-d_path > (avail_r - cfg.safety_margin)[:, None], axis=2))  # (S, L)
    j_kept, i_kept = np.nonzero(~leaves)                        # speed-major order
    if not len(j_kept):
        raise NoFeasibleCandidate(
            f"all {cfg.n_lateral * cfg.n_speed} candidates leave the track at s={s0:.2f}")
    d_kept = d_path[i_kept]                                     # (C, K)
    xy = base[j_kept] + d_kept[:, :, None] * normals[j_kept]    # (C, K, 2)
    diffs = np.diff(xy, axis=1)
    heading = np.arctan2(diffs[:, :, 1], diffs[:, :, 0])
    heading = np.concatenate([heading, heading[:, -1:]], axis=1)
    v_kept, s_kept = v_fine[j_kept], s_fine[j_kept]
    return [CandidateTrajectory(
        xy=xy[c], heading=heading[c], v=v_kept[c], lateral_offset=float(offsets[i]),
        speed_scale=float(scales[j]), s_path=s_kept[c], d_path=d_kept[c])
        for c, (j, i) in enumerate(zip(j_kept, i_kept))]


def predict_opponent(opponent: VehicleState, cfg: ExpertConfig) -> np.ndarray:
    """Constant-velocity opponent prediction sampled on the candidate grid."""
    n_steps = max(2, int(round(cfg.horizon_T / cfg.sample_dt)) + 1)
    tau = np.arange(n_steps) * cfg.sample_dt
    vx = opponent.v * math.cos(opponent.theta)
    vy = opponent.v * math.sin(opponent.theta)
    return np.stack([opponent.x + vx * tau, opponent.y + vy * tau], axis=1)


def score_candidates(candidates: list[CandidateTrajectory],
                     opponent_pred: np.ndarray | None,
                     raceline: Raceline, cfg: ExpertConfig) -> np.ndarray:
    """Vectorized mean per-sample composite reward for a candidate batch.

    lambda_v * ln(v) - lambda_p * |d_r| - lambda_d * exp(-d_l / d_scale)
    - lambda_kappa * |kappa| * v, with d_l the distance to the time-aligned
    opponent prediction (no proximity term without an opponent)."""
    V = np.stack([c.v for c in candidates])          # (C, K)
    if np.any(V <= 0):
        raise NonPositiveSpeed("candidate contains non-positive speeds")
    XY = np.stack([c.xy for c in candidates])        # (C, K, 2)
    n_c, n_k = V.shape
    if all(c.s_path is not None and c.d_path is not None for c in candidates):
        s_proj = np.stack([c.s_path for c in candidates]).reshape(-1)
        d_proj = np.stack([c.d_path for c in candidates])
    else:
        s_hint, _ = raceline.project((XY[0, 0, 0], XY[0, 0, 1]))
        window = float(V.max()) * cfg.horizon_T + 5.0
        s_proj, d_proj = raceline.project_many(XY.reshape(-1, 2), s_hint=s_hint, window=window)
        d_proj = d_proj.reshape(n_c, n_k)
    kappa = curvature_at(raceline, s_proj).reshape(n_c, n_k)
    term = cfg.lambda_v * np.log(V) - cfg.lambda_p * np.abs(d_proj) \
        - cfg.lambda_kappa * np.abs(kappa) * V
    if opponent_pred is not None:
        if len(opponent_pred) < n_k:
            raise ExpertError("opponent prediction shorter than the candidate horizon")
        d_l = np.linalg.norm(XY - opponent_pred[None, :n_k], axis=2)
        term = term - cfg.lambda_d * np.exp(-d_l / cfg.d_scale)
    return term.mean(axis=1)


def score_candidate(cand: CandidateTrajectory, opponent_pred: np.ndarray | None,
                    raceline: Raceline, cfg: ExpertConfig) -> float:
    """Composite reward of one candidate (see score_candidates)."""
    return float(score_candidates([cand], opponent_pred, raceline, cfg)[0])


def select_trajectory(candidates: list[CandidateTrajectory]) -> CandidateTrajectory:
    """Argmax reward; ties prefer the smaller |lateral_offset|, then the
    earlier candidate."""
    if not candidates:
        raise EmptyCandidateSet("no candidates to select from")
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.reward > best.reward or (
                cand.reward == best.reward
                and abs(cand.lateral_offset) < abs(best.lateral_offset)):
            best = cand
    return best


def pure_pursuit_steering(wheelbase: float, alpha: float, ell: float) -> float:
    """Geometric steering law: delta = arctan(2 L sin(alpha) / ell)."""
    return math.atan2(2.0 * wheelbase * math.sin(alpha), ell)


def _steer_toward(state: VehicleState, target, chord: float, cfg: ExpertConfig) -> float:
    """Pure-pursuit steering toward a target point `chord` meters away,
    clamped to the steering limit."""
    alpha = math.atan2(target[1] - state.y, target[0] - state.x) - state.theta
    alpha = (alpha + math.pi) % (2.0 * math.pi) - math.pi
    delta = pure_pursuit_steering(cfg.wheelbase_L, alpha, max(chord, 1e-6))
    return min(max(delta, -cfg.steer_limit), cfg.steer_limit)


def pure_pursuit(state: VehicleState, traj: CandidateTrajectory, cfg: ExpertConfig) -> float:
    """Steer toward the first trajectory sample at least one lookahead
    distance ahead (the farthest sample if the trajectory is shorter)."""
    ell = max(cfg.lookahead_ell, cfg.lookahead_gain * state.v)
    rel = traj.xy - np.array([state.x, state.y])
    dist = np.linalg.norm(rel, axis=1)
    ahead = np.nonzero(dist >= ell)[0]
    idx = int(ahead[0]) if len(ahead) else len(traj.xy) - 1
    return _steer_toward(state, traj.xy[idx], float(dist[idx]), cfg)


def _leader_command(state: VehicleState, raceline: Raceline, cfg: ExpertConfig) -> VehicleCommand:
    s_proj, _ = raceline.project((state.x, state.y))
    v_cmd = float(raceline.v_ref_at(s_proj)) * cfg.leader_speed_discount
    ell = max(cfg.lookahead_ell, cfg.lookahead_gain * state.v)
    target = raceline.position_at(s_proj + ell)
    chord = math.hypot(target[0] - state.x, target[1] - state.y)
    return VehicleCommand(v_cmd, _steer_toward(state, target, chord, cfg))


def expert_action(world: WorldState, agent: int, role: str, raceline: Raceline,
                  cfg: ExpertConfig) -> VehicleCommand:
    """Full expert pipeline for the ego role; pure raceline tracking at a
    discounted speed for the leader. Falls back to a straight brake when no
    feasible candidate exists."""
    state = world.agents[agent]
    if role == Role.LEADER:
        return _leader_command(state, raceline, cfg)
    others = [a for i, a in enumerate(world.agents) if i != agent]
    opponent_pred = predict_opponent(others[0], cfg) if others else None
    try:
        candidates = sample_lattice(state, raceline, world.track, cfg)
    except (NoFeasibleCandidate, FarFromRaceline):
        return VehicleCommand(0.0, 0.0)
    rewards = score_candidates(candidates, opponent_pred, raceline, cfg)
    for cand, r in zip(candidates, rewards):
        cand.reward = float(r)
    best = select_trajectory(candidates)
    delta = pure_pursuit(state, best, cfg)
    # commanding a preview sample lets the proportional speed tracker
    # realize the planned acceleration instead of chasing the current speed
    idx = min(len(best.v) - 1, int(round(cfg.speed_preview / cfg.sample_dt)))
    return VehicleCommand(float(best.v[idx]), delta)
