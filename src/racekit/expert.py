"""Rule-based demonstration policy.

The ego expert samples a lattice of lateral-offset / speed-scaled candidate
trajectories around its raceline, scores them with a composite reward
(log-speed bonus, lateral-deviation and curvature penalties, exponential
proximity cost against a constant-velocity opponent prediction) and tracks
the winner with pure pursuit. The leader role skips the search and simply
follows its raceline at a discounted reference speed, never reacting to
the ego.

The expert serves a lockstep batch of worlds on one raceline at once
(`ego_commands`, `leader_commands`); the one-world API (`expert_action`,
`sample_lattice`) is the batch of one. The lattices of all rows are built
together: their speed profiles integrate as one (rows, speed scales)
array (one v_ref lookup per coarse step, located through the raceline's
cached segment table); the raceline's pose, free space and curvature are
interpolated from one location of the (rows, speed, time) arc grid;
containment is one (rows, speed, offset) mask; and the kept candidates'
points and headings come out of one broadcast and are scored as one
array, in the order a per-candidate loop would produce them and with the
same floats. `_mean_rewards` (the composite reward over any broadcast
grid of candidates) and `_best` (argmax with its tie rules) are the only
scoring and selection; selection and pure pursuit run per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulator import VehicleCommand, VehicleState, WorldState
from .track import PROJECTION_RADIUS, FarFromRaceline, Raceline, TrackModel, normal_of


class ExpertError(Exception):
    pass


class NoFeasibleCandidate(ExpertError):
    """Every lattice candidate leaves the track; caller must brake straight."""


class NonPositiveSpeed(ExpertError):
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
    # signed lateral deviation from the raceline and the raceline's
    # curvature per sample, in the lattice's construction frame
    d_path: np.ndarray
    kappa_path: np.ndarray


def _blend(u: np.ndarray) -> np.ndarray:
    """Smoothstep lateral blend: 0 -> 1 with zero end slopes."""
    return 3.0 * u * u - 2.0 * u * u * u


@dataclass(eq=False)
class Lattice:
    """The lattices of n states on one raceline as (row, speed, offset)
    grids of K samples. A candidate is a (speed, offset) pair; kept (n, S,
    L) marks those that stay on the track, and a row's candidates are its
    kept pairs in (speed, offset) order. v and kappa depend on the speed
    only, d on the offset only; errors holds, per row, why it keeps none."""

    offsets: np.ndarray       # (L,)
    scales: np.ndarray        # (S,)
    xy: np.ndarray            # (n, S, L, K, 2)
    heading: np.ndarray       # (n, S, L, K)
    v: np.ndarray             # (n, S, 1, K)
    kappa: np.ndarray         # (n, S, 1, K) raceline curvature at the sample's arc
    d: np.ndarray             # (n, 1, L, K) signed lateral deviation
    kept: np.ndarray          # (n, S, L)
    errors: list

    def candidate(self, r: int, j: int, i: int) -> CandidateTrajectory:
        """Row r's candidate at speed j and offset i, as views of the grids."""
        return CandidateTrajectory(
            xy=self.xy[r, j, i], heading=self.heading[r, j, i], v=self.v[r, j, 0],
            lateral_offset=float(self.offsets[i]), speed_scale=float(self.scales[j]),
            d_path=self.d[r, 0, i], kappa_path=self.kappa[r, j, 0])

    def candidates(self, r: int) -> list[CandidateTrajectory]:
        """Row r's candidates, speed-major, in offset order within a speed."""
        return [self.candidate(r, j, i) for j, i in zip(*np.nonzero(self.kept[r]))]


def _pose(state: VehicleState) -> np.ndarray:
    return np.array([[state.x, state.y, state.theta, state.v, state.delta]], dtype=float)


def sample_lattices(states: np.ndarray, raceline: Raceline, cfg: ExpertConfig) -> Lattice:
    """The lattices of n vehicle states (n, 5) on one raceline: per row,
    n_lateral x n_speed candidates blending from the current offset to
    each target offset over the horizon. Candidates that would leave the
    track (minus safety_margin) are not kept; a row more than
    PROJECTION_RADIUS off the raceline, or whose every candidate leaves
    the track, keeps none and has its FarFromRaceline or
    NoFeasibleCandidate in `errors`."""
    n = len(states)
    errors: list = [None] * n
    s0, d0 = raceline.project_many(states[:, :2])
    for r in np.flatnonzero(np.abs(d0) > PROJECTION_RADIUS):
        point = tuple(states[r, :2].tolist())
        errors[r] = FarFromRaceline(f"point {point} is {abs(d0[r]):.2f} m from the raceline")
    n_steps = max(2, int(round(cfg.horizon_T / cfg.sample_dt)) + 1)
    tau = np.arange(n_steps) * cfg.sample_dt
    u = np.minimum(np.maximum(tau / min(cfg.blend_T, cfg.horizon_T), 0.0), 1.0)
    beta = _blend(u)
    offsets = np.linspace(-cfg.lateral_max, cfg.lateral_max, cfg.n_lateral)
    scales = np.linspace(cfg.speed_scale_min, 1.0, cfg.n_speed)

    # speed/arc integration for all rows and scales at once; the ODE runs
    # on a coarser internal grid and is resampled onto the sim-rate grid
    sub = 5
    dt_int = cfg.sample_dt * sub
    n_int = (n_steps - 1) // sub + 2
    s_coarse = np.empty((n_int, n, cfg.n_speed))
    v_coarse = np.empty((n_int, n, cfg.n_speed))
    s_coarse[0] = s0[:, None]
    v_coarse[0] = np.array([max(v, cfg.v_floor) for v in states[:, 3].tolist()]).reshape(n, 1)
    dv_lo, dv_hi = cfg.decel_max * dt_int, cfg.accel_max * dt_int
    for k in range(n_int - 1):
        s, v = s_coarse[k], v_coarse[k]
        s_next = np.add(s, v * dt_int, out=s_coarse[k + 1])
        # v_ref_at's lookup, called directly: racebench's tracer wraps every
        # public call, and this one runs ~40 times per lattice
        target = scales * raceline._lerp(raceline.v_ref, raceline._at(s_next))
        v_next = np.minimum(np.maximum(target, v + dv_lo), v + dv_hi, out=v_coarse[k + 1])
        np.maximum(v_next, cfg.v_floor, out=v_next)
    tau_coarse = np.arange(n_int) * dt_int
    shape = (n, cfg.n_speed, 1, n_steps)
    s_fine = np.array([np.interp(tau, tau_coarse, lane)
                       for lane in s_coarse.reshape(n_int, -1).T]).reshape(shape)
    v_fine = np.array([np.interp(tau, tau_coarse, lane)
                       for lane in v_coarse.reshape(n_int, -1).T]).reshape(shape)

    # one location of the (row, speed, time) arc grid serves the base
    # points, normals, free space and curvature
    loc = raceline._at(s_fine)
    base = raceline._lerp(raceline.xy, loc)                        # (n, S, 1, K, 2)
    normals = normal_of(raceline._lerp(raceline.heading, loc, angular=True))
    avail_l = raceline._lerp(raceline.w_left_avail, loc) - cfg.safety_margin
    avail_r = raceline._lerp(raceline.w_right_avail, loc) - cfg.safety_margin
    d0 = d0[:, None, None]
    d_path = (d0 + (offsets[:, None] - d0) * beta)[:, None]        # (n, 1, L, K)
    kept = ~(np.any(d_path > avail_l, axis=3) | np.any(-d_path > avail_r, axis=3))   # (n, S, L)
    for r in np.flatnonzero(~kept.any(axis=(1, 2))):
        errors[r] = errors[r] or NoFeasibleCandidate(
            f"all {cfg.n_lateral * cfg.n_speed} candidates leave the track at s={s0[r]:.2f}")
    kept[[e is not None for e in errors]] = False
    xy = base + d_path[..., None] * normals                         # (n, S, L, K, 2)
    diffs = np.diff(xy, axis=3)
    heading = np.arctan2(diffs[..., 1], diffs[..., 0])
    heading = np.concatenate([heading, heading[..., -1:]], axis=3)
    return Lattice(offsets=offsets, scales=scales, xy=xy, heading=heading, v=v_fine,
                   kappa=raceline._lerp(raceline.kappa, loc), d=d_path, kept=kept, errors=errors)


def sample_lattice(state: VehicleState, raceline: Raceline, track: TrackModel,
                   cfg: ExpertConfig) -> list[CandidateTrajectory]:
    """One state's lattice (sample_lattices for a batch of one): its kept
    candidates, speed-major, in offset order within a speed. Raises
    FarFromRaceline or NoFeasibleCandidate when it keeps none."""
    lattice = sample_lattices(_pose(state), raceline, cfg)
    if lattice.errors[0] is not None:
        raise lattice.errors[0]
    return lattice.candidates(0)


def predict_opponents(opponents: np.ndarray, cfg: ExpertConfig) -> np.ndarray:
    """Constant-velocity predictions (n, K, 2) of n opponent states (n, 5),
    sampled on the candidate grid."""
    n_steps = max(2, int(round(cfg.horizon_T / cfg.sample_dt)) + 1)
    tau = np.arange(n_steps) * cfg.sample_dt
    x, y, theta, v = opponents[:, :4].T[..., None]
    vx = v * np.cos(theta)
    vy = v * np.sin(theta)
    return np.stack([x + vx * tau, y + vy * tau], axis=2)


def _mean_rewards(V, XY, d, kappa, opponent_pred, cfg: ExpertConfig) -> np.ndarray:
    """Mean per-sample composite reward of candidates whose (..., K)
    speeds, deviations and curvatures and (..., K, 2) points broadcast
    together, against opponent predictions (..., >=K, 2) or none:
    lambda_v * ln(v) - lambda_p * |d| - lambda_kappa * |kappa| * v
    - lambda_d * exp(-d_l / d_scale), with d_l the distance to the
    time-aligned opponent prediction (no proximity term without one)."""
    n_k = V.shape[-1]
    term = cfg.lambda_v * np.log(V) - cfg.lambda_p * np.abs(d) \
        - cfg.lambda_kappa * np.abs(kappa) * V
    if opponent_pred is not None:
        if opponent_pred.shape[-2] < n_k:
            raise ExpertError("opponent prediction shorter than the candidate horizon")
        gap = XY - opponent_pred[..., :n_k, :]
        # the Euclidean norm as np.linalg.norm sums it, without its
        # reduction over a length-2 axis
        d_l = np.sqrt(gap[..., 0] * gap[..., 0] + gap[..., 1] * gap[..., 1])
        term = term - cfg.lambda_d * np.exp(-d_l / cfg.d_scale)
    return term.mean(axis=-1)


def _best(rewards: list[float], offsets: list[float]) -> int:
    """Index of the argmax reward; ties prefer the smaller |offset|, then
    the earlier entry."""
    best = 0
    for i in range(1, len(rewards)):
        if rewards[i] > rewards[best] or (
                rewards[i] == rewards[best] and abs(offsets[i]) < abs(offsets[best])):
            best = i
    return best


def pure_pursuit_steering(wheelbase: float, alpha: float, ell: float) -> float:
    """Geometric steering law: delta = arctan(2 L sin(alpha) / ell)."""
    return math.atan2(2.0 * wheelbase * math.sin(alpha), ell)


def _steer_toward(pose, target, chord: float, cfg: ExpertConfig) -> float:
    """Pure-pursuit steering from pose (x, y, theta, ...) toward a target
    point `chord` meters away, clamped to the steering limit."""
    alpha = math.atan2(target[1] - pose[1], target[0] - pose[0]) - pose[2]
    alpha = (alpha + math.pi) % (2.0 * math.pi) - math.pi
    delta = pure_pursuit_steering(cfg.wheelbase_L, alpha, max(chord, 1e-6))
    return min(max(delta, -cfg.steer_limit), cfg.steer_limit)


def pure_pursuit(state: VehicleState, traj: CandidateTrajectory, cfg: ExpertConfig) -> float:
    """Steer toward the first trajectory sample at least one lookahead
    distance ahead (the farthest sample if the trajectory is shorter)."""
    ell = max(cfg.lookahead_ell, cfg.lookahead_gain * state.v)
    rel = traj.xy - np.array([state.x, state.y])
    dist = np.sqrt(rel[:, 0] * rel[:, 0] + rel[:, 1] * rel[:, 1])     # np.linalg.norm's sum
    ahead = np.nonzero(dist >= ell)[0]
    idx = int(ahead[0]) if len(ahead) else len(traj.xy) - 1
    return _steer_toward((state.x, state.y, state.theta), traj.xy[idx], float(dist[idx]), cfg)


def leader_commands(states: np.ndarray, raceline: Raceline, cfg: ExpertConfig) -> np.ndarray:
    """Commands (n, 2) of n leaders (n, 5) on one raceline: its discounted
    reference speed at the projection and pure pursuit toward the raceline
    point one lookahead further on."""
    s_proj, d_proj = raceline.project_many(states[:, :2])
    far = np.flatnonzero(np.abs(d_proj) > PROJECTION_RADIUS)
    if len(far):
        point = tuple(states[far[0], :2].tolist())
        raise FarFromRaceline(f"point {point} is {abs(d_proj[far[0]]):.2f} m from the raceline")
    poses = states.tolist()
    ell = np.array([max(cfg.lookahead_ell, cfg.lookahead_gain * p[3]) for p in poses])
    targets = raceline.position_at(s_proj + ell)
    out = np.empty((len(poses), 2))
    out[:, 0] = raceline.v_ref_at(s_proj) * cfg.leader_speed_discount
    for r, (pose, target) in enumerate(zip(poses, targets)):
        chord = math.hypot(target[0] - pose[0], target[1] - pose[1])
        out[r, 1] = _steer_toward(pose, target, chord, cfg)
    return out


def ego_commands(states: np.ndarray, opponents: np.ndarray | None, raceline: Raceline,
                 cfg: ExpertConfig) -> np.ndarray:
    """Commands (n, 2) of n egos (n, 5) on one raceline, each against its
    row's opponent (n, 5) or none: the lattices of all rows, scored as one
    grid, then per row the best kept candidate's preview speed and pure
    pursuit. A row without a feasible candidate brakes straight."""
    out = np.zeros((len(states), 2))
    lattice = sample_lattices(states, raceline, cfg)
    if not lattice.kept.any():
        return out
    if np.any(lattice.v[lattice.kept.any(axis=2)] <= 0):
        raise NonPositiveSpeed("candidate contains non-positive speeds")
    opp = None if opponents is None else predict_opponents(opponents, cfg)[:, None, None]
    rewards = _mean_rewards(lattice.v, lattice.xy, lattice.d, lattice.kappa, opp, cfg)
    # commanding a preview sample lets the proportional speed tracker
    # realize the planned acceleration instead of chasing the current speed
    idx = min(lattice.v.shape[-1] - 1, int(round(cfg.speed_preview / cfg.sample_dt)))
    for r in np.flatnonzero(lattice.kept.any(axis=(1, 2))):
        js, is_ = np.nonzero(lattice.kept[r])
        k = _best(rewards[r, js, is_].tolist(), lattice.offsets[is_].tolist())
        best = lattice.candidate(r, js[k], is_[k])
        out[r] = best.v[idx], pure_pursuit(VehicleState(*states[r].tolist()), best, cfg)
    return out


def expert_action(world: WorldState, agent: int, role: str, raceline: Raceline,
                  cfg: ExpertConfig) -> VehicleCommand:
    """Full expert pipeline for the ego role; pure raceline tracking at a
    discounted speed for the leader (ego_commands and leader_commands for a
    batch of one). Falls back to a straight brake when no feasible
    candidate exists."""
    poses = np.array([(a.x, a.y, a.theta, a.v, a.delta) for a in world.agents], dtype=float)
    state = poses[agent:agent + 1]
    if role == Role.LEADER:
        cmd = leader_commands(state, raceline, cfg)[0]
    else:
        others = np.delete(poses, agent, axis=0)
        cmd = ego_commands(state, others[:1] if len(others) else None, raceline, cfg)[0]
    return VehicleCommand(float(cmd[0]), float(cmd[1]))
