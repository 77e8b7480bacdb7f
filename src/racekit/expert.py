"""Rule-based demonstration policy.

The ego expert samples a lattice of lateral-offset / speed-scaled candidate
trajectories around its raceline, scores them with a composite reward
(log-speed bonus, lateral-deviation and curvature penalties, exponential
proximity cost against a constant-velocity opponent prediction) and tracks
the winner with pure pursuit. The leader role skips the search and simply
follows its raceline at a discounted reference speed, never reacting to
the ego.

It plans with the simulator's car: every entry point takes the rollout's
`SimConfig` for the candidate grid's rate (`dt`), the candidates' speed
ramp (`a_min`, `a_max`) and pure pursuit (`wheelbase`, `delta_max`).

Both roles work on pose rows (x, y, theta, v, delta) of a lockstep batch
of worlds on one raceline (`ego_commands`, `leader_commands`). The
lattices of all rows are built together (`sample_lattices`): their speed
profiles integrate as one (rows, speed scales) array (one v_ref lookup
per coarse step, over the raceline's cached v_ref_table) and are
resampled together; the raceline's pose, free space and curvature are
interpolated from one location of the (rows, speed, time) arc grid;
containment is one (rows, speed, offset) mask; and the candidates'
points come out of one broadcast per coordinate and are scored as one
array, with the floats a per-candidate loop would give. `_mean_rewards`
(the composite reward over any broadcast grid of candidates) and `_best`
(argmax with its tie rules) are the only scoring and selection;
selection and pure pursuit run per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulator import SimConfig
from .track import PROJECTION_RADIUS, FarFromRaceline, Raceline, normal_of


class ExpertError(Exception):
    pass


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
    leader_speed_discount: float = 0.6
    safety_margin: float = 0.16   # lateral clearance kept to the boundaries
    speed_preview: float = 0.5    # command the candidate speed this far ahead
    v_floor: float = 0.2          # keeps ln(v) finite when starting near rest

    def __post_init__(self):
        if not 0.0 < self.leader_speed_discount <= 1.0:
            raise ExpertError("leader_speed_discount must be in (0, 1]")
        if not self.v_floor > 0.0:   # every candidate speed is at least v_floor
            raise ExpertError(f"v_floor must be > 0, got {self.v_floor}")
        for key in ("n_lateral", "n_speed"):
            if getattr(self, key) < 1:
                raise ExpertError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("horizon_T", "blend_T", "d_scale"):
            if not getattr(self, key) > 0.0:
                raise ExpertError(f"{key} must be > 0, got {getattr(self, key)}")


def _blend(u: np.ndarray) -> np.ndarray:
    """Smoothstep lateral blend: 0 -> 1 with zero end slopes."""
    return 3.0 * u * u - 2.0 * u * u * u


@dataclass(eq=False)
class Lattice:
    """The lattices of n states on one raceline as (row, speed, offset)
    grids of K samples of what the reward reads. A candidate is a (speed,
    offset) pair; kept (n, S, L) marks those that stay on the track, and a
    row's candidates are its kept pairs in (speed, offset) order. v and
    kappa depend on the speed only, d on the offset only."""

    offsets: np.ndarray       # (L,)
    xy: np.ndarray            # (n, S, L, K, 2)
    v: np.ndarray             # (n, S, 1, K)
    kappa: np.ndarray         # (n, S, 1, K) raceline curvature at the sample's arc
    d: np.ndarray             # (n, 1, L, K) signed lateral deviation
    kept: np.ndarray          # (n, S, L)


def sample_lattices(states: np.ndarray, raceline: Raceline, cfg: ExpertConfig,
                    sim: SimConfig) -> Lattice:
    """The lattices of n vehicle states (n, 5) on one raceline: per row,
    n_lateral x n_speed candidates blending from the current offset to
    each target offset over the horizon. Candidates that would leave the
    track (minus safety_margin) are not kept, and a row more than
    PROJECTION_RADIUS off the raceline keeps none.

    The speed profiles of every (row, speed scale) pair integrate together
    on a grid of every fifth sim step: each coarse step advances the arc by
    the speed, looks the reference speed up at the new arc with v_ref_at's
    floats (Raceline.v_ref_table holds the segment starts, the floored
    lengths, v_ref and its next-vertex copy, so the step wraps, locates
    and interpolates with a fixed handful of ufunc calls into scratch
    arrays, whatever the number of rows) and moves the speed toward the
    scaled reference within the acceleration limits, floored at v_floor.
    The profiles are then resampled onto the sim-rate grid."""
    n = len(states)
    s0, d0 = raceline.project_many(states[:, :2])
    far = np.abs(d0) > PROJECTION_RADIUS
    n_steps = max(2, int(round(cfg.horizon_T / sim.dt)) + 1)
    tau = np.arange(n_steps) * sim.dt
    u = np.minimum(np.maximum(tau / min(cfg.blend_T, cfg.horizon_T), 0.0), 1.0)
    beta = _blend(u)
    offsets = np.linspace(-cfg.lateral_max, cfg.lateral_max, cfg.n_lateral)
    scales = np.linspace(cfg.speed_scale_min, 1.0, cfg.n_speed)

    # speed/arc integration for all rows and scales at once; the ODE runs
    # on a coarser internal grid and is resampled onto the sim-rate grid
    sub = 5
    dt_int = sim.dt * sub
    n_int = (n_steps - 1) // sub + 2
    coarse = np.empty((2, n_int, n, cfg.n_speed))
    s_coarse, v_coarse = coarse                            # the arcs and the speeds
    s_coarse[0] = s0[:, None]
    v_coarse[0] = np.array([max(v, cfg.v_floor) for v in states[:, 3].tolist()]).reshape(n, 1)
    # scratch arrays and 0-d array constants: a Python float operand costs
    # a ufunc call more than its work, and a coarse step is sixteen numpy
    # calls on small arrays, whatever the number of rows
    table = raceline.v_ref_table
    seg_starts = table[0, 1:]                              # column idx holds segment idx - 1
    dt_c, length, one, floor = map(np.array, (dt_int, raceline.length, 1.0, cfg.v_floor))
    dv = np.array([sim.a_min * dt_int, sim.a_max * dt_int]).reshape(2, 1, 1)
    at, frac, lerp = (np.empty((n, cfg.n_speed)) for _ in range(3))
    bounds = np.empty((2, n, cfg.n_speed))
    for k in range(n_int - 1):
        s, v = s_coarse[k], v_coarse[k]
        s_next = np.add(s, np.multiply(v, dt_c, out=at), out=s_coarse[k + 1])
        np.mod(s_next, length, out=at)
        start, seg_len, v0, v1 = table.take(seg_starts.searchsorted(at, "right"), axis=1)
        np.subtract(at, start, out=frac)
        np.divide(frac, seg_len, out=frac)
        np.subtract(one, frac, out=at)
        np.multiply(v0, at, out=lerp)                      # v0 * (1 - frac) + v1 * frac
        np.multiply(frac, v1, out=frac)
        np.add(lerp, frac, out=lerp)
        np.multiply(lerp, scales, out=lerp)                # the target speed
        lo, hi = np.add(v, dv, out=bounds)                 # v + a_min * dt, v + a_max * dt
        v_next = np.maximum(lerp, lo, out=v_coarse[k + 1])
        np.minimum(v_next, hi, out=v_next)
        np.maximum(v_next, floor, out=v_next)
    # resampled onto the sim-rate grid with np.interp's floats, all lanes
    # at once: its interval of each sample, its slope dy / dx and its knot
    # rule (a sample on a knot takes the knot's value)
    tau_coarse = np.arange(n_int) * dt_int
    j = tau_coarse.searchsorted(tau, "right") - 1
    seg = np.minimum(j, n_int - 2)
    lanes = coarse.reshape(2, n_int, -1).transpose(0, 2, 1)     # (2, n * n_speed, n_int)
    slopes = np.diff(lanes, axis=2) / np.diff(tau_coarse)
    fine = slopes[..., seg] * (tau - tau_coarse[seg]) + lanes[..., seg]
    fine = np.where(tau == tau_coarse[j], lanes[..., j], fine)
    s_fine, v_fine = fine.reshape(2, n, cfg.n_speed, 1, n_steps)

    # one location of the (row, speed, time) arc grid serves the base
    # points, normals, free space and curvature
    loc = raceline._at(s_fine)
    base_x, base_y = (raceline._lerp(raceline.xy[:, c], loc) for c in (0, 1))   # (n, S, 1, K)
    normal_x, normal_y = np.moveaxis(normal_of(raceline._lerp(raceline.heading, loc,
                                                              angular=True)), -1, 0)
    avail_l = raceline._lerp(raceline.w_left_avail, loc) - cfg.safety_margin
    avail_r = raceline._lerp(raceline.w_right_avail, loc) - cfg.safety_margin
    d0 = d0[:, None, None]
    d_path = (d0 + (offsets[:, None] - d0) * beta)[:, None]        # (n, 1, L, K)
    kept = ~(np.any(d_path > avail_l, axis=3) | np.any(-d_path > avail_r, axis=3))   # (n, S, L)
    kept[far] = False
    # the candidates' points base + d * normal, a coordinate at a time so
    # that the loops run along the samples
    xy = np.empty((n, cfg.n_speed, cfg.n_lateral, n_steps, 2))
    for c, (base_c, normal_c) in enumerate(((base_x, normal_x), (base_y, normal_y))):
        np.multiply(d_path, normal_c, out=xy[..., c])
        xy[..., c] += base_c
    return Lattice(offsets=offsets, xy=xy, v=v_fine,
                   kappa=raceline._lerp(raceline.kappa, loc), d=d_path, kept=kept)


def predict_opponents(opponents: np.ndarray, cfg: ExpertConfig, sim: SimConfig) -> np.ndarray:
    """Constant-velocity predictions (n, K, 2) of n opponent states (n, 5),
    sampled on the candidate grid."""
    n_steps = max(2, int(round(cfg.horizon_T / sim.dt)) + 1)
    tau = np.arange(n_steps) * sim.dt
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
    time-aligned opponent prediction (no proximity term without one; with
    one, the speeds, deviations and curvatures broadcast into the points'
    grid)."""
    n_k = V.shape[-1]
    log_speed = cfg.lambda_v * np.log(V)
    deviation = cfg.lambda_p * np.abs(d)
    curvature = cfg.lambda_kappa * np.abs(kappa) * V
    if opponent_pred is None:
        return (log_speed - deviation - curvature).mean(axis=-1)
    pred = opponent_pred[..., :n_k, :]
    # two grid-sized arrays, written in place where an operand is spent,
    # with the plain expressions' floats; the Euclidean norm sums as
    # np.linalg.norm does, without its reduction over a length-2 axis
    d_l = np.subtract(XY[..., 0], pred[..., 0])
    d_l *= d_l
    term = np.subtract(XY[..., 1], pred[..., 1])
    term *= term
    d_l += term
    np.sqrt(d_l, out=d_l)
    proximity = np.negative(d_l, out=d_l)
    proximity /= cfg.d_scale
    np.exp(proximity, out=proximity)
    proximity *= cfg.lambda_d                       # lambda_d * exp(-d_l / d_scale)
    np.subtract(log_speed, deviation, out=term)
    term -= curvature
    term -= proximity
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


def _steer_toward(pose, target, chord: float, sim: SimConfig) -> float:
    """Pure-pursuit steering from pose (x, y, theta, ...) toward a target
    point `chord` meters away, clamped to the car's steering limit."""
    alpha = math.atan2(target[1] - pose[1], target[0] - pose[0]) - pose[2]
    alpha = (alpha + math.pi) % (2.0 * math.pi) - math.pi
    delta = pure_pursuit_steering(sim.wheelbase, alpha, max(chord, 1e-6))
    return min(max(delta, -sim.delta_max), sim.delta_max)


def pure_pursuit(pose, xy: np.ndarray, cfg: ExpertConfig, sim: SimConfig) -> float:
    """Steering from pose (x, y, theta, v, ...) toward the first point of
    the (K, 2) path xy at least one lookahead distance away (the farthest
    point if the path is shorter)."""
    ell = max(cfg.lookahead_ell, cfg.lookahead_gain * pose[3])
    rel = xy - np.array(pose[:2])
    dist = np.sqrt(rel[:, 0] * rel[:, 0] + rel[:, 1] * rel[:, 1])     # np.linalg.norm's sum
    ahead = np.nonzero(dist >= ell)[0]
    idx = int(ahead[0]) if len(ahead) else len(xy) - 1
    return _steer_toward(pose, xy[idx], float(dist[idx]), sim)


def leader_commands(states: np.ndarray, raceline: Raceline, cfg: ExpertConfig,
                    sim: SimConfig) -> np.ndarray:
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
        out[r, 1] = _steer_toward(pose, target, chord, sim)
    return out


def ego_commands(states: np.ndarray, opponents: np.ndarray | None, raceline: Raceline,
                 cfg: ExpertConfig, sim: SimConfig) -> np.ndarray:
    """Commands (n, 2) of n egos (n, 5) on one raceline, each against its
    row's opponent (n, 5) or none: the lattices of all rows, scored as one
    grid, then per row the best kept candidate's preview speed and pure
    pursuit. A row without a feasible candidate brakes straight."""
    out = np.zeros((len(states), 2))
    lattice = sample_lattices(states, raceline, cfg, sim)
    if not lattice.kept.any():
        return out
    opp = None if opponents is None else predict_opponents(opponents, cfg, sim)[:, None, None]
    rewards = _mean_rewards(lattice.v, lattice.xy, lattice.d, lattice.kappa, opp, cfg)
    # commanding a preview sample lets the proportional speed tracker
    # realize the planned acceleration instead of chasing the current speed
    idx = min(lattice.v.shape[-1] - 1, int(round(cfg.speed_preview / sim.dt)))
    for r in np.flatnonzero(lattice.kept.any(axis=(1, 2))):
        js, is_ = np.nonzero(lattice.kept[r])
        k = _best(rewards[r, js, is_].tolist(), lattice.offsets[is_].tolist())
        j, i = js[k], is_[k]
        out[r, 0] = lattice.v[r, j, 0, idx]
        out[r, 1] = pure_pursuit(states[r].tolist(), lattice.xy[r, j, i], cfg, sim)
    return out
