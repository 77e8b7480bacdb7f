"""Deterministic 100 Hz simulation of one or two agents in a lockstep
batch of worlds.

Kinematic single-track dynamics with a proportional speed tracker and
rate-limited steering, oriented-rectangle collision detection against the
track boundaries and the other agent, 360-beam LiDAR raycasting and
beam-dropout noise injection.

An agent's state is a pose row (x, y, theta, v, delta); the reference
point (x, y) is the footprint center, rays originate there and the
collision rectangle is centered on it. B worlds on one track are a
(B, agents, 5) pose array, with each world's time (B,) and latched
contact flags (B, agents) beside it. `step_frame` runs a frame's sim
steps for the worlds it is handed, each car in Python floats with
`math`'s trig, then checks them all for collisions at once and writes
nothing back. `collision_events` (at most two agents a world) and
`scan_batch` sense the rows together, and each row gets the floats it
would get alone: the same float operations per element, and a
per-element `math.hypot` where numpy's SIMD version may round
differently. A `Trace` records one row's poses per sim step, for the
trace CSV and rendering.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import _geom
from ._atomic import atomic_open
from .track import TrackModel


class SimulationError(Exception):
    pass


class NonFiniteState(SimulationError):
    """A dynamics update produced NaN or infinity."""


class MalformedTrace(SimulationError):
    """A trace CSV lacks a column, holds an unparsable value or changes its
    number of agents."""


# the episode engine's action-query and recording rate; SimConfig.dt must
# split its frame into a whole number of sim steps (within 1e-9)
FRAME_HZ = 10.0


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    wheelbase: float = 0.33
    veh_length: float = 0.58
    veh_width: float = 0.31
    delta_max: float = 0.4189
    steer_rate_max: float = 3.2
    a_max: float = 9.51
    a_min: float = -9.51
    v_hard_max: float = 10.0
    speed_gain: float = 2.0
    lidar_range_max: float = 30.0
    n_beams: int = 360

    def __post_init__(self):
        steps = 1.0 / (FRAME_HZ * self.dt) if self.dt > 0 else 0.0
        if not (steps >= 1.0 and abs(steps - round(steps)) <= 1e-9):
            raise SimulationError(f"dt must be > 0 and split the {1.0 / FRAME_HZ} s frame "
                                  f"into whole steps, got {self.dt}")
        if not self.wheelbase > 0:
            raise SimulationError(f"wheelbase must be > 0, got {self.wheelbase}")
        if self.n_beams < 1:
            raise SimulationError(f"n_beams must be >= 1, got {self.n_beams}")
        if not self.lidar_range_max > 0:
            raise SimulationError(f"lidar_range_max must be > 0, got {self.lidar_range_max}")
        for key in ("veh_length", "veh_width"):
            if not getattr(self, key) > 0:
                raise SimulationError(f"{key} must be > 0, got {getattr(self, key)}")
        for key in ("delta_max", "steer_rate_max", "a_max", "v_hard_max", "speed_gain"):
            if not getattr(self, key) >= 0:
                raise SimulationError(f"{key} must be >= 0, got {getattr(self, key)}")
        if not self.a_min <= 0:
            raise SimulationError(f"a_min must be <= 0, got {self.a_min}")


MAX_AGENTS = 2  # LiDAR, the ego expert and the car-car test see one other car


def _corners(pose, cfg: SimConfig) -> np.ndarray:
    """Footprint corners of a pose (x, y, theta, ...) of Python floats."""
    return _geom.obb_corners(pose[0], pose[1], pose[2], cfg.veh_length, cfg.veh_width)


def collision_events(track: TrackModel, poses: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Instantaneous collision events (B, A) of a (B, A, 5) pose batch
    (closed intersection: touching the boundary or the other vehicle counts).

    Broad phase: only segments whose midpoint lies within half the longest
    segment plus the rectangle's half-diagonal are tested, and the cars'
    rectangles only when their centres are within two half-diagonals;
    anything farther apart cannot touch. The midpoints sorted by x bound
    each agent's candidates to an x window, and the distance test runs
    over those windows for every agent of every row at once; the narrow
    phase, for the few agents it leaves, runs per agent. SimulationError
    for more than MAX_AGENTS agents, as the car-car test sees one pair.
    """
    n, n_agents = poses.shape[:2]
    if n_agents > MAX_AGENTS:
        raise SimulationError(f"{n_agents} agents; the simulation supports at most {MAX_AGENTS}")
    rect_half = 0.5 * math.hypot(cfg.veh_length, cfg.veh_width)
    reach = track.segment_half_max + rect_half + 1e-6
    flat = poses.reshape(-1, 5)
    order, mid_x, mid_y = track.midpoint_sweep
    # each agent's run [lo, hi) of midpoints in an x window wider than
    # reach, so that it keeps every midpoint the distance test keeps
    # whatever the rounding; all runs are read at the longest one's
    # length, and what lies past a run is farther than reach in x
    window = reach + 1e-6
    lo, hi = np.searchsorted(mid_x, flat[:, :1] + (-window, window)).T
    pos = lo[:, None] + np.arange((hi - lo).max(initial=0))
    dx = mid_x.take(pos, mode="clip") - flat[:, :1]
    dy = mid_y.take(pos, mode="clip") - flat[:, 1:2]
    near = dx * dx + dy * dy <= reach * reach                 # (B*A, run)
    hits = np.zeros(len(flat), dtype=bool)
    for k in np.flatnonzero(near.any(axis=1)):
        hits[k] = _geom.obb_hits_segments(_corners(flat[k].tolist(), cfg),
                                          track.boundary_segments[np.sort(order[pos[k, near[k]]])])
    hits = hits.reshape(n, n_agents)
    if n_agents == 2:
        # |dx| and |dy| bound the centre distance from below
        reach_car = 2.0 * rect_half + 1e-6
        gap = np.abs(poses[:, 0, :2] - poses[:, 1, :2])
        for b in np.flatnonzero((gap <= reach_car).all(axis=1)):
            pa, pb = poses[b].tolist()
            if (math.hypot(pa[0] - pb[0], pa[1] - pb[1]) <= reach_car
                    and _geom.obb_overlap(_corners(pa, cfg), _corners(pb, cfg))):
                hits[b] = True
    return hits


def _require_finite(poses: np.ndarray, when: str) -> None:
    """NonFiniteState naming the first row of poses (N, 5) that holds a NaN
    or an infinity."""
    finite = np.isfinite(poses).all(axis=1)
    if not finite.all():
        raise NonFiniteState(f"non-finite vehicle state (x, y, theta, v, delta) {when} "
                             f"update: {tuple(poses[~finite][0].tolist())}")


def step_frame(track: TrackModel, poses: np.ndarray, t: np.ndarray, collided: np.ndarray,
               cmds: np.ndarray, n_steps: int,
               cfg: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poses (n_steps, R, A, 5), times (n_steps, R) and latched collision
    flags (n_steps, R, A) after each of n_steps sim steps of R worlds at
    poses (R, A, 5), times t (R,) and flags collided (R, A), under held
    commands (R, A, 2) of v_cmd and delta_cmd; the inputs are not written.
    Each car's steps run in Python floats and t += dt once per step, then
    collision_events once over every step's poses. Raises NonFiniteState
    on the first non-finite pose in (step, car) order, the start included."""
    n, n_agents = poses.shape[:2]
    start = poses.reshape(-1, 5)
    _require_finite(start, "before")
    dt, max_step = cfg.dt, cfg.steer_rate_max * cfg.dt
    cars = []
    for (x, y, theta, v, delta), (v_cmd, delta_cmd) in zip(start.tolist(),
                                                            cmds.reshape(-1, 2).tolist()):
        delta_target = min(max(delta_cmd, -cfg.delta_max), cfg.delta_max)
        brake = v_cmd <= 0.0   # a non-positive speed command is an emergency brake
        steps = []
        try:
            for _ in range(n_steps):
                delta = delta + min(max(delta_target - delta, -max_step), max_step)
                a = (cfg.a_min if brake
                     else min(max(cfg.speed_gain * (v_cmd - v), cfg.a_min), cfg.a_max))
                x, y, theta, v = (x + v * math.cos(theta) * dt, y + v * math.sin(theta) * dt,
                                  theta + (v / cfg.wheelbase) * math.tan(delta) * dt,
                                  min(max(v + a * dt, 0.0), cfg.v_hard_max))
                steps.append((x, y, theta, v, delta))
        except ValueError:   # math's trig of an angle that overflowed to infinity
            steps += [(math.nan,) * 5] * (n_steps - len(steps))
        cars.append(steps)
    path = np.array(cars).reshape(-1, n_steps, 5).swapaxes(0, 1).reshape(n_steps, n, n_agents, 5)
    _require_finite(path.reshape(-1, 5), "after")
    times = np.empty((n_steps, n))
    for j in range(n_steps):
        t = times[j] = t + cfg.dt
    events = collision_events(track, path.reshape(-1, n_agents, 5), cfg)
    flags = np.logical_or.accumulate(events.reshape(n_steps, n, n_agents), axis=0)
    return path, times, flags | collided


def scan_batch(track: TrackModel, poses: np.ndarray, agent: int, cfg: SimConfig) -> np.ndarray:
    """Scans (B, n_beams) of one agent in each row of a (B, A, 5) pose
    batch; beam i at heading + i * (2*pi / n_beams).

    Each beam reports the nearest intersection with either boundary or
    the other agent's rectangle, capped at lidar_range_max. The raycast
    tests each segment only against the beams of the angular interval it
    subtends from the sensor (_geom.ray_hits), with the same floats as an
    all-pairs test.
    """
    segs = track.boundary_segments
    soup = np.broadcast_to(segs, (len(poses),) + segs.shape)
    if poses.shape[1] > 1:
        other = 1 - agent
        opp = np.array([_corners(p[other], cfg) for p in poses.tolist()])    # (B, 4, 2)
        opp_segs = np.stack([opp, np.roll(opp, -1, axis=1)], axis=2)
        soup = np.concatenate([soup, opp_segs], axis=1)
    return _geom.ray_hits(poses[:, agent, :2], poses[:, agent, 2], cfg.n_beams, soup,
                          cfg.lidar_range_max)


def apply_noise(scan: np.ndarray, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Zero out exactly floor(eta * n_beams) distinct beams, chosen
    uniformly without replacement. eta = 0 returns an unchanged copy."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    out = np.array(scan, dtype=float, copy=True)
    k = int(math.floor(eta * len(out)))
    if k > 0:
        idx = rng.choice(len(out), size=k, replace=False)
        out[idx] = 0.0
    return out


# ---------------------------------------------------------------------------
# episode trace export (debug / rendering)


@dataclass
class Trace:
    """Rollout observer that records one episode: per sim step, the start
    included, the time, the agents' (A, 5) poses and their (A,) collided
    flags. It never ends the episode."""

    times: list[float] = field(default_factory=list)
    poses: list[np.ndarray] = field(default_factory=list)
    collided: list[np.ndarray] = field(default_factory=list)

    def __call__(self, t: float, poses: np.ndarray, collided: np.ndarray, progress: float) -> bool:
        self.times.append(float(t))
        self.poses.append(poses.copy())
        self.collided.append(collided.copy())
        return False


TRACE_CSV_HEADER = ["t_s", "agent", "x_m", "y_m", "theta_rad", "v_mps", "delta_rad", "collided"]


def write_trace_csv(trace: Trace, path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_CSV_HEADER)
        for t, poses, flags in zip(trace.times, trace.poses, trace.collided):
            for i, (pose, c) in enumerate(zip(poses.tolist(), flags.tolist())):
                w.writerow([repr(float(t)), i, *map(repr, pose), int(c)])


def read_trace_csv(path) -> Trace:
    """The trace that write_trace_csv wrote to path; MalformedTrace if the
    file lacks a column, holds a value that does not parse, a non-finite
    time or pose, or lists a different number of agents at different
    times. A header alone is the empty trace."""
    steps: dict[float, list] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [k for k in TRACE_CSV_HEADER if k not in (reader.fieldnames or ())]
        if missing:
            raise MalformedTrace(f"{path}: no column {', '.join(missing)}")
        try:
            for row in reader:
                t, pose = float(row["t_s"]), [float(row[k]) for k in TRACE_CSV_HEADER[2:7]]
                if not np.isfinite([t, *pose]).all():
                    raise ValueError("non-finite time or pose")
                steps.setdefault(t, []).append(
                    (int(row["agent"]), pose, bool(int(row["collided"]))))
        except (TypeError, ValueError) as exc:
            raise MalformedTrace(f"{path}, line {reader.line_num}: {exc}") from None
    if len({len(entries) for entries in steps.values()}) > 1:
        raise MalformedTrace(f"{path}: the number of agents changes between time steps")
    trace = Trace()
    for t, entries in steps.items():
        entries.sort(key=lambda e: e[0])
        trace.times.append(t)
        trace.poses.append(np.array([e[1] for e in entries], dtype=float).reshape(-1, 5))
        trace.collided.append(np.array([e[2] for e in entries], dtype=bool))
    return trace
