"""Deterministic 100 Hz simulation of one or two agents in a lockstep
batch of worlds.

Kinematic single-track dynamics with a proportional speed tracker and
rate-limited steering, oriented-rectangle collision detection against the
track boundaries and the other agent, 360-beam LiDAR raycasting and
beam-dropout noise injection.

An agent's state is a pose row (x, y, theta, v, delta); the reference
point (x, y) is the footprint center, rays originate there and the
collision rectangle is centered on it. A `WorldBatch` holds B worlds on
one track as a (B, agents, 5) pose array. `advance`, `collision_events`,
`step_rows` and `scan_batch` step and sense any subset of its rows
together, and each row gets the floats it would get alone: the same float
operations per element, numpy's `cos`/`sin` (which round as `math` does)
and a per-element `math.tan`/`math.hypot` where numpy's SIMD versions may
round differently. A `Trace` records one row's poses per sim step, for
the trace CSV and rendering.
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
        if self.n_beams < 1:
            raise SimulationError(f"n_beams must be >= 1, got {self.n_beams}")
        if not self.lidar_range_max > 0:
            raise SimulationError(f"lidar_range_max must be > 0, got {self.lidar_range_max}")


MAX_AGENTS = 2  # LiDAR, the ego expert and the car-car test see one other car


@dataclass
class WorldBatch:
    """B worlds on one track, stepped in lockstep. poses (B, A, 5) holds
    each agent's x, y, theta, v and delta; t (B,) each world's time and
    collided (B, A) the latched contact flags."""

    track: TrackModel
    poses: np.ndarray
    t: np.ndarray
    collided: np.ndarray

    def __post_init__(self):
        if self.poses.shape[1] > MAX_AGENTS:
            raise SimulationError(f"{self.poses.shape[1]} agents; the simulation supports "
                                  f"at most {MAX_AGENTS}")


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
    phase, for the few agents it leaves, runs per agent.
    """
    n, n_agents = poses.shape[:2]
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


def _clamp(x, lo: float, hi: float):
    """min(max(x, lo), hi) per element as the builtins compute it. They
    keep their first argument on a tie, so a -0.0 survives a 0.0 bound,
    where np.maximum may return the bound; np.maximum and np.minimum agree
    with them whenever neither bound is zero."""
    if lo != 0.0 and hi != 0.0:
        return np.minimum(np.maximum(x, lo), hi)
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def advance(poses: np.ndarray, cmds: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Poses (N, 5) one dt later under commands (N, 2) of v_cmd and
    delta_cmd. Raises NonFiniteState if any row leaves the finite range."""
    x, y, theta, v, delta = poses.T
    v_cmd, delta_cmd = cmds.T
    delta_target = _clamp(delta_cmd, -cfg.delta_max, cfg.delta_max)
    max_step = cfg.steer_rate_max * cfg.dt
    delta = delta + _clamp(delta_target - delta, -max_step, max_step)
    # a non-positive speed command is an emergency brake
    a = np.where(v_cmd <= 0.0, cfg.a_min,
                 _clamp(cfg.speed_gain * (v_cmd - v), cfg.a_min, cfg.a_max))
    tan = np.array([math.tan(d) for d in delta.tolist()])
    out = np.stack([x + v * np.cos(theta) * cfg.dt,
                    y + v * np.sin(theta) * cfg.dt,
                    theta + (v / cfg.wheelbase) * tan * cfg.dt,
                    _clamp(v + a * cfg.dt, 0.0, cfg.v_hard_max),
                    delta], axis=-1)
    if not np.isfinite(out).all():
        pose = tuple(out[~np.isfinite(out).all(axis=1)][0].tolist())
        raise NonFiniteState(f"non-finite vehicle state (x, y, theta, v, delta) after "
                             f"update: {pose}")
    return out


def step_rows(world: WorldBatch, rows: np.ndarray, cmds: np.ndarray, cfg: SimConfig) -> None:
    """Advance the given rows of the batch by one dt in place under
    commands (len(rows), A, 2); collision flags latch once set."""
    n_agents = world.poses.shape[1]
    new = advance(world.poses[rows].reshape(-1, 5), cmds.reshape(-1, 2), cfg)
    new = new.reshape(len(rows), n_agents, 5)
    world.poses[rows] = new
    world.t[rows] += cfg.dt
    world.collided[rows] |= collision_events(world.track, new, cfg)


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

    def __call__(self, world: WorldBatch, row: int, progress: float) -> bool:
        self.times.append(float(world.t[row]))
        self.poses.append(world.poses[row].copy())
        self.collided.append(world.collided[row].copy())
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
