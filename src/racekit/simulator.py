"""Deterministic 100 Hz simulation of one or two agents, one world or a
lockstep batch of worlds.

Kinematic single-track dynamics with a proportional speed tracker and
rate-limited steering, oriented-rectangle collision detection against the
track boundaries and the other agent, 360-beam LiDAR raycasting and
beam-dropout noise injection.

The vehicle reference point (state x, y) is the footprint center; rays
originate there and the collision rectangle is centered on it.

The kernels work on a `WorldBatch`: B worlds on one track whose agents'
states are rows of a (B, agents, 5) pose array. `advance`,
`collision_events`, `step_rows` and `scan_batch` step and sense the
chosen rows together, and each row gets the floats the one-world path
gives it: the same float operations per element, numpy's `cos`/`sin`
(which round as `math` does) and a per-element `math.tan`/`math.hypot`
where numpy's SIMD versions may round differently. The per-world API
(`WorldState`, `step`, `check_collision`, `scan_lidar`) is the batch of
one.
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


@dataclass(frozen=True)
class VehicleState:
    x: float
    y: float
    theta: float
    v: float
    delta: float = 0.0


@dataclass(frozen=True)
class VehicleCommand:
    v_cmd: float
    delta_cmd: float


MAX_AGENTS = 2  # LiDAR, the ego expert and the car-car test see one other car


@dataclass
class WorldState:
    track: TrackModel
    agents: list[VehicleState]
    t: float = 0.0
    collided: list[bool] = field(default_factory=list)

    def __post_init__(self):
        if len(self.agents) > MAX_AGENTS:
            raise SimulationError(
                f"{len(self.agents)} agents; the simulation supports at most {MAX_AGENTS}")
        if not self.collided:
            self.collided = [False] * len(self.agents)


@dataclass
class WorldBatch:
    """B worlds on one track, stepped in lockstep. poses (B, A, 5) holds
    each agent's x, y, theta, v and delta; t (B,) each world's time and
    collided (B, A) the latched contact flags."""

    track: TrackModel
    poses: np.ndarray
    t: np.ndarray
    collided: np.ndarray

    @classmethod
    def of(cls, worlds: list[WorldState]) -> "WorldBatch":
        """The batch of worlds that share one track and one agent count."""
        return cls(worlds[0].track, np.array([_poses(w.agents) for w in worlds]),
                   np.array([w.t for w in worlds], dtype=float),
                   np.array([w.collided for w in worlds], dtype=bool))

    def world(self, b: int) -> WorldState:
        """Row b as a WorldState of fresh VehicleStates."""
        return WorldState(self.track, [VehicleState(*p) for p in self.poses[b].tolist()],
                          float(self.t[b]), self.collided[b].tolist())


def _poses(agents: list[VehicleState]) -> np.ndarray:
    return np.array([(a.x, a.y, a.theta, a.v, a.delta) for a in agents], dtype=float).reshape(-1, 5)


def vehicle_corners(state: VehicleState, cfg: SimConfig) -> np.ndarray:
    return _corners((state.x, state.y, state.theta), cfg)


def _corners(pose, cfg: SimConfig) -> np.ndarray:
    """Footprint corners of a pose (x, y, theta, ...) of Python floats."""
    return _geom.obb_corners(pose[0], pose[1], pose[2], cfg.veh_length, cfg.veh_width)


def collision_events(track: TrackModel, poses: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Instantaneous collision events (B, A) of a (B, A, 5) pose batch
    (closed intersection: touching the boundary or the other vehicle counts).

    Broad phase: only segments whose midpoint lies within half the longest
    segment plus the rectangle's half-diagonal are tested, and the cars'
    rectangles only when their centres are within two half-diagonals;
    anything farther apart cannot touch. The broad phase runs over every
    agent of every row at once; the narrow phase, for the few agents it
    leaves, runs per agent.
    """
    n, n_agents = poses.shape[:2]
    rect_half = 0.5 * math.hypot(cfg.veh_length, cfg.veh_width)
    reach = track.segment_half_max + rect_half + 1e-6
    flat = poses.reshape(-1, 5)
    mids = track.segment_midpoints
    d2 = (mids[:, 0] - flat[:, :1]) ** 2 + (mids[:, 1] - flat[:, 1:2]) ** 2
    near = d2 <= reach * reach                              # (B*A, M)
    hits = np.zeros(len(flat), dtype=bool)
    for k in np.flatnonzero(near.any(axis=1)):
        hits[k] = _geom.obb_hits_segments(_corners(flat[k].tolist(), cfg),
                                          track.boundary_segments[near[k]])
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


def check_collision(world: WorldState, cfg: SimConfig) -> list[bool]:
    """Instantaneous collision events per agent of one world."""
    return collision_events(world.track, _poses(world.agents)[None], cfg)[0].tolist()


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
        state = VehicleState(*out[~np.isfinite(out).all(axis=1)][0].tolist())
        raise NonFiniteState(f"non-finite vehicle state after update: {state}")
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


def step(world: WorldState, commands: list[VehicleCommand], cfg: SimConfig) -> WorldState:
    """Advance one world by one dt; collision flags latch once set."""
    batch = WorldBatch.of([world])
    cmds = np.array([[(c.v_cmd, c.delta_cmd) for c in commands]], dtype=float)
    step_rows(batch, np.arange(1), cmds, cfg)
    return batch.world(0)


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


def scan_lidar(world: WorldState, agent: int, cfg: SimConfig) -> np.ndarray:
    """The range scan of one agent of one world (see scan_batch)."""
    return scan_batch(world.track, _poses(world.agents)[None], agent, cfg)[0]


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
    """Per-step world snapshots of one episode."""

    times: list[float] = field(default_factory=list)
    states: list[list[VehicleState]] = field(default_factory=list)
    collided: list[list[bool]] = field(default_factory=list)

    def append(self, world: WorldState) -> None:
        self.times.append(world.t)
        self.states.append(list(world.agents))
        self.collided.append(list(world.collided))

    @property
    def n_agents(self) -> int:
        return len(self.states[0]) if self.states else 0


TRACE_CSV_HEADER = ["t_s", "agent", "x_m", "y_m", "theta_rad", "v_mps", "delta_rad", "collided"]


def write_trace_csv(trace: Trace, path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_CSV_HEADER)
        for t, states, coll in zip(trace.times, trace.states, trace.collided):
            for i, (s, c) in enumerate(zip(states, coll)):
                w.writerow([repr(float(t)), i, repr(s.x), repr(s.y), repr(s.theta),
                            repr(s.v), repr(s.delta), int(c)])


def read_trace_csv(path) -> Trace:
    trace = Trace()
    by_time: dict[float, list] = {}
    order: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            t = float(row["t_s"])
            if t not in by_time:
                by_time[t] = []
                order.append(t)
            by_time[t].append((int(row["agent"]),
                               VehicleState(float(row["x_m"]), float(row["y_m"]),
                                            float(row["theta_rad"]), float(row["v_mps"]),
                                            float(row["delta_rad"])),
                               bool(int(row["collided"]))))
    for t in order:
        entries = sorted(by_time[t])
        trace.times.append(t)
        trace.states.append([e[1] for e in entries])
        trace.collided.append([e[2] for e in entries])
    return trace
