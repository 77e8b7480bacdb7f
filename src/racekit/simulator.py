"""Deterministic 100 Hz simulation of one or two agents.

Kinematic single-track dynamics with a proportional speed tracker and
rate-limited steering, oriented-rectangle collision detection against the
track boundaries and the other agent, 360-beam LiDAR raycasting and
beam-dropout noise injection.

The vehicle reference point (state x, y) is the footprint center; rays
originate there and the collision rectangle is centered on it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import _geom
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


def vehicle_corners(state: VehicleState, cfg: SimConfig) -> np.ndarray:
    return _geom.obb_corners(state.x, state.y, state.theta, cfg.veh_length, cfg.veh_width)


def _near_segment_mask(track: TrackModel, x: float, y: float, reach: float):
    mids = track.segment_midpoints
    d2 = (mids[:, 0] - x) ** 2 + (mids[:, 1] - y) ** 2
    return d2 <= reach * reach


def check_collision(world: WorldState, cfg: SimConfig) -> list[bool]:
    """Instantaneous collision events per agent (closed intersection:
    touching the boundary or the other vehicle counts).

    Broad phase: only segments whose midpoint lies within half the longest
    segment plus the rectangle's half-diagonal are tested, and the cars'
    rectangles only when their centres are within two half-diagonals;
    anything farther apart cannot touch.
    """
    track = world.track
    rect_half = 0.5 * math.hypot(cfg.veh_length, cfg.veh_width)
    reach = track.segment_half_max + rect_half + 1e-6
    corners = [vehicle_corners(a, cfg) for a in world.agents]
    hits = []
    for i, a in enumerate(world.agents):
        mask = _near_segment_mask(track, a.x, a.y, reach)
        hit = _geom.obb_hits_segments(corners[i], track.boundary_segments[mask])
        hits.append(hit)
    if len(world.agents) == 2:
        a, b = world.agents
        if (math.hypot(a.x - b.x, a.y - b.y) <= 2.0 * rect_half + 1e-6
                and _geom.obb_overlap(corners[0], corners[1])):
            hits[0] = hits[1] = True
    return hits


def _advance(state: VehicleState, cmd: VehicleCommand, cfg: SimConfig) -> VehicleState:
    delta_target = min(max(cmd.delta_cmd, -cfg.delta_max), cfg.delta_max)
    d_delta = delta_target - state.delta
    max_step = cfg.steer_rate_max * cfg.dt
    delta = state.delta + min(max(d_delta, -max_step), max_step)
    if cmd.v_cmd <= 0.0:
        a = cfg.a_min  # a non-positive speed command is an emergency brake
    else:
        a = min(max(cfg.speed_gain * (cmd.v_cmd - state.v), cfg.a_min), cfg.a_max)
    x = state.x + state.v * math.cos(state.theta) * cfg.dt
    y = state.y + state.v * math.sin(state.theta) * cfg.dt
    theta = state.theta + (state.v / cfg.wheelbase) * math.tan(delta) * cfg.dt
    v = min(max(state.v + a * cfg.dt, 0.0), cfg.v_hard_max)
    return VehicleState(x, y, theta, v, delta)


def step(world: WorldState, commands: list[VehicleCommand], cfg: SimConfig) -> WorldState:
    """Advance the world by one dt; collision flags latch once set."""
    agents = [_advance(s, c, cfg) for s, c in zip(world.agents, commands)]
    for s in agents:
        if not all(map(math.isfinite, (s.x, s.y, s.theta, s.v, s.delta))):
            raise NonFiniteState(f"non-finite vehicle state after update: {s}")
    new_world = WorldState(world.track, agents, world.t + cfg.dt, list(world.collided))
    events = check_collision(new_world, cfg)
    new_world.collided = [old or new for old, new in zip(world.collided, events)]
    return new_world


def scan_lidar(world: WorldState, agent: int, cfg: SimConfig) -> np.ndarray:
    """360-degree range scan: beam i at heading + i * (2*pi / n_beams).

    Each beam reports the nearest intersection with either boundary or
    the other agent's rectangle, capped at lidar_range_max. The raycast
    tests each segment only against the beams of the angular interval it
    subtends from the sensor (_geom.ray_hits), with the same floats as an
    all-pairs test.
    """
    s = world.agents[agent]
    segments = world.track.boundary_segments
    others = [a for i, a in enumerate(world.agents) if i != agent]
    if others:
        opp = vehicle_corners(others[0], cfg)
        opp_segs = np.stack([opp, np.roll(opp, -1, axis=0)], axis=1)
        segments = np.concatenate([segments, opp_segs])
    return _geom.ray_hits((s.x, s.y), s.theta, cfg.n_beams, segments, cfg.lidar_range_max)


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
    with open(path, "w", newline="") as fh:
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
