"""Closed-loop evaluation suites and rendering.

Four experiment families: single-agent laps (speed/lap statistics until a
lap target, collision, or timeout), head-to-head scenario pools (outcome
counts and overtake/safety rates), beam-dropout noise sweeps over either
suite, and a single-step inference latency benchmark. The closed-loop
suites run on the scenario module's episode engine: single-agent laps are
one `rollout` of a leaderless scenario with a `LapTimer` observer (and any
further observers, such as a `simulator.Trace` to render), each called as
obs(t, poses (A, 5), collided (A,), ego progress) -> bool at the start
and after every sim step, and a
head-to-head pool counts the outcomes of one `rollout_many` stream as
they arrive, holding no pool's records; serial or pooled, its chunks step
in lockstep. The policy steps each chunk as one batch through
`policy.forward`, the one policy step, which the latency benchmark's
`InferenceSession.step` also runs: a chunk's rows are the rows of one
GEMM per product, and a chunk of one (a single-agent run, or a pool's
lone last scenario) computes what a float64 session step does, bit for
bit. `render_episode` draws a trace's poses, or the bare track, and is
the one caller of `xml.etree`, which it imports itself. Reports
serialize to JSON and CSV with stable formatting so equal-seed runs are
byte-identical.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import _geom
from . import simulator as rsim
from ._atomic import atomic_open
from .policy import InferenceSession, PolicyConfig, PolicyParameters, encode_inputs, forward
from .scenario import (LapTimer, Observer, Outcome, RaceEnvironment, Scenario, rollout,
                       rollout_many)
from .seeding import rng_for, sub_seed
from .simulator import SimConfig, Trace


@dataclass
class SingleAgentReport:
    track_id: str
    mean_speed: float
    speed_variance: float
    mean_laptime: float | None
    laptime_variance: float | None
    laps_completed: float
    collided: bool
    noise_eta: float = 0.0

    def to_dict(self):
        return asdict(self)


@dataclass
class H2HReport:
    car_following: int
    overtaking: int
    collision: int
    noise_eta: float = 0.0

    @property
    def n(self) -> int:
        return self.car_following + self.overtaking + self.collision

    @property
    def overtake_rate(self) -> float:
        return 100.0 * self.overtaking / self.n

    @property
    def safety_rate(self) -> float:
        return 100.0 * (self.n - self.collision) / self.n

    def to_dict(self):
        d = asdict(self)
        d["n"] = self.n
        d["overtake_rate"] = self.overtake_rate
        d["safety_rate"] = self.safety_rate
        return d


@dataclass
class NoiseSweepReport:
    eta_levels: list[float]
    single: list[SingleAgentReport] = field(default_factory=list)
    h2h: list[H2HReport] = field(default_factory=list)

    def to_dict(self):
        return {
            "eta_levels": self.eta_levels,
            "single": [r.to_dict() for r in self.single],
            "h2h": [r.to_dict() for r in self.h2h],
        }


@dataclass
class LatencyReport:
    median_ms: float
    p99_ms: float
    max_ms: float
    samples: int
    precision: str
    input_dim: int
    hidden_dim: int

    def to_dict(self):
        return asdict(self)


class PolicySource:
    """A trained policy as a 10 Hz action source with optional beam dropout.

    `act` steps the whole chunk that `reset` started as one batch of B
    rows, B fixed for the chunk: each running row applies beam dropout
    from its own stream, rng_for(sub_seed(noise_seed, stage), f"noise:{id}")
    with stage the noise_stage with "{id}" replaced by the scenario id,
    and then all B rows go through one `policy.forward` step, one GEMM
    per product, in double precision. Hidden states are zero at episode
    start; a row whose episode has ended keeps stepping on its last input,
    so a row's floats depend neither on when its chunk-mates end nor on
    the worker count. A chunk of one computes what a float64
    `InferenceSession.step` does, bit for bit.
    """

    def __init__(self, params: PolicyParameters, cfg: PolicyConfig,
                 noise_eta: float = 0.0, noise_seed: int = 0,
                 noise_stage: str = "h2h-noise:{id}"):
        self.params = params
        self.cfg = cfg
        self.noise_eta = noise_eta
        self.noise_seed = noise_seed
        self.noise_stage = noise_stage
        self._x = self._h = None
        self._rng: list = []

    def reset(self, scenarios, env):
        self._x = np.zeros((len(scenarios), self.cfg.input_dim))
        self._h = np.zeros((len(scenarios), self.cfg.hidden_dim))
        self._rng = [rng_for(sub_seed(self.noise_seed, self.noise_stage.replace("{id}", sc.id)),
                             f"noise:{sc.id}") for sc in scenarios]

    def act(self, rows, poses, scans):
        if self.noise_eta > 0.0:
            scans = [rsim.apply_noise(scan, self.noise_eta, self._rng[b])
                     for scan, b in zip(scans, rows)]
        self._x[rows] = encode_inputs(scans, poses[:, 0, 3], self.params, self.cfg)
        action, self._h = forward(self._x, self._h, self.params)
        return action[rows]


def run_single_agent(params: PolicyParameters, policy_cfg: PolicyConfig,
                     env: RaceEnvironment, laps_target: int = 10, noise_eta: float = 0.0,
                     seed: int = 0, timeout_s: float | None = None,
                     observers: Sequence[Observer] = ()) -> SingleAgentReport:
    """Policy alone at 10 Hz on a 100 Hz world, from the start of the
    center raceline, until laps_target laps, collision, or timeout;
    observers watch the episode beside the lap timer. Speed statistics
    sample every sim step; lap times interpolate the crossing instant
    inside the crossing step."""
    length = env.track.total_length
    if timeout_s is None:
        timeout_s = laps_target * length + 60.0
    scenario = Scenario(id="single", ego_raceline="center", ego_s=0.0, seed=seed)
    source = PolicySource(params, policy_cfg, noise_eta, seed, noise_stage="single-noise")
    timer = LapTimer(length, env.sim.dt, laps_target)
    record = rollout(scenario, source, env, duration=timeout_s, observers=[timer, *observers])
    per_lap = np.diff(np.concatenate([[0.0], timer.lap_times]))
    speeds = np.asarray(timer.speeds)
    report = SingleAgentReport(
        track_id=scenario.ego_raceline,
        mean_speed=float(speeds.mean()) if len(speeds) else 0.0,
        speed_variance=float(speeds.var()) if len(speeds) else 0.0,
        mean_laptime=float(per_lap.mean()) if len(per_lap) else None,
        laptime_variance=float(per_lap.var()) if len(per_lap) else None,
        laps_completed=timer.laps,
        collided=record.outcome == Outcome.COLLISION,
        noise_eta=noise_eta)
    return report


def run_h2h(params: PolicyParameters, policy_cfg: PolicyConfig,
            scenarios: list[Scenario], env: RaceEnvironment,
            noise_eta: float = 0.0, seed: int = 0,
            duration: float = 8.0, workers: int = 1) -> H2HReport:
    """Roll the policy as ego against the expert leader over a scenario
    pool on `workers` processes; returns the outcome counts."""
    source = PolicySource(params, policy_cfg, noise_eta, seed)
    counts = Counter(r.outcome for r in rollout_many(scenarios, source, env, duration, workers))
    return H2HReport(*(counts[k] for k in Outcome.ALL), noise_eta=noise_eta)


def run_noise_sweep(params: PolicyParameters, policy_cfg: PolicyConfig,
                    env: RaceEnvironment, eta_levels: list[float],
                    seed: int = 0, mode: str = "single",
                    scenarios: list[Scenario] | None = None,
                    laps_target: int = 3,
                    timeout_s: float | None = None,
                    duration: float = 8.0, workers: int = 1) -> NoiseSweepReport:
    levels = sorted(eta_levels)
    report = NoiseSweepReport(eta_levels=list(levels))
    for eta in levels:
        if mode in ("single", "both"):
            single = run_single_agent(
                params, policy_cfg, env, laps_target=laps_target,
                noise_eta=eta, seed=sub_seed(seed, f"sweep:{eta}"),
                timeout_s=timeout_s)
            report.single.append(single)
        if mode in ("h2h", "both"):
            if scenarios is None:
                raise ValueError("h2h sweep needs scenarios")
            report.h2h.append(run_h2h(params, policy_cfg, scenarios, env,
                                      noise_eta=eta, seed=sub_seed(seed, f"sweep:{eta}"),
                                      duration=duration, workers=workers))
    return report


def bench_latency(params: PolicyParameters, cfg: PolicyConfig,
                  n_samples: int = 10000, warmup: int = 100,
                  precision: str = "float32", seed: int = 0) -> LatencyReport:
    """Time single-observation forward steps on randomized scans.

    The first `warmup` iterations are discarded; the hidden state streams
    through the whole run like a deployment loop."""
    dtype = np.float32 if precision == "float32" else np.float64
    session = InferenceSession(params, cfg, dtype=dtype)
    rng = rng_for(seed, "latency")
    scans = rng.uniform(0.0, 30.0, (256, cfg.n_beams))
    vs = rng.uniform(0.0, 8.0, 256)
    h = session.zero_hidden()
    times = np.empty(n_samples)
    for i in range(warmup):
        _, h = session.step(scans[i % 256], vs[i % 256], h)
    for i in range(n_samples):
        t0 = time.perf_counter_ns()
        _, h = session.step(scans[i % 256], vs[i % 256], h)
        times[i] = time.perf_counter_ns() - t0
    ms = times / 1e6
    return LatencyReport(
        median_ms=float(np.median(ms)),
        p99_ms=float(np.percentile(ms, 99)),
        max_ms=float(ms.max()),
        samples=n_samples,
        precision=precision,
        input_dim=cfg.input_dim,
        hidden_dim=cfg.hidden_dim)


# ---------------------------------------------------------------------------
# SVG rendering

EGO_COLOR = "#1f77b4"     # ego drawn blue
LEADER_COLOR = "#d62728"  # leader drawn red


def _transform(pts, bounds, scale, pad):
    (xmin, _, ymax, _) = bounds
    pts = np.atleast_2d(pts)
    out = np.empty_like(pts, dtype=float)
    out[:, 0] = (pts[:, 0] - xmin) * scale + pad
    out[:, 1] = (ymax - pts[:, 1]) * scale + pad
    return out


def render_episode(trace: Trace | None, track, outcome: str | None = None,
                   sim_cfg: SimConfig = SimConfig()) -> str:
    """Draw boundaries, color-coded trajectories, vehicle footprints
    (sim_cfg's vehicle size) every 0.5 s and the outcome label into a
    standalone SVG document 900 px wide. Without a trace only the
    boundaries are drawn."""
    import xml.etree.ElementTree as ET   # only the commands that draw load it

    if trace is not None and not trace.times:
        raise ValueError("empty trace")
    allpts = np.vstack([track.inner_boundary, track.outer_boundary])
    xmin, ymin = allpts.min(axis=0) - 1.0
    xmax, ymax = allpts.max(axis=0) + 1.0
    width_px, pad = 900, 10.0
    scale = (width_px - 2 * pad) / (xmax - xmin)
    height_px = int((ymax - ymin) * scale + 2 * pad)
    bounds = (xmin, xmax, ymax, ymin)

    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(width_px), height=str(height_px),
                     viewBox=f"0 0 {width_px} {height_px}")
    ET.SubElement(svg, "rect", x="0", y="0", width=str(width_px),
                  height=str(height_px), fill="white")

    def poly(points, color, w="1.5", closed=True):
        pts = _transform(points, bounds, scale, pad)
        if closed:
            pts = np.vstack([pts, pts[:1]])
        ET.SubElement(svg, "polyline", points=" ".join(f"{x:.2f},{y:.2f}" for x, y in pts),
                      fill="none", stroke=color, **{"stroke-width": w})

    poly(track.inner_boundary, "#333333")
    poly(track.outer_boundary, "#333333")
    if trace is not None:
        poses = np.array(trace.poses)                   # (T, A, 5)
        colors = [EGO_COLOR, LEADER_COLOR]
        for a in range(poses.shape[1]):
            poly(poses[:, a, :2], colors[a % 2], w="1.2", closed=False)
        dt = trace.times[1] - trace.times[0] if len(trace.times) > 1 else 1.0
        stride = max(1, int(round(0.5 / dt)))
        for a in range(poses.shape[1]):
            for pose in poses[::stride, a].tolist():
                corners = _geom.obb_corners(*pose[:3], sim_cfg.veh_length, sim_cfg.veh_width)
                pts = _transform(corners, bounds, scale, pad)
                ET.SubElement(svg, "polygon",
                              points=" ".join(f"{x:.2f},{y:.2f}" for x, y in pts),
                              fill=colors[a % 2], **{"fill-opacity": "0.25",
                                                     "stroke": colors[a % 2],
                                                     "stroke-width": "0.5"})
        # mark the final pose of a collision episode
        if outcome == Outcome.COLLISION:
            c = _transform(poses[-1, 0, :2], bounds, scale, pad)[0]
            ET.SubElement(svg, "circle", cx=f"{c[0]:.2f}", cy=f"{c[1]:.2f}", r="6",
                          fill="none", stroke="#000000", **{"stroke-width": "2"})
    if outcome:
        label = ET.SubElement(svg, "text", x=str(pad + 4), y=str(pad + 14),
                              fill="#000000", **{"font-size": "14",
                                                 "font-family": "sans-serif"})
        label.text = outcome
    return ET.tostring(svg, encoding="unicode")


# ---------------------------------------------------------------------------
# report serialization (stable bytes for equal seeds)


def report_json(report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


SINGLE_CSV_HEADER = ("Track,Mean Speed (m/s),Speed Variance ((m/s)^2),"
                     "Mean LapTime (s),LapTime Variance (s^2),Laps Completed")
H2H_CSV_HEADER = ("Pool,Car Following,Overtaking,Collision,"
                  "Overtake Rate (%),Safety Rate (%)")


def single_csv_row(label: str, r: SingleAgentReport) -> str:
    lap = "-" if r.mean_laptime is None else f"{r.mean_laptime:.2f}"
    lap_var = "-" if r.laptime_variance is None else f"{r.laptime_variance:.2f}"
    return (f"{label},{r.mean_speed:.2f},{r.speed_variance:.2f},"
            f"{lap},{lap_var},{r.laps_completed:.1f}")


def h2h_csv_row(label: str, r: H2HReport) -> str:
    return (f"{label},{r.car_following},{r.overtaking},{r.collision},"
            f"{r.overtake_rate:.1f},{r.safety_rate:.1f}")


def write_single_csv(reports: list[tuple[str, SingleAgentReport]], path) -> None:
    with atomic_open(path) as fh:
        fh.write(SINGLE_CSV_HEADER + "\n")
        for label, r in reports:
            fh.write(single_csv_row(label, r) + "\n")


def write_h2h_csv(reports: list[tuple[str, H2HReport]], path) -> None:
    with atomic_open(path) as fh:
        fh.write(H2H_CSV_HEADER + "\n")
        for label, r in reports:
            fh.write(h2h_csv_row(label, r) + "\n")
