"""Overtaking scenario generation, the episode engine, and dataset assembly.

A scenario spawns the ego on one raceline and, when it names one, a
non-reactive leader a fixed arc distance ahead on its own raceline, both
at flying-start speeds. Every closed-loop episode in the kit - expert
collection, head-to-head evaluation, single-agent laps - runs through one
loop, `rollout`: the simulation steps at 100 Hz, the ego's action source
is queried at 10 Hz with commands held in between, and a frame (raw scan,
ego speed, issued action) is recorded at every query instant. An optional
observer sees the world and the ego's unwrapped progress after every sim
step and may end the episode; `LapTimer` is the observer of the lap
harnesses. Episodes terminate on collision, on the observer's word or at
the time limit, and are classified CarFollowing / Overtaking / Collision
by unwrapped centerline progress; `ProgressTracker` projects each agent
onto the centerline every sim step, inside an arc window around its last
progress, through the track's cached segment table
(`TrackModel.segment_table`). `rollout_many` is the one pooled runner: it
rolls a scenario pool in order, serially or across worker processes.
Collision episodes are filtered out of the training dataset (they remain
valid for evaluation). Episode and dataset files are written atomically.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from . import _geom
from . import expert as rexpert
from . import simulator as rsim
from ._atomic import atomic_open
from .expert import ExpertConfig, Role
from .seeding import sub_seed
from .simulator import SimConfig, Trace, VehicleCommand, VehicleState, WorldState
from .track import Raceline, SpeedConfig, TrackModel, generate_raceline


class ScenarioError(Exception):
    pass


class NoValidSpawn(ScenarioError):
    pass


class EmptyDataset(ScenarioError):
    pass


class Outcome:
    CAR_FOLLOWING = "CarFollowing"
    OVERTAKING = "Overtaking"
    COLLISION = "Collision"
    ALL = (CAR_FOLLOWING, OVERTAKING, COLLISION)


FRAME_HZ = 10.0
LEGACY_N_BEAMS = 360  # beams per frame of an episode header without "n_beams"


@dataclass(frozen=True)
class ScenarioConfig:
    ego_racelines: tuple[str, ...] = ("center",)
    leader_racelines: tuple[str, ...] = ("center",)
    k_positions: int = 100
    d_gap: float = 3.0            # initial leader lead along its raceline, m
    duration: float = 8.0
    seed: int = 0
    spawn_phase: float = 0.0      # fraction of one spacing; shifts every spawn

    def __post_init__(self):
        if self.k_positions < 1:
            raise ScenarioError("k_positions must be >= 1")
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")


@dataclass(frozen=True)
class Scenario:
    """One episode's start: the ego's raceline and arc position and, when
    leader_raceline is set, the leader's; without one the ego runs alone."""

    id: str
    ego_raceline: str
    ego_s: float
    seed: int
    leader_raceline: str | None = None
    leader_s: float = 0.0


@dataclass
class EpisodeRecord:
    scenario_id: str
    seed: int
    scans: np.ndarray        # (T, n_beams) float32, raw ranges
    ego_v: np.ndarray        # (T,) float32
    actions: np.ndarray      # (T, 2) float32: v_cmd, delta_cmd
    outcome: str
    duration_actual: float
    ego_progress: float = 0.0      # unwrapped centerline arc at episode end
    leader_progress: float = 0.0

    @property
    def n_frames(self) -> int:
        return len(self.scans)


@dataclass
class Dataset:
    episodes: list[EpisodeRecord]
    pool_counts: dict[str, int]
    total_samples: int


@dataclass(frozen=True)
class RaceEnvironment:
    """Immutable bundle of everything a rollout needs."""

    track: TrackModel
    racelines: dict[str, Raceline]
    sim: SimConfig
    expert: ExpertConfig

    @classmethod
    def build(cls, track: TrackModel, sim: SimConfig = SimConfig(),
              expert_cfg: ExpertConfig = ExpertConfig(),
              speed: SpeedConfig = SpeedConfig(),
              raceline_ids: tuple[str, ...] = ("left", "center", "right")):
        racelines = {rid: generate_raceline(track, rid, speed) for rid in raceline_ids}
        return cls(track=track, racelines=racelines, sim=sim, expert=expert_cfg)


class ActionSource(Protocol):
    """Queried at 10 Hz; the returned command is held until the next query."""

    def reset(self, scenario: Scenario, env: RaceEnvironment) -> None: ...

    def act(self, world: WorldState, agent: int, scan: np.ndarray) -> VehicleCommand: ...


class ExpertSource:
    """The lattice expert on the scenario's ego raceline as an ego action
    source (ignores the scan)."""

    def reset(self, scenario, env):
        self._raceline = env.racelines[scenario.ego_raceline]
        self._cfg = env.expert

    def act(self, world, agent, scan):
        return rexpert.expert_action(world, agent, Role.EGO, self._raceline, self._cfg)


def _spawn_state(raceline: Raceline, s: float, v_scale: float = 1.0) -> VehicleState:
    pos = raceline.position_at(s)
    return VehicleState(float(pos[0]), float(pos[1]), float(raceline.heading_at(s)),
                        float(raceline.v_ref_at(s)) * v_scale, 0.0)


def start_world(scenario: Scenario, env: RaceEnvironment) -> WorldState:
    """The t=0 world: the ego at its raceline's reference speed and, if the
    scenario has one, the leader at its discounted reference speed."""
    agents = [_spawn_state(env.racelines[scenario.ego_raceline], scenario.ego_s)]
    if scenario.leader_raceline is not None:
        agents.append(_spawn_state(env.racelines[scenario.leader_raceline], scenario.leader_s,
                                   env.expert.leader_speed_discount))
    return WorldState(env.track, agents)


class ProgressTracker:
    """Unwrapped arc progress along the track centerline.

    Projections are windowed around the last known progress; updates must
    be frequent relative to the window (true at the sim rate)."""

    WINDOW = 6.0  # meters of centerline searched on each side of the last position

    def __init__(self, track: TrackModel, start_hint: float):
        self.track = track
        self.progress = float(start_hint)
        self._length = track.total_length
        self._arc_table = track.arc_table
        self._segments = track.segment_table

    def update(self, x: float, y: float) -> float:
        window = _geom.arc_window(self._arc_table, self.progress, self.WINDOW)
        s, _, _ = _geom.project_to_polyline((x, y), self._segments, seg_idx=window)
        delta = (float(s[0]) - self.progress) % self._length
        if delta > self._length / 2:
            delta -= self._length
        self.progress += delta
        return self.progress


def enumerate_scenarios(cfg: ScenarioConfig, env: RaceEnvironment) -> tuple[list[Scenario], int]:
    """Spawn grid: k evenly spaced ego arc positions per raceline pair, the
    leader d_gap further along its own raceline. Returns the scenarios and
    the number of spawns skipped because they start in contact."""
    used = set(cfg.ego_racelines) | set(cfg.leader_racelines)
    min_len = min(env.racelines[r].length for r in used)
    if cfg.d_gap >= min_len:
        raise ScenarioError(f"d_gap {cfg.d_gap} exceeds raceline length {min_len:.1f}")
    if cfg.d_gap <= env.sim.veh_length:
        raise ScenarioError("d_gap must exceed one vehicle length")
    scenarios = []
    skipped = 0
    for ego_rid in cfg.ego_racelines:
        ego_rl = env.racelines[ego_rid]
        for leader_rid in cfg.leader_racelines:
            leader_rl = env.racelines[leader_rid]
            for i in range(cfg.k_positions):
                s_e = ((i + cfg.spawn_phase) * ego_rl.length / cfg.k_positions) % ego_rl.length
                s_l = (s_e + cfg.d_gap) % leader_rl.length
                sid = f"{ego_rid}:{leader_rid}:{i:04d}"
                scenario = Scenario(
                    id=sid, ego_raceline=ego_rid, ego_s=float(s_e),
                    seed=sub_seed(cfg.seed, f"scenario:{sid}"),
                    leader_raceline=leader_rid, leader_s=float(s_l))
                if any(rsim.check_collision(start_world(scenario, env), env.sim)):
                    skipped += 1
                    continue
                scenarios.append(scenario)
    if not scenarios:
        raise NoValidSpawn(f"all {skipped} spawn candidates collide at t=0")
    return scenarios, skipped


def classify_outcome(ego_progress: float, leader_progress: float,
                     ego_collided: bool, leader_collided: bool) -> str:
    """Collision dominates; otherwise strict progress dominance means an
    overtake and anything else (ties included) is car-following."""
    if ego_collided or leader_collided:
        return Outcome.COLLISION
    if ego_progress > leader_progress:
        return Outcome.OVERTAKING
    return Outcome.CAR_FOLLOWING


class LapTimer:
    """Rollout observer of the lap harnesses.

    Samples the ego speed after every sim step, times each lap crossing
    by interpolating the crossing instant inside the crossing step, and
    ends the episode once the ego has covered laps_target laps."""

    def __init__(self, length: float, dt: float, laps_target: float):
        self.length = length
        self.dt = dt
        self.laps_target = laps_target
        self.speeds: list[float] = []
        self.lap_times: list[float] = []
        self._start = self._last = None

    def __call__(self, world: WorldState, progress: float) -> bool:
        if self._start is None:  # the start world
            self._start = self._last = progress
            return False
        self.speeds.append(world.agents[0].v)
        covered, step = progress - self._start, progress - self._last
        while covered >= (len(self.lap_times) + 1) * self.length:
            over = covered - (len(self.lap_times) + 1) * self.length
            frac = over / step if step > 0 else 0.0
            self.lap_times.append(world.t - frac * self.dt)
        self._last = progress
        return self.done

    @property
    def done(self) -> bool:
        return self._last - self._start >= self.laps_target * self.length

    @property
    def laps(self) -> float:
        """Laps covered, capped at laps_target."""
        if self.done:
            return float(self.laps_target)
        return (self._last - self._start) / self.length


def rollout(scenario: Scenario, ego_source: ActionSource, env: RaceEnvironment,
            duration: float = 8.0, record_trace: bool = False,
            observer: Callable[[WorldState, float], bool] | None = None,
            ) -> tuple[EpisodeRecord, Trace | None]:
    """Run one scenario at the sim rate with 10 Hz action queries.

    Frames are recorded at the query instants before stepping, so an episode
    that collides mid-interval keeps every frame up to and including the
    interval it died in. The observer, if any, is called with the start
    world and then after every sim step with the world and the ego's
    unwrapped centerline progress; a true return ends the episode."""
    sim_cfg = env.sim
    world = start_world(scenario, env)
    ego_source.reset(scenario, env)
    hints = [scenario.ego_s]
    leader_rl = None
    if scenario.leader_raceline is not None:
        leader_rl = env.racelines[scenario.leader_raceline]
        lead = (scenario.leader_s - scenario.ego_s) % env.track.total_length
        hints.append(scenario.ego_s + lead)
    trackers = [ProgressTracker(env.track, hint) for hint in hints]
    progress = [t.update(a.x, a.y) for t, a in zip(trackers, world.agents)]

    steps_per_frame = max(1, int(round(1.0 / (FRAME_HZ * sim_cfg.dt))))
    max_frames = int(round(duration * FRAME_HZ))
    scans, speeds, actions = [], [], []
    trace = Trace() if record_trace else None
    if trace is not None:
        trace.append(world)

    done = observer is not None and observer(world, progress[0])
    for _ in range(max_frames):
        if done:
            break
        scan = rsim.scan_lidar(world, 0, sim_cfg)
        ego_cmd = ego_source.act(world, 0, scan)
        scans.append(np.asarray(scan, dtype=np.float32))
        speeds.append(np.float32(world.agents[0].v))
        actions.append(np.array([ego_cmd.v_cmd, ego_cmd.delta_cmd], dtype=np.float32))
        cmds = [ego_cmd]
        if leader_rl is not None:
            cmds.append(rexpert.expert_action(world, 1, Role.LEADER, leader_rl, env.expert))
        for _ in range(steps_per_frame):
            world = rsim.step(world, cmds, sim_cfg)
            progress = [t.update(a.x, a.y) for t, a in zip(trackers, world.agents)]
            if trace is not None:
                trace.append(world)
            stop = observer is not None and observer(world, progress[0])
            if stop or any(world.collided):
                done = True
                break

    leader_prog = progress[1] if len(progress) > 1 else float("-inf")
    outcome = classify_outcome(progress[0], leader_prog, world.collided[0],
                               any(world.collided[1:]))
    record = EpisodeRecord(
        scenario_id=scenario.id, seed=scenario.seed,
        scans=np.stack(scans) if scans else np.zeros((0, sim_cfg.n_beams), dtype=np.float32),
        ego_v=np.asarray(speeds, dtype=np.float32),
        actions=np.stack(actions) if actions else np.zeros((0, 2), dtype=np.float32),
        outcome=outcome, duration_actual=float(world.t),
        ego_progress=float(progress[0]), leader_progress=float(leader_prog))
    return record, trace


# One pooled runner. Each worker receives the action source and the
# environment once, through the initializer (a default-size policy is
# tens of MB); a task carries only its scenario.
_WORKER: dict = {}


def _init_worker(source: ActionSource, env: RaceEnvironment, duration: float) -> None:
    _WORKER.update(source=source, env=env, duration=duration)


def _rollout_in_worker(scenario: Scenario) -> EpisodeRecord:
    return rollout(scenario, _WORKER["source"], _WORKER["env"], _WORKER["duration"])[0]


def rollout_many(scenarios: list[Scenario], source: ActionSource, env: RaceEnvironment,
                 duration: float, workers: int = 1) -> list[EpisodeRecord]:
    """Roll every scenario with the same action source, reset per episode;
    records come back in scenario order and equal for any worker count."""
    if workers <= 1:
        return [rollout(sc, source, env, duration)[0] for sc in scenarios]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(source, env, duration)) as pool:
        return list(pool.map(_rollout_in_worker, scenarios, chunksize=4))


def build_dataset(episodes: list[EpisodeRecord]) -> Dataset:
    """Drop collision episodes; report source-pool outcome counts."""
    counts = {k: 0 for k in Outcome.ALL}
    kept = []
    for ep in episodes:
        counts[ep.outcome] += 1
        if ep.outcome != Outcome.COLLISION:
            kept.append(ep)
    if not kept:
        raise EmptyDataset("every episode in the pool ended in a collision")
    total = sum(ep.n_frames for ep in kept)
    return Dataset(episodes=kept, pool_counts=counts, total_samples=total)


# ---------------------------------------------------------------------------
# episode store: one file per episode, JSON header line + float32 frames of
# n_beams ranges, ego_v, v_cmd and delta_cmd


def save_episode(record: EpisodeRecord, path) -> None:
    header = {
        "scenario_id": record.scenario_id,
        "seed": record.seed,
        "outcome": record.outcome,
        "frame_count": int(record.n_frames),
        "n_beams": int(record.scans.shape[1]),
        "duration_actual": record.duration_actual,
        "ego_progress": record.ego_progress,
        "leader_progress": record.leader_progress,
    }
    frames = np.concatenate(
        [record.scans, record.ego_v[:, None], record.actions], axis=1
    ).astype("<f4")
    with atomic_open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(frames.tobytes())


def load_episode(path) -> EpisodeRecord:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        payload = fh.read()
    n = header["frame_count"]
    nb = header.get("n_beams", LEGACY_N_BEAMS)
    expected = n * (nb + 3) * 4
    if len(payload) != expected:
        raise ScenarioError(
            f"{path}: corrupt episode payload ({len(payload)} bytes, want {expected})")
    frames = np.frombuffer(payload, dtype="<f4").reshape(n, nb + 3)
    return EpisodeRecord(
        scenario_id=header["scenario_id"], seed=header["seed"],
        scans=frames[:, :nb].copy(), ego_v=frames[:, nb].copy(),
        actions=frames[:, nb + 1:].copy(), outcome=header["outcome"],
        duration_actual=header["duration_actual"],
        ego_progress=header.get("ego_progress", 0.0),
        leader_progress=header.get("leader_progress", 0.0))


def write_manifest(path, episode_files: list[str], excluded_files: list[str],
                   pool_counts: dict[str, int], total_samples: int,
                   skipped_spawns: int = 0) -> None:
    manifest = {
        "episodes": episode_files,
        "excluded": excluded_files,
        "counts": pool_counts,
        "total_samples": total_samples,
        "skipped_spawns": skipped_spawns,
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_manifest_dataset(manifest_path) -> Dataset:
    manifest = json.loads(Path(manifest_path).read_text())
    base = Path(manifest_path).parent
    episodes = [load_episode(base / f) for f in manifest["episodes"]]
    if not episodes:
        raise EmptyDataset(f"manifest {manifest_path} lists no episodes")
    return Dataset(episodes=episodes, pool_counts=manifest["counts"],
                   total_samples=manifest["total_samples"])


# ---------------------------------------------------------------------------
# expert closed-loop sanity harness


def drive_expert_laps(track: TrackModel, laps: float = 3.0,
                      sim_cfg: SimConfig = SimConfig(),
                      expert_cfg: ExpertConfig = ExpertConfig(),
                      timeout_s: float | None = None) -> tuple[float, bool]:
    """Run the expert alone until it covers `laps` laps; returns the laps
    actually completed (fractional) and whether it collided."""
    env = RaceEnvironment.build(track, sim_cfg, expert_cfg, raceline_ids=("center",))
    scenario = Scenario(id="laps", ego_raceline="center", ego_s=0.0, seed=0)
    if timeout_s is None:
        timeout_s = laps * track.total_length + 30.0
    record, _ = rollout(scenario, ExpertSource(), env, duration=timeout_s,
                        observer=LapTimer(track.total_length, sim_cfg.dt, laps))
    return record.ego_progress / track.total_length, record.outcome == Outcome.COLLISION
