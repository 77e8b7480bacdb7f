"""Overtaking scenario generation, the episode engine, and dataset assembly.

A scenario spawns the ego on one raceline and, when it names one, a
non-reactive leader a fixed arc distance ahead on its own raceline, both
at flying-start speeds. Every closed-loop episode in the kit - expert
collection, head-to-head evaluation, single-agent laps - runs through one
engine, `rollout_batch`, which steps a chunk of scenarios in lockstep: the
worlds are rows of its own pose (B, A, 5), time (B,) and contact flag
(B, A) arrays, the simulation steps at 100 Hz, the ego's action source is
queried at 10 Hz with the running rows' ids and poses at once, commands
held in between, and a frame (raw scan, ego speed, issued action) is
recorded per row at every query instant. The rows step a frame at a time:
`simulator.step_frame` runs the running rows' sim steps and then checks
collisions on all of them, `track_progress` tracks progress over their
trajectories, and a row keeps the state of the first step that ends its
episode. A row whose episode ends leaves the set of running rows, and its
record is the one it would get alone. `rollout` is the batch of one. A
row's observers are called as obs(t, poses (A, 5), collided (A,), ego's
unwrapped progress) at the start and then, row by row, over the frame's
stored sim steps, and any of them may end the episode: `LapTimer` times
laps and `simulator.Trace` records the poses. Episodes terminate on
collision, on an observer's word or at the time limit, and are classified
CarFollowing / Overtaking / Collision by unwrapped centerline progress;
`track_progress`, the one progress tracker, projects every agent onto
the centerline every sim step, inside an arc window around its last
progress, through the track's cached segment table
(`TrackModel.segment_table`). `rollout_many` is the one pooled runner:
it hands out chunks of CHUNK scenarios in scenario order,
in-process or one chunk per worker task, and yields their records as the
chunks end; neither `collect` nor `eval` holds a pool's records. Only
its pooled branch imports `ProcessPoolExecutor`, so a command on one
worker never loads `multiprocessing` (nor the `socket` and `subprocess`
modules it pulls in), and a pool's forked workers inherit only what the
parent loaded. A lap harness is `rollout` with a `LapTimer`. Episode
files and the dataset manifest are written atomically; `save_dataset`
(behind `collect`) writes each episode as it arrives, then the manifest,
which lists collision episodes as excluded. `load_manifest_dataset` opens
the kept ones as `EpisodeFile`s: every header is read and every file
size checked, and the frames stay on disk until `EpisodeFile.read` reads
them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from . import _geom
from . import expert as rexpert
from . import simulator as rsim
from ._atomic import atomic_open
from .expert import ExpertConfig
from .seeding import sub_seed
from .simulator import FRAME_HZ, SimConfig
from .track import NAMED_OFFSETS, Raceline, SpeedConfig, TrackModel, generate_raceline


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
        if not self.duration >= 1.0 / FRAME_HZ:
            raise ScenarioError(f"duration must be at least one {1.0 / FRAME_HZ} s frame, "
                                f"got {self.duration}")
        for key in ("ego_racelines", "leader_racelines"):
            ids = getattr(self, key)
            if not ids or not set(ids) <= set(NAMED_OFFSETS):
                raise ScenarioError(f"{key} must list ids of {'|'.join(NAMED_OFFSETS)}, got {ids}")


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

    @property
    def n_beams(self) -> int:
        return self.scans.shape[1]

    def read(self) -> "EpisodeRecord":
        """The record itself: an episode in memory is read already (see
        `EpisodeFile.read`)."""
        return self


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
              speed: SpeedConfig = SpeedConfig()):
        racelines = {rid: generate_raceline(track, rid, speed) for rid in NAMED_OFFSETS}
        return cls(track=track, racelines=racelines, sim=sim, expert=expert_cfg)


class ActionSource(Protocol):
    """Drives the ego (agent 0) of every row of a lockstep batch. Queried
    at 10 Hz; the returned commands are held until the next query."""

    def reset(self, scenarios: list[Scenario], env: RaceEnvironment) -> None:
        """Start one episode per scenario; row b of the batch plays scenarios[b]."""

    def act(self, rows: np.ndarray, poses: np.ndarray, scans: np.ndarray) -> np.ndarray:
        """Commands (R, 2) of v_cmd and delta_cmd for the egos of the R
        running rows `rows` of the batch, whose poses are (R, A, 5) and
        scans (R, n_beams)."""


def _by_raceline(rids: list[str], rows: np.ndarray) -> Iterator[tuple[str, np.ndarray]]:
    """(raceline id, mask over rows) for each raceline the rows use."""
    names = np.array(rids, dtype=object)[rows]
    for rid in dict.fromkeys(names):
        yield rid, names == rid


class ExpertSource:
    """The lattice expert on each scenario's ego raceline as an ego action
    source (ignores the scans)."""

    def reset(self, scenarios, env):
        self._env = env
        self._racelines = [sc.ego_raceline for sc in scenarios]

    def act(self, rows, poses, scans):
        out = np.empty((len(rows), 2))
        for rid, sel in _by_raceline(self._racelines, rows):
            opponents = poses[sel, 1] if poses.shape[1] > 1 else None
            out[sel] = rexpert.ego_commands(poses[sel, 0], opponents, self._env.racelines[rid],
                                            self._env.expert, self._env.sim)
        return out


def _spawn_pose(raceline: Raceline, s: float, v_scale: float = 1.0) -> list[float]:
    pos = raceline.position_at(s)
    return [float(pos[0]), float(pos[1]), float(raceline.heading_at(s)),
            float(raceline.v_ref_at(s)) * v_scale, 0.0]


def start_world(scenario: Scenario, env: RaceEnvironment) -> np.ndarray:
    """The t=0 poses (A, 5): the ego at its raceline's reference speed and,
    if the scenario has one, the leader at its discounted reference speed."""
    poses = [_spawn_pose(env.racelines[scenario.ego_raceline], scenario.ego_s)]
    if scenario.leader_raceline is not None:
        poses.append(_spawn_pose(env.racelines[scenario.leader_raceline], scenario.leader_s,
                                 env.expert.leader_speed_discount))
    return np.array(poses)


PROGRESS_WINDOW = 6.0  # meters of centerline searched on each side of the last position
# meters a call widens its windows by: at the default 10 m/s speed cap a car
# moves at most 1 m in a 0.1 s frame, so one wide window serves the frame
PROGRESS_MARGIN = 2.5


def track_progress(track: TrackModel, progress: np.ndarray, x: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """Unwrapped centerline progress (S, ...) of points along trajectories
    of S steps, x and y (S, ...), from their progress (...) before step 0.

    Step j of a point is projected onto the centerline segments in the arc
    window of PROGRESS_WINDOW around its progress after step j - 1
    (_geom.arc_windows), ties going to the segment listed first, and moves
    by the projected arc's shortest signed distance around the loop: what
    a one-step call gives, whatever the other points. All steps are
    projected at once onto windows PROGRESS_MARGIN wider, and each step
    picks among the columns inside its own window (_geom.in_arc_windows).

    The steps are resolved together. A guess of every step's pick (first
    the first minimum over the wide window) fixes the progress after every
    step, unwrapped along the steps; a pass then windows every step by the
    progress before it and picks again: the wide window's first minimum,
    unless that column lies outside the step's own window, then the first
    minimum among the columns inside. A pass picks right up to one step past the first step
    its guess got wrong, so taking its picks as the next guess reaches a
    pass that reproduces its guess after at most S + 1 passes, and after
    one when every first minimum lies inside its window. Once a point has
    moved the margin less a millimetre, the wide windows are rebuilt from
    that step on."""
    shape, progress = np.shape(x), np.ravel(progress)
    x, y = np.reshape(x, (len(x), -1)), np.reshape(y, (len(y), -1))
    n_points = len(progress)
    wide = _geom.arc_windows(track.arc_table, progress, PROGRESS_WINDOW + PROGRESS_MARGIN)
    n_cols = wide.shape[1]
    cols = track.segment_table.take(wide, axis=1)
    t, _, _, dist2 = _geom.segment_distances(x[..., None], y[..., None], cols)   # (S, N, M)
    # one row per (step, point); a pick is a flat column of cols, and of t
    t, dist2 = t.reshape(-1, n_cols), dist2.reshape(-1, n_cols)
    point_cols = np.tile(np.arange(n_points) * n_cols, len(x))
    step_cols = np.arange(len(dist2)) * n_cols
    nearest = dist2.argmin(axis=1)                  # first minimum over the wide window
    nearest_seg = wide.take(point_cols + nearest)[:, None]
    length = track.total_length
    best = nearest
    while True:
        pick = point_cols + best
        arcs = cols[5].take(pick) + t.take(step_cols + best) * cols[6].take(pick)
        # the unwrap chains each step's floats on the step before: a few
        # calls per step, on all points at once
        after, last = arcs.reshape(-1, n_points), progress
        for j, arc in enumerate(after):
            delta = np.mod(arc - last, length)
            last = after[j] = last + np.where(delta > length / 2, delta - length, delta)
        before = np.concatenate([progress, after[:-1].reshape(-1)])
        guess, best = best, nearest.copy()
        redo = np.flatnonzero(~_geom.in_arc_windows(track.arc_table, before, PROGRESS_WINDOW,
                                                    nearest_seg)[:, 0])
        inside = _geom.in_arc_windows(track.arc_table, before[redo], PROGRESS_WINDOW,
                                      wide[redo % n_points])
        best[redo] = np.where(inside, dist2[redo], np.inf).argmin(axis=1)
        if np.array_equal(best, guess):
            break
    moved = (np.abs(after[:-1] - progress) > PROGRESS_MARGIN - 1e-3).any(axis=1)
    if moved.any():
        j = int(moved.argmax()) + 1
        after[j:] = track_progress(track, after[j - 1], x[j:], y[j:])
    return after.reshape(shape)


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
    candidates = []
    for ego_rid in cfg.ego_racelines:
        ego_rl = env.racelines[ego_rid]
        for leader_rid in cfg.leader_racelines:
            leader_rl = env.racelines[leader_rid]
            for i in range(cfg.k_positions):
                s_e = ((i + cfg.spawn_phase) * ego_rl.length / cfg.k_positions) % ego_rl.length
                s_l = (s_e + cfg.d_gap) % leader_rl.length
                sid = f"{ego_rid}:{leader_rid}:{i:04d}"
                candidates.append(Scenario(
                    id=sid, ego_raceline=ego_rid, ego_s=float(s_e),
                    seed=sub_seed(cfg.seed, f"scenario:{sid}"),
                    leader_raceline=leader_rid, leader_s=float(s_l)))
    poses = np.array([start_world(sc, env) for sc in candidates]).reshape(-1, 2, 5)
    contact = rsim.collision_events(env.track, poses, env.sim).any(axis=1)
    scenarios = [sc for sc, hit in zip(candidates, contact.tolist()) if not hit]
    skipped = len(candidates) - len(scenarios)
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

    def __call__(self, t: float, poses: np.ndarray, collided: np.ndarray, progress: float) -> bool:
        if self._start is None:  # the start world
            self._start = self._last = progress
            return False
        self.speeds.append(float(poses[0, 3]))
        covered, step = progress - self._start, progress - self._last
        while covered >= (len(self.lap_times) + 1) * self.length:
            over = covered - (len(self.lap_times) + 1) * self.length
            frac = over / step if step > 0 else 0.0
            self.lap_times.append(float(t) - frac * self.dt)
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


# Called with one row's time, poses (A, 5), collided flags (A,) and ego
# progress after a sim step, or at the start; True ends the row's episode.
Observer = Callable[[float, np.ndarray, np.ndarray, float], bool]


def rollout_batch(scenarios: list[Scenario], source: ActionSource, env: RaceEnvironment,
                  duration: float = 8.0, observers: list[Sequence[Observer]] | None = None,
                  ) -> list[EpisodeRecord]:
    """Run scenarios in lockstep at the sim rate with 10 Hz action queries;
    one record per scenario, in order.

    Frames are recorded at the query instants before stepping, so an episode
    that collides mid-interval keeps every frame up to and including the
    interval it died in. Each of a row's observers is called at the start
    and then after every sim step with the row's time, poses, collided
    flags and the ego's unwrapped centerline progress; a true return from
    any of them ends that episode. Either every scenario names a leader or
    none does."""
    observers = observers or [()] * len(scenarios)
    sim_cfg, track = env.sim, env.track
    poses = np.array([start_world(sc, env) for sc in scenarios])
    n_rows, n_agents = poses.shape[:2]
    t, collided = np.zeros(n_rows), np.zeros((n_rows, n_agents), dtype=bool)
    source.reset(scenarios, env)
    hints = np.empty((n_rows, n_agents))
    for b, sc in enumerate(scenarios):
        hints[b, 0] = sc.ego_s
        if n_agents > 1:
            hints[b, 1] = sc.ego_s + (sc.leader_s - sc.ego_s) % track.total_length
    progress = track_progress(track, hints, poses[None, ..., 0], poses[None, ..., 1])[0]
    leaders = [sc.leader_raceline for sc in scenarios]

    steps_per_frame = round(1.0 / (FRAME_HZ * sim_cfg.dt))   # whole, as SimConfig checks
    max_frames = int(round(duration * FRAME_HZ))
    frames: list[list] = [[] for _ in range(n_rows)]

    def watch(b, *step) -> bool:
        """Call each of row b's observers with one step of it; True if one
        ends the episode."""
        return any([obs(*step) for obs in observers[b]])

    active = np.flatnonzero([not watch(b, t[b], poses[b], collided[b], float(progress[b, 0]))
                             for b in range(n_rows)])
    for _ in range(max_frames):
        if not len(active):
            break
        running = poses[active]
        scans = rsim.scan_batch(track, running, 0, sim_cfg)
        ego = np.asarray(source.act(active, running, scans), dtype=float)
        recorded = zip(scans.astype(np.float32), running[:, 0, 3].astype(np.float32),
                       ego.astype(np.float32))
        for b, frame in zip(active.tolist(), recorded):
            frames[b].append(frame)
        cmds = np.empty((len(active), n_agents, 2))
        cmds[:, 0] = ego
        if n_agents > 1:
            for rid, sel in _by_raceline(leaders, active):
                cmds[sel, 1] = rexpert.leader_commands(running[sel, 1], env.racelines[rid],
                                                       env.expert, sim_cfg)
        # the frame's sim steps first, then its checks on all of them; a row
        # keeps the state of the first step that ends it and drops the rest
        path, times, flags = rsim.step_frame(track, running, t[active], collided[active], cmds,
                                             steps_per_frame, sim_cfg)
        reached = track_progress(track, progress[active], path[..., 0], path[..., 1])
        ended = flags.any(axis=2)                                  # (steps, rows)
        for k, b in enumerate(active):   # the observers see each step as it happened
            for j in range(steps_per_frame if observers[b] else 0):
                ended[j, k] |= watch(b, times[j, k], path[j, k], flags[j, k],
                                     float(reached[j, k, 0]))
                if ended[j, k]:
                    break
        stopped = ended.any(axis=0)
        kept = np.where(stopped, ended.argmax(axis=0), steps_per_frame - 1), np.arange(len(active))
        poses[active], t[active] = path[kept], times[kept]
        collided[active], progress[active] = flags[kept], reached[kept]
        active = active[~stopped]

    results = []
    for b, sc in enumerate(scenarios):
        ego_prog = float(progress[b, 0])
        leader_prog = float(progress[b, 1]) if n_agents > 1 else float("-inf")
        outcome = classify_outcome(ego_prog, leader_prog, bool(collided[b, 0]),
                                   bool(collided[b, 1:].any()))
        scans, speeds, actions = zip(*frames[b]) if frames[b] else ((), (), ())
        results.append(EpisodeRecord(
            scenario_id=sc.id, seed=sc.seed,
            scans=np.stack(scans) if scans else np.zeros((0, sim_cfg.n_beams), dtype=np.float32),
            ego_v=np.asarray(speeds, dtype=np.float32),
            actions=np.stack(actions) if actions else np.zeros((0, 2), dtype=np.float32),
            outcome=outcome, duration_actual=float(t[b]),
            ego_progress=ego_prog, leader_progress=leader_prog))
    return results


def rollout(scenario: Scenario, ego_source: ActionSource, env: RaceEnvironment,
            duration: float = 8.0, observers: Sequence[Observer] = ()) -> EpisodeRecord:
    """One scenario: rollout_batch's batch of one."""
    return rollout_batch([scenario], ego_source, env, duration, [observers])[0]


# One pooled runner. Each worker receives the action source and the
# environment once, through the initializer (a default-size policy is
# tens of MB); a task carries one chunk of scenarios, which the worker
# steps as one lockstep batch.
CHUNK = 4
_WORKER: dict = {}


def _init_worker(source: ActionSource, env: RaceEnvironment, duration: float) -> None:
    _WORKER.update(source=source, env=env, duration=duration)


def _rollout_chunk_in_worker(chunk: list[Scenario]) -> list[EpisodeRecord]:
    return rollout_batch(chunk, _WORKER["source"], _WORKER["env"], _WORKER["duration"])


def rollout_many(scenarios: list[Scenario], source: ActionSource, env: RaceEnvironment,
                 duration: float, workers: int = 1) -> Iterator[EpisodeRecord]:
    """Roll every scenario with the same action source in chunks of CHUNK
    scenarios taken in order, and yield the records in scenario order, equal
    for any worker count. A chunk runs in-process when its first record is
    asked for; closing early cancels the chunks that no worker has taken."""
    chunks = [scenarios[i:i + CHUNK] for i in range(0, len(scenarios), CHUNK)]
    if workers <= 1:
        for chunk in chunks:
            yield from rollout_batch(chunk, source, env, duration)
        return
    # only a pool loads multiprocessing (and its socket, subprocess, ...)
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(source, env, duration)) as pool:
        for records in pool.map(_rollout_chunk_in_worker, chunks):
            yield from records


# ---------------------------------------------------------------------------
# episode store: one file per episode, JSON header line + float32 frames of
# n_beams ranges, ego_v, v_cmd and delta_cmd


def save_episode(record: EpisodeRecord, path) -> None:
    header = {
        "scenario_id": record.scenario_id,
        "seed": record.seed,
        "outcome": record.outcome,
        "frame_count": int(record.n_frames),
        "n_beams": int(record.n_beams),
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


@dataclass(frozen=True)
class EpisodeFile:
    """An episode file whose header parsed and whose size fits it: the
    header's fields, and where the frames start. `read` reads the frames."""

    path: str
    offset: int              # bytes before the first frame: the header line
    scenario_id: str
    seed: int
    outcome: str
    n_frames: int
    n_beams: int
    duration_actual: float
    ego_progress: float
    leader_progress: float

    def read(self) -> EpisodeRecord:
        """The episode, its scans, speeds and actions views of one float32
        frame array read from the file; ScenarioError naming the file if
        it cannot be read or no longer fits the header."""
        frames = np.empty((self.n_frames, self.n_beams + 3), dtype="<f4")
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                got, more = fh.readinto(frames.reshape(-1).view(np.uint8)), fh.read(1)
        except OSError as exc:
            raise ScenarioError(f"{self.path}: cannot read episode: {exc}") from None
        if got != frames.nbytes or more:
            raise ScenarioError(f"{self.path}: episode file changed since its header was read")
        nb = self.n_beams
        return EpisodeRecord(
            scenario_id=self.scenario_id, seed=self.seed, scans=frames[:, :nb],
            ego_v=frames[:, nb], actions=frames[:, nb + 1:], outcome=self.outcome,
            duration_actual=self.duration_actual, ego_progress=self.ego_progress,
            leader_progress=self.leader_progress)


def open_episode(path) -> EpisodeFile:
    """The header of the episode stored at path, its frames left on disk;
    ScenarioError naming the file if it cannot be opened, its header does
    not parse or lacks a key, or its size does not fit the header."""
    path = str(path)
    try:
        with open(path, "rb") as fh:
            head, size = fh.readline(), os.fstat(fh.fileno()).st_size
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read episode: {exc}") from None
    try:
        header = json.loads(head)
        n, nb = header["frame_count"], header["n_beams"]
        if not all(type(k) is int and k >= 0 for k in (n, nb)):
            raise ValueError(f"frame_count {n!r} and n_beams {nb!r} must be counts")
        episode = EpisodeFile(
            path=path, offset=len(head), scenario_id=header["scenario_id"],
            seed=header["seed"], outcome=header["outcome"], n_frames=n, n_beams=nb,
            duration_actual=header["duration_actual"], ego_progress=header["ego_progress"],
            leader_progress=header["leader_progress"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ScenarioError(f"{path}: unreadable episode header: {exc!r}") from None
    expected = n * (nb + 3) * 4
    if size - len(head) != expected:
        raise ScenarioError(
            f"{path}: corrupt episode payload ({size - len(head)} bytes, want {expected})")
    return episode


def load_episode(path) -> EpisodeRecord:
    """The episode stored at path, frames and all; ScenarioError as
    `open_episode` and `EpisodeFile.read` raise it."""
    return open_episode(path).read()


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


def save_dataset(out_dir, episodes: Iterable[tuple[str, EpisodeRecord]],
                 skipped_spawns: int = 0) -> tuple[dict[str, int], int]:
    """Write each (file name, record) pair under out_dir as it arrives, then
    the manifest out_dir/dataset.json, which lists collision episodes as
    excluded and counts the pool's outcomes; returns those counts and the
    number of kept frames. A failure mid-stream writes no manifest."""
    out_dir = Path(out_dir)
    counts = {k: 0 for k in Outcome.ALL}
    kept_files, excluded_files, total = [], [], 0
    for fname, record in episodes:
        save_episode(record, out_dir / fname)
        counts[record.outcome] += 1
        if record.outcome == Outcome.COLLISION:
            excluded_files.append(fname)
        else:
            kept_files.append(fname)
            total += record.n_frames
    write_manifest(out_dir / "dataset.json", kept_files, excluded_files, counts,
                   total, skipped_spawns)
    return counts, total


def load_manifest_dataset(manifest_path) -> list[EpisodeFile]:
    """The kept episodes a dataset manifest lists, opened (`open_episode`):
    every header read and every file size checked, no frame read.
    ScenarioError naming the file if the manifest cannot be read or parsed,
    lists no file names under "episodes", or lists an episode that does
    not open."""
    manifest_path = Path(manifest_path)
    try:
        files = json.loads(manifest_path.read_text())["episodes"]
    except OSError as exc:
        raise ScenarioError(f"{manifest_path}: cannot read manifest: {exc}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"{manifest_path}: unreadable manifest: {exc!r}") from None
    if not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
        raise ScenarioError(f'{manifest_path}: "episodes" is not a list of file names')
    episodes = [open_episode(manifest_path.parent / f) for f in files]
    if not episodes:
        raise EmptyDataset(f"manifest {manifest_path} lists no episodes")
    return episodes
