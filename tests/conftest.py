import math
from dataclasses import dataclass

import numpy as np
import pytest

from racekit import _geom
from racekit import simulator as rsim
from racekit import track as rtrack
from racekit.expert import ExpertError, NoFeasibleCandidate, NonPositiveSpeed, Role
from racekit.scenario import FRAME_HZ, EpisodeRecord, classify_outcome, start_world
from racekit.seeding import rng_for, sub_seed
from racekit.simulator import (NonFiniteState, SimConfig, Trace, VehicleCommand, VehicleState,
                               WorldState)
from racekit.track import PROJECTION_RADIUS, FarFromRaceline, curvature_at


@pytest.fixture(scope="session")
def circle10():
    return rtrack.make_circle_track(radius=10.0, width=3.0, n_points=360)


@pytest.fixture(scope="session")
def stadium():
    return rtrack.make_stadium_track(length=60.0, width=3.0)


@pytest.fixture(scope="session")
def sim_cfg():
    return SimConfig()


def make_room_track(half: float = 4.0) -> rtrack.TrackModel:
    """A square room of side 2*half centered at the origin, built as a raw
    TrackModel so the raycaster and collision checker see exactly one wall."""
    room = np.array([[half, half], [-half, half], [-half, -half], [half, -half]])
    segments = np.stack([room, np.roll(room, -1, axis=0)], axis=1)
    arc = np.array([0.0, 2.0, 4.0, 6.0, 8.0]) * half
    return rtrack.TrackModel(
        xy=room, w_right=np.full(4, 0.1), w_left=np.full(4, 0.1),
        inner_boundary=room, outer_boundary=room,
        arc_table=arc, total_length=8.0 * half,
        normals=np.zeros((4, 2)), boundary_segments=segments,
    )


@pytest.fixture(scope="session")
def room():
    return make_room_track()


def reference_project_to_polyline(points, verts, arc_table, seg_idx=None):
    """The projection kernel before the cached segment tables: gathers the
    window's vertices and broadcasts (P, M, 2) on every call. Kept as the
    reference that _geom.project_to_polyline must equal bit for bit."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(verts)
    seg_idx = np.arange(n) if seg_idx is None else np.asarray(seg_idx)
    a = verts[seg_idx]
    b = verts[(seg_idx + 1) % n]
    e = b - a                                      # (M, 2)
    ee = np.einsum("ij,ij->i", e, e)
    ee = np.maximum(ee, 1e-12)
    ap = points[:, None, :] - a[None, :, :]        # (P, M, 2)
    t = np.clip(np.einsum("pmi,mi->pm", ap, e) / ee, 0.0, 1.0)
    foot = a[None, :, :] + t[:, :, None] * e[None, :, :]
    diff = points[:, None, :] - foot
    dist2 = np.einsum("pmi,pmi->pm", diff, diff)
    best = np.argmin(dist2, axis=1)                # first minimum
    rows = np.arange(len(points))
    tb = t[rows, best]
    seg = seg_idx[best]
    seg_len = arc_table[seg + 1] - arc_table[seg]
    s = arc_table[seg] + tb * seg_len
    db = diff[rows, best]
    eb = e[best]
    cross = eb[:, 0] * db[:, 1] - eb[:, 1] * db[:, 0]
    d = np.sign(cross) * np.sqrt(dist2[rows, best])
    return s, d, seg


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes: stricter than np.array_equal, which
    takes -0.0 for 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, (got, want)
    assert got.tobytes() == want.tobytes(), (got, want)


def uneven_circle():
    """A 10 m circle with 200 / 20 / 200 waypoints over its quarter / half /
    quarter arcs: the spacing jumps twentyfold where the arcs meet."""
    phi = np.concatenate([
        np.linspace(0.0, 0.5 * np.pi, 200, endpoint=False),
        np.linspace(0.5 * np.pi, 1.5 * np.pi, 20, endpoint=False),
        np.linspace(1.5 * np.pi, 2.0 * np.pi, 200, endpoint=False)])
    xy = 10.0 * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    half = np.full(len(xy), 1.5)
    return rtrack.build_track(xy, half, half)


# ---------------------------------------------------------------------------
# The one-world kernels before lockstep batches, kept (beside their names)
# as they were: the references that the batched kernels, and the engine
# built on them, must equal bit for bit. Besides each other and the
# projection reference above, they call only geometry helpers that the
# batches left alone (obb_corners, obb_hits_segments, obb_overlap, _runs,
# wrap_angle) and the raceline's arc lookups (*_at, curvature_at), which
# test_track checks against their own reference.


def reference_arc_window(arc_table, s, half_width):
    """Indices, in increasing order, of the closed polyline's segments that
    overlap the arc interval [s - half_width, s + half_width] (wrapping)."""
    n = len(arc_table) - 1
    total = float(arc_table[-1])
    if 2.0 * half_width >= total:
        return np.arange(n)
    # the second mod maps a value that rounded up to `total` back to 0
    lo_s, hi_s = (s - half_width) % total % total, (s + half_width) % total % total
    lo, hi = np.searchsorted(arc_table, [lo_s, hi_s], side="right") - 1
    if lo_s <= hi_s:
        return np.arange(lo, hi + 1)
    # wrapped: [0, hi] and [lo, n); one long segment may hold both ends
    return np.concatenate([np.arange(hi + 1), np.arange(max(lo, hi + 1), n)])


class ReferenceProgressTracker:
    """Unwrapped arc progress along the track centerline, windowed around
    the last known progress."""

    WINDOW = 6.0

    def __init__(self, track, start_hint):
        self.track = track
        self.progress = float(start_hint)

    def update(self, x, y):
        window = reference_arc_window(self.track.arc_table, self.progress, self.WINDOW)
        s, _, _ = reference_project_to_polyline(np.array([[x, y]]), self.track.xy,
                                                self.track.arc_table, seg_idx=window)
        length = self.track.total_length
        delta = (float(s[0]) - self.progress) % length
        if delta > length / 2:
            delta -= length
        self.progress += delta
        return self.progress


def reference_advance(state, cmd, cfg):
    """One agent one dt later."""
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


def reference_corners(state, cfg):
    return _geom.obb_corners(state.x, state.y, state.theta, cfg.veh_length, cfg.veh_width)


def reference_check_collision(world, cfg):
    """Collision events per agent of one world."""
    track = world.track
    rect_half = 0.5 * math.hypot(cfg.veh_length, cfg.veh_width)
    reach = track.segment_half_max + rect_half + 1e-6
    corners = [reference_corners(a, cfg) for a in world.agents]
    hits = []
    for i, a in enumerate(world.agents):
        mids = track.segment_midpoints
        mask = (mids[:, 0] - a.x) ** 2 + (mids[:, 1] - a.y) ** 2 <= reach * reach
        hits.append(_geom.obb_hits_segments(corners[i], track.boundary_segments[mask]))
    if len(world.agents) == 2:
        a, b = world.agents
        if (math.hypot(a.x - b.x, a.y - b.y) <= 2.0 * rect_half + 1e-6
                and _geom.obb_overlap(corners[0], corners[1])):
            hits[0] = hits[1] = True
    return hits


def reference_step(world, commands, cfg):
    """One world one dt later; collision flags latch once set."""
    agents = [reference_advance(s, c, cfg) for s, c in zip(world.agents, commands)]
    for s in agents:
        if not all(map(math.isfinite, (s.x, s.y, s.theta, s.v, s.delta))):
            raise NonFiniteState(f"non-finite vehicle state after update: {s}")
    new_world = WorldState(world.track, agents, world.t + cfg.dt, list(world.collided))
    events = reference_check_collision(new_world, cfg)
    new_world.collided = [old or new for old, new in zip(world.collided, events)]
    return new_world


def reference_ray_hits(origin, heading, n_beams, segments, max_range):
    """Minimum hit distance per beam of one sensor against a segment soup,
    angular-binned (see _geom.ray_hits)."""
    o = np.asarray(origin, dtype=float)
    step = 2.0 * np.pi / n_beams
    angles = heading + np.arange(n_beams) * step
    out = np.full(angles.shape, float(max_range))
    if len(segments) == 0:
        return out
    a = segments[:, 0, :]                                   # (M, 2)
    e = segments[:, 1, :] - a                               # (M, 2)
    ao = a - o                                              # (M, 2)
    bo = segments[:, 1, :] - o
    t_num = ao[:, 0] * e[:, 1] - ao[:, 1] * e[:, 0]         # (M,)
    phi_a = np.arctan2(ao[:, 1], ao[:, 0])
    phi_b = np.arctan2(bo[:, 1], bo[:, 0])
    sweep = _geom.wrap_angle(phi_b - phi_a)
    start = np.where(sweep >= 0.0, phi_a, phi_b)
    span = np.abs(sweep)
    la, lb, le = (np.hypot(v[:, 0], v[:, 1]) for v in (ao, bo, e))
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = _geom._ANGLE_SLACK * ((la + lb + le) / np.minimum(la, lb) + abs(heading)
                                      + 4.0 * np.pi)
    full = (~(slack <= 0.5 * step)
            | (span > np.pi - step)
            | (np.abs(t_num) <= _geom._ANGLE_SLACK * la * le))
    rel = np.mod(start - heading, 2.0 * np.pi)
    first = np.floor(rel / step) - 1
    last = np.ceil((rel + span) / step) + 1
    first = np.where(full, 0, first).astype(np.int64)
    counts = np.where(full, n_beams, np.minimum(last - first + 1, n_beams)).astype(np.int64)
    seg, offset = _geom._runs(counts)                       # (beam, segment) pairs
    beam = (first[seg] + offset) % n_beams
    dx, dy = np.cos(angles), np.sin(angles)
    bx, by = dx[beam], dy[beam]
    denom = bx * e[seg, 1] - by * e[seg, 0]
    u_num = ao[seg, 0] * by - ao[seg, 1] * bx
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = t_num[seg] / denom
        u = u_num / denom
    valid = (np.abs(denom) > _geom._EPS) & (t >= 0.0) & (u >= 0.0) & (u <= 1.0)
    np.minimum.at(out, beam[valid], t[valid])
    return out


def reference_scan_lidar(world, agent, cfg):
    """The range scan of one agent against both boundaries and the other
    agent's rectangle."""
    s = world.agents[agent]
    segments = world.track.boundary_segments
    others = [a for i, a in enumerate(world.agents) if i != agent]
    if others:
        opp = reference_corners(others[0], cfg)
        opp_segs = np.stack([opp, np.roll(opp, -1, axis=0)], axis=1)
        segments = np.concatenate([segments, opp_segs])
    return reference_ray_hits((s.x, s.y), s.theta, cfg.n_beams, segments, cfg.lidar_range_max)


def reference_project(raceline, point):
    """(s, d) of one point on a raceline; FarFromRaceline beyond
    PROJECTION_RADIUS."""
    s, d, _ = reference_project_to_polyline(np.asarray(point, dtype=float)[None, :],
                                            raceline.xy, raceline.arc_table)
    if abs(d[0]) > PROJECTION_RADIUS:
        raise FarFromRaceline(f"point {point} is {abs(d[0]):.2f} m from the raceline")
    return float(s[0]), float(d[0])


@dataclass(eq=False)
class ReferenceCandidate:
    xy: np.ndarray
    heading: np.ndarray
    v: np.ndarray
    lateral_offset: float
    speed_scale: float
    s_path: np.ndarray
    d_path: np.ndarray
    reward: float = math.nan


def reference_sample_lattice(state, raceline, cfg):
    """The lattice of one state: v_ref_at per coarse step and one
    candidate at a time."""
    s0, d0 = reference_project(raceline, (state.x, state.y))
    n_steps = max(2, int(round(cfg.horizon_T / cfg.sample_dt)) + 1)
    tau = np.arange(n_steps) * cfg.sample_dt
    u = np.clip(tau / min(cfg.blend_T, cfg.horizon_T), 0.0, 1.0)
    beta = 3.0 * u * u - 2.0 * u * u * u
    offsets = np.linspace(-cfg.lateral_max, cfg.lateral_max, cfg.n_lateral)
    scales = np.linspace(cfg.speed_scale_min, 1.0, cfg.n_speed)
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
        target = scales * raceline.v_ref_at(s)
        v = np.minimum(np.maximum(target, v + cfg.decel_max * dt_int),
                       v + cfg.accel_max * dt_int)
        v = np.maximum(v, cfg.v_floor)
    tau_coarse = np.arange(n_int) * dt_int
    s_fine = np.empty((cfg.n_speed, n_steps))
    v_fine = np.empty((cfg.n_speed, n_steps))
    for j in range(cfg.n_speed):
        s_fine[j] = np.interp(tau, tau_coarse, s_coarse[:, j])
        v_fine[j] = np.interp(tau, tau_coarse, v_coarse[:, j])
    candidates = []
    for j, scale in enumerate(scales):
        base = raceline.position_at(s_fine[j])
        normals = rtrack.normal_of(raceline.heading_at(s_fine[j]))
        avail_l = raceline._interp(raceline.w_left_avail, s_fine[j])
        avail_r = raceline._interp(raceline.w_right_avail, s_fine[j])
        for d_target in offsets:
            d_path = d0 + (d_target - d0) * beta
            if (np.any(d_path > avail_l - cfg.safety_margin)
                    or np.any(-d_path > avail_r - cfg.safety_margin)):
                continue
            xy = base + d_path[:, None] * normals
            diffs = np.diff(xy, axis=0)
            heading = np.arctan2(diffs[:, 1], diffs[:, 0])
            heading = np.append(heading, heading[-1])
            candidates.append(ReferenceCandidate(
                xy=xy, heading=heading, v=v_fine[j].copy(),
                lateral_offset=float(d_target), speed_scale=float(scale),
                s_path=s_fine[j].copy(), d_path=d_path))
    if not candidates:
        raise NoFeasibleCandidate("all candidates leave the track")
    return candidates


def reference_predict_opponent(opponent, cfg):
    n_steps = max(2, int(round(cfg.horizon_T / cfg.sample_dt)) + 1)
    tau = np.arange(n_steps) * cfg.sample_dt
    vx = opponent.v * math.cos(opponent.theta)
    vy = opponent.v * math.sin(opponent.theta)
    return np.stack([opponent.x + vx * tau, opponent.y + vy * tau], axis=1)


def reference_score_candidates(candidates, opponent_pred, raceline, cfg):
    """Mean per-sample composite reward of lattice candidates."""
    V = np.stack([c.v for c in candidates])          # (C, K)
    if np.any(V <= 0):
        raise NonPositiveSpeed("candidate contains non-positive speeds")
    XY = np.stack([c.xy for c in candidates])        # (C, K, 2)
    n_c, n_k = V.shape
    s_proj = np.stack([c.s_path for c in candidates]).reshape(-1)
    d_proj = np.stack([c.d_path for c in candidates])
    kappa = curvature_at(raceline, s_proj).reshape(n_c, n_k)
    term = cfg.lambda_v * np.log(V) - cfg.lambda_p * np.abs(d_proj) \
        - cfg.lambda_kappa * np.abs(kappa) * V
    if opponent_pred is not None:
        if len(opponent_pred) < n_k:
            raise ExpertError("opponent prediction shorter than the candidate horizon")
        d_l = np.linalg.norm(XY - opponent_pred[None, :n_k], axis=2)
        term = term - cfg.lambda_d * np.exp(-d_l / cfg.d_scale)
    return term.mean(axis=1)


def reference_select_trajectory(candidates):
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.reward > best.reward or (
                cand.reward == best.reward
                and abs(cand.lateral_offset) < abs(best.lateral_offset)):
            best = cand
    return best


def reference_steer_toward(state, target, chord, cfg):
    alpha = math.atan2(target[1] - state.y, target[0] - state.x) - state.theta
    alpha = (alpha + math.pi) % (2.0 * math.pi) - math.pi
    delta = math.atan2(2.0 * cfg.wheelbase_L * math.sin(alpha), max(chord, 1e-6))
    return min(max(delta, -cfg.steer_limit), cfg.steer_limit)


def reference_pure_pursuit(state, traj, cfg):
    ell = max(cfg.lookahead_ell, cfg.lookahead_gain * state.v)
    rel = traj.xy - np.array([state.x, state.y])
    dist = np.linalg.norm(rel, axis=1)
    ahead = np.nonzero(dist >= ell)[0]
    idx = int(ahead[0]) if len(ahead) else len(traj.xy) - 1
    return reference_steer_toward(state, traj.xy[idx], float(dist[idx]), cfg)


def reference_leader_command(state, raceline, cfg):
    s_proj, _ = reference_project(raceline, (state.x, state.y))
    v_cmd = float(raceline.v_ref_at(s_proj)) * cfg.leader_speed_discount
    ell = max(cfg.lookahead_ell, cfg.lookahead_gain * state.v)
    target = raceline.position_at(s_proj + ell)
    chord = math.hypot(target[0] - state.x, target[1] - state.y)
    return VehicleCommand(v_cmd, reference_steer_toward(state, target, chord, cfg))


def reference_expert_action(world, agent, role, raceline, cfg):
    """The lattice expert for the ego role, raceline tracking at a
    discounted speed for the leader; a straight brake without a feasible
    candidate."""
    state = world.agents[agent]
    if role == Role.LEADER:
        return reference_leader_command(state, raceline, cfg)
    others = [a for i, a in enumerate(world.agents) if i != agent]
    opponent_pred = reference_predict_opponent(others[0], cfg) if others else None
    try:
        candidates = reference_sample_lattice(state, raceline, cfg)
    except (NoFeasibleCandidate, FarFromRaceline):
        return VehicleCommand(0.0, 0.0)
    rewards = reference_score_candidates(candidates, opponent_pred, raceline, cfg)
    for cand, r in zip(candidates, rewards):
        cand.reward = float(r)
    best = reference_select_trajectory(candidates)
    delta = reference_pure_pursuit(state, best, cfg)
    idx = min(len(best.v) - 1, int(round(cfg.speed_preview / cfg.sample_dt)))
    return VehicleCommand(float(best.v[idx]), delta)


def reference_forward_step(scan, v, h, params, cfg, masked=False):
    """One observation -> (action, next hidden state) of the GRU policy, in
    the parameters' dtype."""
    tokens = 2.0 / (1.0 + np.exp(np.minimum(cfg.sigmoid_k * np.asarray(scan, dtype=float),
                                            700.0)))
    x = tokens
    if cfg.use_speed_input:
        emb = np.asarray(v)[..., None] * params.speed_w + params.speed_b
        emb = np.where(np.asarray(masked)[..., None], params.mask_embed, emb)
        x = np.concatenate([tokens, emb], axis=-1)
    x = x.astype(params.w_x.dtype, copy=False)
    px = x @ params.w_x.T + params.b_x
    H = h.shape[-1]
    ph = h @ params.u_h.T
    u = 1.0 / (1.0 + np.exp(-(px[..., :H] + ph[..., :H])))
    r = 1.0 / (1.0 + np.exp(-(px[..., H:2 * H] + ph[..., H:2 * H])))
    m = ph[..., 2 * H:] + params.b_cand_h
    n = np.tanh(px[..., 2 * H:] + r * m)
    h_next = (1.0 - u) * n + u * h
    hidden = np.maximum(h_next @ params.dec_w1.T + params.dec_b1, 0.0)
    return hidden @ params.dec_w2.T + params.dec_b2, h_next


# ---------------------------------------------------------------------------
# the episode loop before lockstep batches, with its one-scenario action
# sources, on the reference kernels above: the reference that the batched
# engine must equal record for record


class ReferenceExpertSource:
    """The lattice expert on the scenario's ego raceline as an ego action
    source (ignores the scan)."""

    def reset(self, scenario, env):
        self._raceline = env.racelines[scenario.ego_raceline]
        self._cfg = env.expert

    def act(self, world, agent, scan):
        return reference_expert_action(world, agent, Role.EGO, self._raceline, self._cfg)


class ReferencePolicySource:
    """A trained policy as a 10 Hz action source with optional beam dropout.

    The hidden state persists across queries within an episode and resets
    to zero at episode start. Inference runs in double precision for exact
    reproducibility. Dropout draws from a per-episode stream,
    rng_for(sub_seed(noise_seed, stage), f"noise:{id}"), where stage is
    noise_stage with "{id}" replaced by the scenario id.
    """

    def __init__(self, params, cfg, noise_eta=0.0, noise_seed=0, noise_stage="h2h-noise:{id}"):
        self.params = params
        self.cfg = cfg
        self.noise_eta = noise_eta
        self.noise_seed = noise_seed
        self.noise_stage = noise_stage
        self._h = None
        self._rng = None

    def reset(self, scenario, env):
        self._h = np.zeros(self.cfg.hidden_dim)
        stage = self.noise_stage.replace("{id}", scenario.id)
        self._rng = rng_for(sub_seed(self.noise_seed, stage), f"noise:{scenario.id}")

    def act(self, world, agent, scan):
        if self.noise_eta > 0.0:
            scan = rsim.apply_noise(scan, self.noise_eta, self._rng)
        action, self._h = reference_forward_step(scan, world.agents[agent].v, self._h,
                                                 self.params, self.cfg)
        return VehicleCommand(float(action[0]), float(action[1]))


def reference_rollout(scenario, ego_source, env, duration=8.0, record_trace=False,
                      observer=None):
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
    trackers = [ReferenceProgressTracker(env.track, hint) for hint in hints]
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
        scan = reference_scan_lidar(world, 0, sim_cfg)
        ego_cmd = ego_source.act(world, 0, scan)
        scans.append(np.asarray(scan, dtype=np.float32))
        speeds.append(np.float32(world.agents[0].v))
        actions.append(np.array([ego_cmd.v_cmd, ego_cmd.delta_cmd], dtype=np.float32))
        cmds = [ego_cmd]
        if leader_rl is not None:
            cmds.append(reference_expert_action(world, 1, Role.LEADER, leader_rl, env.expert))
        for _ in range(steps_per_frame):
            world = reference_step(world, cmds, sim_cfg)
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
