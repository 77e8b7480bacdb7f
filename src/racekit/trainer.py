"""Behavior-cloning trainer.

Full-sequence teacher forcing over recorded episodes: the policy is
rolled from a zero hidden state across every frame, the loss is a
weighted sum of speed and steering mean squared errors (weight 0.05 on
speed), gradients come from exact backpropagation through the whole
recurrence, parameters move under Adam, and the learning rate halves
whenever the epoch loss plateaus. Random speed-embedding masking
(Bernoulli per frame) fights shortcut copying of the current speed into
the speed command.

Episodes inside a batch are padded to a common length and masked out of
the loss, which reproduces independent per-episode rolls exactly while
keeping the matmuls batched. An episode is a `scenario.EpisodeRecord` or
an opened `scenario.EpisodeFile`, whose frames stay on disk: each batch
reads its episodes' float32 frames as it widens them to double precision
and pads them, so a run holds no dataset; double precision throughout.

The forward pass projects the inputs of all B x T frames through the
packed w_x in one GEMM before the time loop, then runs `policy.gru_cell`
once per step, which writes each step's gate activations over its slice
of that projection, and decodes all frames at once through
`policy.decode`. Backpropagation mirrors the packed layout: one GEMM
with u_h per step for the hidden-state gradient, then the w_x and u_h
gradients one gate-row block at a time, and Adam steps each tensor, or
block of rows, in cache-sized tiles; only `policy` knows the
checkpoint's per-gate layout.

Every large array is held once, and the run holds no gradient set.
Backpropagation writes each frame's gate gradients da over that frame's
gate activations, once it has read them, the candidate's pre-activation
gradient over the frame's m, and the decoder's hidden-state gradient over
the decoder's input, and it hands each gradient to Adam as soon as it is
computed and its tensor is read for the last time (LOMO's fusion of the
gradient and the update, Lv et al. 2023): at its peak a batch holds the
forward caches and one gradient block, a third of u_h's gradient. These
arrays are one `Workspace`, allocated once per run and reused by every
batch, so the resident set does not climb batch over batch. A run holds
one parameter set: an epoch whose loss is the lowest yet is written to
the checkpoint file on a background thread while the next epoch's first
forward and backward passes compute, and the write is joined before the
first gradient changes those parameters. The float operations, and so
the bytes, are those of separate arrays and whole-tensor steps.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._atomic import atomic_open
from .policy import (PolicyConfig, PolicyParameters, all_finite, decode, encode_inputs, gru_cell,
                     init_params, save_checkpoint_file)
from .scenario import EpisodeFile, EpisodeRecord
from .seeding import rng_for

# what the trainer reads: a record in memory, or an opened file whose
# frames `read` fetches; both give n_frames and n_beams without reading
Episode = EpisodeRecord | EpisodeFile


class TrainerError(Exception):
    pass


class EmptyEpisode(TrainerError):
    pass


class EmptyDatasetError(TrainerError):
    pass


class NonFiniteGradient(TrainerError):
    pass


@dataclass(frozen=True)
class TrainerConfig:
    epochs: int = 500
    lr0: float = 1e-3
    batch_size: int = 16
    speed_loss_weight: float = 0.05
    mask_p: float = 0.1
    sched_factor: float = 0.5
    sched_patience: int = 10
    sched_threshold: float = 1e-4   # absolute epoch-loss improvement
    lr_min: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for key in ("epochs", "batch_size"):
            if getattr(self, key) < 1:
                raise TrainerError(f"{key} must be >= 1, got {getattr(self, key)}")


@dataclass
class TrainState:
    params: PolicyParameters
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    lr: float = 1e-3
    best_loss: float = float("inf")
    stall: int = 0
    cooldown: int = 0

    @classmethod
    def fresh(cls, params: PolicyParameters, cfg: TrainerConfig) -> "TrainState":
        # np.zeros, not zeros_like: the pages come zeroed from the
        # allocator instead of through a memset of every moment
        tensors = params.tensors()
        return cls(params=params, m={k: np.zeros(t.shape, t.dtype) for k, t in tensors.items()},
                   v={k: np.zeros(t.shape, t.dtype) for k, t in tensors.items()}, lr=cfg.lr0)


def _pack_batch(episodes: Sequence[Episode], mask_draws, cfg: PolicyConfig):
    """Read each episode's frames and pad its scans, speeds and expert
    actions (the labels) to the longest length; active[b, t] marks real
    frames."""
    B = len(episodes)
    T = max(ep.n_frames for ep in episodes)
    scans = np.zeros((B, T, cfg.n_beams))
    speeds = np.zeros((B, T))
    labels = np.zeros((B, T, 2))
    masked = np.zeros((B, T), dtype=bool)
    active = np.zeros((B, T), dtype=bool)
    for b, (ep, draws) in enumerate(zip(episodes, mask_draws)):
        t = ep.n_frames
        if len(draws) != t:
            raise TrainerError(f"mask draws length {len(draws)} != episode length {t}")
        record = ep.read()
        scans[b, :t] = record.scans
        speeds[b, :t] = record.ego_v
        labels[b, :t] = record.actions
        masked[b, :t] = draws
        active[b, :t] = True
    return scans, speeds, labels, masked, active


class Workspace:
    """BPTT's large per-batch arrays, allocated once for batches of up to
    `rows` padded frames (B x T) and reused by every batch; a batch takes
    views of their first B x T rows. Freed and allocated again each
    batch, arrays of this size come back from the allocator's heap rather
    than from fresh pages, and the resident set climbs batch over batch.

    - gates: the gate activations (B, T, 3H), then da;
    - m: m (B, T, H), then the candidate's pre-activation gradient a_n;
    - h_prev: the hidden state each frame starts from (B, T, H), zero at
      t = 0, so that the u_h gradient reads it as one contiguous matrix;
    - x: the GRU inputs (B, T, I);
    - scratch: the hidden state each frame ends in (B, T, H), which the
      decoder reads and dh_dec then overwrites, beside dec_w1's gradient;
      then each u_h gate block's gradient and w_x's gradient in turn.
    """

    def __init__(self, cfg: PolicyConfig, rows: int):
        H, I, M = cfg.hidden_dim, cfg.input_dim, cfg.mlp_hidden_dim
        self.gates = np.empty(rows * 3 * H)
        self.m = np.empty(rows * H)
        self.h_prev = np.empty(rows * H)
        self.x = np.empty(rows * I)
        self.scratch = np.empty(max((rows + M) * H, H * H, 3 * H * I))


def _view(buf: np.ndarray, *shape: int, at: int = 0) -> np.ndarray:
    """A C-contiguous view of `shape` on the flat buf, from element at."""
    return buf[at:at + math.prod(shape)].reshape(shape)


def _forward_batch(params: PolicyParameters, cfg: PolicyConfig, scans, speeds, masked,
                   work: Workspace | None = None):
    """Roll the batch; returns predictions and the caches backward needs,
    which are views of work (a Workspace of its own size if None)."""
    B, T, _ = scans.shape
    H = cfg.hidden_dim
    if work is None:
        work = Workspace(cfg, B * T)
    x = encode_inputs(scans, speeds, params, cfg, masked,
                      out=_view(work.x, B, T, cfg.input_dim))
    gates = np.matmul(x.reshape(B * T, -1), params.w_x.T,   # px, then [u | r | n]
                      out=_view(work.gates, B * T, 3 * H))
    gates += params.b_x
    gates = gates.reshape(B, T, 3 * H)
    h_prev = _view(work.h_prev, B, T, H)
    h_next = _view(work.scratch, B, T, H)
    m = _view(work.m, B, T, H)   # u_cand @ h_prev + b_cand_h
    h_prev[:, 0] = 0.0
    for t in range(T):
        h_next[:, t], gates[:, t], m[:, t] = gru_cell(gates[:, t], h_prev[:, t], params)
        if t + 1 < T:
            h_prev[:, t + 1] = h_next[:, t]
    preds, relu1 = decode(h_next.reshape(B * T, H), params)   # (B*T, 2), (B*T, M)
    caches = dict(x=x, h_prev=h_prev, h_next=h_next, gates=gates, m=m, relu1=relu1)
    return preds.reshape(B, T, 2), caches


def _episode_losses(preds, labels, active, speed_weight):
    """Per-episode loss (masked means), the masked errors and frame counts."""
    counts = active.sum(axis=1)
    err = np.where(active[..., None], preds - labels, 0.0)
    l_speed = (err[..., 0] ** 2).sum(axis=1) / counts
    l_steer = (err[..., 1] ** 2).sum(axis=1) / counts
    return speed_weight * l_speed + l_steer, err, counts


def backward(params: PolicyParameters, cfg: PolicyConfig,
             episodes: Sequence[Episode], mask_draws: list[np.ndarray],
             consume, speed_weight: float = 0.05, work: Workspace | None = None):
    """Exact gradients of the batch-mean sequence loss; returns the
    per-episode losses.

    Each gradient goes to consume(name, grad, rows) as soon as it is
    computed and the pass has read its tensor for the last time, so the
    consumer may change that tensor at once: dec_w2 and dec_w1 (with
    their biases) after dh_dec, u_h in its three gate-row blocks
    (rows = slice(g * H, (g + 1) * H)) and b_cand_h after the time loop,
    the rest after demb, w_x last; rows is slice(None) for a whole tensor.
    Every tensor is delivered once per batch. A large grad is a view of
    work (a Workspace of the batch's size if None) that the next gradient
    overwrites: a consumer that keeps it copies it."""
    if not episodes:
        raise TrainerError("empty batch")
    scans, speeds, labels, masked, active = _pack_batch(episodes, mask_draws, cfg)
    B, T, _ = scans.shape
    if work is None:
        work = Workspace(cfg, B * T)
    preds, caches = _forward_batch(params, cfg, scans, speeds, masked, work)
    del scans
    losses, err, counts = _episode_losses(preds, labels, active, speed_weight)

    dpred = np.empty_like(err)
    # d(batch mean loss)/d(pred): each episode mean-normalized, batch-averaged
    dpred[..., 0] = 2.0 * speed_weight * err[..., 0] / counts[:, None] / B
    dpred[..., 1] = 2.0 * err[..., 1] / counts[:, None] / B

    x, h_prev, h_next, gates, m_all, relu = (
        caches.pop(k) for k in ("x", "h_prev", "h_next", "gates", "m", "relu1"))
    H = cfg.hidden_dim
    whole = slice(None)

    # decoder backward (batched over all frames at once); dh_dec is written
    # over the decoder's input once dec_w1's gradient has read it
    flat_dpred = dpred.reshape(B * T, 2)
    g_dec_w2 = flat_dpred.T @ relu
    g_dec_b2 = flat_dpred.sum(axis=0)
    dz1 = flat_dpred @ params.dec_w2
    dz1 *= relu > 0
    del relu
    consume("dec_w2", g_dec_w2, whole)
    consume("dec_b2", g_dec_b2, whole)
    flat_h_next = h_next.reshape(B * T, H)
    g_dec_w1 = np.matmul(dz1.T, flat_h_next,
                         out=_view(work.scratch, len(params.dec_w1), H, at=B * T * H))
    g_dec_b1 = dz1.sum(axis=0)
    dh_dec = np.matmul(dz1, params.dec_w1, out=flat_h_next).reshape(B, T, H)
    del dz1
    consume("dec_w1", g_dec_w1, whole)
    consume("dec_b1", g_dec_b1, whole)

    # Step t reads the gate activations and m of frame t, then writes over
    # them: da = [a_u | a_r | dm], the gradients that reach u_h, over the
    # gates, and the candidate pre-activation gradient a_n over m.
    dh_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        dh = dh_dec[:, t] + dh_next
        g = gates[:, t]
        u, r, n = g[:, :H], g[:, H:2 * H], g[:, 2 * H:]
        a_n = dh * (1.0 - u) * (1.0 - n * n)
        carry = dh * u
        a_u = dh * (h_prev[:, t] - n) * u * (1.0 - u)
        a_r = a_n * m_all[:, t] * r * (1.0 - r)
        dm = a_n * r
        g[:, :H], g[:, H:2 * H], g[:, 2 * H:] = a_u, a_r, dm
        m_all[:, t] = a_n
        dh_next = carry + g @ params.u_h
    del dh_dec

    # The weight gradients are GEMMs of one gate block of da at a time: a
    # block's product has the bits of those rows of the whole product, on
    # every OpenBLAS core and thread count tried, and OpenBLAS touches less
    # of its buffers for it. u_h's blocks share one block of scratch.
    da_flat = gates.reshape(B * T, 3 * H)
    gate_rows = [slice(gate * H, (gate + 1) * H) for gate in range(3)]
    flat_h_prev = h_prev.reshape(B * T, H)
    block = _view(work.scratch, H, H)
    for rows in gate_rows:
        consume("u_h", np.matmul(da_flat[:, rows].T, flat_h_prev, out=block), rows)
    consume("b_cand_h", da_flat[:, 2 * H:].sum(axis=0), whole)
    # a_n replaces dm for the input-side gradients
    da_flat[:, 2 * H:] = m_all.reshape(B * T, H)
    flat_x = x.reshape(B * T, -1)
    g_w_x = _view(work.scratch, 3 * H, flat_x.shape[1])
    for rows in gate_rows:
        np.matmul(da_flat[:, rows].T, flat_x, out=g_w_x[rows])
    consume("b_x", da_flat.sum(axis=0), whole)
    if cfg.use_speed_input:
        demb = da_flat @ params.w_x[:, cfg.n_beams:]        # (B*T, E)
        masked_flat = masked.reshape(B * T)
        unmasked = ~masked_flat
        v_flat = speeds.reshape(B * T)
        consume("speed_w", (demb[unmasked] * v_flat[unmasked, None]).sum(axis=0), whole)
        consume("speed_b", demb[unmasked].sum(axis=0), whole)
        consume("mask_embed", demb[masked_flat].sum(axis=0), whole)
    else:
        for name in ("speed_w", "speed_b", "mask_embed"):
            consume(name, np.zeros_like(getattr(params, name)), whole)
    consume("w_x", g_w_x, whole)
    return losses


# Adam works through each parameter tensor in tiles of this many elements:
# a tile of each of the six arrays it touches (tensor, gradient, m, v and
# two scratch arrays) fits in a 2 MB L2 cache, so its fourteen elementwise
# operations read main memory about once per array instead of once each.
_ADAM_TILE = 32768


def adam_update(state: TrainState, name: str, grad: np.ndarray, cfg: TrainerConfig,
                rows: slice = slice(None)) -> None:
    """Standard bias-corrected Adam step, at step state.step, of the rows
    `rows` of the parameter tensor `name` from their gradient grad, in
    place, one tile at a time. Two tile-sized scratch arrays hold the
    temporaries, and every element sees the float operations of
    m = b1*m + g*(1-b1), v = b2*v + (g*(1-b2))*g and
    tensor -= (m/c1)*lr / (sqrt(v/c2) + eps) in that order, so a tensor
    stepped a block of rows at a time gets the bits of one whole step."""
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    scratch = np.empty((2, _ADAM_TILE))
    tensor, m, v = (a[rows] for a in (getattr(state.params, name), state.m[name], state.v[name]))
    if not (tensor.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
        raise TrainerError("Adam updates C-contiguous parameter tensors in place")
    tensor, g, m, v = (a.reshape(-1) for a in (tensor, grad, m, v))
    for lo in range(0, len(g), _ADAM_TILE):
        tile = slice(lo, lo + _ADAM_TILE)
        pt, gt, mt, vt = tensor[tile], g[tile], m[tile], v[tile]
        step, denom = scratch[:, :len(gt)]
        mt *= b1
        mt += np.multiply(gt, 1 - b1, out=step)
        vt *= b2
        np.multiply(gt, 1 - b2, out=step)
        vt += np.multiply(step, gt, out=step)
        np.divide(mt, c1, out=step)
        step *= state.lr
        np.divide(vt, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += cfg.eps
        step /= denom
        pt -= step


def lr_schedule_step(state: TrainState, epoch_loss: float, cfg: TrainerConfig) -> TrainState:
    """Plateau halving: after sched_patience consecutive non-improving
    epochs, multiply the rate by sched_factor (floored at lr_min) and skip
    one grace epoch before counting stalls again."""
    if epoch_loss < state.best_loss - cfg.sched_threshold:
        state.best_loss = epoch_loss
        state.stall = 0
    elif state.cooldown > 0:
        state.cooldown -= 1
    else:
        state.stall += 1
    if state.stall >= cfg.sched_patience:
        state.lr = max(state.lr * cfg.sched_factor, cfg.lr_min)
        state.stall = 0
        state.cooldown = 1
    return state


def train(episodes: Sequence[Episode], policy_cfg: PolicyConfig,
          trainer_cfg: TrainerConfig, checkpoint_path, progress=None):
    """Full behavior-cloning run on recorded episodes; returns the loss
    curve rows (epoch, mean_loss, lr).

    Each batch is one Adam step: `backward` hands over each gradient as
    soon as it is computed, and the run checks it finite, applies Adam to
    its tensor (or block of rows) and drops it, so no batch holds its
    whole gradient set. A gradient that is not finite raises
    NonFiniteGradient from the middle of the step: the tensors delivered
    before it in that batch have already moved, in memory only.

    The checkpoint file at checkpoint_path always holds the lowest-loss
    epoch so far: each epoch that improves on it is written there, through
    atomic_open, on one background thread. The write overlaps the next
    epoch's first forward and backward passes and is joined before its
    first gradient is applied, and before the run returns; an error in it
    is raised there. If no epoch's loss is below infinity, the file holds
    the initial parameters, drawn again from the seed."""
    if not episodes:
        raise EmptyDatasetError("no episodes to train on")
    for ep in episodes:
        if ep.n_frames == 0:
            raise EmptyEpisode(f"episode {ep.scenario_id} has no frames")
    beams = sorted({ep.n_beams for ep in episodes})
    if beams != [policy_cfg.n_beams]:
        raise TrainerError(f"episodes of {beams} beams; the policy reads {policy_cfg.n_beams}")
    n = len(episodes)
    shuffle_rng = rng_for(trainer_cfg.seed, "train:shuffle")
    mask_rng = rng_for(trainer_cfg.seed, "train:mask")
    state = TrainState.fresh(init_params(policy_cfg, rng_for(trainer_cfg.seed, "train:init")),
                             trainer_cfg)
    work = Workspace(policy_cfg,
                     min(n, trainer_cfg.batch_size) * max(ep.n_frames for ep in episodes))
    best_epoch_loss = float("inf")
    curve = []
    snapshot = None   # the pending write of the best epoch's parameters

    def apply(name, grad, rows):
        nonlocal snapshot
        if snapshot is not None:   # the update below changes what it writes
            snapshot.result()
            snapshot = None
        if not all_finite(grad):
            raise NonFiniteGradient(f"gradient for {name} is not finite")
        adam_update(state, name, grad, trainer_cfg, rows)

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="checkpoint") as writer:
        for epoch in range(1, trainer_cfg.epochs + 1):
            order = shuffle_rng.permutation(n)
            total = 0.0
            for start in range(0, n, trainer_cfg.batch_size):
                batch = [episodes[i] for i in order[start:start + trainer_cfg.batch_size]]
                draws = [mask_rng.random(ep.n_frames) < trainer_cfg.mask_p for ep in batch]
                state.step += 1
                losses = backward(state.params, policy_cfg, batch, draws, apply,
                                  trainer_cfg.speed_loss_weight, work)
                total += float(losses.sum())
            epoch_loss = total / n
            curve.append((epoch, epoch_loss, state.lr))
            lr_schedule_step(state, epoch_loss, trainer_cfg)
            if epoch_loss < best_epoch_loss:
                best_epoch_loss = epoch_loss
                snapshot = writer.submit(save_checkpoint_file, state.params, policy_cfg,
                                         checkpoint_path)
            if progress is not None:
                progress(epoch, epoch_loss, state.lr)
        if snapshot is not None:
            snapshot.result()
    if best_epoch_loss == float("inf"):
        save_checkpoint_file(init_params(policy_cfg, rng_for(trainer_cfg.seed, "train:init")),
                             policy_cfg, checkpoint_path)
    return curve


def write_loss_curve_csv(curve, path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        fh.write("epoch,mean_loss,lr\n")
        for epoch, loss, lr in curve:
            fh.write(f"{epoch},{repr(float(loss))},{repr(float(lr))}\n")
