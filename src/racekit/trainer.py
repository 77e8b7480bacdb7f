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
with u_h per step for the hidden-state gradient, one each for the w_x
and u_h gradients, and Adam steps each whole tensor in cache-sized
tiles; only `policy` knows the checkpoint's per-gate layout.

Every large array is held once. Backpropagation writes each frame's
gate gradients da over that frame's gate activations, once it has read
them, and the candidate's pre-activation gradient over the frame's m, so
da reuses the gate cache; it drops the decoder caches as soon as nothing
reads them. A run drops each batch's gradients after its Adam step. It
holds one parameter set: an epoch whose loss is the lowest yet is written
to the checkpoint file on a background thread while the next epoch's
first forward and backward passes compute, and the write is joined before
the Adam step that changes those parameters. The float operations, and
so the bytes, are those of separate arrays.
"""

from __future__ import annotations

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
        zeros = {k: np.zeros_like(t) for k, t in params.tensors().items()}
        return cls(params=params, m=zeros,
                   v={k: np.zeros_like(t) for k, t in params.tensors().items()},
                   lr=cfg.lr0)


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


def _forward_batch(params: PolicyParameters, cfg: PolicyConfig, scans, speeds, masked):
    """Roll the batch; returns predictions and the caches backward needs."""
    B, T, _ = scans.shape
    H = cfg.hidden_dim
    x = encode_inputs(scans, speeds, params, cfg, masked)   # (B, T, I)
    gates = x.reshape(B * T, -1) @ params.w_x.T              # px, then [u | r | n]
    gates += params.b_x
    gates = gates.reshape(B, T, 3 * H)
    hs = np.zeros((B, T + 1, H))
    m = np.empty((B, T, H))   # u_cand @ h_prev + b_cand_h
    for t in range(T):
        hs[:, t + 1], gates[:, t], m[:, t] = gru_cell(gates[:, t], hs[:, t], params)
    preds, relu1 = decode(hs[:, 1:].reshape(B * T, H), params)   # (B*T, 2), (B*T, M)
    caches = dict(x=x, hs=hs, gates=gates, m=m, relu1=relu1)
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
             speed_weight: float = 0.05):
    """Exact gradients of the batch-mean sequence loss for every tensor.

    Returns (grads dict, per-episode losses array)."""
    if not episodes:
        raise TrainerError("empty batch")
    scans, speeds, labels, masked, active = _pack_batch(episodes, mask_draws, cfg)
    B, T, _ = scans.shape
    preds, caches = _forward_batch(params, cfg, scans, speeds, masked)
    del scans
    losses, err, counts = _episode_losses(preds, labels, active, speed_weight)

    dpred = np.empty_like(err)
    # d(batch mean loss)/d(pred): each episode mean-normalized, batch-averaged
    dpred[..., 0] = 2.0 * speed_weight * err[..., 0] / counts[:, None] / B
    dpred[..., 1] = 2.0 * err[..., 1] / counts[:, None] / B

    x, hs, gates, m_all, relu = (caches.pop(k) for k in ("x", "hs", "gates", "m", "relu1"))
    H = cfg.hidden_dim

    # decoder backward (batched over all frames at once)
    flat_dpred = dpred.reshape(B * T, 2)
    g_dec_w2 = flat_dpred.T @ relu
    g_dec_b2 = flat_dpred.sum(axis=0)
    dz1 = (flat_dpred @ params.dec_w2) * (relu > 0)
    del relu
    g_dec_w1 = dz1.T @ hs[:, 1:].reshape(B * T, H)
    g_dec_b1 = dz1.sum(axis=0)
    dh_dec = (dz1 @ params.dec_w1).reshape(B, T, H)
    del dz1

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
        a_u = dh * (hs[:, t] - n) * u * (1.0 - u)
        a_r = a_n * m_all[:, t] * r * (1.0 - r)
        dm = a_n * r
        g[:, :H], g[:, H:2 * H], g[:, 2 * H:] = a_u, a_r, dm
        m_all[:, t] = a_n
        dh_next = carry + g @ params.u_h
    del dh_dec

    da_flat = gates.reshape(B * T, 3 * H)
    grads = {
        "u_h": da_flat.T @ hs[:, :-1].reshape(B * T, H),
        "b_cand_h": da_flat[:, 2 * H:].sum(axis=0),
        "dec_w1": g_dec_w1, "dec_b1": g_dec_b1,
        "dec_w2": g_dec_w2, "dec_b2": g_dec_b2,
    }
    # a_n replaces dm for the input-side gradients; hs and m are not read
    # again, so they go before those gradients are allocated
    da_flat[:, 2 * H:] = m_all.reshape(B * T, H)
    del hs, m_all
    grads["w_x"] = da_flat.T @ x.reshape(B * T, -1)
    grads["b_x"] = da_flat.sum(axis=0)
    if cfg.use_speed_input:
        demb = da_flat @ params.w_x[:, cfg.n_beams:]        # (B*T, E)
        masked_flat = masked.reshape(B * T)
        unmasked = ~masked_flat
        v_flat = speeds.reshape(B * T)
        grads["speed_w"] = (demb[unmasked] * v_flat[unmasked, None]).sum(axis=0)
        grads["speed_b"] = demb[unmasked].sum(axis=0)
        grads["mask_embed"] = demb[masked_flat].sum(axis=0)
    else:
        grads["speed_w"] = np.zeros_like(params.speed_w)
        grads["speed_b"] = np.zeros_like(params.speed_b)
        grads["mask_embed"] = np.zeros_like(params.mask_embed)
    for name, g in grads.items():
        if not all_finite(g):
            raise NonFiniteGradient(f"gradient for {name} is not finite")
    return grads, losses


# Adam works through each parameter tensor in tiles of this many elements:
# a tile of each of the six arrays it touches (tensor, gradient, m, v and
# two scratch arrays) fits in a 2 MB L2 cache, so its fourteen elementwise
# operations read main memory about once per array instead of once each.
_ADAM_TILE = 32768


def adam_update(state: TrainState, grads: dict[str, np.ndarray],
                cfg: TrainerConfig) -> TrainState:
    """Standard bias-corrected Adam step over every parameter tensor, in
    place, one tensor and one tile of it at a time. Two tile-sized scratch
    arrays hold the temporaries, and every element sees
    the float operations of m = b1*m + g*(1-b1), v = b2*v + (g*(1-b2))*g
    and tensor -= (m/c1)*lr / (sqrt(v/c2) + eps) in that order."""
    state.step += 1
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    scratch = np.empty((2, _ADAM_TILE))
    for name, tensor in state.params.tensors().items():
        g, m, v = grads[name], state.m[name], state.v[name]
        if not (tensor.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise TrainerError("Adam updates C-contiguous parameter tensors in place")
        tensor, g, m, v = (a.reshape(-1) for a in (tensor, g, m, v))
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
    return state


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

    The checkpoint file at checkpoint_path always holds the lowest-loss
    epoch so far: each epoch that improves on it is written there, through
    atomic_open, on one background thread. The write overlaps the next
    epoch's first forward and backward passes and is joined before its
    first Adam step, and before the run returns; an error in it is raised
    there. If no epoch's loss is below infinity, the file holds the
    initial parameters, drawn again from the seed."""
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
    best_epoch_loss = float("inf")
    curve = []
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="checkpoint") as writer:
        snapshot = None   # the pending write of the best epoch's parameters
        for epoch in range(1, trainer_cfg.epochs + 1):
            order = shuffle_rng.permutation(n)
            total = 0.0
            for start in range(0, n, trainer_cfg.batch_size):
                batch = [episodes[i] for i in order[start:start + trainer_cfg.batch_size]]
                draws = [mask_rng.random(ep.n_frames) < trainer_cfg.mask_p for ep in batch]
                grads, losses = backward(state.params, policy_cfg, batch, draws,
                                         trainer_cfg.speed_loss_weight)
                if snapshot is not None:   # the step below changes what it writes
                    snapshot.result()
                    snapshot = None
                state = adam_update(state, grads, trainer_cfg)
                del grads   # freed before the next backward allocates its own
                total += float(losses.sum())
            epoch_loss = total / n
            curve.append((epoch, epoch_loss, state.lr))
            state = lr_schedule_step(state, epoch_loss, trainer_cfg)
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
