"""Behavior-cloning trainer.

Full-sequence teacher forcing over recorded episodes: the policy is rolled
from a zero hidden state across every frame, the loss is a weighted sum of
speed and steering mean squared errors (weight 0.05 on speed), gradients
come from exact backpropagation through the whole recurrence, parameters
move under Adam, and the learning rate halves whenever the epoch loss
plateaus. Random speed-embedding masking (Bernoulli per frame) fights
shortcut copying of the current speed into the speed command.

Episodes inside a batch are padded to a common length and masked out of
the loss, which reproduces independent per-episode rolls exactly while
keeping the matmuls batched. Double precision throughout.

The forward pass projects the inputs of all B x T frames through the
packed w_x in one GEMM before the time loop, then runs `policy.gru_cell`
once per step, which writes each step's gate activations over its slice
of that projection. Backpropagation mirrors the packed layout: one GEMM
with u_h per step for the hidden-state gradient, one each for the w_x
and u_h gradients, and Adam steps every tensor by the row blocks of
`policy.CHECKPOINT_LAYOUT`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._atomic import atomic_open
from .policy import (PolicyConfig, PolicyParameters, encode_inputs, gru_cell, init_params,
                     layout_blocks)
from .scenario import Dataset, EpisodeRecord
from .seeding import rng_for


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
    loss_history: list[float] = field(default_factory=list)

    @classmethod
    def fresh(cls, params: PolicyParameters, cfg: TrainerConfig) -> "TrainState":
        zeros = {k: np.zeros_like(t) for k, t in params.tensors().items()}
        return cls(params=params, m=zeros,
                   v={k: np.zeros_like(t) for k, t in params.tensors().items()},
                   lr=cfg.lr0)


@dataclass
class TrainingEpisode:
    """Episode tensors ready for teacher forcing (float64)."""

    scans: np.ndarray    # (T, n_beams)
    speeds: np.ndarray   # (T,)
    labels: np.ndarray   # (T, 2) expert (v_cmd, delta_cmd)

    @classmethod
    def from_record(cls, rec: EpisodeRecord) -> "TrainingEpisode":
        if rec.n_frames == 0:
            raise EmptyEpisode(f"episode {rec.scenario_id} has no frames")
        return cls(scans=rec.scans.astype(np.float64),
                   speeds=rec.ego_v.astype(np.float64),
                   labels=rec.actions.astype(np.float64))

    def __len__(self):
        return len(self.speeds)


def _pack_batch(episodes, mask_draws, cfg: PolicyConfig):
    """Pad episodes to the longest length; active[b, t] marks real frames."""
    B = len(episodes)
    T = max(len(ep) for ep in episodes)
    scans = np.zeros((B, T, cfg.n_beams))
    speeds = np.zeros((B, T))
    labels = np.zeros((B, T, 2))
    masked = np.zeros((B, T), dtype=bool)
    active = np.zeros((B, T), dtype=bool)
    for b, (ep, draws) in enumerate(zip(episodes, mask_draws)):
        t = len(ep)
        if len(draws) != t:
            raise TrainerError(f"mask draws length {len(draws)} != episode length {t}")
        scans[b, :t] = ep.scans
        speeds[b, :t] = ep.speeds
        labels[b, :t] = ep.labels
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
    flat_h = hs[:, 1:].reshape(B * T, H)
    pre1 = flat_h @ params.dec_w1.T + params.dec_b1          # (B*T, M)
    relu1 = np.maximum(pre1, 0.0)
    preds = (relu1 @ params.dec_w2.T + params.dec_b2).reshape(B, T, 2)
    caches = dict(x=x, hs=hs, gates=gates, m=m, relu1=relu1.reshape(B, T, -1))
    return preds, caches


def _episode_losses(preds, labels, active, speed_weight):
    """Per-episode loss and (speed, steer) MSE terms, masked means."""
    counts = active.sum(axis=1)
    err = np.where(active[..., None], preds - labels, 0.0)
    l_speed = (err[..., 0] ** 2).sum(axis=1) / counts
    l_steer = (err[..., 1] ** 2).sum(axis=1) / counts
    return speed_weight * l_speed + l_steer, l_speed, l_steer


def backward(params: PolicyParameters, cfg: PolicyConfig,
             episodes: list[TrainingEpisode], mask_draws: list[np.ndarray],
             speed_weight: float = 0.05):
    """Exact gradients of the batch-mean sequence loss for every tensor.

    Returns (grads dict, per-episode losses array)."""
    if not episodes:
        raise TrainerError("empty batch")
    scans, speeds, labels, masked, active = _pack_batch(episodes, mask_draws, cfg)
    B, T, _ = scans.shape
    preds, caches = _forward_batch(params, cfg, scans, speeds, masked)
    losses, _, _ = _episode_losses(preds, labels, active, speed_weight)

    counts = active.sum(axis=1).astype(float)                # frames per episode
    err = np.where(active[..., None], preds - labels, 0.0)
    dpred = np.empty_like(err)
    # d(batch mean loss)/d(pred): each episode mean-normalized, batch-averaged
    dpred[..., 0] = 2.0 * speed_weight * err[..., 0] / counts[:, None] / B
    dpred[..., 1] = 2.0 * err[..., 1] / counts[:, None] / B

    x, hs, gates, m_all = caches["x"], caches["hs"], caches["gates"], caches["m"]
    relu1 = caches["relu1"]
    H = cfg.hidden_dim

    # decoder backward (batched over all frames at once)
    flat_dpred = dpred.reshape(B * T, 2)
    flat_relu = relu1.reshape(B * T, -1)
    g_dec_w2 = flat_dpred.T @ flat_relu
    g_dec_b2 = flat_dpred.sum(axis=0)
    dz1 = (flat_dpred @ params.dec_w2) * (flat_relu > 0)
    g_dec_w1 = dz1.T @ hs[:, 1:].reshape(B * T, H)
    g_dec_b1 = dz1.sum(axis=0)
    dh_dec = (dz1 @ params.dec_w1).reshape(B, T, H)

    # da holds [a_u | a_r | dm] per frame, the gradients that reach u_h;
    # the candidate pre-activation gradient a_n replaces dm after the u_h
    # gradient is taken, for the input-side gradients
    da = np.empty((B, T, 3 * H))
    a_n_all = np.empty((B, T, H))
    dh_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        dh = dh_dec[:, t] + dh_next
        g = gates[:, t]
        u, r, n = g[:, :H], g[:, H:2 * H], g[:, 2 * H:]
        a_n = dh * (1.0 - u) * (1.0 - n * n)
        da[:, t, :H] = dh * (hs[:, t] - n) * u * (1.0 - u)
        da[:, t, H:2 * H] = a_n * m_all[:, t] * r * (1.0 - r)
        da[:, t, 2 * H:] = a_n * r
        a_n_all[:, t] = a_n
        dh_next = dh * u + da[:, t] @ params.u_h

    da_flat = da.reshape(B * T, 3 * H)
    grads = {
        "u_h": da_flat.T @ hs[:, :-1].reshape(B * T, H),
        "b_cand_h": da_flat[:, 2 * H:].sum(axis=0),
        "dec_w1": g_dec_w1, "dec_b1": g_dec_b1,
        "dec_w2": g_dec_w2, "dec_b2": g_dec_b2,
    }
    da[..., 2 * H:] = a_n_all
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
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name} is not finite")
    return grads, losses


def adam_update(state: TrainState, grads: dict[str, np.ndarray],
                cfg: TrainerConfig) -> TrainState:
    """Standard bias-corrected Adam step over every parameter tensor, one
    checkpoint-layout block at a time (elementwise, so blocking only bounds
    the temporaries)."""
    state.step += 1
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    blocks = [layout_blocks(d) for d in (state.params.tensors(), grads, state.m, state.v)]
    for (_, tensor), (_, g), (_, m), (_, v) in zip(*blocks):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        tensor -= state.lr * (m / c1) / (np.sqrt(v / c2) + cfg.eps)
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


def train(dataset, policy_cfg: PolicyConfig, trainer_cfg: TrainerConfig,
          progress=None):
    """Full behavior-cloning run.

    dataset: a scenario.Dataset, a list of EpisodeRecord, or a list of
    TrainingEpisode. Returns (best parameters, loss curve rows
    (epoch, mean_loss, lr), final TrainState)."""
    if isinstance(dataset, Dataset):
        records = dataset.episodes
    else:
        records = dataset
    episodes = [ep if isinstance(ep, TrainingEpisode) else TrainingEpisode.from_record(ep)
                for ep in records]
    if not episodes:
        raise EmptyDatasetError("no episodes to train on")
    n = len(episodes)
    shuffle_rng = rng_for(trainer_cfg.seed, "train:shuffle")
    mask_rng = rng_for(trainer_cfg.seed, "train:mask")
    params = init_params(policy_cfg, rng_for(trainer_cfg.seed, "train:init"))
    state = TrainState.fresh(params, trainer_cfg)
    best_params = params.copy()
    best_epoch_loss = float("inf")
    curve = []
    for epoch in range(1, trainer_cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, trainer_cfg.batch_size):
            batch_idx = order[start:start + trainer_cfg.batch_size]
            batch = [episodes[i] for i in batch_idx]
            draws = [mask_rng.random(len(ep)) < trainer_cfg.mask_p for ep in batch]
            grads, losses = backward(state.params, policy_cfg, batch, draws,
                                     trainer_cfg.speed_loss_weight)
            state = adam_update(state, grads, trainer_cfg)
            total += float(losses.sum())
        epoch_loss = total / n
        state.loss_history.append(epoch_loss)
        curve.append((epoch, epoch_loss, state.lr))
        state = lr_schedule_step(state, epoch_loss, trainer_cfg)
        if epoch_loss < best_epoch_loss:
            best_epoch_loss = epoch_loss
            best_params = state.params.copy()
        if progress is not None:
            progress(epoch, epoch_loss, state.lr)
    return best_params, curve, state


def write_loss_curve_csv(curve, path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        fh.write("epoch,mean_loss,lr\n")
        for epoch, loss, lr in curve:
            fh.write(f"{epoch},{repr(float(loss))},{repr(float(lr))}\n")
