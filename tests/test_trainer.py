import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from racekit import trainer
from racekit.policy import (PolicyConfig, TENSOR_ORDER, encode_inputs, forward, init_params,
                            save_checkpoint_file)
from racekit.scenario import (EpisodeFile, EpisodeRecord, Outcome, load_manifest_dataset,
                              save_dataset)
from racekit.seeding import rng_for
from racekit.trainer import (
    EmptyDatasetError,
    TrainerConfig,
    TrainState,
    adam_update,
    backward,
    EmptyEpisode,
    _episode_losses,
    _forward_batch,
    _pack_batch,
    lr_schedule_step,
    train,
    write_loss_curve_csv,
)

TINY = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2)


def sequence_loss(params, cfg, episode, mask_draws, speed_weight=0.05):
    """Loss of one episode under teacher forcing from a zero hidden state,
    through the trainer's batch kernels as a batch of one: the oracle the
    batched gradients are checked against. Returns (loss, (l_speed,
    l_steer)), the two mean squared errors taken from the masked errors."""
    if episode.n_frames == 0:
        raise EmptyEpisode("empty episode")
    scans, speeds, labels, masked, active = _pack_batch(
        [episode], [np.asarray(mask_draws, dtype=bool)], cfg)
    preds, _ = _forward_batch(params, cfg, scans, speeds, masked)
    loss, err, counts = _episode_losses(preds, labels, active, speed_weight)
    l_speed, l_steer = (err[0] ** 2).sum(axis=0) / counts[0]
    return float(loss[0]), (float(l_speed), float(l_steer))


def tiny_episode(T=5, seed=0, n_beams=8):
    """A recorded episode of T frames (float32, as collect records them)."""
    rng = np.random.default_rng(seed)
    return EpisodeRecord(
        scenario_id=f"tiny:{seed}", seed=seed,
        scans=rng.uniform(0.1, 30.0, (T, n_beams)).astype(np.float32),
        ego_v=rng.uniform(1.0, 8.0, T).astype(np.float32),
        actions=np.stack([rng.uniform(2, 8, T), rng.uniform(-0.4, 0.4, T)],
                         axis=1).astype(np.float32),
        outcome=Outcome.OVERTAKING, duration_actual=T / 10.0)


def collect_grads(params, cfg, episodes, draws, speed_weight=0.05):
    """backward's gradients gathered into one dict, each delivered block
    copied into place (a block is a view that the next one overwrites);
    an entry no delivery reaches stays NaN. Returns (grads, losses)."""
    grads = {k: np.full_like(t, np.nan) for k, t in params.tensors().items()}

    def keep(name, grad, rows):
        grads[name][rows] = grad

    losses = backward(params, cfg, episodes, draws, keep, speed_weight)
    return grads, losses


def finite_difference_grads(params, cfg, episodes, draws, speed_weight, step=1e-6):
    """Central differences of the batch-mean loss wrt every tensor entry."""
    def batch_loss():
        total = 0.0
        for ep, d in zip(episodes, draws):
            loss, _ = sequence_loss(params, cfg, ep, d, speed_weight)
            total += loss
        return total / len(episodes)

    fd = {}
    for name in TENSOR_ORDER:
        tensor = getattr(params, name)
        g = np.zeros_like(tensor)
        flat_t = tensor.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_t.size):
            orig = flat_t[i]
            flat_t[i] = orig + step
            hi = batch_loss()
            flat_t[i] = orig - step
            lo = batch_loss()
            flat_t[i] = orig
            flat_g[i] = (hi - lo) / (2 * step)
        fd[name] = g
    return fd


class TestSequenceLoss:
    def test_eq6_composition_hand_case(self):
        # all-zero params predict (0, 0); labels (2.0, 0.1) give
        # L_speed = 4, L_steer = 0.01, loss = 0.05*4 + 0.01 = 0.21
        params = init_params(TINY, np.random.default_rng(0))
        for name in TENSOR_ORDER:
            getattr(params, name)[:] = 0.0
        ep = tiny_episode()
        ep.actions = np.tile([2.0, 0.1], (ep.n_frames, 1))
        loss, (l_speed, l_steer) = sequence_loss(params, TINY, ep, np.zeros(ep.n_frames, bool))
        assert l_speed == pytest.approx(4.0, abs=1e-12)
        assert l_steer == pytest.approx(0.01, abs=1e-12)
        assert loss == pytest.approx(0.21, abs=1e-12)
        assert abs(loss - (0.05 * l_speed + l_steer)) < 1e-12

    def test_perfect_predictions_zero_loss(self):
        params = init_params(TINY, np.random.default_rng(3))
        ep = tiny_episode(T=4)
        draws = np.zeros(4, bool)
        # forge labels equal to the model's own outputs
        scans, speeds, labels, masked, active = _pack_batch([ep], [draws], TINY)
        preds, _ = _forward_batch(params, TINY, scans, speeds, masked)
        ep.actions = preds[0]
        loss, _ = sequence_loss(params, TINY, ep, draws)
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_full_masking_ignores_speeds(self):
        params = init_params(TINY, np.random.default_rng(4))
        ep1 = tiny_episode(seed=1)
        ep2 = replace(ep1, ego_v=ep1.ego_v + np.float32(3.7))
        draws = np.ones(ep1.n_frames, bool)
        l1, _ = sequence_loss(params, TINY, ep1, draws)
        l2, _ = sequence_loss(params, TINY, ep2, draws)
        assert l1 == l2


class TestForwardBatch:
    def test_matches_step_by_step_inference(self):
        # teacher-forced training rolls equal step-by-step `forward` rolls
        params = init_params(TINY, np.random.default_rng(8))
        episodes = [tiny_episode(T=7, seed=3), tiny_episode(T=4, seed=4)]
        draws = [np.array([False, True, False, False, True, False, True]),
                 np.array([True, False, False, False])]
        scans, speeds, _, masked, _ = _pack_batch(episodes, draws, TINY)
        preds, _ = _forward_batch(params, TINY, scans, speeds, masked)
        for b, (ep, d) in enumerate(zip(episodes, draws)):
            h = np.zeros(TINY.hidden_dim)
            for t in range(ep.n_frames):
                x = encode_inputs(ep.scans[t], ep.ego_v[t], params, TINY, masked=d[t])
                action, h = forward(x, h, params)
                assert np.allclose(preds[b, t], action, rtol=0.0, atol=1e-12)


class TestBackward:
    def test_gradient_check_tiny_config(self):
        params = init_params(TINY, np.random.default_rng(7))
        episodes = [tiny_episode(T=5, seed=11)]
        draws = [np.array([True, False, True, False, False])]
        grads, _ = collect_grads(params, TINY, episodes, draws)
        fd = finite_difference_grads(params, TINY, episodes, draws, 0.05)
        # 1e-9 absolute floor = 10x the central-difference roundoff
        # (eps * loss / step); below it relative error is unmeasurable
        for name in TENSOR_ORDER:
            a, n = grads[name], fd[name]
            bound = 1e-4 * np.maximum(np.abs(a), np.abs(n)) + 1e-9
            assert np.all(np.abs(a - n) <= bound), \
                f"{name}: worst {(np.abs(a - n) - bound).max():.2e} above bound"

    def test_gradient_check_variable_length_batch(self):
        params = init_params(TINY, np.random.default_rng(9))
        episodes = [tiny_episode(T=5, seed=1), tiny_episode(T=3, seed=2)]
        draws = [np.array([False, True, False, False, True]),
                 np.array([True, False, False])]
        grads, _ = collect_grads(params, TINY, episodes, draws)
        fd = finite_difference_grads(params, TINY, episodes, draws, 0.05)
        for name in TENSOR_ORDER:
            a, n = grads[name], fd[name]
            bound = 1e-4 * np.maximum(np.abs(a), np.abs(n)) + 1e-9
            assert np.all(np.abs(a - n) <= bound), name

    def test_zero_loss_zero_grads(self):
        params = init_params(TINY, np.random.default_rng(3))
        ep = tiny_episode(T=4, seed=5)
        draws = np.zeros(4, bool)
        scans, speeds, labels, masked, active = _pack_batch([ep], [draws], TINY)
        preds, _ = _forward_batch(params, TINY, scans, speeds, masked)
        ep.actions = preds[0]
        grads, losses = collect_grads(params, TINY, [ep], [draws])
        assert losses[0] == pytest.approx(0.0, abs=1e-24)
        for name in TENSOR_ORDER:
            assert np.allclose(grads[name], 0.0, atol=1e-18), name

    def test_mask_embed_grad_zero_when_unmasked(self):
        params = init_params(TINY, np.random.default_rng(1))
        ep = tiny_episode(T=6, seed=3)
        grads, _ = collect_grads(params, TINY, [ep], [np.zeros(6, bool)])
        assert np.array_equal(grads["mask_embed"], np.zeros_like(params.mask_embed))

    def test_peak_memory_holds_the_caches_once(self):
        """One backward holds the forward caches (gates, the hidden states
        each frame starts and ends in, m, x) and the largest gradient block
        at its peak, plus 10% for the smaller arrays: da is written over the
        gate cache, a_n over m and dh_dec over the decoder's input, and the
        gradients are handed over a block at a time, so neither a separate
        da (as large as the gates) nor u_h's whole gradient can fit."""
        cfg = PolicyConfig(n_beams=32, embed_dim=4, hidden_multiplier=8)
        params = init_params(cfg, np.random.default_rng(0))
        B, T = 4, 60
        episodes = [tiny_episode(T=T, seed=i, n_beams=32) for i in range(B)]
        draws = [np.zeros(T, bool) for _ in range(B)]
        I, H, M = cfg.input_dim, cfg.hidden_dim, cfg.mlp_hidden_dim
        caches = 8 * B * T * (3 * H + 2 * H + H + I)
        largest_block = 8 * max(H * H, 3 * H * I, M * H)
        tracemalloc.start()
        try:
            backward(params, cfg, episodes, draws, lambda name, grad, rows: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert caches < peak < 1.1 * (caches + largest_block)

    def test_each_gradient_follows_the_last_read_of_its_tensor(self):
        """A consumer that overwrites each tensor's delivered rows with NaN
        at once still gathers every entry of every gradient exactly once,
        with the bits of a consumer that changes nothing: no tensor is read
        after its gradient is handed over, and u_h comes in its three
        gate-row blocks."""
        cfg = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2)
        episodes = [tiny_episode(T=5, seed=1), tiny_episode(T=3, seed=2)]
        draws = [np.array([False, True, False, False, True]), np.array([True, False, False])]
        want, want_losses = collect_grads(init_params(cfg, np.random.default_rng(9)), cfg,
                                          episodes, draws)
        params = init_params(cfg, np.random.default_rng(9))
        got = {k: np.zeros_like(t) for k, t in params.tensors().items()}
        hits = {k: np.zeros(t.shape, int) for k, t in params.tensors().items()}
        delivered = []

        def poison(name, grad, rows):
            got[name][rows] = grad
            hits[name][rows] += 1
            getattr(params, name)[rows] = np.nan
            delivered.append((name, rows))

        losses = backward(params, cfg, episodes, draws, poison)
        assert losses.tobytes() == want_losses.tobytes()
        H = cfg.hidden_dim
        assert [rows for name, rows in delivered if name == "u_h"] == [
            slice(0, H), slice(H, 2 * H), slice(2 * H, 3 * H)]
        for name in TENSOR_ORDER:
            assert np.all(hits[name] == 1), name
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_speed_grads_zero_when_fully_masked(self):
        params = init_params(TINY, np.random.default_rng(1))
        ep = tiny_episode(T=6, seed=3)
        grads, _ = collect_grads(params, TINY, [ep], [np.ones(6, bool)])
        assert np.array_equal(grads["speed_w"], np.zeros_like(params.speed_w))
        assert np.array_equal(grads["speed_b"], np.zeros_like(params.speed_b))


class TestAdam:
    def test_zero_grad_no_move(self):
        cfg = TrainerConfig()
        params = init_params(TINY, np.random.default_rng(0))
        before = init_params(TINY, np.random.default_rng(0))
        state = TrainState.fresh(params, cfg)
        state.step += 1
        for name, t in params.tensors().items():
            adam_update(state, name, np.zeros_like(t), cfg)
        for name in TENSOR_ORDER:
            assert np.array_equal(getattr(state.params, name), getattr(before, name))
        assert state.step == 1

    def test_first_step_closed_form(self):
        cfg = TrainerConfig(lr0=0.01)
        params = init_params(TINY, np.random.default_rng(2))
        before = init_params(TINY, np.random.default_rng(2))
        state = TrainState.fresh(params, cfg)
        grads = {k: np.random.default_rng(5).normal(size=t.shape)
                 for k, t in params.tensors().items()}
        state.step += 1
        for name, g in grads.items():
            adam_update(state, name, g, cfg)
        for name in TENSOR_ORDER:
            g = grads[name]
            expected = getattr(before, name) - 0.01 * g / (np.abs(g) + cfg.eps)
            assert np.allclose(getattr(state.params, name), expected, atol=1e-12), name

    @pytest.mark.parametrize("tile", [7, 64, 32768])
    def test_tiles_match_the_whole_tensor_update(self, monkeypatch, tile):
        """Three steps in tiles of any size, partial last tiles included,
        and with u_h stepped a gate-row block at a time, give the bits of
        the same expressions over whole tensors."""
        monkeypatch.setattr(trainer, "_ADAM_TILE", tile)
        cfg = TrainerConfig(lr0=0.01)
        params = init_params(TINY, np.random.default_rng(2))
        state = TrainState.fresh(params, cfg)
        want = {k: t.copy() for k, t in params.tensors().items()}
        m = {k: np.zeros_like(t) for k, t in want.items()}
        v = {k: np.zeros_like(t) for k, t in want.items()}
        rng = np.random.default_rng(5)
        for step in range(1, 4):
            grads = {k: rng.normal(size=t.shape) for k, t in want.items()}
            state.step += 1
            for name, g in grads.items():
                for rows in np.array_split(np.arange(len(g)), 3 if name == "u_h" else 1):
                    rows = slice(rows[0], rows[-1] + 1)
                    adam_update(state, name, g[rows], cfg, rows)
            c1, c2 = 1.0 - cfg.beta1 ** step, 1.0 - cfg.beta2 ** step
            for k, g in grads.items():
                m[k] = m[k] * cfg.beta1 + (1 - cfg.beta1) * g
                v[k] = v[k] * cfg.beta2 + (1 - cfg.beta2) * g * g
                want[k] = want[k] - cfg.lr0 * (m[k] / c1) / (np.sqrt(v[k] / c2) + cfg.eps)
        for name in TENSOR_ORDER:
            got = getattr(state.params, name)
            assert got.tobytes() == want[name].tobytes(), name

    def test_deterministic(self, tmp_path):
        def run(path):
            cfg = TrainerConfig(epochs=3, batch_size=2, seed=77)
            eps = [tiny_episode(T=4, seed=i) for i in range(5)]
            return train(eps, TINY, cfg, path)
        c1 = run(tmp_path / "1.ckpt")
        c2 = run(tmp_path / "2.ckpt")
        assert c1 == c2
        assert (tmp_path / "1.ckpt").read_bytes() == (tmp_path / "2.ckpt").read_bytes()


class TestSchedule:
    def run_epochs(self, losses, cfg):
        params = init_params(TINY, np.random.default_rng(0))
        state = TrainState.fresh(params, cfg)
        lr_by_epoch = []
        for loss in losses:
            state = lr_schedule_step(state, loss, cfg)
            lr_by_epoch.append(state.lr)
        return lr_by_epoch

    def test_constant_loss_halves_at_11_22(self):
        cfg = TrainerConfig(lr0=0.001, sched_patience=10)
        lrs = self.run_epochs([1.0] * 25, cfg)
        # lr after each epoch: halved at epochs 11 and 22
        assert lrs[9] == 0.001
        assert lrs[10] == 0.0005      # epoch 11
        assert lrs[20] == 0.0005
        assert lrs[21] == 0.00025     # epoch 22
        assert lrs[24] == 0.00025

    def test_decreasing_loss_keeps_lr(self):
        cfg = TrainerConfig(lr0=0.001)
        losses = list(np.linspace(1.0, 0.1, 40))
        lrs = self.run_epochs(losses, cfg)
        assert all(lr == 0.001 for lr in lrs)

    def test_lr_floor(self):
        cfg = TrainerConfig(lr0=4e-6, lr_min=1e-6, sched_patience=2)
        lrs = self.run_epochs([1.0] * 30, cfg)
        assert min(lrs) == 1e-6
        assert lrs[-1] == 1e-6


class TestTrain:
    def test_overfit_single_episode(self, tmp_path):
        # rate sized for 500 single-episode Adam steps; the production
        # default 1e-3 cannot traverse the needed distance in that budget
        cfg = TrainerConfig(epochs=500, batch_size=1, mask_p=0.0, seed=1,
                            lr0=0.05, sched_threshold=1e-7, sched_patience=30)
        ep = tiny_episode(T=10, seed=42)
        curve = train([ep], TINY, cfg, tmp_path / "policy.ckpt")
        losses = [row[1] for row in curve]
        assert min(losses) < 1e-4
        assert losses[-1] < 0.01 * losses[0]
        assert all(np.isfinite(l) for l in losses)

    def test_masking_changes_training(self, tmp_path):
        eps = [tiny_episode(T=6, seed=i) for i in range(4)]
        c0 = train(eps, TINY, TrainerConfig(epochs=3, mask_p=0.0, seed=5), tmp_path / "0.ckpt")
        c1 = train(eps, TINY, TrainerConfig(epochs=3, mask_p=0.5, seed=5), tmp_path / "1.ckpt")
        assert c0 != c1

    def test_empty_dataset_raises(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            train([], TINY, TrainerConfig(epochs=1), tmp_path / "policy.ckpt")
        assert not tmp_path.joinpath("policy.ckpt").exists()

    def test_zero_frame_episode_raises(self, tmp_path):
        with pytest.raises(EmptyEpisode, match="tiny:1"):
            train([tiny_episode(T=4), tiny_episode(T=0, seed=1)], TINY, TrainerConfig(epochs=1),
                  tmp_path / "policy.ckpt")

    def test_loss_curve_csv(self, tmp_path):
        eps = [tiny_episode(T=4, seed=1)]
        curve = train(eps, TINY, TrainerConfig(epochs=3, seed=0), tmp_path / "policy.ckpt")
        path = tmp_path / "curve.csv"
        write_loss_curve_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss,lr"
        assert len(lines) == 4

    def test_episode_files_train_as_records_do(self, tmp_path):
        """Episodes opened from a dataset, read a batch at a time, give the
        loss curve and checkpoint bytes of the same records in memory."""
        eps = [tiny_episode(T=4 + i, seed=i) for i in range(5)]
        save_dataset(tmp_path, [(f"ep_{i}.bin", ep) for i, ep in enumerate(eps)])
        files = load_manifest_dataset(tmp_path / "dataset.json")
        assert all(isinstance(ep, EpisodeFile) for ep in files)
        cfg = TrainerConfig(epochs=2, batch_size=2, seed=3)
        assert train(files, TINY, cfg, tmp_path / "f.ckpt") == train(eps, TINY, cfg,
                                                                     tmp_path / "r.ckpt")
        assert (tmp_path / "f.ckpt").read_bytes() == (tmp_path / "r.ckpt").read_bytes()

    def test_slow_checkpoint_write_still_holds_its_epoch(self, tmp_path, monkeypatch):
        """A write still running when the next epoch reaches its Adam step
        is waited for: with every write delayed past the next epoch's
        compute, and the interpreter switching threads every microsecond,
        the checkpoint of a run whose best epoch is not its last keeps the
        bytes of undelayed writes."""
        eps = [tiny_episode(T=6, seed=i) for i in range(4)]
        cfg = TrainerConfig(epochs=8, batch_size=2, lr0=0.5, seed=1)
        train(eps, TINY, cfg, tmp_path / "prompt.ckpt")
        real_save = trainer.save_checkpoint_file

        def slow_save(*args):
            time.sleep(0.05)
            real_save(*args)

        monkeypatch.setattr(trainer, "save_checkpoint_file", slow_save)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            losses = [row[1] for row in train(eps, TINY, cfg, tmp_path / "slow.ckpt")]
        finally:
            sys.setswitchinterval(interval)
        assert int(np.argmin(losses)) + 1 < cfg.epochs
        assert (tmp_path / "slow.ckpt").read_bytes() == (tmp_path / "prompt.ckpt").read_bytes()

    def test_no_improving_epoch_writes_the_initial_parameters(self, tmp_path, monkeypatch):
        """Epoch losses that are never below infinity leave the initial
        parameters in the checkpoint, though Adam moved the parameters."""
        def nan_losses(params, cfg, episodes, draws, consume, speed_weight, work):
            for k, t in params.tensors().items():
                consume(k, np.ones_like(t), slice(None))
            return np.full(len(episodes), np.nan)

        monkeypatch.setattr(trainer, "backward", nan_losses)
        cfg = TrainerConfig(epochs=2, seed=4)
        train([tiny_episode(T=3)], TINY, cfg, tmp_path / "policy.ckpt")
        save_checkpoint_file(init_params(TINY, rng_for(cfg.seed, "train:init")), TINY,
                             tmp_path / "init.ckpt")
        assert (tmp_path / "policy.ckpt").read_bytes() == (tmp_path / "init.ckpt").read_bytes()

    def test_checkpoint_write_error_is_raised(self, tmp_path, monkeypatch):
        """A write that fails on the background thread fails the run."""
        def failing_save(params, cfg, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(trainer, "save_checkpoint_file", failing_save)
        with pytest.raises(OSError, match="No space"):
            train([tiny_episode(T=3)], TINY, TrainerConfig(epochs=3), tmp_path / "policy.ckpt")
