import numpy as np
import pytest

from racekit.policy import InferenceSession, PolicyConfig, TENSOR_ORDER, init_params
from racekit.trainer import (
    EmptyDatasetError,
    TrainerConfig,
    TrainingEpisode,
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
    l_steer))."""
    if len(episode) == 0:
        raise EmptyEpisode("empty episode")
    scans, speeds, labels, masked, active = _pack_batch(
        [episode], [np.asarray(mask_draws, dtype=bool)], cfg)
    preds, _ = _forward_batch(params, cfg, scans, speeds, masked)
    loss, l_speed, l_steer = _episode_losses(preds, labels, active, speed_weight)
    return float(loss[0]), (float(l_speed[0]), float(l_steer[0]))


def tiny_episode(T=5, seed=0, n_beams=8):
    rng = np.random.default_rng(seed)
    return TrainingEpisode(
        scans=rng.uniform(0.1, 30.0, (T, n_beams)),
        speeds=rng.uniform(1.0, 8.0, T),
        labels=np.stack([rng.uniform(2, 8, T), rng.uniform(-0.4, 0.4, T)], axis=1),
    )


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
        ep.labels = np.tile([2.0, 0.1], (len(ep), 1))
        loss, (l_speed, l_steer) = sequence_loss(params, TINY, ep, np.zeros(len(ep), bool))
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
        ep.labels = preds[0]
        loss, _ = sequence_loss(params, TINY, ep, draws)
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_full_masking_ignores_speeds(self):
        params = init_params(TINY, np.random.default_rng(4))
        ep1 = tiny_episode(seed=1)
        ep2 = TrainingEpisode(scans=ep1.scans.copy(),
                              speeds=ep1.speeds + 3.7,
                              labels=ep1.labels.copy())
        draws = np.ones(len(ep1), bool)
        l1, _ = sequence_loss(params, TINY, ep1, draws)
        l2, _ = sequence_loss(params, TINY, ep2, draws)
        assert l1 == l2


class TestForwardBatch:
    def test_matches_step_by_step_inference(self):
        # teacher-forced training rolls equal the deployed session's rolls
        params = init_params(TINY, np.random.default_rng(8))
        episodes = [tiny_episode(T=7, seed=3), tiny_episode(T=4, seed=4)]
        draws = [np.array([False, True, False, False, True, False, True]),
                 np.array([True, False, False, False])]
        scans, speeds, _, masked, _ = _pack_batch(episodes, draws, TINY)
        preds, _ = _forward_batch(params, TINY, scans, speeds, masked)
        session = InferenceSession(params, TINY, dtype=np.float64)
        for b, (ep, d) in enumerate(zip(episodes, draws)):
            h = session.zero_hidden()
            for t in range(len(ep)):
                action, h = session.step(ep.scans[t], ep.speeds[t], h, masked=d[t])
                assert np.allclose(preds[b, t], action, rtol=0.0, atol=1e-12)


class TestBackward:
    def test_gradient_check_tiny_config(self):
        params = init_params(TINY, np.random.default_rng(7))
        episodes = [tiny_episode(T=5, seed=11)]
        draws = [np.array([True, False, True, False, False])]
        grads, _ = backward(params, TINY, episodes, draws)
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
        grads, _ = backward(params, TINY, episodes, draws)
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
        ep.labels = preds[0]
        grads, losses = backward(params, TINY, [ep], [draws])
        assert losses[0] == pytest.approx(0.0, abs=1e-24)
        for name in TENSOR_ORDER:
            assert np.allclose(grads[name], 0.0, atol=1e-18), name

    def test_mask_embed_grad_zero_when_unmasked(self):
        params = init_params(TINY, np.random.default_rng(1))
        ep = tiny_episode(T=6, seed=3)
        grads, _ = backward(params, TINY, [ep], [np.zeros(6, bool)])
        assert np.array_equal(grads["mask_embed"], np.zeros_like(params.mask_embed))

    def test_speed_grads_zero_when_fully_masked(self):
        params = init_params(TINY, np.random.default_rng(1))
        ep = tiny_episode(T=6, seed=3)
        grads, _ = backward(params, TINY, [ep], [np.ones(6, bool)])
        assert np.array_equal(grads["speed_w"], np.zeros_like(params.speed_w))
        assert np.array_equal(grads["speed_b"], np.zeros_like(params.speed_b))


class TestAdam:
    def test_zero_grad_no_move(self):
        cfg = TrainerConfig()
        params = init_params(TINY, np.random.default_rng(0))
        before = params.copy()
        state = TrainState.fresh(params, cfg)
        zero = {k: np.zeros_like(t) for k, t in params.tensors().items()}
        adam_update(state, zero, cfg)
        for name in TENSOR_ORDER:
            assert np.array_equal(getattr(state.params, name), getattr(before, name))
        assert state.step == 1

    def test_first_step_closed_form(self):
        cfg = TrainerConfig(lr0=0.01)
        params = init_params(TINY, np.random.default_rng(2))
        before = params.copy()
        state = TrainState.fresh(params, cfg)
        grads = {k: np.random.default_rng(5).normal(size=t.shape)
                 for k, t in params.tensors().items()}
        adam_update(state, grads, cfg)
        for name in TENSOR_ORDER:
            g = grads[name]
            expected = getattr(before, name) - 0.01 * g / (np.abs(g) + cfg.eps)
            assert np.allclose(getattr(state.params, name), expected, atol=1e-12), name

    def test_deterministic(self):
        def run():
            cfg = TrainerConfig(epochs=3, batch_size=2, seed=77)
            eps = [tiny_episode(T=4, seed=i) for i in range(5)]
            best, curve, state = train(eps, TINY, cfg)
            return best, curve
        p1, c1 = run()
        p2, c2 = run()
        assert c1 == c2
        for name in TENSOR_ORDER:
            assert np.array_equal(getattr(p1, name), getattr(p2, name))


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
    def test_overfit_single_episode(self):
        # rate sized for 500 single-episode Adam steps; the production
        # default 1e-3 cannot traverse the needed distance in that budget
        cfg = TrainerConfig(epochs=500, batch_size=1, mask_p=0.0, seed=1,
                            lr0=0.05, sched_threshold=1e-7, sched_patience=30)
        ep = tiny_episode(T=10, seed=42)
        best, curve, state = train([ep], TINY, cfg)
        losses = [row[1] for row in curve]
        assert min(losses) < 1e-4
        assert losses[-1] < 0.01 * losses[0]
        assert all(np.isfinite(l) for l in losses)

    def test_masking_changes_training(self):
        eps = [tiny_episode(T=6, seed=i) for i in range(4)]
        c0 = train(eps, TINY, TrainerConfig(epochs=3, mask_p=0.0, seed=5))[1]
        c1 = train(eps, TINY, TrainerConfig(epochs=3, mask_p=0.5, seed=5))[1]
        assert c0 != c1

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDatasetError):
            train([], TINY, TrainerConfig(epochs=1))

    def test_loss_curve_csv(self, tmp_path):
        eps = [tiny_episode(T=4, seed=1)]
        best, curve, _ = train(eps, TINY, TrainerConfig(epochs=3, seed=0))
        path = tmp_path / "curve.csv"
        write_loss_curve_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss,lr"
        assert len(lines) == 4
