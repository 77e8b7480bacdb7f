import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_bits, reference_forward_step
from racekit.policy import (
    CorruptCheckpoint,
    InferenceSession,
    PolicyConfig,
    PolicyParameters,
    ShapeMismatch,
    TENSOR_ORDER,
    VersionMismatch,
    decode,
    embed_speed,
    forward_step,
    gru_step,
    init_params,
    load_checkpoint,
    normalize_scan,
    save_checkpoint,
)

TINY = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2)


def tiny_params(seed=0, cfg=TINY):
    return init_params(cfg, np.random.default_rng(seed))


def zero_params(cfg=TINY):
    p = tiny_params(cfg=cfg)
    for name in TENSOR_ORDER:
        getattr(p, name)[:] = 0.0
    return p


class TestNormalizeScan:
    def test_zero_range_is_one(self):
        assert normalize_scan(np.array([0.0]), 0.5)[0] == 1.0

    def test_half_pressure_point(self):
        x = 2.0 * math.log(3.0)
        assert normalize_scan(np.array([x]), 0.5)[0] == pytest.approx(0.5, abs=1e-12)

    def test_max_range_tail(self):
        val = normalize_scan(np.array([30.0]), 0.5)[0]
        assert val == pytest.approx(6.1e-7, abs=1e-8)

    def test_strictly_decreasing(self):
        x = np.linspace(0.0, 40.0, 500)
        y = normalize_scan(x, 0.5)
        assert np.all(np.diff(y) < 0)
        assert np.all((y > 0) & (y <= 1.0))

    @given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_range_property(self, x, k):
        y = normalize_scan(np.array([x]), k)[0]
        assert 0.0 < y <= 1.0


class TestEmbedSpeed:
    def test_masked_ignores_speed(self):
        p = tiny_params()
        a = embed_speed(3.0, p, masked=True)
        b = embed_speed(-17.0, p, masked=True)
        assert np.array_equal(a, b)
        assert np.array_equal(a, p.mask_embed)

    def test_zero_speed_gives_bias(self):
        p = tiny_params()
        assert np.array_equal(embed_speed(0.0, p), p.speed_b)

    def test_affinity(self):
        p = tiny_params()
        v = 2.3
        lhs = embed_speed(2 * v, p) - embed_speed(v, p)
        rhs = embed_speed(v, p) - embed_speed(0.0, p)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestGruStep:
    def test_zero_params_halve_hidden(self):
        p = zero_params()
        h = np.linspace(-0.9, 0.9, TINY.hidden_dim)
        x = np.ones(TINY.input_dim)
        h2 = gru_step(x, h, p)
        assert np.array_equal(h2, 0.5 * h)

    def test_zero_fixed_point(self):
        p = zero_params()
        h = np.zeros(TINY.hidden_dim)
        assert np.array_equal(gru_step(np.ones(TINY.input_dim), h, p), h)

    def test_shape_mismatch(self):
        p = tiny_params()
        with pytest.raises(ShapeMismatch):
            gru_step(np.ones(3), np.zeros(TINY.hidden_dim), p)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_hidden_bounded(self, seed):
        rng = np.random.default_rng(seed)
        p = init_params(TINY, rng)
        h = rng.uniform(-1, 1, TINY.hidden_dim) * 0.999
        x = rng.uniform(0, 1, TINY.input_dim)
        for _ in range(5):
            h = gru_step(x, h, p)
            assert np.all(np.abs(h) < 1.0)

    def test_batched_matches_loop(self):
        p = tiny_params(3)
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, 1, (4, TINY.input_dim))
        hs = rng.uniform(-0.5, 0.5, (4, TINY.hidden_dim))
        batched = gru_step(xs, hs, p)
        for i in range(4):
            assert np.allclose(batched[i], gru_step(xs[i], hs[i], p), atol=1e-15)


class TestDecode:
    def test_all_zero(self):
        p = zero_params()
        assert np.array_equal(decode(np.zeros(TINY.hidden_dim), p), np.zeros(2))

    def test_bias_passthrough(self):
        p = zero_params()
        p.dec_b2[:] = [3.0, 0.1]
        out = decode(np.linspace(-1, 1, TINY.hidden_dim), p)
        assert np.array_equal(out, [3.0, 0.1])

    def test_hand_matrix_case(self):
        cfg = PolicyConfig(n_beams=2, embed_dim=2, hidden_multiplier=1)
        assert cfg.hidden_dim == 4 and cfg.mlp_hidden_dim == 1
        cfg = PolicyConfig(n_beams=2, embed_dim=2, hidden_multiplier=1, mlp_hidden=2)
        p = init_params(cfg, np.random.default_rng(0))
        h = np.array([0.1, -0.2, 0.3, -0.4])
        pre = p.dec_w1 @ h + p.dec_b1
        expected = p.dec_w2 @ np.maximum(pre, 0) + p.dec_b2
        assert np.allclose(decode(h, p), expected, atol=1e-12)


class TestForwardStep:
    def test_deterministic(self):
        p = tiny_params(1)
        scan = np.random.default_rng(2).uniform(0.1, 30, TINY.n_beams)
        h = np.zeros(TINY.hidden_dim)
        a1, h1 = forward_step(scan, 2.0, h, p, TINY)
        a2, h2 = forward_step(scan, 2.0, h, p, TINY)
        assert np.array_equal(a1, a2) and np.array_equal(h1, h2)

    def test_zeroed_beam_max_pressure(self):
        scan = np.full(TINY.n_beams, 20.0)
        scan[3] = 0.0
        tokens = normalize_scan(scan, TINY.sigmoid_k)
        assert tokens[3] == 1.0
        assert np.all(tokens[np.arange(TINY.n_beams) != 3] < 0.01)

    def test_mask_substitution_equivalence(self):
        p = tiny_params(4)
        v = 1.7
        p.mask_embed[:] = embed_speed(v, p)
        scan = np.random.default_rng(0).uniform(0.1, 30, TINY.n_beams)
        h = np.zeros(TINY.hidden_dim)
        a1, h1 = forward_step(scan, v, h, p, TINY, masked=False)
        a2, h2 = forward_step(scan, v, h, p, TINY, masked=True)
        assert np.array_equal(a1, a2) and np.array_equal(h1, h2)

    def test_lidar_only_invariant_to_speed(self):
        cfg = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2,
                           use_speed_input=False)
        p = init_params(cfg, np.random.default_rng(0))
        scan = np.random.default_rng(1).uniform(0.1, 30, cfg.n_beams)
        h = np.zeros(cfg.hidden_dim)
        a1, _ = forward_step(scan, 0.0, h, p, cfg)
        a2, _ = forward_step(scan, 9.0, h, p, cfg)
        assert np.array_equal(a1, a2)

    def test_input_sensitivity(self):
        # a nearby beam must influence the action through generic params
        p = tiny_params(7)
        scan = np.full(TINY.n_beams, 3.0)
        h = np.zeros(TINY.hidden_dim)
        a1, _ = forward_step(scan, 2.0, h, p, TINY)
        scan2 = scan.copy()
        scan2[0] = 2.0
        a2, _ = forward_step(scan2, 2.0, h, p, TINY)
        assert not np.array_equal(a1, a2)


class TestInitParams:
    def test_seed_reproducible(self):
        a = tiny_params(11)
        b = tiny_params(11)
        for name in TENSOR_ORDER:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_bounds(self):
        p = tiny_params(5)
        bound = 1.0 / math.sqrt(TINY.hidden_dim)
        for name in TENSOR_ORDER:
            assert np.max(np.abs(getattr(p, name))) <= bound

    def test_different_seeds_differ(self):
        a, b = tiny_params(1), tiny_params(2)
        assert not np.array_equal(a.w_x, b.w_x)


class TestInferenceSession:
    def test_matches_reference_forward(self):
        p = tiny_params(9)
        sess = InferenceSession(p, TINY, dtype=np.float64)
        rng = np.random.default_rng(3)
        h_ref = np.zeros(TINY.hidden_dim)
        h_fast = sess.zero_hidden()
        for _ in range(10):
            scan = rng.uniform(0.0, 30.0, TINY.n_beams)
            v = rng.uniform(0, 8)
            a_ref, h_ref = forward_step(scan, v, h_ref, p, TINY)
            a_fast, h_fast = sess.step(scan, v, h_fast)
            assert np.allclose(a_ref, a_fast, atol=1e-12)
            assert np.allclose(h_ref, h_fast, atol=1e-13)

    def test_float64_is_forward_step_bit_for_bit(self):
        p = tiny_params(9)
        sess = InferenceSession(p, TINY, dtype=np.float64)
        assert all(np.shares_memory(a, b) for a, b in
                   zip(sess.params.tensors().values(), p.tensors().values()))
        rng = np.random.default_rng(4)
        h_ref = np.zeros(TINY.hidden_dim)
        h_fast = sess.zero_hidden()
        for i in range(10):
            scan = rng.uniform(0.0, 30.0, TINY.n_beams)
            v = rng.uniform(0, 8)
            a_ref, h_ref = forward_step(scan, v, h_ref, p, TINY, masked=i % 3 == 0)
            a_fast, h_fast = sess.step(scan, v, h_fast, masked=i % 3 == 0)
            assert np.array_equal(a_ref, a_fast)
            assert np.array_equal(h_ref, h_fast)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_steps_match_reference_bit_for_bit(self, dtype):
        """The session's step through its workspace, and forward_step
        without one, compute what the step before the workspace computed:
        the same operations in the same order and dtypes."""
        sess = InferenceSession(tiny_params(9), TINY, dtype=dtype)
        rng = np.random.default_rng(5)
        h_ref = h_session = h_plain = sess.zero_hidden()
        for i in range(10):
            scan = rng.uniform(0.0, 30.0, TINY.n_beams)
            v = rng.uniform(0, 8)
            masked = i % 3 == 0
            a_ref, h_ref = reference_forward_step(scan, v, h_ref, sess.params, TINY, masked)
            a_session, h_session = sess.step(scan, v, h_session, masked)
            a_plain, h_plain = forward_step(scan, v, h_plain, sess.params, TINY, masked)
            for a, h in ((a_session, h_session), (a_plain, h_plain)):
                assert_same_bits(a, a_ref)
                assert_same_bits(h, h_ref)

    def test_float32_close(self):
        p = tiny_params(9)
        sess = InferenceSession(p, TINY, dtype=np.float32)
        scan = np.random.default_rng(1).uniform(0.1, 30, TINY.n_beams)
        a64, _ = forward_step(scan, 3.0, np.zeros(TINY.hidden_dim), p, TINY)
        a32, _ = sess.step(scan, 3.0, sess.zero_hidden())
        assert np.allclose(a64, a32, atol=1e-4)


class TestCheckpoint:
    def test_roundtrip_bitwise(self):
        p = tiny_params(21)
        blob = save_checkpoint(p, TINY)
        p2, cfg2 = load_checkpoint(blob)
        assert cfg2 == TINY
        for name in TENSOR_ORDER:
            assert np.array_equal(getattr(p, name), getattr(p2, name))

    def test_golden_bytes(self):
        # pins the per-gate v1 tensor layout and the init draw order
        blob = save_checkpoint(init_params(TINY, np.random.default_rng(0)), TINY)
        assert hashlib.sha256(blob).hexdigest() == (
            "2602462f8b742f6ea1166f781c8c5c14af9fbc475dfe3dbbc7646287901834d1")

    def test_truncated_raises(self):
        blob = save_checkpoint(tiny_params(), TINY)
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(blob[:-16])

    def test_bad_magic(self):
        blob = save_checkpoint(tiny_params(), TINY)
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(b"XXXX" + blob[4:])

    def test_version_mismatch(self):
        blob = bytearray(save_checkpoint(tiny_params(), TINY))
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(VersionMismatch):
            load_checkpoint(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = save_checkpoint(tiny_params(), TINY)
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(blob + b"\x00")

    def test_config_travels(self):
        cfg = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=8)
        p = init_params(cfg, np.random.default_rng(0))
        p2, cfg2 = load_checkpoint(save_checkpoint(p, cfg))
        assert cfg2.hidden_multiplier == 8
        assert p2.w_x.shape == (3 * cfg.hidden_dim, cfg.input_dim)
