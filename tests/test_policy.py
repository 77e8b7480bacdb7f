import hashlib
import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_bits, reference_forward_step
from racekit.policy import (
    CorruptCheckpoint,
    InferenceSession,
    PolicyConfig,
    PolicyError,
    ShapeMismatch,
    TENSOR_ORDER,
    VersionMismatch,
    all_finite,
    decode,
    embed_speed,
    encode_inputs,
    forward,
    init_params,
    layout_blocks,
    load_checkpoint,
    load_checkpoint_file,
    normalize_scan,
    save_checkpoint,
    save_checkpoint_file,
)

TINY = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2)


def tiny_params(seed=0, cfg=TINY):
    return init_params(cfg, np.random.default_rng(seed))


def observe(scan, v, h, params, cfg=TINY, masked=False):
    """One observation through `forward`, in the parameters' dtype."""
    x = encode_inputs(scan, v, params, cfg, masked).astype(params.w_x.dtype, copy=False)
    return forward(x, h, params)


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
        _, h2 = forward(x, h, p)
        assert np.array_equal(h2, 0.5 * h)

    def test_zero_fixed_point(self):
        p = zero_params()
        h = np.zeros(TINY.hidden_dim)
        assert np.array_equal(forward(np.ones(TINY.input_dim), h, p)[1], h)

    def test_shape_mismatch(self):
        p = tiny_params()
        with pytest.raises(ShapeMismatch):
            forward(np.ones(3), np.zeros(TINY.hidden_dim), p)
        with pytest.raises(ShapeMismatch):
            forward(np.ones(TINY.input_dim), np.zeros(3), p)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_hidden_bounded(self, seed):
        rng = np.random.default_rng(seed)
        p = init_params(TINY, rng)
        h = rng.uniform(-1, 1, TINY.hidden_dim) * 0.999
        x = rng.uniform(0, 1, TINY.input_dim)
        for _ in range(5):
            _, h = forward(x, h, p)
            assert np.all(np.abs(h) < 1.0)

    def test_batched_matches_loop(self):
        p = tiny_params(3)
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, 1, (4, TINY.input_dim))
        hs = rng.uniform(-0.5, 0.5, (4, TINY.hidden_dim))
        actions, batched = forward(xs, hs, p)
        for i in range(4):
            action, h = forward(xs[i], hs[i], p)
            assert np.allclose(batched[i], h, atol=1e-15)
            assert np.allclose(actions[i], action, atol=1e-15)


class TestDecode:
    def test_all_zero(self):
        p = zero_params()
        assert np.array_equal(decode(np.zeros(TINY.hidden_dim), p)[0], np.zeros(2))

    def test_bias_passthrough(self):
        p = zero_params()
        p.dec_b2[:] = [3.0, 0.1]
        out, _ = decode(np.linspace(-1, 1, TINY.hidden_dim), p)
        assert np.array_equal(out, [3.0, 0.1])

    def test_hand_matrix_case(self):
        cfg = PolicyConfig(n_beams=2, embed_dim=2, hidden_multiplier=1)
        assert cfg.hidden_dim == 4 and cfg.mlp_hidden_dim == 1
        cfg = PolicyConfig(n_beams=2, embed_dim=2, hidden_multiplier=1, mlp_hidden=2)
        p = init_params(cfg, np.random.default_rng(0))
        h = np.array([0.1, -0.2, 0.3, -0.4])
        pre = p.dec_w1 @ h + p.dec_b1
        expected = p.dec_w2 @ np.maximum(pre, 0) + p.dec_b2
        action, hidden = decode(h, p)
        assert np.allclose(action, expected, atol=1e-12)
        assert np.allclose(hidden, np.maximum(pre, 0), atol=1e-12)


class TestForwardStep:
    def test_deterministic(self):
        p = tiny_params(1)
        scan = np.random.default_rng(2).uniform(0.1, 30, TINY.n_beams)
        h = np.zeros(TINY.hidden_dim)
        a1, h1 = observe(scan, 2.0, h, p)
        a2, h2 = observe(scan, 2.0, h, p)
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
        a1, h1 = observe(scan, v, h, p, masked=False)
        a2, h2 = observe(scan, v, h, p, masked=True)
        assert np.array_equal(a1, a2) and np.array_equal(h1, h2)

    def test_lidar_only_invariant_to_speed(self):
        cfg = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2,
                           use_speed_input=False)
        p = init_params(cfg, np.random.default_rng(0))
        scan = np.random.default_rng(1).uniform(0.1, 30, cfg.n_beams)
        h = np.zeros(cfg.hidden_dim)
        a1, _ = observe(scan, 0.0, h, p, cfg)
        a2, _ = observe(scan, 9.0, h, p, cfg)
        assert np.array_equal(a1, a2)

    def test_input_sensitivity(self):
        # a nearby beam must influence the action through generic params
        p = tiny_params(7)
        scan = np.full(TINY.n_beams, 3.0)
        h = np.zeros(TINY.hidden_dim)
        a1, _ = observe(scan, 2.0, h, p)
        scan2 = scan.copy()
        scan2[0] = 2.0
        a2, _ = observe(scan2, 2.0, h, p)
        assert not np.array_equal(a1, a2)


class TestPolicyConfig:
    def test_zero_beams_rejected(self):
        # the beam count is copied from [sim] n_beams, so no INI reaches this check
        with pytest.raises(PolicyError, match="n_beams"):
            PolicyConfig(n_beams=0)


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
        lidar_only = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=2,
                                  use_speed_input=False)
        for cfg in (TINY, lidar_only):
            p = tiny_params(9, cfg)
            sess = InferenceSession(p, cfg, dtype=np.float64)
            rng = np.random.default_rng(3)
            h_ref = np.zeros(cfg.hidden_dim)
            h_fast = sess.zero_hidden()
            for _ in range(10):
                scan = rng.uniform(0.0, 30.0, cfg.n_beams)
                v = rng.uniform(0, 8)
                a_ref, h_ref = reference_forward_step(scan, v, h_ref, p, cfg)
                a_fast, h_fast = sess.step(scan, v, h_fast)
                assert np.allclose(a_ref, a_fast, atol=1e-12)
                assert np.allclose(h_ref, h_fast, atol=1e-13)

    def test_float64_is_forward_step_bit_for_bit(self):
        """At float64 the session steps through `forward` on the caller's
        own arrays, so it sees an in-place change to them."""
        p = tiny_params(9)
        sess = InferenceSession(p, TINY, dtype=np.float64)
        assert all(np.shares_memory(a, b) for a, b in
                   zip(sess.params.tensors().values(), p.tensors().values()))
        rng = np.random.default_rng(4)
        h_ref = np.zeros(TINY.hidden_dim)
        h_fast = sess.zero_hidden()
        for i in range(10):
            if i == 5:
                p.u_h *= 1.5
            scan = rng.uniform(0.0, 30.0, TINY.n_beams)
            v = rng.uniform(0, 8)
            a_ref, h_ref = forward(encode_inputs(scan, v, p, TINY), h_ref, p)
            a_fast, h_fast = sess.step(scan, v, h_fast)
            assert np.array_equal(a_ref, a_fast)
            assert np.array_equal(h_ref, h_fast)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_steps_match_reference_bit_for_bit(self, dtype):
        """The session's step, and `forward` on masked and unmasked
        inputs, compute what the reference step computes: the same
        operations in the same order and dtypes."""
        sess = InferenceSession(tiny_params(9), TINY, dtype=dtype)
        rng = np.random.default_rng(5)
        h_ref = h_session = sess.zero_hidden()
        for i in range(10):
            scan = rng.uniform(0.0, 30.0, TINY.n_beams)
            v = rng.uniform(0, 8)
            masked = i % 3 == 0
            a_ref, h_ref_next = reference_forward_step(scan, v, h_ref, sess.params, TINY)
            a_session, h_session = sess.step(scan, v, h_session)
            assert_same_bits(a_session, a_ref)
            assert_same_bits(h_session, h_ref_next)
            a_ref, h_ref_masked = reference_forward_step(scan, v, h_ref, sess.params, TINY,
                                                         masked)
            a_masked, h_masked = observe(scan, v, h_ref, sess.params, masked=masked)
            assert_same_bits(a_masked, a_ref)
            assert_same_bits(h_masked, h_ref_masked)
            h_ref = h_ref_next

    def test_float32_close(self):
        p = tiny_params(9)
        sess = InferenceSession(p, TINY, dtype=np.float32)
        scan = np.random.default_rng(1).uniform(0.1, 30, TINY.n_beams)
        a64, _ = reference_forward_step(scan, 3.0, np.zeros(TINY.hidden_dim), p, TINY)
        a32, _ = sess.step(scan, 3.0, sess.zero_hidden())
        assert np.allclose(a64, a32, atol=1e-4)


def saved(params, cfg=TINY) -> bytes:
    fh = io.BytesIO()
    save_checkpoint(params, cfg, fh)
    return fh.getvalue()


def loaded(blob: bytes):
    return load_checkpoint(io.BytesIO(blob))


class TestCheckpoint:
    def test_roundtrip_bitwise(self):
        p = tiny_params(21)
        blob = saved(p)
        p2, cfg2 = loaded(blob)
        assert cfg2 == TINY
        for name in TENSOR_ORDER:
            assert np.array_equal(getattr(p, name), getattr(p2, name))

    def test_golden_bytes(self):
        # pins the per-gate v1 tensor layout and the init draw order
        blob = saved(init_params(TINY, np.random.default_rng(0)))
        assert hashlib.sha256(blob).hexdigest() == (
            "2602462f8b742f6ea1166f781c8c5c14af9fbc475dfe3dbbc7646287901834d1")

    def test_truncated_raises(self):
        blob = saved(tiny_params())
        with pytest.raises(CorruptCheckpoint):
            loaded(blob[:-16])

    def test_bad_magic(self):
        blob = saved(tiny_params())
        with pytest.raises(CorruptCheckpoint):
            loaded(b"XXXX" + blob[4:])

    def test_version_mismatch(self):
        blob = bytearray(saved(tiny_params()))
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(VersionMismatch):
            loaded(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = saved(tiny_params())
        with pytest.raises(CorruptCheckpoint):
            loaded(blob + b"\x00")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("disk_name", ["w_upd", "u_res", "dec_b2"])
    def test_non_finite_tensor_rejected(self, disk_name, value):
        blob = bytearray(saved(tiny_params()))
        end = 12 + int.from_bytes(blob[8:12], "little")
        for name, block in layout_blocks(tiny_params().tensors()):
            end += block.nbytes
            if name == disk_name:
                break
        blob[end - 8:end] = struct.pack("<d", value)     # the block's last entry
        with pytest.raises(CorruptCheckpoint, match=f"tensor {disk_name} "):
            loaded(bytes(blob))

    def test_config_travels(self):
        cfg = PolicyConfig(n_beams=8, embed_dim=2, hidden_multiplier=8)
        p = init_params(cfg, np.random.default_rng(0))
        p2, cfg2 = loaded(saved(p, cfg))
        assert cfg2.hidden_multiplier == 8
        assert p2.w_x.shape == (3 * cfg.hidden_dim, cfg.input_dim)


class TestAllFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 131 * 500 - 1, 131 * 500, -1])
    def test_any_entry_of_any_piece(self, value, index):
        """A 600 x 500 tensor is checked in pieces of 131 rows: a
        non-finite entry is found on either side of a piece boundary, and
        at both ends."""
        t = np.ones((600, 500))
        assert all_finite(t)
        t.flat[index] = value
        assert not all_finite(t)

    def test_validate_rejects_a_non_finite_entry(self):
        params = tiny_params()
        params.u_h[-1, -1] = math.inf
        with pytest.raises(PolicyError, match="u_h"):
            params.validate(TINY)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty_tensor_is_finite(self, shape):
        assert all_finite(np.empty(shape))


class Trickle(io.RawIOBase):
    """A readable stream whose readinto returns at most `most` bytes."""

    def __init__(self, data: bytes, most: int):
        self._data, self._pos, self._most = data, 0, most

    def readable(self):
        return True

    def readinto(self, buf):
        n = min(len(buf), self._most, len(self._data) - self._pos)
        buf[:n] = self._data[self._pos:self._pos + n]
        self._pos += n
        return n


class TestCheckpointStream:
    @pytest.mark.parametrize("most", [1, 5, 4096])
    def test_short_reads_load_bitwise(self, most):
        p = tiny_params(21)
        with Trickle(saved(p), most) as stream:
            p2, cfg2 = load_checkpoint(stream)
        assert cfg2 == TINY
        for name in TENSOR_ORDER:
            assert getattr(p2, name).tobytes() == getattr(p, name).tobytes(), name

    def test_truncation_anywhere_raises(self):
        """A cut inside the header, inside the config and inside each
        tensor block is a corrupt checkpoint, whatever the read sizes."""
        blob = saved(tiny_params())
        cfg_len = int.from_bytes(blob[8:12], "little")
        cuts = {"header": [0, 3, 11], "config block": [12, 12 + cfg_len // 2]}
        offset = 12 + cfg_len
        for disk_name, block in layout_blocks(tiny_params().tensors()):
            cuts[f"tensor {disk_name}"] = [offset, offset + block.nbytes - 8]
            offset += block.nbytes
        assert offset == len(blob)
        for what, ends in cuts.items():
            for end in ends:
                for most in (3, len(blob)):
                    with Trickle(blob[:end], most) as stream, \
                            pytest.raises(CorruptCheckpoint, match=f"truncated {what}"):
                        load_checkpoint(stream)

    def test_huge_config_length_rejected(self):
        blob = bytearray(saved(tiny_params()))
        blob[8:12] = (2 ** 32 - 1).to_bytes(4, "little")
        with pytest.raises(CorruptCheckpoint, match="config block"):
            loaded(bytes(blob))


# a default-size checkpoint's tensors are 68 MB; these use ~2.5 MB, large
# beside the interpreter's own small allocations
MID = PolicyConfig(n_beams=64, embed_dim=8, hidden_multiplier=4)


def tensor_bytes(cfg) -> int:
    return sum(t.nbytes for t in init_params(cfg, np.random.default_rng(0)).tensors().values())


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckpointMemory:
    def test_load_holds_the_weights_once(self, tmp_path):
        """The new tensors, and not a second copy of them in a file image."""
        path = tmp_path / "mid.ckpt"
        save_checkpoint_file(init_params(MID, np.random.default_rng(0)), MID, path)
        size = tensor_bytes(MID)
        peak = traced_peak(load_checkpoint_file, path)
        assert size <= peak < 1.1 * size

    def test_save_allocates_far_less_than_the_file(self, tmp_path):
        """Blocks stream from the tensors' memory and the finiteness check
        makes no mask, so nothing the size of a tensor is allocated: 64 KiB
        covers the header and the file's buffer, where a one-byte-per-entry
        mask of u_h alone would take 243 KiB."""
        params = init_params(MID, np.random.default_rng(0))
        path = tmp_path / "mid.ckpt"
        peak = traced_peak(save_checkpoint_file, params, MID, path)
        assert peak < 2 ** 16

    def test_float32_load_never_holds_the_float64_set(self, tmp_path):
        """A float32 load holds its float32 tensors and one 512 KiB piece
        of a block, well below the float64 set, and gives the cast of the
        float64 load, bit for bit."""
        path = tmp_path / "mid.ckpt"
        save_checkpoint_file(init_params(MID, np.random.default_rng(0)), MID, path)
        peak = traced_peak(load_checkpoint_file, path, np.float32)
        assert peak < tensor_bytes(MID) / 2 + 2 ** 19 + 2 ** 16 < tensor_bytes(MID)
        p32, cfg = load_checkpoint_file(path, np.float32)
        p64, _ = load_checkpoint_file(path)
        assert cfg == MID
        for name in TENSOR_ORDER:
            got = getattr(p32, name)
            assert got.tobytes() == getattr(p64, name).astype(np.float32).tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_entry_past_the_first_piece_rejected(self, tmp_path, dtype):
        """The finiteness check covers every piece of a block read in
        pieces, at either precision: here u_cand's last entry, in the
        second of its block's two 512 KiB pieces."""
        blob = bytearray(saved(init_params(MID, np.random.default_rng(0)), MID))
        end = 12 + int.from_bytes(blob[8:12], "little")
        for name, block in layout_blocks(init_params(MID, np.random.default_rng(0)).tensors()):
            end += block.nbytes
            if name == "u_cand":
                break
        blob[end - 8:end] = struct.pack("<d", math.nan)
        path = tmp_path / "mid.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CorruptCheckpoint, match="tensor u_cand "):
            load_checkpoint_file(path, dtype)
