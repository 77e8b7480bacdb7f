"""The recurrent driving policy: pure forward math and parameter I/O.

Raw LiDAR ranges are squashed into "spatial pressure" tokens in (0, 1]
(1 at zero range, decaying to 0 with distance), the scalar ego speed is
lifted to a learnable embedding (replaceable by a learnable mask token
during training), a single GRU cell carries the temporal state, and a
two-layer MLP decodes the hidden state into (speed, steering) commands.

The GRU weights are stored packed: w_x (3H, I), u_h (3H, H) and b_x (3H,)
stack the update, reset and candidate gates in that row order, and
b_cand_h (H,) is the candidate's hidden-side bias. `gru_cell` is the only
GRU update. It takes the input projection px = x W_x^T + b_x, which
inference forms per step and the trainer for a whole batch of sequences
in one GEMM, and makes one h U_h^T product. `gru_step`, `forward_step`,
`InferenceSession` and the trainer's forward pass all call it. A
single-observation step may pass a `StepBuffers` workspace, which holds
its intermediates and their fixed gate views so that the step's ufuncs
write in place and it slices nothing; the operations and their order are
the same with and without one. InferenceSession keeps one per session.

Checkpoints keep the per-gate tensors of format v1: CHECKPOINT_LAYOUT maps
each of its 17 names to a stored tensor and a gate block, and init, save,
load and the trainer's Adam step walk that table. Everything is plain
numpy in double precision; the inference session can also run in single
precision.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from ._atomic import atomic_open


class PolicyError(Exception):
    pass


class ShapeMismatch(PolicyError):
    pass


class VersionMismatch(PolicyError):
    pass


class CorruptCheckpoint(PolicyError):
    pass


@dataclass(frozen=True)
class PolicyConfig:
    n_beams: int = 360
    embed_dim: int = 16
    hidden_multiplier: int = 4
    sigmoid_k: float = 0.5        # 1/m; sets the effective sensing range
    use_speed_input: bool = True
    mlp_hidden: int | None = None  # defaults to hidden_dim // 4

    @property
    def input_dim(self) -> int:
        return self.n_beams + (self.embed_dim if self.use_speed_input else 0)

    @property
    def hidden_dim(self) -> int:
        return self.hidden_multiplier * self.input_dim

    @property
    def mlp_hidden_dim(self) -> int:
        return self.mlp_hidden if self.mlp_hidden is not None else max(1, self.hidden_dim // 4)


# stored tensor name -> shape, in TENSOR_ORDER; the GRU tensors are packed
# with their row blocks in gate order (update, reset, candidate)
def _tensor_shapes(cfg: PolicyConfig) -> dict[str, tuple[int, ...]]:
    i, h, m, e = cfg.input_dim, cfg.hidden_dim, cfg.mlp_hidden_dim, cfg.embed_dim
    return {
        "w_x": (3 * h, i), "u_h": (3 * h, h), "b_x": (3 * h,), "b_cand_h": (h,),
        "speed_w": (e,), "speed_b": (e,), "mask_embed": (e,),
        "dec_w1": (m, h), "dec_b1": (m,), "dec_w2": (2, m), "dec_b2": (2,),
    }


@dataclass
class PolicyParameters:
    w_x: np.ndarray        # (3H, I) input weights, gates [update | reset | candidate]
    u_h: np.ndarray        # (3H, H) hidden weights, same gate order
    b_x: np.ndarray        # (3H,) input-side biases (b_upd, b_res, b_cand_x)
    b_cand_h: np.ndarray   # (H,) candidate bias inside the reset product
    speed_w: np.ndarray
    speed_b: np.ndarray
    mask_embed: np.ndarray
    dec_w1: np.ndarray
    dec_b1: np.ndarray
    dec_w2: np.ndarray
    dec_b2: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TENSOR_ORDER}

    def copy(self) -> "PolicyParameters":
        return PolicyParameters(**{k: v.copy() for k, v in self.tensors().items()})

    def validate(self, cfg: PolicyConfig) -> None:
        for name, shape in _tensor_shapes(cfg).items():
            t = getattr(self, name)
            if t.shape != shape:
                raise ShapeMismatch(f"{name}: expected {shape}, got {t.shape}")
            if not np.all(np.isfinite(t)):
                raise PolicyError(f"{name} contains non-finite entries")


TENSOR_ORDER = tuple(_tensor_shapes(PolicyConfig()).keys())

# checkpoint (format v1) tensor name -> (stored tensor, gate block, or None
# for the whole tensor); also the serialization and the init draw order
CHECKPOINT_LAYOUT = (
    ("w_upd", "w_x", 0), ("u_upd", "u_h", 0), ("b_upd", "b_x", 0),
    ("w_res", "w_x", 1), ("u_res", "u_h", 1), ("b_res", "b_x", 1),
    ("w_cand", "w_x", 2), ("u_cand", "u_h", 2), ("b_cand_x", "b_x", 2),
    ("b_cand_h", "b_cand_h", None), ("speed_w", "speed_w", None),
    ("speed_b", "speed_b", None), ("mask_embed", "mask_embed", None),
    ("dec_w1", "dec_w1", None), ("dec_b1", "dec_b1", None),
    ("dec_w2", "dec_w2", None), ("dec_b2", "dec_b2", None),
)


def layout_blocks(tensors: dict[str, np.ndarray]) -> list[tuple[str, np.ndarray]]:
    """(checkpoint name, view) for every CHECKPOINT_LAYOUT entry, in order;
    a gate block is a row view of its packed tensor."""
    blocks = []
    for disk_name, name, gate in CHECKPOINT_LAYOUT:
        t = tensors[name]
        if gate is not None:
            rows = len(t) // 3
            t = t[gate * rows:(gate + 1) * rows]
        blocks.append((disk_name, t))
    return blocks


def init_params(cfg: PolicyConfig, rng: np.random.Generator) -> PolicyParameters:
    """Uniform init in [-1/sqrt(hidden_dim), +1/sqrt(hidden_dim)] for every
    tensor, drawn block by block in checkpoint order (deterministic per seed)."""
    bound = 1.0 / np.sqrt(cfg.hidden_dim)
    tensors = {name: np.empty(shape) for name, shape in _tensor_shapes(cfg).items()}
    for _, block in layout_blocks(tensors):
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    return PolicyParameters(**tensors)


def normalize_scan(z: np.ndarray, sigmoid_k: float, out=None, scratch=None) -> np.ndarray:
    """Pressure token per beam: 2 / (1 + e^(k x)); 1 at contact, -> 0 far.
    Computed in double precision; out receives the tokens and scratch the
    intermediate, if given."""
    t = np.multiply(z, sigmoid_k, out=scratch, dtype=float)
    np.minimum(t, 700.0, out=t)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(2.0, t, out=out)


def embed_speed(v, params: PolicyParameters, masked=False, out=None) -> np.ndarray:
    """Affine lift of the speed v (scalar or (...) array) to (..., E), or
    the mask token where masked; out receives it, if given."""
    emb = np.add(np.multiply(np.asarray(v)[..., None], params.speed_w), params.speed_b, out=out)
    if masked is not False:
        np.copyto(emb, params.mask_embed, where=np.asarray(masked)[..., None])
    return emb


def encode_inputs(scan, v, params: PolicyParameters, cfg: PolicyConfig,
                  masked=False, work: StepBuffers | None = None) -> np.ndarray:
    """Observations -> GRU inputs x (..., I): pressure tokens, then the speed
    embedding unless the policy is LiDAR-only, joined in double precision
    (the tokens are computed in it); with a workspace the result lands in
    its x, in its dtype."""
    if work is None:
        tokens = normalize_scan(scan, cfg.sigmoid_k)
        if not cfg.use_speed_input:
            return tokens
        return np.concatenate([tokens, embed_speed(v, params, masked)], axis=-1)
    normalize_scan(scan, cfg.sigmoid_k, out=work.x_tokens, scratch=work.tokens)
    if cfg.use_speed_input:
        embed_speed(v, params, masked, out=work.x_speed)
    if work.x is not work.x64:
        np.copyto(work.x, work.x64, casting="same_kind")
    return work.x


def _logistic(x, out=None):
    t = np.negative(x, out=out)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


class StepBuffers:
    """Preallocated intermediates of single-observation steps of one set
    of parameters: the double-precision encoding (tokens and the input x),
    x in the parameters' dtype, the projections px = x W_x^T + b_x and
    h U_h^T, the gate activations and the decoder's hidden layer, and the
    views of x and of the gate blocks that a step writes through. An
    InferenceSession keeps one, so a step allocates little more than the
    action and hidden state it returns."""

    def __init__(self, params: PolicyParameters, cfg: PolicyConfig):
        dtype = params.w_x.dtype
        h = cfg.hidden_dim
        self.tokens = np.empty(cfg.n_beams)
        self.x64 = np.empty(cfg.input_dim)
        self.x = self.x64 if dtype == np.float64 else np.empty(cfg.input_dim, dtype)
        self.px = np.empty(3 * h, dtype)
        self.ph = np.empty(3 * h, dtype)
        self.gates = np.empty(3 * h, dtype)
        self.keep = np.empty(h, dtype)      # (1 - u) * n
        self.mix = np.empty(h, dtype)       # u * h
        self.hidden = np.empty(cfg.mlp_hidden_dim, dtype)
        self.action = np.empty(2, dtype)
        self.x_tokens, self.x_speed = self.x64[:cfg.n_beams], self.x64[cfg.n_beams:]
        self.gate_views = _gate_views(self.px, self.ph, self.gates, h)


def _times_transpose(x: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """x W^T. Into out (a workspace's, so x is one vector) through np.dot,
    which calls the BLAS gemv that np.matmul calls, at a third of its call
    overhead."""
    return np.matmul(x, w.T) if out is None else np.dot(x, w.T, out=out)


def _gate_views(px, ph, gates, H: int):
    """(px_ur, px_n, ph_ur, m, u, r, n, ur): the update-and-reset and the
    candidate blocks of the projections px and ph, and the gate blocks of
    the activations."""
    return (px[..., :2 * H], px[..., 2 * H:], ph[..., :2 * H], ph[..., 2 * H:],
            gates[..., :H], gates[..., H:2 * H], gates[..., 2 * H:], gates[..., :2 * H])


def gru_cell(px: np.ndarray, h: np.ndarray, params: PolicyParameters,
             work: StepBuffers | None = None):
    """The GRU update, from the input projection px = x W_x^T + b_x (..., 3H)
    and the hidden state h (..., H), with one h U_h^T product.

    Returns (h_next, gates, m): the gate activations (..., 3H) =
    [update | reset | candidate] and m = h U_cand^T + b_cand_h (..., H)
    are what backpropagation needs. The update and reset pre-activations
    sum as (x W + b) + h U, the candidate's as
    (x W_cand + b_cand_x) + r * (h U_cand + b_cand_h); the float64 eval
    outputs depend on this order bit for bit. With a workspace, px is its
    px, and gates and m are views of its buffers; h_next is always a fresh
    array."""
    ph = _times_transpose(h, params.u_h, None if work is None else work.ph)
    if work is None:
        gates = np.empty_like(px)
        px_ur, px_n, ph_ur, m, u, r, n, ur = _gate_views(px, ph, gates, h.shape[-1])
    else:
        gates = work.gates
        px_ur, px_n, ph_ur, m, u, r, n, ur = work.gate_views
    np.add(px_ur, ph_ur, out=ur)
    _logistic(ur, out=ur)
    m += params.b_cand_h
    np.multiply(r, m, out=n)
    np.add(px_n, n, out=n)
    np.tanh(n, out=n)
    keep = np.subtract(1.0, u, out=None if work is None else work.keep)
    keep *= n
    return keep + np.multiply(u, h, out=None if work is None else work.mix), gates, m


def gru_step(x: np.ndarray, h: np.ndarray, params: PolicyParameters,
             work: StepBuffers | None = None) -> np.ndarray:
    """One GRU cell update. Supports (I,)/(H,) vectors or (B, I)/(B, H)
    batches. Hidden entries stay inside (-1, 1) for in-range inputs."""
    if x.shape[-1] != params.w_x.shape[1] or h.shape[-1] != params.u_h.shape[1]:
        raise ShapeMismatch(
            f"gru_step: x{x.shape} / h{h.shape} vs W_x{params.w_x.shape}")
    px = _times_transpose(x, params.w_x, None if work is None else work.px)
    px += params.b_x
    return gru_cell(px, h, params, work)[0]


def decode(h: np.ndarray, params: PolicyParameters,
           work: StepBuffers | None = None) -> np.ndarray:
    """Two-layer rectifier MLP head -> raw (speed, steering). No clamping;
    the simulator's actuator model saturates on application."""
    if h.shape[-1] != params.dec_w1.shape[1]:
        raise ShapeMismatch(f"decode: h{h.shape} vs W1{params.dec_w1.shape}")
    hidden = _times_transpose(h, params.dec_w1, None if work is None else work.hidden)
    hidden += params.dec_b1
    np.maximum(hidden, 0.0, out=hidden)
    out = _times_transpose(hidden, params.dec_w2, None if work is None else work.action)
    return out + params.dec_b2


def forward_step(scan: np.ndarray, v: float, h: np.ndarray,
                 params: PolicyParameters, cfg: PolicyConfig,
                 masked: bool = False,
                 work: StepBuffers | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One observation -> (action, next hidden state), in the dtype of the
    parameters. A workspace (StepBuffers) of that dtype holds the
    intermediates; the returned arrays are fresh either way."""
    x = encode_inputs(scan, v, params, cfg, masked, work).astype(params.w_x.dtype, copy=False)
    h_next = gru_step(x, h, params, work)
    return decode(h_next, params, work), h_next


class InferenceSession:
    """Single-step inference at a fixed precision, through one workspace
    of preallocated intermediates.

    float64 uses the parameter arrays as they are, without a copy (so the
    session sees later in-place changes to them), and is forward_step bit
    for bit. float32 casts them once; it halves the memory traffic that
    bounds per-step latency.
    """

    def __init__(self, params: PolicyParameters, cfg: PolicyConfig,
                 dtype=np.float64):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.params = PolicyParameters(**{
            k: t.astype(self.dtype, copy=False) for k, t in params.tensors().items()})
        self._work = StepBuffers(self.params, cfg)

    def step(self, scan: np.ndarray, v: float, h: np.ndarray,
             masked: bool = False) -> tuple[np.ndarray, np.ndarray]:
        return forward_step(scan, v, h, self.params, self.cfg, masked, self._work)

    def zero_hidden(self) -> np.ndarray:
        return np.zeros(self.cfg.hidden_dim, dtype=self.dtype)


# ---------------------------------------------------------------------------
# checkpoint format: magic 'E2R1', u32 version, u32 config JSON length,
# config JSON (sorted keys), then the CHECKPOINT_LAYOUT blocks as
# little-endian float64


CHECKPOINT_MAGIC = b"E2R1"
CHECKPOINT_VERSION = 1


def save_checkpoint(params: PolicyParameters, cfg: PolicyConfig) -> bytes:
    params.validate(cfg)
    cfg_json = json.dumps(asdict(cfg), sort_keys=True).encode()
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<I", len(cfg_json))
    blob += cfg_json
    for _, block in layout_blocks(params.tensors()):
        blob += np.ascontiguousarray(block, dtype="<f8").tobytes()
    return bytes(blob)


def load_checkpoint(data: bytes) -> tuple[PolicyParameters, PolicyConfig]:
    if len(data) < 12 or data[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint("bad magic")
    version = struct.unpack("<I", data[4:8])[0]
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    (cfg_len,) = struct.unpack("<I", data[8:12])
    if len(data) < 12 + cfg_len:
        raise CorruptCheckpoint("truncated config block")
    try:
        cfg = PolicyConfig(**json.loads(data[12:12 + cfg_len].decode()))
    except (ValueError, TypeError) as exc:
        raise CorruptCheckpoint(f"unreadable config block: {exc}") from exc
    offset = 12 + cfg_len
    tensors = {name: np.empty(shape) for name, shape in _tensor_shapes(cfg).items()}
    for disk_name, block in layout_blocks(tensors):
        nbytes = block.size * 8
        if len(data) < offset + nbytes:
            raise CorruptCheckpoint(f"truncated tensor {disk_name}")
        block[...] = np.frombuffer(data[offset:offset + nbytes], dtype="<f8").reshape(block.shape)
        offset += nbytes
    if offset != len(data):
        raise CorruptCheckpoint(f"{len(data) - offset} trailing bytes")
    return PolicyParameters(**tensors), cfg


def save_checkpoint_file(params: PolicyParameters, cfg: PolicyConfig, path) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(save_checkpoint(params, cfg))


def load_checkpoint_file(path) -> tuple[PolicyParameters, PolicyConfig]:
    with open(path, "rb") as fh:
        return load_checkpoint(fh.read())
