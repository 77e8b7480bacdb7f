"""The recurrent driving policy: pure forward math and parameter I/O.

Raw LiDAR ranges are squashed into "spatial pressure" tokens in (0, 1]
(1 at zero range, decaying to 0 with distance), the scalar ego speed is
lifted to a learnable embedding (replaceable by a learnable mask token
during training), a single GRU cell carries the temporal state, and a
two-layer MLP decodes the hidden state into (speed, steering) commands.

The GRU weights are stored packed: w_x (3H, I), u_h (3H, H) and b_x (3H,)
stack the update, reset and candidate gates in that row order, and
b_cand_h (H,) is the candidate's hidden-side bias. `forward` is the one
policy step: it forms the input projection px = x W_x^T + b_x, runs
`gru_cell` and decodes through `decode`, for one observation or a batch
of rows. `InferenceSession` (single-observation inference) and the
evaluator's `PolicySource` (a chunk of episodes, one GEMM per frame) both
step through it. `gru_cell` is the only GRU update, with one h U_h^T
product; the trainer calls it too, after forming px for a whole batch of
sequences in one GEMM, and decodes through `decode`.

Checkpoints keep the per-gate tensors of format v1: CHECKPOINT_LAYOUT maps
each of its 17 names to a stored tensor and a gate block, and init, save
and load walk that table; no other module knows it. Checkpoints stream
through a binary file object: `save_checkpoint` is the one writer, and
writes the header and then each block from its tensor's memory;
`load_checkpoint` is the one parser, and reads each block into its place
in the new tensors. Neither holds the file as one `bytes` nor makes a
temporary the size of a tensor, so a save or a load holds the weights
once, and `save_checkpoint_file` and `load_checkpoint_file` only open the
file. A load can cast each block to single precision as it reads it, and
`init_params` each block as it draws it, for the float32 inference
session. Everything else is plain numpy in double precision.
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

    def __post_init__(self):
        for key in ("n_beams", "embed_dim", "hidden_multiplier", "mlp_hidden", "sigmoid_k"):
            value = getattr(self, key)
            if value is not None and not value > 0:
                raise PolicyError(f"{key} must be > 0, got {value}")

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

    def validate(self, cfg: PolicyConfig) -> None:
        for name, shape in _tensor_shapes(cfg).items():
            t = getattr(self, name)
            if t.shape != shape:
                raise ShapeMismatch(f"{name}: expected {shape}, got {t.shape}")
            if not all_finite(t):
                raise PolicyError(f"{name} contains non-finite entries")


# entries a load reads, and all_finite reduces, at a time: a float64 piece
# of 512 KiB stays in cache from one pass over it to the next
_PIECE = 1 << 16


def all_finite(t: np.ndarray) -> bool:
    """Whether every entry of t is finite, from the min and the max of each
    piece of its rows (NaN reaches both): no temporary the size of t, and
    the max reads the piece from cache."""
    if t.size == 0:
        return True
    rows = max(1, _PIECE * len(t) // t.size)
    return all(np.isfinite(piece.min()) and np.isfinite(piece.max())
               for piece in (t[lo:lo + rows] for lo in range(0, len(t), rows)))


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


def init_params(cfg: PolicyConfig, rng: np.random.Generator,
                dtype=np.float64) -> PolicyParameters:
    """Uniform init in [-1/sqrt(hidden_dim), +1/sqrt(hidden_dim)] for every
    tensor, drawn block by block in checkpoint order (deterministic per
    seed). Each draw is in double precision, the floats of
    `rng.uniform(low, high)`, and a piece at a time is cast into tensors
    of dtype, as `load_checkpoint` casts, so a float32 set is drawn
    without holding the float64 one."""
    bound = 1.0 / np.sqrt(cfg.hidden_dim)
    low, high = -bound, bound
    dtype = np.dtype(dtype)
    tensors = {name: np.empty(shape, dtype) for name, shape in _tensor_shapes(cfg).items()}
    scratch = None if dtype == np.dtype(np.float64) else np.empty(_PIECE)
    for _, block in layout_blocks(tensors):
        flat = block.reshape(-1)   # a block is contiguous: a view
        for lo in range(0, flat.size, _PIECE):
            piece = flat[lo:lo + _PIECE]
            draw = piece if scratch is None else scratch[:len(piece)]
            rng.random(out=draw)
            draw *= high - low
            draw += low
            if draw is not piece:
                piece[...] = draw
    return PolicyParameters(**tensors)


def normalize_scan(z: np.ndarray, sigmoid_k: float) -> np.ndarray:
    """Pressure token per beam: 2 / (1 + e^(k x)); 1 at contact, -> 0 far.
    Computed in double precision."""
    t = np.multiply(z, sigmoid_k, dtype=float)
    np.minimum(t, 700.0, out=t)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(2.0, t, out=t)


def embed_speed(v, params: PolicyParameters, masked=False) -> np.ndarray:
    """Affine lift of the speed v (scalar or (...) array) to (..., E), or
    the mask token where masked."""
    emb = np.multiply(np.asarray(v)[..., None], params.speed_w)
    emb += params.speed_b
    if masked is not False:
        np.copyto(emb, params.mask_embed, where=np.asarray(masked)[..., None])
    return emb


def encode_inputs(scan, v, params: PolicyParameters, cfg: PolicyConfig,
                  masked=False, out=None) -> np.ndarray:
    """Observations -> GRU inputs x (..., I): pressure tokens, then the speed
    embedding unless the policy is LiDAR-only, joined in double precision
    (the tokens are computed in it), into out if given."""
    tokens = normalize_scan(scan, cfg.sigmoid_k)
    if cfg.use_speed_input:
        return np.concatenate([tokens, embed_speed(v, params, masked)], axis=-1, out=out)
    if out is None:
        return tokens
    out[...] = tokens
    return out


def _logistic(x, out=None):
    t = np.negative(x, out=out)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


def gru_cell(px: np.ndarray, h: np.ndarray, params: PolicyParameters):
    """The GRU update, from the input projection px = x W_x^T + b_x (..., 3H)
    and the hidden state h (..., H), with one h U_h^T product.

    Returns (h_next, gates, m): the gate activations (..., 3H) =
    [update | reset | candidate] and m = h U_cand^T + b_cand_h (..., H)
    are what backpropagation needs. The update and reset pre-activations
    sum as (x W + b) + h U, the candidate's as
    (x W_cand + b_cand_x) + r * (h U_cand + b_cand_h); the float64 eval
    outputs depend on this order bit for bit."""
    H = h.shape[-1]
    ph = h @ params.u_h.T
    gates = np.empty_like(px)
    u, r, n, ur = gates[..., :H], gates[..., H:2 * H], gates[..., 2 * H:], gates[..., :2 * H]
    m = ph[..., 2 * H:]
    np.add(px[..., :2 * H], ph[..., :2 * H], out=ur)
    _logistic(ur, out=ur)
    m += params.b_cand_h
    np.multiply(r, m, out=n)
    np.add(px[..., 2 * H:], n, out=n)
    np.tanh(n, out=n)
    keep = np.subtract(1.0, u)
    keep *= n
    return keep + u * h, gates, m


def decode(h: np.ndarray, params: PolicyParameters) -> tuple[np.ndarray, np.ndarray]:
    """Two-layer rectifier MLP head -> (raw (speed, steering), its
    rectified hidden layer, which backpropagation needs). No clamping; the
    simulator's actuator model saturates on application."""
    if h.shape[-1] != params.dec_w1.shape[1]:
        raise ShapeMismatch(f"decode: h{h.shape} vs W1{params.dec_w1.shape}")
    hidden = h @ params.dec_w1.T
    hidden += params.dec_b1
    np.maximum(hidden, 0.0, out=hidden)
    return hidden @ params.dec_w2.T + params.dec_b2, hidden


def forward(x: np.ndarray, h: np.ndarray,
            params: PolicyParameters) -> tuple[np.ndarray, np.ndarray]:
    """One policy step: GRU inputs x (I,) or (B, I) and hidden state h (H,)
    or (B, H) -> (action, next hidden state), in the dtype of the
    parameters. Hidden entries stay inside (-1, 1) for in-range inputs."""
    if x.shape[-1] != params.w_x.shape[1] or h.shape[-1] != params.u_h.shape[1]:
        raise ShapeMismatch(f"forward: x{x.shape} / h{h.shape} vs W_x{params.w_x.shape}")
    px = x @ params.w_x.T
    px += params.b_x
    h_next = gru_cell(px, h, params)[0]
    return decode(h_next, params)[0], h_next


class InferenceSession:
    """Single-observation inference at a fixed precision.

    Parameter arrays already at the session's precision are used as they
    are, without a copy (so the session sees later in-place changes to
    them); others are cast once. float32 halves the memory traffic that
    bounds per-step latency, and `load_checkpoint_file(path, np.float32)`
    loads a checkpoint at it without holding the float64 set.
    """

    def __init__(self, params: PolicyParameters, cfg: PolicyConfig,
                 dtype=np.float64):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.params = PolicyParameters(**{
            k: t.astype(self.dtype, copy=False) for k, t in params.tensors().items()})

    def step(self, scan: np.ndarray, v: float, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = encode_inputs(scan, v, self.params, self.cfg).astype(self.dtype, copy=False)
        return forward(x, h, self.params)

    def zero_hidden(self) -> np.ndarray:
        return np.zeros(self.cfg.hidden_dim, dtype=self.dtype)


# ---------------------------------------------------------------------------
# checkpoint format: magic 'E2R1', u32 version, u32 config JSON length,
# config JSON (sorted keys), then the CHECKPOINT_LAYOUT blocks as
# little-endian float64


CHECKPOINT_MAGIC = b"E2R1"
CHECKPOINT_VERSION = 1
# a PolicyConfig's JSON is a few hundred bytes; a corrupt length must not
# size an allocation
_MAX_CONFIG_BYTES = 1 << 16


def save_checkpoint(params: PolicyParameters, cfg: PolicyConfig, fh) -> None:
    """Write the checkpoint to the binary file object fh: the header, then
    each CHECKPOINT_LAYOUT block straight from its tensor's memory."""
    params.validate(cfg)
    cfg_json = json.dumps(asdict(cfg), sort_keys=True).encode()
    fh.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(cfg_json)) + cfg_json)
    for _, block in layout_blocks(params.tensors()):
        fh.write(np.ascontiguousarray(block, dtype="<f8"))


def _read_into(fh, buf, what: str) -> None:
    """Fill the writable buffer buf from fh, looping on short reads."""
    view = memoryview(buf).cast("B")
    filled = 0
    while filled < len(view):
        n = fh.readinto(view[filled:])
        if not n:
            raise CorruptCheckpoint(f"truncated {what}")
        filled += n


def load_checkpoint(fh, dtype=np.float64) -> tuple[PolicyParameters, PolicyConfig]:
    """Read a checkpoint from the binary file object fh into fresh tensors
    of dtype, a piece of a block at a time: each piece is checked finite
    and, at another precision than float64, cast into place, so a load
    never holds the float64 set beside the one it returns. The stream
    must end after the last block."""
    head = bytearray(12)
    _read_into(fh, head, "header")
    if head[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint("bad magic")
    version, cfg_len = struct.unpack("<II", head[4:])
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    if cfg_len > _MAX_CONFIG_BYTES:
        raise CorruptCheckpoint(f"config block of {cfg_len} bytes")
    cfg_json = bytearray(cfg_len)
    _read_into(fh, cfg_json, "config block")
    try:
        cfg = PolicyConfig(**json.loads(cfg_json.decode()))
    except (ValueError, TypeError) as exc:
        raise CorruptCheckpoint(f"unreadable config block: {exc}") from exc
    dtype = np.dtype(dtype)
    tensors = {name: np.empty(shape, dtype) for name, shape in _tensor_shapes(cfg).items()}
    scratch = None if dtype == np.dtype("<f8") else np.empty(_PIECE, "<f8")
    for disk_name, block in layout_blocks(tensors):
        flat = block.reshape(-1)   # a block is contiguous: a view
        for lo in range(0, flat.size, _PIECE):
            piece = flat[lo:lo + _PIECE]
            raw = piece if scratch is None else scratch[:len(piece)]
            _read_into(fh, raw, f"tensor {disk_name}")
            if not all_finite(raw):
                raise CorruptCheckpoint(f"tensor {disk_name} holds a non-finite entry")
            if raw is not piece:
                piece[...] = raw
    if fh.read(1):
        raise CorruptCheckpoint("trailing bytes after the last tensor")
    return PolicyParameters(**tensors), cfg


def save_checkpoint_file(params: PolicyParameters, cfg: PolicyConfig, path) -> None:
    with atomic_open(path, "wb") as fh:
        save_checkpoint(params, cfg, fh)


def load_checkpoint_file(path, dtype=np.float64) -> tuple[PolicyParameters, PolicyConfig]:
    with open(path, "rb") as fh:
        return load_checkpoint(fh, dtype)
