"""Seeded decoder-only transformer core.

Weights are drawn from a counter-based PRNG keyed by (seed, block name), so
any block regenerates bit-identically without the others.  Blocks are stored
as float32 (the on-disk format); forward math runs in float64.  There is no
training, sampling, or real checkpoint support -- the model exists so the
compression pipeline has deterministic attention to work with.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ctxpress.codec import fnv1a64

WEIGHT_MAGIC = b"ILRW"
WEIGHT_VERSION = 1


class DimensionMismatch(ValueError):
    """Model dimensions are inconsistent (e.g. dim not divisible by heads)."""


class EmptyRow(ValueError):
    """An attention mask row allows no key at all."""


@dataclass(frozen=True)
class ModelSpec:
    vocab: int = 32768
    dim: int = 64
    heads: int = 4
    layers: int = 4
    ffn_dim: int | None = None  # defaults to 4*dim
    seed: int = 0
    rope_base: float = 10000.0

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def hidden_dim(self) -> int:
        return self.ffn_dim if self.ffn_dim is not None else 4 * self.dim

    def validate(self) -> None:
        if min(self.vocab, self.dim, self.heads, self.hidden_dim) <= 0:
            raise DimensionMismatch(f"non-positive dimension in {self}")
        if self.dim % self.heads != 0:
            raise DimensionMismatch(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.head_dim % 2 != 0:
            raise DimensionMismatch(f"head_dim {self.head_dim} must be even for rotary pairs")
        if self.layers < 2:
            raise DimensionMismatch(f"need at least 2 layers, got {self.layers}")


@dataclass
class LayerWeights:
    wq: np.ndarray  # (d, d)
    wk: np.ndarray  # (d, d)
    wv: np.ndarray  # (d, d)
    wo: np.ndarray  # (d, d)
    w_in: np.ndarray  # (d, hidden)
    w_out: np.ndarray  # (hidden, d)
    attn_gain: np.ndarray  # (d,)
    ffn_gain: np.ndarray  # (d,)

    def blocks(self) -> list[np.ndarray]:
        # declaration order, also the serialization order
        return [self.wq, self.wk, self.wv, self.wo, self.w_in, self.w_out,
                self.attn_gain, self.ffn_gain]


@dataclass
class Weights:
    spec: ModelSpec
    embedding: np.ndarray  # (V, d) float32
    layers: list[LayerWeights] = field(default_factory=list)


class OpCounter:
    """Tallies query-key dot products actually required by attention masks."""

    def __init__(self) -> None:
        self.dot_products = 0

    def add(self, n: int) -> None:
        self.dot_products += int(n)


def _draw_block(seed: int, name: str, shape: tuple[int, ...], scale: float) -> np.ndarray:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, fnv1a64(name.encode("utf-8"))], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.uniform(-scale, scale, size=shape).astype(np.float32)


def build_model(spec: ModelSpec) -> Weights:
    """Fill every weight block uniformly in [-1/sqrt(d), +1/sqrt(d)]."""
    spec.validate()
    d, hidden = spec.dim, spec.hidden_dim
    scale = 1.0 / math.sqrt(d)
    emb = _draw_block(spec.seed, "embedding", (spec.vocab, d), scale)
    layers = []
    for i in range(1, spec.layers + 1):
        layers.append(LayerWeights(
            wq=_draw_block(spec.seed, f"layer{i}.wq", (d, d), scale),
            wk=_draw_block(spec.seed, f"layer{i}.wk", (d, d), scale),
            wv=_draw_block(spec.seed, f"layer{i}.wv", (d, d), scale),
            wo=_draw_block(spec.seed, f"layer{i}.wo", (d, d), scale),
            w_in=_draw_block(spec.seed, f"layer{i}.w_in", (d, hidden), scale),
            w_out=_draw_block(spec.seed, f"layer{i}.w_out", (hidden, d), scale),
            attn_gain=_draw_block(spec.seed, f"layer{i}.attn_gain", (d,), scale),
            ffn_gain=_draw_block(spec.seed, f"layer{i}.ffn_gain", (d,), scale),
        ))
    return Weights(spec=spec, embedding=emb, layers=layers)


def embed(weights: Weights, ids: np.ndarray) -> np.ndarray:
    """Look up embeddings, upcast to float64. Returns (T, d)."""
    ids = np.asarray(ids, dtype=np.int64)
    return weights.embedding[ids].astype(np.float64)


def rms_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    scale = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)
    return x / scale * gain.astype(np.float64)


def gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation, standard in decoder stacks
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def apply_position_encoding(vecs: np.ndarray, positions: np.ndarray, base: float = 10000.0) -> np.ndarray:
    """Rotary encoding: pair (2i, 2i+1) rotated by position * base^(-2i/d_h).

    ``vecs`` is (..., T, d_h) with even d_h; ``positions`` has length T.
    """
    positions = np.asarray(positions, dtype=np.float64)
    d_h = vecs.shape[-1]
    half = d_h // 2
    inv_freq = base ** (-2.0 * np.arange(half) / d_h)
    angles = positions[:, None] * inv_freq[None, :]  # (T, half)
    cos, sin = np.cos(angles), np.sin(angles)
    even = vecs[..., 0::2]
    odd = vecs[..., 1::2]
    out = np.empty_like(vecs, dtype=np.float64)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def masked_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray,
    counter: OpCounter | None = None,
    return_probs: bool = False,
):
    """Softmax attention restricted to mask-allowed columns.

    q: (H, T_q, d_h), k/v: (H, T_k, d_h), mask: (T_q, T_k) bool.
    Disallowed columns are -inf before the softmax.  Raises EmptyRow if any
    mask row allows nothing.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape != (q.shape[1], k.shape[1]):
        raise ValueError(f"mask shape {mask.shape} vs q/k {(q.shape[1], k.shape[1])}")
    if not mask.any(axis=1).all():
        raise EmptyRow("attention mask has a row with no allowed column")
    if counter is not None:
        counter.add(int(mask.sum()))
    d_h = q.shape[-1]
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) / math.sqrt(d_h)  # (H, T_q, T_k)
    scores[:, ~mask] = -np.inf  # in place; the matmul output is fresh
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    out = np.matmul(scores, v)
    if return_probs:
        return out, scores
    return out


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    # (T, d) -> (H, T, d_h); head h owns columns [h*d_h, (h+1)*d_h)
    t, d = x.shape
    return x.reshape(t, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, t, d_h = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * d_h)


def project_queries(weights: Weights, layer: int, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Rotary-encoded query states of layer ``layer`` (1-based) for input x (T, d)."""
    lw = weights.layers[layer - 1]
    q = _split_heads(rms_norm(x, lw.attn_gain) @ lw.wq.astype(np.float64), weights.spec.heads)
    return apply_position_encoding(q, positions, weights.spec.rope_base)


def project_keys(weights: Weights, layer: int, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Rotary-encoded key states of layer ``layer`` (1-based) for input x (T, d)."""
    lw = weights.layers[layer - 1]
    k = _split_heads(rms_norm(x, lw.attn_gain) @ lw.wk.astype(np.float64), weights.spec.heads)
    return apply_position_encoding(k, positions, weights.spec.rope_base)


def layer_forward(
    weights: Weights,
    layer: int,
    x: np.ndarray,
    positions: np.ndarray,
    mask: np.ndarray,
    cache_k: np.ndarray | None = None,
    cache_v: np.ndarray | None = None,
    counter: OpCounter | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pre-norm decoder block over new tokens against an optional KV cache.

    ``layer`` is 1-based.  ``x`` is (T, d); cached keys/values are
    (H, C, d_h) and are attended before the new tokens.  Returns the block
    output plus the attended rotary-encoded keys and raw values: the C cached
    rows followed by the T new rows, in fresh arrays.
    """
    spec = weights.spec
    t = x.shape[0]
    if t == 0:
        empty = np.zeros((spec.heads, 0, spec.head_dim))
        k, v = (empty, empty) if cache_k is None else (cache_k, cache_v)
        return x.copy(), k.copy(), v.copy()
    lw = weights.layers[layer - 1]
    normed = rms_norm(x, lw.attn_gain)
    q = _split_heads(normed @ lw.wq.astype(np.float64), spec.heads)
    k = _split_heads(normed @ lw.wk.astype(np.float64), spec.heads)
    v = _split_heads(normed @ lw.wv.astype(np.float64), spec.heads)
    q = apply_position_encoding(q, positions, spec.rope_base)
    k = apply_position_encoding(k, positions, spec.rope_base)
    if cache_k is not None and cache_k.shape[1] > 0:
        k_all = np.concatenate([cache_k, k], axis=1)
        v_all = np.concatenate([cache_v, v], axis=1)
    else:
        k_all, v_all = k, v
    attn = masked_attention(q, k_all, v_all, mask, counter=counter)
    h = x + _merge_heads(attn) @ lw.wo.astype(np.float64)
    f = rms_norm(h, lw.ffn_gain)
    y = h + gelu(f @ lw.w_in.astype(np.float64)) @ lw.w_out.astype(np.float64)
    return y, k_all, v_all


# ---------------------------------------------------------------------------
# binary weight file: magic "ILRW", version u16, little-endian header + f32
# blocks in declaration order
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<IIIIIQd")  # vocab, dim, heads, layers, ffn, seed, rope_base


def save_weights(weights: Weights, path: str) -> None:
    spec = weights.spec
    with open(path, "wb") as fh:
        fh.write(WEIGHT_MAGIC)
        fh.write(struct.pack("<H", WEIGHT_VERSION))
        fh.write(_HEADER.pack(spec.vocab, spec.dim, spec.heads, spec.layers,
                              spec.hidden_dim, spec.seed & 0xFFFFFFFFFFFFFFFF,
                              spec.rope_base))
        fh.write(np.ascontiguousarray(weights.embedding, dtype="<f4").tobytes())
        for lw in weights.layers:
            for block in lw.blocks():
                fh.write(np.ascontiguousarray(block, dtype="<f4").tobytes())


def load_weights(path: str) -> Weights:
    with open(path, "rb") as fh:
        if fh.read(4) != WEIGHT_MAGIC:
            raise ValueError(f"{path}: bad magic, not a weight file")
        (version,) = struct.unpack("<H", fh.read(2))
        if version != WEIGHT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        vocab, dim, heads, layers, ffn, seed, rope_base = _HEADER.unpack(fh.read(_HEADER.size))
        spec = ModelSpec(vocab=vocab, dim=dim, heads=heads, layers=layers,
                         ffn_dim=ffn, seed=seed, rope_base=rope_base)
        spec.validate()

        def read_block(shape: tuple[int, ...]) -> np.ndarray:
            n = int(np.prod(shape))
            buf = fh.read(4 * n)
            if len(buf) != 4 * n:
                raise ValueError(f"{path}: truncated weight file")
            return np.frombuffer(buf, dtype="<f4").reshape(shape).copy()

        d, hidden = spec.dim, spec.hidden_dim
        emb = read_block((spec.vocab, d))
        layer_ws = []
        for _ in range(spec.layers):
            layer_ws.append(LayerWeights(
                wq=read_block((d, d)), wk=read_block((d, d)),
                wv=read_block((d, d)), wo=read_block((d, d)),
                w_in=read_block((d, hidden)), w_out=read_block((hidden, d)),
                attn_gain=read_block((d,)), ffn_gain=read_block((d,)),
            ))
    return Weights(spec=spec, embedding=emb, layers=layer_ws)
