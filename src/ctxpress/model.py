"""Seeded decoder-only transformer core.

Weights are drawn from ``seeded_rng(seed, block name)``, so any block
regenerates bit-identically without the others.  Blocks are stored
as float32 (the on-disk format); forward math runs in float64.  There is no
training, sampling, or real checkpoint support -- the model exists so the
compression pipeline has deterministic attention to work with.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate

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

    def __post_init__(self) -> None:
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


#: usable CPUs, the thread count of query scoring, context prefill and Λ
#: attention; read at call (or scope) time, so one rebinding reaches all
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: on each thread: ``in_part`` is true while it runs a part of a
#: multi-part call, ``pool`` is the pool of its open ``worker_scope``
_PARTS = threading.local()


def _free_cpus() -> int:
    """CPUs a multi-part call made on this thread can use: one in a part."""
    return 1 if getattr(_PARTS, "in_part", False) else _CPUS


@contextmanager
def worker_scope():
    """Run the ``run_parts`` calls this thread makes in the block on one pool
    of ``_CPUS - 1`` threads, started on demand and joined when the block
    exits, so no pool outlives it and a child forked after it never inherits
    a pool whose threads it lacks.  A nested scope is part of the outer one."""
    if getattr(_PARTS, "pool", None) is not None:
        yield
        return
    try:
        with ThreadPoolExecutor(max(1, _CPUS - 1)) as _PARTS.pool:
            yield
    finally:
        _PARTS.pool = None


def run_parts(task, parts: int) -> list:
    """``[task(0), ..., task(parts - 1)]``, part 0 on the calling thread and
    the others on the pool of the thread's ``worker_scope`` (or of a scope
    opened for this call); one part starts no thread, and a call made from
    inside a part runs its parts inline.  Every part has finished before
    this returns or raises the first failure, so no thread still writes
    into shared buffers once an error propagates."""
    if parts <= 1 or getattr(_PARTS, "in_part", False):
        return [task(i) for i in range(parts)]
    pool = getattr(_PARTS, "pool", None)
    if pool is None:
        with worker_scope():
            return run_parts(task, parts)

    def part(i: int):
        _PARTS.in_part = True
        try:
            return task(i)
        finally:
            _PARTS.in_part = False

    tasks = []
    try:
        for i in range(1, parts):
            tasks.append(pool.submit(part, i))
        first = part(0)
    finally:
        wait(tasks)
    return [first, *(done.result() for done in tasks)]


class OpCounter:
    """Tallies the query-key dot products that attention needs."""

    def __init__(self) -> None:
        self.dot_products = 0

    def add(self, n: int) -> None:
        self.dot_products += int(n)


def seeded_rng(seed: int, name: str) -> np.random.Generator:
    """Philox keyed by ``[seed mod 2**64, fnv1a64(name in UTF-8)]``: the one
    keyed stream of weight blocks, needle cells and synthetic ids."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, fnv1a64(name.encode("utf-8"))], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_block(seed: int, name: str, shape: tuple[int, ...], scale: float) -> np.ndarray:
    return seeded_rng(seed, name).uniform(-scale, scale, size=shape).astype(np.float32)


def build_model(spec: ModelSpec) -> Weights:
    """Fill every weight block uniformly in [-1/sqrt(d), +1/sqrt(d)]."""
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
    # tanh approximation 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 *
    # x^3))): the expression's operations in its order, in one buffer
    y = x * x
    y *= x
    y *= 0.044715
    y += x
    y *= math.sqrt(2.0 / math.pi)
    np.tanh(y, out=y)
    y += 1.0
    y *= 0.5 * x
    return y


def apply_position_encoding(vecs: np.ndarray, positions: np.ndarray, base: float = 10000.0) -> np.ndarray:
    """Rotary encoding: pair (2i, 2i+1) rotated by position * base^(-2i/d_h).

    ``vecs`` is (..., T, d_h) with even d_h; ``positions`` has length T.
    """
    return _rotate(vecs, *_rotary_tables(positions, vecs.shape[-1], base))


def _rotary_tables(positions: np.ndarray, d_h: int, base: float) -> tuple[np.ndarray, np.ndarray]:
    # (cos, sin), each (T, d_h/2)
    positions = np.asarray(positions, dtype=np.float64)
    half = d_h // 2
    inv_freq = base ** (-2.0 * np.arange(half) / d_h)
    angles = positions[:, None] * inv_freq[None, :]  # (T, half)
    return np.cos(angles), np.sin(angles)


def _rotate(vecs: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    # even * cos - odd * sin and even * sin + odd * cos, each product and
    # sum rounded as before, written straight into the output's pairs
    even = vecs[..., 0::2]
    odd = vecs[..., 1::2]
    out = np.empty_like(vecs, dtype=np.float64)
    first, second = out[..., 0::2], out[..., 1::2]
    np.multiply(even, cos, out=first)
    first -= odd * sin
    np.multiply(even, sin, out=second)
    second += odd * cos
    return out


#: rows per block of the Lambda-mask attention kernel; an (H, 64, C + 64)
#: score block stays in cache where the full (H, T, C + T) tensor does not
ROW_BLOCK = 64
_ABOVE_DIAGONAL = np.triu(np.ones((ROW_BLOCK, ROW_BLOCK), dtype=bool), 1)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis, in place; returns ``scores``."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores *= 1.0 / scores.sum(axis=-1, keepdims=True)
    return scores


def _balanced_cuts(costs: list[int], parts: int) -> list[int]:
    """Bounds ``[0, c_1, ..., len(costs)]`` of ``parts`` contiguous, non-empty
    runs of ``costs`` (``parts <= len(costs)``) with near-equal sums: a run
    ends before the first item whose midpoint passes its share of the total."""
    ends = list(accumulate(costs))
    mids = [end - cost / 2 for end, cost in zip(ends, costs)]
    cuts = [0]
    for g in range(1, parts):
        first = bisect_right(mids, ends[-1] * g / parts)
        cuts.append(min(max(first, cuts[-1] + 1), len(costs) - parts + g))
    return [*cuts, len(costs)]


def masked_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None,
    return_probs: bool = False,
):
    """Softmax attention restricted to mask-allowed columns.

    q: (H, T_q, d_h), k/v: (H, T_k, d_h).  ``mask`` is a (T_q, T_k) bool
    array, or None for the Lambda mask: all C = T_k - T_q cached columns,
    then causal columns among the T_q new rows (row r allows C + r + 1).
    Disallowed columns are -inf before the softmax.  A dense mask is one
    block of all rows; the Lambda mask's ``ROW_BLOCK``-row blocks, each up
    to its diagonal, are dealt to contiguous groups, one per free CPU
    (``run_parts``), each writing its own rows through its own buffer, so
    the result does not depend on the grouping.  Raises EmptyRow if a dense
    mask row allows nothing; ``return_probs`` (dense mask only) also returns
    the (H, T_q, T_k) probabilities.
    """
    t_q, t_k = q.shape[1], k.shape[1]
    if mask is None:
        cached = t_k - t_q
        if cached < 0 or return_probs:
            raise ValueError(f"Lambda attention needs T_k >= T_q and no probs, got {(t_q, t_k)}")
        blocks = []
        for r0 in range(0, t_q, ROW_BLOCK):
            b = min(ROW_BLOCK, t_q - r0)
            blocks.append((r0, r0 + b, cached + r0 + b, cached + r0, _ABOVE_DIAGONAL[:b, :b]))
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or mask.shape != (t_q, t_k):
            raise ValueError(f"mask shape {mask.shape} vs q/k {(t_q, t_k)}")
        if not mask.any(axis=1).all():
            raise EmptyRow("attention mask has a row with no allowed column")
        blocks = [(0, t_q, t_k, 0, ~mask)]
    # scaling the (H, T_q, d_h) queries once replaces a divide per score
    q = q * (1.0 / math.sqrt(q.shape[-1]))
    out = np.empty(q.shape)
    heads = q.shape[0]
    areas = [(r1 - r0) * cols for r0, r1, cols, _, _ in blocks]
    # a block also costs about one ROW_BLOCK x ROW_BLOCK tile in fixed
    # per-call work, which the many narrow blocks of a first chunk add up
    cuts = _balanced_cuts([area + ROW_BLOCK * ROW_BLOCK for area in areas],
                          min(_free_cpus(), len(blocks)))
    # a group's blocks fill a contiguous prefix of its one buffer, so no
    # block is allocated while the previous one is still referenced; the
    # caller allocates them all, so no buffer is made on a pool thread
    buffers = [np.empty(heads * max(areas[a:b], default=0)) for a, b in zip(cuts, cuts[1:])]

    def run_group(g: int) -> np.ndarray | None:
        # rows r0:r1 score keys :cols; ``blocked`` marks the -inf entries of
        # columns diag: onward
        scores = None
        for r0, r1, cols, diag, blocked in blocks[cuts[g]:cuts[g + 1]]:
            scores = buffers[g][:heads * (r1 - r0) * cols].reshape(heads, r1 - r0, cols)
            np.matmul(q[:, r0:r1], np.swapaxes(k[:, :cols], -1, -2), out=scores)
            np.copyto(scores[..., diag:], -np.inf, where=blocked)
            np.matmul(softmax_rows(scores), v[:, :cols], out=out[:, r0:r1])
        return scores

    scores = run_parts(run_group, len(buffers))[-1]
    if return_probs:
        return out, scores
    return out


def _heads(x_norm: np.ndarray, w: np.ndarray, heads: int) -> np.ndarray:
    # (T, d) @ w -> (H, T, d_h); head h owns columns [h*d_h, (h+1)*d_h)
    y = x_norm @ w.astype(np.float64)
    return y.reshape(len(y), heads, w.shape[1] // heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, t, d_h = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * d_h)


def rotary_tables(weights: Weights, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (cos, sin) rotary tables of ``positions`` for this model's heads,
    each (T, d_h/2); every layer rotates with the same ones."""
    return _rotary_tables(positions, weights.spec.head_dim, weights.spec.rope_base)


def project_queries(weights: Weights, layer: int, x: np.ndarray,
                    rotary: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Rotary-encoded query states of layer ``layer`` (1-based) for input x
    (T, d); ``rotary`` is ``rotary_tables(weights, positions)``."""
    lw = weights.layers[layer - 1]
    return _rotate(_heads(rms_norm(x, lw.attn_gain), lw.wq, weights.spec.heads), *rotary)


def project_keys(weights: Weights, layer: int, x: np.ndarray,
                 rotary: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Rotary-encoded key states of layer ``layer`` (1-based) for input x
    (T, d); ``rotary`` as for ``project_queries``."""
    lw = weights.layers[layer - 1]
    return _rotate(_heads(rms_norm(x, lw.attn_gain), lw.wk, weights.spec.heads), *rotary)


def layer_forward(
    weights: Weights,
    layer: int,
    x: np.ndarray,
    rotary: tuple[np.ndarray, np.ndarray],
    mask: np.ndarray | None,
    cache_k: np.ndarray | None = None,
    cache_v: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pre-norm decoder block (``layer`` 1-based) over new tokens x
    (T, d) against an optional (H, C, d_h) KV cache, attended before them.

    ``rotary`` is ``rotary_tables(weights, positions)`` of the new tokens;
    ``mask`` is a dense (T, C + T) mask, or None for the Lambda mask (see
    ``masked_attention``).  Returns the block output plus the attended
    rotary-encoded keys and raw values: the C cached rows followed by the T
    new rows, in fresh arrays.
    """
    lw = weights.layers[layer - 1]
    x_norm = rms_norm(x, lw.attn_gain)
    q, k, v = (_heads(x_norm, w, weights.spec.heads) for w in (lw.wq, lw.wk, lw.wv))
    q, k = _rotate(q, *rotary), _rotate(k, *rotary)
    if cache_k is not None and cache_k.shape[1]:
        k, v = np.concatenate([cache_k, k], axis=1), np.concatenate([cache_v, v], axis=1)
    # called through the module-global name, so a rebinding of it sees every call
    attn = masked_attention(q, k, v, mask)
    h = x + _merge_heads(attn) @ lw.wo.astype(np.float64)
    f = rms_norm(h, lw.ffn_gain)
    y = h + gelu(f @ lw.w_in.astype(np.float64)) @ lw.w_out.astype(np.float64)
    return y, k, v


# binary weight file: magic "ILRW", version u16, little-endian header, then
# the f32 blocks in declaration order

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
    prefix = len(WEIGHT_MAGIC) + 2 + _HEADER.size
    with open(path, "rb") as fh:
        head = fh.read(prefix)
        if head[:4] != WEIGHT_MAGIC:
            raise ValueError(f"{path}: bad magic, not a weight file")
        if len(head) != prefix:
            raise ValueError(f"{path}: truncated weight file header")
        (version,) = struct.unpack("<H", head[4:6])
        if version != WEIGHT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        vocab, dim, heads, layers, ffn, seed, rope_base = _HEADER.unpack(head[6:])
        spec = ModelSpec(vocab=vocab, dim=dim, heads=heads, layers=layers,
                         ffn_dim=ffn, seed=seed, rope_base=rope_base)
        d, hidden = spec.dim, spec.hidden_dim
        emb_shape = (spec.vocab, d)
        layer_shapes = [(d, d)] * 4 + [(d, hidden), (hidden, d), (d,), (d,)]
        # checked before any read, so a header that claims more data than
        # the file holds never asks for a buffer of that size
        claimed = prefix + 4 * (math.prod(emb_shape) + spec.layers
                                * sum(math.prod(shape) for shape in layer_shapes))
        actual = os.fstat(fh.fileno()).st_size
        if actual != claimed:
            problem = ("truncated weight file" if actual < claimed
                       else "trailing bytes after the last weight block")
            raise ValueError(f"{path}: {problem}: header claims {claimed} bytes, "
                             f"file has {actual}")

        def read_block(shape: tuple[int, ...]) -> np.ndarray:
            buf = fh.read(4 * math.prod(shape))
            return np.frombuffer(buf, dtype="<f4").reshape(shape).copy()

        emb = read_block(emb_shape)
        # LayerWeights fields are in serialization order
        layer_ws = [LayerWeights(*map(read_block, layer_shapes)) for _ in range(spec.layers)]
    return Weights(spec=spec, embedding=emb, layers=layer_ws)
