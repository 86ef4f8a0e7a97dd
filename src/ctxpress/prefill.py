"""Streaming chunked prefill with sink + sliding-window caches.

Context and query prefill share one chunk step: a chunk attends, in each
layer below the retrieval layer, that layer's cached rows plus itself
causally (a Lambda mask).  Between chunks each such layer keeps one (k, v)
pair of at most ``sink + window`` rows, the sink first, then the window.
The retrieval layer stores keys only, full length, in a preallocated
buffer.  Positions are absolute token indices throughout -- window
survivors keep the positions they were encoded with.  Context prefill
splits a long context into up to one segment of chunks per usable CPU and
walks them on threads, bit for bit as one serial walk would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ctxpress import model
from ctxpress.codec import TokenSeq
from ctxpress.model import (
    OpCounter,
    Weights,
    embed,
    layer_forward,
    project_keys,
    project_queries,
    rotary_tables,
    run_parts,
)


class EmptyQuery(ValueError):
    """The query part has no tokens."""


@dataclass(frozen=True)
class StreamConfig:
    sink: int = 4
    window: int = 512
    chunk: int = 1024
    retrieval_layer: int = 1

    def __post_init__(self) -> None:
        if self.sink < 0 or self.window < 1 or self.chunk < 1 or self.retrieval_layer < 1:
            raise ValueError(f"invalid stream config {self}")

    def validate(self, n_layers: int) -> None:
        """Check the retrieval layer against a model's layer count."""
        if self.retrieval_layer > n_layers:
            raise ValueError(
                f"retrieval_layer {self.retrieval_layer} outside 1..{n_layers}")

    def to_json(self) -> dict:
        return {"sink": self.sink, "window": self.window, "chunk": self.chunk,
                "retrieval_layer": self.retrieval_layer}


@dataclass
class StreamCache:
    length: int  # context token count L
    sink_len: int  # min(sink, L)
    # one (k, v) pair per layer < retrieval_layer, each (H, rows, d_h):
    # the sink rows first, then the window rows in ascending position
    layers: list[tuple[np.ndarray, np.ndarray]]
    full_k: np.ndarray  # (H, L, d_h) keys at the retrieval layer

    def cache_cell_counts(self) -> tuple[int, int]:
        """(key+value cells in layers below, key cells at the retrieval layer),
        counted per head."""
        low = sum(2 * k.shape[1] for k, _ in self.layers)
        return low, self.length


def build_lambda_mask(chunk_len: int, cached: int) -> np.ndarray:
    """Allow all ``cached`` (sink and window) columns plus causal columns
    within the chunk.

    Columns are ordered cached rows, then the chunk (ascending); row r of the
    chunk allows cached + (r+1) columns.  This is the dense form of the mask
    the chunk step applies without building it (``mask=None`` in
    ``layer_forward``).
    """
    if chunk_len < 1 or cached < 0:
        raise ValueError("invalid mask dimensions")
    mask = np.zeros((chunk_len, cached + chunk_len), dtype=bool)
    mask[:, :cached] = True
    mask[:, cached:] = np.tril(np.ones((chunk_len, chunk_len), dtype=bool))
    return mask


def _chunk_bounds(total: int, chunk: int, sink: int) -> list[tuple[int, int]]:
    # first chunk is chunk+sink tokens, the rest are chunk, last may be short
    bounds = [(0, min(total, chunk + sink))]
    pos = bounds[0][1]
    while pos < total:
        nxt = min(total, pos + chunk)
        bounds.append((pos, nxt))
        pos = nxt
    return bounds


def _prefill_chunks(
    weights: Weights,
    config: StreamConfig,
    layers: list[tuple[np.ndarray, np.ndarray]],
    ids: np.ndarray,
    offset: int,
    walk: list[tuple[int, int]],
    owned: int,
    sink_len: int,
    counter: OpCounter | None,
):
    """The one chunk step of context and query prefill.

    Embeds each ``(start, end)`` chunk of ``ids`` in ``walk`` (ascending;
    see ``_chunk_bounds``), runs it through layers 1..l_R-1 against each
    layer's cached rows, and, for the chunks from ``walk[owned]`` on, yields
    ``(start, end, x, positions, rotary)`` with ``x`` the chunk's input to
    the retrieval layer and ``rotary`` the chunk's rotary tables, built
    once for every layer.  Each entry of ``layers`` is rebound to the attended
    rows, trimmed to the first ``sink_len`` and the last ``window`` rows; no
    array is mutated.  ``counter`` gains the Lambda mask's dot products of
    the yielded chunks, ``cached*T + T(T+1)/2`` per chunk of T tokens and
    lower layer.
    """
    keep = sink_len + config.window
    for step, (start, end) in enumerate(walk):
        t = end - start
        positions = np.arange(offset + start, offset + end, dtype=np.int64)
        rotary = rotary_tables(weights, positions)
        x = embed(weights, ids[start:end])
        for i, (k, v) in enumerate(layers):
            cached = k.shape[1]
            if counter is not None and step >= owned:
                counter.add(cached * t + t * (t + 1) // 2)
            x, k, v = layer_forward(weights, i + 1, x, positions, None, cache_k=k, cache_v=v,
                                    rotary=rotary)
            if k.shape[1] > keep:
                k = np.concatenate([k[:, :sink_len], k[:, -config.window:]], axis=1)
                v = np.concatenate([v[:, :sink_len], v[:, -config.window:]], axis=1)
            layers[i] = (k, v)
        if step >= owned:
            yield start, end, x, positions, rotary


def _segment_count(chunks: int, warm: int) -> int:
    """Segments of a context prefill of ``chunks`` chunks: one per usable
    CPU, each owning at least four times the ``warm + 1`` chunks a segment
    walks without owning them."""
    return max(1, min(model._CPUS, chunks // (4 * (warm + 1))))


def stream_prefill_context(
    weights: Weights,
    config: StreamConfig,
    context: TokenSeq,
    counter: OpCounter | None = None,
) -> StreamCache:
    """Run the context through layers below the retrieval layer in chunks,
    caching sink+window KV there and full-length keys at the retrieval layer.

    Hidden states above the retrieval layer are never computed.  If the
    context is shorter than the sink, the whole context becomes the sink.

    The chunks are split into contiguous segments (``_segment_count``), run
    by ``run_parts``: segment 0 on the calling thread, the others on a
    thread pool made for this call.  With several segments each chunk's
    attention runs inline on its segment's thread; one segment (a short
    context) walks its chunks on the calling thread and leaves the cores to
    its attention's row-block groups (``masked_attention``), while the
    chunk walk and every key projection stay on the caller.  Each
    segment's result is bit for bit the serial walk's, because a lower
    layer's cache at a chunk boundary is rebuilt exactly from a few chunks
    before it.  The cache holds the sink rows, which only chunk 0 writes,
    and the last ``window`` rows.  Layer-1 keys and values of a chunk
    depend on that chunk's tokens alone, so after m = ceil(window / chunk)
    chunks the layer-1 cache holds the serial walk's rows, the chunks after
    them get exact layer-1 outputs, and each further lower layer is exact m
    chunks later.  A segment that owns chunks a.. therefore walks chunk 0, then
    the warm = (l_R - 1) * m chunks before a (straight on from chunk 0 when
    a - warm <= 1), and from chunk a on computes the serial walk's
    ``full_k`` rows and caches with the same shapes and bits.  Each segment
    writes its own rows of ``full_k`` and counts only the chunks it owns;
    the cache keeps the last segment's layers.  A failing segment raises
    once every segment has finished.
    """
    spec = weights.spec
    config.validate(spec.layers)
    ids = np.asarray(context.ids, dtype=np.int64)
    length = len(ids)
    if length < 1:
        raise ValueError("context must contain at least one token")
    lr = config.retrieval_layer
    sink_len = min(config.sink, length)
    full_k = np.zeros((spec.heads, length, spec.head_dim))
    bounds = _chunk_bounds(length, config.chunk, config.sink)
    warm = (lr - 1) * -(-config.window // config.chunk)
    segments = _segment_count(len(bounds), warm)
    cuts = [s * len(bounds) // segments for s in range(segments + 1)]

    def run_segment(s: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], int]:
        a, b = cuts[s], cuts[s + 1]
        walk = [bounds[0], *bounds[max(1, a - warm):b]]
        empty = np.zeros((spec.heads, 0, spec.head_dim))
        layers = [(empty, empty)] * (lr - 1)
        own = OpCounter()
        for start, end, x, positions, rotary in _prefill_chunks(
                weights, config, layers, ids, 0, walk, len(walk) - (b - a), sink_len, own):
            full_k[:, start:end] = project_keys(weights, lr, x, positions, rotary)
        return layers, own.dot_products

    results = run_parts(run_segment, segments)
    if counter is not None:
        counter.add(sum(dots for _, dots in results))
    return StreamCache(length=length, sink_len=sink_len, layers=results[-1][0],
                       full_k=full_k)


def prefill_query_part(
    weights: Weights,
    config: StreamConfig,
    cache: StreamCache,
    query: TokenSeq,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Run the query tokens over the context caches and return the
    rotary-encoded query states (H, L_q, d_h) at the retrieval layer.

    Query chunks are ``chunk`` tokens from position L.  The chunk step works
    on a copy of the list of cached pairs, so query rows join the window (a
    multi-chunk query stays causal with itself) while the context cache is
    left as it was.
    """
    spec = weights.spec
    config.validate(spec.layers)
    ids = np.asarray(query.ids, dtype=np.int64)
    if len(ids) == 0:
        raise EmptyQuery("query part has no tokens")
    lr = config.retrieval_layer
    states = [project_queries(weights, lr, x, positions, rotary)
              for _, _, x, positions, rotary in _prefill_chunks(
                  weights, config, list(cache.layers), ids, cache.length,
                  _chunk_bounds(len(ids), config.chunk, 0), 0, cache.sink_len, counter)]
    return np.concatenate(states, axis=1)
