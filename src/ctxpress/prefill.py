"""Streaming chunked prefill with sink + sliding-window caches.

Context and query prefill share one chunk step: a chunk attends, in each
layer below the retrieval layer, that layer's cached rows plus itself
causally (a Lambda mask).  Between chunks each such layer keeps one (k, v)
pair of at most ``sink + window`` rows, the sink first, then the window.
The retrieval layer stores keys only, full length, in a preallocated
buffer.  Positions are absolute token indices throughout -- window
survivors keep the positions they were encoded with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ctxpress.codec import TokenSeq
from ctxpress.model import (
    OpCounter,
    Weights,
    embed,
    layer_forward,
    project_keys,
    project_queries,
)


class EmptyQuery(ValueError):
    """The query part has no tokens."""


@dataclass(frozen=True)
class StreamConfig:
    sink: int = 4
    window: int = 512
    chunk: int = 1024
    retrieval_layer: int = 1

    def validate(self, n_layers: int) -> None:
        if self.sink < 0 or self.window < 1 or self.chunk < 1:
            raise ValueError(f"invalid stream config {self}")
        if not 1 <= self.retrieval_layer <= n_layers:
            raise ValueError(
                f"retrieval_layer {self.retrieval_layer} outside 1..{n_layers}")

    def to_json(self) -> dict:
        return {"sink": self.sink, "window": self.window, "chunk": self.chunk,
                "retrieval_layer": self.retrieval_layer}


@dataclass
class StreamCache:
    config: StreamConfig
    length: int  # context token count L
    sink_len: int  # min(sink, L)
    # one (k, v) pair per layer < retrieval_layer, each (H, rows, d_h):
    # the sink rows first, then the window rows in ascending position
    layers: list[tuple[np.ndarray, np.ndarray]]
    full_k: np.ndarray  # (H, L, d_h) keys at the retrieval layer
    cursor: int = 0

    def cache_cell_counts(self) -> tuple[int, int]:
        """(key+value cells in layers below, key cells at the retrieval layer),
        counted per head."""
        low = sum(2 * k.shape[1] for k, _ in self.layers)
        return low, self.cursor


def build_lambda_mask(chunk_len: int, sink_len: int, window_len: int) -> np.ndarray:
    """Allow all sink and window columns plus causal columns within the chunk.

    Columns are ordered sink, window (ascending position), chunk (ascending);
    row r of the chunk allows sink_len + window_len + (r+1) columns.
    """
    if chunk_len < 1 or sink_len < 0 or window_len < 0:
        raise ValueError("invalid mask dimensions")
    cached = sink_len + window_len
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
    sink: int,
    sink_len: int,
    counter: OpCounter | None,
):
    """The one chunk step of context and query prefill.

    Embeds each chunk of ``ids`` (the first is ``chunk + sink`` tokens, the
    rest ``chunk``), runs it through layers 1..l_R-1 against each layer's
    cached rows, and yields ``(start, end, x, positions)`` with ``x`` the
    chunk's input to the retrieval layer and ``start:end`` indexing ``ids``.
    Each entry of ``layers`` is rebound to the attended rows, trimmed to the
    first ``sink_len`` and the last ``window`` rows; no array is mutated.
    """
    keep = sink_len + config.window
    for start, end in _chunk_bounds(len(ids), config.chunk, sink):
        positions = np.arange(offset + start, offset + end, dtype=np.int64)
        x = embed(weights, ids[start:end])
        for i, (k, v) in enumerate(layers):
            cached = k.shape[1]
            mask = build_lambda_mask(end - start, min(sink_len, cached),
                                     max(0, cached - sink_len))
            x, k, v = layer_forward(weights, i + 1, x, positions, mask,
                                    cache_k=k, cache_v=v, counter=counter)
            if k.shape[1] > keep:
                k = np.concatenate([k[:, :sink_len], k[:, -config.window:]], axis=1)
                v = np.concatenate([v[:, :sink_len], v[:, -config.window:]], axis=1)
            layers[i] = (k, v)
        yield start, end, x, positions


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
    """
    spec = weights.spec
    config.validate(spec.layers)
    ids = np.asarray(context.ids, dtype=np.int64)
    length = len(ids)
    if length < 1:
        raise ValueError("context must contain at least one token")
    lr = config.retrieval_layer
    empty = np.zeros((spec.heads, 0, spec.head_dim))
    cache = StreamCache(
        config=config,
        length=length,
        sink_len=min(config.sink, length),
        layers=[(empty, empty)] * (lr - 1),
        full_k=np.zeros((spec.heads, length, spec.head_dim)),
    )
    for start, end, x, positions in _prefill_chunks(
            weights, config, cache.layers, ids, 0, config.sink, cache.sink_len, counter):
        cache.full_k[:, start:end] = project_keys(weights, lr, x, positions)
        cache.cursor = end
    return cache


def prefill_query_part(
    weights: Weights,
    config: StreamConfig,
    cache: StreamCache,
    query: TokenSeq,
    start_position: int | None = None,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Run the query tokens over the context caches and return the
    rotary-encoded query states (H, L_q, d_h) at the retrieval layer.

    Query chunks are ``chunk`` tokens from position ``start_position``
    (default L).  The chunk step works on a copy of the list of cached pairs,
    so query rows join the window (a multi-chunk query stays causal with
    itself) while the context cache is left as it was.
    """
    spec = weights.spec
    config.validate(spec.layers)
    ids = np.asarray(query.ids, dtype=np.int64)
    if len(ids) == 0:
        raise EmptyQuery("query part has no tokens")
    start = cache.length if start_position is None else start_position
    lr = config.retrieval_layer
    states = [project_queries(weights, lr, x, positions)
              for _, _, x, positions in _prefill_chunks(
                  weights, config, list(cache.layers), ids, start, 0, cache.sink_len, counter)]
    return np.concatenate(states, axis=1)
