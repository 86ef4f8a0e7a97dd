"""Streaming chunked prefill with sink + sliding-window caches.

Context and query prefill share one chunk step: a chunk attends, in each
layer below the retrieval layer, that layer's cached rows plus itself
causally (a Lambda mask).  Between chunks each such layer keeps one (k, v)
pair of at most ``sink + window`` rows, the sink first, then the window.
The retrieval layer stores keys only, full length, in a preallocated
buffer.  Positions are absolute token indices throughout -- window
survivors keep the positions they were encoded with.  Context prefill
walks up to one segment of chunks per usable CPU, bit for bit the serial walk.
A ``Walk`` keeps a context's deepest walk, so a deeper retrieval layer
resumes it where it stopped instead of starting again at layer 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ctxpress import model
from ctxpress.model import (
    Weights,
    embed,
    layer_forward,
    project_keys,
    project_queries,
    require_ints,
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
        require_ints(self, self.sink, self.window, self.chunk, self.retrieval_layer)
        if self.sink < 0 or self.window < 1 or self.chunk < 1 or self.retrieval_layer < 1:
            raise ValueError(f"invalid stream config {self}")

    def validate(self, n_layers: int) -> None:
        """Check the retrieval layer against a model's layer count."""
        if self.retrieval_layer > n_layers:
            raise ValueError(
                f"retrieval_layer {self.retrieval_layer} outside 1..{n_layers}")


@dataclass
class StreamCache:
    length: int  # context token count L
    sink_len: int  # min(sink, L)
    # one (k, v) pair per layer < retrieval_layer, each (H, rows, d_h):
    # the sink rows first, then the window rows in ascending position
    layers: list[tuple[np.ndarray, np.ndarray]]
    full_k: np.ndarray  # (H, L, d_h) keys at the retrieval layer


@dataclass
class Walk:
    """The deepest context prefill of one context so far, for resuming it.

    ``inputs`` (L, d) are the states entering layer ``depth``, as the chunk
    step yields them, and ``layers`` the final (k, v) caches of layers
    1..depth-1, made with the ``weights`` object, ``stream`` = (sink,
    window, chunk) and context ``ids`` recorded.  Empty until filled by
    ``stream_prefill_context``.
    """

    weights: Weights | None = None
    stream: tuple[int, int, int] | None = None
    ids: np.ndarray | None = None
    depth: int = 0
    inputs: np.ndarray | None = None
    layers: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def _chunk_bounds(total: int, chunk: int, sink: int) -> list[tuple[int, int]]:
    # first chunk is chunk+sink tokens, the rest are chunk, last may be short
    first = min(total, chunk + sink)
    return [(0, first), *((a, min(total, a + chunk)) for a in range(first, total, chunk))]


def _prefill_chunks(
    weights: Weights,
    config: StreamConfig,
    layers: list[tuple[np.ndarray, np.ndarray]],
    source,
    offset: int,
    chunks: list[tuple[int, int]],
    owned: int,
    sink_len: int,
    first: int = 1,
):
    """The one chunk step of context and query prefill: runs each
    ``(start, end)`` chunk in ``chunks`` (ascending), entering as
    ``source(start, end)``, through layers first..l_R-1 against each layer's
    cached rows (``layers[i]`` is layer first+i) and, from ``chunks[owned]``
    on, yields ``(start, end, x, rotary)``, the chunk's input to the
    retrieval layer and its rotary tables.  Each entry of ``layers`` is
    rebound to the attended rows, trimmed to the first ``sink_len`` and the
    last ``window``; no array is mutated.
    """
    keep = sink_len + config.window
    for step, (start, end) in enumerate(chunks):
        rotary = rotary_tables(weights, np.arange(offset + start, offset + end))
        x = source(start, end)
        for i, (k, v) in enumerate(layers):
            x, k, v = layer_forward(weights, first + i, x, rotary, None, cache_k=k, cache_v=v)
            if k.shape[1] > keep:
                k = np.concatenate([k[:, :sink_len], k[:, -config.window:]], axis=1)
                v = np.concatenate([v[:, :sink_len], v[:, -config.window:]], axis=1)
            layers[i] = (k, v)
        if step >= owned:
            yield start, end, x, rotary


def _segment_count(chunks: int, warm: int) -> int:
    """Segments of a context prefill of ``chunks`` chunks: one per free CPU
    (so one inside a part), each owning at least four times the ``warm + 1``
    chunks a segment walks without owning them."""
    return max(1, min(model._free_cpus(), chunks // (4 * (warm + 1))))


def stream_prefill_context(
    weights: Weights,
    config: StreamConfig,
    context: list[int],
    walk: Walk | None = None,
) -> StreamCache:
    """Run the context through layers below the retrieval layer in chunks,
    caching sink+window KV there and full-length keys at the retrieval layer.
    Hidden states above the retrieval layer are never computed.  If the
    context is shorter than the sink, the whole context becomes the sink.

    Contiguous segments of chunks (``_segment_count``) run by ``run_parts``,
    each bit for bit the serial walk's: a lower layer's cache holds the sink
    rows, written by chunk 0 only, and the last ``window`` rows, so it is
    exact m = ceil(window / chunk) chunks after the layer below it.  A
    segment owning chunks a.. walks chunk 0 and the warm = (l_R - first) * m
    chunks before a, then writes its rows of ``full_k``; the cache keeps
    the last segment's layers.  A failing segment raises once every
    segment is done.

    Given a ``walk`` of these weights (the same object), stream fields and
    ids that reached a depth <= l_R, the walk starts at layer first = depth
    from its stored inputs and lower caches; otherwise at layer 1 from the
    embeddings.  Either way the walk is then refilled at depth l_R.
    """
    spec = weights.spec
    config.validate(spec.layers)
    ids = np.array(context, dtype=np.int64)
    length = len(ids)
    if length < 1:
        raise ValueError("context must contain at least one token")
    lr = config.retrieval_layer
    stream = (config.sink, config.window, config.chunk)
    lower, first, source = [], 1, lambda a, b: embed(weights, ids[a:b])
    if (walk is not None and walk.weights is weights and walk.stream == stream
            and walk.depth <= lr and np.array_equal(walk.ids, ids)):
        lower, first, stored = walk.layers, walk.depth, walk.inputs
        source = lambda a, b: stored[a:b]  # noqa: E731 - read before the walk is refilled
    inputs = None if walk is None else np.empty((length, spec.dim))
    sink_len = min(config.sink, length)
    full_k = np.zeros((spec.heads, length, spec.head_dim))
    bounds = _chunk_bounds(length, config.chunk, config.sink)
    warm = (lr - first) * -(-config.window // config.chunk)
    segments = _segment_count(len(bounds), warm)
    cuts = [s * len(bounds) // segments for s in range(segments + 1)]

    def run_segment(s: int) -> list[tuple[np.ndarray, np.ndarray]]:
        a, b = cuts[s], cuts[s + 1]
        chunks = [bounds[0], *bounds[max(1, a - warm):b]]
        empty = np.zeros((spec.heads, 0, spec.head_dim))
        layers = [(empty, empty)] * (lr - first)
        for start, end, x, rotary in _prefill_chunks(weights, config, layers, source, 0, chunks,
                                                     len(chunks) - (b - a), sink_len, first):
            full_k[:, start:end] = project_keys(weights, lr, x, rotary)
            if inputs is not None:
                inputs[start:end] = x
        return layers

    layers = [*lower, *run_parts(run_segment, segments)[-1]]
    if walk is not None:
        walk.weights, walk.stream, walk.ids = weights, stream, ids
        walk.depth, walk.inputs, walk.layers = lr, inputs, layers
    return StreamCache(length=length, sink_len=sink_len, layers=layers, full_k=full_k)


def prefill_query_part(
    weights: Weights,
    config: StreamConfig,
    cache: StreamCache,
    query: list[int],
) -> np.ndarray:
    """Run the query tokens over the context caches and return the
    rotary-encoded query states (H, L_q, d_h) at the retrieval layer.

    Query chunks are ``chunk`` tokens from position L.  They run on a copy
    of the list of cached pairs, so query rows join the window (a
    multi-chunk query stays causal with itself) and the cache is unchanged.
    """
    spec = weights.spec
    config.validate(spec.layers)
    ids = np.asarray(query, dtype=np.int64)
    if len(ids) == 0:
        raise EmptyQuery("query part has no tokens")
    lr = config.retrieval_layer
    states = [project_queries(weights, lr, x, rotary)
              for _, _, x, rotary in _prefill_chunks(
                  weights, config, list(cache.layers), lambda a, b: embed(weights, ids[a:b]),
                  cache.length, _chunk_bounds(len(ids), config.chunk, 0), 0, cache.sink_len)]
    return np.concatenate(states, axis=1)
