"""End-to-end compression jobs, cost accounting, and the scaling benchmark.

A job runs prefill -> query prefill -> scoring -> allocation and reports
its dot products and cache cells: closed forms of the sizes and the stream
config, which the Lambda mask's shape fixes.  The benchmark measures wall
time across context lengths and fits a line; with the window set to the
context length the same engine becomes the full-KV baseline, cost quadratic.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace

import numpy as np

from ctxpress.allocator import (
    AllocationResult,
    PoolingConfig,
    context_allocate,
    query_context_scores,
    reduce_scores,
)
from ctxpress.codec import TokenSeq
from ctxpress.model import Weights, seeded_rng, worker_scope
from ctxpress.prefill import StreamConfig, _chunk_bounds, prefill_query_part, stream_prefill_context


class InsufficientPoints(ValueError):
    """The benchmark needs at least four context lengths."""


class TokenIdOutOfRange(ValueError):
    """A context or query token id lies outside 0..vocab-1."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, original: Exception):
        super().__init__(f"stage '{stage}' failed: {original}")
        self.stage = stage
        self.original = original


@dataclass
class CostReport:
    dot_products: int
    cache_cells_low: int  # key+value cells per head, layers below retrieval
    cache_cells_retrieval: int  # key cells per head at the retrieval layer
    wall_seconds: float


@dataclass
class CompressResult:
    allocation: AllocationResult
    cost: CostReport
    bypassed: bool
    output_ids: list[int]  # selected context ids ++ query ids

    def to_json(self, config: dict | None = None) -> dict:
        allocation, cost = self.allocation, self.cost
        return {"indices": list(allocation.indices),
                "ids": list(allocation.compressed.ids),
                "budget": allocation.budget,
                "config": config or {},
                "output_ids": list(self.output_ids),
                "cost": {"dot_products": cost.dot_products,
                         "cache_cells_low": cost.cache_cells_low,
                         "cache_cells_lr": cost.cache_cells_retrieval,
                         "wall_ms": cost.wall_seconds * 1000.0},
                "bypassed": self.bypassed}


def count_cache_cells(length: int, sink: int, window: int, retrieval_layer: int) -> tuple[int, int]:
    """Per-head cache cells after a context prefill: 2*min(L, sink+window)
    key+value cells for each layer below the retrieval layer, plus ``length``
    key cells at that layer."""
    return int(2 * min(length, sink + window) * (retrieval_layer - 1)), length


def count_dot_products(length: int, query_len: int, stream: StreamConfig) -> int:
    """Query-key dot products of one compression of ``length`` context and
    ``query_len`` query tokens.  In each layer below the retrieval layer a
    chunk of T tokens at position a attends its min(a, min(sink, L)+window)
    cached rows and itself causally: the context chunks, then the query
    chunks from L.  Scoring adds L_q*L."""
    keep = min(stream.sink, length) + stream.window
    chunks = [*_chunk_bounds(length, stream.chunk, stream.sink),
              *((length + a, length + b) for a, b in _chunk_bounds(query_len, stream.chunk, 0))]
    per_layer = sum(min(a, keep) * (b - a) + (b - a) * (b - a + 1) // 2 for a, b in chunks)
    return int((stream.retrieval_layer - 1) * per_layer + query_len * length)


def run_compress(
    weights: Weights,
    stream: StreamConfig,
    pooling: PoolingConfig,
    context: TokenSeq,
    query: TokenSeq,
) -> CompressResult:
    """Compress the context against the query and append the query ids.

    If the budget plus sink already covers the context, the model never runs
    and the input passes through unchanged.  The retrieval layer is checked
    against the model and token ids against the vocabulary first, bypass or
    not.
    """
    if len(context) == 0 or len(query) == 0:
        raise ValueError("context and query must be non-empty")
    stream.validate(weights.spec.layers)
    vocab = weights.spec.vocab
    for part, seq in (("context", context), ("query", query)):
        low, high = min(seq.ids), max(seq.ids)
        if low < 0 or high >= vocab:
            raise TokenIdOutOfRange(
                f"{part} token id {low if low < 0 else high} outside 0..{vocab - 1}")
    length = len(context)
    started = time.perf_counter()
    if length <= pooling.budget + stream.sink:
        allocation = AllocationResult(
            indices=list(range(length)),
            compressed=TokenSeq(list(context.ids)),
            budget=pooling.budget)
        cost = CostReport(0, 0, 0, time.perf_counter() - started)
        return CompressResult(allocation=allocation, cost=cost, bypassed=True,
                              output_ids=list(context.ids) + list(query.ids))

    def stage(name: str, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - re-raised with stage context
            raise PipelineError(name, exc) from exc

    # prefill segments, attention row groups and scoring heads share one pool
    with worker_scope():
        cache = stage("context-prefill", stream_prefill_context, weights, stream, context)
        query_states = stage("query-prefill", prefill_query_part, weights, stream, cache, query)
        values = stage("scoring", query_context_scores, query_states, cache.full_k)
    scores = stage("scoring", reduce_scores, values, cache.sink_len)
    allocation = stage("allocation", context_allocate, scores, pooling, context, cache.sink_len)
    cells = count_cache_cells(length, stream.sink, stream.window, stream.retrieval_layer)
    cost = CostReport(count_dot_products(length, len(query), stream), *cells,
                      time.perf_counter() - started)
    return CompressResult(allocation=allocation, cost=cost, bypassed=False,
                          output_ids=list(allocation.compressed.ids) + list(query.ids))


def synthetic_ids(length: int, vocab: int, seed: int, tag: str = "bench") -> TokenSeq:
    """Deterministic filler token ids for cost measurements."""
    return TokenSeq(seeded_rng(seed, f"{tag}.{length}").integers(4, vocab, size=length).tolist())


def linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit. Returns (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


@dataclass
class BenchRow:
    length: int
    dot_products: int
    cache_cells_low: int
    cache_cells_retrieval: int
    wall_ms: float


@dataclass
class BenchResult:
    rows: list[BenchRow]
    time_fit: tuple[float, float, float]  # slope, intercept, r2 of wall ms vs length
    dots_fit: tuple[float, float, float]

    def write_csv(self, path: str) -> None:
        # numeric fields need no quoting; rows end in "\r\n", as csv writes them
        with open(path, "w", newline="") as fh:
            fh.write("length,dot_products,cache_cells_low,cache_cells_lr,wall_ms\r\n")
            for row in self.rows:
                fh.write(f"{row.length},{row.dot_products},{row.cache_cells_low},"
                         f"{row.cache_cells_retrieval},{row.wall_ms:.3f}\r\n")


def bench_scaling(
    weights: Weights,
    stream: StreamConfig,
    pooling: PoolingConfig,
    lengths: list[int],
    query_len: int = 16,
    runs: int = 3,
    full_attention: bool = False,
) -> BenchResult:
    """Measure wall time and dot products per context length and fit lines.

    ``full_attention=True`` widens the window to the context length, turning
    the engine into the no-eviction full-KV baseline.  Wall time per length
    is the median of ``runs`` runs, timed round-robin over the lengths after
    one untimed warm-up call, with garbage collected before and switched off
    during each timed call, so drift in the host's speed spreads evenly.
    """
    if runs < 1:
        raise ValueError(f"need >= 1 run, got {runs}")
    if len(lengths) < 4:
        raise InsufficientPoints(f"need >= 4 lengths, got {len(lengths)}")
    if any(b >= a for a, b in zip(lengths[1:], lengths)):
        raise ValueError("lengths must be strictly ascending")
    spec = weights.spec
    jobs = []
    for length in lengths:
        config = replace(stream, window=length) if full_attention else stream
        if length <= pooling.budget + config.sink:
            raise ValueError(f"length {length} within budget; benchmark would bypass")
        jobs.append((config, synthetic_ids(length, spec.vocab, spec.seed)))
    query = synthetic_ids(query_len, spec.vocab, spec.seed, tag="bench-query")
    config, context = jobs[0]
    run_compress(weights, config, pooling, context, query)  # warm-up, not timed
    costs: list[list[CostReport]] = [[] for _ in jobs]
    gc_was_on = gc.isenabled()
    for _ in range(runs):
        for (config, context), done in zip(jobs, costs):
            gc.collect()
            gc.disable()
            try:
                done.append(run_compress(weights, config, pooling, context, query).cost)
            finally:
                if gc_was_on:
                    gc.enable()
    rows = [BenchRow(
        length=length,
        dot_products=done[-1].dot_products,
        cache_cells_low=done[-1].cache_cells_low,
        cache_cells_retrieval=done[-1].cache_cells_retrieval,
        wall_ms=float(np.median([cost.wall_seconds for cost in done])) * 1000.0)
        for length, done in zip(lengths, costs)]
    xs = np.array([row.length for row in rows], dtype=np.float64)
    return BenchResult(
        rows=rows,
        time_fit=linear_fit(xs, np.array([row.wall_ms for row in rows])),
        dots_fit=linear_fit(xs, np.array([row.dot_products for row in rows])))
