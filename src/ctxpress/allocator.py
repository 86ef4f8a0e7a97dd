"""Query-context scoring and budgeted token allocation.

The query states attend over the full-length key cache; the resulting
probabilities collapse to one score per context position (max over heads and
query rows, sink excluded).  The allocator then spreads the token budget
evenly across every (max kernel, avg kernel) combination, ranking pooled
windows per combination and deduplicating as it goes.  With a single size-1
max kernel and a single size-1 avg kernel this degenerates to plain top-k
over raw scores.

All tie-breaks prefer the lower index, so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ctxpress.codec import TokenSeq
from ctxpress.model import _CPUS, OpCounter, run_parts, softmax_rows


class DegenerateContext(ValueError):
    """Context has no scoreable positions beyond the sink."""


@dataclass
class ScoreVector:
    """One reduced attention score per non-sink context position.

    ``values[c]`` belongs to absolute context index ``origin + c``.
    """

    values: np.ndarray
    origin: int  # sink size, the first scored absolute index

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PoolingConfig:
    max_kernels: tuple[int, ...] = (2, 4, 8)
    avg_kernels: tuple[int, ...] = tuple(range(1, 17))
    budget: int = 4096

    def __post_init__(self) -> None:
        if not self.max_kernels or not self.avg_kernels:
            raise ValueError("need at least one max and one avg kernel")
        if min(self.max_kernels) < 1 or min(self.avg_kernels) < 1:
            raise ValueError("kernel sizes must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")

    def to_json(self) -> dict:
        return {"max_kernels": list(self.max_kernels),
                "avg_kernels": list(self.avg_kernels),
                "budget": self.budget}


@dataclass
class AllocationResult:
    indices: list[int]  # ascending, unique, sink included
    compressed: TokenSeq
    budget: int
    used_fallback: bool = False  # True if the final top-up pass ran

    def to_json(self, config: dict | None = None) -> dict:
        return {"indices": list(self.indices),
                "ids": list(self.compressed.ids),
                "budget": self.budget,
                "config": config or {}}


#: float64 entries in one block of query-row probabilities (8 MiB)
SCORE_BLOCK = 1 << 20


def query_context_scores(
    query_states: np.ndarray,
    full_k: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Per-position max over heads and query rows of the query-key softmax.

    query_states: (H, L_q, d_h); full_k: (H, L, d_h).  No causal
    restriction: the whole context precedes the query.  The heads are
    dealt round-robin to n = min(H, usable CPUs) threads, the caller's
    among them (``run_parts``); head h walks its query rows through
    ``block[h]`` of one (H, r, L) buffer, r = min(L_q, max(8, SCORE_BLOCK //
    (H*L))), and keeps its running maxima in row h of an (H, L) array.  Each
    row's softmax spans all L columns and max is exact, so the result does
    not depend on the blocking or the threads.  Returns the (L,) maxima.
    """
    heads, query_len, d_h = query_states.shape
    if full_k.ndim != 3 or full_k.shape[0] != heads or full_k.shape[2] != d_h:
        raise ValueError(f"keys {full_k.shape} do not match query states {query_states.shape} "
                         "in heads and d_h")
    length = full_k.shape[1]
    if query_len == 0 or length == 0:
        raise ValueError(f"cannot score {query_len} query rows against {length} keys")
    if counter is not None:
        counter.add(query_len * length)
    keys_t = np.swapaxes(full_k, -1, -2)
    # one (H, L_q, d_h) product in place of a divide over every score
    query_states = query_states * (1.0 / math.sqrt(d_h))
    rows = min(query_len, max(8, SCORE_BLOCK // (heads * length)))
    block = np.empty((heads, rows, length))
    best = np.zeros((heads, length))

    threads = min(heads, _CPUS)

    def score_heads(first: int) -> None:
        for h in range(first, heads, threads):
            for r0 in range(0, query_len, rows):
                probs = block[h, :query_len - r0]
                np.matmul(query_states[h, r0:r0 + rows], keys_t[h], out=probs)
                softmax_rows(probs)
                # fold the running maxima into the block, then reduce it into them
                np.maximum(probs[0], best[h], out=probs[0])
                np.max(probs, axis=0, out=best[h])

    run_parts(score_heads, threads)
    return best.max(axis=0)


def reduce_scores(values: np.ndarray, sink: int) -> ScoreVector:
    """Drop the sink positions from the (L,) per-position scores."""
    length = len(values)
    if length <= sink:
        raise DegenerateContext(f"context length {length} <= sink {sink}")
    return ScoreVector(values=values[sink:], origin=sink)


def _max_pool(values: np.ndarray, size: int) -> np.ndarray:
    # stride == size; a short trailing window is pooled over what it has
    n = len(values)
    buckets = (n + size - 1) // size
    padded = np.full(buckets * size, -np.inf)
    padded[:n] = values
    return padded.reshape(buckets, size).max(axis=1)


def pooled_ranking(
    scores: ScoreVector,
    pooled: np.ndarray,
    m: int,
    n: int,
    max_windows: int | None = None,
) -> Iterator[int]:
    """Stream absolute candidate indices for one (max m, avg n) combination.

    ``pooled`` is ``_max_pool(scores.values, m)``, computed once by the
    caller for every avg kernel.  Windows are ranked in pooled space by
    descending average score, ties to the lower position, and visited
    best-first; inside a window, offsets ascend.  The same index may appear
    under several overlapping windows -- the caller deduplicates.
    """
    values = scores.values
    if len(values) == 0:
        return
    n_eff = min(n, len(pooled))
    avgs = sliding_window_view(pooled, n_eff).mean(axis=-1)
    order = np.arange(len(avgs))
    if max_windows is not None and 0 < max_windows < len(avgs):
        # only windows at least as good as the max_windows-th best can rank
        kth = len(avgs) - max_windows
        order = np.flatnonzero(avgs >= np.partition(avgs, kth)[kth])
    for a in order[np.argsort(-avgs[order], kind="stable")][:max_windows]:
        lo = int(a) * m
        hi = min((int(a) + n_eff) * m, len(values))
        for off in range(lo, hi):
            yield off + scores.origin


def context_allocate(
    scores: ScoreVector,
    cfg: PoolingConfig,
    context: TokenSeq,
    sink: int,
) -> AllocationResult:
    """Distribute the budget over kernel combinations and gather the kept ids.

    The sink is always kept.  Each combination receives floor(B/N) indices
    (the first B mod N combinations one extra, in loop order: max kernels
    outer, avg kernels inner) and consumes its ranked stream skipping indices
    already taken.  A combination falls short when its ``B // m + 1`` window
    cap lets through fewer new indices than its quota, e.g. when the top
    window is a short trailing bucket; a final pass over the plain (1, 1)
    ranking then tops up the shortfall so |indices| == min(sink + B, L).
    """
    length = len(context)
    sink_count = min(sink, length)
    if len(scores.values) != length - sink_count or scores.origin != sink_count:
        raise ValueError(
            f"scores cover {len(scores.values)} positions from {scores.origin}, "
            f"expected {length - sink_count} from {sink_count}")
    target = min(sink_count + cfg.budget, length)
    used_fallback = False
    if target >= length:
        indices = list(range(length))
    else:
        allocated = set(range(sink_count))
        base, extra = divmod(cfg.budget, len(cfg.max_kernels) * len(cfg.avg_kernels))
        combo = 0
        for m in cfg.max_kernels:
            pooled = _max_pool(scores.values, m)
            cap = cfg.budget // m + 1
            for n in cfg.avg_kernels:
                quota = base + (1 if combo < extra else 0)
                combo += 1
                if quota == 0:
                    continue
                taken = 0
                for cand in pooled_ranking(scores, pooled, m, n, max_windows=cap):
                    if taken >= quota:
                        break
                    if cand not in allocated:
                        allocated.add(cand)
                        taken += 1
        if len(allocated) < target:
            used_fallback = True
            # a size-1 max pool is the score vector itself
            for cand in pooled_ranking(scores, scores.values, 1, 1):
                if len(allocated) >= target:
                    break
                allocated.add(cand)
        indices = sorted(allocated)
    assert len(indices) == target, f"allocated {len(indices)} != target {target}"
    compressed = TokenSeq([context.ids[i] for i in indices])
    return AllocationResult(indices=indices, compressed=compressed,
                            budget=cfg.budget, used_fallback=used_fallback)
