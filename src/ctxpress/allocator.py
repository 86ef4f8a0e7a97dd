"""Query-context scoring and budgeted token allocation.

The query states attend over the full-length key cache; the resulting
probabilities collapse to one score per context position (max over heads and
query rows, sink excluded).  The allocator then spreads the token budget
evenly across every (max kernel, avg kernel) combination, ranking pooled
windows per combination and deduplicating as it goes.  With a single size-1
max kernel and a single size-1 avg kernel this degenerates to plain top-k
over raw scores.  All tie-breaks prefer the lower index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ctxpress import model
from ctxpress.codec import TokenSeq
from ctxpress.model import require_ints, run_parts, softmax_rows


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
        require_ints(self, self.budget, *self.max_kernels, *self.avg_kernels)
        if not self.max_kernels or not self.avg_kernels:
            raise ValueError("need at least one max and one avg kernel")
        if min(self.max_kernels) < 1 or min(self.avg_kernels) < 1:
            raise ValueError("kernel sizes must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")


@dataclass
class AllocationResult:
    indices: list[int]  # ascending, unique, sink included
    compressed: TokenSeq
    budget: int
    used_fallback: bool = False  # True if the final top-up pass ran


#: float64 entries in one block of query-row probabilities (8 MiB)
SCORE_BLOCK = 1 << 20


def query_context_scores(
    query_states: np.ndarray,
    full_k: np.ndarray,
) -> np.ndarray:
    """Per-position max over heads and query rows of the query-key softmax.

    query_states: (H, L_q, d_h); full_k: (H, L, d_h).  No causal
    restriction: the whole context precedes the query.  The heads are
    dealt round-robin to min(H, free CPUs) parts (``run_parts``); head h
    walks its query rows through ``block[h]`` of one (H, r, L) buffer,
    r = min(L_q, max(8, SCORE_BLOCK // (H*L))), keeping its running maxima
    in row h of an (H, L) array.  Each row's softmax spans all L columns
    and max is exact, so the result does not depend on the blocking or the
    threads.  Returns the (L,) maxima.
    """
    heads, query_len, d_h = query_states.shape
    if full_k.ndim != 3 or full_k.shape[0] != heads or full_k.shape[2] != d_h:
        raise ValueError(f"keys {full_k.shape} do not match query states {query_states.shape} "
                         "in heads and d_h")
    length = full_k.shape[1]
    if query_len == 0 or length == 0:
        raise ValueError(f"cannot score {query_len} query rows against {length} keys")
    keys_t = np.swapaxes(full_k, -1, -2)
    # one (H, L_q, d_h) product in place of a divide over every score
    query_states = query_states * (1.0 / math.sqrt(d_h))
    rows = min(query_len, max(8, SCORE_BLOCK // (heads * length)))
    block = np.empty((heads, rows, length))
    best = np.zeros((heads, length))

    threads = min(heads, model._free_cpus())

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
    pooled = values[0::size].copy()
    for j in range(1, size):
        part = values[j::size]
        np.maximum(pooled[:len(part)], part, out=pooled[:len(part)])
    return pooled


def _tree8(x: np.ndarray) -> np.ndarray:
    """((x0+x1)+(x2+x3))+((x4+x5)+(x6+x7)) at every start, added in place
    in one buffer."""
    sums = x[:-1] + x[1:]
    np.add(sums[:-2], sums[2:], out=sums[:-2])
    np.add(sums[:-6], sums[4:-2], out=sums[:-6])
    return sums[:-6]


class WindowMeans:
    """The avg-kernel window means of one max-pooled vector:
    ``mean(n)`` is ``sliding_window_view(pooled, min(n, len(pooled))).mean(-1)``,
    bit for bit.

    For n up to 16 over a pool at least that long, the window sums are
    added from shifted slices in numpy's ``pairwise_sum`` order: in
    sequence below 8 entries; from 8 to 16 in eight accumulators r_j (p_j,
    or p_j + p_(j+8) at 16) combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the rest in sequence.  Asked in ascending order, each n extends
    the running sums of n - 1 by one slice, in place.  Other kernels, and
    every kernel of a shorter pool, reduce their own windows.
    """

    def __init__(self, pooled: np.ndarray) -> None:
        self.pooled = pooled
        self._run: tuple[int, np.ndarray] | None = None  # (n, sums) below 16

    def mean(self, n: int) -> np.ndarray:
        p = self.pooled
        if not n <= 16 <= len(p):
            return sliding_window_view(p, min(n, len(p))).mean(axis=-1)
        if n == 16:
            self._run = None
            return _tree8(p[:-8] + p[8:]) / n
        k, run = self._run or (n + 1, None)
        if k > n or k < 8 <= n:  # start the run that n extends
            k, run = (1, p) if n < 8 else (8, _tree8(p))
        for j in range(k, n):
            if run is p:
                run = p[:-1] + p[1:]
            else:
                np.add(run[:-1], p[j:], out=run[:-1])
                run = run[:-1]
        self._run = (n, run)
        return run / n


def _ranked(avgs: np.ndarray, count: int) -> np.ndarray:
    """The first ``count <= len(avgs)`` windows of the stable descending
    ranking of ``avgs``: only windows at least as good as the count-th best
    can rank."""
    kth = len(avgs) - count
    order = (avgs >= np.partition(avgs, kth)[kth]).nonzero()[0]
    return order[(-avgs[order]).argsort(kind="stable")][:count]


#: windows the first batch of a ranking holds; each later batch holds four
#: times as many as the one before, up to ``BATCH`` indices
FIRST_WINDOWS = 64
#: indices one batch of ranked windows holds at most (512 KiB of int64)
BATCH = 1 << 16


def pooled_ranking(
    scores: ScoreVector,
    avgs: np.ndarray,
    m: int,
    n: int,
    max_windows: int | None = None,
) -> Iterator[np.ndarray]:
    """Stream the ranked windows of one (max m, avg n) combination in
    batches of consecutive ranked windows, each batch one int64 array of
    absolute context indices.

    ``avgs`` holds the combination's window means, ``WindowMeans(
    _max_pool(scores.values, m)).mean(n)``.  Windows are ranked by
    descending mean, ties to the lower position, at most ``max_windows``
    of them, best first; inside a window, offsets ascend.  A batch lists
    each index once, where its first window has it; a later batch may list
    it again.  Only the windows of the batches a caller draws get ranked.
    """
    length = len(scores.values)
    if length == 0:
        return
    total = len(avgs) if max_windows is None else min(max_windows, len(avgs))
    buckets = -(-length // m)
    width = min(n, buckets)  # buckets per window
    cells = np.arange(width)
    offsets = np.arange(scores.origin, scores.origin + m, dtype=np.int64)
    first = np.empty(buckets, dtype=np.int64)
    limit = max(1, BATCH // (width * m))
    done, count = 0, min(FIRST_WINDOWS, limit)
    while done < total:
        upto = min(total, done + count)
        starts = _ranked(avgs, upto)[done:]
        held = (starts[:, None] + cells).ravel()
        if width > 1:
            at = np.arange(len(held))
            first[held[::-1]] = at[::-1]  # the last write, the first position, stays
            held = held[first[held] == at]
        batch = (held[:, None] * m + offsets).ravel()
        if length % m and starts.max() == len(avgs) - 1:
            # the last window ends in a short bucket
            batch = batch[batch < length + scores.origin]
        yield batch
        done, count = upto, min(4 * count, limit)


def _take(batches: Iterator[np.ndarray], free: np.ndarray, need: int) -> int:
    """Take the first ``need`` indices still ``free`` from the ranked
    ``batches``, in stream order, and clear them in ``free``; returns how
    many were taken (fewer if the batches run out)."""
    taken = 0
    for batch in batches:
        new = batch[free[batch]][:need - taken]
        free[new] = False
        taken += len(new)
        if taken >= need:
            break
    return taken


def context_allocate(
    scores: ScoreVector,
    cfg: PoolingConfig,
    context: TokenSeq,
    sink: int,
) -> AllocationResult:
    """Distribute the budget over kernel combinations and gather the kept ids.

    The sink is always kept.  Each combination receives floor(B/N) indices
    (the first B mod N combinations one extra, in loop order: max kernels
    outer, avg kernels inner) and takes them from its ranked windows,
    skipping indices already taken (a boolean ``free`` mask over the
    context).  A combination falls short when its ``B // m + 1`` window
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
        free = np.ones(length, dtype=bool)
        free[:sink_count] = False
        kept = sink_count
        base, extra = divmod(cfg.budget, len(cfg.max_kernels) * len(cfg.avg_kernels))
        combo = 0
        for m in cfg.max_kernels:
            means = WindowMeans(_max_pool(scores.values, m))
            cap = cfg.budget // m + 1
            for n in cfg.avg_kernels:
                quota = base + (1 if combo < extra else 0)
                combo += 1
                if quota > 0:
                    kept += _take(pooled_ranking(scores, means.mean(n), m, n, max_windows=cap),
                                  free, quota)
        if kept < target:
            used_fallback = True
            # the size-1 windows of a size-1 max pool are the scores themselves
            kept += _take(pooled_ranking(scores, scores.values, 1, 1), free, target - kept)
        indices = np.flatnonzero(~free).tolist()
    assert len(indices) == target, f"allocated {len(indices)} != target {target}"
    compressed = TokenSeq([context.ids[i] for i in indices])
    return AllocationResult(indices=indices, compressed=compressed,
                            budget=cfg.budget, used_fallback=used_fallback)
