"""Brute-force oracles kept independent of the code paths they check.

The dense attention and block-forward routines here are written with plain
loops and re-derived formulas; ``build_lambda_mask`` is the dense mask of
one chunk step; the monolithic pipeline runs every token at once with a
single causal mask (no chunks, no eviction); the Lambda-mask pipeline runs
every token at once under a dense mask built entry by entry from the chunk,
sink and window rule; the serial block scorer walks every head's query rows
together through one buffer, on one thread; the naive allocator follows the
budget loop literally with python sets and lists, summing each window in
numpy's pairwise order, and the window-loop allocator ranks every window
with numpy's own mean and takes the ranked windows one at a time; the
serial prefill walks every context chunk in order on one thread.
``plant_retrieval`` makes one layer of a model a retrieval layer by hand.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ctxpress.allocator import query_context_scores, reduce_scores
from ctxpress.model import (
    Weights,
    embed,
    layer_forward,
    project_keys,
    project_queries,
    rotary_tables,
    softmax_rows,
)


def build_lambda_mask(chunk_len: int, cached: int) -> np.ndarray:
    """Dense (T, cached + T) form of the Lambda mask that ``masked_attention``
    applies for ``mask=None``: every row allows all ``cached`` columns, and
    row r of the chunk its first r + 1 chunk columns."""
    if chunk_len < 1 or cached < 0:
        raise ValueError("invalid mask dimensions")
    mask = np.zeros((chunk_len, cached + chunk_len), dtype=bool)
    mask[:, :cached] = True
    mask[:, cached:] = np.tril(np.ones((chunk_len, chunk_len), dtype=bool))
    return mask


def dense_softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                            mask: np.ndarray) -> np.ndarray:
    """Loop-based masked attention. q/k/v: (H, T, d_h), mask: (T_q, T_k)."""
    heads, t_q, d_h = q.shape
    t_k = k.shape[1]
    out = np.zeros((heads, t_q, d_h))
    for h in range(heads):
        for i in range(t_q):
            logits = np.full(t_k, -np.inf)
            for j in range(t_k):
                if mask[i, j]:
                    logits[j] = float(q[h, i] @ k[h, j]) / math.sqrt(d_h)
            logits -= logits[np.isfinite(logits)].max()
            weights = np.where(np.isfinite(logits), np.exp(logits), 0.0)
            weights /= weights.sum()
            for j in range(t_k):
                out[h, i] += weights[j] * v[h, j]
    return out


def rotate_pairs(vec: np.ndarray, position: int, base: float) -> np.ndarray:
    """Rotary encoding of one vector, pair by pair."""
    d_h = len(vec)
    out = np.empty_like(vec, dtype=np.float64)
    for i in range(d_h // 2):
        angle = position * base ** (-2.0 * i / d_h)
        c, s = math.cos(angle), math.sin(angle)
        x, y = vec[2 * i], vec[2 * i + 1]
        out[2 * i] = x * c - y * s
        out[2 * i + 1] = x * s + y * c
    return out


def reference_block_forward(weights: Weights, layer: int, x: np.ndarray,
                            positions: np.ndarray) -> np.ndarray:
    """Full-causal decoder block re-derived from scratch (no cache support)."""
    spec = weights.spec
    lw = weights.layers[layer - 1]
    t = x.shape[0]
    d_h = spec.head_dim

    def norm(v, gain):
        return v / np.sqrt((v * v).mean(axis=-1, keepdims=True) + 1e-6) * gain

    normed = norm(x, lw.attn_gain.astype(np.float64))
    q_all = normed @ lw.wq.astype(np.float64)
    k_all = normed @ lw.wk.astype(np.float64)
    v_all = normed @ lw.wv.astype(np.float64)
    attn_merged = np.zeros((t, spec.dim))
    for h in range(spec.heads):
        cols = slice(h * d_h, (h + 1) * d_h)
        q = np.stack([rotate_pairs(q_all[i, cols], int(positions[i]), spec.rope_base)
                      for i in range(t)])
        k = np.stack([rotate_pairs(k_all[i, cols], int(positions[i]), spec.rope_base)
                      for i in range(t)])
        v = v_all[:, cols]
        for i in range(t):
            logits = np.array([q[i] @ k[j] / math.sqrt(d_h) if j <= i else -np.inf
                               for j in range(t)])
            logits -= logits[: i + 1].max()
            w = np.exp(logits)
            w /= w.sum()
            attn_merged[i, cols] = w @ v
    h_mid = x + attn_merged @ lw.wo.astype(np.float64)
    f = norm(h_mid, lw.ffn_gain.astype(np.float64))
    inner = f @ lw.w_in.astype(np.float64)
    act = 0.5 * inner * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                       * (inner + 0.044715 * inner ** 3)))
    return h_mid + act @ lw.w_out.astype(np.float64)


def monolithic_pipeline_scores(weights: Weights, retrieval_layer: int,
                               ctx_ids: list[int], query_ids: list[int], sink: int):
    """One full-causal forward over context ++ query, then query-key scoring.

    Uses the model primitives but none of the streaming machinery.  Returns
    (the scores past the sink, context keys at the retrieval layer).
    """
    ids = np.asarray(list(ctx_ids) + list(query_ids), dtype=np.int64)
    total, length = len(ids), len(ctx_ids)
    x = embed(weights, ids)
    positions = np.arange(total)
    mask = np.tril(np.ones((total, total), dtype=bool))
    for layer in range(1, retrieval_layer):
        x, _, _ = layer_forward(weights, layer, x, rotary_tables(weights, positions), mask)
    k_ctx = project_keys(weights, retrieval_layer, x[:length],
                         rotary_tables(weights, positions[:length]))
    q_states = project_queries(weights, retrieval_layer, x[length:],
                               rotary_tables(weights, positions[length:]))
    attn = query_context_scores(q_states, k_ctx)
    return reduce_scores(attn, sink), k_ctx


def serial_block_scores(query_states: np.ndarray, full_k: np.ndarray,
                        score_block: int) -> np.ndarray:
    """Query scoring as one serial loop over row blocks of all heads at once.

    Uses the blocking rule of ``query_context_scores``: r = min(L_q, max(8,
    score_block // (H*L))) rows of every head per (H, r, L) block, the
    queries pre-scaled by 1/sqrt(d_h), and a running (L,) maximum.  Per-head
    tasks and per-head maxima must reproduce its bits exactly.
    """
    heads, query_len, d_h = query_states.shape
    length = full_k.shape[1]
    keys_t = np.swapaxes(full_k, -1, -2)
    query_states = query_states * (1.0 / math.sqrt(d_h))
    rows = min(query_len, max(8, score_block // (heads * length)))
    block = np.empty((heads, rows, length))
    best = np.zeros(length)
    for r0 in range(0, query_len, rows):
        probs = block[:, :query_len - r0]
        np.matmul(query_states[:, r0:r0 + rows], keys_t, out=probs)
        np.maximum(best, softmax_rows(probs).max(axis=(0, 1)), out=best)
    return best


def lambda_mask(length: int, query_len: int, sink: int, window: int,
                chunk: int) -> np.ndarray:
    """Dense (T, T) Lambda mask over context ++ query, T = length + query_len,
    built entry by entry from the chunk rule.

    Context chunks are ``chunk + sink`` tokens first, then ``chunk``; query
    chunks are ``chunk`` tokens from position ``length``.  Token t in the
    chunk starting at a may attend j when j is a sink position
    (j < min(S_len, a)), one of the last ``window`` non-sink positions before
    the chunk (max(S_len, a - window) <= j < a), or causal within the chunk
    (a <= j <= t), where S_len = min(sink, length).
    """
    total = length + query_len
    sink_len = min(sink, length)
    first = chunk + sink
    mask = np.zeros((total, total), dtype=bool)
    for t in range(total):
        if t >= length:
            a = length + (t - length) // chunk * chunk
        elif t < first:
            a = 0
        else:
            a = first + (t - first) // chunk * chunk
        for j in range(total):
            mask[t, j] = (j < min(sink_len, a)
                          or max(sink_len, a - window) <= j < a
                          or a <= j <= t)
    return mask


def lambda_mask_pipeline(weights: Weights, retrieval_layer: int, ctx_ids: list[int],
                         query_ids: list[int], sink: int, window: int, chunk: int):
    """One forward over context ++ query under the dense Lambda mask: every
    token at once, no caches, no eviction.

    Returns (context keys, query states) at the retrieval layer, the values
    streaming prefill with the same sink, window and chunk must reproduce.
    """
    ids = np.asarray(list(ctx_ids) + list(query_ids), dtype=np.int64)
    length = len(ctx_ids)
    mask = lambda_mask(length, len(query_ids), sink, window, chunk)
    x = embed(weights, ids)
    positions = np.arange(len(ids))
    for layer in range(1, retrieval_layer):
        x, _, _ = layer_forward(weights, layer, x, rotary_tables(weights, positions), mask)
    k_ctx = project_keys(weights, retrieval_layer, x[:length],
                         rotary_tables(weights, positions[:length]))
    q_states = project_queries(weights, retrieval_layer, x[length:],
                               rotary_tables(weights, positions[length:]))
    return k_ctx, q_states


def serial_prefill(weights: Weights, ids: list[int], sink: int, window: int, chunk: int,
                   retrieval_layer: int):
    """Context prefill as one walk over every chunk in order, on one thread.

    Chunks are ``chunk + sink`` tokens, then ``chunk``.  Each lower layer's
    (k, v) rows after a chunk are the first min(sink, L) and the last
    ``window`` of the rows it attended.  Returns (keys at the retrieval
    layer, the final list of lower-layer pairs, the Lambda mask's dot
    products), which segmented prefill must reproduce bit for bit.
    """
    spec = weights.spec
    ids = np.asarray(ids, dtype=np.int64)
    length = len(ids)
    sink_len = min(sink, length)
    full_k = np.zeros((spec.heads, length, spec.head_dim))
    empty = np.zeros((spec.heads, 0, spec.head_dim))
    layers = [(empty, empty)] * (retrieval_layer - 1)
    dots = 0
    start = 0
    while start < length:
        end = min(length, start + chunk + (sink if start == 0 else 0))
        t = end - start
        positions = np.arange(start, end, dtype=np.int64)
        x = embed(weights, ids[start:end])
        for i, (k, v) in enumerate(layers):
            dots += k.shape[1] * t + t * (t + 1) // 2
            x, k, v = layer_forward(weights, i + 1, x, rotary_tables(weights, positions), None,
                                    cache_k=k, cache_v=v)
            if k.shape[1] > sink_len + window:
                k = np.concatenate([k[:, :sink_len], k[:, k.shape[1] - window:]], axis=1)
                v = np.concatenate([v[:, :sink_len], v[:, v.shape[1] - window:]], axis=1)
            layers[i] = (k, v)
        full_k[:, start:end] = project_keys(weights, retrieval_layer, x,
                                            rotary_tables(weights, positions))
        start = end
    return full_k, layers, dots


def plant_retrieval(weights: Weights, layer: int, alpha: float) -> Weights:
    """A copy of ``weights`` whose ``layer`` projects queries and keys alike:
    wq = wk = alpha * I with a unit attention gain, so a query row scores
    highest the context rows whose hidden state matches its own, such as a
    repeat of its token.  This is the match step of the induction heads of
    Olsson et al. (arXiv:2209.11895); a large ``rope_base`` keeps rotary
    positions from drowning it."""
    eye = (alpha * np.eye(weights.spec.dim)).astype(np.float32)
    layers = list(weights.layers)
    layers[layer - 1] = replace(layers[layer - 1], wq=eye, wk=eye,
                                attn_gain=np.ones(weights.spec.dim, dtype=np.float32))
    return replace(weights, layers=layers)


def naive_max_pool(values: list[float], size: int) -> list[float]:
    return [max(values[i:i + size]) for i in range(0, len(values), size)]


def pairwise_sum(values: list[float]) -> float:
    """Sum in the order of numpy's ``pairwise_sum``: in sequence below 8
    values; up to 128 in eight accumulators r_j = v_j + v_(j+8) + ...
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest in
    sequence; above 128 split at half, rounded down to a multiple of 8."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        full = n - n % 8
        acc = list(values[:8])
        for i in range(8, full, 8):
            acc = [a + v for a, v in zip(acc, values[i:i + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in values[full:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def naive_avg_windows(pooled: list[float], size: int) -> list[float]:
    """Each window's mean as numpy's ``mean`` takes it: its pairwise sum
    over the window size, so tied windows tie as they do in numpy."""
    size = min(size, len(pooled))
    return [pairwise_sum(pooled[i:i + size]) / size
            for i in range(len(pooled) - size + 1)], size


def naive_allocate(scores: np.ndarray, sink: int, budget: int,
                   max_kernels: list[int], avg_kernels: list[int],
                   total_len: int) -> list[int]:
    """Literal transcription of the budget loop with nothing shared with the
    implementation: python lists, explicit loops, explicit dedup."""
    target = min(sink + budget, total_len)
    if target >= total_len:
        return list(range(total_len))
    allocated = set(range(min(sink, total_len)))
    combos = [(m, n) for m in max_kernels for n in avg_kernels]
    per, extra = budget // len(combos), budget % len(combos)
    values = [float(v) for v in scores]
    for idx, (m, n) in enumerate(combos):
        quota = per + (1 if idx < extra else 0)
        if quota == 0:
            continue
        pooled = naive_max_pool(values, m)
        avgs, n_eff = naive_avg_windows(pooled, n)
        ranked = sorted(range(len(avgs)), key=lambda a: (-avgs[a], a))
        ranked = ranked[: budget // m + 1]
        stream = []
        for a in ranked:
            for off in range(a * m, min((a + n_eff) * m, len(values))):
                stream.append(off + sink)
        taken = 0
        for cand in stream:
            if taken >= quota:
                break
            if cand not in allocated:
                allocated.add(cand)
                taken += 1
    if len(allocated) < target:
        ranked = sorted(range(len(values)), key=lambda c: (-values[c], c))
        for c in ranked:
            if len(allocated) >= target:
                break
            allocated.add(c + sink)
    return sorted(allocated)


def window_loop_allocate(scores: np.ndarray, sink: int, budget: int,
                         max_kernels: tuple[int, ...], avg_kernels: tuple[int, ...],
                         total_len: int) -> list[int]:
    """The allocator as it ran window by window: one ``sliding_window_view``
    mean per combination, the capped stable ranking, and each ranked window
    taken against a boolean free mask, then the plain (1, 1) top-up."""
    target = min(sink + budget, total_len)
    if target >= total_len:
        return list(range(total_len))
    values = np.asarray(scores, dtype=np.float64)
    free = np.ones(total_len, dtype=bool)
    free[:min(sink, total_len)] = False
    kept = min(sink, total_len)

    def windows(pooled, m, n, cap):
        n_eff = min(n, len(pooled))
        avgs = sliding_window_view(pooled, n_eff).mean(axis=-1)
        order = np.arange(len(avgs))
        if cap is not None and 0 < cap < len(avgs):
            kth = len(avgs) - cap
            order = np.flatnonzero(avgs >= np.partition(avgs, kth)[kth])
        for a in order[np.argsort(-avgs[order], kind="stable")][:cap]:
            yield np.arange(int(a) * m + sink, min((int(a) + n_eff) * m, len(values)) + sink)

    def take(stream, need):
        taken = 0
        for win in stream:
            new = win[free[win]][:need - taken]
            free[new] = False
            taken += len(new)
            if taken >= need:
                break
        return taken

    base, extra = divmod(budget, len(max_kernels) * len(avg_kernels))
    combo = 0
    for m in max_kernels:
        buckets = -(-len(values) // m)
        padded = np.full(buckets * m, -np.inf)
        padded[:len(values)] = values
        pooled = padded.reshape(buckets, m).max(axis=1)
        for n in avg_kernels:
            quota = base + (1 if combo < extra else 0)
            combo += 1
            if quota > 0:
                kept += take(windows(pooled, m, n, budget // m + 1), quota)
    if kept < target:
        take(windows(values, 1, 1, None), target - kept)
    return np.flatnonzero(~free).tolist()
