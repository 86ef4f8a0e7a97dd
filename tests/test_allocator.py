"""Scoring reduction and budgeted allocation against brute-force oracles."""

import multiprocessing
import os
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings, strategies as st

from ctxpress import allocator, model
from ctxpress.allocator import (
    DegenerateContext,
    PoolingConfig,
    context_allocate,
    pooled_ranking,
    query_context_scores,
    reduce_scores,
)
from ctxpress.model import ModelSpec, build_model, softmax_rows
from ctxpress.pipeline import PipelineError, run_compress, synthetic_ids
from ctxpress.prefill import StreamConfig
from reference import (
    naive_allocate,
    naive_avg_windows,
    naive_max_pool,
    serial_block_scores,
    window_loop_allocate,
)

def _scores(values, origin=0):
    # scores and the context index of score position 0
    return np.asarray(values, dtype=np.float64), origin


def _ranking(vec, m, n, max_windows=None):
    # the caller pools and averages once per max kernel; tests do it per
    # call.  The ranked batches, flattened into one context index stream
    values, origin = vec
    avgs = allocator.WindowMeans(allocator._max_pool(values, m)).mean(n)
    return [origin + int(i)
            for batch in pooled_ranking(len(values), avgs, m, n, max_windows=max_windows)
            for i in batch]


def _context(n):
    return list(range(100, 100 + n))


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 42], dtype=np.uint64)))


# --- query-context scoring ---------------------------------------------------

def test_single_context_position_is_certain(rng):
    scores = query_context_scores(rng.normal(size=(2, 3, 8)), rng.normal(size=(2, 1, 8)))
    assert np.allclose(scores, 1.0)


def test_identical_logits_uniform():
    q = np.zeros((1, 2, 8))
    k = np.ones((1, 4, 8))
    scores = query_context_scores(q, k)
    assert np.abs(scores - 0.25).max() < 1e-6


def _loop_softmax(q, k):
    # (H, L_q, L) probabilities built row by row from the formula
    heads, query_len, d_h = q.shape
    probs = np.empty((heads, query_len, k.shape[1]))
    for h in range(heads):
        for i in range(query_len):
            logits = k[h] @ q[h, i] / np.sqrt(d_h)
            ref = np.exp(logits - logits.max())
            probs[h, i] = ref / ref.sum()
    return probs


def test_scores_match_dense_oracle(rng):
    q = rng.normal(size=(2, 3, 8))
    k = rng.normal(size=(2, 5, 8))
    scores = query_context_scores(q, k)
    assert scores.shape == (5,)
    assert np.abs(scores - _loop_softmax(q, k).max(axis=(0, 1))).max() < 1e-6


def test_reduce_identity_single_head_row():
    vec = reduce_scores(np.array([0.2, 0.5, 0.3]), sink=0)
    assert np.allclose(vec, [0.2, 0.5, 0.3])


def test_reduce_elementwise_max():
    # head 0 prefers position 1, head 1 position 0: the score keeps each maximum
    q = np.zeros((2, 1, 2))
    k = np.array([[[0.0, 0.0], [8.0, 0.0]], [[8.0, 0.0], [0.0, 0.0]]])
    q[:, 0, 0] = 1.0
    probs = _loop_softmax(q, k)
    vec = reduce_scores(query_context_scores(q, k), 0)
    assert np.allclose(vec, [probs[1, 0, 0], probs[0, 0, 1]])
    assert vec[0] > 0.9 and vec[1] > 0.9


def test_reduce_matches_triple_loop(rng):
    q = rng.normal(size=(4, 4, 8))
    k = rng.normal(size=(4, 64, 8))
    probs = _loop_softmax(q, k)
    vec = reduce_scores(query_context_scores(q, k), sink=4)
    assert len(vec) == 60
    for c in range(60):
        want = max(probs[h, i, 4 + c] for h in range(4) for i in range(4))
        assert vec[c] == pytest.approx(want)


def test_reduce_rejects_sink_only():
    with pytest.raises(DegenerateContext):
        reduce_scores(np.ones(3) / 3, sink=3)


@pytest.mark.parametrize("shape", [((2, 0, 8), (2, 5, 8)), ((2, 3, 8), (2, 0, 8))])
def test_scoring_rejects_empty_query_or_keys(shape):
    q_shape, k_shape = shape
    with pytest.raises(ValueError):
        query_context_scores(np.ones(q_shape), np.ones(k_shape))


@pytest.mark.parametrize("score_block", [allocator.SCORE_BLOCK, 1])
@settings(max_examples=60, deadline=None)
@given(heads=st.integers(1, 4), half_d=st.integers(1, 8), query_len=st.integers(1, 100),
       length=st.integers(1, 2000), seed=st.integers(0, 2 ** 31 - 1))
def test_blocked_scores_match_full_softmax(score_block, heads, half_d, query_len, length,
                                           seed):
    # SCORE_BLOCK = 1 forces 8-row blocks and, for most L_q, a ragged tail
    gen = _rng(seed)
    d_h = 2 * half_d
    q = gen.normal(size=(heads, query_len, d_h))
    k = gen.normal(size=(heads, length, d_h))
    want = softmax_rows(q @ np.swapaxes(k, -1, -2) / np.sqrt(d_h)).max(axis=(0, 1))
    with mock.patch.object(allocator, "SCORE_BLOCK", score_block):
        got = query_context_scores(q, k)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_scoring_memory_stays_within_a_block():
    # the full (2, 256, 32768) float64 tensor would take 128 MiB
    gen = _rng(5)
    length = 32768
    q = gen.normal(size=(2, 256, 16))
    k = gen.normal(size=(2, length, 16))
    tracemalloc.start()
    try:
        # both heads in flight at once, on any host
        with mock.patch.object(model, "_CPUS", 2):
            query_context_scores(q, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * allocator.SCORE_BLOCK * 8 + 4 * length * 8


@settings(max_examples=60, deadline=None)
@given(heads=st.integers(1, 8), half_d=st.integers(1, 8), query_len=st.integers(1, 100),
       length=st.integers(1, 600), seed=st.integers(0, 2 ** 31 - 1), cpus=st.integers(1, 8))
@example(heads=8, half_d=2, query_len=40, length=300, seed=11, cpus=8)
@example(heads=5, half_d=2, query_len=40, length=300, seed=11, cpus=2)
def test_head_tasks_reproduce_the_serial_loop_bit_for_bit(heads, half_d, query_len, length,
                                                          seed, cpus):
    # SCORE_BLOCK = 1 gives 8-row blocks and, for most L_q, a ragged tail;
    # min(heads, cpus) threads share the heads round-robin, so a thread that
    # skipped a head or wrote into another head's rows of the shared buffers
    # would change bits
    gen = _rng(seed)
    d_h = 2 * half_d
    q = gen.normal(size=(heads, query_len, d_h))
    k = gen.normal(size=(heads, length, d_h))
    want = serial_block_scores(q, k, 1)
    with mock.patch.object(allocator, "SCORE_BLOCK", 1), \
            mock.patch.object(model, "_CPUS", cpus):
        got = query_context_scores(q, k)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("q_shape, k_shape", [((2, 3, 8), (3, 5, 8)), ((2, 3, 8), (1, 5, 8)),
                                              ((2, 3, 8), (2, 5, 6)), ((2, 3, 8), (5, 8))])
def test_scoring_rejects_mismatched_heads_or_d_h(q_shape, k_shape):
    with pytest.raises(ValueError, match="do not match"):
        query_context_scores(np.ones(q_shape), np.ones(k_shape))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_scoring_in_a_child_forked_after_scoring():
    # a pool kept across calls would reach the child without its threads,
    # and the child's first submit would wait forever
    gen = _rng(13)
    q = gen.normal(size=(2, 20, 4))
    k = gen.normal(size=(2, 50, 4))
    want = query_context_scores(q, k)

    def child():
        os._exit(0 if np.array_equal(query_context_scores(q, k), want) else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=30)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("scoring hung in the forked child")
    assert proc.exitcode == 0


def test_failed_head_surfaces_after_every_head_finished():
    # both heads meet on their first block, then head 0 raises while head 1
    # still has four 20 ms blocks to go
    weights = build_model(ModelSpec(dim=32, heads=2, layers=2, seed=3))
    barrier = threading.Barrier(2, timeout=10)
    lock = threading.Lock()
    heads_seen = set()
    state = {"running": 0, "done": 0}

    def flaky(probs):
        head = probs.ctypes.data  # every block of head h starts at block[h, 0]
        with lock:
            first = head not in heads_seen
            heads_seen.add(head)
        if first:
            barrier.wait()
            if head == min(heads_seen):
                raise FloatingPointError("head 0 failed")
        with lock:
            state["running"] += 1
        time.sleep(0.02)
        with lock:
            state["running"] -= 1
            state["done"] += 1
        return softmax_rows(probs)

    context = synthetic_ids(600, weights.spec.vocab, 1)
    query = synthetic_ids(32, weights.spec.vocab, 2)  # four 8-row blocks per head
    with mock.patch.object(allocator, "SCORE_BLOCK", 1), \
            mock.patch.object(model, "_CPUS", 2), \
            mock.patch.object(allocator, "softmax_rows", flaky), \
            pytest.raises(PipelineError) as err:
        run_compress(weights, StreamConfig(retrieval_layer=1), PoolingConfig(budget=64),
                     context, query)
    assert err.value.stage == "scoring"
    assert isinstance(err.value.original, FloatingPointError)
    assert state == {"running": 0, "done": 4}


# --- pooled ranking ----------------------------------------------------------

def test_plain_ranking_is_argsort():
    vec = _scores([0.1, 0.9, 0.2, 0.05], origin=2)
    assert _ranking(vec, 1, 1) == [3, 4, 2, 5]  # 1,2,0,3 plus origin


def test_max_pool_windows_expand_in_order():
    vec = _scores([0.1, 0.9, 0.2, 0.05])
    assert _ranking(vec, 2, 1) == [0, 1, 2, 3]


def test_partial_trailing_window_kept():
    vec = _scores([0.0, 0.0, 0.9])  # bucket 1 is the short tail {2}
    assert _ranking(vec, 2, 1) == [2, 0, 1]


def test_window_cap():
    vec = _scores(np.linspace(1, 0, 10))
    capped = _ranking(vec, 1, 1, max_windows=3)
    assert capped == [0, 1, 2]


@settings(max_examples=200, deadline=None)
@given(levels=st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.9]), min_size=1, max_size=120),
       m=st.integers(1, 5), n=st.integers(1, 6), cap=st.integers(1, 130))
def test_capped_ranking_is_prefix_of_uncapped(levels, m, n, cap):
    # few distinct levels put ties across the cap; the capped stream must be
    # the first min(cap, windows) windows of the full stable ranking
    vec = _scores(levels, origin=3)
    capped = _ranking(vec, m, n, max_windows=cap)
    full = _ranking(vec, m, n)
    assert capped == full[:len(capped)]
    # the literal ranking's first cap windows, each index where its first
    # window has it (a batch lists an index once, a later batch may repeat it)
    avgs, n_eff = naive_avg_windows(naive_max_pool(levels, m), n)
    ranked = sorted(range(len(avgs)), key=lambda a: (-avgs[a], a))[:cap]
    want = [i + 3 for a in ranked for i in range(a * m, min((a + n_eff) * m, len(levels)))]
    assert list(dict.fromkeys(capped)) == list(dict.fromkeys(want))


@settings(max_examples=300, deadline=None)
@given(levels=st.lists(st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.9, 1e-3, 7.0]),
                       min_size=1, max_size=400),
       kernels=st.lists(st.integers(1, 16), min_size=1, max_size=20),
       jitter=st.booleans(), seed=st.integers(0, 2 ** 31 - 1))
@example(levels=[0.1] * 16, kernels=list(range(1, 17)), jitter=True, seed=0)
@example(levels=[0.3] * 400, kernels=list(range(1, 17)), jitter=True, seed=1)
@example(levels=[0.3] * 40, kernels=[16, 9, 3, 12, 12, 1, 15, 8, 7], jitter=True, seed=2)
def test_shared_window_means_equal_numpys_mean(levels, kernels, jitter, seed):
    # the shared slice sums must add in numpy's pairwise order, so every
    # mean is sliding_window_view(...).mean(-1) bit for bit, in whatever
    # order the kernels are asked; few rounded levels put exact ties
    # everywhere, jitter makes most sums inexact
    pooled = np.asarray(levels)
    if jitter:
        pooled = pooled * (1 + np.round(_rng(seed).random(len(pooled)), 3))
    means = allocator.WindowMeans(pooled)
    for n in kernels:
        got = means.mean(n)
        assert np.array_equal(got, sliding_window_view(pooled, min(n, len(pooled))).mean(-1)), n
        naive, _ = naive_avg_windows(list(pooled), n)
        assert np.array_equal(got, naive), n


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=400),
       size=st.integers(1, 400))
@example(values=[0.1, 0.3] * 150, size=300)
def test_pairwise_sum_oracle_is_numpys_window_sum(values, size):
    # the naive allocator's window means must be numpy's, bit for bit,
    # below 8 entries, up to 128 and past the split at 128
    pooled = np.asarray(values)
    want = sliding_window_view(pooled, min(size, len(pooled))).mean(-1)
    got, _ = naive_avg_windows(values, size)
    assert np.array_equal(np.asarray(got), want)


@pytest.mark.parametrize("length, kernels", [(400, (17, 40, 16)), (15, (1, 8, 16)),
                                             (16, (16, 20, 1))])
def test_untested_kernels_and_short_pools_keep_numpys_mean(monkeypatch, length, kernels):
    # only avg kernels up to 16 over pools at least 16 long share sums;
    # the others still reduce their own windows
    calls = []

    def recorded(pooled, n):
        calls.append(n)
        return sliding_window_view(pooled, n)

    monkeypatch.setattr(allocator, "sliding_window_view", recorded)
    pooled = _rng(4).random(length)
    means = allocator.WindowMeans(pooled)
    for n in kernels:
        want = sliding_window_view(pooled, min(n, length)).mean(axis=-1)
        assert np.array_equal(means.mean(n), want)
    assert calls == [min(n, length) for n in kernels if not n <= 16 <= length]


def test_top_k_cap_rule():
    # cap = floor(B/m) + 1
    assert PoolingConfig(budget=4096).budget // 2 + 1 == 2049


def test_avg_kernel_clamped_to_pooled_length():
    vec = _scores([0.3, 0.1])
    # m=1 gives 2 buckets, n=16 clamps to 2: single window covering both
    assert _ranking(vec, 1, 16) == [0, 1]


def test_tie_breaks_prefer_lower_position():
    vec = _scores([0.5, 0.5, 0.5, 0.5])
    assert _ranking(vec, 1, 1) == [0, 1, 2, 3]


# --- context allocation ------------------------------------------------------

def test_budget_covers_everything():
    ctx = _context(10)
    res = context_allocate(np.linspace(1, 0, 6),
                           PoolingConfig(max_kernels=(1,), avg_kernels=(1,), budget=6),
                           ctx, sink=4)
    assert res.indices == list(range(10))
    assert res.compressed == ctx


def test_zero_budget_keeps_sink_only():
    ctx = _context(10)
    res = context_allocate(np.linspace(1, 0, 6),
                           PoolingConfig(max_kernels=(1,), avg_kernels=(1,), budget=0),
                           ctx, sink=4)
    assert res.indices == [0, 1, 2, 3]


def test_snapkv_special_case_equals_topk(rng):
    for trial in range(20):
        gen = _rng(trial)
        n = int(gen.integers(5, 200))
        sink = int(gen.integers(0, 5))
        values = gen.random(n)
        budget = int(gen.integers(0, n))
        cfg = PoolingConfig(max_kernels=(1,), avg_kernels=(1,), budget=budget)
        res = context_allocate(values, cfg, _context(n + sink), sink)
        top = np.argsort(-values, kind="stable")[:budget] + sink
        want = sorted(set(range(sink)) | set(int(i) for i in top))
        assert res.indices == want


def test_matches_naive_reimplementation(rng):
    for trial in range(30):
        gen = _rng(trial + 1000)
        n = int(gen.integers(10, 300))
        sink = int(gen.integers(0, 6))
        budget = int(gen.integers(0, n))
        max_k = sorted(set(int(x) for x in gen.integers(1, 9, size=int(gen.integers(1, 4)))))
        avg_k = sorted(set(int(x) for x in gen.integers(1, 17, size=int(gen.integers(1, 6)))))
        values = gen.random(n)
        cfg = PoolingConfig(max_kernels=tuple(max_k), avg_kernels=tuple(avg_k), budget=budget)
        got = context_allocate(values, cfg, _context(n + sink), sink)
        want = naive_allocate(values, sink, budget, max_k, avg_k, n + sink)
        assert got.indices == want, (trial, n, sink, budget, max_k, avg_k)


@settings(max_examples=300, deadline=None)
@given(levels=st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.9]), min_size=1, max_size=200),
       sink=st.integers(0, 5), budget=st.integers(0, 200),
       max_k=st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True),
       avg_k=st.lists(st.integers(1, 17), min_size=1, max_size=5, unique=True))
@example(levels=[0.9, 0.1, 0.25, 0.25, 0.9, 0.25, 0.9, 0.1, 0.1, 0.1, 0.25, 0.9],
         sink=0, budget=1, max_k=[1], avg_k=[11])
def test_window_allocation_matches_naive_loop_with_ties(levels, sink, budget, max_k, avg_k):
    # few distinct levels put tied windows and overlapping picks everywhere;
    # taking whole windows against the free mask must keep the set loop's picks.
    # Example: windows 0 and 1 hold the same levels, so their numpy means
    # tie, while summing left to right would break the tie by one ulp
    values = np.asarray(levels)
    total = len(values) + sink
    cfg = PoolingConfig(max_kernels=tuple(max_k), avg_kernels=tuple(avg_k), budget=budget)
    got = context_allocate(values, cfg, _context(total), sink)
    assert got.indices == naive_allocate(values, sink, budget, max_k, avg_k, total)


@pytest.mark.parametrize("budget", [5, 47, 1024])
def test_every_combination_with_a_quota_draws_a_window(monkeypatch, budget):
    # 48 default combinations: a budget below 48 leaves the later ones a
    # quota of 0, and they must not rank at all
    drawn = []
    ranking = allocator.pooled_ranking

    def recorded(length, pooled, m, n, max_windows=None):
        for window in ranking(length, pooled, m, n, max_windows=max_windows):
            drawn.append((m, n, max_windows))
            yield window

    monkeypatch.setattr(allocator, "pooled_ranking", recorded)
    cfg = PoolingConfig(budget=budget)
    res = context_allocate(_rng(8).random(4000), cfg, _context(4004), 4)
    assert not res.used_fallback
    combos = [(m, n, budget // m + 1) for m in cfg.max_kernels for n in cfg.avg_kernels]
    assert set(drawn) == set(combos[:budget])


@pytest.mark.parametrize("shape", ["needle-grid", "score-64k"])
@pytest.mark.parametrize("ties", [False, True])
def test_batched_allocation_equals_the_window_loop(shape, ties):
    # the benchmark's shapes: L = 2,000 with budget 1,024, and L = 65,536
    # with budget 8,192, sink 4, the default kernels; peaky scores as a
    # softmax max gives them, or rounded to force ties
    length, budget = {"needle-grid": (2000, 1024), "score-64k": (65536, 8192)}[shape]
    values = _rng(length + ties).random(length - 4) ** 8
    if ties:
        values = np.round(values, 2)
    cfg = PoolingConfig(budget=budget)
    got = context_allocate(values, cfg, _context(length), 4)
    want = window_loop_allocate(values, 4, budget, cfg.max_kernels, cfg.avg_kernels, length)
    assert got.indices == want


def test_a_take_batch_stays_within_its_bound(monkeypatch):
    # the top-up ranks every window of the scores; its batches grow four
    # times over but never past BATCH indices
    monkeypatch.setattr(allocator, "BATCH", 1000)
    values = _rng(6).random(20_000)
    sizes = [len(batch) for batch in pooled_ranking(len(values), values, 1, 1)]
    assert sizes[:3] == [allocator.FIRST_WINDOWS, 4 * allocator.FIRST_WINDOWS, 1000]
    assert max(sizes) == 1000 and sum(sizes) == 20_000
    avgs = allocator.WindowMeans(allocator._max_pool(values, 8)).mean(16)
    assert max(len(batch) for batch in pooled_ranking(len(values), avgs, 8, 16)) <= 1000


def test_remainder_spread_over_earliest_combinations():
    # B=3 over 2x1 combos: first combo takes 2, second takes 1
    values = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2])
    cfg = PoolingConfig(max_kernels=(1, 2), avg_kernels=(1,), budget=3)
    res = context_allocate(values, cfg, _context(8), sink=0)
    # combo (1,1) takes 0,1; combo (2,1) ranks bucket {0,1} first but both are
    # taken, so it reaches into bucket {2,3} and takes 2
    assert res.indices == [0, 1, 2]


def test_max_pool_runs_once_per_max_kernel(monkeypatch):
    # every avg kernel ranks from its max kernel's one pooled vector
    calls = []
    real = allocator._max_pool

    def counted(values, size):
        calls.append(size)
        return real(values, size)

    monkeypatch.setattr(allocator, "_max_pool", counted)
    cfg = PoolingConfig()
    values = _rng(3).random(20_000)
    res = context_allocate(values, cfg, _context(20_004), 4)
    assert len(res.indices) == 4 + cfg.budget
    assert calls == list(cfg.max_kernels)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.integers(0, 420), st.integers(0, 6), st.integers(0, 2 ** 31 - 1))
def test_allocation_size_invariant(n, budget, sink, seed):
    values = _rng(seed).random(n)
    cfg = PoolingConfig(budget=budget)
    res = context_allocate(values, cfg, _context(n + sink), sink)
    total = n + sink
    assert len(res.indices) == min(sink + budget, total)
    assert res.indices == sorted(set(res.indices))
    assert all(0 <= i < total for i in res.indices)
    assert set(range(min(sink, total))) <= set(res.indices)


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 300), st.integers(1, 64), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([2.0 ** e for e in (-8, -3, -1, 1, 3, 10)]))
def test_scale_invariance_for_dyadic_factors(n, budget, seed, factor):
    # dyadic factors rescale floats exactly, so ranking order is untouched
    values = _rng(seed).random(n)
    cfg = PoolingConfig(budget=budget)
    a = context_allocate(values, cfg, _context(n + 4), 4)
    b = context_allocate(values * factor, cfg, _context(n + 4), 4)
    assert a.indices == b.indices


def test_determinism_across_runs(rng):
    values = rng.random(257)
    cfg = PoolingConfig(budget=100)
    runs = [context_allocate(values, cfg, _context(261), 4).indices
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_allocated_indices_come_from_ranked_windows(rng):
    # every non-sink pick must fall inside a top-K_m window of some combination
    values = rng.random(300)
    cfg = PoolingConfig(budget=120)
    res = context_allocate(values, cfg, _context(304), 4)
    assert not res.used_fallback
    covered = set()
    for m in cfg.max_kernels:
        for n in cfg.avg_kernels:
            covered.update(_ranking(_scores(values, 4), m, n,
                                    max_windows=cfg.budget // m + 1))
    assert set(res.indices) - set(range(4)) <= covered


def test_fallback_tops_up_short_trailing_window():
    # max kernel 8 over 11 scores leaves a trailing bucket {8, 9, 10}; the
    # window cap 7 // 8 + 1 = 1 admits only that top bucket, whose 3 indices
    # fall short of the quota of 7, so the (1, 1) pass tops up the rest
    values = np.array([.1] * 8 + [.9, .2, .3])
    cfg = PoolingConfig(max_kernels=(8,), avg_kernels=(1,), budget=7)
    res = context_allocate(values, cfg, _context(11), 0)
    assert res.used_fallback
    assert res.indices == [0, 1, 2, 3, 8, 9, 10]
    assert res.indices == naive_allocate(values, 0, 7, [8], [1], 11)


def test_plateau_with_decoy_spike_matches_naive_loop():
    # a 0.5 plateau at offsets 20..47 plus a 0.99 spike at 5: with B=32 the
    # budget exceeds the plateau, so the single-kernel config saturates it
    # while the split budget leaks a few picks near the decoy -- verify both
    # configs against the literal set-based loop rather than each other
    values = np.full(64, 0.05)
    values[20:48] = 0.5
    values[5] = 0.99
    ctx = _context(68)
    for max_k, avg_k in (((2, 4, 8), tuple(range(1, 17))), ((4,), (5,))):
        cfg = PoolingConfig(max_kernels=max_k, avg_kernels=avg_k, budget=32)
        got = context_allocate(values, cfg, ctx, 4)
        want = naive_allocate(values, 4, 32, list(max_k), list(avg_k), 68)
        assert got.indices == want


def test_multi_kernel_covers_plateau_at_least_as_well():
    # in the non-saturating regime (B = span/2) the default kernel set keeps
    # at least the plateau fraction of the single (max 4, avg 5) config
    gen = _rng(77)
    for span in (16, 32, 48):
        for _ in range(5):
            n = 256
            start = int(gen.integers(0, n - span))
            values = gen.random(n) * 0.3 + 0.01
            values[start:start + span] = 0.5
            ctx = _context(n + 4)
            budget = span // 2
            default = context_allocate(values, PoolingConfig(budget=budget), ctx, 4)
            single = context_allocate(
                values, PoolingConfig(max_kernels=(4,), avg_kernels=(5,), budget=budget), ctx, 4)
            plateau = set(range(start + 4, start + span + 4))
            assert len(plateau & set(default.indices)) >= len(plateau & set(single.indices))


def test_compressed_gathers_context_ids():
    ctx = [7, 8, 9, 10, 11]
    res = context_allocate(np.array([0.1, 0.9, 0.3]),
                           PoolingConfig(max_kernels=(1,), avg_kernels=(1,), budget=1),
                           ctx, sink=2)
    assert res.indices == [0, 1, 3]
    assert res.compressed == [7, 8, 10]
