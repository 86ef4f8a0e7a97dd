"""Streaming prefill: lambda masks, eviction, full-key equivalence, counting,
segments on threads."""

import copy
import multiprocessing
import os
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ctxpress import model, prefill
from ctxpress.allocator import PoolingConfig, query_context_scores
from ctxpress.model import ModelSpec, build_model, rotary_tables
from ctxpress.pipeline import count_cache_cells, count_dot_products, run_compress
from ctxpress.prefill import (
    EmptyQuery,
    StreamConfig,
    Walk,
    prefill_query_part,
    stream_prefill_context,
)
from reference import (
    build_lambda_mask,
    lambda_mask,
    lambda_mask_pipeline,
    monolithic_pipeline_scores,
    plant_retrieval,
    serial_prefill,
)


def _random_seq(n, seed=3, vocab=32768):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return gen.integers(4, vocab, size=n).tolist()


# --- lambda mask ------------------------------------------------------------

def test_mask_degenerate():
    mask = build_lambda_mask(1, 0)
    assert mask.shape == (1, 1)
    assert mask.all()


def test_mask_small_case():
    mask = build_lambda_mask(2, 2)
    assert mask.shape == (2, 4)
    assert mask[0].tolist() == [True, True, True, False]
    assert mask[1].tolist() == [True, True, True, True]


def test_mask_row_counts():
    mask = build_lambda_mask(3, 516)
    for r in range(3):
        assert mask[r].sum() == 4 + 512 + (r + 1)


# --- context prefill --------------------------------------------------------

def test_degenerate_single_token(tiny_weights):
    cfg = StreamConfig(sink=0, window=4, chunk=8, retrieval_layer=1)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(1))
    assert cache.full_k.shape == (2, 1, 16)
    assert cache.length == 1
    assert cache.layers == []


def test_context_shorter_than_sink_absorbed(tiny_weights):
    cfg = StreamConfig(sink=8, window=4, chunk=8, retrieval_layer=2)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(3))
    assert cache.sink_len == 3
    k, v = cache.layers[0]  # the 3 sink rows and an empty window
    assert k.shape == v.shape == (2, 3, 16)


def test_eviction_trace(tiny_weights):
    # S=4, W=8, chunk=8, L=40: chunks are 12, 8, 8, 8, 4; afterwards every
    # lower layer holds the keys of the 4 sink rows + the window {32..39}
    cfg = StreamConfig(sink=4, window=8, chunk=8, retrieval_layer=3)
    ctx = _random_seq(40)
    cache = stream_prefill_context(tiny_weights, cfg, ctx)
    kept = list(range(4)) + list(range(32, 40))
    for layer, (k, v) in enumerate(cache.layers, start=1):
        assert k.shape == v.shape == (2, 12, 16)
        k_ref, _ = lambda_mask_pipeline(tiny_weights, layer, ctx, [5], 4, 8, 8)
        assert np.abs(k - k_ref[:, kept]).max() < 1e-5
    assert cache.length == 40


def test_full_keys_match_monolithic(toy_weights):
    ctx = _random_seq(256)
    for lr in (1, 2, 3):
        cfg = StreamConfig(sink=4, window=512, chunk=64, retrieval_layer=lr)
        cache = stream_prefill_context(toy_weights, cfg, ctx)
        _, k_ref = monolithic_pipeline_scores(toy_weights, lr, ctx, [5], sink=4)
        assert np.abs(cache.full_k - k_ref).max() < 1e-5
        assert cache.length == 256


def test_cache_bound_between_chunks(tiny_weights):
    cfg = StreamConfig(sink=4, window=16, chunk=8, retrieval_layer=4)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(200))
    for k, v in cache.layers:
        assert k.shape[1] == v.shape[1] <= cfg.sink + cfg.window


def test_retrieval_layer_validated(tiny_weights):
    cfg = StreamConfig(retrieval_layer=9)
    with pytest.raises(ValueError):
        stream_prefill_context(tiny_weights, cfg, _random_seq(8))


def test_empty_context_rejected(tiny_weights):
    with pytest.raises(ValueError):
        stream_prefill_context(tiny_weights, StreamConfig(), [])


# --- query prefill ----------------------------------------------------------

def test_single_query_row_shape(tiny_weights):
    cfg = StreamConfig(sink=4, window=32, chunk=16, retrieval_layer=2)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(64))
    states = prefill_query_part(tiny_weights, cfg, cache, _random_seq(1, seed=5))
    assert states.shape == (2, 1, 16)


def test_empty_query_rejected(tiny_weights):
    cfg = StreamConfig(retrieval_layer=2)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(8))
    with pytest.raises(EmptyQuery):
        prefill_query_part(tiny_weights, cfg, cache, [])


def test_query_states_match_monolithic(toy_weights):
    ctx, query = _random_seq(200), _random_seq(16, seed=5)
    cfg = StreamConfig(sink=4, window=512, chunk=64, retrieval_layer=3)
    cache = stream_prefill_context(toy_weights, cfg, ctx)
    states = prefill_query_part(toy_weights, cfg, cache, query)

    from ctxpress.model import embed, layer_forward, project_queries
    ids = np.array(ctx + query)
    x = embed(toy_weights, ids)
    pos = np.arange(len(ids))
    mask = np.tril(np.ones((len(ids), len(ids)), dtype=bool))
    for layer in (1, 2):
        x, _, _ = layer_forward(toy_weights, layer, x, rotary_tables(toy_weights, pos), mask)
    ref = project_queries(toy_weights, 3, x[200:], rotary_tables(toy_weights, pos[200:]))
    assert np.abs(states - ref).max() < 1e-5


def test_query_attends_sink_window_and_itself(tiny_weights, monkeypatch):
    # with S=4, W=8 the last of 8 query rows sees 4 + 8 + 8 keys
    cfg = StreamConfig(sink=4, window=8, chunk=64, retrieval_layer=2)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(64))
    forward, steps = prefill.layer_forward, []

    def spy(weights, layer, x, *args, cache_k, **kwargs):
        steps.append((cache_k.shape[1], len(x)))
        return forward(weights, layer, x, *args, cache_k=cache_k, **kwargs)

    monkeypatch.setattr(prefill, "layer_forward", spy)
    prefill_query_part(tiny_weights, cfg, cache, _random_seq(8, seed=5))
    assert steps == [(4 + 8, 8)]  # one chunk in one lower layer
    # lambda mask rows: 4+8+(r+1) for r in 0..7; scoring adds 8 * 64
    dots = sum(cached * t + t * (t + 1) // 2 for cached, t in steps)
    assert dots == sum(4 + 8 + r + 1 for r in range(8))
    assert count_dot_products(64, 8, cfg) - count_dot_products(64, 0, cfg) == dots + 8 * 64


def test_query_does_not_mutate_cache(tiny_weights):
    cfg = StreamConfig(sink=4, window=8, chunk=16, retrieval_layer=3)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(64))
    before = [(k.copy(), v.copy()) for k, v in cache.layers]
    prefill_query_part(tiny_weights, cfg, cache, _random_seq(12, seed=5))
    for (k, v), (k_saved, v_saved) in zip(cache.layers, before):
        assert np.array_equal(k, k_saved) and np.array_equal(v, v_saved)


def test_prefill_attends_without_dense_masks(tiny_weights, monkeypatch):
    # the chunk step calls the kernel once per chunk and lower layer, with
    # the structured Lambda mask, and never builds the dense one (np.tril is
    # where a dense causal block would come from).  The patched modules are
    # the ones imported with stream_prefill_context at the top: a later
    # fresh import of ctxpress would leave it calling the originals

    def no_dense_mask(*args, **kwargs):
        raise AssertionError("dense Lambda mask built during prefill")

    kernel, masks = model.masked_attention, []

    def counted(q, k, v, mask, **kwargs):
        masks.append(mask)
        return kernel(q, k, v, mask, **kwargs)

    monkeypatch.setattr(np, "tril", no_dense_mask)
    monkeypatch.setattr(model, "masked_attention", counted)
    cfg = StreamConfig(sink=4, window=32, chunk=64, retrieval_layer=3)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(300))
    assert cache.length == 300
    chunks = 5  # 68 (chunk + sink), 64, 64, 64, 40
    assert len(masks) == chunks * (cfg.retrieval_layer - 1)
    assert all(mask is None for mask in masks)


# --- dot-product accounting -------------------------------------------------

def test_counter_exactly_affine_in_length():
    # lengths share the chunk remainder, so counts are exactly affine
    cfg = StreamConfig(sink=4, window=32, chunk=64, retrieval_layer=3)
    counts = [count_dot_products(64 * n_chunks, 8, cfg) for n_chunks in (3, 4, 5, 6)]
    diffs = [b - a for a, b in zip(counts, counts[1:])]
    assert len(set(diffs)) == 1  # zero residual from an affine fit


def test_full_k_written_once_per_position(tiny_weights):
    cfg = StreamConfig(sink=2, window=8, chunk=8, retrieval_layer=2)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(50))
    assert cache.length == 50
    assert not np.all(cache.full_k == 0.0, axis=(0, 2)).any()  # every row filled


# --- Lambda-mask oracle -----------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(sink=st.integers(0, 6), window=st.integers(1, 24), chunk=st.integers(1, 24),
       lr=st.integers(1, 4), length=st.integers(1, 120), query_len=st.integers(1, 30))
def test_streaming_matches_dense_lambda_mask(tiny_weights, sink, window, chunk, lr,
                                             length, query_len):
    # chunking, sink and window eviction reproduce one dense-mask forward
    ctx, query = _random_seq(length), _random_seq(query_len, seed=5)
    cfg = StreamConfig(sink=sink, window=window, chunk=chunk, retrieval_layer=lr)
    cache = stream_prefill_context(tiny_weights, cfg, ctx)
    states = prefill_query_part(tiny_weights, cfg, cache, query)
    # the closed-form costs against the mask's popcount and the live cache
    assert count_dot_products(length, query_len, cfg) == (
        (lr - 1) * lambda_mask(length, query_len, sink, window, chunk).sum()
        + query_len * length)
    assert count_cache_cells(length, sink, window, lr) == (
        sum(2 * k.shape[1] for k, _ in cache.layers), length)
    k_ref, q_ref = lambda_mask_pipeline(tiny_weights, lr, ctx, query,
                                        sink, window, chunk)
    assert np.abs(cache.full_k - k_ref).max() < 1e-5
    assert np.abs(states - q_ref).max() < 1e-5
    scores = query_context_scores(states, cache.full_k)
    assert np.abs(scores - query_context_scores(q_ref, k_ref)).max() < 1e-5


# --- segments on threads ----------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(sink=st.integers(0, 6), window=st.integers(1, 40), chunk=st.integers(1, 24),
       lr=st.integers(1, 4), length=st.integers(1, 150), cpus=st.integers(2, 4))
@example(sink=2, window=4, chunk=8, lr=2, length=27, cpus=2)  # a - warm = 1
@example(sink=4, window=20, chunk=6, lr=3, length=120, cpus=3)  # window > chunk
@example(sink=0, window=5, chunk=4, lr=4, length=100, cpus=4)  # no sink
def test_segments_reproduce_the_serial_walk_bit_for_bit(tiny_weights, sink, window, chunk, lr,
                                                        length, cpus):
    # segments as small as one chunk, each on its own thread; a warm-up one
    # window short, or a segment writing another's rows, would change bits
    ids = _random_seq(length)
    cfg = StreamConfig(sink=sink, window=window, chunk=chunk, retrieval_layer=lr)
    segments = min(cpus, len(prefill._chunk_bounds(length, chunk, sink)))
    threads = set()
    project_keys = prefill.project_keys

    def on_thread(*args):
        threads.add(threading.get_ident())
        return project_keys(*args)

    with mock.patch.object(prefill, "_segment_count", lambda chunks, warm: min(cpus, chunks)), \
            mock.patch.object(prefill, "project_keys", on_thread):
        cache = stream_prefill_context(tiny_weights, cfg, ids)
    full_k, layers, dots = serial_prefill(tiny_weights, ids, sink, window, chunk, lr)
    assert (len(threads) > 1) == (segments > 1)  # segments past the first ran off the caller
    assert np.array_equal(cache.full_k, full_k)
    assert len(cache.layers) == len(layers)
    for (k, v), (k_ref, v_ref) in zip(cache.layers, layers):
        assert np.array_equal(k, k_ref) and np.array_equal(v, v_ref)
    assert count_dot_products(length, 0, cfg) == dots


@pytest.mark.parametrize("lr", [1, 2, 3, 4])
def test_one_segment_starts_no_thread(tiny_weights, monkeypatch, lr):
    # needle-grid's prefill: 2,000 tokens in two default chunks, too few to
    # split on any number of CPUs; on one CPU it all runs on the calling thread
    def no_thread(self):
        raise AssertionError("a one-CPU prefill started a thread")

    monkeypatch.setattr(model, "_CPUS", 1)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    cache = stream_prefill_context(tiny_weights, StreamConfig(retrieval_layer=lr),
                                   _random_seq(2000))
    assert cache.length == 2000


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("lr", [1, 2, 3, 4])
def test_one_segment_leaves_only_attention_to_threads(tiny_weights, monkeypatch, lr, cpus):
    # the same prefill on more CPUs: only the row-block groups of each
    # chunk's Lambda attention leave the caller; the chunk walk and every key
    # projection stay on it, and the keys are the serial walk's bits
    caller = threading.get_ident()
    walk, keys, attention = set(), set(), set()

    def recorded(seen, function):
        def on_thread(*args, **kwargs):
            seen.add(threading.get_ident())
            return function(*args, **kwargs)
        return on_thread

    ids = _random_seq(2000)
    monkeypatch.setattr(model, "_CPUS", 1)
    full_k, _, _ = serial_prefill(tiny_weights, ids, 4, 512, 1024, lr)
    monkeypatch.setattr(model, "_CPUS", cpus)
    monkeypatch.setattr(prefill, "layer_forward", recorded(walk, prefill.layer_forward))
    monkeypatch.setattr(prefill, "project_keys", recorded(keys, prefill.project_keys))
    monkeypatch.setattr(model, "softmax_rows", recorded(attention, model.softmax_rows))
    cache = stream_prefill_context(tiny_weights, StreamConfig(retrieval_layer=lr), ids)
    assert walk <= {caller} and keys == {caller}
    assert (len(attention) > 1) == (lr > 1)  # chunk 0's 17 row blocks, dealt to the CPUs
    assert np.array_equal(cache.full_k, full_k)


def test_segments_run_their_attention_inline(tiny_weights, monkeypatch):
    # stream-64k's shape in small: 16 chunks of 128 rows, two row blocks
    # each, in two segments; each chunk's attention stays on its segment's
    # thread, since both segments already hold the CPUs
    segments, attention = set(), set()
    project_keys, softmax_rows = prefill.project_keys, model.softmax_rows

    def keys_on_thread(*args):
        segments.add(threading.get_ident())
        return project_keys(*args)

    def softmax_on_thread(scores):
        attention.add(threading.get_ident())
        return softmax_rows(scores)

    monkeypatch.setattr(model, "_CPUS", 2)
    monkeypatch.setattr(prefill, "project_keys", keys_on_thread)
    monkeypatch.setattr(model, "softmax_rows", softmax_on_thread)
    cfg = StreamConfig(sink=4, window=64, chunk=128, retrieval_layer=2)
    stream_prefill_context(tiny_weights, cfg, _random_seq(4 + 128 * 16))
    assert len(segments) == 2 and attention == segments


def test_segment_count():
    with mock.patch.object(model, "_CPUS", 2):
        # stream-64k: 128 chunks of 512, window 512, l_R = 2, so warm = 1
        assert prefill._segment_count(128, 1) == 2
        assert prefill._segment_count(15, 1) == 1  # 8 owned per 2 walked
        assert prefill._segment_count(16, 1) == 2
        assert prefill._segment_count(1, 0) == 1


def test_prefill_inside_a_part_walks_each_chunk_once(tiny_weights, monkeypatch):
    # 64 chunks with warm = 2 make two segments on two CPUs; called from a
    # part of a multi-part call, prefill has one free CPU, so it walks every
    # chunk once instead of running two segments inline and walking the
    # second one's chunk 0 and warm-up chunks twice
    cfg = StreamConfig(sink=4, window=64, chunk=64, retrieval_layer=3)
    ids = _random_seq(4096)
    full_k, _, _ = serial_prefill(tiny_weights, ids, 4, 64, 64, 3)
    layer_forward, calls = prefill.layer_forward, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return layer_forward(*args, **kwargs)

    monkeypatch.setattr(model, "_CPUS", 2)
    monkeypatch.setattr(prefill, "layer_forward", counted)
    chunks = len(prefill._chunk_bounds(4096, 64, 4))
    stream_prefill_context(tiny_weights, cfg, ids)
    assert len(calls) == (chunks + 1 + 2) * (3 - 1)  # two segments
    calls.clear()
    caches = model.run_parts(
        lambda i: stream_prefill_context(tiny_weights, cfg, ids) if i == 0 else None, 2)
    assert len(calls) == chunks * (3 - 1)
    assert np.array_equal(caches[0].full_k, full_k)


def test_failed_segment_surfaces_after_every_segment_finished(tiny_weights):
    # 17 chunks with warm = 1 make two segments; segment 0 fails on its
    # first chunk while segment 1 still has nine slowed chunks to go
    cfg = StreamConfig(sink=4, window=8, chunk=16, retrieval_layer=2)
    caller = threading.get_ident()
    project_keys, done = prefill.project_keys, []

    def flaky(*args):
        if threading.get_ident() == caller:
            raise FloatingPointError("segment 0 failed")
        time.sleep(0.005)
        done.append(args[3][0])  # the chunk's cos table
        return project_keys(*args)

    with mock.patch.object(model, "_CPUS", 2), \
            mock.patch.object(prefill, "project_keys", flaky), \
            pytest.raises(FloatingPointError):
        stream_prefill_context(tiny_weights, cfg, _random_seq(4 + 16 * 17))
    owned = [rotary_tables(tiny_weights, np.arange(20 + 16 * i, 36 + 16 * i))[0]
             for i in range(7, 16)]
    assert len(done) == len(owned) and all(map(np.array_equal, done, owned))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_segmented_prefill_in_a_child_forked_after_prefill(tiny_weights):
    # the segments' multi-part call joins its pool before it returns, so a
    # child forked after a prefill never inherits a pool whose threads it lacks
    cfg = StreamConfig(sink=4, window=8, chunk=16, retrieval_layer=3)
    ctx = _random_seq(4 + 16 * 30)  # 30 chunks, warm = 2: two segments
    with mock.patch.object(model, "_CPUS", 2):
        want = stream_prefill_context(tiny_weights, cfg, ctx).full_k

        def child():
            got = stream_prefill_context(tiny_weights, cfg, ctx).full_k
            os._exit(0 if np.array_equal(got, want) else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=30)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("prefill hung in the forked child")
    assert proc.exitcode == 0


# --- resuming a walk ----------------------------------------------------------

def _same_cache(got, want) -> bool:
    return (np.array_equal(got.full_k, want.full_k) and len(got.layers) == len(want.layers)
            and all(np.array_equal(k, k_ref) and np.array_equal(v, v_ref)
                    for (k, v), (k_ref, v_ref) in zip(got.layers, want.layers)))


RESUMED = ((1, 2), (1, 4), (2, 3), (2, 4), (3, 4))  # (walked depth, deeper l_R)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("sink", [0, 4])
@pytest.mark.parametrize("length, window, chunk", [
    (16384, 256, 256),  # 64 chunks in 3 segments on 3 CPUs, fresh or resumed
    (2000, 512, 1024),  # the needle shape: two chunks in one segment
])
def test_a_resumed_walk_is_bit_for_bit_a_fresh_one(tiny_weights, monkeypatch, cpus, sink,
                                                   length, window, chunk):
    # a walk stopped at one depth and resumed at a deeper l_R runs only the
    # layers between them, over the stored inputs, and yields the fresh
    # walk's keys, lower caches and query states, and the serial walk's keys
    monkeypatch.setattr(model, "_CPUS", cpus)
    ids, query = _random_seq(length), _random_seq(40, seed=5)

    def config(lr):
        return StreamConfig(sink=sink, window=window, chunk=chunk, retrieval_layer=lr)

    walks = {}
    for depth in sorted({depth for depth, _ in RESUMED}):
        walks[depth] = Walk()
        stream_prefill_context(tiny_weights, config(depth), ids, walks[depth])
        assert walks[depth].depth == depth
    forward, layers_run = prefill.layer_forward, []

    def counted(weights, layer, *args, **kwargs):
        layers_run.append(layer)
        return forward(weights, layer, *args, **kwargs)

    fresh = {lr: stream_prefill_context(tiny_weights, config(lr), ids) for _, lr in RESUMED}
    serial = {lr: serial_prefill(tiny_weights, ids, sink, window, chunk, lr)[0] for lr in fresh}
    for depth, lr in RESUMED:
        walk = copy.copy(walks[depth])  # refilling rebinds fields, it mutates no array
        layers_run.clear()
        with mock.patch.object(prefill, "layer_forward", counted):
            got = stream_prefill_context(tiny_weights, config(lr), ids, walk)
        assert set(layers_run) == set(range(depth, lr))
        assert _same_cache(got, fresh[lr]), (depth, lr)
        assert np.array_equal(got.full_k, serial[lr])
        assert np.array_equal(prefill_query_part(tiny_weights, config(lr), got, query),
                              prefill_query_part(tiny_weights, config(lr), fresh[lr], query))
        assert walk.depth == lr and len(walk.layers) == lr - 1
        assert walk.inputs.shape == (length, tiny_weights.spec.dim)


def test_a_walk_is_never_reused_stale(tiny_weights):
    # a walk resumes only with the weights object, sink, window, chunk and
    # ids it was made with, and never for a shallower l_R; each mismatch
    # returns the fresh walk's arrays and refills the walk as a fresh one
    ids = _random_seq(300)
    base = StreamConfig(sink=4, window=32, chunk=64, retrieval_layer=3)
    edited = list(ids)
    edited[150] += 1
    cases = [
        (plant_retrieval(tiny_weights, 2, 3.0), base, ids),  # same spec, other arrays
        (tiny_weights, StreamConfig(sink=2, window=32, chunk=64, retrieval_layer=4), ids),
        (tiny_weights, StreamConfig(sink=4, window=16, chunk=64, retrieval_layer=4), ids),
        (tiny_weights, StreamConfig(sink=4, window=32, chunk=48, retrieval_layer=4), ids),
        (tiny_weights, StreamConfig(sink=4, window=32, chunk=64, retrieval_layer=4), edited),
        (tiny_weights, StreamConfig(sink=4, window=32, chunk=64, retrieval_layer=2), ids),
    ]
    for weights, config, context in cases:
        walk = Walk()
        stream_prefill_context(tiny_weights, base, ids, walk)
        got = stream_prefill_context(weights, config, context, walk)
        fresh = Walk()
        want = stream_prefill_context(weights, config, context, fresh)
        assert _same_cache(got, want), config
        assert walk.weights is weights and walk.stream == fresh.stream
        assert walk.depth == config.retrieval_layer
        assert np.array_equal(walk.ids, context) and np.array_equal(walk.inputs, fresh.inputs)


def test_a_bypassed_compression_leaves_the_walk_alone(tiny_weights):
    ids = _random_seq(100)
    walk = Walk()
    stream_prefill_context(tiny_weights, StreamConfig(retrieval_layer=2), ids, walk)
    before = dict(vars(walk))
    result = run_compress(tiny_weights, StreamConfig(retrieval_layer=3), PoolingConfig(budget=96),
                          ids, _random_seq(4, seed=5), walk=walk)
    assert result.bypassed
    assert all(getattr(walk, name) is value for name, value in before.items())


def test_without_a_walk_nothing_is_stored(tiny_weights, monkeypatch):
    # stream-64k and score-64k pass no walk: no (L, d) inputs buffer is made
    made = []
    empty = np.empty

    def recorded(shape, *args, **kwargs):
        made.append(shape)
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(prefill.np, "empty", recorded)
    stream_prefill_context(tiny_weights, StreamConfig(retrieval_layer=3), _random_seq(300))
    assert (300, tiny_weights.spec.dim) not in made
