"""Streaming prefill: lambda masks, eviction, full-key equivalence, counting,
segments on threads."""

import multiprocessing
import os
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ctxpress import model, prefill
from ctxpress.allocator import query_context_scores
from ctxpress.codec import TokenSeq
from ctxpress.model import ModelSpec, OpCounter, build_model
from ctxpress.prefill import (
    EmptyQuery,
    StreamConfig,
    build_lambda_mask,
    prefill_query_part,
    stream_prefill_context,
)
from reference import (
    lambda_mask,
    lambda_mask_pipeline,
    monolithic_pipeline_scores,
    serial_prefill,
)


def _random_seq(n, seed=3, vocab=32768):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return TokenSeq(gen.integers(4, vocab, size=n).tolist())


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
    assert cache.cursor == 1
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
        k_ref, _ = lambda_mask_pipeline(tiny_weights, layer, ctx.ids, [5], 4, 8, 8)
        assert np.abs(k - k_ref[:, kept]).max() < 1e-5
    assert cache.cursor == 40


def test_full_keys_match_monolithic(toy_weights):
    ctx = _random_seq(256)
    for lr in (1, 2, 3):
        cfg = StreamConfig(sink=4, window=512, chunk=64, retrieval_layer=lr)
        cache = stream_prefill_context(toy_weights, cfg, ctx)
        _, k_ref = monolithic_pipeline_scores(toy_weights, lr, ctx.ids, [5], sink=4)
        assert np.abs(cache.full_k - k_ref).max() < 1e-5
        assert cache.cursor == 256


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
        stream_prefill_context(tiny_weights, StreamConfig(), TokenSeq([]))


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
        prefill_query_part(tiny_weights, cfg, cache, TokenSeq([]))


def test_query_states_match_monolithic(toy_weights):
    ctx, query = _random_seq(200), _random_seq(16, seed=5)
    cfg = StreamConfig(sink=4, window=512, chunk=64, retrieval_layer=3)
    cache = stream_prefill_context(toy_weights, cfg, ctx)
    states = prefill_query_part(toy_weights, cfg, cache, query)

    from ctxpress.model import embed, layer_forward, project_queries
    ids = np.array(ctx.ids + query.ids)
    x = embed(toy_weights, ids)
    pos = np.arange(len(ids))
    mask = np.tril(np.ones((len(ids), len(ids)), dtype=bool))
    for layer in (1, 2):
        x, _, _ = layer_forward(toy_weights, layer, x, pos, mask)
    ref = project_queries(toy_weights, 3, x[200:], pos[200:])
    assert np.abs(states - ref).max() < 1e-5


def test_query_attends_sink_window_and_itself(tiny_weights):
    # with S=4, W=8 the last of 8 query rows sees 4 + 8 + 8 keys
    cfg = StreamConfig(sink=4, window=8, chunk=64, retrieval_layer=2)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(64))
    counter = OpCounter()
    prefill_query_part(tiny_weights, cfg, cache, _random_seq(8, seed=5), counter=counter)
    # lambda mask rows: 4+8+(r+1) for r in 0..7
    assert counter.dot_products == sum(4 + 8 + r + 1 for r in range(8))


def test_query_does_not_mutate_cache(tiny_weights):
    cfg = StreamConfig(sink=4, window=8, chunk=16, retrieval_layer=3)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(64))
    before = [(k.copy(), v.copy()) for k, v in cache.layers]
    prefill_query_part(tiny_weights, cfg, cache, _random_seq(12, seed=5))
    for (k, v), (k_saved, v_saved) in zip(cache.layers, before):
        assert np.array_equal(k, k_saved) and np.array_equal(v, v_saved)


def test_prefill_attends_without_dense_masks(tiny_weights, monkeypatch):
    # the chunk step calls the kernel once per chunk and lower layer, with
    # the structured Lambda mask, and never builds the dense one.  The patched
    # modules are the ones imported with stream_prefill_context at the top:
    # a later fresh import of ctxpress would leave it calling the originals

    def no_dense_mask(*args):
        raise AssertionError("dense Lambda mask built during prefill")

    kernel, masks = model.masked_attention, []

    def counted(q, k, v, mask, **kwargs):
        masks.append(mask)
        return kernel(q, k, v, mask, **kwargs)

    monkeypatch.setattr(prefill, "build_lambda_mask", no_dense_mask)
    monkeypatch.setattr(model, "masked_attention", counted)
    cfg = StreamConfig(sink=4, window=32, chunk=64, retrieval_layer=3)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(300))
    assert cache.cursor == 300
    chunks = 5  # 68 (chunk + sink), 64, 64, 64, 40
    assert len(masks) == chunks * (cfg.retrieval_layer - 1)
    assert all(mask is None for mask in masks)


# --- dot-product accounting -------------------------------------------------

def test_counter_exactly_affine_in_length(tiny_weights):
    # lengths share the chunk remainder, so counts are exactly affine
    cfg = StreamConfig(sink=4, window=32, chunk=64, retrieval_layer=3)
    counts = []
    for n_chunks in (3, 4, 5, 6):
        counter = OpCounter()
        cache = stream_prefill_context(tiny_weights, cfg, _random_seq(64 * n_chunks),
                                       counter=counter)
        prefill_query_part(tiny_weights, cfg, cache, _random_seq(8, seed=5),
                           counter=counter)
        counts.append(counter.dot_products)
    diffs = [b - a for a, b in zip(counts, counts[1:])]
    assert len(set(diffs)) == 1  # zero residual from an affine fit


def test_full_k_written_once_per_position(tiny_weights):
    cfg = StreamConfig(sink=2, window=8, chunk=8, retrieval_layer=2)
    cache = stream_prefill_context(tiny_weights, cfg, _random_seq(50))
    assert cache.cursor == 50
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
    counter = OpCounter()
    cache = stream_prefill_context(tiny_weights, cfg, ctx, counter=counter)
    states = prefill_query_part(tiny_weights, cfg, cache, query, counter=counter)
    assert counter.dot_products == (lr - 1) * lambda_mask(length, query_len, sink, window,
                                                          chunk).sum()
    k_ref, q_ref = lambda_mask_pipeline(tiny_weights, lr, ctx.ids, query.ids,
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
    ids = _random_seq(length).ids
    cfg = StreamConfig(sink=sink, window=window, chunk=chunk, retrieval_layer=lr)
    segments = min(cpus, len(prefill._chunk_bounds(length, chunk, sink)))
    threads = set()
    project_keys = prefill.project_keys

    def on_thread(*args):
        threads.add(threading.get_ident())
        return project_keys(*args)

    counter = OpCounter()
    with mock.patch.object(prefill, "_segment_count", lambda chunks, warm: min(cpus, chunks)), \
            mock.patch.object(prefill, "project_keys", on_thread):
        cache = stream_prefill_context(tiny_weights, cfg, TokenSeq(ids), counter=counter)
    full_k, layers, dots = serial_prefill(tiny_weights, ids, sink, window, chunk, lr)
    assert (len(threads) > 1) == (segments > 1)  # segments past the first ran off the caller
    assert np.array_equal(cache.full_k, full_k)
    assert len(cache.layers) == len(layers)
    for (k, v), (k_ref, v_ref) in zip(cache.layers, layers):
        assert np.array_equal(k, k_ref) and np.array_equal(v, v_ref)
    assert counter.dot_products == dots


@pytest.mark.parametrize("lr", [1, 2, 3, 4])
def test_one_segment_starts_no_thread(tiny_weights, monkeypatch, lr):
    # needle-grid's prefill: 2,000 tokens in two default chunks, too few to
    # split on any number of CPUs, so it all runs on the calling thread
    def no_thread(self):
        raise AssertionError("a one-segment prefill started a thread")

    monkeypatch.setattr(prefill, "_CPUS", 4)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    cache = stream_prefill_context(tiny_weights, StreamConfig(retrieval_layer=lr),
                                   _random_seq(2000))
    assert cache.cursor == 2000


def test_segment_count():
    with mock.patch.object(prefill, "_CPUS", 2):
        # stream-64k: 128 chunks of 512, window 512, l_R = 2, so warm = 1
        assert prefill._segment_count(128, 1) == 2
        assert prefill._segment_count(15, 1) == 1  # 8 owned per 2 walked
        assert prefill._segment_count(16, 1) == 2
        assert prefill._segment_count(1, 0) == 1


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
        done.append(args[3][0])
        return project_keys(*args)

    with mock.patch.object(prefill, "_CPUS", 2), \
            mock.patch.object(prefill, "project_keys", flaky), \
            pytest.raises(FloatingPointError):
        stream_prefill_context(tiny_weights, cfg, _random_seq(4 + 16 * 17))
    assert done == [20 + 16 * i for i in range(7, 16)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_segmented_prefill_in_a_child_forked_after_prefill(tiny_weights):
    # every prefill makes and joins its own pool, so a child forked after
    # one never inherits a pool whose threads it lacks
    cfg = StreamConfig(sink=4, window=8, chunk=16, retrieval_layer=3)
    ctx = _random_seq(4 + 16 * 30)  # 30 chunks, warm = 2: two segments
    with mock.patch.object(prefill, "_CPUS", 2):
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
