"""Streaming prefill: lambda masks, eviction, full-key equivalence, counting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from reference import lambda_mask_pipeline, monolithic_pipeline_scores


def _random_seq(n, seed=3, vocab=32768):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return TokenSeq(gen.integers(4, vocab, size=n).tolist())


# --- lambda mask ------------------------------------------------------------

def test_mask_degenerate():
    mask = build_lambda_mask(1, 0, 0)
    assert mask.shape == (1, 1)
    assert mask.all()


def test_mask_small_case():
    mask = build_lambda_mask(2, 1, 1)
    assert mask.shape == (2, 4)
    assert mask[0].tolist() == [True, True, True, False]
    assert mask[1].tolist() == [True, True, True, True]


def test_mask_row_counts():
    mask = build_lambda_mask(3, 4, 512)
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
    cache = stream_prefill_context(tiny_weights, cfg, ctx)
    states = prefill_query_part(tiny_weights, cfg, cache, query)
    k_ref, q_ref = lambda_mask_pipeline(tiny_weights, lr, ctx.ids, query.ids,
                                        sink, window, chunk)
    assert np.abs(cache.full_k - k_ref).max() < 1e-5
    assert np.abs(states - q_ref).max() < 1e-5
    attn = query_context_scores(states, cache.full_k)
    assert np.abs(attn - query_context_scores(q_ref, k_ref)).max() < 1e-5
