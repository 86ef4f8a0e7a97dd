"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the slowest entries are the cost-accounting live check (~10 s) and the
wall-time scaling benchmark (a few minutes).
"""

import json
import time

import numpy as np
import pytest

from ctxpress.allocator import (
    PoolingConfig,
    context_allocate,
    query_context_scores,
    reduce_scores,
)
from ctxpress.codec import decode
from ctxpress.model import (
    ModelSpec,
    apply_position_encoding,
    build_model,
    embed,
    layer_forward,
    masked_attention,
    rotary_tables,
)
from ctxpress.needles import NeedleTaskSpec, RecallReport, cell_rng, evaluate_recall, \
    generate_needle_instance
from ctxpress.pipeline import (
    bench_scaling,
    count_cache_cells,
    count_dot_products,
    linear_fit,
    run_compress,
    synthetic_ids,
)
from ctxpress.prefill import StreamConfig, prefill_query_part, stream_prefill_context
from reference import monolithic_pipeline_scores, serial_prefill


def _philox(a, b=0):
    return np.random.Generator(np.random.Philox(key=np.array([a, b], dtype=np.uint64)))


def test_criterion_1_oracle_equivalence():
    """Streaming A^C and selected indices match the monolithic pipeline."""
    started = time.perf_counter()
    weights = build_model(ModelSpec(vocab=32768, dim=64, heads=4, layers=4, seed=7))
    assert weights.spec.head_dim == 16
    gen = _philox(2024)
    ctx = gen.integers(4, 32768, size=256).tolist()
    query = gen.integers(4, 32768, size=16).tolist()
    pooling = PoolingConfig(budget=64)
    for lr in (1, 2, 3, 4):
        config = StreamConfig(sink=4, window=512, chunk=64, retrieval_layer=lr)
        cache = stream_prefill_context(weights, config, ctx)
        states = prefill_query_part(weights, config, cache, query)
        scores = reduce_scores(query_context_scores(states, cache.full_k), cache.sink_len)
        ref_scores, _ = monolithic_pipeline_scores(weights, lr, ctx, query, sink=4)
        max_diff = np.abs(scores - ref_scores).max()
        assert max_diff < 1e-5, f"l_R={lr}: A^C diverges by {max_diff}"
        got = context_allocate(scores, pooling, ctx, cache.sink_len)
        want = context_allocate(ref_scores, pooling, ctx, 4)
        assert got.indices == want.indices, f"l_R={lr}: selected sets differ"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: streaming == monolithic (A^C within 1e-5, "
          f"identical I, all retrieval layers, {elapsed:.1f}s)")


def test_criterion_2_budget_exactness():
    """1000 fuzzed score vectors: exact sizes, order, sink, determinism."""
    default_max, default_avg = (2, 4, 8), tuple(range(1, 17))
    checked = 0
    for case in range(1000):
        gen = _philox(case, 555)
        n = int(gen.integers(8, 4097))
        sink = int(gen.integers(0, 6))
        budget = int(gen.integers(0, n + 10))
        if case % 3 == 0:
            cfg = PoolingConfig(max_kernels=default_max, avg_kernels=default_avg,
                                budget=budget)
        else:
            max_k = tuple(sorted(set(int(x) for x in gen.integers(1, 9, size=3))))
            avg_k = tuple(sorted(set(int(x) for x in gen.integers(1, 17, size=4))))
            cfg = PoolingConfig(max_kernels=max_k, avg_kernels=avg_k, budget=budget)
        values = gen.random(n)
        ctx = list(range(n + sink))
        res = context_allocate(values, cfg, ctx, sink)
        total = n + sink
        assert len(res.indices) == min(sink + budget, total)
        assert res.indices == sorted(set(res.indices))
        assert all(0 <= i < total for i in res.indices)
        assert set(range(sink)) <= set(res.indices)
        if case % 100 == 0:  # repeated-run determinism
            again = context_allocate(values, cfg, ctx, sink)
            assert again.indices == res.indices
        checked += 1
    print(f"\nACCEPTANCE 2 PASS: |I| = min(S+B, L), sorted/unique/sink-inclusive, "
          f"deterministic ({checked} cases)")


def test_criterion_3_snapkv_special_case():
    """Single (1,1) kernel pair equals sink + argsort top-B, exactly."""
    cfg_kernels = dict(max_kernels=(1,), avg_kernels=(1,))
    for case in range(200):
        gen = _philox(case, 777)
        n = int(gen.integers(4, 600))
        sink = int(gen.integers(0, 6))
        budget = int(gen.integers(0, n + 4))
        values = gen.random(n)
        if case % 4 == 0:  # force ties
            values = np.round(values, 1)
        cfg = PoolingConfig(budget=budget, **cfg_kernels)
        ctx = list(range(n + sink))
        res = context_allocate(values, cfg, ctx, sink)
        if budget >= n:
            want = list(range(n + sink))
        else:
            top = np.argsort(-values, kind="stable")[:budget] + sink
            want = sorted(set(range(sink)) | {int(i) for i in top})
        assert res.indices == want, f"case {case}"
    print("\nACCEPTANCE 3 PASS: (1,1) kernels == sink + stable top-B argsort "
          "(200 cases, exact set equality)")


def test_criterion_4_long_span_coverage():
    """Default kernels cover plateaus at least as well as One-Max-Avg."""
    gen = _philox(4, 4)
    one_max_avg = dict(max_kernels=(4,), avg_kernels=(5,))
    strict_wins = 0
    cases = 0
    for span in (16, 32, 48):
        for _ in range(10):
            n = 256
            start = int(gen.integers(0, n - span))
            values = gen.random(n) * 0.3 + 0.01
            values[start:start + span] = 0.5
            budget = span // 2
            ctx = list(range(n + 4))
            default = context_allocate(values, PoolingConfig(budget=budget), ctx, 4)
            single = context_allocate(values, PoolingConfig(budget=budget, **one_max_avg),
                                      ctx, 4)
            plateau = set(range(start + 4, start + span + 4))
            cover_d = len(plateau & set(default.indices))
            cover_s = len(plateau & set(single.indices))
            assert cover_d >= cover_s, (span, start, cover_d, cover_s)
            strict_wins += cover_d > cover_s
            cases += 1
    # qualitative mirror of the long-needle collapse: the single-kernel config
    # must actually lose ground somewhere, not just tie everywhere
    assert strict_wins > 0
    print(f"\nACCEPTANCE 4 PASS: default >= one-max-avg plateau coverage in "
          f"{cases}/{cases} cases ({strict_wins} strict wins)")


def test_criterion_5_cost_accounting():
    """Cache-cell formula integer-exact vs a live cache; dot counts equal to
    the serial walk's live count and affine."""
    assert count_cache_cells(131072, 4, 512, 3) == (2064, 131072)

    # live inspection at the pinned (L, S, W, l_R); small model keeps it quick
    weights = build_model(ModelSpec(dim=32, heads=2, layers=4, seed=7))
    config = StreamConfig(sink=4, window=512, chunk=512, retrieval_layer=3)
    ctx = synthetic_ids(131072, 32768, 7)
    cache = stream_prefill_context(weights, config, ctx)
    assert (sum(2 * k.shape[1] for k, _ in cache.layers), cache.length) == (2064, 131072)

    # counts equal the serial prefill's live count and are exactly affine in
    # L for chunk-aligned lengths
    cfg = StreamConfig(sink=4, window=64, chunk=128, retrieval_layer=3)
    lengths = [256, 384, 512, 640, 768, 896, 1024]
    for n in lengths:
        ids = synthetic_ids(n, 32768, 7)
        live = serial_prefill(weights, ids, cfg.sink, cfg.window, cfg.chunk, 3)[2]
        assert count_dot_products(n, 0, cfg) == live
    counts = [count_dot_products(n, 16, cfg) for n in lengths]
    _, _, r2 = linear_fit(np.array(lengths, dtype=float), np.array(counts, dtype=float))
    assert abs(r2 - 1.0) <= 1e-9
    diffs = {b - a for a, b in zip(counts, counts[1:])}
    assert len(diffs) == 1  # second differences vanish: exactly affine
    print(f"\nACCEPTANCE 5 PASS: cells (2064, 131072) == live cache; dot count == serial walk, "
          f"affine with R^2 = {r2:.12f} over {len(lengths)} lengths")


def test_criterion_6_scaling_shape():
    """Wall-time linear in L; full-attention baseline grows much faster."""
    started = time.perf_counter()
    weights = build_model(ModelSpec(dim=32, heads=2, layers=4, seed=7))
    lengths = [8192, 16384, 32768, 65536]
    stream_cfg = StreamConfig(sink=4, window=512, chunk=512, retrieval_layer=2)
    pooling = PoolingConfig(budget=1024)
    stream_bench = bench_scaling(weights, stream_cfg, pooling, lengths, runs=3)
    stream_ms = {row.length: round(row.wall_ms, 1) for row in stream_bench.rows}
    _, _, r2 = stream_bench.time_fit
    assert r2 >= 0.99, f"streaming wall-time fit R^2 = {r2}; streaming wall_ms {stream_ms}"

    # the no-eviction baseline: window == context length, single run per
    # length (its growth factor dwarfs timer noise)
    full_bench = bench_scaling(weights, stream_cfg, pooling, lengths, runs=1,
                               full_attention=True)
    stream_growth = stream_bench.rows[-1].wall_ms / stream_bench.rows[0].wall_ms
    full_growth = full_bench.rows[-1].wall_ms / full_bench.rows[0].wall_ms
    full_ms = {row.length: round(row.wall_ms, 1) for row in full_bench.rows}
    assert full_growth >= 3.0 * stream_growth, (
        f"baseline grew {full_growth:.2f}x vs streaming {stream_growth:.2f}x; "
        f"streaming wall_ms {stream_ms}, baseline wall_ms {full_ms}")
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 6 PASS: streaming R^2 = {r2:.4f}; baseline grew "
          f"{full_growth:.1f}x vs streaming {stream_growth:.1f}x over 8K->64K "
          f"({elapsed:.0f}s)")


def test_criterion_7_needle_harness():
    """Generation determinism, span decode, recall edge cases, layer rule."""
    task = NeedleTaskSpec(length=400, key_digits=(6,), seed=123)

    a = generate_needle_instance(task, 5, 6, cell_rng(123, 5, 6))
    b = generate_needle_instance(task, 5, 6, cell_rng(123, 5, 6))
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    checked = 0
    for depth in range(20):
        for digits in (6, 12, 24, 8, 16):
            inst = generate_needle_instance(task, depth, digits,
                                            cell_rng(123, depth, digits))
            start, end = inst.needle_span
            text = decode(inst.context[start:end], inst.memo)
            assert inst.passkey in text.replace(" ", "")
            assert text.startswith("The")
            assert "magic passkey is" in text
            checked += 1
    assert checked == 100

    weights = build_model(ModelSpec(dim=32, heads=2, layers=4, seed=7))
    config = StreamConfig(sink=4, window=64, chunk=64, retrieval_layer=2)
    inst = generate_needle_instance(task, 9, 6, cell_rng(123, 9, 6))
    assert evaluate_recall(weights, config, inst, PoolingConfig(budget=400)) == 1.0
    assert inst.needle_span[0] >= 4
    assert evaluate_recall(weights, config, inst, PoolingConfig(budget=0)) == 0.0

    report = RecallReport()
    for layer, mean in ((1, 0.2), (2, 0.9), (3, 0.9), (4, 0.5)):
        for depth in range(3):
            report.add(layer, depth, 6, mean)
    assert report.best_layer() == 2
    tied = RecallReport()
    for layer in (2, 3, 5):
        tied.add(layer, 0, 6, 1.0)
    assert tied.best_layer() == 2
    print("\nACCEPTANCE 7 PASS: deterministic generation, 100 span decodes, "
          "recall edges 1.0/0.0, lowest-index-among-best layer rule")


def test_criterion_8_numeric_core():
    """Softmax row sums, rotary shift invariance, chunked == monolithic."""
    gen = _philox(8, 8)
    q = gen.normal(size=(4, 16, 16))
    k = gen.normal(size=(4, 40, 16))
    v = gen.normal(size=(4, 40, 16))
    mask = gen.random((16, 40)) < 0.4
    mask[:, 0] = True
    _, probs = masked_attention(q, k, v, mask, return_probs=True)
    assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-5

    worst = 0.0
    for trial in range(1000):
        tg = _philox(trial, 88)
        qv = tg.normal(size=(1, 1, 16))
        kv = tg.normal(size=(1, 1, 16))
        i, j = tg.integers(0, 4096, size=2)
        delta = int(tg.integers(1, 64))
        dot_a = (apply_position_encoding(qv, np.array([i]))
                 * apply_position_encoding(kv, np.array([j]))).sum()
        dot_b = (apply_position_encoding(qv, np.array([i + delta]))
                 * apply_position_encoding(kv, np.array([j + delta]))).sum()
        worst = max(worst, abs(dot_a - dot_b))
    assert worst < 1e-6

    weights = build_model(ModelSpec(dim=64, heads=4, layers=4, seed=7))
    ids = _philox(9, 9).integers(4, 32768, size=24)
    x = embed(weights, ids)
    positions = np.arange(24)
    full, _, _ = layer_forward(weights, 2, x, rotary_tables(weights, positions),
                               np.tril(np.ones((24, 24), dtype=bool)))
    _, k_c, v_c = layer_forward(weights, 2, x[:16], rotary_tables(weights, positions[:16]),
                                np.tril(np.ones((16, 16), dtype=bool)))
    tail_mask = np.hstack([np.ones((8, 16), dtype=bool),
                           np.tril(np.ones((8, 8), dtype=bool))])
    chunked, _, _ = layer_forward(weights, 2, x[16:], rotary_tables(weights, positions[16:]),
                                  tail_mask, cache_k=k_c, cache_v=v_c)
    assert np.abs(chunked - full[16:]).max() < 1e-5
    print(f"\nACCEPTANCE 8 PASS: softmax rows sum to 1 +/- 1e-5, rotary "
          f"invariance worst {worst:.2e} over 1000 draws, chunked == monolithic")
