"""End-to-end compression jobs, cost accounting, benchmark, and the CLI."""

import csv
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ctxpress import model, pipeline, prefill
from ctxpress.allocator import PoolingConfig, query_context_scores, reduce_scores
from ctxpress.codec import decode, split_pieces
from ctxpress.model import DimensionMismatch, ModelSpec
from ctxpress.needles import NeedleTaskSpec
from ctxpress.pipeline import (
    InsufficientPoints,
    PipelineError,
    TokenIdOutOfRange,
    bench_scaling,
    count_cache_cells,
    count_dot_products,
    linear_fit,
    run_compress,
    synthetic_ids,
)
from ctxpress.prefill import StreamConfig
from reference import lambda_mask_pipeline, monolithic_pipeline_scores, naive_allocate


def _seq(n, seed=1):
    return synthetic_ids(n, 32768, seed, tag=f"test{seed}")


def test_bypass_when_budget_covers_context(tiny_weights):
    ctx, query = _seq(50), _seq(8, seed=2)
    res = run_compress(tiny_weights, StreamConfig(retrieval_layer=2),
                       PoolingConfig(budget=100), ctx, query)
    assert res.bypassed
    assert res.output_ids == ctx + query
    assert res.allocation.indices == list(range(50))
    assert res.cost.dot_products == 0


def test_output_never_longer_than_input(tiny_weights):
    ctx, query = _seq(300), _seq(10, seed=2)
    cfg = StreamConfig(sink=4, window=64, chunk=64, retrieval_layer=2)
    for budget in (0, 10, 100, 1000):
        res = run_compress(tiny_weights, cfg, PoolingConfig(budget=budget), ctx, query)
        assert len(res.output_ids) <= len(ctx) + len(query)


def test_empty_inputs_rejected(tiny_weights):
    with pytest.raises(ValueError):
        run_compress(tiny_weights, StreamConfig(), PoolingConfig(), [], _seq(4))
    with pytest.raises(ValueError):
        run_compress(tiny_weights, StreamConfig(), PoolingConfig(), _seq(4), [])


def test_stage_name_surfaces_on_failure(tiny_weights, monkeypatch):
    def fail(*args):
        raise FloatingPointError("overflow")

    monkeypatch.setattr(prefill, "project_keys", fail)
    ctx, query = _seq(300), _seq(8, seed=2)
    cfg = StreamConfig(sink=4, window=64, chunk=64, retrieval_layer=2)
    with pytest.raises(PipelineError) as err:
        run_compress(tiny_weights, cfg, PoolingConfig(budget=10), ctx, query)
    assert err.value.stage == "context-prefill"


@pytest.mark.parametrize("length", [100, 3000])  # bypassed and compressed
def test_bad_retrieval_layer_raises_value_error_bypass_or_not(tiny_weights, length):
    cfg = StreamConfig(retrieval_layer=9)
    with pytest.raises(ValueError, match="retrieval_layer 9") as err:
        run_compress(tiny_weights, cfg, PoolingConfig(budget=1024), _seq(length), _seq(8, 2))
    assert not isinstance(err.value, PipelineError)


@pytest.mark.parametrize("bad_id", [-1, 32768])
@pytest.mark.parametrize("part", ["context", "query"])
@pytest.mark.parametrize("budget", [10, 1000])  # compressed and bypassed
def test_out_of_vocab_id_rejected_before_any_stage(tiny_weights, bad_id, part, budget):
    ctx, query = _seq(300), _seq(8, seed=2)
    seq = ctx if part == "context" else query
    seq[5] = bad_id
    cfg = StreamConfig(sink=4, window=64, chunk=64, retrieval_layer=2)
    with pytest.raises(TokenIdOutOfRange, match=part) as err:
        run_compress(tiny_weights, cfg, PoolingConfig(budget=budget), ctx, query)
    assert not isinstance(err.value, PipelineError)


def test_compress_matches_monolithic_oracle(toy_weights):
    ctx, query = _seq(256), _seq(16, seed=2)
    cfg = StreamConfig(sink=4, window=512, chunk=64, retrieval_layer=3)
    pooling = PoolingConfig(budget=64)
    res = run_compress(toy_weights, cfg, pooling, ctx, query)
    ref_scores, _ = monolithic_pipeline_scores(toy_weights, 3, ctx, query, sink=4)
    from ctxpress.allocator import context_allocate
    ref = context_allocate(ref_scores, pooling, ctx, 4)
    assert res.allocation.indices == ref.indices


@settings(max_examples=150, deadline=None)
@given(sink=st.integers(0, 6), window=st.integers(1, 400), chunk=st.integers(1, 200),
       lr=st.integers(1, 4), length=st.integers(1, 200), query_len=st.integers(1, 24),
       max_k=st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True),
       avg_k=st.lists(st.integers(1, 16), min_size=1, max_size=4, unique=True),
       budget=st.integers(0, 200))
@example(sink=4, window=8, chunk=16, lr=3, length=40, query_len=5, max_k=[2],
         avg_k=[1, 3], budget=36)  # bypass: budget + sink covers the context
@example(sink=4, window=8, chunk=200, lr=3, length=150, query_len=5, max_k=[2, 4],
         avg_k=[1, 5], budget=30)  # one context chunk
@example(sink=2, window=8, chunk=16, lr=3, length=150, query_len=20, max_k=[2, 4],
         avg_k=[1, 5], budget=30)  # Lambda mask evicts: the dense-mask oracle applies
def test_compress_equals_oracle_scores_then_naive_allocate(tiny_weights, sink, window, chunk,
                                                           lr, length, query_len, max_k,
                                                           avg_k, budget):
    # the pipeline's own score vector is the dense oracle's within 1e-5, and
    # its allocation is the literal budget loop over that vector
    ctx, query = _seq(length), _seq(query_len, seed=2)
    stream = StreamConfig(sink=sink, window=window, chunk=chunk, retrieval_layer=lr)
    pooling = PoolingConfig(max_kernels=tuple(max_k), avg_kernels=tuple(avg_k), budget=budget)
    seen = []

    def kept(*args):
        seen.append(reduce_scores(*args))
        return seen[-1]

    with mock.patch.object(pipeline, "reduce_scores", kept):
        res = run_compress(tiny_weights, stream, pooling, ctx, query)
    if length <= budget + sink:
        assert res.bypassed and not seen
        assert res.allocation.indices == list(range(length))
        return
    (scores,) = seen
    assert len(scores) == length - sink
    assert res.allocation.indices == naive_allocate(scores, sink, budget, max_k, avg_k, length)
    if lr == 1 or window >= length + query_len:  # the Lambda mask is all of causal
        ref, _ = monolithic_pipeline_scores(tiny_weights, lr, ctx, query, sink)
    else:
        k_ref, q_ref = lambda_mask_pipeline(tiny_weights, lr, ctx, query, sink,
                                            window, chunk)
        ref = reduce_scores(query_context_scores(q_ref, k_ref), sink)
    assert np.abs(scores - ref).max() < 1e-5


def test_a_two_cpu_compress_leaves_no_thread_behind(tiny_weights, monkeypatch):
    # needle-grid's shape: a one-segment prefill whose Lambda attention and
    # scoring heads make many two-part calls, each joining its own pool
    # before it returns; the indices and costs are one CPU's
    ctx, query = _seq(2000), _seq(40, seed=2)
    cfg = PoolingConfig(budget=256)
    stream = StreamConfig(retrieval_layer=3)
    monkeypatch.setattr(model, "_CPUS", 1)
    want = run_compress(tiny_weights, stream, cfg, ctx, query)
    monkeypatch.setattr(model, "_CPUS", 2)
    before = threading.active_count()
    got = run_compress(tiny_weights, stream, cfg, ctx, query)
    assert threading.active_count() == before
    assert got.allocation.indices == want.allocation.indices
    assert got.cost.dot_products == want.cost.dot_products


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_compress_in_a_child_forked_after_a_compress(tiny_weights, monkeypatch):
    # every multi-part call joins its pool before it returns, so the child
    # inherits no pool whose threads it lacks
    ctx, query = _seq(2000), _seq(40, seed=2)
    cfg = PoolingConfig(budget=256)
    monkeypatch.setattr(model, "_CPUS", 2)
    want = run_compress(tiny_weights, StreamConfig(retrieval_layer=2), cfg, ctx, query)

    def child():
        got = run_compress(tiny_weights, StreamConfig(retrieval_layer=2), cfg, ctx, query)
        os._exit(0 if got.allocation.indices == want.allocation.indices else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=30)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("run_compress hung in the forked child")
    assert proc.exitcode == 0


def test_deterministic_end_to_end(tiny_weights):
    ctx, query = _seq(300), _seq(10, seed=2)
    cfg = StreamConfig(sink=4, window=64, chunk=64, retrieval_layer=3)
    a = run_compress(tiny_weights, cfg, PoolingConfig(budget=50), ctx, query)
    b = run_compress(tiny_weights, cfg, PoolingConfig(budget=50), ctx, query)
    assert a.allocation.indices == b.allocation.indices
    assert a.cost.dot_products == b.cost.dot_products


def test_result_json_has_config_echo(tiny_weights):
    ctx, query = _seq(300), _seq(10, seed=2)
    cfg = StreamConfig(sink=4, window=64, chunk=64, retrieval_layer=2)
    pooling = PoolingConfig(budget=50)
    res = run_compress(tiny_weights, cfg, pooling, ctx, query)
    # as the CLI writes it: the configs' dicts through one json round trip
    blob = json.loads(json.dumps(res.to_json({"stream": asdict(cfg), "pooling": asdict(pooling)})))
    assert blob["config"]["stream"]["sink"] == 4
    assert blob["config"]["pooling"]["max_kernels"] == [2, 4, 8]
    assert blob["budget"] == 50
    assert set(blob["cost"]) == {"dot_products", "cache_cells_low", "cache_cells_lr", "wall_ms"}


# --- cost accounting ----------------------------------------------------------

def test_cache_cells_no_lower_layers():
    assert count_cache_cells(100, 4, 512, 1) == (0, 100)


def test_cache_cells_reference_values():
    assert count_cache_cells(131072, 4, 512, 3) == (2064, 131072)
    assert count_cache_cells(1, 0, 1, 2) == (2, 1)


def test_cache_cells_match_live_cache(tiny_weights):
    from ctxpress.prefill import stream_prefill_context
    cfg = StreamConfig(sink=4, window=32, chunk=64, retrieval_layer=3)
    cache = stream_prefill_context(tiny_weights, cfg, _seq(500))
    live = sum(2 * k.shape[1] for k, _ in cache.layers), cache.length
    assert live == count_cache_cells(500, 4, 32, 3)


def test_count_lr1_single_query_row():
    cfg = StreamConfig(sink=4, window=64, chunk=64, retrieval_layer=1)
    count = count_dot_products(200, 1, cfg)
    assert count == 200  # one query row against the full key cache


def test_count_doubles_with_length():
    cfg = StreamConfig(sink=4, window=32, chunk=64, retrieval_layer=3)
    a = count_dot_products(1024, 8, cfg)
    b = count_dot_products(2048, 8, cfg)
    assert 1.9 <= b / a <= 2.1


def test_full_attention_grows_superlinearly():
    cfg = StreamConfig(sink=4, window=32, chunk=64, retrieval_layer=2)
    ratios = []
    for length in (512, 1024):
        stream = count_dot_products(length, 8, cfg)
        full = count_dot_products(length, 8, StreamConfig(sink=4, window=length, chunk=64,
                                                          retrieval_layer=2))
        ratios.append(full / stream)
    assert ratios[1] / ratios[0] >= 1.5


# --- configs ------------------------------------------------------------------

def _kept(n, config, fields, error):
    """A row under the id pytest once gave it by position (``fields<n>``), so
    that adding or deleting a row renames no other."""
    return pytest.param(config, fields, error,
                        id=f"{config.__name__}-fields{n}-{error.__name__}")


@pytest.mark.parametrize("config, fields, error", [
    _kept(0, ModelSpec, {"vocab": 0}, DimensionMismatch),
    _kept(1, ModelSpec, {"dim": 0}, DimensionMismatch),
    _kept(2, ModelSpec, {"heads": 0}, DimensionMismatch),
    _kept(3, ModelSpec, {"rope_base": 0.0}, ValueError),
    _kept(4, ModelSpec, {"dim": 64, "heads": 5}, DimensionMismatch),
    _kept(5, ModelSpec, {"dim": 12, "heads": 4}, DimensionMismatch),  # odd head_dim
    _kept(6, ModelSpec, {"layers": 1}, DimensionMismatch),
    _kept(7, StreamConfig, {"sink": -1}, ValueError),
    _kept(8, StreamConfig, {"window": 0}, ValueError),
    _kept(9, StreamConfig, {"chunk": 0}, ValueError),
    _kept(10, StreamConfig, {"retrieval_layer": 0}, ValueError),
    _kept(11, PoolingConfig, {"max_kernels": ()}, ValueError),
    _kept(12, PoolingConfig, {"avg_kernels": ()}, ValueError),
    _kept(13, PoolingConfig, {"max_kernels": (0,)}, ValueError),
    _kept(14, PoolingConfig, {"avg_kernels": (0,)}, ValueError),
    _kept(15, PoolingConfig, {"budget": -1}, ValueError),
    _kept(16, NeedleTaskSpec, {"length": 0}, ValueError),
    _kept(17, NeedleTaskSpec, {"length": 100, "segments": 0}, ValueError),
    _kept(18, NeedleTaskSpec, {"length": 100, "budget": 0}, ValueError),
    _kept(19, NeedleTaskSpec, {"length": 100, "key_digits": ()}, ValueError),
    _kept(20, NeedleTaskSpec, {"length": 100, "key_digits": (0,)}, ValueError),
    _kept(21, ModelSpec, {"rope_base": -1.0}, ValueError),
    _kept(22, ModelSpec, {"rope_base": float("nan")}, ValueError),
    _kept(23, ModelSpec, {"rope_base": float("inf")}, ValueError),
    pytest.param(ModelSpec, {"dim": 64.0}, ValueError, id="ModelSpec-float-dim"),
    pytest.param(StreamConfig, {"chunk": 64.0}, ValueError, id="StreamConfig-float-chunk"),
    pytest.param(PoolingConfig, {"budget": 100.0}, ValueError, id="PoolingConfig-float-budget"),
    pytest.param(NeedleTaskSpec, {"length": 100, "seed": 1.5}, ValueError,
                 id="NeedleTaskSpec-float-seed"),
])
def test_invalid_config_raises_at_construction(config, fields, error):
    with pytest.raises(error):
        config(**fields)


def test_configs_accept_numpy_integers():
    n = np.int64
    assert ModelSpec(dim=n(32), heads=n(2), layers=n(4), seed=n(7)).head_dim == 16
    stream = StreamConfig(sink=n(4), window=n(8), chunk=n(16), retrieval_layer=n(2))
    PoolingConfig(max_kernels=(n(2),), avg_kernels=(n(1),), budget=n(8))
    NeedleTaskSpec(length=n(100), key_digits=(n(6),), seed=n(1), budget=n(10))
    # the costs stay Python ints, so a cost report serializes to JSON
    cells = count_cache_cells(100, stream.sink, stream.window, stream.retrieval_layer)
    assert [type(c) for c in (count_dot_products(100, 8, stream), *cells)] == [int] * 3


# --- benchmark ----------------------------------------------------------------

def test_linear_fit_exact_line():
    slope, intercept, r2 = linear_fit(np.array([1, 2, 3, 4]), np.array([3, 5, 7, 9]))
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)


def test_bench_requires_four_lengths(tiny_weights):
    with pytest.raises(InsufficientPoints):
        bench_scaling(tiny_weights, StreamConfig(), PoolingConfig(budget=16),
                      [512, 1024, 2048])


def test_bench_rejects_unsorted_lengths(tiny_weights):
    with pytest.raises(ValueError):
        bench_scaling(tiny_weights, StreamConfig(), PoolingConfig(budget=16),
                      [1024, 512, 2048, 4096])


def test_bench_rows_and_exact_dot_fit(tiny_weights, tmp_path):
    cfg = StreamConfig(sink=4, window=32, chunk=128, retrieval_layer=2)
    lengths = [256, 384, 512, 640, 768]
    res = bench_scaling(tiny_weights, cfg, PoolingConfig(budget=16), lengths,
                        query_len=8, runs=1)
    assert [r.length for r in res.rows] == lengths
    assert abs(res.dots_fit[2] - 1.0) < 1e-9  # counting is exactly affine
    out = tmp_path / "bench.csv"
    res.write_csv(str(out))
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["length", "dot_products", "cache_cells_low", "cache_cells_lr", "wall_ms"]
    assert len(rows) == 1 + len(lengths)


# --- CLI ----------------------------------------------------------------------

def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ctxpress", *args],
                          capture_output=True, text=True)


@pytest.fixture()
def text_files(tmp_path):
    ctx = tmp_path / "context.txt"
    ctx.write_text("word salad filler " * 120)
    query = tmp_path / "query.txt"
    query.write_text("which words matter most ?")
    return ctx, query


def test_cli_compress(tmp_path, text_files):
    ctx, query = text_files
    out = tmp_path / "out.json"
    proc = _run_cli("compress", "--model-seed", "7", "--dim", "32", "--heads", "2",
                    "--context", str(ctx), "--query", str(query),
                    "--budget", "64", "--layer", "2", "--sink", "4",
                    "--window", "64", "--chunk", "128",
                    "--max-kernels", "2,4,8", "--avg-kernels", "1:16",
                    "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(out.read_text())
    assert blob["budget"] == 64
    assert blob["config"]["stream"] == {"sink": 4, "window": 64, "chunk": 128,
                                        "retrieval_layer": 2}
    assert blob["config"]["pooling"]["avg_kernels"] == list(range(1, 17))
    assert blob["config"]["model_seed"] == 7
    assert "weights" not in blob["config"]
    assert len(blob["indices"]) == len(set(blob["indices"]))
    assert blob["indices"] == sorted(blob["indices"])


@pytest.mark.parametrize("argv", [
    ["compress", "--layer", "99"],
    ["select-layer", "--length", "300", "--layers", "1:2", "--chunk", "0"],
    ["select-layer", "--length", "300", "--layers", "1:2", "--sink", "-1"],
    ["bench", "--window", "0"],
    ["bench", "--layer", "9"],
    ["bench", "--runs", "0"],
    ["select-layer", "--length", "300", "--layers", "1", "--dim", "32", "--heads", "2",
     "--key-digits", "100"],
], ids=["compress-layer-99", "select-layer-chunk-0", "select-layer-sink--1",
        "bench-window-0", "bench-layer-9", "bench-runs-0", "select-layer-budget-covers"])
def test_cli_compress_bad_config_exits_2(tmp_path, text_files, argv):
    if argv[0] == "compress":
        ctx, query = text_files
        argv = argv + ["--context", str(ctx), "--query", str(query)]
    proc = _run_cli(*argv, "--out", str(tmp_path / "x.json"))
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "runtime error" not in proc.stderr


def test_cli_maps_out_of_vocab_id_to_exit_2(tmp_path, text_files, monkeypatch):
    from ctxpress import cli
    monkeypatch.setattr(cli, "encode", lambda text, vocab: [5, -1, 6])
    ctx, query = text_files
    code = cli.main(["compress", "--dim", "32", "--heads", "2",
                     "--context", str(ctx), "--query", str(query),
                     "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_cli_missing_file_exits_2(tmp_path):
    proc = _run_cli("compress", "--context", str(tmp_path / "nope.txt"),
                    "--query", str(tmp_path / "nope2.txt"),
                    "--out", str(tmp_path / "x.json"))
    assert proc.returncode == 2


def test_cli_needle_gen(tmp_path):
    out = tmp_path / "task.json"
    proc = _run_cli("needle-gen", "--length", "400", "--depth", "3",
                    "--key-digits", "6", "--seed", "11", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(out.read_text())
    assert len(blob["context"]) == 400
    start, end = blob["needle_span"]
    assert start == 60  # depth 3 of 20 segments over 400 tokens
    memo = {int(tid): piece for tid, piece in blob["memo"].items()}
    assert decode(blob["context"][start:end], memo) == " ".join(split_pieces(blob["needle_text"]))
    assert len(blob["passkey"]) == 6
    # determinism: rerun produces identical JSON
    out2 = tmp_path / "task2.json"
    _run_cli("needle-gen", "--length", "400", "--depth", "3",
             "--key-digits", "6", "--seed", "11", "--out", str(out2))
    assert out.read_text() == out2.read_text()


def test_cli_select_layer(tmp_path):
    out = tmp_path / "report.json"
    proc = _run_cli("select-layer", "--model-seed", "3", "--dim", "32", "--heads", "2",
                    "--length", "300", "--key-digits", "6", "--budget", "48",
                    "--layers", "1:2", "--window", "32", "--chunk", "64",
                    "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(out.read_text())
    assert set(blob["layers"]) == {"1", "2"}
    assert blob["selected"] in (1, 2)
    assert len(blob["layers"]["1"]["cells"]) == 20  # 20 depths x 1 key length


def test_cli_bench(tmp_path):
    out = tmp_path / "bench.csv"
    proc = _run_cli("bench", "--model-seed", "3", "--dim", "32", "--heads", "2",
                    "--lengths", "256,384,512,640", "--budget", "16",
                    "--window", "32", "--chunk", "128", "--runs", "1",
                    "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "R^2" in proc.stdout
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 5


def test_needle_demo_script_runs():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "needle_demo.py"),
         "--length", "400", "--budget", "64"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert "needle recall =" in proc.stdout
