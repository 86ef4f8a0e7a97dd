"""Model core: seeded weights, rotary encoding, masked attention, block step."""

import contextlib
import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ctxpress
from ctxpress import model
from ctxpress.allocator import PoolingConfig
from ctxpress.model import (
    ROW_BLOCK,
    DimensionMismatch,
    EmptyRow,
    ModelSpec,
    apply_position_encoding,
    build_model,
    embed,
    gelu,
    layer_forward,
    masked_attention,
    rotary_tables,
    run_parts,
    worker_scope,
)
from ctxpress.needles import cell_rng
from ctxpress.pipeline import run_compress, synthetic_ids
from ctxpress.prefill import StreamConfig
from reference import (
    build_lambda_mask,
    dense_softmax_attention,
    reference_block_forward,
    rotate_pairs,
)


def test_build_is_deterministic():
    spec = ModelSpec(dim=32, heads=2, layers=2, seed=7)
    a, b = build_model(spec), build_model(spec)
    assert np.array_equal(a.embedding, b.embedding)
    for la, lb in zip(a.layers, b.layers):
        for blk_a, blk_b in zip(vars(la).values(), vars(lb).values()):
            assert np.array_equal(blk_a, blk_b)


def test_seed_changes_weights():
    a = build_model(ModelSpec(dim=32, heads=2, layers=2, seed=7))
    b = build_model(ModelSpec(dim=32, heads=2, layers=2, seed=8))
    assert not np.array_equal(a.embedding, b.embedding)


def test_keyed_streams_are_frozen():
    # weights, needle cells and synthetic ids all come from ``seeded_rng``;
    # a change to its key would silently change every model, needle and
    # benchmark input, so these recorded values must never move
    weights = build_model(ModelSpec(dim=32, heads=2, layers=4, seed=7))
    digest = hashlib.sha256(weights.embedding.tobytes())
    for block in vars(weights.layers[0]).values():
        digest.update(block.tobytes())
    assert digest.hexdigest() == "eead38e816eba070670a2836cdde182fbd414bbeab94b939466dcf0e704a4b9e"
    assert cell_rng(5, 3, 12).integers(0, 10, size=8).tolist() == [3, 4, 5, 1, 3, 0, 7, 9]
    assert synthetic_ids(16, 32768, 7, tag="bench-query") == [
        15088, 24612, 23343, 4511, 31544, 11852, 3668, 31528,
        6390, 31036, 124, 23596, 12867, 4177, 16234, 13831]
    # the seed is taken mod 2**64 and the name is hashed as UTF-8
    assert model._draw_block(-1, "bl\u00f6ck", (4,), 1.0).tolist() == [
        -0.30806705355644226, -0.7876049280166626, -0.3011629283428192, -0.6427173018455505]
    assert np.array_equal(model.seeded_rng((1 << 64) + 3, "x").integers(0, 1 << 30, size=4),
                          model.seeded_rng(3, "x").integers(0, 1 << 30, size=4))


def test_heads_must_divide_dim():
    with pytest.raises(DimensionMismatch):
        build_model(ModelSpec(dim=64, heads=5, layers=2))


def test_weight_range():
    w = build_model(ModelSpec(dim=64, heads=4, layers=2, seed=3))
    bound = 1.0 / np.sqrt(64)
    assert np.abs(w.embedding).max() <= bound
    assert np.abs(w.layers[0].wq).max() <= bound


# --- rotary -----------------------------------------------------------------

def test_position_zero_is_identity(rng):
    x = rng.normal(size=(2, 1, 8))
    out = apply_position_encoding(x, np.array([0]))
    assert np.allclose(out, x)


def test_two_dim_head_rotation():
    out = apply_position_encoding(np.array([[[1.0, 0.0]]]), np.array([1]))
    assert np.allclose(out[0, 0], [np.cos(1.0), np.sin(1.0)])


def test_rotation_matches_pairwise_reference(rng):
    x = rng.normal(size=(5, 16))
    positions = rng.integers(0, 1000, size=5)
    out = apply_position_encoding(x[None], positions, base=10000.0)[0]
    for i in range(5):
        assert np.allclose(out[i], rotate_pairs(x[i], int(positions[i]), 10000.0))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5000), st.integers(0, 5000), st.integers(1, 50), st.integers(0, 7))
def test_relative_shift_invariance(i, j, delta, seed):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    q = gen.normal(size=(1, 1, 16))
    k = gen.normal(size=(1, 1, 16))
    dot_a = (apply_position_encoding(q, np.array([i]))
             * apply_position_encoding(k, np.array([j]))).sum()
    dot_b = (apply_position_encoding(q, np.array([i + delta]))
             * apply_position_encoding(k, np.array([j + delta]))).sum()
    assert abs(dot_a - dot_b) < 1e-6


# --- masked attention -------------------------------------------------------

def test_single_key_returns_value(rng):
    q = rng.normal(size=(2, 3, 8))
    k = rng.normal(size=(2, 1, 8))
    v = rng.normal(size=(2, 1, 8))
    out = masked_attention(q, k, v, np.ones((3, 1), dtype=bool))
    for row in range(3):
        assert np.allclose(out[:, row, :], v[:, 0, :])


def test_matches_dense_oracle(rng):
    q = rng.normal(size=(2, 4, 8))
    k = rng.normal(size=(2, 6, 8))
    v = rng.normal(size=(2, 6, 8))
    mask = rng.random((4, 6)) < 0.6
    mask[:, 0] = True  # keep every row satisfiable
    got = masked_attention(q, k, v, mask)
    want = dense_softmax_attention(q, k, v, mask)
    assert np.abs(got - want).max() < 1e-6


def test_full_causal_matches_oracle(rng):
    q = rng.normal(size=(1, 3, 8))
    k = rng.normal(size=(1, 3, 8))
    v = rng.normal(size=(1, 3, 8))
    mask = np.tril(np.ones((3, 3), dtype=bool))
    assert np.abs(masked_attention(q, k, v, mask)
                  - dense_softmax_attention(q, k, v, mask)).max() < 1e-6


def test_empty_mask_row_raises(rng):
    q = rng.normal(size=(1, 2, 4))
    kv = rng.normal(size=(1, 3, 4))
    mask = np.ones((2, 3), dtype=bool)
    mask[1] = False
    with pytest.raises(EmptyRow):
        masked_attention(q, kv, kv, mask)


def test_softmax_rows_sum_to_one(rng):
    q = rng.normal(size=(3, 5, 8))
    k = rng.normal(size=(3, 9, 8))
    v = rng.normal(size=(3, 9, 8))
    mask = rng.random((5, 9)) < 0.5
    mask[:, 3] = True
    _, probs = masked_attention(q, k, v, mask, return_probs=True)
    sums = probs.sum(axis=-1)
    assert np.abs(sums - 1.0).max() < 1e-5


def test_softmax_rows_is_the_only_softmax():
    src = Path(ctxpress.__file__).parent
    hits = [path.name for path in sorted(src.glob("*.py"))
            for _ in range(path.read_text(encoding="utf-8").count("np.exp("))]
    assert hits == ["model.py"]


# --- structured Lambda kernel -----------------------------------------------

@settings(max_examples=150, deadline=None)
@given(heads=st.integers(1, 4), half_dim=st.integers(1, 8), cached=st.integers(0, 600),
       new=st.one_of(st.integers(1, 200),
                     st.sampled_from([ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                      2 * ROW_BLOCK, 3 * ROW_BLOCK + 5])),
       seed=st.integers(0, 2**32 - 1))
def test_lambda_kernel_matches_dense_mask(heads, half_dim, cached, new, seed):
    # row blocks below, at and above ROW_BLOCK, with a ragged last block
    gen = np.random.default_rng(seed)
    q = gen.normal(size=(heads, new, 2 * half_dim))
    k = gen.normal(size=(heads, cached + new, 2 * half_dim))
    v = gen.normal(size=(heads, cached + new, 2 * half_dim))
    got = masked_attention(q, k, v, None)
    want = masked_attention(q, k, v, build_lambda_mask(new, cached))
    assert np.abs(got - want).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(heads=st.integers(1, 3), half_dim=st.integers(1, 8), cached=st.integers(0, 40),
       new=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_lambda_kernel_matches_loop_oracle(heads, half_dim, cached, new, seed):
    # the loop oracle divides each logit by sqrt(d_h) itself, so a score scale
    # applied twice or not at all shows; most even d_h have an inexact sqrt,
    # and T up to 70 crosses one ROW_BLOCK
    gen = np.random.default_rng(seed)
    q = gen.normal(size=(heads, new, 2 * half_dim))
    k = gen.normal(size=(heads, cached + new, 2 * half_dim))
    v = gen.normal(size=(heads, cached + new, 2 * half_dim))
    got = masked_attention(q, k, v, None)
    want = dense_softmax_attention(q, k, v, build_lambda_mask(new, cached))
    assert np.abs(got - want).max() < 1e-12


def test_lambda_kernel_keeps_one_score_block(rng, monkeypatch):
    # every row block's scores reuse one (H, ROW_BLOCK, T_k) buffer; a block
    # allocated while the previous one is still referenced would add another.
    # One CPU makes one group of all blocks
    monkeypatch.setattr(model, "_CPUS", 1)
    q = rng.normal(size=(2, 512, 16))
    k = rng.normal(size=(2, 1028, 16))
    tracemalloc.start()
    try:
        masked_attention(q, k, k, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * q.nbytes + 2 * ROW_BLOCK * 1028 * 8 + 256 * 1024


@pytest.mark.parametrize("cpus", [2, 4])
def test_lambda_kernel_keeps_one_score_block_per_group(rng, monkeypatch, cpus):
    # the 8 row blocks go to one group per CPU, each reusing one buffer of
    # its own; a buffer per block would take twice as many as there are groups
    monkeypatch.setattr(model, "_CPUS", cpus)
    q = rng.normal(size=(2, 512, 16))
    k = rng.normal(size=(2, 1028, 16))
    tracemalloc.start()
    try:
        masked_attention(q, k, k, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * q.nbytes + cpus * 2 * ROW_BLOCK * 1028 * 8 + 256 * 1024


@settings(max_examples=150, deadline=None)
@given(heads=st.integers(1, 4), half_dim=st.integers(1, 8), cached=st.integers(0, 300),
       new=st.one_of(st.integers(1, 400),
                     st.sampled_from([ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK,
                                      3 * ROW_BLOCK + 5])),
       cpus=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(heads=1, half_dim=1, cached=0, new=5 * ROW_BLOCK + 1, cpus=4, seed=0)
@example(heads=4, half_dim=8, cached=0, new=17 * ROW_BLOCK + 4, cpus=2, seed=1)
@example(heads=2, half_dim=4, cached=516, new=ROW_BLOCK, cpus=4, seed=2)
def test_lambda_groups_match_one_part_bit_for_bit(heads, half_dim, cached, new, cpus, seed):
    # the row blocks dealt to min(cpus, blocks) groups on threads; a group
    # that scored another's rows or shared its buffer would change bits.
    # Examples: a ragged 1-row last block, needle-grid's first chunk, and a
    # single block
    gen = np.random.default_rng(seed)
    q = gen.normal(size=(heads, new, 2 * half_dim))
    k = gen.normal(size=(heads, cached + new, 2 * half_dim))
    v = gen.normal(size=(heads, cached + new, 2 * half_dim))
    with mock.patch.object(model, "_CPUS", 1):
        want = masked_attention(q, k, v, None)
    with mock.patch.object(model, "_CPUS", cpus):
        got = masked_attention(q, k, v, None)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("blocks, parts", [(1, 1), (8, 2), (17, 2), (17, 4), (3, 3)])
def test_balanced_cuts_make_contiguous_nonempty_groups(blocks, parts):
    # Lambda blocks cost rows x columns, which grows with the row index
    costs = [ROW_BLOCK * ROW_BLOCK * (i + 1) for i in range(blocks)]
    cuts = model._balanced_cuts(costs, parts)
    assert cuts[0] == 0 and cuts[-1] == blocks and len(cuts) == parts + 1
    assert all(a < b for a, b in zip(cuts, cuts[1:]))
    sums = [sum(costs[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert max(sums) - min(sums) <= max(costs)


def test_run_parts_inside_a_part_starts_no_thread(monkeypatch):
    # an outer call on two threads whose parts each make an inner call of
    # three parts: only the outer call's second part gets a thread
    starts = []
    start = threading.Thread.start

    def counted(self):
        starts.append(self)
        start(self)

    def outer(i):
        return threading.get_ident(), run_parts(lambda j: threading.get_ident(), 3)

    monkeypatch.setattr(threading.Thread, "start", counted)
    results = run_parts(outer, 2)
    assert len(starts) == 1
    assert results[0][0] == threading.get_ident() != results[1][0]
    for ident, inner in results:
        assert inner == [ident] * 3
    # the flag is gone once the parts are done: the next call gets its thread
    assert run_parts(lambda j: threading.get_ident(), 2)[1] != threading.get_ident()
    assert len(starts) == 2


def _counted_pools(monkeypatch):
    made = []

    class Counted(model.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(model, "ThreadPoolExecutor", Counted)
    return made


def test_worker_scope_runs_every_call_on_one_pool(monkeypatch):
    # the outermost scope makes one pool of _CPUS - 1 threads, which every
    # call in it shares, a nested scope's too; a call of more parts than
    # CPUs queues its extra parts and still returns them in order, and the
    # pool's threads are gone after the scope
    made = _counted_pools(monkeypatch)
    monkeypatch.setattr(model, "_CPUS", 2)
    before = threading.active_count()
    with worker_scope():
        assert len(made) == 1  # made on entry, before any call
        seen = [run_parts(lambda j: threading.get_ident(), 2) for _ in range(2)]
        assert run_parts(lambda j: j, 4) == [0, 1, 2, 3]
        with worker_scope():  # a nested scope is part of the outer one
            assert run_parts(lambda j: j, 3) == [0, 1, 2]
        assert threading.active_count() == before + 1
    assert len(made) == 1 and seen[0][1] == seen[1][1] != threading.get_ident()
    assert threading.active_count() == before
    # outside a scope, each call makes and joins a pool of its own
    assert run_parts(lambda j: j, 2) == [0, 1]
    assert len(made) == 2 and threading.active_count() == before


@pytest.mark.parametrize("scoped", [False, True])
@pytest.mark.parametrize("failing", [0, 1])
def test_failed_part_surfaces_after_every_part_finished(scoped, failing):
    # the failing part raises at once while the other one still sleeps
    done = []

    def task(j):
        if j == failing:
            raise FloatingPointError(f"part {j} failed")
        time.sleep(0.05)
        done.append(j)
        return j

    with (worker_scope() if scoped else contextlib.nullcontext()):
        with pytest.raises(FloatingPointError):
            run_parts(task, 2)
        assert done == [1 - failing]
        # the scope's pool still serves the next call
        assert run_parts(lambda j: j, 2) == [0, 1]


def test_the_suite_runs_one_blas_thread():
    # conftest sets these before numpy loads; the engine's threads each call
    # BLAS, and numpy's bundled OpenBLAS reads them once, when it loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1"
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    lib = next(libs.glob("libscipy_openblas*.so"), None)
    if lib is None:
        pytest.skip("numpy without a bundled scipy-openblas")
    threads = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
    threads.restype, threads.argtypes = ctypes.c_int, []
    assert threads() == 1


_NUMPY_FIRST = """
import ctypes, json, sys
import numpy
threads = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_
threads.restype, threads.argtypes = ctypes.c_int, []
before = threads()
import ctxpress.pipeline
after = threads()
from ctxpress.allocator import PoolingConfig
from ctxpress.model import ModelSpec, build_model
from ctxpress.pipeline import run_compress, synthetic_ids
from ctxpress.prefill import StreamConfig
res = run_compress(build_model(ModelSpec(dim=32, heads=2, layers=4, seed=11)),
                   StreamConfig(window=256, chunk=256, retrieval_layer=2),
                   PoolingConfig(budget=256), synthetic_ids(2000, 32768, 1),
                   synthetic_ids(16, 32768, 1, tag="q"))
print(json.dumps([before, after, res.allocation.indices]))
"""


def test_numpy_loaded_first_still_gets_one_blas_thread(tiny_weights):
    # with no BLAS variable set and numpy imported first, OpenBLAS starts on
    # every CPU; importing ctxpress pins it to one, and a compress keeps the
    # indices it has in this suite
    if model._CPUS < 2:
        pytest.skip("one CPU: OpenBLAS starts on one thread anyway")
    lib = next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"),
               None)
    if lib is None:
        pytest.skip("numpy without a bundled scipy-openblas")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(ctxpress.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FIRST, str(lib)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    before, after, indices = json.loads(proc.stdout)
    assert before > 1 and after == 1
    res = run_compress(tiny_weights, StreamConfig(window=256, chunk=256, retrieval_layer=2),
                       PoolingConfig(budget=256), synthetic_ids(2000, 32768, 1),
                       synthetic_ids(16, 32768, 1, tag="q"))
    assert indices == res.allocation.indices


def test_lambda_kernel_rejects_fewer_keys_than_queries(rng):
    q = rng.normal(size=(1, 3, 4))
    kv = rng.normal(size=(1, 2, 4))
    with pytest.raises(ValueError, match="T_k >= T_q"):
        masked_attention(q, kv, kv, None)


# --- layer forward ----------------------------------------------------------

def test_gelu_is_the_tanh_expression_bit_for_bit(rng):
    # the in-place steps are the expression's operations in its order, so
    # no value may move, not even where tanh saturates or x is not finite
    x = np.concatenate([rng.normal(scale=scale, size=4099) for scale in (1e-3, 1.0, 30.0)]
                       + [np.array([0.0, -0.0, 1e-310, -1e-310, 1e200, -1e200,
                                    np.inf, -np.inf, np.nan])])
    saved = x.copy()
    for shape in ((len(x),), (3, len(x) // 3), (len(x) // 2, 2)):
        x = x.reshape(shape)
        with np.errstate(all="ignore"):
            want = 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                            * (x + 0.044715 * (x * x * x))))
            got = gelu(x)
        assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(x.ravel(), saved, equal_nan=True)  # the input is left as it was


def test_block_matches_reference_forward(tiny_weights, rng):
    ids = rng.integers(4, 32768, size=7)
    x = embed(tiny_weights, ids)
    positions = np.arange(7)
    mask = np.tril(np.ones((7, 7), dtype=bool))
    got, _, _ = layer_forward(tiny_weights, 2, x, rotary_tables(tiny_weights, positions), mask)
    want = reference_block_forward(tiny_weights, 2, x, positions)
    assert np.abs(got - want).max() < 1e-5


def test_forward_is_pure(tiny_weights, rng):
    ids = rng.integers(4, 32768, size=5)
    x = embed(tiny_weights, ids)
    mask = np.tril(np.ones((5, 5), dtype=bool))
    rotary = rotary_tables(tiny_weights, np.arange(5))
    a, _, _ = layer_forward(tiny_weights, 1, x, rotary, mask)
    b, _, _ = layer_forward(tiny_weights, 1, x, rotary, mask)
    assert np.array_equal(a, b)


def test_chunked_equals_monolithic(tiny_weights, rng):
    # cache of C rows + T new tokens == all C+T at once, last T rows
    ids = rng.integers(4, 32768, size=12)
    x = embed(tiny_weights, ids)
    positions = np.arange(12)
    full_mask = np.tril(np.ones((12, 12), dtype=bool))
    want, k_want, v_want = layer_forward(tiny_weights, 1, x, rotary_tables(tiny_weights, positions),
                                         full_mask)

    _, k_cache, v_cache = layer_forward(tiny_weights, 1, x[:8],
                                        rotary_tables(tiny_weights, positions[:8]),
                                        np.tril(np.ones((8, 8), dtype=bool)))
    tail_mask = np.hstack([np.ones((4, 8), dtype=bool),
                           np.tril(np.ones((4, 4), dtype=bool))])
    got, k_got, v_got = layer_forward(tiny_weights, 1, x[8:],
                                      rotary_tables(tiny_weights, positions[8:]), tail_mask,
                                      cache_k=k_cache, cache_v=v_cache)
    assert np.abs(got - want[8:]).max() < 1e-5
    # the attended rows come back: the 8 cached rows, then the 4 new ones
    assert np.abs(k_got - k_want).max() < 1e-5
    assert np.abs(v_got - v_want).max() < 1e-5
