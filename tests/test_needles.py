"""Passkey task generation, recall evaluation, and layer selection."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ctxpress import needles, pipeline, prefill
from ctxpress.allocator import PoolingConfig
from ctxpress.codec import Vocab, decode, encode
from ctxpress.model import ModelSpec, build_model
from ctxpress.needles import (
    KEY_WORDS,
    FillerTooShort,
    NeedleTaskSpec,
    RecallReport,
    cell_rng,
    default_filler,
    evaluate_recall,
    generate_needle_instance,
    select_retrieval_layer,
)
from ctxpress.prefill import StreamConfig
from reference import plant_retrieval

SMALL = NeedleTaskSpec(length=400, key_digits=(6,), seed=5)


def test_word_pool_is_frozen():
    assert len(KEY_WORDS) == 32
    assert len(set(KEY_WORDS)) == 32
    assert {"dog", "cat", "yellow", "red"} <= set(KEY_WORDS)


def test_instance_shape_and_span():
    inst = generate_needle_instance(SMALL, 3, 6, cell_rng(5, 3, 6))
    assert len(inst.context) == 400
    start, end = inst.needle_span
    assert start == 3 * 400 // 20
    assert inst.context[start:end] == encode(inst.needle_text)
    assert len(inst.passkey) == 6
    assert inst.passkey.isdigit()


def test_generation_deterministic():
    a = generate_needle_instance(SMALL, 7, 6, cell_rng(5, 7, 6))
    b = generate_needle_instance(SMALL, 7, 6, cell_rng(5, 7, 6))
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_depth_zero_starts_at_token_zero():
    inst = generate_needle_instance(SMALL, 0, 6, cell_rng(5, 0, 6))
    assert inst.needle_span[0] == 0


def test_span_decodes_to_needle_phrase():
    inst = generate_needle_instance(SMALL, 4, 6, cell_rng(5, 4, 6))
    start, end = inst.needle_span
    text = decode(inst.context[start:end], inst.memo)
    assert text == f"The {' - '.join(inst.key_id.rsplit('-', 1)[0].split('-'))} - " \
                   f"{inst.key_id.rsplit('-', 1)[1]} magic passkey is {inst.passkey} ."


def test_zero_padded_passkey():
    # force a tiny draw by searching seeds until the leading digit is zero
    for seed in range(50):
        inst = generate_needle_instance(SMALL, 1, 6, cell_rng(seed, 1, 6))
        if inst.passkey[0] == "0":
            assert len(inst.passkey) == 6
            return
    pytest.fail("no zero-leading passkey in 50 seeds")


class _ForcedRng:
    """Drop-in for the generator API yielding scripted draws."""

    def __init__(self, digits, word_indices, suffix):
        self._digits = digits
        self._words = word_indices
        self._suffix = suffix

    def integers(self, low, high, size=None):
        if size is not None:
            return np.array(self._digits)
        return self._suffix

    def choice(self, n, size, replace):
        return np.array(self._words)


def test_forced_draws_reproduce_template():
    # digits 198398, words blue/cup/red, suffix 33
    rng = _ForcedRng([1, 9, 8, 3, 9, 8],
                     [KEY_WORDS.index("blue"), KEY_WORDS.index("cup"),
                      KEY_WORDS.index("red")], 33)
    inst = generate_needle_instance(SMALL, 2, 6, rng)
    assert inst.needle_text == "\nThe blue-cup-red-33 magic passkey is 198398.\n"
    assert inst.key_id == "blue-cup-red-33"
    assert inst.passkey == "198398"
    start, end = inst.needle_span
    assert decode(inst.context[start:end], inst.memo) == \
        "The blue - cup - red - 33 magic passkey is 198398 ."


def test_key_id_format():
    inst = generate_needle_instance(SMALL, 2, 6, cell_rng(5, 2, 6))
    parts = inst.key_id.split("-")
    assert len(parts) == 4
    assert all(p in KEY_WORDS for p in parts[:3])
    assert len(parts[3]) == 2 and parts[3].isdigit()


def test_query_mentions_key_id():
    inst = generate_needle_instance(SMALL, 2, 6, cell_rng(5, 2, 6))
    text = decode(inst.query, inst.memo)
    for word in inst.key_id.split("-")[:3]:
        assert word in text
    assert "passkey" in text


def test_filler_cycles_with_warning():
    # the bundled corpus has 1,789 tokens
    spec = NeedleTaskSpec(length=2000, key_digits=(6,), seed=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = generate_needle_instance(spec, 5, 6, cell_rng(1, 5, 6))
    assert any(issubclass(w.category, FillerTooShort) for w in caught)
    assert len(inst.context) == 2000


def _filler_ids_encoding_each_time(needed, vocab, memo):
    # the filler step as it was before the corpus was cached
    base = encode(default_filler(), vocab, memo)
    if len(base) >= needed:
        return base[:needed]
    marker = encode(needles.CYCLE_MARKER, vocab, memo)
    ids = list(base)
    while len(ids) < needed:
        ids.extend(marker)
        ids.extend(base)
    return ids[:needed]


@pytest.mark.parametrize("length", [400, 2000])  # 2,000 cycles the filler
def test_filler_is_tokenized_once_with_the_same_memo(monkeypatch, length):
    # every instance fills its memo from the one tokenized corpus, in the
    # order encode would have written it, so the needle's and query's
    # entries still win every hash collision; the corpus is encoded once
    task = NeedleTaskSpec(length=length, key_digits=(6, 24), seed=9)
    vocab = Vocab(size=512)  # small, so filler pieces collide with the needle's
    cells = ((0, 6), (7, 24), (19, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FillerTooShort)
        with monkeypatch.context() as patched:
            patched.setattr(needles, "_filler_ids", _filler_ids_encoding_each_time)
            want = [generate_needle_instance(task, d, k, cell_rng(9, d, k), vocab)
                    for d, k in cells]
        needles._encoded_corpus.cache_clear()
        encoded = []

        def recorded(text, *args):
            encoded.append(text)
            return encode(text, *args)

        monkeypatch.setattr(needles, "encode", recorded)
        got = [generate_needle_instance(task, d, k, cell_rng(9, d, k), vocab) for d, k in cells]
    for a, b in zip(got, want):
        assert a.context == b.context
        assert a.needle_span == b.needle_span
        assert list(a.memo.items()) == list(b.memo.items())
    assert encoded.count(default_filler()) == 1


def test_needle_must_fit():
    spec = NeedleTaskSpec(length=30, key_digits=(6,), seed=1)
    with pytest.raises(ValueError, match="does not fit"):
        generate_needle_instance(spec, 19, 6, cell_rng(1, 19, 6))


def test_invalid_depth_rejected():
    with pytest.raises(ValueError):
        generate_needle_instance(SMALL, 20, 6, cell_rng(5, 20, 6))


# --- recall ------------------------------------------------------------------

def test_recall_one_when_budget_covers_context(tiny_weights):
    inst = generate_needle_instance(SMALL, 6, 6, cell_rng(5, 6, 6))
    config = StreamConfig(sink=4, window=64, chunk=64, retrieval_layer=2)
    pooling = PoolingConfig(budget=500)
    assert evaluate_recall(tiny_weights, config, inst, pooling) == 1.0


def test_recall_zero_when_budget_zero_and_span_off_sink(tiny_weights):
    inst = generate_needle_instance(SMALL, 10, 6, cell_rng(5, 10, 6))
    assert inst.needle_span[0] > 4
    config = StreamConfig(sink=4, window=64, chunk=64, retrieval_layer=2)
    pooling = PoolingConfig(budget=0)
    assert evaluate_recall(tiny_weights, config, inst, pooling) == 0.0


def test_a_filled_walk_leaves_the_instance_public_face_alone(tiny_weights):
    # evaluate_recall fills the instance's walk; to_json, == and repr never see it
    a = generate_needle_instance(SMALL, 6, 6, cell_rng(5, 6, 6))
    b = generate_needle_instance(SMALL, 6, 6, cell_rng(5, 6, 6))
    blob = json.dumps(a.to_json(), sort_keys=True)
    config = StreamConfig(sink=4, window=64, chunk=64, retrieval_layer=3)
    evaluate_recall(tiny_weights, config, a, PoolingConfig(budget=100))
    assert a.walk.depth == 3 and b.walk.depth == 0
    assert a == b and repr(a) == repr(b)
    assert json.dumps(a.to_json(), sort_keys=True) == blob
    assert set(a.to_json()) == {"context", "needle_span", "query", "key_id", "passkey",
                                "needle_text", "memo"}


def test_recall_from_spiked_scores_traces_allocation():
    # bypass the model: spiked scores on the span with m=1, n=1 and B=4 keep
    # exactly the span
    from ctxpress.allocator import context_allocate

    values = np.full(60, 0.001)
    values[6:10] = 0.9  # absolute 10..13 with sink 4
    ctx = list(range(64))
    cfg = PoolingConfig(max_kernels=(1,), avg_kernels=(1,), budget=4)
    res = context_allocate(values, cfg, ctx, 4)
    kept = set(res.indices) & set(range(10, 14))
    assert len(kept) == 4


# --- layer selection ---------------------------------------------------------

def test_report_tie_prefers_smallest_layer():
    report = RecallReport()
    for layer, mean in ((1, 0.5), (2, 0.9), (3, 0.9), (4, 0.2)):
        report.add(layer, 0, 6, mean)
    assert report.best_layer() == 2


def test_report_all_tied_returns_first():
    report = RecallReport()
    for layer in (1, 2, 3):
        report.add(layer, 0, 6, 0.7)
    assert report.best_layer() == 1


def test_report_means_and_json():
    report = RecallReport()
    report.add(3, 0, 6, 1.0)
    report.add(3, 1, 6, 0.0)
    assert report.layer_mean(3) == 0.5
    blob = report.to_json({"length": 100})
    assert blob["selected"] == 3
    assert blob["layers"]["3"]["mean"] == 0.5
    assert len(blob["layers"]["3"]["cells"]) == 2
    assert blob["spec"] == {"length": 100}


def test_select_layer_grid_complete(tiny_weights):
    task = NeedleTaskSpec(length=300, key_digits=(6, 12), segments=4, seed=9, budget=64)
    pooling = PoolingConfig(budget=64)
    stream = StreamConfig(sink=4, window=32, chunk=64)
    selected, report = select_retrieval_layer(tiny_weights, task, [1, 2, 3], pooling, stream)
    assert selected in (1, 2, 3)
    assert len(report.cells) == 3 * 4 * 2  # layers x depths x key lengths
    for recall in report.cells.values():
        assert 0.0 <= recall <= 1.0


def test_select_layer_walks_each_lower_layer_once(tiny_weights, monkeypatch):
    # instance by instance, layers ascending whatever their order: each
    # instance's context runs through layers 1..3 once for l_R 1-4, and the
    # cells are those of a fresh compression per (layer, instance)
    task = NeedleTaskSpec(length=300, key_digits=(6, 12), segments=4, seed=9, budget=64)
    pooling = PoolingConfig(budget=64)
    stream = StreamConfig(sink=4, window=32, chunk=64)
    forward, context_prefill = prefill.layer_forward, pipeline.stream_prefill_context
    context_layers = []

    def counted(weights, layer, *args, **kwargs):
        context_layers.append(layer)
        return forward(weights, layer, *args, **kwargs)

    def context_only(*args, **kwargs):
        with monkeypatch.context() as patched:
            patched.setattr(prefill, "layer_forward", counted)
            return context_prefill(*args, **kwargs)

    monkeypatch.setattr(pipeline, "stream_prefill_context", context_only)
    _, report = select_retrieval_layer(tiny_weights, task, [3, 1, 4, 2], pooling, stream)
    chunks = 5  # 68, 64, 64, 64, 40
    assert len(report.cells) == 4 * 4 * 2
    assert sorted(context_layers) == sorted([1, 2, 3] * chunks * 8)
    monkeypatch.setattr(pipeline, "stream_prefill_context", context_prefill)
    for (layer, depth, digits), recall in report.cells.items():
        inst = generate_needle_instance(task, depth, digits, cell_rng(9, depth, digits))
        kept = pipeline.run_compress(
            tiny_weights, replace(stream, retrieval_layer=layer), pooling, inst.context,
            inst.query).allocation.indices
        start, end = inst.needle_span
        assert recall == sum(start <= i < end for i in kept) / (end - start)


def test_select_layer_rejects_bad_candidates(tiny_weights):
    task = NeedleTaskSpec(length=300, key_digits=(6,), segments=4, seed=9, budget=64)
    for candidates in ([9], []):
        with pytest.raises(ValueError, match="candidate layer"):
            select_retrieval_layer(tiny_weights, task, candidates, PoolingConfig(budget=64),
                                   StreamConfig())


def test_select_layer_rejects_budget_covering_context(tiny_weights, monkeypatch):
    # a 300-token needle context with budget 296 and sink 4 would bypass
    # compression in every cell; no instance may be generated first
    from ctxpress import needles

    def no_instance(*args, **kwargs):
        raise AssertionError("instance generated before the budget check")

    monkeypatch.setattr(needles, "generate_needle_instance", no_instance)
    task = NeedleTaskSpec(length=300, key_digits=(100,), segments=4, budget=296)
    with pytest.raises(ValueError, match="covers the 300-token context"):
        select_retrieval_layer(tiny_weights, task, [1], PoolingConfig(budget=296),
                               StreamConfig(sink=4))


# --- a planted retrieval layer -------------------------------------------------

PLANTED_TASK = NeedleTaskSpec(length=1000, key_digits=(6, 12), segments=4, seed=0, budget=64)


@pytest.fixture(scope="module")
def long_rope_weights():
    # rope_base 1e12 leaves the rotary angles near zero over 1,000 tokens
    return build_model(ModelSpec(dim=64, heads=4, seed=7, rope_base=1e12))


@pytest.mark.parametrize("layer", [1, 2, 3, 4])
def test_selection_finds_a_planted_retrieval_layer(long_rope_weights, layer):
    # random layers recall 0.08-0.26 of the needle here, the planted one all of it
    weights = plant_retrieval(long_rope_weights, layer, 3.0)
    selected, report = select_retrieval_layer(weights, PLANTED_TASK, [1, 2, 3, 4],
                                              PoolingConfig(), StreamConfig())
    assert selected == layer
    assert report.layer_mean(layer) >= 0.9
    assert all(report.layer_mean(other) <= 0.5 for other in report.layers() if other != layer)


@pytest.mark.parametrize("layer", [1, 2, 3, 4])
def test_pooling_keeps_more_of_a_planted_needle_than_top_k(long_rope_weights, layer):
    # plain top-k keeps the needle's best-matching tokens, about 0.7 of its
    # span; the pooled windows keep the span whole
    weights = plant_retrieval(long_rope_weights, layer, 3.0)

    def mean_recall(pooling: PoolingConfig) -> float:
        _, report = select_retrieval_layer(weights, PLANTED_TASK, [layer], pooling,
                                           StreamConfig())
        return report.layer_mean(layer)

    top_k = PoolingConfig(max_kernels=(1,), avg_kernels=(1,))
    assert mean_recall(PoolingConfig()) > mean_recall(top_k)
