"""Spans and counts recorded from outside ctxpress.

The tracer rebinds public function names in the modules that call them (for
example ``ctxpress.pipeline.stream_prefill_context`` or
``ctxpress.prefill.layer_forward``), so every call through that name opens a
span.  Nothing inside the package changes; ``restore`` puts the original
functions back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

MIB = 1024 * 1024


class Tracer:
    """Records spans ``[name, start, end, parent, op]`` and per-op counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, float]] = []  # (op, name, value)
        self.op = -1
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0,
                  self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.op, name, value))

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(self, module, attr: str, name, after=None) -> None:
        """Rebind ``module.attr`` so each call opens a span.

        ``name`` is a string or a function of the call's positional
        arguments; ``after(tracer, result, args)`` records counts.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name(args) if callable(name) else name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, result, args)
            return result

        self.patch(module, attr, traced)

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """Count the items a generator function yields, consumed or not."""
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            n = 0
            try:
                for item in original(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self.count(name, n)

        self.patch(module, attr, counted)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _token_count(tracer: Tracer, result, args) -> None:
    tracer.count("codec.tokens", len(result))


def _cost_counts(tracer: Tracer, result, args) -> None:
    tracer.count("pipeline.dot_products", result.cost.dot_products)
    tracer.count("prefill.cache_cells_low", result.cost.cache_cells_low)
    tracer.count("prefill.cache_cells_lr", result.cost.cache_cells_retrieval)


def _scores_bytes(tracer: Tracer, result, args) -> None:
    query_states, full_k = args[:2]
    heads, query_len, _ = query_states.shape
    tracer.count("allocator.scores_bytes", heads * query_len * full_k.shape[1] * 8)


def _allocation_counts(tracer: Tracer, result, args) -> None:
    scores, _, context, sink = args[:4]
    tracer.count("allocator.kept", len(result.indices) - min(sink, len(context)))
    tracer.count("allocator.fallback_ops", int(result.used_fallback))


def instrument(tracer: Tracer, mods: SimpleNamespace) -> None:
    """Rebind the public names each layer is called through.

    ``mods`` holds the imported ``ctxpress`` modules.  Each name is rebound
    in the module that calls it, because ``from x import f`` copies the
    binding: ``cli.encode`` and ``needles.encode`` are separate names for
    ``codec.encode``, which the benchmark itself calls through ``codec``.
    """
    wrap = tracer.wrap
    wrap(mods.cli, "main", "cli.compress")
    wrap(mods.cli, "build_model", "model.build")
    for module in (mods.cli, mods.codec, mods.needles):
        wrap(module, "encode", "codec.encode", after=_token_count)
    for module in (mods.cli, mods.pipeline):
        wrap(module, "run_compress", "pipeline.compress", after=_cost_counts)
    wrap(mods.needles, "generate_needle_instance", "needles.generate")
    wrap(mods.pipeline, "stream_prefill_context", "prefill.context")
    wrap(mods.pipeline, "prefill_query_part", "prefill.query")
    wrap(mods.pipeline, "query_context_scores", "allocator.scores", after=_scores_bytes)
    wrap(mods.pipeline, "reduce_scores", "allocator.reduce")
    wrap(mods.pipeline, "context_allocate", "allocator.allocate", after=_allocation_counts)
    tracer.wrap_generator(mods.allocator, "pooled_ranking", "allocator.candidates")
    wrap(mods.prefill, "layer_forward", lambda args: f"model.layer_forward.l{args[1]}")
    wrap(mods.prefill, "project_keys", "model.project_keys")
    wrap(mods.model, "masked_attention", "model.masked_attention")


def measure_scores_peak(tracer: Tracer, mods: SimpleNamespace) -> None:
    """Rebind only the scoring call, to run under tracemalloc without a span.

    tracemalloc slows every allocation, so the peak is taken on an op whose
    time is not kept, and the timed spans run without it.
    """
    original = mods.pipeline.query_context_scores

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            result = original(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tracer.count("allocator.scores_peak_mb", peak / MIB)
        return result

    tracer.patch(mods.pipeline, "query_context_scores", traced)


#: (metric, unit) in report order; every traced run reports all of them,
#: 0 where the workload never calls the layer.
LAYER_METRICS = (
    ("cli.compress_s", "s"),
    ("cli.self_s", "s"),
    ("model.build_s", "s"),
    ("codec.encode_s", "s"),
    ("codec.tokens_per_s", "1/s"),
    ("pipeline.compress_s", "s"),
    ("pipeline.self_s", "s"),
    ("prefill.context_s", "s"),
    ("prefill.query_s", "s"),
    ("prefill.chunks", "count"),
    ("model.layer_forward_s", "s"),
    ("model.layer_forward.l1_s", "s"),
    ("model.layer_forward.l2_s", "s"),
    ("model.layer_forward.l3_s", "s"),
    ("model.layer_forward_calls", "count"),
    ("model.masked_attention_s", "s"),
    ("model.project_keys_s", "s"),
    ("allocator.scores_s", "s"),
    ("allocator.scores_bytes", "B"),
    ("allocator.scores_peak_mb", "MB"),
    ("allocator.reduce_s", "s"),
    ("allocator.allocate_s", "s"),
    ("allocator.candidates", "count"),
    ("allocator.keep_ratio", "ratio"),
    ("allocator.fallback_ops", "count"),
    ("needles.generate_s", "s"),
    ("needles.filler_cycled", "count"),
    ("pipeline.dot_products", "count"),
    ("prefill.cache_cells_low", "count"),
    ("prefill.cache_cells_lr", "count"),
)


def layer_metrics(tracer: Tracer, traced_ops: int) -> dict[str, float]:
    """Per-op means of span times and counts over the traced ops.

    Self time is a span's duration minus the durations of its direct
    children, which run one after another.  ``allocator.scores_peak_mb``
    is the largest peak seen by ``measure_scores_peak``, ``allocator.keep_ratio`` is kept indices over
    yielded candidates, and ``allocator.fallback_ops`` is a total.
    """
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent is not None:
            child[parent] += end - start
    total: defaultdict[str, float] = defaultdict(float)
    self_time: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for i, (name, start, end, _, _) in enumerate(tracer.spans):
        total[name] += end - start
        self_time[name] += end - start - child[i]
        calls[name] += 1
    sums: defaultdict[str, float] = defaultdict(float)
    peak_mb = 0.0
    for _, name, value in tracer.counts:
        sums[name] += value
        if name == "allocator.scores_peak_mb":
            peak_mb = max(peak_mb, value)
    layers = [f"model.layer_forward.l{i}" for i in (1, 2, 3)]
    n = max(traced_ops, 1)
    out = {
        "cli.compress_s": total["cli.compress"] / n,
        "cli.self_s": self_time["cli.compress"] / n,
        "model.build_s": total["model.build"] / n,
        "codec.encode_s": total["codec.encode"] / n,
        "codec.tokens_per_s": _ratio(sums["codec.tokens"], total["codec.encode"]),
        "pipeline.compress_s": total["pipeline.compress"] / n,
        "pipeline.self_s": self_time["pipeline.compress"] / n,
        "prefill.context_s": total["prefill.context"] / n,
        "prefill.query_s": total["prefill.query"] / n,
        "prefill.chunks": calls["model.project_keys"] / n,
        "model.layer_forward_s": sum(total[name] for name in layers) / n,
        "model.layer_forward_calls": sum(calls[name] for name in layers) / n,
        "model.masked_attention_s": total["model.masked_attention"] / n,
        "model.project_keys_s": total["model.project_keys"] / n,
        "allocator.scores_s": total["allocator.scores"] / n,
        "allocator.scores_bytes": sums["allocator.scores_bytes"] / n,
        "allocator.scores_peak_mb": peak_mb,
        "allocator.reduce_s": total["allocator.reduce"] / n,
        "allocator.allocate_s": total["allocator.allocate"] / n,
        "allocator.candidates": sums["allocator.candidates"] / n,
        "allocator.keep_ratio": _ratio(sums["allocator.kept"], sums["allocator.candidates"]),
        "allocator.fallback_ops": sums["allocator.fallback_ops"],
        "needles.generate_s": total["needles.generate"] / n,
        "needles.filler_cycled": sums["needles.filler_cycled"] / n,
        "pipeline.dot_products": sums["pipeline.dot_products"] / n,
        "prefill.cache_cells_low": sums["prefill.cache_cells_low"] / n,
        "prefill.cache_cells_lr": sums["prefill.cache_cells_lr"] / n,
    }
    for i, name in enumerate(layers, start=1):
        out[f"model.layer_forward.l{i}_s"] = total[name] / n
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
