"""Passkey retrieval tasks and offline retrieval-layer selection.

Instances hide a "magic passkey" phrase at one of twenty uniform depths
inside filler text; recall measures how much of the needle's token span the
allocator keeps.  Sweeping candidate layers over a (depth x key length) grid
picks the retrieval layer: lowest index among those tied for best mean
recall.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import cache, lru_cache
from importlib import resources

import numpy as np

from ctxpress import pipeline
from ctxpress.allocator import PoolingConfig
from ctxpress.codec import Vocab, encode
from ctxpress.model import Weights, require_ints, seeded_rng
from ctxpress.prefill import StreamConfig, Walk

#: frozen word pool for key ids
KEY_WORDS = (
    "dog", "cat", "yellow", "red", "blue", "green", "cup", "tree",
    "house", "river", "stone", "cloud", "bird", "fish", "moon", "star",
    "apple", "grape", "chair", "table", "door", "window", "road", "hill",
    "rain", "snow", "wind", "fire", "paper", "glass", "metal", "wood",
)

CYCLE_MARKER = "\n(filler repeats)\n"


class FillerTooShort(UserWarning):
    """The filler corpus had to be cycled to reach the requested length."""


@cache
def default_filler() -> str:
    return resources.files("ctxpress.data").joinpath("filler.txt").read_text(encoding="utf-8")


@dataclass(frozen=True)
class NeedleTaskSpec:
    length: int
    key_digits: tuple[int, ...] = (6, 12, 24)
    segments: int = 20
    seed: int = 0
    budget: int = 1024

    def __post_init__(self) -> None:
        require_ints(self, self.length, self.segments, self.seed, self.budget, *self.key_digits)
        if self.length < 1 or self.segments < 1 or self.budget <= 0:
            raise ValueError(f"invalid task spec {self}")
        if not self.key_digits or min(self.key_digits) < 1:
            raise ValueError("key_digits must be positive")


@dataclass
class NeedleInstance:
    context: list[int]
    needle_span: tuple[int, int]  # context token range [start, end)
    query: list[int]
    key_id: str
    passkey: str
    needle_text: str
    memo: dict[int, str]

    def __post_init__(self) -> None:
        # not a field, so neither to_json, == nor repr sees it
        self.walk = Walk()  # the context's deepest prefill, for evaluate_recall

    def to_json(self) -> dict:
        return asdict(self)


def cell_rng(seed: int, depth_index: int, key_digits: int) -> np.random.Generator:
    """Independent counter-based RNG for one (depth, key length) grid cell."""
    return seeded_rng(seed, f"needle.depth{depth_index}.digits{key_digits}")


@lru_cache(maxsize=4)
def _encoded_corpus(vocab: Vocab) -> tuple[tuple[int, ...], tuple[tuple[int, str], ...]]:
    """The ids of the bundled corpus and its memo entries (id, first piece)
    in the order ``encode`` writes them, tokenized once per vocab."""
    memo: dict[int, str] = {}
    return tuple(encode(default_filler(), vocab, memo)), tuple(memo.items())


def _filler_ids(needed: int, vocab: Vocab, memo: dict[int, str]) -> list[int]:
    base, entries = _encoded_corpus(vocab)
    # first write wins, as if ``encode`` had filled ``memo`` itself
    for tid, piece in entries:
        memo.setdefault(tid, piece)
    if len(base) >= needed:
        return list(base[:needed])
    warnings.warn(
        f"filler corpus has {len(base)} tokens, cycling to reach {needed}",
        FillerTooShort,
    )
    marker = encode(CYCLE_MARKER, vocab, memo)
    ids = list(base)
    while len(ids) < needed:
        ids.extend(marker)
        ids.extend(base)
    return ids[:needed]


def generate_needle_instance(
    spec: NeedleTaskSpec,
    depth_index: int,
    key_digits: int,
    rng: np.random.Generator,
    vocab: Vocab | None = None,
) -> NeedleInstance:
    """Build one passkey instance with the needle at the given segment start.

    The passkey is a uniform digit string of exactly ``key_digits`` digits
    (leading zeros kept).  Needle, query, and filler are tokenized as
    separate pieces so the needle's token span is known exactly.
    """
    if not 0 <= depth_index < spec.segments:
        raise ValueError(f"depth_index {depth_index} outside 0..{spec.segments - 1}")
    vocab = vocab or Vocab()
    passkey = "".join(str(d) for d in rng.integers(0, 10, size=key_digits))
    words = [KEY_WORDS[i] for i in rng.choice(len(KEY_WORDS), size=3, replace=False)]
    key_id = "-".join(words) + f"-{rng.integers(0, 100):02d}"
    needle_text = f"\nThe {key_id} magic passkey is {passkey}.\n"
    query_text = f"\n\n# What's the {key_id} magic passkey?\nThe {key_id} magic passkey is "

    # encode the needle first so its memo entries win any hash collision
    memo: dict[int, str] = {}
    needle_ids = encode(needle_text, vocab, memo)
    query = encode(query_text, vocab, memo)
    seg_start = depth_index * spec.length // spec.segments
    if seg_start + len(needle_ids) > spec.length:
        raise ValueError(
            f"needle of {len(needle_ids)} tokens does not fit at depth {depth_index} "
            f"in {spec.length} tokens")
    filler = _filler_ids(spec.length - len(needle_ids), vocab, memo)
    return NeedleInstance(context=filler[:seg_start] + needle_ids + filler[seg_start:],
                          needle_span=(seg_start, seg_start + len(needle_ids)),
                          query=query, key_id=key_id, passkey=passkey,
                          needle_text=needle_text, memo=memo)


def evaluate_recall(
    weights: Weights,
    config: StreamConfig,
    instance: NeedleInstance,
    pooling: PoolingConfig,
) -> float:
    """Fraction of the needle's token span kept by the full pipeline.  The
    context prefill resumes the instance's walk, so evaluating layers in
    ascending order walks each lower layer once."""
    result = pipeline.run_compress(weights, config, pooling, instance.context, instance.query,
                                   walk=instance.walk)
    start, end = instance.needle_span
    kept = sum(1 for i in result.allocation.indices if start <= i < end)
    return kept / (end - start)


@dataclass
class RecallReport:
    """Recall per (layer, depth, key length) plus per-layer means."""

    cells: dict[tuple[int, int, int], float] = field(default_factory=dict)

    def add(self, layer: int, depth: int, key_digits: int, recall: float) -> None:
        self.cells[(layer, depth, key_digits)] = recall

    def layers(self) -> list[int]:
        return sorted({layer for layer, _, _ in self.cells})

    def layer_mean(self, layer: int) -> float:
        vals = [r for (lyr, _, _), r in self.cells.items() if lyr == layer]
        if not vals:
            raise KeyError(f"no cells for layer {layer}")
        return sum(vals) / len(vals)

    def best_layer(self) -> int:
        """Smallest layer index among those within 1e-9 of the best mean."""
        layers = self.layers()
        best = max(self.layer_mean(layer) for layer in layers)
        return min(layer for layer in layers if self.layer_mean(layer) >= best - 1e-9)

    def to_json(self, spec: dict | None = None) -> dict:
        per_layer: dict[str, dict] = {}
        for layer in self.layers():
            cells = [{"depth": d, "key_digits": k, "recall": r}
                     for (lyr, d, k), r in sorted(self.cells.items()) if lyr == layer]
            per_layer[str(layer)] = {"mean": self.layer_mean(layer), "cells": cells}
        return {"layers": per_layer, "selected": self.best_layer(), "spec": spec or {}}


def select_retrieval_layer(
    weights: Weights,
    task: NeedleTaskSpec,
    candidate_layers: list[int],
    pooling: PoolingConfig,
    stream: StreamConfig,
) -> tuple[int, RecallReport]:
    """Run the recall grid for each candidate layer and apply the
    lowest-index-among-best rule.

    The same instances (one per depth x key length cell, derived from the
    task seed) are evaluated at every layer: one instance at a time, at
    every layer in ascending order, so each resumes the instance's walk and
    at most one walk is alive.  A needle context is exactly ``task.length``
    tokens, so a budget plus sink that covers it is rejected: every cell
    would bypass compression and measure nothing.
    """
    if not candidate_layers:
        raise ValueError("need at least one candidate layer")
    n_layers = weights.spec.layers
    for layer in candidate_layers:
        if not 1 <= layer <= n_layers:
            raise ValueError(f"candidate layer {layer} outside 1..{n_layers}")
    if task.length <= task.budget + stream.sink:
        raise ValueError(
            f"budget {task.budget} plus sink {stream.sink} covers the {task.length}-token "
            "context; nothing would be compressed")
    vocab = Vocab(size=weights.spec.vocab)
    budgeted = replace(pooling, budget=task.budget)
    configs = [replace(stream, retrieval_layer=layer) for layer in sorted(set(candidate_layers))]
    report = RecallReport()
    for depth in range(task.segments):
        for digits in dict.fromkeys(task.key_digits):  # a repeated length runs once
            instance = generate_needle_instance(
                task, depth, digits, cell_rng(task.seed, depth, digits), vocab)
            for config in configs:
                recall = evaluate_recall(weights, config, instance, budgeted)
                report.add(config.retrieval_layer, depth, digits, recall)
    return report.best_layer(), report
