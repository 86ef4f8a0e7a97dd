#!/usr/bin/env python3
"""Hide a passkey in filler text, compress, and see whether it survived.

Usage: python scripts/needle_demo.py [--length 2000] [--budget 256] [--depth 11]
"""

import argparse

from ctxpress.allocator import PoolingConfig
from ctxpress.codec import decode
from ctxpress.model import ModelSpec, build_model
from ctxpress.needles import NeedleTaskSpec, cell_rng, evaluate_recall, generate_needle_instance
from ctxpress.pipeline import run_compress
from ctxpress.prefill import StreamConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=2000)
    parser.add_argument("--budget", type=int, default=256)
    parser.add_argument("--depth", type=int, default=11)
    parser.add_argument("--key-digits", type=int, default=6)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--layer", type=int, default=2)
    args = parser.parse_args()

    weights = build_model(ModelSpec(dim=64, heads=4, layers=4, seed=args.seed))
    task = NeedleTaskSpec(length=args.length, key_digits=(args.key_digits,), seed=args.seed)
    instance = generate_needle_instance(task, args.depth, args.key_digits,
                                        cell_rng(args.seed, args.depth, args.key_digits))
    start, end = instance.needle_span
    print(f"needle: {decode(instance.context[start:end], instance.memo)!r}")
    print(f"hidden at tokens [{start}, {end}) of {args.length}")

    stream = StreamConfig(sink=4, window=512, chunk=1024, retrieval_layer=args.layer)
    pooling = PoolingConfig(budget=args.budget)
    result = run_compress(weights, stream, pooling, instance.context, instance.query)
    recall = evaluate_recall(weights, stream, instance, pooling)
    kept = len(result.allocation.indices)
    print(f"kept {kept}/{args.length} context tokens (budget {args.budget}, "
          f"layer {args.layer}); needle recall = {recall:.2f}")
    print(f"cost: {result.cost.dot_products:,} dot products, "
          f"cache cells {result.cost.cache_cells_low} + {result.cost.cache_cells_retrieval}")
    print("note: weights are random, so recall tracks the score landscape, "
          "not real retrieval quality")


if __name__ == "__main__":
    main()
