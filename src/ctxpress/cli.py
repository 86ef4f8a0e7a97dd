"""Command line front end: compress, select-layer, needle-gen, bench.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from ctxpress.allocator import PoolingConfig
from ctxpress.codec import Vocab, encode
from ctxpress.model import ModelSpec, build_model
from ctxpress.needles import (
    NeedleTaskSpec,
    cell_rng,
    generate_needle_instance,
    select_retrieval_layer,
)
from ctxpress.pipeline import bench_scaling, run_compress
from ctxpress.prefill import StreamConfig

EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def parse_int_list(text: str) -> list[int]:
    """'2,4,8' -> [2, 4, 8]; 'a:b' -> [a..b] inclusive."""
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",") if part]


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model-seed", type=int, default=0,
                        help="weight seed; with the dimensions it is the whole model")
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--model-layers", type=int, default=4)
    parser.add_argument("--vocab", type=int, default=32768)


def _add_stream_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sink", type=int, default=4)
    parser.add_argument("--window", type=int, default=512)
    parser.add_argument("--chunk", type=int, default=1024)


def _add_kernel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-kernels", default="2,4,8")
    parser.add_argument("--avg-kernels", default="1:16")


def _pooling(args: argparse.Namespace) -> PoolingConfig:
    return PoolingConfig(max_kernels=tuple(parse_int_list(args.max_kernels)),
                         avg_kernels=tuple(parse_int_list(args.avg_kernels)),
                         budget=args.budget)


def _load_model(args: argparse.Namespace):
    spec = ModelSpec(vocab=args.vocab, dim=args.dim, heads=args.heads,
                     layers=args.model_layers, seed=args.model_seed)
    return build_model(spec)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_compress(args: argparse.Namespace) -> int:
    weights = _load_model(args)
    stream = StreamConfig(sink=args.sink, window=args.window, chunk=args.chunk,
                          retrieval_layer=args.layer)
    pooling = _pooling(args)
    vocab = Vocab(size=weights.spec.vocab)
    with open(args.context, encoding="utf-8") as fh:
        context = encode(fh.read(), vocab)
    with open(args.query, encoding="utf-8") as fh:
        query = encode(fh.read(), vocab)
    meta = {"stream": asdict(stream), "pooling": asdict(pooling),
            "model_seed": weights.spec.seed}
    result = run_compress(weights, stream, pooling, context, query)
    _write_json(args.out, result.to_json(meta))
    print(f"kept {len(result.allocation.indices)}/{len(context)} context tokens "
          f"({'bypassed' if result.bypassed else 'compressed'}) -> {args.out}")
    return 0


def cmd_select_layer(args: argparse.Namespace) -> int:
    weights = _load_model(args)
    task = NeedleTaskSpec(length=args.length,
                          key_digits=tuple(parse_int_list(args.key_digits)),
                          seed=args.seed, budget=args.budget)
    stream = StreamConfig(sink=args.sink, window=args.window, chunk=args.chunk)
    selected, report = select_retrieval_layer(weights, task, parse_int_list(args.layers),
                                              _pooling(args), stream)
    _write_json(args.out, report.to_json(
        {key: value for key, value in asdict(task).items() if key != "filler"}))
    print("mean recall per layer: " + ", ".join(
        f"{layer}: {report.layer_mean(layer):.3f}" for layer in report.layers()))
    print(f"selected retrieval layer {selected} -> {args.out}")
    return 0


def cmd_needle_gen(args: argparse.Namespace) -> int:
    spec = NeedleTaskSpec(length=args.length, key_digits=(args.key_digits,), seed=args.seed)
    rng = cell_rng(args.seed, args.depth, args.key_digits)
    instance = generate_needle_instance(spec, args.depth, args.key_digits, rng)
    _write_json(args.out, {**instance.to_json(), "length": args.length, "depth": args.depth,
                           "seed": args.seed})
    span = instance.needle_span
    print(f"needle '{instance.key_id}' = {instance.passkey} at tokens "
          f"[{span.start}, {span.end}) -> {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    weights = _load_model(args)
    stream = StreamConfig(sink=args.sink, window=args.window, chunk=args.chunk,
                          retrieval_layer=args.layer)
    result = bench_scaling(weights, stream, PoolingConfig(budget=args.budget),
                           parse_int_list(args.lengths), runs=args.runs,
                           full_attention=args.full_attention)
    result.write_csv(args.out)
    slope, intercept, r2 = result.time_fit
    print(f"wall-time fit: {slope * 1000:.4f} us/token + {intercept:.2f} ms, R^2 = {r2:.4f}")
    slope, intercept, r2 = result.dots_fit
    print(f"dot-count fit: {slope:.2f}/token + {intercept:.0f}, R^2 = {r2:.6f}")
    print(f"rows -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctxpress",
                                     description="streaming long-context compression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a context file against a query file")
    _add_model_args(p)
    p.add_argument("--context", required=True, help="UTF-8 text file with the long context")
    p.add_argument("--query", required=True, help="UTF-8 text file with the query part")
    p.add_argument("--budget", type=int, default=4096)
    p.add_argument("--layer", type=int, default=1, help="retrieval layer (1-based)")
    _add_stream_args(p)
    _add_kernel_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("select-layer", help="pick the retrieval layer via passkey recall")
    _add_model_args(p)
    p.add_argument("--length", type=int, required=True, help="context length in tokens")
    p.add_argument("--key-digits", default="6,12,24")
    p.add_argument("--budget", type=int, default=1024)
    p.add_argument("--layers", required=True, help="candidate layers, e.g. 1:4")
    p.add_argument("--seed", type=int, default=0)
    _add_stream_args(p)
    _add_kernel_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select_layer)

    p = sub.add_parser("needle-gen", help="generate one passkey retrieval instance")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--depth", type=int, required=True, help="segment index 0..19")
    p.add_argument("--key-digits", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_needle_gen)

    p = sub.add_parser("bench", help="wall-time and dot-count scaling benchmark")
    _add_model_args(p)
    p.add_argument("--lengths", default="8192,16384,32768,65536")
    p.add_argument("--budget", type=int, default=1024)
    p.add_argument("--layer", type=int, default=2, help="retrieval layer (1-based)")
    _add_stream_args(p)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--full-attention", action="store_true",
                   help="window = context length (no eviction baseline)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
