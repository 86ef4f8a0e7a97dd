"""Toy-scale deterministic transformer engine for long-context compression.

The pipeline encodes a long context with streaming chunked prefill (attention
sinks plus a sliding window) up to a chosen retrieval layer, caches that
layer's full-length key states, scores every context token against the query,
and keeps a token budget selected by multi-kernel pooled ranking.  Everything
is seeded and reproducible so the whole stack can be checked against
brute-force oracles.
"""

from ctxpress.codec import Span, TokenSeq, UnknownId, Vocab, decode, encode
from ctxpress.model import (
    DimensionMismatch,
    EmptyRow,
    ModelSpec,
    OpCounter,
    Weights,
    apply_position_encoding,
    build_model,
    layer_forward,
    load_weights,
    masked_attention,
    save_weights,
)
from ctxpress.prefill import (
    EmptyQuery,
    StreamCache,
    StreamConfig,
    build_lambda_mask,
    prefill_query_part,
    stream_prefill_context,
)
from ctxpress.allocator import (
    AllocationResult,
    DegenerateContext,
    PoolingConfig,
    ScoreVector,
    context_allocate,
    pooled_ranking,
    query_context_scores,
    reduce_scores,
)
from ctxpress.needles import (
    FillerTooShort,
    NeedleInstance,
    NeedleTaskSpec,
    RecallReport,
    evaluate_recall,
    generate_needle_instance,
    select_retrieval_layer,
)
from ctxpress.pipeline import (
    BenchResult,
    CompressResult,
    CostReport,
    InsufficientPoints,
    PipelineError,
    TokenIdOutOfRange,
    bench_scaling,
    count_cache_cells,
    count_dot_products,
    run_compress,
)

__version__ = "0.1.0"
