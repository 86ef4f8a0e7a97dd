"""Toy-scale deterministic transformer engine for long-context compression.

The pipeline encodes a long context with streaming chunked prefill (attention
sinks plus a sliding window) up to a chosen retrieval layer, caches that
layer's full-length key states, scores every context token against the query,
and keeps a token budget selected by multi-kernel pooled ranking.  Everything
is seeded and reproducible so the whole stack can be checked against
brute-force oracles.  The package root exports nothing; use the submodules.
"""

import os

# Before numpy loads, unless the caller chose otherwise: prefill segments,
# attention row groups and scoring heads run on threads of their own, and a
# multi-threaded BLAS would compete with them.  Too late if numpy came first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
