"""Toy-scale deterministic transformer engine for long-context compression.

The pipeline encodes a long context with streaming chunked prefill (attention
sinks plus a sliding window) up to a chosen retrieval layer, caches that
layer's full-length key states, scores every context token against the query,
and keeps a token budget selected by multi-kernel pooled ranking.  Everything
is seeded and reproducible so the whole stack can be checked against
brute-force oracles.  The package root exports nothing; use the submodules.
"""

import os
import sys

# Before numpy loads, unless the caller chose otherwise: prefill segments,
# attention row groups and scoring heads run on threads of their own, and a
# multi-threaded BLAS would compete with them.
_PIN = "OPENBLAS_NUM_THREADS" not in os.environ
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# numpy's bundled OpenBLAS read the variables when it loaded, so if numpy came
# first it is set to one thread here, once for the whole process
if _PIN and "numpy" in sys.modules:
    import ctypes
    from pathlib import Path

    _libs = Path(sys.modules["numpy"].__file__).parent.parent / "numpy.libs"
    _lib = next(_libs.glob("libscipy_openblas64_*.so"), None)
    if _lib is not None:
        _set = ctypes.CDLL(str(_lib)).scipy_openblas_set_num_threads64_
        _set.argtypes, _set.restype = [ctypes.c_int], None
        _set(1)

__version__ = "0.1.0"
