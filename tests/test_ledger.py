"""A frozen ledger of end-to-end compressions.

Each row is one ``run_compress`` config and the five outputs it gave when
the row was recorded: the first 16 hex digits of the sha256 of its kept
indices (int64 bytes), its dot products, its cache cells (low, retrieval),
``bypassed`` and ``used_fallback``.  Every row runs at ``model._CPUS`` 1
and 3, so segmented prefill, grouped attention and threaded scoring must
each reproduce the one-thread walk.

A changed digest is an output change: the kept index set moved, and the
change that moved it must say so.  The digests hold on the platform they
were recorded on, an x86-64 Xeon with numpy 2.4's bundled OpenBLAS 0.3.31 on
one thread: OpenBLAS picks its kernels by CPU, and another kernel can move
the last bits of the scores and with them a tie in the ranking.
"""

import hashlib

import numpy as np
import pytest

from ctxpress import model
from ctxpress.allocator import PoolingConfig
from ctxpress.model import ModelSpec, build_model
from ctxpress.pipeline import run_compress, synthetic_ids
from ctxpress.prefill import StreamConfig

_SPEC = ModelSpec(dim=32, heads=2, layers=4, seed=7)
_TOPK = {"max_kernels": (1,), "avg_kernels": (1,)}
_ODD = {"max_kernels": (3, 5), "avg_kernels": (1, 2, 7)}

#: id -> ((L, L_q, sink, window, chunk, l_R, budget, kernels),
#:        (digest, dot products, cache cells, bypassed, used_fallback))
LEDGER = {
    "lr1-sink0": ((300, 16, 0, 96, 64, 1, 100, {}),
                  ("533eb09ff4dadf6c", 4_800, (0, 300), False, False)),
    "lr2-topk": ((1_000, 16, 4, 128, 64, 2, 200, _TOPK),
                 ("fd3a5119422b9e05", 169_308, (264, 1_000), False, False)),
    "lr3-odd": ((3_000, 32, 4, 256, 128, 3, 512, _ODD),
                ("c4ca063e03b34d77", 1_955_864, (1_040, 3_000), False, False)),
    "lr4-sink0": ((1_500, 16, 0, 96, 64, 4, 300, {}),
                  ("cd91d06936648178", 581_178, (576, 1_500), False, False)),
    "bypass-edge": ((104, 16, 4, 96, 64, 2, 100, {}),
                    ("8a8afac68b2481df", 0, (0, 0), True, False)),
    "bypass-edge-plus-one": ((105, 16, 4, 96, 64, 2, 100, {}),
                             ("b8f4fc45ee501683", 8_981, (200, 105), False, False)),
    "inside-window": ((300, 16, 4, 512, 64, 3, 100, {}),
                      ("492948b4ba75eeb3", 104_972, (1_200, 300), False, False)),
    "segments": ((16_384, 64, 4, 256, 256, 2, 4_096, {}),
                 ("7a18166cb008043c", 7_364_896, (520, 16_384), False, False)),
    "groups": ((2_000, 16, 4, 512, 1_024, 2, 1_000, {}),
               ("8d9dc77c1bfd4edb", 1_543_728, (1_032, 2_000), False, False)),
    "top-up": ((40, 16, 4, 96, 64, 3, 23, {"max_kernels": (8,), "avg_kernels": (1,)}),
               ("994ead8408696d03", 3_832, (160, 40), False, True)),
}


@pytest.fixture(scope="module")
def ledger_weights():
    return build_model(_SPEC)


def compress(weights, row):
    length, query_len, sink, window, chunk, layer, budget, kernels = row
    stream = StreamConfig(sink=sink, window=window, chunk=chunk, retrieval_layer=layer)
    res = run_compress(weights, stream, PoolingConfig(budget=budget, **kernels),
                       synthetic_ids(length, _SPEC.vocab, 1),
                       synthetic_ids(query_len, _SPEC.vocab, 1, tag="q"))
    digest = hashlib.sha256(np.asarray(res.allocation.indices, dtype=np.int64).tobytes())
    cost = res.cost
    return (digest.hexdigest()[:16], cost.dot_products,
            (cost.cache_cells_low, cost.cache_cells_retrieval),
            res.bypassed, res.allocation.used_fallback)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", list(LEDGER))
def test_ledger(ledger_weights, monkeypatch, name, cpus):
    monkeypatch.setattr(model, "_CPUS", cpus)
    row, recorded = LEDGER[name]
    assert compress(ledger_weights, row) == recorded
