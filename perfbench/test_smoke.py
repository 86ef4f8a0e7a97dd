"""Smoke test of the benchmark itself: every workload once at tiny sizes, and
the gate rejecting corrupted outputs.

    python3 perfbench/test_smoke.py        (or: python3 -m pytest perfbench)
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import LAYER_METRICS, MIB  # noqa: E402

TINY = (
    run.StreamCompress("stream-tiny", context_tokens=3000, query_tokens=16, budget=256,
                       layer=2, sink=4, window=128, chunk=256),
    run.ScoreCompress("score-tiny", context_tokens=3000, query_tokens=32, budget=512,
                      sink=4, window=128, chunk=512),
    run.NeedleGrid("needle-tiny", length=600, key_digits=(6,), depths=2, layers=(1, 2),
                   budget=128),
)


def _runner(workload, recorded=None, record=False):
    with tempfile.TemporaryDirectory() as tmp:
        workload.setup(run.import_fresh(), input_set=3, workdir=Path(tmp))
        if record:
            recorded = workload.record()
        runner = run.Runner(workload, workload.mods, recorded)
        result = runner.run(seconds=0, traced=False)
        traced = run.Runner(workload, workload.mods, recorded).run(seconds=0, traced=True)
    return runner, result, traced


def test_each_workload_runs_clean_at_tiny_size():
    for workload in TINY:
        runner, result, traced = _runner(workload, record=True)
        assert runner.failed == 0, workload.name
        assert runner.attempted == 2 and len(result["plain"]) == 1, workload.name
        values, _ = run.per_layer(traced)
        assert {name for name, _ in run.PER_LAYER} <= set(values)
        assert values["prefill.context_s"] > 0 and values["pipeline.dot_products"] > 0
        assert values["allocator.candidates"] > 0


def test_layer_metrics_match_the_workload():
    stream, score, needle = (_runner(w)[2] for w in TINY)
    stream, score, needle = (run.per_layer(t)[0] for t in (stream, score, needle))
    assert stream["cli.compress_s"] > stream["cli.self_s"] > 0
    assert stream["model.layer_forward.l1_s"] > 0 and stream["model.layer_forward.l2_s"] == 0
    assert score["model.layer_forward_calls"] == 0 and score["cli.compress_s"] == 0
    assert score["allocator.scores_bytes"] == 2 * 32 * 3000 * 8
    assert score["allocator.scores_peak_mb"] * MIB >= score["allocator.scores_bytes"]
    assert needle["needles.filler_cycled"] == 0 and needle["needles.generate_s"] > 0
    assert {name for name, _ in LAYER_METRICS} <= set(stream)


def test_gate_rejects_corrupted_index_sets():
    workload = TINY[1]
    with tempfile.TemporaryDirectory() as tmp:
        workload.setup(run.import_fresh(), input_set=3, workdir=Path(tmp))
        good = workload.outcome(workload.op(0))
    recorded = {"digest": run.digest(good.indices), "dot_products": good.dot_products}
    assert run.gate(good, recorded) == []
    idx = list(good.indices)
    taken = set(idx)
    free = next(i for i in range(good.length) if i not in taken)
    corrupted = {
        "dropped": idx[:-1],
        "duplicated": idx[:-1] + [idx[-2]],
        "unsorted": [idx[1], idx[0]] + idx[2:],
        "no sink": sorted(idx[1:] + [free]),
        "out of range": idx[:-1] + [good.length],
        "swapped for another index": sorted(idx[:-1] + [free]),
    }
    for label, indices in corrupted.items():
        bad = dataclasses.replace(good, indices=indices)
        assert run.gate(bad, recorded), label
    assert run.gate(dataclasses.replace(good, dot_products=good.dot_products + 1), recorded)


def test_a_wrong_recorded_value_fails_every_op():
    workload = TINY[1]
    runner, result, _ = _runner(workload, {"digest": "0" * 16, "dot_products": 0})
    assert runner.failed == runner.attempted and not result["plain"]


def test_an_unreadable_output_counts_as_a_failed_op():
    class NoCost(run.ScoreCompress):
        def outcome(self, raw):
            raise KeyError("cost")

    runner, result, _ = _runner(NoCost("score-no-cost", context_tokens=3000, query_tokens=32,
                                       budget=512, sink=4, window=128, chunk=512))
    assert runner.failed == runner.attempted == 2 and not result["plain"]


def test_a_needle_cell_without_a_kept_result_fails():
    workload = run.NeedleGrid("needle-bypass", length=600, key_digits=(6,), depths=2,
                              layers=(1,), budget=128)
    with tempfile.TemporaryDirectory() as tmp:
        workload.setup(run.import_fresh(), input_set=3, workdir=Path(tmp))
    # an evaluate_recall that never goes through pipeline.run_compress
    workload.mods.needles.evaluate_recall = lambda *args: 1.0
    runner = run.Runner(workload, workload.mods, None)
    assert runner.run(seconds=0, traced=False)["plain"] == []
    assert runner.failed == runner.attempted == 2


def test_exits_nonzero_without_sources():
    saved, out = run.SRC, io.StringIO()
    run.SRC = run.HERE / "no-such-src"
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "score-64k", "--seed", "0", "--seconds", "1"])
    finally:
        run.SRC = saved
    assert code == 2 and out.getvalue() == ""


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
