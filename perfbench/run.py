#!/usr/bin/env python3
"""ctxpress benchmark: three workloads, a correctness gate on every op, and a
traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload stream-64k --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracer installed.
``--trace 1`` is the separate traced run: it alternates untraced and traced
ops and reports the per-layer metrics and the tracing overhead.  (needle-grid
always calls ``pipeline.run_compress`` through one wrapper of its own, which
keeps the result for the gate.)
``--workload all`` runs every workload, each in a fresh process.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An op that raises or fails the gate counts as
failed and makes the exit code 1.  Exit code 2 means the benchmark could not
start (no ``src/ctxpress`` next to ``perfbench/``, or no recorded outputs).
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # Before numpy loads.  One BLAS thread: the model's matrices are 32 wide,
    # and with two threads on a 2-core box needle-grid cells ran up to 3x
    # slower and spread wider.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracer import LAYER_METRICS, Tracer, instrument, layer_metrics, measure_scores_peak

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN_PATH = HERE / "golden.json"

MODEL = {"dim": 32, "heads": 2, "layers": 4, "seed": 7}
#: ``seed % INPUT_SETS`` picks the input set, so every op has a recorded answer
INPUT_SETS = 16
SETUP_REPEATS = 15
MODULES = ("codec", "model", "prefill", "allocator", "needles", "pipeline", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("tokens_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)
PER_LAYER = LAYER_METRICS + (("trace.overhead_s", "s"),)


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


@dataclass
class Outcome:
    """What the gate checks about one op."""

    indices: list[int]
    length: int  # context tokens
    sink: int
    budget: int
    dot_products: int
    recall: float | None = None
    filler_cycled: int = 0  # FillerTooShort warnings, recorded, not failures


def digest(indices) -> str:
    return hashlib.sha256(np.asarray(indices, dtype="<i8").tobytes()).hexdigest()[:16]


def gate(outcome: Outcome, expected: dict | None) -> list[str]:
    """Allocation invariants, then the values recorded for this op, if any."""
    idx = np.asarray(outcome.indices, dtype=np.int64)
    want = min(outcome.sink + outcome.budget, outcome.length)
    errors = []
    if len(idx) != want:
        errors.append(f"{len(idx)} indices, expected min(sink + B, L) = {want}")
    if np.any(np.diff(idx) <= 0):
        errors.append("indices are not sorted and unique")
    if len(idx) and (idx[0] < 0 or idx[-1] >= outcome.length):
        errors.append(f"index outside [0, {outcome.length})")
    if not np.isin(np.arange(min(outcome.sink, outcome.length)), idx).all():
        errors.append("sink not included")
    if expected is not None:
        if digest(idx) != expected["digest"]:
            errors.append(f"indices digest {digest(idx)} != recorded {expected['digest']}")
        if outcome.dot_products != expected["dot_products"]:
            errors.append(f"dot_products {outcome.dot_products} "
                          f"!= recorded {expected['dot_products']}")
        if "recall" in expected and outcome.recall != expected["recall"]:
            errors.append(f"recall {outcome.recall} != recorded {expected['recall']}")
    return errors


def make_text(input_set: int, tag: str, words: int) -> str:
    """``words`` alphanumeric words, so the text encodes to exactly that many
    tokens.  ``random.Random`` with a string seed is stable across Python
    versions, which keeps the recorded outputs valid."""
    rng = random.Random(f"ctxpress-bench:{tag}:{input_set}")
    letters = "abcdefghijklmnopqrstuvwxyz"
    pool = ["".join(rng.choices(letters, k=rng.randint(2, 9))) for _ in range(4096)]
    return " ".join(rng.choices(pool, k=words))


def checked(outcome: Outcome) -> Outcome:
    errors = gate(outcome, None)
    if errors:
        raise RuntimeError("; ".join(errors))
    return outcome


class SameInput:
    """A workload whose every op runs on the same inputs and yields one
    allocation."""

    def outcomes(self, i: int, raw) -> list[Outcome]:
        return [self.outcome(raw)]

    def expected(self, i: int, recorded: dict) -> list[dict]:
        return [recorded]

    def record(self) -> dict:
        out = checked(self.outcome(self.op(0)))
        return {"digest": digest(out.indices), "dot_products": out.dot_products}


class StreamCompress(SameInput):
    """stream-64k: one in-process ``ctxpress compress`` call per op."""

    def __init__(self, name: str, context_tokens: int, query_tokens: int, budget: int,
                 layer: int, sink: int, window: int, chunk: int):
        self.name = name
        self.context_tokens, self.query_tokens = context_tokens, query_tokens
        self.budget, self.layer, self.sink = budget, layer, sink
        self.window, self.chunk = window, chunk

    def setup(self, mods: SimpleNamespace, input_set: int, workdir: Path) -> None:
        self.mods = mods
        context, query = workdir / "context.txt", workdir / "query.txt"
        context.write_text(make_text(input_set, "context", self.context_tokens), encoding="utf-8")
        query.write_text(make_text(input_set, "query", self.query_tokens), encoding="utf-8")
        self.out = workdir / "out.json"
        self.argv = [
            "compress", "--model-seed", str(MODEL["seed"]), "--dim", str(MODEL["dim"]),
            "--heads", str(MODEL["heads"]), "--model-layers", str(MODEL["layers"]),
            "--context", str(context), "--query", str(query), "--out", str(self.out),
            "--budget", str(self.budget), "--layer", str(self.layer),
            "--sink", str(self.sink), "--window", str(self.window), "--chunk", str(self.chunk),
        ]

    def op(self, i: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.mods.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"ctxpress compress exited {code}")
        return code

    def outcome(self, raw) -> Outcome:
        payload = json.loads(self.out.read_text(encoding="utf-8"))
        self.out.unlink()
        return Outcome(payload["indices"], self.context_tokens, self.sink, self.budget,
                       payload["cost"]["dot_products"])


class ScoreCompress(SameInput):
    """score-64k: ``codec.encode`` of context and query, then ``run_compress``."""

    def __init__(self, name: str, context_tokens: int, query_tokens: int, budget: int,
                 sink: int, window: int, chunk: int):
        self.name = name
        self.context_tokens, self.query_tokens = context_tokens, query_tokens
        self.budget, self.sink, self.window, self.chunk = budget, sink, window, chunk

    def setup(self, mods: SimpleNamespace, input_set: int, workdir: Path) -> None:
        self.mods = mods
        self.weights = mods.model.build_model(mods.model.ModelSpec(**MODEL))
        self.vocab = mods.codec.Vocab(size=self.weights.spec.vocab)
        self.stream = mods.prefill.StreamConfig(sink=self.sink, window=self.window,
                                                chunk=self.chunk, retrieval_layer=1)
        self.pooling = mods.allocator.PoolingConfig(budget=self.budget)
        self.context_text = make_text(input_set, "context", self.context_tokens)
        self.query_text = make_text(input_set, "query", self.query_tokens)

    def op(self, i: int):
        m = self.mods
        context = m.codec.encode(self.context_text, self.vocab)
        query = m.codec.encode(self.query_text, self.vocab)
        return m.pipeline.run_compress(self.weights, self.stream, self.pooling, context, query)

    def outcome(self, raw) -> Outcome:
        return Outcome(raw.allocation.indices, self.context_tokens, self.sink, self.budget,
                       raw.cost.dot_products)



class NeedleGrid:
    """needle-grid: one op is one (depth, key digits) cell of the
    ``select-layer`` grid: ``generate_needle_instance``, then
    ``evaluate_recall`` at every candidate layer, as ``select_retrieval_layer``
    does.  (Single-layer cells take 0.02, 0.15, 0.29 or 0.42 s by layer, so
    their median would sit on a class boundary and jump between runs.)"""

    def __init__(self, name: str, length: int, key_digits: tuple[int, ...], depths: int,
                 layers: tuple[int, ...], budget: int):
        self.name = name
        self.length, self.key_digits, self.depths = length, key_digits, depths
        self.layers, self.budget = layers, budget
        self.cells = [(depth, digits) for depth in range(depths) for digits in key_digits]

    def setup(self, mods: SimpleNamespace, input_set: int, workdir: Path) -> None:
        self.mods = mods
        self.weights = mods.model.build_model(mods.model.ModelSpec(**MODEL))
        self.vocab = mods.codec.Vocab(size=self.weights.spec.vocab)
        self.task = mods.needles.NeedleTaskSpec(
            length=self.length, key_digits=self.key_digits, segments=self.depths,
            seed=input_set, budget=self.budget)
        self.pooling = mods.allocator.PoolingConfig(budget=self.budget)
        self.sink = mods.prefill.StreamConfig().sink
        self.streams = [mods.prefill.StreamConfig(retrieval_layer=layer) for layer in self.layers]
        # each input set starts at its own cell, so seeds cover the whole grid
        self.start = input_set * 7 % len(self.cells)
        # evaluate_recall returns only the recall; the gate needs the indices,
        # so every run, traced or not, goes through this wrapper
        self.last = None
        run_compress = mods.pipeline.run_compress

        def keep_result(*args, **kwargs):
            self.last = run_compress(*args, **kwargs)
            return self.last

        mods.pipeline.run_compress = keep_result

    def op(self, i: int):
        return self.run_cell((self.start + i) % len(self.cells))

    def run_cell(self, cell: int):
        m = self.mods
        depth, digits = self.cells[cell]
        results = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            instance = m.needles.generate_needle_instance(
                self.task, depth, digits, m.needles.cell_rng(self.task.seed, depth, digits),
                self.vocab)
            for stream in self.streams:
                self.last = None
                recall = m.needles.evaluate_recall(self.weights, stream, instance, self.pooling)
                if self.last is None:
                    raise RuntimeError("evaluate_recall did not call pipeline.run_compress")
                results.append((recall, self.last))
        cycled = sum(issubclass(w.category, m.needles.FillerTooShort) for w in caught)
        return results, cycled

    def outcomes(self, i: int, raw) -> list[Outcome]:
        results, cycled = raw
        # one instance, so its warnings belong to the first outcome only
        return [Outcome(result.allocation.indices, self.length, self.sink, self.budget,
                        result.cost.dot_products, recall, cycled if k == 0 else 0)
                for k, (recall, result) in enumerate(results)]

    def expected(self, i: int, recorded: list) -> list[dict]:
        """``recorded`` has one [recall, dot_products, digest] row per
        (depth, key digits, layer), layers fastest."""
        cell = (self.start + i) % len(self.cells)
        rows = recorded[cell * len(self.layers):(cell + 1) * len(self.layers)]
        return [{"recall": recall, "dot_products": dots, "digest": want}
                for recall, dots, want in rows]

    def record(self) -> list:
        return [[out.recall, out.dot_products, digest(out.indices)]
                for cell in range(len(self.cells))
                for out in map(checked, self.outcomes(cell, self.run_cell(cell)))]


WORKLOADS = {
    "stream-64k": StreamCompress("stream-64k", context_tokens=65536, query_tokens=64,
                                 budget=1024, layer=2, sink=4, window=512, chunk=512),
    "score-64k": ScoreCompress("score-64k", context_tokens=65536, query_tokens=512,
                               budget=8192, sink=4, window=512, chunk=1024),
    "needle-grid": NeedleGrid("needle-grid", length=2000, key_digits=(6, 12, 24),
                              depths=20, layers=(1, 2, 3, 4), budget=1024),
}


def import_fresh() -> SimpleNamespace:
    """Import ctxpress from ``src`` anew, so import time can be measured more
    than once in one process."""
    if not (SRC / "ctxpress" / "__init__.py").is_file():
        raise SetupError(f"no ctxpress sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "ctxpress" or n.startswith("ctxpress.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{n: importlib.import_module(f"ctxpress.{n}") for n in MODULES})
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported ctxpress from {mods.cli.__file__}, not {SRC}")
    return mods


def set_up(workload, input_set: int, workdir: Path) -> tuple[float, SimpleNamespace]:
    """Median wall time of SETUP_REPEATS set-ups: import, model build, inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        mods = import_fresh()
        workload.setup(mods, input_set, workdir)
        times.append(time.perf_counter() - start)
    return statistics.median(times), mods


def load_recorded(name: str, input_set: int):
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            return json.load(fh)[name][str(input_set)]
    except (OSError, KeyError, ValueError) as exc:
        raise SetupError(f"no recorded outputs for {name} input set {input_set} "
                         f"in {GOLDEN_PATH}: {exc!r}") from exc


def environment(workload: str, seed: int, input_set: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"workload": workload, "seed": seed, "input_set": input_set,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}


class Runner:
    """Runs, times and gates the ops of one workload."""

    def __init__(self, workload, mods: SimpleNamespace, recorded):
        self.workload, self.mods, self.recorded = workload, mods, recorded
        self.attempted = self.failed = 0

    def attempt(self, i: int, tracer: Tracer | None = None, install=instrument):
        """Run op ``i`` with GC collected beforehand and disabled inside the
        timed region, with ``install(tracer, mods)`` in place if a tracer is
        given; gate its output.  Returns (seconds, outcomes), or (None, None)
        if the op raised, its output could not be read or it failed the gate."""
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.op = i
                install(tracer, self.mods)
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                raw = self.workload.op(i)
                seconds = time.perf_counter() - start
            finally:
                gc.enable()
                if tracer is not None:
                    tracer.restore()
            outcomes = self.workload.outcomes(i, raw)
            expected = ([None] * len(outcomes) if self.recorded is None
                        else self.workload.expected(i, self.recorded))
            errors = [error for outcome, want in zip(outcomes, expected, strict=True)
                      for error in gate(outcome, want)]
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            self.failed += 1
            print(f"op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None, None
        if errors:
            self.failed += 1
            print(f"op {i} failed the gate: {'; '.join(errors)}", file=sys.stderr)
            return None, None
        return seconds, outcomes

    def run(self, seconds: float, traced: bool) -> dict:
        """One discarded warm-up op, then ops until ``seconds`` have passed.
        Traced runs take the scoring peak on the warm-up op and do every
        later op twice, untraced and traced, alternating which goes first."""
        tracer = Tracer() if traced else None
        self.attempt(0, tracer, install=measure_scores_peak)
        plain, with_trace, tokens, cycled = [], [], 0, 0
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            order = ((False, True) if i % 2 == 0 else (True, False)) if traced else (False,)
            for trace_it in order:
                took, outcomes = self.attempt(i, tracer if trace_it else None)
                if took is None:
                    continue
                (with_trace if trace_it else plain).append(took)
                if trace_it:
                    tracer.count("needles.filler_cycled",
                                 sum(o.filler_cycled for o in outcomes))
                else:
                    tokens += sum(o.length for o in outcomes)
                    cycled += sum(o.filler_cycled for o in outcomes)
            i += 1
        return {"plain": plain, "traced": with_trace, "tokens": tokens,
                "filler_cycled": cycled, "tracer": tracer}


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.  Below 20
    samples that percentile would sit under the median, so the maximum is
    reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], (f"max of {n} samples: with fewer than 20, no percentile "
                             "at or above the median has ten beyond it")
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} samples, 10 beyond it"


def end_to_end(setup_s: float, runner: Runner, measured: dict) -> tuple[dict, dict]:
    times = measured["plain"]
    notes = {"setup_s": f"median of {SETUP_REPEATS} set-ups",
             "pass_ratio": f"fail_ratio {runner.failed / runner.attempted:g} "
                           f"= {runner.failed} failed / {runner.attempted} attempted"}
    values = {"setup_s": setup_s, "op_s_p50": 0.0, "op_s_tail": 0.0, "tokens_per_s": 0.0,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "pass_ratio": (runner.attempted - runner.failed) / runner.attempted}
    if times:
        values["op_s_p50"] = statistics.median(times)
        values["op_s_tail"], notes["op_s_tail"] = tail(times)
        values["tokens_per_s"] = measured["tokens"] / sum(times)
        notes["op_s_p50"] = f"median of {len(times)} timed ops"
        notes["tokens_per_s"] = "context tokens of the timed ops / their total time"
    return values, notes


def per_layer(measured: dict) -> tuple[dict, dict]:
    traced, plain = measured["traced"], measured["plain"]
    values = layer_metrics(measured["tracer"], len(traced))
    values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain)
                                  if traced and plain else 0.0)
    notes = {"trace.overhead_s": f"traced minus untraced op_s_p50, "
                                 f"{len(traced)} + {len(plain)} ops",
             "allocator.scores_bytes": "computed as H*L_q*L*8",
             "allocator.scores_peak_mb": "traced with tracemalloc on the untimed warm-up op"}
    return values, notes


def report(metrics: tuple, values: dict, notes: dict) -> dict:
    out = {}
    for name, unit in metrics:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:28s} {values[name]:>16.6g} {unit}{note}")
        out[name] = {"value": values[name], "unit": unit}
    return out


def run_one(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    input_set = args.seed % INPUT_SETS
    try:
        recorded = load_recorded(workload.name, input_set)
        # inside the benchmark's directory: a run reads and writes only in the
        # checkout it runs from
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
            setup_s, mods = set_up(workload, input_set, Path(tmp))
            runner = Runner(workload, mods, recorded)
            measured = runner.run(args.seconds, traced=bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(workload.name, args.seed, input_set)))
    if args.trace:
        metrics = report(PER_LAYER, *per_layer(measured))
    else:
        metrics = report(END_TO_END, *end_to_end(setup_s, runner, measured))
    if measured["filler_cycled"]:
        print(f"FillerTooShort warnings: {measured['filler_cycled']} "
              "(the bundled filler is cycled; recorded, not failures)")
    print("no layer queues work, so there is no waiting-time metric")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, so peak RSS is that workload's own."""
    correct, attempted, failed, metrics, code = True, 0, 0, {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 2
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{key}": value for key, value in result["metrics"].items()})
        code = max(code, proc.returncode)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
