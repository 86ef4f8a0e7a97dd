#!/usr/bin/env python3
"""Record the outputs the benchmark's gate compares against.

Run from the repository root, only when the program's output is meant to
change (a different algorithm, not a faster one):

    python3 perfbench/record_golden.py --workload needle-grid

Each of the workload's input sets is run once and its indices digest,
dot-product count and, for needle-grid, every cell's recall are merged into
``perfbench/golden.json``.  Every recorded op must pass the allocation
invariants first.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="record the gate's expected outputs")
    parser.add_argument("--workload", required=True, choices=list(run.WORKLOADS))
    args = parser.parse_args(argv)
    out = run.GOLDEN_PATH
    golden = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    golden["input_sets"] = run.INPUT_SETS
    workload = run.WORKLOADS[args.workload]
    entries = golden.setdefault(workload.name, {})
    for input_set in range(run.INPUT_SETS):
        with tempfile.TemporaryDirectory() as tmp:
            workload.setup(run.import_fresh(), input_set, Path(tmp))
            entries[str(input_set)] = workload.record()
        print(f"{workload.name} input set {input_set} recorded", flush=True)
    out.write_text(json.dumps(golden, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
