#!/usr/bin/env python3
"""Benchmark megalie on one workload and print its metrics as JSON.

    python3 bench/run.py --workload lattice|elimination|wave \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
src/, inputs come from code and fixtures/, and the golden reports from out/.

--trace 0 (default) times whole rounds of the workload's operations for
about S seconds (at least one round; a new round starts only if it is
expected to end within S) and prints the end-to-end metrics: set-up time,
median round time, median slowest operation, peak resident memory.
--trace 1 runs one untraced and one traced round and prints the per-layer
metrics of the traced round plus the tracing overhead.

Outputs are checked after timing against facts the benchmark computes
itself (see checks.py); later rounds must reproduce the first round's
outputs exactly.  The seed chooses every sampled value used by the checks.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Each run is also appended to
bench/runs/runs.jsonl, and a traced run writes its spans next to it.
The exit code is 0 when every operation succeeded, 1 when some failed,
and 2 when the checkout is incomplete (nothing is printed to stdout then).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path
from time import perf_counter

from layers import LayerTrace
from workloads import WORKLOADS, Expected

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
SETUP_REPEATS = 5
REQUIRED = [
    "src/megalie/__init__.py",
    "fixtures/m5.json",
    "fixtures/sl2d.json",
    "fixtures/wave_eq_family.json",
    "fixtures/maps/tshift.json",
    "fixtures/maps/uscale.json",
    "fixtures/maps/ugauge.json",
    "out/m5_analysis.json",
    "out/sl2d_analysis.json",
]
MODULES = ("algebra", "analysis", "automorphisms", "cli", "linalg", "megaideals", "poly", "vectorfield")


def import_megalie():
    """Import the package afresh, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "megalie" or m.startswith("megalie.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"megalie.{name}") for name in MODULES}
    )


def run_round(ops):
    """Run every operation once; returns the round state and per-op results."""
    state = {}
    results = []
    for op in ops:
        start = perf_counter()
        try:
            output, error = op.run(state), None
        except (Exception, SystemExit) as exc:
            output, error = None, f"{type(exc).__name__}: {exc}"
        results.append((op, perf_counter() - start, output, error))
    return state, results


class Tally:
    """Attempted and failed operations of a run, with the failure reasons.

    An operation fails in a round when it raises, when its output differs
    from the first round's, or when the first round's output failed its
    checks (the same wrong output then counts in every round).
    """

    def __init__(self):
        self.attempted = 0
        self.first = None  # (state, results) of the first round
        self.bad: list[set[str]] = []  # failed op names, per round
        self.failures: dict[str, list[str]] = {}

    def add_round(self, state, results):
        self.attempted += len(results)
        bad = set()
        if self.first is None:
            self.first = (state, results)
        else:
            for (op, _, output, error), (_, _, first_out, first_err) in zip(results, self.first[1]):
                if error is not None:
                    self._note(bad, op.name, error)
                elif first_err is None and op.key(output) != op.key(first_out):
                    self._note(bad, op.name, "output differs from the first round")
        self.bad.append(bad)

    def check_first(self, seed):
        state, results = self.first
        for op, _, output, error in results:
            if error is not None:
                self._note(self.bad[0], op.name, error)
                continue
            try:
                errors = op.check(output, state, random.Random(f"{seed}/{op.name}"))
            except Exception as exc:  # a malformed output must not stop the run
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            for message in errors:
                self._note(self.bad[0], op.name, message)

    @property
    def failed(self) -> int:
        return sum(len(bad | self.bad[0]) for bad in self.bad)

    def _note(self, bad, name, message):
        bad.add(name)
        self.failures.setdefault(name, []).append(message)


def end_to_end(ops, seconds, tally):
    round_times, slowest, per_op = [], [], {op.name: [] for op in ops}
    start = perf_counter()
    while True:
        state, results = run_round(ops)
        tally.add_round(state, results)
        round_times.append(sum(dt for _, dt, _, _ in results))
        slowest.append(max(dt for _, dt, _, _ in results))
        for op, dt, _, _ in results:
            per_op[op.name].append(dt)
        elapsed = perf_counter() - start
        if elapsed + round_times[-1] > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "run_s": {"value": statistics.median(round_times), "unit": "s"},
        "slowest_op_s": {"value": statistics.median(slowest), "unit": "s"},
        "peak_rss_mib": {"value": peak, "unit": "MiB"},
    }
    return metrics, len(round_times), per_op


def traced(workload, ops, tally, seed):
    state, results = run_round(ops)
    tally.add_round(state, results)
    untraced_s = sum(dt for _, dt, _, _ in results)
    layer_trace = LayerTrace()
    layer_trace.patch()
    try:
        state, results = run_round(ops)
    finally:
        layer_trace.unpatch()
    tally.add_round(state, results)
    traced_s = sum(dt for _, dt, _, _ in results)
    report_bytes = sum(
        len(output[1].encode("utf-8"))
        for op, _, output, error in results
        if op.name.startswith("cli ") and error is None
    )
    metrics = layer_trace.metrics(traced_s - untraced_s, report_bytes)
    RUNS.mkdir(exist_ok=True)
    spans_path = RUNS / f"spans-{workload.name}-seed{seed}-{os.getpid()}.bin.gz"
    layer_trace.recorder.write(spans_path)
    per_op = {op.name: [dt] for op, dt, _, _ in results}
    return metrics, 2, per_op, layer_trace.recorder.absent, spans_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"incomplete checkout under {ROOT}: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        mg = import_megalie()
        inputs = workload.setup(mg, ROOT)
        setup_times.append(perf_counter() - start)
    exp = Expected(ROOT)
    ops = workload.ops(mg, ROOT, inputs, exp)

    tally = Tally()
    record = {"started": time.strftime("%Y-%m-%dT%H:%M:%S"), "workload": workload.name,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        metrics, rounds, per_op, absent, spans_path = traced(workload, ops, tally, args.seed)
        record.update(absent_targets=absent, spans=spans_path.name)
    else:
        metrics, rounds, per_op = end_to_end(ops, args.seconds, tally)
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"}, **metrics}
    tally.check_first(args.seed)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record.update(rounds=rounds, setup_s=setup_times, op_s=per_op, failures=tally.failures,
                  result=result, wall_s=perf_counter() - started)
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    for name, messages in tally.failures.items():
        for message in messages[:5]:
            print(f"FAILED {name}: {message[:300]}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
