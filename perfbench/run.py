#!/usr/bin/env python3
"""Run one benchmark workload at one seed and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload image-recovery --seed 7 \\
        --seconds 30 --trace 0

Workloads: ``aes-key-extraction``, ``image-recovery`` and
``attack-service`` (see ``perfbench/workloads.py`` and the notes in
``perfbench/workloads.json``).  The run measures for ``--seconds`` host
seconds (``--ops N`` runs exactly N operations of each kind instead) and
checks every output.

On aes-key-extraction and attack-service the time metrics are scaled
to a reference host speed measured by a calibration loop through the
run (``perfbench/hostspeed.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics, measured with no
tracing; with ``--trace 1`` they are the per-layer metrics of a traced
run, whose spans are also written to ``.perfbench-out/``.  The line
before it is the run's fingerprint: exact simulated counts and an output
digest over a fixed prefix of operations, identical across runs of one
seed.

Exit status: 0 when every output check passed, 1 when one failed, 2
when the program under test is not there to import or the workload is
unknown.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "op_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
    "accuracy": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "aes.keyrecovery.calls": "count",
    "aes.keyrecovery.self_s": "s",
    "aes.oracle.queries": "count",
    "aes.oracle.busy_s": "s",
    "aes.oracle.retry_frac": "fraction",
    "channels.hot_slots.calls": "count",
    "channels.hot_slots.busy_s": "s",
    "harness.elapsed_s": "s",
    "harness.trial_busy_s": "s",
    "harness.overhead_s": "s",
    "harness.failures": "count",
    "cpu.run.calls": "count",
    "cpu.run.busy_s": "s",
    "cpu.run.instructions": "count",
    "cpu.run.instructions_per_s": "1/s",
    "cpu.restore.calls": "count",
    "cpu.restore.busy_s": "s",
    "cpu.snapshot.calls": "count",
    "cpu.snapshot.busy_s": "s",
    "cpu.perf.conditional_branches": "count",
    "cpu.perf.mispredictions": "count",
    "replay.evaluate.calls": "count",
    "replay.evaluate.busy_s": "s",
    "replay.hit_rate": "fraction",
    "primitives.extended_read.busy_s": "s",
    "primitives.extended_read.probes": "count",
    "primitives.read_phr.busy_s": "s",
    "primitives.read_pht.busy_s": "s",
    "pathfinder.search.calls": "count",
    "pathfinder.search.busy_s": "s",
    "pathfinder.search.candidates": "count",
    "batch.run_batch.calls": "count",
    "batch.run_batch.busy_s": "s",
    "batch.run_batch.replicas": "count",
    "service.store.get_s": "s",
    "service.store.put_s": "s",
    "service.store.hit_rate": "fraction",
    "service.trace_cache.get_s": "s",
    "service.trace_cache.hit_rate": "fraction",
    "service.latency_p50_ms": "ms",
    "service.pool.queue_wait_p50_ms": "ms",
    "service.pool.handler_busy_s": "s",
    "service.pool.utilisation": "fraction",
    "jpeg.decode.busy_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "fraction",
    "trace.op_ms": "ms",
}

#: Imports and workload set-ups per run; ``setup_s`` reports the sum of
#: their medians.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many operations of each "
                             "kind instead of a timed window")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be at least 1")
    return args


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, result, span_cost_s: float) -> dict:
    """Every per-layer metric from the spans and the workload's own
    accounting (zero where the workload leaves a layer idle)."""
    totals = tracer.totals()

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    values = {name: 0 for name in PER_LAYER}
    for name in ("channels.hot_slots", "cpu.run", "cpu.restore",
                 "cpu.snapshot", "replay.evaluate", "pathfinder.search",
                 "batch.run_batch"):
        values[f"{name}.calls"] = get(name, "calls")
        values[f"{name}.busy_s"] = get(name, "busy_s")
    for name in ("primitives.extended_read", "primitives.read_phr",
                 "primitives.read_pht", "jpeg.decode"):
        values[f"{name}.busy_s"] = get(name, "busy_s")
    values.update({
        "aes.keyrecovery.calls": get("aes.keyrecovery", "calls"),
        "aes.keyrecovery.self_s": get("aes.keyrecovery", "self_s"),
        "cpu.run.instructions": get("cpu.run", "instructions"),
        "cpu.run.instructions_per_s": _ratio(get("cpu.run", "instructions"),
                                             get("cpu.run", "busy_s")),
        "cpu.perf.conditional_branches": get("cpu.run",
                                             "conditional_branches"),
        "cpu.perf.mispredictions": get("cpu.run", "mispredictions"),
        "replay.hit_rate": _ratio(get("replay.evaluate", "hits"),
                                  get("replay.evaluate", "lookups")),
        "primitives.extended_read.probes": get("primitives.extended_read",
                                               "probes"),
        "pathfinder.search.candidates": get("pathfinder.search",
                                            "candidates"),
        "batch.run_batch.replicas": get("batch.run_batch", "replicas"),
        "trace.spans": len(tracer.spans),
        "trace.overhead_frac": _ratio(len(tracer.spans) * span_cost_s,
                                      result.wall_s),
        "trace.op_ms": result.metrics["op_ms"],
    })
    for layer in ("service.store", "service.trace_cache"):
        values[f"{layer}.get_s"] = get(f"{layer}.get", "busy_s")
        values[f"{layer}.hit_rate"] = _ratio(
            get(f"{layer}.get", "hits"), get(f"{layer}.get", "calls"))
    values["service.store.put_s"] = get("service.store.put", "busy_s")
    values.update(result.layers)
    return values


def traced_counts(tracer, ops) -> dict:
    """Exact span counts (no times) of the fingerprint-prefix operations."""
    return {name: {key: value for key, value in sorted(entry.items())
                   if not key.endswith("_s")}
            for name, entry in sorted(tracer.totals(ops).items())}


def import_seconds() -> float:
    """Median host seconds a fresh interpreter takes to import the
    program and the workloads (interpreter start-up excluded)."""
    code = ("import sys, time; sys.path[:0] = %r; started = "
            "time.perf_counter(); import workloads; "
            "print(time.perf_counter() - started)"
            % [str(ROOT / "src"), str(HERE)])
    times = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                  capture_output=True, text=True,
                                  check=True, timeout=120).stdout)
             for __ in range(SETUP_REPEATS)]
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test ({ROOT / 'src' / 'repro'}) "
              f"is missing", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import spans as tracing
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    tempfile.tempdir = str(WORK_DIR)
    try:
        workload = workloads.workload(args.workload, args.seed, WORK_DIR)
    except ValueError as exc:
        print(f"error: {exc}; workloads: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup_times, contexts = [], []
    for __ in range(SETUP_REPEATS):
        started = time.perf_counter()
        contexts.append(workload.setup())
        setup_times.append(time.perf_counter() - started)
    for context in contexts[:-1]:
        if hasattr(context, "close"):
            context.close()
    context = contexts[-1]

    tracer = span_cost_s = None
    if args.trace:
        span_cost_s = tracing.span_cost_s()
        tracer = tracing.Tracer().install()
    try:
        result = workload.measure(context, args.seconds, args.ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if hasattr(context, "close"):
            context.close()

    if result.speed.samples:
        print(f"host-speed scale {result.speed.scale():.4f} over "
              f"{len(result.speed.samples)} calibration samples; unscaled: "
              f"{json.dumps(result.unscaled)}", file=sys.stderr)
    if tracer is None:
        values = dict(result.metrics)
        values["setup_s"] = import_seconds() + statistics.median(setup_times)
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    else:
        values = layer_metrics(tracer, result, span_cost_s)
        result.fingerprint["trace"] = traced_counts(tracer,
                                                    result.prefix_ops)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        units = PER_LAYER

    finite = all(math.isfinite(values[name]) for name in units)
    correct = result.failed == 0 and finite
    for error in result.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "fingerprint": result.fingerprint}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name]
                           if math.isfinite(values[name]) else None,
                           "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
