"""Span tracing for the benchmark, installed from outside the program.

A :class:`Tracer` replaces coarse public entry points of ``repro.*`` (a
victim run, a store lookup, a Pathfinder search -- never a per-branch
call) with wrappers that record one span per call: name, start, end,
parent span, operation id, self time and the counts the call returned.
Spans stay in memory until the run ends.  ``uninstall`` puts every
original function back, so an untraced run in the same process sees the
program unchanged.

A layer's self time is its span's duration minus the time its direct
child spans cover; spans nest per thread, so the parent is the span open
on the same thread when the call started.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Counts a wrapper extracts from a call: ``fn(args, result, before)``
#: where ``before`` is whatever the wrapper's ``pre(args)`` returned.
Counter = Callable[[tuple, Any, Any], Dict[str, int]]


def _run_counts(args, result, before) -> Dict[str, int]:
    return {
        "instructions": result.execution.instructions,
        "conditional_branches": result.perf.conditional_branches,
        "mispredictions": result.perf.conditional_mispredictions,
    }


def _lookup_counts(args, result, before) -> Dict[str, int]:
    return {"hits": 1} if result is not None else {"misses": 1}


def _replay_before(args) -> Tuple[int, int]:
    stats = args[0].stats
    return (stats.checkpoint_hits + stats.store_hits,
            stats.checkpoint_hits + stats.checkpoint_misses)


def _replay_counts(args, result, before) -> Dict[str, int]:
    hits, lookups = _replay_before(args)
    return {"hits": hits - before[0], "lookups": lookups - before[1]}


def _layer_wrappers() -> List[tuple]:
    """``(owner, attribute, span name, counter, pre)`` for every layer.

    Imported lazily so that importing this module does not import the
    program under test.
    """
    from repro.aes import keyrecovery
    from repro.batch import BatchMachine
    from repro.channels.flush_reload import FlushReloadChannel
    from repro.cpu.machine import Machine
    from repro.jpeg.codec import JpegCodec
    from repro.pathfinder.search import PathSearch
    from repro.primitives import ExtendedPhrReader, PhrReader, PhtReader
    from repro.replay import ReplayEngine
    from repro.service.store import SnapshotStore, TraceCache

    return [
        (keyrecovery, "recover_key_byte", "aes.keyrecovery", None, None),
        (FlushReloadChannel, "hot_slots", "channels.hot_slots", None, None),
        (Machine, "run", "cpu.run", _run_counts, None),
        (Machine, "restore", "cpu.restore", None, None),
        (Machine, "snapshot", "cpu.snapshot", None, None),
        (ReplayEngine, "evaluate", "replay.evaluate", _replay_counts,
         _replay_before),
        (ExtendedPhrReader, "read", "primitives.extended_read",
         lambda args, result, before: {"probes": result.probes}, None),
        (PhrReader, "read", "primitives.read_phr", None, None),
        (PhtReader, "read_batch", "primitives.read_pht", None, None),
        (PathSearch, "search", "pathfinder.search",
         lambda args, result, before: {"candidates": len(result)}, None),
        (BatchMachine, "run_batch", "batch.run_batch",
         lambda args, result, before: {"replicas": len(result)}, None),
        (SnapshotStore, "get", "service.store.get", _lookup_counts, None),
        (SnapshotStore, "put", "service.store.put", None, None),
        (TraceCache, "get", "service.trace_cache.get", _lookup_counts, None),
        (TraceCache, "put", "service.trace_cache.put", None, None),
        (JpegCodec, "decode_to_blocks", "jpeg.decode", None, None),
    ]


def _assign(owner: Any, attribute: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attribute] = value
    else:
        setattr(owner, attribute, value)


class Tracer:
    """Records spans from wrappers and from explicit :meth:`span` blocks.

    Each span is a tuple ``(id, name, start, end, parent id, op, self
    seconds, counts)``.  The operation id is per thread: the workload sets
    it with :meth:`set_op` before each key, image or job.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- operation ids and explicit spans --------------------------------

    def set_op(self, op: Optional[str]) -> None:
        self._local.op = op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), name, time.perf_counter(), 0.0, parent,
                 getattr(self._local, "op", None)]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, counts: Optional[Dict[str, int]]) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[2]
        if stack:
            stack[-1][3] += duration
        span_id, name, start, child_s, parent, op = frame
        self.spans.append((span_id, name, start, end, parent, op,
                           duration - child_s, counts))

    @contextmanager
    def span(self, name: str, counts: Optional[Dict[str, int]] = None):
        """Record the enclosed block as one span; ``counts`` may be filled
        in by the block before it ends."""
        frame = self._enter(name)
        try:
            yield counts
        finally:
            self._exit(frame, counts)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, owner: Any, attribute: str, name: str,
             counter: Optional[Counter] = None,
             pre: Optional[Callable[[tuple], Any]] = None,
             op: Optional[Callable[[tuple], Optional[str]]] = None) -> None:
        """Replace ``owner.attribute`` (or ``owner[attribute]`` for a dict)
        with a span-recording wrapper.

        ``op(args)``, when given, names the operation the call belongs to
        and sets it for the calling thread (a service worker learns its
        job this way).
        """
        if isinstance(owner, dict):
            original = owner[attribute]
        elif isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            if op is not None:
                tracer.set_op(op(args))
            before = pre(args) if pre is not None else None
            frame = tracer._enter(name)
            counts = None
            try:
                result = original(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, result, before)
                return result
            finally:
                tracer._exit(frame, counts)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", attribute)
        _assign(owner, attribute, traced)
        self._installed.append((owner, attribute, original))

    def install(self) -> "Tracer":
        for owner, attribute, name, counter, pre in _layer_wrappers():
            self.wrap(owner, attribute, name, counter, pre)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped function, last installed first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            _assign(owner, attribute, original)

    # -- results ----------------------------------------------------------

    def totals(self, ops: Optional[set] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy and self seconds, summed counts.

        ``ops`` restricts the sum to spans of those operation ids.
        """
        totals: Dict[str, Dict[str, float]] = {}
        for __, name, start, end, __, op, self_s, counts in self.spans:
            if ops is not None and op not in ops:
                continue
            entry = totals.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += self_s
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        return totals

    def write(self, path) -> None:
        """Write the spans as JSON lines (times relative to the first)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w") as out:
            for span_id, name, start, end, parent, op, self_s, counts \
                    in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent, "op": op,
                    "start_s": start - origin, "end_s": end - origin,
                    "self_s": self_s, "counts": counts,
                }) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Host seconds one wrapper adds to a call, measured on a no-op."""
    class Probe:
        def call(self):
            return None

    probe = Probe()
    started = time.perf_counter()
    for __ in range(samples):
        probe.call()
    plain = time.perf_counter() - started
    tracer = Tracer()
    tracer.wrap(Probe, "call", "probe")
    try:
        started = time.perf_counter()
        for __ in range(samples):
            probe.call()
        traced = time.perf_counter() - started
    finally:
        tracer.uninstall()
    return max(0.0, (traced - plain) / samples)
