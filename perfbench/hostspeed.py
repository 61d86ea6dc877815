"""Host-speed calibration for the benchmark's time metrics.

On a shared host the same work can take 1.5x longer from one ten-minute
stretch to the next.  A fixed pure-Python calibration loop, independent
of the program under test, slows down with the host: it is sampled
through a run, and a workload's time metrics are multiplied by
``REFERENCE_S / median(samples)`` (rates divided).  They then read as
host time on a host running the calibration at ``REFERENCE_S``; a change
to the program cannot move the calibration, so it moves the metrics in
full.

The scaling is used only where it was measured to track the workload: on
a 2-vCPU Xeon host it cut the run-to-run spread of key extraction from
0.11 to 0.03 and of service throughput from 0.20 to 0.09 (quartile
distance over median), but widened that of image recovery, whose speed
the loop over-states.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Optional

#: Median seconds of :func:`calibration_s` on the reference host (a
#: 2-vCPU Intel Xeon VM, Python 3.11).  Only the scale of the reported
#: times depends on it.
REFERENCE_S = 0.035

_TABLE: Optional[dict] = None


class _Registers:
    __slots__ = ("a", "b", "c")


class _Branch:
    __slots__ = ("pc", "taken", "target")

    def __init__(self, pc: int, taken: int, target: int) -> None:
        self.pc = pc
        self.taken = taken
        self.target = target


def calibration_s() -> float:
    """Host seconds of a fixed dict-, object- and attribute-heavy loop,
    shaped like a simulator's dispatch over tables and branch records.

    The garbage collector is off while it runs: a collection's cost grows
    with the caller's heap, which is not the host speed being sampled.
    """
    global _TABLE
    if _TABLE is None:
        _TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(1 << 16)}
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _calibration_loop(_TABLE)
    finally:
        if collecting:
            gc.enable()


def _calibration_loop(table: dict) -> float:
    registers = _Registers()
    registers.a = registers.b = registers.c = 0
    counters: dict = {}
    history = 0
    started = time.perf_counter()
    for i in range(25_000):
        value = table[((registers.a * 31) ^ i) & 0xFFFF]
        if value & 1:
            registers.b += value
        else:
            registers.c ^= value
        registers.a = (registers.a + value) & 0xFFFF
        branch = _Branch(i & 0x3FF, value & 4, i ^ 0x55)
        key = (branch.pc, history & 0xFF)
        count = counters.get(key, 0)
        counters[key] = count + 1 if branch.taken else count - 1
        history = ((history << 2) ^ branch.target) & 0xFFFF
    return time.perf_counter() - started


def _calibrate_in_child(iterations: int) -> None:
    for __ in range(iterations):
        calibration_s()


def parallel_calibration_s(processes: int = 2) -> float:
    """Host seconds for ``processes`` forked processes to run the
    calibration loop side by side: what the host gives a process pool,
    which one process's loop does not show when the host has fewer free
    CPUs than it reports."""
    import multiprocessing

    calibration_s()  # build the table before forking
    context = multiprocessing.get_context("fork")
    started = time.perf_counter()
    children = [context.Process(target=_calibrate_in_child, args=(2,))
                for __ in range(processes)]
    for child in children:
        child.start()
    for child in children:
        child.join()
    elapsed = time.perf_counter() - started
    if any(child.exitcode != 0 for child in children):
        raise RuntimeError("a calibration process failed")
    return elapsed


class HostSpeed:
    """Calibration samples taken through one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, repeats: int = 1) -> float:
        """Take ``repeats`` samples; return the host seconds they took, so
        a caller sampling inside a timed operation can leave them out."""
        started = time.perf_counter()
        self.samples.extend(calibration_s() for __ in range(repeats))
        return time.perf_counter() - started

    def sample_parallel(self, processes: int = 2) -> None:
        """Take one sample of :func:`parallel_calibration_s`, expressed
        per loop so it shares ``REFERENCE_S``."""
        self.samples.append(parallel_calibration_s(processes) / 2)

    def scale(self, first: int = 0, last: Optional[int] = None) -> float:
        """Factor turning host seconds into reference seconds, from the
        samples ``first:last`` (all by default); NaN without samples, as
        when every operation failed before taking one."""
        samples = self.samples[first:last]
        return REFERENCE_S / statistics.median(samples) if samples \
            else float("nan")
