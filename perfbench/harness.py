"""Closed-loop runner shared by the workloads: one process, one thread, one
client. An operation starts when the previous verdict has returned."""

from __future__ import annotations

import gc
import sys
import time
import traceback
from typing import Callable, NamedTuple

from tracing import NullTracer

NULL_TRACER = NullTracer()

#: Best time of ``reference_loop`` on a 2-vCPU Intel Xeon virtual machine at
#: 2.1 GHz, in its fast state. Reported times are scaled to this speed.
REFERENCE_S = 1.30e-3


def reference_loop() -> int:
    """Fixed pure-Python work in the library's style (tuple keys, dict
    traffic, integer arithmetic); its time tracks the host's current speed."""
    table = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + (i * 7) % 13
    return len(table)


class SpeedProbe:
    """Times the reference loop between operations, at most every PERIOD
    seconds, to tell how much slower than its fast state the host ran: the
    drift that neighbouring load puts on every timing in the process."""

    PERIOD = 0.05
    BURST = 20

    def __init__(self):
        self.samples: list[float] = []
        self._next = time.perf_counter()

    def poll(self) -> None:
        """Take one sample per PERIOD elapsed since the last poll, up to
        BURST, so that long operations are not under-represented."""
        now = time.perf_counter()
        if now >= self._next:
            self.sample(max(1, min(self.BURST, int((now - self._next) / self.PERIOD))))

    def sample(self, count: int) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - t0)
        self._next = time.perf_counter() + self.PERIOD

    def slowdown(self, repeats: int) -> float:
        """The host's slowdown as seen by the best of ``repeats`` samples.

        The best of k repeats of an operation estimates the 1/(k+1) quantile
        of its times, so the reference is read at the same quantile: a lone
        fast sample cannot then excuse a run whose operations ran slow."""
        ordered = sorted(self.samples)
        return ordered[int(len(ordered) / (repeats + 1))] / REFERENCE_S


class Op(NamedTuple):
    """One call that returns a verdict, and the verdict it must return."""

    label: str
    run: Callable  # run(tracer) -> verdict
    expected: object


class Gate:
    """Counts verdicts and the ones that differ from their known answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, got, expected) -> bool:
        self.attempted += 1
        if got == expected:
            return True
        self.failed += 1
        if self.failed <= 5:
            print(f"WRONG {label}: got {got!r}, expected {expected!r}", file=sys.stderr)
        return False

    def run(self, op: Op, tracer) -> None:
        tracer.op(op.label)
        try:
            got = op.run(tracer)
        except Exception:  # an unexpected raise is a failed operation
            self.attempted += 1
            self.failed += 1
            if self.failed <= 5:
                print(f"RAISED {op.label}:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return
        self.check(op.label, got, op.expected)


def one_pass(ops: list[Op], gate: Gate, tracer=NULL_TRACER, probe=None) -> tuple[float, list[float]]:
    """Run every operation once, in order; return the pass wall time and
    each operation's time. A probe, if given, samples the host's speed
    between operations."""
    gc.collect()
    times = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        gate.run(op, tracer)
        times.append(time.perf_counter() - t0)
        if probe is not None:
            probe.poll()
    return time.perf_counter() - start, times


def measure(ops: list[Op], seconds: float, gate: Gate) -> dict:
    """Repeat whole passes over the operations until ``seconds`` have passed
    (at least one pass); keep each operation's best time and the host's
    slowdown over the run.

    The host's speed drifts by 1.5x and more, over seconds to minutes, as
    neighbouring load comes and goes. The best of several repeats removes
    drift shorter than a pass; dividing by the slowdown that the speed probe
    saw removes most of the rest. Whole passes keep every operation's repeat
    count equal."""
    walls = []
    per_op: list[list[float]] = [[] for _ in ops]
    probe = SpeedProbe()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, times = one_pass(ops, gate, probe=probe)
        walls.append(wall)
        for acc, t in zip(per_op, times):
            acc.append(t)
    return {
        "passes": len(walls),
        "pass_walls": walls,
        "op_best": sorted(min(ts) for ts in per_op),
        "slowdown": probe.slowdown(len(walls)),
        "probes": len(probe.samples),
    }


def tail(sorted_values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, with its
    label. Below twenty samples that percentile is no tail, so the maximum
    is reported instead and labelled as such."""
    n = len(sorted_values)
    if n < 20:
        return sorted_values[-1], f"max of {n}"
    return sorted_values[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"
