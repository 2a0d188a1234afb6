"""Host-speed calibration for the benchmark's host times.

The benchmark runs on a share of a shared host whose speed swings by tens
of percent from one second to the next and from one minute to the next:
the same call of the same program can take 2.4 s in one run and 3.5 s
in the next.  Neither the fastest nor the median of a few repeats hides
that when a whole run falls in a slow spell.

So every timed call runs with a reference clock ticking beside it: every
:data:`TICK_S` seconds of wall time a signal handler interrupts the
program and times one fixed reference unit of the kind of work the
simulator does (hopping through a graph of objects a few MB large,
pushing and popping a small heap, updating a dict, calling a function),
with the garbage collector held off so the unit never collects the
program's objects.  The units slow down with the host while the call
runs.  The call's own host seconds (its wall time minus the units'
time) divided by the mean unit time do not depend on how fast the host
was; multiplied by :data:`REFERENCE_S` they read as seconds on a host
where the unit takes that long.  The reference never touches the
program, so a change to the program moves only the numerator.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: Seconds one reference unit takes on the nominal host (the quiet state
#: of a 2-vCPU Xeon KVM guest).  Normalised times are host seconds
#: rescaled to that host.
REFERENCE_S = 0.0002

#: Wall seconds between two reference units during a timed call.
TICK_S = 0.02

#: Graph hops (each with a heap push, a dict update and a call) in one
#: reference unit.
UNIT_HOPS = 250

#: Entries the reference unit keeps in its heap.
HEAP_SIZE = 32

#: Nodes in the reference graph (a few MB, beyond the L2 cache).
GRAPH_NODES = 100_000

#: Reference units timed back to back when no tick fell inside a call.
FALLBACK_UNITS = 20


def _pair(value: int, index: int) -> list:
    return [value, index]


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next = self


class ReferenceClock:
    """Times a fixed reference unit while measured calls run."""

    def __init__(self) -> None:
        rng = random.Random(3)
        self._graph = [_Node(i) for i in range(GRAPH_NODES)]
        for node in self._graph:
            node.next = self._graph[rng.randrange(GRAPH_NODES)]

    def _unit(self) -> int:
        heap: List[Tuple[int, int]] = []
        table: Dict[int, list] = {}
        node = self._graph[0]
        for i in range(UNIT_HOPS):
            node = node.next
            heapq.heappush(heap, (node.value, i))
            table[node.value & 255] = _pair(node.value, i)
            if len(heap) > HEAP_SIZE:
                heapq.heappop(heap)
        return len(table)

    def _timed_unit(self) -> float:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self._unit()
            return perf_counter() - start
        finally:
            if collecting:
                gc.enable()

    def reference_s(self) -> float:
        """Mean host seconds of one reference unit, measured now."""
        return statistics.fmean(self._timed_unit()
                                for __ in range(FALLBACK_UNITS))

    def time_call(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` with the reference ticking beside it.

        Returns ``(value, host_s, reference_s)``: the call's result, its
        own host seconds (reference units excluded) and the mean host
        seconds of a reference unit while it ran.
        """
        ticks: List[float] = []

        def tick(signum, frame):
            ticks.append(self._timed_unit())

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            start = perf_counter()
            value = fn(*args, **kwargs)
            wall_s = perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        reference_s = (statistics.fmean(ticks) if ticks
                       else self.reference_s())
        return value, wall_s - sum(ticks), reference_s


def normalise(host_s: float, reference_s: float) -> float:
    """Host seconds rescaled to the nominal host (see module docstring)."""
    return host_s / reference_s * REFERENCE_S
