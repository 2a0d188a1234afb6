"""In-memory span recorder for the benchmark's traced run.

Spans are recorded around calls into the program's public entry points
(see :mod:`layers`), never inside the program.  Each span keeps its name,
host start and end, the index of the span that was open when it began
(its parent) and the pass it belongs to.  The program is single-threaded,
so spans nest strictly and a span's self time is its duration minus the
durations of its direct children; both are folded in as spans close, so
deriving per-layer self time needs no second walk over the spans.

Generator entry points (simulation processes such as ``encode_stripe``)
run in many host-time slices.  Each resume becomes one span, and the
wrapper also reports the simulated start and end of the whole call.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """Spans in compact arrays plus per-name aggregates.

    ``names[i]``, ``starts[i]``, ``ends[i]``, ``parents[i]`` and
    ``passes[i]`` describe span ``i``; ``parents[i]`` is -1 for a root.
    """

    def __init__(self) -> None:
        self.name_ids: Dict[str, int] = {}
        self.name_list: List[str] = []
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.passes = array("H")
        self.pass_id = 0
        # Open spans: [span index, host seconds covered by children].
        self._stack: List[list] = []
        self.self_s: List[float] = []
        self.count: List[int] = []
        # Per-pass aggregates, reset by begin_pass().
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}

    def name_id(self, name: str) -> int:
        """The id of a span name, registering it on first use."""
        nid = self.name_ids.get(name)
        if nid is None:
            nid = len(self.name_list)
            self.name_ids[name] = nid
            self.name_list.append(name)
            self.self_s.append(0.0)
            self.count.append(0)
        return nid

    def begin_pass(self, pass_id: int) -> None:
        """Start a new pass: spans keep accumulating, aggregates reset."""
        if self._stack:
            raise RuntimeError("a span is still open between passes")
        self.pass_id = pass_id
        for i in range(len(self.name_list)):
            self.self_s[i] = 0.0
            self.count[i] = 0
        self.counters = {}
        self.samples = {}

    def bump(self, key: str, amount: float = 1) -> None:
        """Add to a per-pass counter (counts recorded at a boundary)."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        """Keep one observation for a per-pass percentile."""
        bucket = self.samples.get(key)
        if bucket is None:
            bucket = self.samples[key] = []
        bucket.append(value)

    def open(self, nid: int) -> list:
        """Open a span; returns the frame to hand back to :meth:`close`."""
        stack = self._stack
        index = len(self.starts)
        self.names.append(nid)
        self.parents.append(stack[-1][0] if stack else -1)
        self.passes.append(self.pass_id)
        self.ends.append(0.0)
        frame = [index, 0.0, nid]
        stack.append(frame)
        self.starts.append(perf_counter())
        return frame

    def close(self, frame: list) -> float:
        """Close the innermost span; returns its duration."""
        end = perf_counter()
        stack = self._stack
        stack.pop()
        index, children, nid = frame
        duration = end - self.starts[index]
        self.ends[index] = end
        self.self_s[nid] += duration - children
        self.count[nid] += 1
        if stack:
            stack[-1][1] += duration
        return duration

    def stat(self, name: str) -> tuple:
        """``(count, self seconds)`` of a span name in this pass."""
        nid = self.name_ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.count[nid], self.self_s[nid]

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as Chrome trace-event JSON (Perfetto opens it).

        Each pass is its own track (``tid``); nesting follows from the
        timestamps, and ``args.parent`` names the enclosing span's index.
        """
        origin = self.starts[0] if len(self.starts) else 0.0
        names = self.name_list
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            for i in range(len(self.starts)):
                name = names[self.names[i]]
                event = {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((self.starts[i] - origin) * 1e6, 3),
                    "dur": round((self.ends[i] - self.starts[i]) * 1e6, 3),
                    "pid": 1,
                    "tid": self.passes[i],
                    "args": {"id": i, "parent": self.parents[i]},
                }
                if i:
                    out.write(",\n")
                out.write(json.dumps(event, separators=(",", ":")))
            out.write("\n]}\n")


def nearest_rank(ordered: List[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of sorted values; 0 for none."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * p // 100))
    return float(ordered[int(rank) - 1])


def traced_call(rec: SpanRecorder, name: str, fn: Callable,
                after: Optional[Callable] = None) -> Callable:
    """Wrap a plain function so each call is one span.

    ``after(args, result)`` runs after the span closes, to take counts
    at the same boundary.
    """
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(frame)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def counted_call(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    """Wrap a function too hot to time: count its calls only."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters = rec.counters
        counters[name] = counters.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def traced_generator(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    """Wrap a simulation generator: one span per resume.

    Counts ``<name>.calls``, sums ``<name>.busy_s`` (host seconds over
    every resume, children included) and samples ``<name>.sim_s``, the
    simulated time from the first resume to completion.  Sends, throws
    and close are forwarded, so the wrapped generator behaves exactly like
    the original under ``yield from``.
    """
    nid = rec.name_id(name)
    calls_key = name + ".calls"
    busy_key = name + ".busy_s"
    sim_key = name + ".sim_s"

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        return _resumes(rec, nid, calls_key, busy_key, sim_key, self.sim,
                        fn(self, *args, **kwargs))

    return wrapper


def _resumes(rec, nid, calls_key, busy_key, sim_key, sim, inner):
    rec.bump(calls_key)
    sim_start = sim.now
    value = None
    thrown: Optional[BaseException] = None
    while True:
        frame = rec.open(nid)
        try:
            if thrown is not None:
                error, thrown = thrown, None
                yielded = inner.throw(error)
            else:
                yielded = inner.send(value)
        except StopIteration as stop:
            rec.bump(busy_key, rec.close(frame))
            rec.sample(sim_key, sim.now - sim_start)
            return stop.value
        except BaseException:
            rec.bump(busy_key, rec.close(frame))
            raise
        rec.bump(busy_key, rec.close(frame))
        try:
            value = yield yielded
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as error:  # forwarded into the inner generator
            thrown = error
            value = None
