"""Which public entry points of which layer the traced run wraps, and the
per-layer metrics derived from the spans and the program's op counters.

The layers are the repository's packages.  ``parallel`` is left out on
purpose: the benchmark runs in one process, and the ``bench`` package's
``micro.parallel_sweep_speedup`` scenario tracks it.  ``lint``,
``analysis`` and ``experiments`` are glue, not serving-path layers.

Every wrapper is installed on the class or module that defines the entry
point, so calls made from anywhere in the program go through it, and it is
removed again when the traced pass ends.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from tracing import (
    SpanRecorder,
    counted_call,
    nearest_rank,
    traced_call,
    traced_generator,
)

#: Per-layer metric name -> unit, in report order.  Every traced run
#: reports all of them; a layer a workload does not exercise reads 0.
METRIC_UNITS: Dict[str, str] = {
    "core.place_calls": "count",
    "core.place_self_s": "s",
    "core.place_us_p50": "us",
    "core.place_us_p99": "us",
    "core.redraw_attempts": "count",
    "core.accept_ratio": "ratio",
    "core.maxflow_calls": "count",
    "core.maxflow_self_s": "s",
    "core.bfs_builds": "count",
    "core.augmentations": "count",
    "sim.events": "count",
    "sim.run_self_s": "s",
    "sim.us_per_event": "us",
    "sim.link_acquires": "count",
    "sim.link_grant_self_s": "s",
    "sim.link_wait_s": "sim_s",
    "sim.transfers": "count",
    "sim.cross_rack_bytes": "bytes",
    "cluster.replica_lookups": "count",
    "hdfs.allocate_calls": "count",
    "hdfs.encode_busy_s": "s",
    "hdfs.encode_sim_s_p50": "sim_s",
    "hdfs.encode_sim_s_p99": "sim_s",
    "hdfs.write_sim_s_p50": "sim_s",
    "hdfs.write_sim_s_p99": "sim_s",
    "hdfs.recover_calls": "count",
    "hdfs.recover_busy_s": "s",
    "faults.enqueued": "count",
    "faults.queue_depth_max": "count",
    "faults.scan_self_s": "s",
    "faults.decoded": "count",
    "faults.rereplicated": "count",
    "faults.unrecoverable": "count",
    "recovery.degraded_reads": "count",
    "recovery.read_sim_s_p50": "sim_s",
    "journal.records": "count",
    "journal.bytes": "bytes",
    "journal.bytes_per_record": "bytes",
    "journal.append_self_s": "s",
    "journal.flush_calls": "count",
    "erasure.symbol_mults": "count",
    "erasure.kernel_calls": "count",
    "erasure.kernel_self_s": "s",
    "erasure.kernel_mb_s": "MB/s",
    "erasure.encode_self_s": "s",
    "erasure.decode_self_s": "s",
    "erasure.repair_self_s": "s",
    "erasure.verify_self_s": "s",
    "erasure.decode_matrix_hit_ratio": "ratio",
    "pipeline.stripes": "count",
    "pipeline.hops": "count",
    "pipeline.encode_busy_s": "s",
    "pipeline.encode_sim_s_p50": "sim_s",
    "pipeline.encode_sim_s_p99": "sim_s",
    "pipeline.fallbacks": "count",
    "pipeline.replans": "count",
    "trace.overhead_frac": "ratio",
}

#: Per-layer metrics that are host times; the rest are counts or
#: simulated quantities and must repeat exactly across passes of a seed.
HOST_TIMED = frozenset(
    name for name, unit in METRIC_UNITS.items()
    if unit in ("s", "us", "MB/s")
) | {"trace.overhead_frac"}

#: (span name, module, class or None for a module function, attribute,
#: wrapper kind).  Kinds: "call" (one span per call), "gen" (simulation
#: generator, one span per resume), "count" (too hot to time: calls only),
#: and "transfer", "enqueue", "acquire" and "kernel", which are "call" or
#: "gen" plus a count or sample taken at the same boundary.
ENTRY_POINTS: List[Tuple[str, str, str, str, str]] = [
    ("core.place.rr", "repro.core.random_replication", "RandomReplication",
     "place_block", "call"),
    ("core.place.ear", "repro.core.ear", "EncodingAwareReplication",
     "place_block", "call"),
    ("core.place.preliminary", "repro.core.preliminary", "PreliminaryEAR",
     "place_block", "call"),
    ("core.max_flow", "repro.core.maxflow", "Dinic", "max_flow", "call"),
    ("sim.run", "repro.sim.engine", "Simulator", "run", "call"),
    ("sim.acquire", "repro.sim.resources", "MultiResource", "acquire",
     "acquire"),
    ("sim.release", "repro.sim.resources", "MultiResource", "release",
     "call"),
    ("sim.cancel", "repro.sim.resources", "MultiResource", "cancel", "call"),
    ("sim.transfer", "repro.sim.netsim", "Network", "transfer", "transfer"),
    ("cluster.replica_nodes", "repro.cluster.block", "BlockStore",
     "replica_nodes", "count"),
    ("hdfs.allocate_block", "repro.hdfs.namenode", "NameNode",
     "allocate_block", "call"),
    ("hdfs.encode_stripe", "repro.hdfs.encoder", "StripeEncoder",
     "encode_stripe", "gen"),
    ("hdfs.write_block", "repro.hdfs.client", "CFSClient", "write_block",
     "gen"),
    ("hdfs.recover_block", "repro.hdfs.raidnode", "RaidNode",
     "recover_block", "gen"),
    ("faults.enqueue", "repro.faults.repair", "RepairQueue", "enqueue",
     "enqueue"),
    ("faults.scan_once", "repro.faults.scrubber", "Scrubber", "scan_once",
     "call"),
    ("recovery.read_block", "repro.recovery.degraded", "DegradedReadPath",
     "read_block", "gen"),
    ("journal.append", "repro.journal.journal", "MetadataJournal", "append",
     "call"),
    ("journal.flush", "repro.journal.journal", "MetadataJournal", "flush",
     "call"),
    ("erasure.kernel", "repro.erasure.matrix", None, "accumulate_products",
     "kernel"),
    ("erasure.stream_encode", "repro.erasure.stream", None, "stream_encode",
     "call"),
    ("erasure.stream_decode", "repro.erasure.stream", None, "stream_decode",
     "call"),
    ("erasure.stream_repair", "repro.erasure.stream", None, "stream_repair",
     "call"),
    ("erasure.verify_stripe", "repro.erasure.stream", "StreamingDataPlane",
     "verify_stripe", "call"),
    ("pipeline.encode_stripe", "repro.pipeline.encoder", "PipelinedEncoder",
     "encode_stripe", "gen"),
]


class LayerTrace:
    """Installs the span wrappers for one traced pass and removes them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self._saved: List[Tuple[object, str, object]] = []
        # Objects seen at a boundary whose end-of-pass state is read.
        self.networks: Dict[int, object] = {}
        self.repair_queues: Dict[int, object] = {}

    def __enter__(self) -> "LayerTrace":
        for name, module, cls, attr, kind in ENTRY_POINTS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, kind, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, kind: str, fn):
        rec = self.rec
        if kind == "call":
            return traced_call(rec, name, fn)
        if kind == "gen":
            return traced_generator(rec, name, fn)
        if kind == "count":
            return counted_call(rec, name, fn)
        if kind == "transfer":
            networks = self.networks
            gen = traced_generator(rec, name, fn)

            def transfer(net, *args, **kwargs):
                networks[id(net)] = net
                return gen(net, *args, **kwargs)

            return transfer
        if kind == "enqueue":
            queues = self.repair_queues

            def after(args, result):
                queue = args[0]
                queues[id(queue)] = queue
                depth = queue.pending_count
                if depth > rec.counters.get("faults.queue_depth_max", 0):
                    rec.counters["faults.queue_depth_max"] = depth

            return traced_call(rec, name, fn, after)
        if kind == "acquire":
            def after(args, request):
                if request.triggered:
                    return
                sim = args[0].sim
                asked = sim.now
                request.callbacks.append(
                    lambda event: rec.bump("sim.link_wait_s",
                                           sim.now - asked)
                )

            return traced_call(rec, name, fn, after)
        if kind == "kernel":
            def after(args, result):
                coeffs, chunk = args[1], args[2]
                rec.bump("erasure.kernel_bytes", len(coeffs) * len(chunk))

            return traced_call(rec, name, fn, after)
        raise ValueError(f"unknown wrapper kind {kind!r}")

    def metrics(self, ops: Dict[str, int]) -> Dict[str, float]:
        """Per-layer metrics of the pass just traced.

        ``ops`` is the pass's ``measure_ops()`` delta; everything else
        comes from the spans and boundary counts.  ``trace.overhead_frac``
        is filled in by the caller, which also holds the untraced walls.
        """
        rec = self.rec
        counters = rec.counters
        out: Dict[str, float] = {}

        place = [rec.stat(f"core.place.{p}") for p in
                 ("rr", "ear", "preliminary")]
        out["core.place_calls"] = sum(s[0] for s in place)
        out["core.place_self_s"] = sum(s[1] for s in place)
        place_us = _durations_us(rec, [f"core.place.{p}" for p in
                                       ("rr", "ear", "preliminary")])
        out["core.place_us_p50"] = _percentile_of(place_us, 50)
        out["core.place_us_p99"] = _percentile_of(place_us, 99)
        redraws = ops.get("ear.redraw_attempts", 0)
        out["core.redraw_attempts"] = redraws
        placed_by_redraw = place[1][0] + place[2][0]
        out["core.accept_ratio"] = placed_by_redraw / redraws if redraws else 0
        calls, self_s = rec.stat("core.max_flow")
        out["core.maxflow_calls"] = calls
        out["core.maxflow_self_s"] = self_s
        out["core.bfs_builds"] = ops.get("maxflow.bfs_builds", 0)
        out["core.augmentations"] = ops.get("maxflow.augmentations", 0)

        events = ops.get("sim.events", 0)
        out["sim.events"] = events
        run_self = rec.stat("sim.run")[1]
        out["sim.run_self_s"] = run_self
        out["sim.us_per_event"] = run_self / events * 1e6 if events else 0
        out["sim.link_acquires"] = rec.stat("sim.acquire")[0]
        out["sim.link_grant_self_s"] = sum(
            rec.stat(n)[1] for n in ("sim.acquire", "sim.release",
                                     "sim.cancel")
        )
        out["sim.link_wait_s"] = counters.get("sim.link_wait_s", 0.0)
        out["sim.transfers"] = counters.get("sim.transfer.calls", 0)
        out["sim.cross_rack_bytes"] = sum(
            net.stats.bytes_cross_rack for net in self.networks.values()
        )

        out["cluster.replica_lookups"] = counters.get(
            "cluster.replica_nodes", 0)

        out["hdfs.allocate_calls"] = rec.stat("hdfs.allocate_block")[0]
        out["hdfs.encode_busy_s"] = counters.get(
            "hdfs.encode_stripe.busy_s", 0.0)
        encode_sim = rec.samples.get("hdfs.encode_stripe.sim_s", [])
        out["hdfs.encode_sim_s_p50"] = _percentile_of(encode_sim, 50)
        out["hdfs.encode_sim_s_p99"] = _percentile_of(encode_sim, 99)
        write_sim = rec.samples.get("hdfs.write_block.sim_s", [])
        out["hdfs.write_sim_s_p50"] = _percentile_of(write_sim, 50)
        out["hdfs.write_sim_s_p99"] = _percentile_of(write_sim, 99)
        out["hdfs.recover_calls"] = counters.get(
            "hdfs.recover_block.calls", 0)
        out["hdfs.recover_busy_s"] = counters.get(
            "hdfs.recover_block.busy_s", 0.0)

        out["faults.enqueued"] = rec.stat("faults.enqueue")[0]
        out["faults.queue_depth_max"] = counters.get(
            "faults.queue_depth_max", 0)
        out["faults.scan_self_s"] = rec.stat("faults.scan_once")[1]
        for outcome in ("decoded", "rereplicated", "unrecoverable"):
            out[f"faults.{outcome}"] = sum(
                queue.outcomes.get(outcome, 0)
                for queue in self.repair_queues.values()
            )

        out["recovery.degraded_reads"] = counters.get(
            "recovery.read_block.calls", 0)
        out["recovery.read_sim_s_p50"] = _percentile_of(
            rec.samples.get("recovery.read_block.sim_s", []), 50)

        records = ops.get("journal.records_appended", 0)
        journal_bytes = ops.get("journal.bytes_appended", 0)
        out["journal.records"] = records
        out["journal.bytes"] = journal_bytes
        out["journal.bytes_per_record"] = (
            journal_bytes / records if records else 0)
        out["journal.append_self_s"] = rec.stat("journal.append")[1]
        out["journal.flush_calls"] = rec.stat("journal.flush")[0]

        out["erasure.symbol_mults"] = ops.get("gf.symbol_mults", 0)
        out["erasure.kernel_calls"] = ops.get("gf.kernel_calls", 0)
        kernel_s = rec.stat("erasure.kernel")[1]
        out["erasure.kernel_self_s"] = kernel_s
        out["erasure.kernel_mb_s"] = (
            counters.get("erasure.kernel_bytes", 0) / kernel_s / 1e6
            if kernel_s else 0)
        out["erasure.encode_self_s"] = rec.stat("erasure.stream_encode")[1]
        out["erasure.decode_self_s"] = rec.stat("erasure.stream_decode")[1]
        out["erasure.repair_self_s"] = rec.stat("erasure.stream_repair")[1]
        out["erasure.verify_self_s"] = rec.stat("erasure.verify_stripe")[1]
        hits = ops.get("codec.decode_matrix_hits", 0)
        misses = ops.get("codec.decode_matrix_misses", 0)
        out["erasure.decode_matrix_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0)

        out["pipeline.stripes"] = ops.get("pipeline.stripes", 0)
        out["pipeline.hops"] = ops.get("pipeline.hops", 0)
        out["pipeline.encode_busy_s"] = counters.get(
            "pipeline.encode_stripe.busy_s", 0.0)
        pipe_sim = rec.samples.get("pipeline.encode_stripe.sim_s", [])
        out["pipeline.encode_sim_s_p50"] = _percentile_of(pipe_sim, 50)
        out["pipeline.encode_sim_s_p99"] = _percentile_of(pipe_sim, 99)
        out["pipeline.fallbacks"] = ops.get("pipeline.fallbacks", 0)
        out["pipeline.replans"] = ops.get("pipeline.replans", 0)

        return out


def _durations_us(rec: SpanRecorder, names: List[str]) -> List[float]:
    wanted = {rec.name_ids[n] for n in names if n in rec.name_ids}
    pass_id = rec.pass_id
    return [
        (rec.ends[i] - rec.starts[i]) * 1e6
        for i in range(len(rec.starts))
        if rec.names[i] in wanted and rec.passes[i] == pass_id
    ]


def _percentile_of(values: List[float], p: float) -> float:
    return nearest_rank(sorted(values), p)
