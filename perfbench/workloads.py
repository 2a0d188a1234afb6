"""The benchmark's three workloads.

Each workload is prepared once (every input synthesised from the seed,
outside any timed region) and then run as repeated passes.  A pass makes
the workload's public calls in a fixed order, times each call, checks
its outputs and returns everything the runner needs: host seconds per
call (and, given a :class:`calibration.ReferenceClock`, the call's time
normalised to the nominal host), the ``measure_ops()`` delta per call,
the deterministic outputs that must repeat exactly across passes of one
seed, and the workload's own end-to-end metrics.

All three are closed-loop batch runs in host time: each call starts when
the previous one returns.  See README.md for why each was chosen.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.erasure import stream
from repro.erasure.codec import make_codec
from repro.experiments.config import LargeScaleConfig, PolicyName
from repro.experiments.largescale import run_largescale
from repro.journal.journal import MetadataJournal
from repro.pipeline.headtohead import pipeline_trial
from repro.recovery.metrics import RecoveryMetrics
from repro.recovery.storm import run_storm
from repro.sim.metrics import measure_ops
from calibration import normalise
from tracing import nearest_rank


MB = 1e6


@dataclass
class CallResult:
    """One public call of a pass."""

    name: str
    host_s: float
    ops: Dict[str, int]
    #: Deterministic outputs: must repeat exactly for a given seed.
    outputs: Dict[str, object]
    #: Failed output checks, as readable reasons (empty when correct).
    failures: List[str] = field(default_factory=list)
    #: Host seconds normalised to the nominal host (None untimed).
    norm_s: Optional[float] = None


@dataclass
class PassResult:
    """One pass of a workload."""

    calls: List[CallResult]
    #: Workload-specific end-to-end metrics: name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]]
    #: Stripes encoded, and the names of the calls that encoded them,
    #: for the shared ``stripes_per_s`` metric.
    stripes: int
    stripe_calls: Tuple[str, ...]

    @property
    def host_s(self) -> float:
        """Host seconds of every timed call in the pass."""
        return sum(call.host_s for call in self.calls)

    @property
    def ops(self) -> Dict[str, int]:
        """The pass's ``measure_ops()`` delta, summed over its calls."""
        total: Dict[str, int] = {}
        for call in self.calls:
            for key, value in call.ops.items():
                total[key] = total.get(key, 0) + value
        return total


def _timed(clock, name: str, fn: Callable, *args, **kwargs):
    """Make one public call; with a ``clock``, with the reference ticking."""
    norm_s = None
    with measure_ops() as measured:
        if clock is None:
            start = perf_counter()
            value = fn(*args, **kwargs)
            host_s = perf_counter() - start
        else:
            value, host_s, reference_s = clock.time_call(fn, *args,
                                                         **kwargs)
            norm_s = normalise(host_s, reference_s)
    return value, CallResult(name, host_s, dict(measured.ops), {},
                             norm_s=norm_s)


# ----------------------------------------------------------------------
# archive_wave: the paper's Figure 13 default, RR then EAR
# ----------------------------------------------------------------------
def _archive_config(scale: str) -> LargeScaleConfig:
    config = LargeScaleConfig()
    if scale == "smoke":
        config = replace(config, num_racks=16, nodes_per_rack=3,
                         num_encoding_processes=4, stripes_per_process=5)
    return config


def prepare_archive_wave(seed: int, scale: str, workdir: str):
    config = _archive_config(scale)

    def run_pass(clock=None) -> PassResult:
        results = {}
        calls = []
        for policy in (PolicyName.RR, PolicyName.EAR):
            result, call = _timed(clock, f"run_largescale[{policy}]",
                                  run_largescale, policy, config, seed)
            call.outputs = {"result": repr(result)}
            if result.stripes_encoded != config.total_stripes:
                call.failures.append(
                    f"{policy}: {result.stripes_encoded} of "
                    f"{config.total_stripes} stripes encoded")
            if policy == PolicyName.EAR and result.cross_rack_downloads:
                call.failures.append(
                    f"ear: {result.cross_rack_downloads} cross-rack "
                    "downloads (core-rack encoding must need none)")
            results[policy] = result
            calls.append(call)
        rr, ear = results[PolicyName.RR], results[PolicyName.EAR]
        metrics = {
            "sim_encode_gain": (
                ear.encode_throughput_mb_s / rr.encode_throughput_mb_s,
                "ratio"),
        }
        if rr.write_throughput_mb_s and ear.write_throughput_mb_s:
            metrics["sim_write_gain"] = (
                ear.write_throughput_mb_s / rr.write_throughput_mb_s,
                "ratio")
        else:
            calls[-1].failures.append("no writes inside the encode window")
        stripes = rr.stripes_encoded + ear.stripes_encoded
        return PassResult(calls, metrics, stripes,
                          tuple(c.name for c in calls))

    return run_pass


# ----------------------------------------------------------------------
# repair_storm: rack loss, then a scrub storm, with a journal attached
# ----------------------------------------------------------------------
STORM_SCENARIOS = ("rack_loss", "scrub_storm")


def _storm_shape(scale: str) -> Dict[str, int]:
    if scale == "smoke":
        return {"num_racks": 8, "nodes_per_rack": 4, "num_stripes": 12}
    return {"num_racks": 20, "nodes_per_rack": 10, "num_stripes": 800}


def prepare_repair_storm(seed: int, scale: str, workdir: str):
    shape = _storm_shape(scale)

    def run_pass(clock=None) -> PassResult:
        calls = []
        repairs = 0
        stripes = 0
        repair_times: List[float] = []
        record_repair = RecoveryMetrics.record_repair

        # Keep every simulated repair duration, so the p95 covers both
        # storms' repairs together; the tap only appends.
        def tap(metrics, start_time, duration):
            repair_times.append(duration)
            record_repair(metrics, start_time, duration)

        for scenario in STORM_SCENARIOS:
            # Journal policy: flush after every append, no fsync, so the
            # journal's write path runs in full while the figures do not
            # depend on the disk's sync latency.
            directory = tempfile.mkdtemp(prefix=f"{scenario}-", dir=workdir)
            journal = MetadataJournal(directory, flush_each=True, fsync=False)
            RecoveryMetrics.record_repair = tap
            try:
                report, call = _timed(
                    clock, f"run_storm[{scenario}]", run_storm, scenario,
                    seed=seed, policy=PolicyName.EAR, journal=journal,
                    **shape)
            finally:
                RecoveryMetrics.record_repair = record_repair
                journal.close()
                shutil.rmtree(directory)
            call.outputs = {"fingerprint": report.fingerprint,
                            "summary": repr(report.summary())}
            if not report.clean:
                call.failures.append(f"{scenario}: report not clean: "
                                     f"{report.summary()}")
            repairs += (report.repair_outcomes.get("decoded", 0)
                        + report.repair_outcomes.get("rereplicated", 0))
            stripes += report.stripes_encoded
            calls.append(call)
        host_s = sum(c.host_s for c in calls)
        repair_times.sort()
        metrics = {
            "repairs_per_s": (repairs / host_s, "1/s"),
            "sim_repair_s_p95": (nearest_rank(repair_times, 95), "sim_s"),
        }
        calls[-1].outputs["repair_times"] = repr(repair_times)
        return PassResult(calls, metrics, stripes,
                          tuple(c.name for c in calls))

    return run_pass


# ----------------------------------------------------------------------
# byte_plane: real GF bytes, then an undisturbed pipelined wave
# ----------------------------------------------------------------------
def _byte_shape(scale: str) -> Dict[str, int]:
    if scale == "smoke":
        return {"payload": 1 << 20, "num_racks": 8, "nodes_per_rack": 4,
                "num_stripes": 4}
    return {"payload": 32 << 20, "num_racks": 20, "nodes_per_rack": 10,
            "num_stripes": 100}


BYTE_N, BYTE_K = 14, 10
ERASED_SHARDS = 4
PIPELINE_BLOCK = 1 << 20


def prepare_byte_plane(seed: int, scale: str, workdir: str):
    shape = _byte_shape(scale)
    rng = random.Random(seed)
    payload = rng.randbytes(shape["payload"])
    erased = frozenset(rng.sample(range(BYTE_N), ERASED_SHARDS))
    repair_target = rng.randrange(BYTE_N)
    # The first codec of a geometry fills a process-wide generator cache
    # (one extra kernel call); users pay that once per process, so it
    # belongs to set-up, and every pass then does identical work.
    make_codec(BYTE_N, BYTE_K)

    def run_pass(clock=None) -> PassResult:
        calls = []
        encoded, call = _timed(clock, "stream_encode", stream.stream_encode,
                               payload, n=BYTE_N, k=BYTE_K)
        digest = hashlib.sha256()
        for shard in encoded.shards[BYTE_K:]:
            for chunk in shard:
                digest.update(chunk)
        call.outputs = {"meta": repr(encoded.meta),
                        "parity_sha256": digest.hexdigest()}
        calls.append(call)

        survivors = {i: encoded.shards[i] for i in range(BYTE_N)
                     if i not in erased}
        decoded, call = _timed(clock, "stream_decode", stream.stream_decode,
                               survivors, encoded.meta)
        if decoded != payload:
            call.failures.append(
                f"decode with shards {sorted(erased)} erased does not "
                "return the payload")
        calls.append(call)
        del decoded

        others = {i: encoded.shards[i] for i in range(BYTE_N)
                  if i != repair_target}
        rebuilt, call = _timed(clock, "stream_repair", stream.stream_repair,
                               repair_target, others, encoded.meta)
        if rebuilt != encoded.shards[repair_target]:
            call.failures.append(
                f"repaired shard {repair_target} differs from the original")
        shard_bytes = sum(len(chunk) for chunk in rebuilt)
        calls.append(call)
        del encoded, survivors, others, rebuilt

        trial, call = _timed(
            clock, "pipeline_trial", pipeline_trial, seed=seed,
            contender="pipeline", code_n=BYTE_N, code_k=BYTE_K,
            num_racks=shape["num_racks"],
            nodes_per_rack=shape["nodes_per_rack"],
            num_stripes=shape["num_stripes"], block_size=PIPELINE_BLOCK,
            disturb=False)
        call.outputs = {"trial": repr(sorted(trial.items()))}
        if not trial["clean"]:
            call.failures.append(f"pipelined wave not clean: {trial}")
        if trial["parity_verified"] != trial["stripes_total"]:
            call.failures.append(
                f"{trial['parity_verified']} of {trial['stripes_total']} "
                "pipelined stripes verified")
        calls.append(call)

        encode, decode, repair, pipe = calls
        metrics = {
            "encode_mb_s": (len(payload) / MB / encode.host_s, "MB/s"),
            "decode_mb_s": (len(payload) / MB / decode.host_s, "MB/s"),
            "repair_mb_s": (shard_bytes / MB / repair.host_s, "MB/s"),
            "sim_pipeline_mb_s": (float(trial["encode_mb_per_s"]), "MB/s"),
        }
        return PassResult(calls, metrics, trial["stripes_encoded"],
                          (pipe.name,))

    return run_pass


PREPARERS = {
    "archive_wave": prepare_archive_wave,
    "repair_storm": prepare_repair_storm,
    "byte_plane": prepare_byte_plane,
}
WORKLOAD_NAMES = tuple(PREPARERS)


def prepare(name: str, seed: int, scale: str, workdir: str):
    """Synthesise a workload's inputs; returns its pass function.

    ``scale`` is ``"full"`` (the benchmark) or ``"smoke"`` (the tests).
    The pass function takes an optional reference clock that brackets
    every timed call.
    """
    os.makedirs(workdir, exist_ok=True)
    return PREPARERS[name](seed, scale, workdir)
