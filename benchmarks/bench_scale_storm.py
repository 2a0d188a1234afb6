"""Scale-out drill: a 100-rack x 10-node rack-loss storm.

Not a paper figure — this is the simulator-kernel scale demonstration:
the full 1000-node rack-loss drill, run twice from the same seed.  The
second run must reproduce the first's fingerprint exactly, so the
drill checks that the kernel's ``(time, seq)`` event order stays a pure
function of the seed at 100 racks, not only that it finishes clean.
"""

import time

from repro.experiments.runner import format_table
from repro.recovery.storm import run_storm

from .conftest import emit, run_once

NUM_RACKS = 100
NODES_PER_RACK = 10
NUM_STRIPES = 64
SEED = 0


def _storm():
    start = time.perf_counter()
    report = run_storm(
        "rack_loss",
        seed=SEED,
        num_racks=NUM_RACKS,
        nodes_per_rack=NODES_PER_RACK,
        num_stripes=NUM_STRIPES,
    )
    return report, time.perf_counter() - start


def test_scale_storm(benchmark):
    runs = run_once(benchmark, lambda: [_storm(), _storm()])
    (report, wall), (rerun, __) = runs

    rows = [
        [f"run {index}", f"{wall:.2f}s", run.fingerprint[:16]]
        for index, (run, wall) in enumerate(runs, start=1)
    ]
    emit(
        f"Scale storm: rack loss at {NUM_RACKS} racks x {NODES_PER_RACK} "
        "nodes, run twice from one seed (fingerprints must match)",
        format_table(["run", "wall", "fingerprint"], rows),
    )

    assert report.fingerprint == rerun.fingerprint
    assert report.clean and rerun.clean
    assert report.stripes_encoded == NUM_STRIPES
    # Returned metrics land in the BENCH json ("wall_" = machine noise,
    # stripped from differential comparisons).
    return {
        "racks": float(NUM_RACKS),
        "nodes": float(NUM_RACKS * NODES_PER_RACK),
        "wall_storm_s": wall,
    }
