"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload archive_wave --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced passes, reports the
per-layer metrics from the traced ones (and the tracing overhead from
the pair), and writes every span to
``.perfbench_work/trace-<workload>.json`` (Chrome trace-event format;
Perfetto opens it).

The first pass is a warm-up: checked, but not timed.  Timed passes
repeat until ``--seconds`` have elapsed since the warm-up began (at
least three untraced timed passes, or two of each kind when tracing).
Every timed call runs with a fixed reference workload ticking beside it
(calibration.py) and its host seconds are normalised by the reference's,
so the end-to-end times do not follow the shared host's swings in speed;
each call's median over the passes is reported.  Per-layer host times are
medians over traced passes.  Lines before the last are a readable
report, with every pass's raw and normalised walls; the last line is
the JSON result.  README.md defines every metric.
"""

import os

# One process, no extra threads: pin numpy/BLAS pools before any import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_PROBES = 5

#: Gated end-to-end metrics (BENCHMARK.json), reported on every workload.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "stripes_per_s": "1/s",
}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import the program from the checkout's ``src`` and the benchmark's
    own modules; fails when the checkout holds no program."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         "is missing")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers
    import tracing
    import workloads

    return layers, tracing, workloads


def probe_setup(argv) -> int:
    """Child side of a set-up probe: with the reference ticking, import
    the program and synthesise the workload's inputs; print the
    normalised seconds that took."""
    clock = calibration.ReferenceClock()

    def set_up():
        __, __, workloads = load_program()
        args = parse_args(argv, workloads.WORKLOAD_NAMES)
        workloads.prepare(args.workload, args.seed, "full", str(WORKDIR))

    __, host_s, reference_s = clock.time_call(set_up)
    print(calibration.normalise(host_s, reference_s))
    return 0


def measure_setup(args) -> float:
    """Median normalised seconds from a fresh interpreter to ready-to-time.

    Each probe is a fresh interpreter that imports the program and
    synthesises this workload's inputs, as a run does before its first
    timed call, with the reference ticking beside it on its own core.
    """
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--probe-setup"]
    times = []
    for __ in range(SETUP_PROBES):
        probe = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=120)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit "
                               f"{probe.returncode}): {probe.stderr}")
        times.append(float(probe.stdout))
    return statistics.median(times)


def compare(reference, result, label) -> None:
    """Flag every call whose counts or outputs differ from the reference."""
    for ref, call in zip(reference.calls, result.calls):
        if call.ops != ref.ops:
            changed = sorted(k for k in set(ref.ops) | set(call.ops)
                             if ref.ops.get(k) != call.ops.get(k))
            call.failures.append(f"{call.name}: op counts differ from "
                                 f"pass 0 ({label}): {changed}")
        if call.outputs != ref.outputs:
            changed = sorted(k for k in ref.outputs
                             if ref.outputs[k] != call.outputs.get(k))
            call.failures.append(f"{call.name}: outputs differ from "
                                 f"pass 0 ({label}): {changed}")


def median_calls(results):
    """Each call's median normalised seconds over the given passes."""
    names = [call.name for call in results[0].calls]
    return {name: statistics.median(call.norm_s for result in results
                                    for call in result.calls
                                    if call.name == name)
            for name in names}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--probe-setup" in argv:
        return probe_setup(argv)
    layers, tracing, workloads = load_program()
    args = parse_args(argv, workloads.WORKLOAD_NAMES)
    run_pass = workloads.prepare(args.workload, args.seed, "full",
                                 str(WORKDIR))
    deadline = perf_counter() + args.seconds
    recorder = tracing.SpanRecorder() if args.trace else None
    warmup = None
    untraced, traced = [], []  # PassResult, or (PassResult, layer metrics)
    clock = None
    error = None
    index = 0
    while True:
        gc.collect()
        use_trace = bool(args.trace) and index % 2 == 0 and index > 0
        try:
            if index == 0:
                warmup = run_pass()
                # What running the workload once costs, before the
                # reference clock's own objects exist.
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
                clock = calibration.ReferenceClock()
                setup_s = measure_setup(args)
            elif use_trace:
                recorder.begin_pass(index)
                with layers.LayerTrace(recorder) as layer_trace:
                    result = run_pass(clock)
                traced.append((result, layer_trace.metrics(result.ops)))
            else:
                result = run_pass(clock)
                untraced.append(result)
        except Exception:  # noqa: BLE001 - reported as a failed op
            error = traceback.format_exc()
            print(error, file=sys.stderr)
            break
        if index:
            compare(warmup, result, "traced" if use_trace else "untraced")
        index += 1
        enough = (len(traced) >= 2 and len(untraced) >= 2 if args.trace
                  else len(untraced) >= 3)
        if enough and perf_counter() >= deadline:
            break
    if not untraced or (args.trace and not traced):
        return 1

    # Deterministic per-layer counts must also repeat across traced passes.
    for result, metrics in traced[1:]:
        drift = sorted(name for name, value in metrics.items()
                       if name not in layers.HOST_TIMED
                       and value != traced[0][1][name])
        if drift:
            result.calls[-1].failures.append(
                f"per-layer counts differ across traced passes: {drift}")

    passes = [warmup] + untraced + [result for result, __ in traced]
    calls = [call for result in passes for call in result.calls]
    attempted = len(calls) + (error is not None)
    failed = sum(1 for call in calls if call.failures) + (error is not None)

    medians = median_calls(untraced)
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "pass_s": sum(medians.values()),
        "stripes_per_s": warmup.stripes
        / sum(medians[name] for name in warmup.stripe_calls),
    }
    # Each workload's own metrics are raw host rates (best = highest) or
    # simulated values that are identical in every pass.
    own = {}
    for name, (__, unit) in warmup.metrics.items():
        own[name] = (max(r.metrics[name][0] for r in untraced), unit)

    print(f"workload {args.workload}  seed {args.seed}  passes 1 warm-up, "
          f"{len(untraced)} untraced, {len(traced)} traced")
    for result_index, result in enumerate(untraced):
        walls = ", ".join(f"{c.name} {c.host_s:.3f}s ({c.norm_s:.3f}s)"
                          for c in result.calls)
        print(f"  untraced pass {result_index}, host (normalised): {walls}")
    for name, value in end_to_end.items():
        print(f"  {name:<34} {value:>14.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'pass_s raw host, fastest':<34} "
          f"{min(r.host_s for r in untraced):>14.4f} s")
    for name, (value, unit) in own.items():
        print(f"  {name:<34} {value:>14.4f} {unit}")
    print(f"  {'failed_frac':<34} {failed / attempted:>14.4f} ratio "
          f"({failed} of {attempted} ops)")
    for call in calls:
        for reason in call.failures:
            print(f"  FAILED {reason}")

    if args.trace:
        layer_metrics = {}
        for name in traced[0][1]:
            values = [metrics[name] for __, metrics in traced]
            layer_metrics[name] = (statistics.median(values)
                                   if name in layers.HOST_TIMED
                                   else values[0])
        traced_medians = median_calls([result for result, __ in traced])
        layer_metrics["trace.overhead_frac"] = (
            sum(traced_medians.values()) / end_to_end["pass_s"] - 1.0)
        for name, value in layer_metrics.items():
            print(f"  {name:<34} {value:>14.6g} {layers.METRIC_UNITS[name]}")
        if args.workload == "repair_storm":
            print("  note: sim.run_self_s includes RepairQueue dispatch, "
                  "which has no public entry point to wrap")
        trace_path = WORKDIR / f"trace-{args.workload}.json"
        recorder.write_chrome_trace(str(trace_path))
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
        metrics = {
            name: {"value": value, "unit": layers.METRIC_UNITS[name]}
            for name, value in layer_metrics.items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
