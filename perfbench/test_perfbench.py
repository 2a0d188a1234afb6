"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench -q

They run every workload at smoke size, untraced and traced, and check
that counts and simulated outputs repeat exactly, that the layers stay
separated as README.md predicts, and that every metric is well named.
"""

import json
import re
import signal
import time
from pathlib import Path

import pytest

import calibration
import run

layers, tracing, workloads = run.load_program()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads(
    (Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def _traced_pass(run_pass, recorder, pass_id):
    recorder.begin_pass(pass_id)
    with layers.LayerTrace(recorder) as trace:
        result = run_pass()
    return result, trace.metrics(result.ops)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two untraced and two traced smoke passes of every workload."""
    out = {}
    for name in workloads.WORKLOAD_NAMES:
        run_pass = workloads.prepare(
            name, 3, "smoke", str(tmp_path_factory.mktemp(name)))
        recorder = tracing.SpanRecorder()
        untraced = [run_pass(), run_pass()]
        traced = [_traced_pass(run_pass, recorder, 2),
                  _traced_pass(run_pass, recorder, 3)]
        out[name] = (untraced, traced, recorder)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_smoke_pass_is_correct(smoke, name):
    untraced, traced, __ = smoke[name]
    for result in untraced + [r for r, __ in traced]:
        assert [c.failures for c in result.calls] == [[]] * len(result.calls)
        assert result.stripes > 0 and result.stripe_calls
        for value, unit in result.metrics.values():
            assert value > 0 and UNIT.match(unit)


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_counts_repeat_exactly_across_passes_and_tracing(smoke, name):
    untraced, traced, __ = smoke[name]
    reference = untraced[0]
    for result in untraced[1:] + [r for r, __ in traced]:
        run.compare(reference, result, "test")
        assert [c.failures for c in result.calls] == [[]] * len(result.calls)
    (__, first), (__, second) = traced
    counts = {k: v for k, v in first.items() if k not in layers.HOST_TIMED}
    assert counts == {k: second[k] for k in counts}


@pytest.fixture(scope="module")
def clock():
    return calibration.ReferenceClock()


def test_reference_clock_ticks_and_restores_the_alarm(clock):
    handler = signal.getsignal(signal.SIGALRM)
    value, host_s, reference_s = clock.time_call(
        lambda: time.sleep(0.1) or "done")
    assert value == "done"
    assert 0.09 < host_s < 0.2 and 0 < reference_s < 0.05
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert calibration.normalise(2 * host_s, 2 * reference_s) == (
        pytest.approx(calibration.normalise(host_s, reference_s)))


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_clocked_pass_matches_an_unclocked_one(smoke, clock, tmp_path, name):
    reference = smoke[name][0][0]
    run_pass = workloads.prepare(name, 3, "smoke", str(tmp_path))
    result = run_pass(clock)
    run.compare(reference, result, "clocked")
    assert [c.failures for c in result.calls] == [[]] * len(result.calls)
    assert all(c.norm_s > 0 for c in result.calls)
    assert all(c.norm_s is None for c in reference.calls)


def test_compare_flags_drift(smoke):
    untraced, __, __ = smoke["archive_wave"]
    reference, result = untraced
    drifted = workloads.PassResult(
        [workloads.CallResult(c.name, c.host_s, dict(c.ops, **{"x.y": 1}),
                              dict(c.outputs)) for c in result.calls],
        result.metrics, result.stripes, result.stripe_calls)
    run.compare(reference, drifted, "test")
    assert all("op counts differ" in c.failures[0] for c in drifted.calls)


def test_layers_stay_separated(smoke):
    layer = {name: smoke[name][1][0][1] for name in smoke}
    for name in ("archive_wave", "repair_storm"):
        assert layer[name]["erasure.symbol_mults"] == 0
    assert layer["archive_wave"]["faults.enqueued"] == 0
    assert layer["repair_storm"]["journal.records"] > 0
    assert layer["repair_storm"]["faults.decoded"] > 0
    for name in ("archive_wave", "byte_plane"):
        assert layer[name]["journal.records"] == 0
    assert layer["byte_plane"]["pipeline.stripes"] > 0
    assert layer["byte_plane"]["erasure.symbol_mults"] > 0
    for name in ("archive_wave", "repair_storm"):
        assert layer[name]["pipeline.stripes"] == 0
    for metrics in layer.values():
        assert metrics["core.place_calls"] > 0 and metrics["sim.events"] > 0


def test_tracing_unwraps_and_nests(smoke):
    from repro.sim.engine import Simulator

    assert Simulator.run.__name__ == "run"
    assert not hasattr(Simulator.run, "__wrapped__")
    __, __, recorder = smoke["repair_storm"]
    for i in range(len(recorder.starts)):
        parent = recorder.parents[i]
        assert recorder.ends[i] >= recorder.starts[i]
        if parent >= 0:
            assert recorder.starts[parent] <= recorder.starts[i]
            assert recorder.ends[i] <= recorder.ends[parent]


def test_traced_generator_forwards_send_throw_and_close():
    class Sim:
        now = 0.0

    class Owner:
        sim = Sim()

        def gen(self, log):
            try:
                got = yield "first"
                log.append(got)
                try:
                    yield "second"
                except KeyError as error:
                    log.append(repr(error))
                yield "third"
            finally:
                log.append("closed")
            return "unreachable"

    recorder = tracing.SpanRecorder()
    wrapped = tracing.traced_generator(recorder, "t.gen", Owner.gen)
    log = []
    gen = wrapped(Owner(), log)
    assert next(gen) == "first"
    assert gen.send(42) == "second"
    assert gen.throw(KeyError("k")) == "third"
    gen.close()
    assert log == [42, "KeyError('k')", "closed"]
    assert recorder.stat("t.gen")[0] == 3
    assert recorder.counters["t.gen.calls"] == 1


def test_metric_names_and_units():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == run.END_TO_END_UNITS
    assert declared_layer == layers.METRIC_UNITS
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(
        workloads.WORKLOAD_NAMES)
    for name, unit in list(declared_e2e.items()) + list(
            declared_layer.items()):
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
    assert "setup_s" in declared_e2e
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_one_result_line(monkeypatch, capsys, trace):
    full = workloads.prepare
    monkeypatch.setattr(workloads, "prepare",
                        lambda name, seed, scale, wd: full(name, seed,
                                                           "smoke", wd))
    code = run.main(["--workload", "repair_storm", "--seed", "5",
                     "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = layers.METRIC_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
