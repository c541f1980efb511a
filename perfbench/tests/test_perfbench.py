"""Self-tests of the benchmark: tiny workloads, failure counting, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads as W
from perfbench.metrics import END_TO_END, PER_LAYER, benchmark_json
from perfbench.run import measure, per_layer
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name: str, seed: int = 3) -> W.Workload:
    """Each workload at a size that runs in about a second."""
    if name == "serve":
        return W.ServeWorkload(seed, horizon_s=0.5)
    if name == "fleet":
        return W.FleetWorkload(seed, horizon_s=2.0)
    if name == "predict":
        return W.PredictWorkload(seed, keys_per_query=8, replay=60)
    from repro.hardware.profiles import SIM4090

    # Slow, costly launches: the launch-energy sweep needs 10k launches
    # instead of 200k and still resolves the per-launch energy.
    spec = dataclasses.replace(SIM4090, kernel_launch_latency=1e-4,
                               e_kernel_launch=2e-3)
    return W.CalibrateWorkload(seed, spec=spec, repeats=3,
                               min_measure_seconds=0.02, idle_seconds=0.5)


# -- the benchmark definition ----------------------------------------------

def test_benchmark_json_matches_the_catalogue():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == benchmark_json(
        [(w.name, w.why) for w in W.WORKLOADS.values()])
    assert len(json.dumps(document)) <= 64 * 1024
    names = [m["name"] for m in document["end_to_end"]
             + document["per_layer"]] + [w["name"]
                                         for w in document["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in document["end_to_end"]
               + document["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    assert ("setup_s", "s", "lower") in [
        (m["name"], m["unit"], m["better"]) for m in document["end_to_end"]]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in document["workloads"])
    assert 1 <= len(document["per_layer"]) <= 128


def test_per_layer_predictions_name_known_metrics_and_workloads():
    end_to_end = {name for name, *_ in END_TO_END}
    for name, unit, better, moves, on, not_on in PER_LAYER:
        assert set(moves) <= end_to_end, name
        assert set(on) | set(not_on) <= set(W.WORKLOADS), name
        assert not set(on) & set(not_on), name


# -- workloads -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    workload = tiny(name)
    run = measure(workload, units=2)
    assert run["failed"] == 0
    assert len(run["unit_s"]) == 2
    assert run["attempted"] >= 2
    assert workload.output_digest() is not None


def test_inputs_depend_only_on_the_seed():
    assert tiny("serve", 5).arrivals == tiny("serve", 5).arrivals
    assert tiny("serve", 5).arrivals != tiny("serve", 6).arrivals
    first, second = tiny("predict", 5), tiny("predict", 5)
    assert list(first.plan) == list(second.plan)
    assert [k[1:] for k in first.keys] == [k[1:] for k in second.keys]


def test_output_digest_repeats_for_fresh_workloads_of_one_seed():
    assert tiny("fleet").output_digest() is None
    digests = []
    for _ in range(2):
        workload = tiny("fleet")
        measure(workload, units=1)
        digests.append(workload.output_digest())
    assert digests[0] == digests[1]


def test_corrupted_output_is_counted_as_failed():
    workload = tiny("fleet")
    run = workload.run
    calls = []

    def corrupt_second(ctx):
        report = run(ctx)
        calls.append(report)
        if len(calls) == 2:
            report = dataclasses.replace(report, admitted=report.admitted - 1)
        return report

    workload.run = corrupt_second
    result = measure(workload, units=3)
    per_unit = result["attempted"] // 3
    assert result["failed"] == per_unit
    assert result["failed"] / result["attempted"] == pytest.approx(1 / 3)


def test_corrupted_prediction_is_counted_as_failed():
    workload = tiny("predict")
    run = workload.run

    def corrupt(ctx):
        queries = run(ctx)
        index, seconds, before, after, answers = queries[7]
        answers = (*answers[:3], answers[3] * 1.5, *answers[4:])
        queries[7] = (index, seconds, before, after, answers)
        return queries

    workload.run = corrupt
    result = measure(workload, units=1)
    # The corrupted compiled mean fails that query (and the first-answer
    # memo fails later repeats of its key); the rest pass.
    assert 1 <= result["failed"] < result["attempted"] == 60


def test_raising_unit_is_counted_as_failed():
    workload = tiny("serve")

    def boom(ctx):
        raise RuntimeError("injected")

    workload.run = boom
    result = measure(workload, units=2)
    assert result["failed"] == result["attempted"] == 2 * len(
        workload.arrivals)


# -- tracing ---------------------------------------------------------------

class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    clock = _FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(seconds):
        clock.now += seconds

    hot = tracer.wrap(leaf, "hot", hot=True)
    child = tracer.wrap(lambda: (leaf(1.0), hot(0.5), hot(0.25)), "child")

    def body():
        leaf(2.0)
        child()
        leaf(3.0)
        hot(1.0)

    root = tracer.wrap(body, "root")
    root()
    # root: 2 + child(1.75) + 3 + hot(1) = 7.75 s busy, 5 s its own.
    assert tracer.busy_s("root") == pytest.approx(7.75)
    assert tracer.self_s("root") == pytest.approx(5.0)
    assert tracer.busy_s("child") == pytest.approx(1.75)
    assert tracer.self_s("child") == pytest.approx(1.0)
    assert tracer.calls("hot") == 3
    assert tracer.busy_s("hot") == pytest.approx(1.75)
    assert tracer.self_s("hot") == pytest.approx(1.75)
    # Hot calls leave no spans; spans link child to parent.
    spans = {name: (span_id, start, end, parent)
             for span_id, name, start, end, parent in tracer.spans}
    assert set(spans) == {"root", "child"}
    assert spans["child"][3] == spans["root"][0]
    assert spans["root"][3] is None
    assert spans["child"][1:3] == (2.0, 3.75)
    assert sum(own for _, own in tracer.ranking()) == pytest.approx(7.75)


def test_layer_self_time_sums_its_names():
    tracer = Tracer()
    tracer.stats.update({"fleet": [1, 3.0, 1.0],
                         "fleet.balancer.prefer": [9, 2.0, 2.0],
                         "fleetwide": [1, 5.0, 5.0]})
    assert tracer.layer_self_s("fleet") == pytest.approx(3.0)


@pytest.mark.parametrize("name, busy", [
    ("serve", "hardware.ledger.total_joules.calls"),
    ("fleet", "fleet.balancer.prefer.calls"),
    ("predict", "compile.cache.get.calls"),
    ("calibrate", "hardware.ledger.energy_between.calls"),
])
def test_traced_run_reports_every_per_layer_metric(name, busy, tmp_path):
    args = argparse.Namespace(workload=name, seed=3)
    metrics, summary = per_layer(args, tiny(name), tmp_path)
    assert list(metrics) == [metric for metric, *_ in PER_LAYER]
    assert metrics[busy] > 0
    assert metrics["trace.overhead_ratio"] > 0
    assert summary["run"]["failed"] == 0
    spans = json.loads((tmp_path / f"{name}-seed3-spans.json").read_text())
    assert len(spans["spans"]) == metrics["trace.spans"]


def test_installed_wrappers_are_removed_afterwards():
    from repro.hardware.ledger import EnergyLedger

    original = EnergyLedger.total_joules
    tracer = Tracer()
    with tracer.installed(W.trace_targets()):
        assert EnergyLedger.total_joules is not original
        EnergyLedger().total_joules()
    assert EnergyLedger.total_joules is original
    assert tracer.calls("hardware.ledger.total_joules") == 1


# -- the command -----------------------------------------------------------

def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
