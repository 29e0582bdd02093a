"""Tests of the benchmark's own machinery: digests, span accounting,
layer attribution, and agreement with BENCHMARK.json.

Run with ``python -m pytest simbench/tests``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.scenarios import run_table1_cell
from repro.hypervisor.vmm import VMM
from repro.sim.engine import Simulator
from simbench import cells, layers
from simbench import measure as bench

ROOT = Path(__file__).resolve().parents[2]


class ScriptedClock:
    """A clock that returns the given instants in order."""

    def __init__(self, *instants: float) -> None:
        self._instants = list(instants)

    def __call__(self) -> float:
        return self._instants.pop(0)


# ----------------------------------------------------------------------
# Digest
# ----------------------------------------------------------------------
def _result() -> dict:
    return {
        "scheduler": "ATC",
        "vcs": [{"vc": "VC1", "mean_round_ns": 412345678.5, "rounds": 3}],
        "round_times": [400000000, 410000000],
        "sim_time_ns": 1_000_000_000,
        "events": 220739,
    }


def test_digest_ignores_events_and_host_keys():
    base = cells.result_digest(_result())
    changed = _result()
    changed["events"] = 1
    changed["profile"] = {"wall_s": 3.2, "events_per_sec": 9e4}
    changed["wall_s"] = 2.5
    assert cells.result_digest(changed) == base


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r["vcs"][0].__setitem__("mean_round_ns", 412345679.5),
        lambda r: r["round_times"].__setitem__(1, 410000001),
        lambda r: r.__setitem__("sim_time_ns", 1_000_000_001),
    ],
)
def test_digest_catches_a_one_ns_change(mutate):
    changed = _result()
    mutate(changed)
    assert cells.result_digest(changed) != cells.result_digest(_result())


# ----------------------------------------------------------------------
# Span accounting
# ----------------------------------------------------------------------
def test_self_time_on_a_synthetic_span_tree():
    # setup span (outside any run), then a run span holding:
    #   A hypervisor [1, 10] with children B schedulers [2, 5], C sim [6, 7]
    #   D unattributed event [11, 12]
    clock = ScriptedClock(-2.0, -1.0, 0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 10.0, 11.0, 12.0, 13.0)
    rec = layers.SpanRecorder(clock=clock, keep=100)
    rec.open("CloudWorld.__init__", "experiments")
    rec.close()
    rec.open_run()
    rec.open("A", "hypervisor")
    rec.open("B", "schedulers")
    rec.close()
    rec.open("C", "sim")
    rec.close()
    rec.close()
    rec.open("D", None)
    rec.close()
    rec.close_run()

    assert rec.run_s == 13.0
    assert rec.self_s == {"hypervisor": 5.0, "schedulers": 3.0, "sim": 4.0, None: 1.0}
    assert rec.unattributed_s == 1.0
    assert rec.reconcile_error() == 0.0
    # Set-up spans count calls and inclusive time, not run self time.
    assert "experiments" not in rec.self_s
    assert rec.incl_s["CloudWorld.__init__"] == 1.0
    by_key = {r[2]: r for r in rec.spans}
    assert by_key["B"][1] == by_key["A"][0]
    assert by_key["A"][1] == by_key[layers.RUN_KEY][0]
    assert (by_key["A"][4], by_key["A"][5]) == (1.0, 10.0)
    doc = layers.chrome_trace(rec.spans, {"seed": 0})
    events = {e["name"]: e for e in doc["traceEvents"]}
    assert len(events) == 6 and {e["ph"] for e in events.values()} == {"X"}
    assert (events["A"]["ts"], events["A"]["dur"]) == (3e6, 9e6)
    assert events["B"]["args"]["parent"] == events["A"]["args"]["id"]
    assert events["D"]["cat"] == "unattributed"


def test_directly_nested_span_of_the_same_key_is_counted_once():
    rec = layers.SpanRecorder(clock=ScriptedClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
    rec.open_run()
    rec.open("Scheduler.pick_next", "schedulers")
    rec.open("Scheduler.pick_next", "schedulers")  # super() into the base
    rec.close()
    rec.close()
    rec.close_run()
    assert rec.calls["Scheduler.pick_next"] == 1
    assert rec.incl_s["Scheduler.pick_next"] == 3.0
    assert rec.self_s["schedulers"] == 3.0


def test_layer_mappings():
    assert layers.layer_of_module("repro.hypervisor.vmm") == "hypervisor"
    assert layers.layer_of_module("simbench.cells") is None
    assert layers.layer_of_category("vmm.slice") == "hypervisor"
    assert layers.layer_of_category("sched.tickle") == "schedulers"
    assert layers.layer_of_category("fault") is None
    assert layers.layer_of_category(None) is None


# ----------------------------------------------------------------------
# Attribution on a real cell
# ----------------------------------------------------------------------
def _small_mix_pass(probe, traced):
    specs = [runner.RunSpec("small_mix", {"scheduler": "CR", "seed": 3, "horizon_s": 1.0})]
    return bench.run_pass(specs, probe, traced, keep_spans=1000)


def test_layer_attribution_reconciles_with_the_run_span():
    probe = layers.CellProbe()
    with probe.installed(cells.scenario_functions("mixed_io_cr")):
        plain = _small_mix_pass(probe, traced=False)
        traced = _small_mix_pass(probe, traced=True)
    assert plain.results[0].ok and traced.results[0].ok
    assert cells.result_digest(traced.results[0].value) == cells.result_digest(
        plain.results[0].value
    )
    assert traced.counters() == plain.counters()
    spans = traced.spans
    assert spans.run_s > 0.0
    assert spans.reconcile_error() <= bench.RECONCILE_TOLERANCE_S
    assert all(v >= 0.0 for v in spans.self_s.values())
    assert {"sim", "hypervisor", "schedulers", "guest", "cluster"} <= set(spans.self_s)
    # The run span was timed by the probe too, around the recorder's span.
    assert spans.run_s <= traced.run_s
    metrics = traced.layer_metrics()
    assert metrics["sim.events"] == plain.counters()["sim.events"]
    assert metrics["hypervisor.dispatches"] == metrics["schedulers.pick_next_calls"] > 0
    assert metrics["core.period_calls"] == 0  # CR: no ATC controller
    assert len(spans.spans) == 1000


def test_instrumentation_is_removed_on_exit():
    before = (VMM.__dict__["dispatch"], Simulator.__dict__["run"], Simulator.__dict__["at"])
    probe = layers.CellProbe()
    with probe.installed(cells.scenario_functions("table1_atc")):
        assert "table1_atc" in runner.SCENARIOS
        with layers.LayerTracer(layers.SpanRecorder()).installed():
            assert VMM.__dict__["dispatch"] is not before[0]
    assert "table1_atc" not in runner.SCENARIOS
    assert (VMM.__dict__["dispatch"], Simulator.__dict__["run"], Simulator.__dict__["at"]) == before


def test_table1_builder_matches_table1_cell_at_the_mix_seed():
    ours = cells.run_table1_atc(seed=cells.TABLE1_MIX_SEED, horizon_s=0.02)
    theirs = run_table1_cell(seed=cells.TABLE1_MIX_SEED, horizon_s=0.02)
    assert cells.result_digest(ours) == cells.result_digest(theirs)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_reported_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(cells.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)


def test_result_line_carries_exactly_the_reported_fields():
    report = {
        "correct": True,
        "attempted": 9,
        "failed": 0,
        "metrics": {"wall_s": {"unit": "s", "median": 2.5, "q1": 2.4, "q3": 2.6, "n": 9}},
    }
    line = json.loads(bench.result_line(report))
    assert line == {
        "correct": True,
        "attempted": 9,
        "failed": 0,
        "metrics": {"wall_s": {"value": 2.5, "unit": "s"}},
    }


def test_reference_covers_every_workload_and_seed():
    reference = cells.load_reference()
    for workload in cells.WORKLOADS:
        for seed in range(cells.REFERENCE_SEEDS):
            digests = cells.reference_digests(reference, workload, seed)
            assert digests is not None and len(digests) == len(cells.WORKLOADS[workload](seed))
