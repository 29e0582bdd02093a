"""Smoke tests for the per-figure scenario builders (tiny configurations)."""

import math

import pytest

from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.reporting import format_normalized, format_table
from repro.experiments.runner import RunSpec, run_sweep
from repro.experiments.scenarios import (
    RUN_OPTIONS,
    _world,
    run_packet_path_probe,
    run_slice_sweep,
    run_small_mix,
    run_type_a,
    run_type_b,
    run_type_b_mixed,
)


def test_type_a_returns_complete_result():
    r = run_type_a("is", "CR", n_nodes=2, rounds=1, warmup_rounds=0, horizon_s=120)
    assert r["scheduler"] == "CR"
    assert r["app"] == "is"
    assert r["all_done"]
    assert r["mean_round_ns"] > 0
    assert r["rounds_measured"] == 4  # 4 virtual clusters x 1 round
    assert r["cluster"]["busy_ns"] > 0


def test_world_rejects_keys_outside_run_options():
    assert "period_ns" not in RUN_OPTIONS
    with pytest.raises(TypeError, match="period_ns"):
        _world(1, "CR", 0, period_ns=5)


def test_scenario_rejects_keys_outside_run_options():
    with pytest.raises(TypeError, match="period_ns"):
        run_type_a("is", "CR", n_nodes=2, period_ns=5)


@pytest.mark.parametrize("scenario,params", [
    ("type_a", dict(app_name="is", scheduler="CR", n_nodes=2, rounds=1, uniform_slice_ms=0)),
    ("small_mix", dict(scheduler="CR", horizon_s=1.0, uniform_slice_ms=0)),
    ("small_mix", dict(scheduler="ATC", horizon_s=1.0, atc_np_slice_ms=0)),
    ("packet_path_probe", dict(scheduler="CR", n_probes=5, uniform_slice_ms=0)),
    ("slice_sweep", dict(app_name="is", slice_ms_values=[-1.0], rounds=1)),
    ("slice_sweep", dict(app_name="is", slice_ms_values=[1e-7], rounds=1)),
])
def test_non_positive_slice_is_rejected_before_the_run(scenario, params):
    """A slice under 1 ns would freeze the simulated clock (zero) or
    schedule into the past (negative); the cell must fail with a
    ValueError naming the value, not spin until the watchdog fires."""
    spec = RunSpec(scenario, params, max_sim_events=200_000)
    (r,) = run_sweep([spec], use_cache=False, retries=0)
    assert not r.ok
    assert r.error["type"] == "ValueError", r.error["message"]
    assert "time slice must be positive" in r.error["message"]


def test_world_rejects_sub_nanosecond_uniform_slice():
    with pytest.raises(ValueError, match="uniform_slice_ns"):
        CloudWorld(WorldConfig(uniform_slice_ns=0))


def test_slice_sweep_rows():
    r = run_slice_sweep("is", [30, 1], n_nodes=2, rounds=1, warmup_rounds=0)
    assert len(r["rows"]) == 2
    for row in r["rows"]:
        assert row["all_done"]
        assert row["mean_round_ns"] > 0
        assert row["context_switches"] > 0
    # shorter slice -> lower spin latency
    assert r["rows"][1]["avg_spin_ns"] < r["rows"][0]["avg_spin_ns"]


def test_small_mix_returns_all_metrics():
    r = run_small_mix("CR", horizon_s=5.0)
    for key in (
        "sphinx3_mean_run_ns",
        "stream_bandwidth_Bps",
        "bonnie_throughput_Bps",
        "ping_mean_rtt_ns",
        "parallel_mean_round_ns",
    ):
        assert math.isfinite(r[key]), key
    assert r["ping_samples"] > 0


def test_small_mix_uniform_slice_mode():
    r = run_small_mix("CR", horizon_s=1.0, uniform_slice_ms=6.0)
    assert r["uniform_slice_ms"] == 6.0
    assert math.isfinite(r["ping_mean_rtt_ns"])


def test_type_b_builds_trace_mix():
    r = run_type_b("CR", n_nodes=4, horizon_s=2.0, seed=3)
    assert r["vcs"], "no virtual clusters built"
    assert all(vc["n_vms"] >= 2 for vc in r["vcs"])
    assert r["independents"]


def test_type_b_mixed_returns_nonparallel_metrics():
    r = run_type_b_mixed("CR", n_nodes=4, horizon_s=2.0, seed=3)
    assert math.isfinite(r["webserver_mean_response_ns"])
    assert math.isfinite(r["ping_mean_rtt_ns"])
    assert math.isfinite(r["gcc_mean_run_ns"])
    assert r["vcs"]


def test_type_b_mixed_admin_slice():
    r = run_type_b_mixed("ATC", n_nodes=4, horizon_s=2.0, seed=3, atc_np_slice_ms=6.0)
    assert r["atc_np_slice_ms"] == 6.0


def test_packet_path_probe_measures_all_hops():
    r = run_packet_path_probe("CR", n_probes=20, horizon_s=3.0)
    assert r["probes"] > 0
    for key in (
        "mean_netback_tx_wait_ns",
        "mean_wire_ns",
        "mean_netback_rx_wait_ns",
        "mean_consume_wait_ns",
        "mean_end_to_end_ns",
    ):
        assert r[key] >= 0, key
    assert r["mean_end_to_end_ns"] >= r["mean_wire_ns"]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 2.5], ["xx", 3.0]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert "2.500" in out


def test_format_normalized():
    out = format_normalized({"CR": 10.0, "ATC": 2.5})
    assert "0.250" in out and "1.000" in out
