"""Sweep-runner graceful degradation: watchdogs, timeouts, crash recovery."""

from __future__ import annotations

import json

from repro.experiments.runner import (
    CellTimeoutError,
    RunSpec,
    WorkerCrashError,
    run_sweep,
    salvage_report,
    sweep_stats,
    write_salvage,
)
from repro.sim.units import MSEC

# A cheap healthy cell the degraded sweeps must preserve.
OK = RunSpec("fault_probe", {"mode": "ok", "seed": 5}, label="probe:ok")


# ----------------------------------------------------------------------
# fault_probe scenario (the runner's chaos test double)
# ----------------------------------------------------------------------
def test_fault_probe_ok_is_deterministic():
    (a,) = run_sweep([OK], jobs=1, use_cache=False)
    (b,) = run_sweep([OK], jobs=1, use_cache=False)
    assert a.ok and a.value == b.value
    assert a.value["ticks"] > 0 and a.value["sim_time_ns"] > 0


def test_fault_probe_raise_is_retried_then_reported():
    bad = RunSpec("fault_probe", {"mode": "raise"})
    (r,) = run_sweep([bad], jobs=1, use_cache=False)
    assert not r.ok
    assert r.error["type"] == "RuntimeError"
    assert r.error["attempts"] == 2  # in-worker exception: one retry


# ----------------------------------------------------------------------
# Simulated-time watchdog (RunSpec.max_sim_events / max_sim_ns)
# ----------------------------------------------------------------------
def test_watchdog_event_budget_fails_runaway_without_retry():
    runaway = RunSpec("fault_probe", {"mode": "runaway", "horizon_ms": 50.0},
                      max_sim_events=2000)
    (r,) = run_sweep([runaway], jobs=1, use_cache=False)
    assert not r.ok
    assert r.error["type"] == "WatchdogExceeded"
    assert "event budget" in r.error["message"]
    assert r.error["attempts"] == 1  # deterministic: no retry


def test_watchdog_sim_time_budget():
    runaway = RunSpec("fault_probe", {"mode": "runaway", "horizon_ms": 50.0},
                      max_sim_ns=1 * MSEC)
    (r,) = run_sweep([runaway], jobs=1, use_cache=False)
    assert not r.ok
    assert r.error["type"] == "WatchdogExceeded"
    assert "simulated time" in r.error["message"]


def test_watchdog_within_budget_is_invisible():
    plain = RunSpec("fault_probe", {"mode": "ok", "seed": 5})
    guarded = RunSpec("fault_probe", {"mode": "ok", "seed": 5},
                      max_sim_events=10_000_000)
    (a,) = run_sweep([plain], jobs=1, use_cache=False)
    (b,) = run_sweep([guarded], jobs=1, use_cache=False)
    assert a.ok and b.ok and a.value == b.value


def test_watchdog_folds_into_cache_key_only_when_set():
    plain = RunSpec("fault_probe", {"mode": "ok"})
    guarded = RunSpec("fault_probe", {"mode": "ok"}, max_sim_events=100)
    assert "max_sim_events" not in plain.key()
    assert '"max_sim_events":100' in guarded.key()
    assert plain.digest("s") != guarded.digest("s")
    assert "max_sim_events" not in plain.to_dict()
    assert guarded.to_dict()["max_sim_events"] == 100


# ----------------------------------------------------------------------
# Host-side degradation: cell timeouts and worker crashes
# ----------------------------------------------------------------------
def test_cell_timeout_kills_hang_and_preserves_neighbours():
    hang = RunSpec("fault_probe", {"mode": "hang", "hang_s": 30.0}, label="probe:hang")
    results = run_sweep([OK, hang, OK], jobs=2, use_cache=False, cell_timeout_s=1.5)
    assert [r.ok for r in results] == [True, False, True]
    err = results[1].error
    assert err["type"] == CellTimeoutError.__name__
    assert "host budget" in err["message"]
    assert results[1].attempts == 1  # a hang reproduces: no retry
    stats = sweep_stats(results)
    assert stats["timeouts"] == 1 and stats["ok"] == 2


def test_cell_timeout_applies_to_sweeps_that_would_run_inline():
    """One job, or one uncached cell, runs inline when no timeout is set;
    with a timeout the hung cell must still be killed."""
    hang = RunSpec("fault_probe", {"mode": "hang", "hang_s": 3.0}, label="probe:hang")
    for jobs, specs in ((1, [hang]), (2, [hang]), (1, [OK, hang])):
        results = run_sweep(specs, jobs=jobs, use_cache=False, cell_timeout_s=0.5)
        assert results[-1].error["type"] == CellTimeoutError.__name__, (jobs, len(specs))
        assert all(r.ok for r in results[:-1])


def test_worker_crash_is_retried_then_reported():
    crash = RunSpec("fault_probe", {"mode": "exit"}, label="probe:exit")
    results = run_sweep([OK, crash, OK], jobs=2, use_cache=False, retries=1)
    assert [r.ok for r in results] == [True, False, True]
    err = results[1].error
    assert err["type"] == WorkerCrashError.__name__
    assert results[1].attempts == 2  # one crash mark, one retry, then fail
    stats = sweep_stats(results)
    assert stats["worker_crashes"] == 1 and stats["ok"] == 2


def test_pool_break_collateral_does_not_fail_innocent_cells():
    """Regression: a dying worker breaks the whole pool, failing every
    concurrent future with it.  Innocent cells caught in the blast were
    burning their retry budget on collateral crash marks; they must be
    retried in isolation and survive, however often the guilty cell
    re-crashes."""
    crash = RunSpec("fault_probe", {"mode": "exit"}, label="probe:exit")
    oks = [
        RunSpec("fault_probe", {"mode": "ok", "seed": s}, label=f"probe:ok{s}")
        for s in range(4)
    ]
    specs = [oks[0], oks[1], crash, oks[2], oks[3]]
    results = run_sweep(specs, jobs=4, use_cache=False, retries=1)
    assert [r.ok for r in results] == [True, True, False, True, True]
    assert results[2].error["type"] == WorkerCrashError.__name__
    assert sweep_stats(results)["worker_crashes"] == 1


def test_crashed_sweep_results_match_clean_run():
    """Healthy cells salvaged from a broken pool are bit-identical to the
    same cells run serially (acceptance criterion)."""
    crash = RunSpec("fault_probe", {"mode": "exit"})
    degraded = run_sweep([OK, crash], jobs=2, use_cache=False)
    (clean,) = run_sweep([OK], jobs=1, use_cache=False)
    salvaged = next(r for r in degraded if r.ok)
    assert salvaged.value == clean.value


# ----------------------------------------------------------------------
# Salvage report
# ----------------------------------------------------------------------
def test_salvage_report_schema_and_partition(tmp_path):
    crash = RunSpec("fault_probe", {"mode": "exit"}, label="probe:exit")
    results = run_sweep([OK, crash], jobs=2, use_cache=False)
    report = salvage_report(results)
    assert report["schema"] == "repro.sweep.salvage/v1"
    assert report["code_salt"]
    assert [h["spec"]["label"] for h in report["healthy"]] == ["probe:ok"]
    assert report["healthy"][0]["value"]["ticks"] > 0
    (failed,) = report["failed"]
    assert failed["spec"]["label"] == "probe:exit"
    assert failed["error"]["type"] == WorkerCrashError.__name__
    assert "value" not in failed  # failed cells carry no payload

    out = write_salvage(results, tmp_path / "salvage.json")
    assert json.loads(out.read_text())["stats"]["worker_crashes"] == 1
