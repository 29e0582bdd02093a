"""Event-queue entry shapes: fire-and-forget ``post_*`` scheduling,
profiler depth accounting, and ``step()``/``run()`` agreement.

The engine-semantics suite (``test_engine.py``) covers the scheduling and
run-loop contract; this module covers the handle-free
``post_at``/``post_after`` API and drives a cancel-heavy workload through
both entry points of the one pop loop.
"""

import pytest

from repro.obs.profiler import SimProfiler
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import SimRNG


# ----------------------------------------------------------------------
# Fire-and-forget post_at / post_after
# ----------------------------------------------------------------------
def test_post_at_fires_in_fifo_order_with_at(sim):
    order = []
    # deliberate same-instant appends asserting at/post_at FIFO interleave
    sim.at(10, lambda: order.append("a"))  # repro: ignore[RPR040,RPR041]
    sim.post_at(10, lambda: order.append("b"))
    sim.at(10, lambda: order.append("c"))  # repro: ignore[RPR040,RPR041]
    sim.post_at(5, lambda: order.append("first"))
    sim.run()
    assert order == ["first", "a", "b", "c"]
    assert sim.events_processed == 4


def test_post_rejects_past_and_negative(sim):
    sim.at(50, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_at(10, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_after(-1, lambda: None)


def test_posted_entries_are_invisible_to_live_events(sim):
    sim.at(10, lambda: None, cat="handled")
    sim.post_at(10, lambda: None, cat="posted")
    cats = [ev.cat for ev in sim.live_events()]
    assert cats == ["handled"]
    assert sim.pending() == 2  # but both count as pending work


def test_posted_entries_carry_profiler_category():
    sim = Simulator()
    prof = SimProfiler(sim)
    sim.post_at(10, lambda: None, cat="net")
    sim.post_after(20, lambda: None, cat="net")
    sim.run()
    cats = prof.report()["categories"]
    assert cats["net"]["calls"] == 2


# ----------------------------------------------------------------------
# Profiler depth accounting (regression)
# ----------------------------------------------------------------------
def test_profiler_depth_includes_running_event():
    """Regression: depth was sampled *after* the pop, so a queue that
    peaked at N events reported N-1.  The loop now passes len(queue)+1
    (pending plus the event being executed)."""
    sim = Simulator()
    prof = SimProfiler(sim)
    for i in range(5):
        sim.at(10 * (i + 1), lambda: None, cat="x")
    sim.run()
    assert prof.report()["max_heap_depth"] == 5


def test_profiler_depth_exact_with_posted_entries():
    sim = Simulator()
    prof = SimProfiler(sim)
    sim.post_at(10, lambda: None)
    sim.post_at(20, lambda: None)
    sim.post_at(30, lambda: None)
    sim.run()
    assert prof.report()["max_heap_depth"] == 3


# ----------------------------------------------------------------------
# step() and run() share one loop
# ----------------------------------------------------------------------
def _churn(drive):
    """A cancel-heavy, reschedule-heavy workload driven by a fixed RNG;
    ``drive(sim)`` runs it to completion."""
    sim = Simulator()
    rng = SimRNG(7)
    log = []
    handles = []

    def fire(i):
        log.append((sim.now, i))
        if rng.random() < 0.5:
            j = len(handles)
            handles.append(sim.after(int(rng.random() * 5_000), lambda: fire(j)))
        if handles and rng.random() < 0.3:
            handles[int(rng.random() * len(handles))].cancel()

    for i in range(200):
        t = int(rng.random() * 50_000)
        handles.append(sim.at(t, lambda i=i: fire(i)))
        if rng.random() < 0.2:
            sim.post_at(t + 1, lambda i=i: log.append((sim.now, "post", i)))
    drive(sim)
    return log, sim.now, sim.events_processed, sim.cancelled_popped


def _step_to_end(sim):
    while sim.step():
        pass


def test_stepping_matches_one_run_on_churn_workload():
    """Stepping event by event gives the same callback order, clock and
    counters (fired and lazily discarded) as a single ``run()``."""
    ran = _churn(lambda sim: sim.run())
    assert _churn(_step_to_end) == ran
    assert ran[2] > 200
    assert ran[3] > 0  # the workload does exercise lazy cancellation
