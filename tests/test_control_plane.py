"""The shared control plane (repro.experiments.harness.ControlPlane):
leader election, fan-out order, cadence and crash failover."""

from __future__ import annotations

import pytest

from repro.dfrs.controller import DFRSConfig
from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.scenarios import run_migration_rebalance
from repro.migration import MigrationConfig
from repro.migration.rebalancer import Rebalancer
from repro.service.service import ServiceConfig

P = WorldConfig().period_ns


def _world(**kw):
    return CloudWorld(WorldConfig(n_nodes=3, **kw))


def _recorder(log, name):
    return lambda now: log.append((name, now))


def _run_periods(world, periods):
    """Advance by ``periods`` period lengths; callers start off-phase
    (half a period) so no horizon lands on a tick."""
    world.run(horizon_ns=round(periods * P))


def _trace_leaders(world):
    """Wrap each node's plane hook so calls record ``(now, node index)``."""
    calls = []
    hook = world.control_plane._on_period
    for i, vmm in enumerate(world.vmms):
        k = vmm.period_hooks.index(hook)

        def traced(now, i=i):
            calls.append((now, i))
            hook(now)

        vmm.period_hooks[k] = traced
    return calls


def _leaders(calls):
    """Node that called first at each instant, in time order."""
    first = {}
    for now, i in calls:
        first.setdefault(now, i)
    return first


# ----------------------------------------------------------------------
# Fan-out and cadence
# ----------------------------------------------------------------------
def test_each_controller_runs_once_per_instant_in_registration_order():
    w = _world()
    log = []
    for name in ("a", "b", "c"):
        w.control_plane.register(_recorder(log, name))
    _run_periods(w, 10.5)
    assert log == [(name, k * P) for k in range(1, 11) for name in ("a", "b", "c")]
    assert w.control_plane.rounds == 10


def test_every_k_runs_on_multiples_of_k():
    w = _world()
    log = []
    w.control_plane.register(_recorder(log, "each"))
    w.control_plane.register(_recorder(log, "third"), every=3)
    _run_periods(w, 10.5)
    assert [t for n, t in log if n == "third"] == [3 * P, 6 * P, 9 * P]
    assert [t for n, t in log if n == "each"] == [k * P for k in range(1, 11)]


def test_world_controllers_register_in_construction_order():
    w = _world(
        scheduler="ATC",
        sanitize=True,
        migration=MigrationConfig(policy="demix", control_every=2),
        dfrs=DFRSConfig(solve_every=4),
        service=ServiceConfig(),
    )
    plane = w.control_plane
    assert [(fn.__qualname__, every) for fn, every in plane._controllers] == [
        ("Rebalancer._control", 2),
        ("DFRSController._control", 4),
        ("CloudService._on_period", 1),
    ]
    for vmm in w.vmms:
        # One plane hook per node, after the ATC and sanitizer hooks.
        assert len(vmm.period_hooks) == 3
        assert vmm.period_hooks[-1] == plane._on_period


def test_world_without_controllers_installs_no_plane_hook():
    worlds = [
        _world(),
        _world(scheduler="ATC", sanitize=True),
        _world(migration=MigrationConfig(policy="none"), dfrs=DFRSConfig(solve_every=0)),
    ]
    for w in worlds:
        for vmm in w.vmms:
            assert w.control_plane._on_period not in vmm.period_hooks
    _run_periods(worlds[-1], 3.5)
    assert worlds[-1].control_plane.rounds == 0


# ----------------------------------------------------------------------
# Leader election
# ----------------------------------------------------------------------
def test_crashed_leader_fails_over_without_skipping_or_doubling():
    w = _world()
    log = []
    w.control_plane.register(_recorder(log, "a"))
    calls = _trace_leaders(w)
    node0 = w.cluster.nodes[0]
    _run_periods(w, 3.5)  # node 0 leads ticks 1..3
    node0.crashed = True
    _run_periods(w, 3)  # ticks 4..6: node 1 leads
    node0.crashed = False
    _run_periods(w, 3)  # ticks 7..9: node 0 leads again
    assert log == [("a", k * P) for k in range(1, 10)]
    leaders = _leaders(calls)
    assert [leaders[k * P] for k in range(1, 10)] == [0, 0, 0, 1, 1, 1, 0, 0, 0]
    # Crashed node 0 skipped its hook; nodes 1 and 2 still called it.
    assert sorted(i for t, i in calls if t == 5 * P) == [1, 2]
    assert w.control_plane.rounds == 9


def test_reversed_tie_order_still_runs_one_round_per_instant():
    w = _world(tie_order="reversed")
    log = []
    w.control_plane.register(_recorder(log, "a"))
    w.control_plane.register(_recorder(log, "b"))
    calls = _trace_leaders(w)
    _run_periods(w, 6.5)
    assert log == [(name, k * P) for k in range(1, 7) for name in ("a", "b")]
    assert len(calls) == 3 * 6  # every live node still calls the hook
    assert w.control_plane.rounds == 6


# ----------------------------------------------------------------------
# Rebalancer cadence
# ----------------------------------------------------------------------
def test_offcycle_kick_does_not_shift_scheduled_rounds(monkeypatch):
    times = []
    control = Rebalancer._control

    def recorded(self, now):
        times.append(now)
        control(self, now)

    monkeypatch.setattr(Rebalancer, "_control", recorded)
    w = _world(migration=MigrationConfig(policy="demix", control_every=3))
    _run_periods(w, 4.5)
    w.rebalancer.kick(w.sim.now)
    _run_periods(w, 5)
    assert times == [3 * P, round(4.5 * P), 6 * P, 9 * P]
    assert w.rebalancer.kicks == 1
    assert w.rebalancer.control_rounds == 4


# ----------------------------------------------------------------------
# Cadence validation at world construction
# ----------------------------------------------------------------------
@pytest.mark.parametrize("every", [0, -1])
def test_bad_control_every_is_rejected_when_the_world_is_built(every):
    with pytest.raises(ValueError, match=rf"Rebalancer\._control.*every={every}"):
        run_migration_rebalance(
            policy="demix", migration={"control_every": every}, horizon_s=0.5
        )


def test_negative_solve_every_is_rejected_when_the_world_is_built():
    with pytest.raises(ValueError, match=r"DFRSController\._control.*every=-1"):
        _world(dfrs=DFRSConfig(solve_every=-1))


def test_register_rejects_non_positive_cadence():
    w = _world()
    with pytest.raises(ValueError, match="every=0"):
        w.control_plane.register(lambda now: None, every=0)
    for vmm in w.vmms:  # a rejected registration installs nothing
        assert w.control_plane._on_period not in vmm.period_hooks
