"""The runner-timer arming rule: a work or grace deadline is queued only if
it can pop before the slice end armed on its PCPU
(:meth:`repro.hypervisor.vmm.VMM.arm_runner_timer`).

Every test compares against an *always-arm* reference, in which the VMM
pushes every runner timer and the slice end cancels the losers unfired:
the rule must change which entries are queued, never what is simulated.
"""

import json

import pytest

from repro.cluster.node import NodeParams
from repro.cluster.topology import build_cluster
from repro.experiments.scenarios import run_small_mix, run_type_a
from repro.guest.process import compute
from repro.hypervisor.dom0 import Dom0
from repro.hypervisor.vmm import VMM
from repro.schedulers.credit import CreditParams, CreditScheduler
from repro.sim.engine import TIE_ORDERS, Simulator
from repro.sim.units import MSEC, USEC

from tests.conftest import add_guest_vm

#: A mid-slice preemption point, off any round millisecond.
PREEMPT_AT = 7300 * USEC


def _always_arm(vmm, vcpu, delay, fn, cat):
    """Stand-in for the rule switched off: every runner timer is pushed."""
    return vmm.sim.at(vmm.sim.now + delay, fn, cat)


def one_pcpu_world(tie_order):
    """One node, one PCPU, Credit, dom0: (sim, vmm, pcpu)."""
    sim = Simulator(tie_order=tie_order)
    cluster = build_cluster(sim, 1, NodeParams(n_pcpus=1))
    vmm = VMM(sim, cluster.nodes[0], lambda m: CreditScheduler(m, CreditParams()))
    Dom0(sim, vmm, cluster.fabric)
    return sim, vmm, cluster.nodes[0].pcpus[0]


def one_process(vmm, program):
    vm = add_guest_vm(vmm, 1)
    p = vm.kernel.add_process()
    finished = []
    p.on_done = lambda proc: finished.append(proc.sim.now)
    p.load_program(program(p))
    p.start()
    return p, finished


def live_cats(sim):
    return sorted(ev.cat for ev in sim.live_events())


def _long_compute(p):
    yield compute(100 * MSEC)


def _compute_to_slice_end(p):
    # The generator body runs when the VCPU first advances, so it can read
    # the slice end that dispatch just armed.
    yield compute(p.vcpu.pcpu.slice_end_ev.time - p.sim.now)


@pytest.mark.parametrize("tie_order", TIE_ORDERS)
def test_compute_longer_than_slice_leaves_only_slice_end_live(tie_order):
    sim, vmm, pcpu = one_pcpu_world(tie_order)
    p, _ = one_process(vmm, _long_compute)
    sim.run(until=1)
    assert p.state == "compute"
    assert p._work_ev is None
    assert p._work_started == 0
    assert live_cats(sim) == ["vmm.slice"]


def _run_to_slice_end(tie_order):
    """Run one compute segment that ends exactly at the first slice end;
    return the live categories once it started, the slice end, the finish
    times and the events processed."""
    sim, vmm, pcpu = one_pcpu_world(tie_order)
    p, finished = one_process(vmm, _compute_to_slice_end)
    sim.run(until=0)
    assert p.state == "compute"
    cats, slice_end = live_cats(sim), pcpu.slice_end_ev.time
    sim.run()
    return cats, slice_end, finished, sim.events_processed


@pytest.mark.parametrize(
    "tie_order, cats",
    [("fifo", ["vmm.slice"]), ("reversed", ["guest", "vmm.slice"])],
)
def test_compute_ending_at_slice_end_armed_only_if_it_pops_first(tie_order, cats, monkeypatch):
    """At an equal time the guest timer pops first only under ``reversed``
    (its later sequence number sorts first), so only there is it armed."""
    live, slice_end, finished, events = _run_to_slice_end(tie_order)
    assert live == cats
    # fifo: the slice end preempts with 0 ns left and the re-dispatch (same
    # VCPU, no switch cost) finishes at once; reversed: the work ends first.
    assert finished == [slice_end]
    monkeypatch.setattr(VMM, "arm_runner_timer", _always_arm)
    _, _, ref_finished, ref_events = _run_to_slice_end(tie_order)
    assert (finished, events) == (ref_finished, ref_events)


def _preempt_mid_slice(tie_order):
    """Preempt a 100 ms compute at ``PREEMPT_AT``; return whether the work
    timer was armed then, the (remaining, started) pair the re-dispatch
    carries, and the finish times."""
    sim, vmm, pcpu = one_pcpu_world(tie_order)
    p, finished = one_process(vmm, _long_compute)
    seen = {}

    def preempt():
        seen["armed"] = p._work_ev is not None
        vmm.preempt(pcpu)
        seen["carried"] = (p._remaining, p._work_started)

    sim.at(PREEMPT_AT, preempt)
    sim.run()
    return seen, finished


@pytest.mark.parametrize("tie_order", TIE_ORDERS)
def test_preempt_with_unarmed_work_timer_carries_remaining_exactly(tie_order, monkeypatch):
    seen, finished = _preempt_mid_slice(tie_order)
    assert not seen["armed"]
    # The lone VCPU is re-dispatched at once, with no switch cost.
    assert seen["carried"] == (100 * MSEC - PREEMPT_AT, PREEMPT_AT)
    assert finished == [100 * MSEC]
    monkeypatch.setattr(VMM, "arm_runner_timer", _always_arm)
    ref_seen, ref_finished = _preempt_mid_slice(tie_order)
    assert ref_seen["armed"]
    assert (ref_seen["carried"], ref_finished) == (seen["carried"], finished)


def _dom0_long_job(tie_order, preempt=False):
    """Queue one 100 ms dom0 job; optionally preempt the worker mid-job.
    Returns (worker state right after dispatch, cost after the preempt,
    completion time, events processed).  The job's cost includes the
    first dispatch's switch overhead."""
    sim, vmm, pcpu = one_pcpu_world(tie_order)
    done = []
    vmm.dom0._enqueue(100 * MSEC, lambda: done.append(sim.now))
    worker = vmm.dom0.workers[0]
    first = (worker._ev is not None, worker._started, worker.cur_cost, live_cats(sim))
    carried = []
    if preempt:
        def preempt_worker():
            vmm.preempt(pcpu)
            carried.append(worker.cur_cost)

        sim.at(PREEMPT_AT, preempt_worker)
    sim.run()
    return first, carried, done, sim.events_processed


@pytest.mark.parametrize("tie_order", TIE_ORDERS)
def test_dom0_job_longer_than_slice_leaves_only_slice_end_live(tie_order):
    (armed, started, cost, cats), _, done, _ = _dom0_long_job(tie_order)
    assert not armed
    assert started == 0
    assert cost > 100 * MSEC
    assert cats == ["vmm.slice"]
    # Slice ends re-dispatch the lone dom0 VCPU with no further switch cost.
    assert done == [cost]


@pytest.mark.parametrize("tie_order", TIE_ORDERS)
def test_dom0_preempt_with_unarmed_timer_carries_cost_exactly(tie_order, monkeypatch):
    (_, _, cost, _), carried, done, events = _dom0_long_job(tie_order, preempt=True)
    assert carried == [cost - PREEMPT_AT]
    monkeypatch.setattr(VMM, "arm_runner_timer", _always_arm)
    (armed, _, _, _), ref_carried, ref_done, ref_events = _dom0_long_job(tie_order, preempt=True)
    assert armed
    assert (carried, done, events) == (ref_carried, ref_done, ref_events)


@pytest.mark.parametrize("tie_order", TIE_ORDERS)
@pytest.mark.parametrize(
    "scenario",
    [
        lambda t: run_type_a("lu", "ATC", 2, rounds=2, npb_class="A", tie_order=t),
        lambda t: run_small_mix("CR", horizon_s=2.0, tie_order=t),
    ],
    ids=["type_a_lu_atc", "small_mix_cr"],
)
def test_scenario_results_match_always_arm(scenario, tie_order, monkeypatch):
    """Whole scenarios (spinlocks, grace timers, dom0 I/O) are identical,
    event count included, with and without the rule."""
    ruled = json.dumps(scenario(tie_order), sort_keys=True)
    monkeypatch.setattr(VMM, "arm_runner_timer", _always_arm)
    assert json.dumps(scenario(tie_order), sort_keys=True) == ruled
