"""The dom0 driver domain: netback/netfront packet path and block backend.

This module realizes Figure 4 of the paper.  Sending a message from VM1
(node 1) to VM2 (node 2) takes the 11 steps / 4 scheduling-wait overhead
sources the paper describes:

1.  VM1's VCPU must be scheduled (overhead source 1) — it then places the
    packet in the I/O ring and notifies dom0 via an event channel
    (``Dom0.send_packet`` + ``VCPU.wake``).
2.  dom0 of node 1 must be scheduled (overhead source 2) — its netback
    worker then copies the packet and hands it to the NIC
    (``_NetTxJob`` → :meth:`repro.cluster.network.Fabric.transmit`).
3.  The wire moves the packet to node 2.
4.  dom0 of node 2 must be scheduled (overhead source 3) — its netback
    worker copies the packet into VM2's I/O ring and signals VM2's event
    channel (``_NetRxJob`` → ``VM.deliver``).
5.  VM2's VCPU must be scheduled (overhead source 4) — the guest process
    then consumes the message (handled in :mod:`repro.guest.process`).

Every "must be scheduled" wait is produced by the installed scheduler, so
the dependence of cross-VM synchronization overhead on time-slice length
*emerges* rather than being assumed.

Packets carry timestamps for each hop so the Fig. 4 bench can report the
four overhead sources individually.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.hypervisor.vm import VCPUState, VM
from repro.obs import trace as obstrace
from repro.sim.units import USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.network import Fabric
    from repro.hypervisor.vmm import VMM

__all__ = ["Packet", "Dom0Params", "Dom0"]


class Packet:
    """A guest-to-guest network message, with hop timestamps."""

    __slots__ = (
        "src_vm",
        "src_proc",
        "dst_vm",
        "dst_proc",
        "nbytes",
        "tag",
        "t_send",
        "t_netback_tx",
        "t_arrive",
        "t_delivered",
        "t_consumed",
    )

    def __init__(self, src_vm: VM, src_proc: int, dst_vm: VM, dst_proc: int, nbytes: int, tag: int = 0) -> None:
        self.src_vm = src_vm
        self.src_proc = src_proc
        self.dst_vm = dst_vm
        self.dst_proc = dst_proc
        self.nbytes = nbytes
        self.tag = tag
        self.t_send = -1  # guest put packet in I/O ring
        self.t_netback_tx = -1  # src dom0 finished netback processing
        self.t_arrive = -1  # last bit arrived at dst node
        self.t_delivered = -1  # dst dom0 copied into guest I/O ring
        self.t_consumed = -1  # guest process consumed the message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet {self.src_vm.name}.{self.src_proc}->"
            f"{self.dst_vm.name}.{self.dst_proc} {self.nbytes}B tag={self.tag}>"
        )


@dataclass(frozen=True)
class Dom0Params:
    """Driver-domain cost model."""

    #: dom0 VCPUs (Xen default gives dom0 several; 1 keeps the model tight
    #: and is the common pinned-dom0 deployment for 8-core hosts).
    n_vcpus: int = 1
    #: Netback CPU cost to process one outbound message (copy + NIC kick).
    netback_tx_ns: int = 10 * USEC
    #: Netback CPU cost to process one inbound message (copy to I/O ring).
    netback_rx_ns: int = 10 * USEC
    #: Block-backend CPU cost to submit one disk request.
    blkback_ns: int = 6 * USEC
    #: Scheduler weight of dom0 (slightly favoured, as in practice).
    weight: float = 2.0


class _Dom0Worker:
    """Preemptible job processor bound to one dom0 VCPU.

    Jobs are ``(cost_ns, completion_fn)``; the worker consumes them FIFO,
    surviving slice ends and preemptions with partial progress, and blocks
    its VCPU when the queue drains.
    """

    __slots__ = ("sim", "dom0", "vcpu", "cur_cost", "cur_fn", "_ev", "_started", "_block_ev", "_epoch")
    cache_sensitivity = 0.3  # kernel net path: modest cache footprint

    def __init__(self, sim, dom0: "Dom0", vcpu) -> None:
        self.sim = sim
        self.dom0 = dom0
        self.vcpu = vcpu
        self.cur_cost = 0
        self.cur_fn: Optional[Callable[[], None]] = None
        self._ev = None
        #: When the current job's stretch began; ``None`` while no job runs.
        #: ``_ev`` is ``None`` also when the VMM skipped the timer because
        #: the slice ends first (:meth:`VMM.arm_runner_timer`).
        self._started: Optional[int] = None
        self._block_ev = None
        self._epoch = 0  # bumped on every dispatch/preempt (reentrancy guard)

    # Runner protocol ---------------------------------------------------
    def on_dispatch(self, now: int, overhead_ns: int) -> None:
        self._epoch += 1
        if self._block_ev is not None:
            self._block_ev.cancel()
            self._block_ev = None
        if self.cur_fn is not None:
            self.cur_cost += overhead_ns
            self._started = now
            self._ev = self._arm_finish()
        elif self.dom0.queue:
            self._start_next(overhead_ns)
        else:
            # Dispatched with nothing to do (can happen when work was
            # consumed by a sibling worker); block in a follow-up event.
            self._block_ev = self.sim.after(0, self._idle_block, cat="dom0")

    def on_preempt(self, now: int) -> None:
        self._epoch += 1
        if self._started is not None:
            self.cur_cost = max(0, self.cur_cost - (now - self._started))
            self._started = None
            if self._ev is not None:
                self._ev.cancel()
                self._ev = None
        if self._block_ev is not None:
            self._block_ev.cancel()
            self._block_ev = None

    # Internals ----------------------------------------------------------
    def _arm_finish(self):
        return self.dom0.vmm.arm_runner_timer(self.vcpu, self.cur_cost, self._finish, "dom0")

    def _idle_block(self) -> None:
        self._block_ev = None
        if self.vcpu.state is VCPUState.RUNNING and self.cur_fn is None and not self.dom0.queue:
            self.vcpu.block()

    def _start_next(self, overhead_ns: int = 0) -> None:
        cost, fn = self.dom0.queue.popleft()
        self.cur_cost = cost + overhead_ns
        self.cur_fn = fn
        self._started = self.sim.now
        self._ev = self._arm_finish()

    def _finish(self) -> None:
        self._ev = None
        self._started = None
        fn = self.cur_fn
        self.cur_fn = None
        self.cur_cost = 0
        epoch = self._epoch
        fn()  # may wake guests, which can preempt *this* VCPU synchronously
        if self._epoch != epoch:
            # Preempted (and possibly already re-dispatched with the next
            # job) during fn(): the new dispatch owns the worker now.
            return
        if self.vcpu.state is not VCPUState.RUNNING:
            return  # pragma: no cover - preempt without redispatch
        if self.dom0.queue:
            self._start_next()
        else:
            self.vcpu.block()


class Dom0:
    """The driver domain of one node."""

    __slots__ = (
        "sim",
        "vmm",
        "fabric",
        "params",
        "vm",
        "queue",
        "workers",
        "packets_tx",
        "packets_rx",
        "packets_forwarded",
    )

    def __init__(self, sim, vmm: "VMM", fabric: "Fabric", params: Dom0Params | None = None) -> None:
        self.sim = sim
        self.vmm = vmm
        self.fabric = fabric
        self.params = params or Dom0Params()
        self.vm = VM(
            vmm.node,
            self.params.n_vcpus,
            name=f"dom0-{vmm.node.index}",
            is_parallel=False,
            is_dom0=True,
            weight=self.params.weight,
        )
        self.queue: deque[tuple[int, Callable[[], None]]] = deque()
        self.workers = []
        for vcpu in self.vm.vcpus:
            worker = _Dom0Worker(sim, self, vcpu)
            vcpu.runner = worker
            self.workers.append(worker)
        vmm.add_vm(self.vm)
        vmm.dom0 = self
        self.packets_tx = 0
        self.packets_rx = 0
        self.packets_forwarded = 0

    # ------------------------------------------------------------------
    def _enqueue(self, cost_ns: int, fn: Callable[[], None]) -> None:
        self.queue.append((cost_ns, fn))
        # Event-channel notification: wake a blocked dom0 VCPU.
        for vcpu in self.vm.vcpus:
            if vcpu.state is VCPUState.BLOCKED:
                vcpu.wake()
                break

    # ------------------------------------------------------------------
    # Network path (Fig. 4)
    # ------------------------------------------------------------------
    def _emit_hop(self, hop: str, pkt: Packet) -> None:
        obstrace.emit(
            "pkt.hop",
            self.sim.now,
            node=self.vmm.node.index,
            hop=hop,
            src=f"{pkt.src_vm.name}.{pkt.src_proc}",
            dst=f"{pkt.dst_vm.name}.{pkt.dst_proc}",
            nbytes=pkt.nbytes,
            tag=pkt.tag,
        )

    def send_packet(self, pkt: Packet) -> None:
        """Steps 1-2: guest placed ``pkt`` in the I/O ring and notified us."""
        pkt.t_send = self.sim.now
        self.packets_tx += 1
        if obstrace.enabled:
            self._emit_hop("send", pkt)
        self._enqueue(self.params.netback_tx_ns, lambda: self._tx_done(pkt))

    def _tx_done(self, pkt: Packet) -> None:
        """Steps 4-5: netback copied the packet and the NIC sends it."""
        pkt.t_netback_tx = self.sim.now
        if obstrace.enabled:
            self._emit_hop("netback_tx", pkt)
        dst_node = pkt.dst_vm.node
        if dst_node is self.vmm.node:
            # Same-host inter-VM traffic loops through the dom0 bridge.
            self.recv_packet(pkt)
        else:
            dst_dom0 = dst_node.vmm.dom0
            self.fabric.transmit(
                self.vmm.node.index,
                dst_node.index,
                pkt.nbytes,
                lambda: dst_dom0.recv_packet(pkt),
            )

    def recv_packet(self, pkt: Packet) -> None:
        """Step 7 entry: the packet reached this node; netback (rx side)
        must run to copy it into the destination guest's I/O ring."""
        pkt.t_arrive = self.sim.now
        self.packets_rx += 1
        if obstrace.enabled:
            self._emit_hop("arrive", pkt)
        self._enqueue(self.params.netback_rx_ns, lambda: self._rx_done(pkt))

    def _rx_done(self, pkt: Packet) -> None:
        """Steps 8-9: copy into the guest ring and signal its event channel.

        If the destination VM was live-migrated away while the packet was
        in flight (or queued behind netback), dom0 forwards it to the VM's
        current node instead — delivery to a stale residency is
        structurally impossible (sanitizer rule SAN007)."""
        dst_node = pkt.dst_vm.node
        if dst_node is not self.vmm.node:
            self.packets_forwarded += 1
            if obstrace.enabled:
                self._emit_hop("forward", pkt)
            dst_dom0 = dst_node.vmm.dom0
            self.fabric.transmit(
                self.vmm.node.index,
                dst_node.index,
                pkt.nbytes,
                lambda: dst_dom0.recv_packet(pkt),
            )
            return
        pkt.t_delivered = self.sim.now
        if obstrace.enabled:
            self._emit_hop("delivered", pkt)
        pkt.dst_vm.deliver(pkt)

    # ------------------------------------------------------------------
    # Block path
    # ------------------------------------------------------------------
    def submit_disk(self, nbytes: int, done_fn: Callable[[], None]) -> None:
        """Guest block I/O: blkback CPU cost, then the physical disk; the
        completion interrupt is delivered straight to the guest."""
        disk = self.vmm.node.disk
        self._enqueue(self.params.blkback_ns, lambda: disk.submit(nbytes, done_fn))
