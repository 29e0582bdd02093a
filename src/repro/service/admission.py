"""Online admission-control policies for :mod:`repro.service`.

A policy is a pure function ``policy(service, tenant) -> (verdict,
assignment)`` consulted at submission time and again whenever the head
of the wait queue gets another chance (a departure freed capacity, or a
scheduling period passed).  ``verdict`` is one of:

* ``"admit"``  — place the tenant now; ``assignment`` lists the node
  index for each of its VMs (validated and applied by
  ``CloudWorld.virtual_cluster``).
* ``"queue"``  — hold the tenant in the FCFS wait queue.
* ``"reject"`` — turn the tenant away for good.

Policies must be deterministic: no RNG, no set iteration, ties broken
by node index.  They read only what the cloud control plane can see —
per-node VM loads, the placement registry
(:mod:`repro.virtcluster.placement`) and the per-host parallel-cluster
census (:func:`repro.migration.policies.parallel_census`).

Registry:

* ``reject-on-full``   — admit whenever the world's placement policy
  finds room, else reject immediately (loss system, M/G/c/c-style).
* ``fcfs-queue``       — same placement test, but hold tenants that do
  not fit in a strict FIFO queue (head-of-line blocking included: the
  queue drains in order or not at all).
* ``migration-aware``  — prefer placements that will not later need
  demixing: every VM goes to a node hosting no *other* parallel
  cluster.  When no such placement exists the policy reports admission
  pressure by kicking the migration rebalancer (an off-cycle demix
  round can make room) and queues the tenant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.migration.policies import parallel_census
from repro.virtcluster.placement import place

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.harness import CloudWorld
    from repro.service.service import CloudService, Tenant

__all__ = [
    "ADMISSIONS",
    "admission_names",
    "reject_on_full",
    "fcfs_queue",
    "migration_aware",
    "antimix_assignment",
]

Decision = tuple[str, Optional[list[int]]]


def _world_placement(service: "CloudService", tenant: "Tenant") -> Optional[list[int]]:
    """Assignment under the world's configured placement policy, or
    ``None`` when capacity is exhausted."""
    world = service.world
    try:
        assignment, _ = place(
            world.config.placement,
            tenant.n_vms,
            world._node_vm_load,
            world.config.vms_per_node,
            cluster=tenant.name,
        )
    except RuntimeError:
        return None
    return assignment


def reject_on_full(service: "CloudService", tenant: "Tenant") -> Decision:
    """Admit if the world placement finds room, else reject (no queue)."""
    assignment = _world_placement(service, tenant)
    if assignment is None:
        return "reject", None
    return "admit", assignment


def fcfs_queue(service: "CloudService", tenant: "Tenant") -> Decision:
    """Admit if the world placement finds room, else wait in FIFO order."""
    assignment = _world_placement(service, tenant)
    if assignment is None:
        return "queue", None
    return "admit", assignment


def antimix_assignment(world: "CloudWorld", n_vms: int) -> Optional[list[int]]:
    """A placement in which no VM shares a node with a *foreign* parallel
    cluster (the tenant's own VMs may co-locate), or ``None`` if none
    exists.  Candidate nodes are ranked least-loaded first, lowest index
    on ties — the same tie-break as the ``spread`` placer."""
    census = parallel_census(world)
    nodes = world.cluster.nodes
    cap = world.config.vms_per_node
    loads = list(world._node_vm_load)
    out: list[int] = []
    for _ in range(n_vms):
        best: Optional[tuple[tuple[int, int], int]] = None
        for i in range(len(loads)):
            if i in census or nodes[i].crashed or loads[i] >= cap:
                continue
            key = (loads[i], i)
            if best is None or key < best[0]:
                best = (key, i)
        if best is None:
            return None
        loads[best[1]] += 1
        out.append(best[1])
    return out


def migration_aware(service: "CloudService", tenant: "Tenant") -> Decision:
    """Admit only onto nodes free of foreign parallel clusters; under
    admission pressure, kick the rebalancer and queue the tenant."""
    assignment = antimix_assignment(service.world, tenant.n_vms)
    if assignment is not None:
        return "admit", assignment
    service.kick_rebalancer()
    return "queue", None


#: Admission registry: name -> policy(service, tenant) -> (verdict, assignment).
ADMISSIONS: dict[str, Callable[["CloudService", "Tenant"], Decision]] = {
    "fcfs-queue": fcfs_queue,
    "reject-on-full": reject_on_full,
    "migration-aware": migration_aware,
}


def admission_names() -> list[str]:
    return sorted(ADMISSIONS)
