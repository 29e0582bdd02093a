"""The benchmark's workloads, their cells, and the result digests.

Each workload is a short list of :class:`~repro.experiments.runner.RunSpec`
cells that one pass runs through ``run_sweep(jobs=1, use_cache=False)``.
The ``--seed`` of a run is folded onto one of :data:`REFERENCE_SEEDS`
scenario seeds, so that every run's simulated output can be checked against
a digest recorded for that seed in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from repro.experiments.harness import CloudWorld, WorldConfig
from repro.experiments.runner import SCENARIOS, RunSpec
from repro.sim.rng import SimRNG
from repro.sim.units import SEC
from repro.workloads.npb import NPB_NAMES
from repro.workloads.traces import paper_vc_mix

__all__ = [
    "REFERENCE_SEEDS",
    "REFERENCE_PATH",
    "WORKLOADS",
    "scenario_seed",
    "scenario_functions",
    "workload_specs",
    "run_table1_atc",
    "result_digest",
    "load_reference",
    "reference_digests",
    "write_reference",
]

#: ``--seed`` is taken modulo this; each residue has recorded digests.
REFERENCE_SEEDS = 16

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Seed whose draw fixes the Table-I application mix (see run_table1_atc).
TABLE1_MIX_SEED = 0

#: Result keys that carry host time or engine cost, not simulated outcome.
_NON_OUTCOME_KEYS = frozenset({"events", "profile", "wall_s"})


def scenario_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def run_table1_atc(seed: int = 0, horizon_s: float = 1.0, scheduler: str = "ATC") -> dict:
    """The paper's Table-I platform (32 nodes, 128 VMs, 1,024 VCPUs) with a
    fixed application mix.

    ``repro``'s ``run_table1_cell`` draws each virtual cluster's NPB kernel
    from the world seed, so the amount of work changes several-fold from
    seed to seed.  Here the mix is the one that cell draws at seed
    :data:`TABLE1_MIX_SEED`, and ``seed`` drives every other random stream
    (per-rank compute jitter and programs).  At ``seed=0`` the result equals
    ``run_table1_cell(seed=0)``.
    """
    mix = paper_vc_mix()
    world = CloudWorld(
        WorldConfig(
            n_nodes=32,
            scheduler=scheduler,
            seed=seed,
            vcpus_per_vm=mix.vcpus_per_vm,
            vms_per_node=4,
        )
    )
    pick = SimRNG(TABLE1_MIX_SEED).substream(999)
    vc_apps = []
    for i, size in enumerate(mix.cluster_sizes_vms):
        vc = world.virtual_cluster(n_vms=size, name=f"VC{i + 1}")
        app_name = pick.choice(NPB_NAMES)
        vc_apps.append((vc, world.add_npb(app_name, vc.vms, rounds=None, warmup_rounds=1)))
    indep_apps = []
    for j in range(mix.independent_vms):
        vm = world.new_vm(name=f"ind{j}")
        indep_apps.append(world.add_npb(pick.choice(["lu", "is"]), [vm], rounds=None, warmup_rounds=1))
    world.run(horizon_ns=round(horizon_s * SEC))
    return {
        "scheduler": scheduler,
        "n_nodes": 32,
        "n_vms": len(world.vms),
        "total_vcpus": sum(len(vm.vcpus) for vm in world.vms),
        "vcs": [
            {
                "vc": vc.name,
                "n_vms": vc.n_vms,
                "app": app.spec.name,
                "mean_round_ns": app.mean_round_ns,
                "rounds": len(app.round_times),
            }
            for vc, app in vc_apps
        ],
        "independent_rounds": sum(len(a.round_times) for a in indep_apps),
        "sim_time_ns": world.sim.now,
        "events": world.sim.events_processed,
    }


#: workload -> scenario seed -> the (scenario, params) of each cell of a pass
WORKLOADS = {
    "table1_atc": lambda s: [
        ("table1_atc", {"seed": s, "horizon_s": 1.0}),
    ],
    "mixed_io_cr": lambda s: [
        ("small_mix", {"scheduler": "CR", "seed": s, "horizon_s": 60.0}),
    ],
    "control_plane": lambda s: [
        (
            "dfrs_compare",
            {"mode": "hybrid", "seed": s, "horizon_s": 6.0, "dfrs": {"allow_moves": True}},
        ),
        (
            "service",
            {
                "admission": "migration-aware",
                "seed": s,
                "horizon_s": 30.0,
                "rate_per_s": 4.0,
                "max_tenants": 40,
                "rounds": 2,
                "apps": ["lu"],
                "min_vcpus": 16,
                "max_vcpus": 16,
            },
        ),
    ],
}


def scenario_functions(workload: str) -> dict:
    """Scenario name -> function, for the scenarios a workload runs."""
    own = {"table1_atc": run_table1_atc}
    names = {name for name, _ in WORKLOADS[workload](0)}
    return {name: own[name] if name in own else SCENARIOS[name] for name in sorted(names)}


def workload_specs(workload: str, seed: int) -> list[RunSpec]:
    """The cells of one pass (scenarios must be registered)."""
    return [RunSpec(name, params) for name, params in WORKLOADS[workload](scenario_seed(seed))]


def result_digest(value: dict) -> str:
    """SHA-256 of a cell's simulated outcome: the result dict without
    event counts and host-side keys, canonically JSON-encoded."""
    body = {k: v for k, v in value.items() if k not in _NON_OUTCOME_KEYS}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_digests(reference: dict, workload: str, seed: int) -> Optional[list[str]]:
    return reference.get("workloads", {}).get(workload, {}).get(str(scenario_seed(seed)))


def write_reference(reference: dict, path: Path = REFERENCE_PATH) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
