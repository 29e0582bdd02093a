"""Command-line interface: run any of the paper's experiments directly.

Run modes: every experiment verb (``repro list``) is a row of
:data:`VERBS` and executes through :mod:`repro.experiments.runner`.
``--jobs N`` fans its independent cells over N worker processes
(bit-identical to serial), results are cached under ``.repro_cache/``
(``--no-cache`` bypasses it), ``--json PATH`` exports the full result
set, ``--sanitize`` runs every cell under the runtime invariant sanitizer
(:mod:`repro.analysis.sanitizer`; violations fail the cell),
``--cell-timeout S`` bounds each cell's host wall clock and ``--salvage
PATH`` writes the structured partial-result report.  The tool verbs
(``trace``, ``perf``, ``lint``, ``races``) have their own handlers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    RunResult,
    RunSpec,
    export_json,
    run_sweep,
    sweep_stats,
    write_salvage,
)
from repro.schedulers.registry import scheduler_names
from repro.service.admission import admission_names
from repro.workloads.npb import NPB_EXTENDED

__all__ = ["main", "build_parser", "VERBS"]

COMPARE_SCHEDS = ("CR", "BS", "CS", "DSS", "ATC")
DFRS_MODES = ("baseline", "atc", "dfrs", "hybrid")

#: Every flag used by more than one verb, declared once as its
#: ``add_argument`` keywords.  A verb names the flags it takes and may
#: override keywords (usually the default); a name missing here is a flag
#: private to one verb, declared entirely by that verb's keywords.
ARGS: dict[str, dict] = {
    "scheduler": dict(default="ATC", choices=scheduler_names()),
    "nodes": dict(type=int, default=2),
    "seed": dict(type=int, default=0),
    "app": dict(default="lu", choices=NPB_EXTENDED),
    "rounds": dict(type=int, default=2),
    "npb-class": dict(default="B", choices=["A", "B", "C"]),
    "horizon": dict(type=float, help="virtual seconds"),
    "slice": dict(type=float, default=None, help="uniform slice (ms)"),
    "faults": dict(default=None, metavar="SPEC",
                   help="fault plan: random:N[:SEED], inline JSON, or a plan file"),
    "placement": dict(default="pack", metavar="POLICY",
                      help="initial placement: spread, pack, striped, or "
                      "random:SEED (default pack, which mixes clusters)"),
    "clusters": dict(type=int, default=2, metavar="N",
                     help="parallel virtual clusters (default 2)"),
    "vms-per-cluster": dict(type=int, default=2, metavar="N"),
    "json": dict(metavar="PATH", default=None,
                 help="export the full sweep results as JSON"),
    "jobs": dict(type=int, default=1, metavar="N",
                 help="worker processes for independent cells (default 1)"),
    "no-cache": dict(action="store_true",
                     help="bypass the on-disk result cache (.repro_cache/)"),
    "sanitize": dict(action="store_true",
                     help="run cells under the runtime invariant sanitizer "
                     "(bit-identical results; violations fail the cell)"),
    "cell-timeout": dict(type=float, default=None, metavar="S",
                         help="host wall-clock budget per cell; overdue workers "
                         "are killed and the cell fails, the sweep continues"),
    "salvage": dict(metavar="PATH", default=None,
                    help="write the structured salvage report (healthy + "
                    "failed cells) as JSON"),
}

#: The runner flags every table verb takes after its own.
RUNNER_ARGS = ("jobs", "no-cache", "json", "sanitize", "cell-timeout", "salvage")


def _add_args(sp: argparse.ArgumentParser, names: Sequence) -> None:
    """Add ``--name`` for each entry: a flag name, or ``(name, overrides)``."""
    for item in names:
        name, overrides = (item, {}) if isinstance(item, str) else item
        sp.add_argument(f"--{name}", **{**ARGS.get(name, {}), **overrides})


class UsageError(Exception):
    """A verb's arguments cannot form cells (exit code 2)."""


@dataclass(frozen=True)
class Verb:
    """A table verb: the cells it runs and the table it prints from them.

    ``args`` are the verb's own flags in :func:`_add_args` form; the
    dispatcher appends :data:`RUNNER_ARGS`.  ``after`` runs once the table is printed and returns the exit code
    (extra stderr lines, a second table).  A ``partial`` verb renders
    failed cells too instead of exiting 1 before the table.
    """

    help: str
    args: tuple
    cells: Callable[[argparse.Namespace], list[RunSpec]]
    table: Callable[[argparse.Namespace, list[RunResult]], tuple]
    after: Optional[Callable[[argparse.Namespace, list[RunResult]], int]] = None
    partial: bool = False
    defaults: Mapping = field(default_factory=dict)


def _progress(done: int, total: int, result) -> None:
    state = "cached" if result.cached else ("ok" if result.ok else "FAILED")
    print(
        f"[{done}/{total}] {result.spec.label}: {state} ({result.wall_s:.2f}s)",
        file=sys.stderr,
    )


def _run_cells(args, specs: list[RunSpec]) -> list[RunResult]:
    """Execute cells through the shared runner, reporting to stderr."""
    progress = _progress if (args.jobs > 1 or len(specs) > 1) else None
    results = run_sweep(
        specs,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        progress=progress,
        cell_timeout_s=args.cell_timeout,
    )
    if args.json:
        export_json(results, args.json)
    if args.salvage:
        print(f"salvage report: {write_salvage(results, args.salvage)}", file=sys.stderr)
    stats = sweep_stats(results)
    if len(specs) > 1:
        print(
            f"{stats['cells']} cells: {stats['ok']} ok "
            f"({stats['cached']} cached), {stats['failed']} failed, "
            f"{stats['wall_s']:.2f}s simulated wall, {stats['events']} events",
            file=sys.stderr,
        )
    for r in results:
        if r.ok:
            continue
        err = r.error or {}
        print(
            f"cell {r.spec.label} failed after {err.get('attempts', '?')} attempts: "
            f"{err.get('type')}: {err.get('message')}",
            file=sys.stderr,
        )
        for v in err.get("violations", [])[:10]:
            print(
                f"  {v['code']} @t={v['time_ns']}: {v['message']}",
                file=sys.stderr,
            )
    return results


def _run_verb(name: str, args) -> int:
    """The one path every table verb takes: cells -> runner -> table."""
    verb = VERBS[name]
    try:
        specs = verb.cells(args)
    except UsageError as exc:
        print(f"repro {name}: {exc}", file=sys.stderr)
        return 2
    specs = [dataclasses.replace(s, sanitize=args.sanitize) for s in specs]
    results = _run_cells(args, specs)
    if not verb.partial and not all(r.ok for r in results):
        return 1
    headers, rows, title = verb.table(args, results)
    print(format_table(headers, rows, title=title))
    return verb.after(args, results) if verb.after else 0


def _faults(args, horizon_s: float) -> dict:
    """``--faults`` spec -> ``{"faults": plan dicts}``, or ``{}`` for none."""
    if not args.faults:
        return {}
    from repro.faults.plan import parse_fault_spec
    from repro.sim.units import SEC

    plan = parse_fault_spec(args.faults, args.nodes, round(horizon_s * SEC))
    return {"faults": plan.to_dicts()} if plan else {}


def _type_a(args, scheduler: str, **extra) -> dict:
    return dict(app_name=args.app, scheduler=scheduler, n_nodes=args.nodes,
                rounds=args.rounds, warmup_rounds=1, **extra)


# ----------------------------------------------------------------------
# Table verbs: cells(args) and table(args, results) [-> after(args, results)]
# ----------------------------------------------------------------------
def _typea_cells(args) -> list[RunSpec]:
    params = _type_a(args, args.scheduler, npb_class=args.npb_class, seed=args.seed,
                     **_faults(args, 300.0))
    return [RunSpec("type_a", params)]


def _typea_table(args, results):
    r = results[0].value
    return (
        ["app", "scheduler", "nodes", "mean round (ms)", "avg spin (ms)", "done"],
        [(r["app"], r["scheduler"], r["n_nodes"], r["mean_round_ns"] / 1e6,
          r["avg_spin_ns"] / 1e6, r["all_done"])],
        "Evaluation type A",
    )


def _compare_cells(args) -> list[RunSpec]:
    return [
        RunSpec("type_a", _type_a(args, sched, seed=args.seed), label=f"compare:{sched}")
        for sched in COMPARE_SCHEDS
    ]


def _compare_table(args, results):
    base = results[0].value["mean_round_ns"]
    rows = [
        (sched, r.value["mean_round_ns"] / 1e6, r.value["mean_round_ns"] / base)
        for sched, r in zip(COMPARE_SCHEDS, results)
    ]
    return (["scheduler", "mean round (ms)", "normalized vs CR"], rows,
            f"Type A comparison — {args.app} on {args.nodes} nodes")


def _sweep_cells(args) -> list[RunSpec]:
    try:
        slices = [float(s) for s in args.slices.split(",")]
    except ValueError:
        raise UsageError(
            f"--slices expects comma-separated ms values, got {args.slices!r}"
        ) from None
    extra = _faults(args, 300.0)
    return [
        RunSpec("slice_sweep", dict(
            app_name=args.app, slice_ms_values=[sm], n_nodes=args.nodes,
            rounds=2, warmup_rounds=1, npb_class=args.npb_class, seed=args.seed,
            **extra,
        ), label=f"sweep:{args.app}@{sm}ms")
        for sm in slices
    ]


def _sweep_table(args, results):
    rows = [
        (row["slice_ms"], row["mean_round_ns"] / 1e6, row["avg_spin_ns"] / 1e6,
         row["context_switches"], row["llc_misses"])
        for r in results
        for row in r.value["rows"]
    ]
    return (["slice (ms)", "round (ms)", "spin (ms)", "ctx switches", "LLC misses"], rows,
            f"Slice sweep — {args.app}.{args.npb_class} (CR)")


def _mix_cells(args) -> list[RunSpec]:
    return [RunSpec("small_mix", dict(
        scheduler=args.scheduler, seed=args.seed, horizon_s=args.horizon,
        atc_np_slice_ms=args.np_slice,
    ))]


def _mix_table(args, results):
    r = results[0].value
    rows = [
        ("parallel mean round (ms)", r["parallel_mean_round_ns"] / 1e6),
        ("sphinx3 run (ms)", r["sphinx3_mean_run_ns"] / 1e6),
        ("stream bandwidth (GB/s)", r["stream_bandwidth_Bps"] / 1e9),
        ("bonnie++ throughput (MB/s)", r["bonnie_throughput_Bps"] / 1e6),
        ("ping RTT (ms)", r["ping_mean_rtt_ns"] / 1e6),
    ]
    title = f"Mixed tenancy — {args.scheduler}"
    if args.np_slice is not None:
        title += f" (non-parallel slice {args.np_slice} ms)"
    return ["metric", "value"], rows, title


def _typeb_cells(args) -> list[RunSpec]:
    return [RunSpec("type_b", dict(
        scheduler=args.scheduler, n_nodes=args.nodes, seed=args.seed,
        horizon_s=args.horizon,
    ))]


def _typeb_table(args, results):
    rows = [
        (vc["vc"], vc["app"], vc["n_vms"], vc["rounds"],
         vc["mean_round_ns"] / 1e6 if vc["mean_round_ns"] == vc["mean_round_ns"] else "n/a")
        for vc in results[0].value["vcs"]
    ]
    return (["VC", "app", "VMs", "rounds", "mean round (ms)"], rows,
            f"Type B (LLNL trace mix) — {args.scheduler} on {args.nodes} nodes")


def _chaos_cells(args) -> list[RunSpec]:
    faults = _faults(args, args.horizon)
    if not faults:
        raise UsageError("--faults resolved to an empty plan")
    base = _type_a(args, args.scheduler, seed=args.seed, horizon_s=args.horizon)
    return [
        RunSpec("type_a", base, label="chaos:baseline"),
        RunSpec("type_a", dict(base, **faults), label="chaos:faulted"),
    ]


def _chaos_table(args, results):
    rows = []
    for r in results:
        if r.ok:
            v = r.value
            rows.append((r.spec.label, v["rounds_measured"], v["mean_round_ns"] / 1e6,
                         v["avg_spin_ns"] / 1e6, v["all_done"], v["events"]))
        else:
            err = (r.error or {}).get("type", "?")
            rows.append((r.spec.label, "-", "-", "-", f"FAILED:{err}", "-"))
    return (["cell", "rounds", "mean round (ms)", "avg spin (ms)", "done", "events"], rows,
            f"Chaos — {args.app} on {args.nodes} nodes, plan {args.faults}")


def _chaos_after(args, results) -> int:
    faulted = next((r for r in results if r.spec.label == "chaos:faulted" and r.ok), None)
    if faulted is not None and "faults" in faulted.value:
        fs = faulted.value["faults"]
        inj = ", ".join(f"{k}x{n}" for k, n in sorted(fs["injected"].items())) or "none"
        healed = sum(fs["healed"].values())
        print(
            f"faults: {fs['events']} planned, injected [{inj}], {healed} healed; "
            f"net: {fs['messages_dropped']} dropped, {fs['retransmits']} retransmits, "
            f"{fs['messages_lost']} lost",
            file=sys.stderr,
        )
    return 0 if all(r.ok for r in results) else 1


def _migrate_cells(args) -> list[RunSpec]:
    base = dict(
        placement=args.placement, scheduler=args.scheduler, n_nodes=args.nodes,
        n_clusters=args.clusters, vms_per_cluster=args.vms_per_cluster,
        app_name=args.app, seed=args.seed, horizon_s=args.horizon,
        **_faults(args, args.horizon),
    )
    return [
        RunSpec("migration_rebalance", dict(base, policy="static"), label="migrate:static"),
        RunSpec("migration_rebalance", dict(base, policy=args.policy),
                label=f"migrate:{args.policy}"),
    ]


def _migrate_table(args, results):
    rows = []
    for r in results:
        v = r.value
        mig = v.get("migration", {})
        rows.append((
            r.spec.label, v["parallel_mean_round_ns"] / 1e6,
            mig.get("completed", 0), mig.get("aborted", 0),
            mig.get("downtime_total_ns", 0) / 1e6, v["events"],
        ))
    return (["cell", "parallel round (ms)", "migrations", "aborted", "downtime (ms)", "events"],
            rows,
            f"Migration rebalance — {args.app} x{args.clusters} clusters, "
            f"{args.placement} placement on {args.nodes} nodes")


def _migrate_after(args, results) -> int:
    static, rebalanced = (r.value["final_nodes"] for r in results)
    moved = {vm: node for vm, node in rebalanced.items() if static.get(vm) != node}
    if moved:
        placed = ", ".join(f"{vm}->node{n}" for vm, n in sorted(moved.items()))
        print(f"moved: {placed}", file=sys.stderr)
    return 0


def _dfrs_cells(args) -> list[RunSpec]:
    dfrs = {"solve_every": args.solve_every, "headroom": args.headroom}
    if args.moves:
        dfrs["allow_moves"] = True
    base = dict(
        placement=args.placement, n_nodes=args.nodes,
        n_clusters=args.clusters, vms_per_cluster=args.vms_per_cluster,
        app_name=args.app, seed=args.seed, horizon_s=args.horizon,
        dfrs=dfrs,
    )
    return [
        RunSpec("dfrs_compare", dict(base, mode=mode), label=f"dfrs:{mode}")
        for mode in DFRS_MODES
    ]


def _dfrs_table(args, results):
    base_round = results[0].value["parallel_mean_round_ns"]
    rows = []
    for mode, r in zip(DFRS_MODES, results):
        v = r.value
        d = v.get("dfrs", {})
        rows.append((
            mode, v["scheduler"],
            v["parallel_mean_round_ns"] / 1e6,
            v["parallel_mean_round_ns"] / base_round,
            v["np_mean_run_ns"] / 1e6,
            d.get("solves", "-"), d.get("caps_applied", "-"),
            f"{d['last_min_yield']:.3f}" if d else "-",
        ))
    return (["mode", "sched", "parallel round (ms)", "vs CR",
             "sphinx3 (ms)", "solves", "caps", "min yield"],
            rows,
            f"DFRS comparator — {args.app} x{args.clusters} clusters, "
            f"{args.placement} placement on {args.nodes} nodes")


def _dfrs_after(args, results) -> int:
    violations = sum(r.value.get("dfrs", {}).get("violations", 0) for r in results)
    if violations:
        print(f"SAN009: {violations} allocation-consistency violation(s)", file=sys.stderr)
        return 1
    return 0


def _serve_cells(args) -> list[RunSpec]:
    params = dict(
        admission=args.admission, arrival=args.arrival, scheduler=args.scheduler,
        n_nodes=args.nodes, placement=args.placement, rate_per_s=args.rate,
        max_tenants=args.tenants, rounds=args.rounds, seed=args.seed,
        horizon_s=args.horizon,
    )
    if args.trace_file:
        with open(args.trace_file) as fh:
            params["service_trace"] = json.load(fh)
    return [RunSpec("service", params, label=f"serve:{args.admission}")]


def _serve_table(args, results):
    s = results[0].value["service"]
    rows = [
        ("submitted", s["submitted"]),
        ("admitted", s["admitted"]),
        ("rejected", s["rejected"]),
        ("departed", s["departed"]),
        ("still running", s["running_now"]),
        ("still queued", s["queued_now"]),
        ("queue peak", s["queue_peak"]),
        ("mean wait (ms)", f"{s['wait_mean_ns'] / 1e6:.3f}"),
        ("mean slowdown", f"{s['slowdown_mean']:.3f}"),
        ("rebalancer kicks", s["rebalancer_kicks"]),
    ]
    return (["metric", "value"], rows,
            f"Service — {args.admission} admission, {args.arrival} "
            f"arrivals on {args.nodes} nodes")


def _serve_after(args, results) -> int:
    tenant_rows = [
        (t["name"], t["app"], t["n_vms"], t["state"],
         "-" if t["wait_ns"] is None else f"{t['wait_ns'] / 1e6:.3f}",
         "-" if t["slowdown"] is None else f"{t['slowdown']:.3f}")
        for t in results[0].value["service"]["tenants"]
    ]
    if tenant_rows:
        print(format_table(["tenant", "app", "vms", "state", "wait (ms)", "slowdown"],
                           tenant_rows, title="Tenants"))
    return 0


def _attack_scheds(args) -> list[str]:
    return [args.scheduler] if args.scheduler else ["CR", "ATC"]


def _attack_cells(args) -> list[RunSpec]:
    return [
        RunSpec("attack", dict(
            scheduler=sched, hardened=hardened, attack=attack,
            seed=args.seed, horizon_s=args.horizon, victim_app=args.app,
        ), label="attack:{}:{}:{}".format(
            sched, "hard" if hardened else "open", "atk" if attack else "clean"
        ))
        for sched in _attack_scheds(args)
        for hardened in (False, True)
        for attack in (False, True)
    ]


def _victim_slowdowns(args, results) -> dict:
    """``{(scheduler, hardened): (attacked cell, victim slowdown)}``."""
    by = {(r.value["scheduler"], r.value["hardened"], r.value["attack"]): r.value
          for r in results}
    out = {}
    for sched in _attack_scheds(args):
        for hardened in (False, True):
            atk = by[(sched, hardened, True)]
            clean = by[(sched, hardened, False)]
            out[(sched, hardened)] = (
                atk, atk["victim_mean_round_ns"] / clean["victim_mean_round_ns"])
    return out


def _attack_table(args, results):
    rows = [
        (sched, "hardened" if hardened else "unhardened", f"{slow:.3f}",
         f"{atk['thief']['gain']:.3f}",
         atk["tickler"]["boost_preempts_inflicted"],
         atk["victim_boost_preempts_suffered"])
        for (sched, hardened), (atk, slow) in _victim_slowdowns(args, results).items()
    ]
    return (["scheduler", "config", "victim slowdown", "thief gain",
             "tickle preempts", "victim preempts"],
            rows,
            f"Adversarial tenancy — {args.app} victim (tick-sampled "
            "accounting; gain = CPU consumed / CPU debited)")


def _attack_after(args, results) -> int:
    slow = _victim_slowdowns(args, results)
    for sched in _attack_scheds(args):
        slow_u, slow_h = slow[(sched, False)][1], slow[(sched, True)][1]
        if slow_u > 1.0:
            rec = (slow_u - slow_h) / (slow_u - 1.0)
            print(f"{sched}: hardening recovers {rec:.0%} of the victim slowdown",
                  file=sys.stderr)
    return 0


def _probe_cells(args) -> list[RunSpec]:
    return [RunSpec("packet_path_probe", dict(
        scheduler=args.scheduler, uniform_slice_ms=args.slice,
        n_probes=args.probes, seed=args.seed,
    ))]


def _probe_table(args, results):
    r = results[0].value
    rows = [
        ("netback tx wait", r["mean_netback_tx_wait_ns"] / 1e3),
        ("wire", r["mean_wire_ns"] / 1e3),
        ("netback rx wait", r["mean_netback_rx_wait_ns"] / 1e3),
        ("guest consume wait", r["mean_consume_wait_ns"] / 1e3),
        ("end to end", r["mean_end_to_end_ns"] / 1e3),
    ]
    return (["hop", "mean (us)"], rows,
            f"Packet-path probe — {args.scheduler} ({r['probes']} probes)")


#: Every runner-backed verb, in ``repro list`` / ``--help`` order.
VERBS: dict[str, Verb] = {
    "typea": Verb(
        "evaluation type A (Figs. 1, 10)",
        ("scheduler", "nodes", "seed", "app", "rounds", "npb-class", "faults"),
        _typea_cells, _typea_table,
    ),
    "compare": Verb(
        "type A under every approach, normalized",
        ("nodes", "seed", "app", "rounds"),
        _compare_cells, _compare_table,
    ),
    "sweep": Verb(
        "static slice sweep under CR (Figs. 5, 8)",
        ("app", "nodes", "seed",
         ("slices", dict(default="30,12,6,1,0.3", help="comma-separated ms values")),
         "npb-class", "faults"),
        _sweep_cells, _sweep_table,
    ),
    "mix": Verb(
        "parallel + non-parallel coexistence (Figs. 2, 9)",
        ("scheduler", "seed", ("horizon", dict(default=6.0)),
         ("np-slice", dict(type=float, default=None,
                           help="admin slice (ms) for non-parallel VMs under ATC"))),
        _mix_cells, _mix_table,
    ),
    "typeb": Verb(
        "LLNL-trace cluster mix (Fig. 11)",
        ("scheduler", ("nodes", dict(default=6)), "seed", ("horizon", dict(default=8.0))),
        _typeb_cells, _typeb_table,
    ),
    "chaos": Verb(
        "fault-injected run vs clean baseline (repro.faults)",
        ("scheduler", "nodes", "seed", "app", ("rounds", dict(default=6)),
         ("horizon", dict(default=12.0)),
         ("faults", dict(default="random:3:1",
                         help="fault plan: random:N[:SEED], inline JSON, or a plan "
                         "file (default random:3:1)"))),
        _chaos_cells, _chaos_table, _chaos_after,
        partial=True, defaults={"salvage": "chaos_salvage.json"},
    ),
    "migrate": Verb(
        "live-migration rebalancing vs static placement (repro.migration)",
        ("scheduler", ("nodes", dict(default=3)), "seed", "app",
         ("policy", dict(default="demix", choices=["demix", "consolidate", "evacuate", "none"],
                         help="rebalancing policy (default demix; 'none' attaches "
                         "the engine without a controller)")),
         "placement", "clusters", "vms-per-cluster", ("horizon", dict(default=10.0)), "faults"),
        _migrate_cells, _migrate_table, _migrate_after,
    ),
    "dfrs": Verb(
        "cluster-level fractional allocation vs ATC: {CR, ATC, CR+DFRS, "
        "ATC+DFRS} on one mixed-tenancy cell (repro.dfrs)",
        (("nodes", dict(default=3)), "seed", "app", "placement", "clusters",
         "vms-per-cluster", ("horizon", dict(default=10.0)),
         ("solve-every", dict(type=int, default=4, metavar="N",
                              help="re-solve the fractional allocation every N "
                              "accounting periods (default 4)")),
         ("headroom", dict(type=float, default=1.25,
                           help="cap slack multiplier over the solved allocation "
                           "(default 1.25)")),
         ("moves", dict(action="store_true",
                        help="let DFRS relocate VMs through the live-migration "
                        "engine (off by default)"))),
        _dfrs_cells, _dfrs_table, _dfrs_after,
    ),
    "serve": Verb(
        "always-on service: streaming tenant arrivals under online admission "
        "(repro.service)",
        ("scheduler", ("nodes", dict(default=3)), "seed",
         ("admission", dict(default="fcfs-queue", choices=admission_names(),
                            help="admission policy (default fcfs-queue)")),
         ("arrival", dict(default="poisson", choices=["poisson", "trace"],
                          help="arrival source (trace replays --trace-file)")),
         ("rate", dict(type=float, default=2.0, metavar="PER_S",
                       help="Poisson arrival rate, tenants per virtual second "
                       "(default 2.0)")),
         ("tenants", dict(type=int, default=6, metavar="N",
                          help="total tenants to generate (default 6)")),
         ("rounds", dict(default=1, help="NPB rounds each tenant runs (default 1)")),
         ("placement", dict(help="initial placement policy (default pack)")),
         ("trace-file", dict(default=None, metavar="PATH",
                             help="JSON arrival trace for --arrival trace: a list of "
                             '{"at_ms", "n_vms", "app", "rounds"} dicts')),
         ("horizon", dict(default=30.0))),
        _serve_cells, _serve_table, _serve_after,
    ),
    "attack": Verb(
        "adversarial tenancy: yield-theft + tickle-storm attackers vs "
        "hardening knobs (repro.workloads.attacks, DESIGN.md §15)",
        (("scheduler", dict(default=None, choices=["CR", "ATC"],
                            help="restrict the grid to one scheduler (default: both)")),
         "seed", ("app", dict(help="parallel victim application (default lu)")),
         ("horizon", dict(default=6.0))),
        _attack_cells, _attack_table, _attack_after,
    ),
    "probe": Verb(
        "Fig. 4 packet-path hop decomposition",
        (("scheduler", dict(default="CR")), "seed", ("probes", dict(type=int, default=50)),
         "slice"),
        _probe_cells, _probe_table,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (one subcommand per experiment)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Dynamic Acceleration of Parallel "
        "Applications in Cloud Platforms by Adaptive Time-Slice Control' "
        "(IPDPS 2016) on a discrete-event virtualized-cluster simulator.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list schedulers, kernels and experiments")

    for name, verb in VERBS.items():
        sp = sub.add_parser(name, help=verb.help)
        _add_args(sp, verb.args + RUNNER_ARGS)
        sp.set_defaults(**verb.defaults)

    sp = sub.add_parser("trace", help="traced run: JSON-lines + Chrome trace_event export")
    _add_args(sp, (
        ("app", dict(default="is")), "scheduler", "nodes", "seed", ("rounds", dict(default=1)),
        ("slice", dict(help="uniform guest slice (ms; adaptive schedulers overwrite it)")),
        ("horizon", dict(default=20.0)),
        ("capacity", dict(type=int, default=65536,
                          help="trace ring-buffer capacity (records; oldest evicted)")),
        ("out", dict(default="trace_out/trace", metavar="PREFIX",
                     help="output prefix: writes PREFIX.jsonl and PREFIX.trace.json")),
    ))

    sp = sub.add_parser("perf", help="simulator self-profiling micro-suite (BENCH_perf_*.json)")
    _add_args(sp, (
        ("cases", dict(default=None, metavar="NAMES",
                       help="comma-separated case names (default: all)")),
        ("quick", dict(action="store_true", help="scaled-down workloads (CI smoke / tests)")),
        ("out", dict(default="benchmarks/perf/results", metavar="DIR",
                     help="directory for BENCH_perf_*.json")),
        ("check", dict(default=None, metavar="BASELINE",
                       help="fail if events/sec regresses vs this baseline.json")),
        ("tolerance", dict(type=float, default=None,
                           help="allowed fractional regression for --check "
                           "(default 0.15, or REPRO_PERF_TOLERANCE)")),
        ("write-baseline", dict(default=None, metavar="PATH",
                                help="record measured events/sec as the new baseline")),
        ("history", dict(default=None, metavar="JSONL",
                         help="append one events/sec trend line per run "
                         "(e.g. benchmarks/perf/history.jsonl)")),
        ("label", dict(default=None,
                       help="run label for --history (default: $GITHUB_SHA or 'local')")),
    ))

    sp = sub.add_parser("lint", help="static determinism lint (RPR rules)")
    sp.add_argument("paths", nargs="*",
                    default=["src/repro", "benchmarks", "tests", "examples"],
                    help="files/directories to lint "
                    "(default: src/repro benchmarks tests examples)")
    _add_args(sp, (
        ("format", dict(choices=["text", "json"], default="text")),
        ("select", dict(default=None, metavar="CODES",
                        help="comma-separated rule codes to run (default: all)")),
        ("list-rules", dict(action="store_true", help="print the rule catalogue and exit")),
    ))

    sp = sub.add_parser(
        "races",
        help="order-dependence detector: forward/reversed tie-order "
        "differential + SAN008 tie-group tracking (repro.analysis.races)",
    )
    sp.add_argument("scenario", nargs="?", default=None,
                    help="scenario to check (e.g. type_a); default: the "
                    "curated invariant cell list")
    _add_args(sp, (
        ("app", dict(default="ep")), "scheduler", "nodes", "rounds", "seed",
        ("no-track", dict(action="store_true",
                          help="skip SAN008 attribute tracking; run only the "
                          "forward/reversed metric differential (faster)")),
        ("json", dict(help="write the full report as JSON")),
        ("suspects", dict(type=int, default=5, metavar="N",
                          help="distinct SAN008 suspect patterns to print per "
                          "cell (default 5; 0 silences them)")),
    ))
    return p


def _cmd_list(args) -> int:
    print("schedulers :", ", ".join(scheduler_names()))
    print("NPB kernels:", ", ".join(NPB_EXTENDED), "(classes A/B/C)")
    print("experiments:", ", ".join(VERBS))
    print("tools      : trace (structured tracing + Perfetto export), "
          "perf (self-profiling micro-suite), "
          "lint (static determinism checks; --list-rules for codes), "
          "races (same-timestamp order-dependence detector)")
    return 0


def _cmd_trace(args) -> int:
    from repro.experiments.scenarios import run_type_a
    from repro.obs import trace as obstrace

    r = run_type_a(
        args.app, args.scheduler, args.nodes,
        rounds=args.rounds, warmup_rounds=0, seed=args.seed,
        horizon_s=args.horizon, uniform_slice_ms=args.slice,
        trace=True, trace_capacity=args.capacity,
    )
    tr = r["trace"]
    records = obstrace.records_from_dicts(tr["records"])
    jsonl_path = obstrace.write_jsonl(records, args.out + ".jsonl")
    chrome_path = obstrace.write_chrome_trace(records, args.out + ".trace.json")
    rows = [(kind, count) for kind, count in tr["by_kind"].items()]
    rows.append(("total", tr["total"]))
    rows.append(("retained", tr["retained"]))
    rows.append(("dropped (ring full)", tr["dropped"]))
    print(
        format_table(
            ["record kind", "count"],
            rows,
            title=f"Trace — {args.app} under {args.scheduler} "
            f"({r['sim_time_ns'] / 1e9:.2f} virtual s)",
        )
    )
    print(f"JSON-lines : {jsonl_path}")
    print(f"trace_event: {chrome_path}  (open in Perfetto / chrome://tracing)")
    return 0


def _cmd_perf(args) -> int:
    from repro.obs import perfsuite

    names = None if args.cases is None else args.cases.split(",")
    try:
        results = perfsuite.run_suite(names, quick=args.quick)
    except KeyError as exc:
        print(f"repro perf: {exc.args[0]}", file=sys.stderr)
        return 2
    rows = [
        (r["name"], r["events"], f"{r['events_per_sec']:,.0f}", r["wall_s"],
         r["max_heap_depth"], f"{r['cancel_waste_ratio']:.3f}")
        for r in results
    ]
    print(
        format_table(
            ["case", "events", "events/sec", "wall (s)", "max heap", "cancel waste"],
            rows,
            title="Simulator self-profile" + (" (quick)" if args.quick else ""),
        )
    )
    for r in results:
        cat_rows = [
            (cat, c["calls"], c["wall_s"] * 1e3)
            for cat, c in sorted(
                r["categories"].items(), key=lambda kv: -kv[1]["wall_s"]
            )
        ]
        print()
        print(
            format_table(
                ["category", "calls", "wall (ms)"],
                cat_rows,
                title=f"{r['name']} — per-category callback attribution",
            )
        )
    paths = perfsuite.write_results(results, args.out)
    print()
    for p in paths:
        print(f"wrote {p}")
    if args.write_baseline:
        print(f"wrote {perfsuite.write_baseline(results, args.write_baseline)}")
    if args.history:
        print(f"appended {perfsuite.append_history(results, args.history, label=args.label)}")
    if args.check:
        failures = perfsuite.check_baseline(results, args.check, tolerance=args.tolerance)
        if failures:
            for f in failures:
                print(f"PERF REGRESSION: {f}", file=sys.stderr)
            return 1
        print(f"perf check vs {args.check}: ok")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.lint import run_lint

    select = None if args.select is None else args.select.split(",")
    return run_lint(args.paths, fmt=args.format, select=select,
                    list_rules=args.list_rules)


def _cmd_races(args) -> int:
    from repro.analysis.races import races_report

    if args.scenario is None:
        cells = None
    else:
        params = dict(
            app_name=args.app, scheduler=args.scheduler, n_nodes=args.nodes,
            rounds=args.rounds, warmup_rounds=1, seed=args.seed,
        )
        cells = [{"scenario": args.scenario, "params": params}]
    try:
        report = races_report(cells, track=not args.no_track)
    except KeyError as exc:
        print(f"repro races: unknown scenario {exc.args[0]!r}", file=sys.stderr)
        return 2
    rows = []
    for cell in report["cells"]:
        p = cell["params"]
        label = ":".join(
            str(p[k]) for k in ("app_name", "scheduler", "n_nodes") if k in p
        ) or cell["scenario"]
        rows.append((
            f"{cell['scenario']}:{label}",
            "identical" if cell["identical"] else f"{len(cell['confirmed'])} DIFFS",
            cell["suspects_total"], len(cell["suspects"]), cell["groups_checked"],
        ))
    print(
        format_table(
            ["cell", "forward vs reversed", "suspects", "distinct", "tie groups"],
            rows,
            title="Order-dependence differential (tie_order fifo vs reversed)",
        )
    )
    for cell in report["cells"]:
        for d in cell["confirmed"][:20]:
            print(
                f"CONFIRMED {cell['scenario']}: {d['path']}: "
                f"forward={d['forward']} reversed={d['reversed']}",
                file=sys.stderr,
            )
        if args.suspects:
            for s in cell["suspects"][: args.suspects]:
                print(f"suspect {s['code']} @t={s['time_ns']}: {s['message']}",
                      file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    if report["clean"]:
        print("no confirmed order dependence "
              f"({report['suspects_total']} heuristic suspects recorded)")
        return 0
    print(f"{report['confirmed_total']} confirmed order-dependent metric(s)",
          file=sys.stderr)
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command in VERBS:
        return _run_verb(args.command, args)
    tools = {
        "list": _cmd_list,
        "trace": _cmd_trace,
        "perf": _cmd_perf,
        "lint": _cmd_lint,
        "races": _cmd_races,
    }
    return tools[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
