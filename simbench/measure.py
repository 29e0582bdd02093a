"""Passes, runs and reports of the simulator benchmark (see ``run.py``)."""

from __future__ import annotations

import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

from repro.experiments.runner import code_salt, run_sweep
from simbench import cells
from simbench.layers import LAYERS, CellProbe, LayerTracer, SpanRecorder, chrome_trace

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "Pass",
    "run_pass",
    "measure",
    "print_report",
    "write_outputs",
    "result_line",
    "record",
]

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Fewest rounds of passes a ``--trace 0`` / ``--trace 1`` run makes,
#: however short ``--seconds``.
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
#: Span records kept for the Chrome trace (first traced pass only).
KEEP_SPANS = 100_000
#: Largest allowed |sum of layer self times + unattributed - run time| (s).
RECONCILE_TOLERANCE_S = 1e-6

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_s_per_host_s", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics: (name, unit).
PER_LAYER = (
    ("sim.self_s", "s"),
    ("sim.events", "count"),
    ("sim.entries_scheduled", "count"),
    ("sim.cancelled_popped", "count"),
    ("sim.cancel_ratio", "ratio"),
    ("sim.entries_per_dispatch", "ratio"),
    ("sim.max_queue_depth", "count"),
    ("sim.events_per_host_s", "1/s"),
    ("hypervisor.self_s", "s"),
    ("hypervisor.dispatches", "count"),
    ("hypervisor.idle_pick_ratio", "ratio"),
    ("hypervisor.slice_expiries", "count"),
    ("hypervisor.context_switches", "count"),
    ("hypervisor.dom0_packets", "count"),
    ("hypervisor.period_hook_calls", "count"),
    ("schedulers.self_s", "s"),
    ("schedulers.pick_next_calls", "count"),
    ("schedulers.wakes", "count"),
    ("schedulers.tickles", "count"),
    ("schedulers.period_s", "s"),
    ("core.self_s", "s"),
    ("core.period_calls", "count"),
    ("core.slice_changes", "count"),
    ("guest.self_s", "s"),
    ("guest.dispatches", "count"),
    ("guest.messages", "count"),
    ("guest.spin_acquires", "count"),
    ("guest.spin_contended_ratio", "ratio"),
    ("cluster.self_s", "s"),
    ("cluster.packets", "count"),
    ("cluster.wire_bytes", "B"),
    ("cluster.disk_requests", "count"),
    ("cluster.llc_misses", "count"),
    ("workloads.self_s", "s"),
    ("workloads.rounds", "count"),
    ("experiments.self_s", "s"),
    ("experiments.world_build_s", "s"),
    ("experiments.placement_s", "s"),
    ("experiments.app_setup_s", "s"),
    ("experiments.runner_s", "s"),
    ("experiments.vms_created", "count"),
    ("experiments.vms_torn_down", "count"),
    ("experiments.retries", "count"),
    ("migration.self_s", "s"),
    ("migration.started", "count"),
    ("migration.completed_ratio", "ratio"),
    ("migration.bytes_copied", "B"),
    ("dfrs.self_s", "s"),
    ("dfrs.solves", "count"),
    ("dfrs.caps_applied", "count"),
    ("service.self_s", "s"),
    ("service.submitted", "count"),
    ("service.admitted_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
)

#: Per-layer metrics read from the host clock (reported as medians over
#: traced passes); every other one is a count or a ratio of counts and
#: must repeat exactly.
HOST_TIMED = frozenset(name for name, _ in PER_LAYER if name.endswith("_s")) | {
    "trace.overhead_ratio"
}


def _clock() -> float:
    # Host wall clock; never feeds simulation state.
    return time.perf_counter()  # repro: ignore[RPR001]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(values: list) -> dict:
    """Median, quartiles and count of a timing sample."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
class Pass:
    """Everything measured in one pass over a workload's cells."""

    def __init__(self, wall_s, results, records, spans=None, tracer=None) -> None:
        self.wall_s = wall_s
        self.results = results
        self.cells = records
        self.spans = spans
        self.tracer = tracer

    @property
    def traced(self) -> bool:
        return self.spans is not None

    @property
    def setup_s(self) -> float:
        return sum(c.setup_s for c in self.cells)

    @property
    def run_s(self) -> float:
        return sum(c.run_s for c in self.cells)

    @property
    def sim_s_per_host_s(self) -> float:
        return _ratio(sum(c.sim_ns for c in self.cells) / 1e9, self.run_s)

    def counters(self) -> Counter:
        """Exact counters summed over cells (empty if cells went missing)."""
        total: Counter = Counter()
        if len(self.cells) == len(self.results):
            for cell in self.cells:
                total.update(cell.counters)
        return total

    def layer_metrics(self) -> dict:
        """Per-layer values of a traced pass, except the two that need the
        untraced passes (``sim.events_per_host_s``, ``trace.overhead_ratio``)."""
        spans, tracer, c = self.spans, self.tracer, self.counters()
        calls, incl, counts = Counter(spans.calls), Counter(spans.incl_s), tracer.counts
        entries = calls["Simulator.at"] + calls["Simulator.post_at"]
        dispatches = calls["VMM.dispatch"]
        m = {f"{layer}.self_s": spans.self_s.get(layer, 0.0) for layer in LAYERS}
        m.update(
            {
                "sim.events": c["sim.events"],
                "sim.entries_scheduled": entries,
                "sim.cancelled_popped": c["sim.cancelled_popped"],
                "sim.cancel_ratio": _ratio(c["sim.cancelled_popped"], entries),
                "sim.entries_per_dispatch": _ratio(entries, dispatches - counts["idle_picks"]),
                "sim.max_queue_depth": tracer.max_queue_depth,
                "hypervisor.dispatches": dispatches,
                "hypervisor.idle_pick_ratio": _ratio(
                    counts["idle_picks"], calls["Scheduler.pick_next"]
                ),
                "hypervisor.slice_expiries": tracer.category_calls("vmm.slice"),
                "hypervisor.context_switches": c["hypervisor.context_switches"],
                "hypervisor.dom0_packets": calls["Dom0.send_packet"],
                "hypervisor.period_hook_calls": counts["period_hook_calls"],
                "schedulers.pick_next_calls": calls["Scheduler.pick_next"],
                "schedulers.wakes": calls["Scheduler.on_wake"],
                "schedulers.tickles": tracer.category_calls("sched.tickle"),
                "schedulers.period_s": incl["Scheduler.on_period"],
                "core.period_calls": calls["ATCController.on_period"],
                "core.slice_changes": counts["slice_changes"],
                "guest.dispatches": calls["GuestProcess.on_dispatch"],
                "guest.messages": calls["GuestProcess.on_message"],
                "guest.spin_acquires": calls["SpinLock.acquire"],
                "guest.spin_contended_ratio": _ratio(
                    counts["spin_contended"], calls["SpinLock.acquire"]
                ),
                "cluster.packets": calls["Fabric.transmit"],
                "cluster.wire_bytes": c["cluster.wire_bytes"],
                "cluster.disk_requests": calls["Disk.submit"],
                "cluster.llc_misses": c["cluster.llc_misses"],
                "workloads.rounds": c["workloads.rounds"],
                "experiments.world_build_s": incl["CloudWorld.__init__"],
                "experiments.placement_s": incl["CloudWorld.virtual_cluster"]
                + incl["CloudWorld.new_vm"],
                "experiments.app_setup_s": sum(
                    v for k, v in incl.items() if k.startswith("CloudWorld.add_")
                ),
                "experiments.runner_s": self.wall_s
                - sum(cell.exit - cell.entry for cell in self.cells),
                "experiments.vms_created": counts["vms_created"],
                "experiments.vms_torn_down": calls["CloudWorld.teardown_vm"],
                "experiments.retries": sum(r.attempts - 1 for r in self.results),
                "migration.started": c["migration.started"],
                "migration.completed_ratio": _ratio(
                    c["migration.completed"], c["migration.started"]
                ),
                "migration.bytes_copied": c["migration.bytes_copied"],
                "dfrs.solves": c["dfrs.solves"],
                "dfrs.caps_applied": c["dfrs.caps_applied"],
                "service.submitted": c["service.submitted"],
                "service.admitted_ratio": _ratio(c["service.admitted"], c["service.submitted"]),
                "trace.unattributed_s": spans.unattributed_s,
            }
        )
        return m


def run_pass(specs, probe: CellProbe, traced: bool, keep_spans: int = 0) -> Pass:
    """One ``run_sweep`` over ``specs``; traced passes install the tracer."""
    gc.collect()
    spans = tracer = None
    with ExitStack() as stack:
        if traced:
            spans = SpanRecorder(keep=keep_spans)
            tracer = stack.enter_context(LayerTracer(spans).installed())
            probe.recorder = spans
            stack.callback(setattr, probe, "recorder", None)
        t0 = _clock()
        results = run_sweep(specs, jobs=1, use_cache=False)
        wall_s = _clock() - t0
    return Pass(wall_s, results, probe.take(), spans, tracer)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list]:
    """Run rounds of passes for about ``seconds``; return the report and
    the kept span records.

    A round is one untraced pass, plus one traced pass with ``traced``.
    After the minimum rounds, another round starts only if a round as long
    as the last one still ends within ``seconds``.
    """
    expected = cells.reference_digests(cells.load_reference(), workload, seed)
    if expected is None:
        raise SystemExit(f"simbench: reference.json has no digests for {workload} seed {seed}")
    probe = CellProbe()
    passes: list[Pass] = []
    min_rounds = MIN_TRACE_ROUNDS if traced else MIN_ROUNDS
    start = _clock()
    with probe.installed(cells.scenario_functions(workload)):
        specs = cells.workload_specs(workload, seed)
        for rounds in itertools.count(1):
            t0 = _clock()
            passes.append(run_pass(specs, probe, False))
            if traced:
                passes.append(run_pass(specs, probe, True, KEEP_SPANS if rounds == 1 else 0))
            now = _clock()
            if rounds >= min_rounds and now + (now - t0) > start + seconds:
                break
    report = _report(workload, seed, traced, passes, expected)
    return report, next((p.spans.spans for p in passes if p.traced), [])


def _report(workload: str, seed: int, traced: bool, passes: list, expected: list) -> dict:
    problems: list[str] = []
    attempted = failed = 0
    for k, p in enumerate(passes):
        for r, digest in zip(p.results, expected):
            attempted += 1
            if not r.ok:
                failed += 1
                problems.append(f"pass {k} {r.spec.label}: {r.error['type']}: {r.error['message']}")
            elif cells.result_digest(r.value) != digest:
                failed += 1
                problems.append(f"pass {k} {r.spec.label}: digest differs from reference")
    counters = [p.counters() for p in passes]
    if not counters[0] or any(c != counters[0] for c in counters):
        problems.append(f"exact counters differ between passes: {counters}")

    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    metrics: dict = {}
    if not traced:
        for name, unit in END_TO_END:
            if name == "peak_rss_mb":
                # ru_maxrss is in KiB on Linux.
                values = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
            else:
                values = [getattr(p, name) for p in plain]
            metrics[name] = {"unit": unit, **summarize(values)}
    else:
        per_pass = [p.layer_metrics() for p in traced_passes]
        exact = [{k: v for k, v in m.items() if k not in HOST_TIMED} for m in per_pass]
        if any(e != exact[0] for e in exact):
            problems.append("per-layer counters differ between traced passes")
        for p in traced_passes:
            err = p.spans.reconcile_error()
            if err > RECONCILE_TOLERANCE_S:
                problems.append(f"layer self times miss the run span by {err:.3g} s")
        plain_wall = statistics.median(p.wall_s for p in plain)
        plain_run = statistics.median(p.run_s for p in plain)
        for m, p in zip(per_pass, traced_passes):
            m["sim.events_per_host_s"] = _ratio(m["sim.events"], plain_run)
            m["trace.overhead_ratio"] = _ratio(p.wall_s, plain_wall)
        for name, unit in PER_LAYER:
            if name in HOST_TIMED:
                metrics[name] = {"unit": unit, **summarize([m[name] for m in per_pass])}
            else:
                metrics[name] = {"unit": unit, "median": per_pass[0][name], "n": len(per_pass)}
    return {
        "workload": workload,
        "trace": int(traced),
        "provenance": provenance(seed),
        "passes": {"plain": len(plain), "traced": len(traced_passes)},
        "attempted": attempted,
        "failed": failed,
        "fail_rate": _ratio(failed, attempted),
        "problems": problems,
        "correct": not problems,
        "metrics": metrics,
        "counters": dict(counters[0]),
    }


def provenance(seed: int) -> dict:
    """Code version, seeds and host of a run."""
    return {
        "code_salt": code_salt(),
        "seed": seed,
        "scenario_seed": cells.scenario_seed(seed),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(report: dict) -> None:
    print(
        f"simbench {report['workload']} trace={report['trace']} "
        + " ".join(f"{k}={v}" for k, v in report["provenance"].items())
        + f" passes={report['passes']['plain']}+{report['passes']['traced']}"
    )
    print(f"  {'metric':<30} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    rows = list(report["metrics"].items())
    if not report["trace"]:
        rows.append(
            ("fail_rate", {"unit": "fraction", "median": report["fail_rate"], "n": report["attempted"]})
        )
    for name, m in rows:
        q1, q3 = (_fmt(m[q]) if q in m else "" for q in ("q1", "q3"))
        print(f"  {name:<30} {m['unit']:<8} {_fmt(m['median']):>12} {q1:>12} {q3:>12} {m['n']:>4}")
    print(f"  cells attempted={report['attempted']} failed={report['failed']}")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")


def write_outputs(report: dict, spans: list) -> None:
    """The report as JSON and, if any, the spans as a Chrome trace."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{report['workload']}-seed{report['provenance']['seed']}"
    with (RESULTS_DIR / f"{stem}-trace{report['trace']}.json").open("w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if spans:
        with (RESULTS_DIR / f"{stem}.chrome.json").open("w", encoding="utf-8") as fh:
            json.dump(chrome_trace(spans, report["provenance"]), fh)


def result_line(report: dict) -> str:
    """The one-line JSON result."""
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": m["median"], "unit": m["unit"]}
                for name, m in report["metrics"].items()
            },
        }
    )


# ----------------------------------------------------------------------
# Reference recording
# ----------------------------------------------------------------------
def record(workloads: list) -> int:
    """Re-record the digests of ``workloads`` for every reference seed."""
    try:
        reference = cells.load_reference()
    except FileNotFoundError:
        reference = {"workloads": {}}
    reference["code_salt"] = code_salt()
    reference["seeds"] = cells.REFERENCE_SEEDS
    for workload in workloads:
        digests = {}
        with CellProbe().installed(cells.scenario_functions(workload)):
            for s in range(cells.REFERENCE_SEEDS):
                results = run_sweep(cells.workload_specs(workload, s), jobs=1, use_cache=False)
                bad = [r for r in results if not r.ok]
                if bad:
                    print(f"simbench: {workload} seed {s}: {bad[0].error['message']}", file=sys.stderr)
                    return 1
                digests[str(s)] = [cells.result_digest(r.value) for r in results]
                print(f"recorded {workload} seed {s}", file=sys.stderr)
        reference["workloads"][workload] = digests
    cells.write_reference(reference)
    return 0
