"""Layer instrumentation for the simulator benchmark, applied from outside.

Nothing here edits ``repro``: the benchmark measures each layer by wrapping
the layers' public methods at class level (and the few module functions
the DFRS controller calls) before any world is built, and by routing every
event callback through a :class:`~repro.obs.profiler.SimProfiler` subclass.

Two instruments, with different costs:

* :class:`CellProbe` is always installed.  It touches only per-cell entry
  points (the scenario call, ``CloudWorld.__init__``,
  ``ParallelApp.__init__`` and ``Simulator.run``), so it adds nothing per
  event.  It gives each cell's set-up time, the host time inside
  ``Simulator.run``, the simulated time advanced, and the exact counters
  that the simulator keeps anyway.
* :class:`LayerTracer` is installed only for traced passes.  Every wrapped
  call and every event callback becomes a span in a :class:`SpanRecorder`,
  which accounts self time per layer exactly (span time minus child spans)
  and keeps the first spans in memory for a Chrome-trace file.

Layer names are the ``repro`` sub-packages.  The part of an event callback
not covered by a wrapped method goes to the layer owning the event's
category (:data:`CATEGORY_LAYERS`); a category no layer owns is counted as
unattributed.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterator, Optional

from repro.experiments import runner
from repro.experiments.harness import CloudWorld
from repro.metrics.collectors import cluster_stats
from repro.obs.profiler import SimProfiler
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.workloads.base import ParallelApp

__all__ = [
    "LAYERS",
    "CATEGORY_LAYERS",
    "layer_of_module",
    "layer_of_category",
    "SpanRecorder",
    "CellRecord",
    "CellProbe",
    "LayerTracer",
    "chrome_trace",
]

#: Layers in report order; each is a ``repro`` sub-package.
LAYERS = (
    "sim",
    "hypervisor",
    "schedulers",
    "core",
    "guest",
    "cluster",
    "workloads",
    "experiments",
    "migration",
    "dfrs",
    "service",
)

#: Event-category prefix -> layer that owns the callback.
CATEGORY_LAYERS = {
    "guest": "guest",
    "vmm": "hypervisor",
    "dom0": "hypervisor",
    "net": "cluster",
    "disk": "cluster",
    "sched": "schedulers",
    "app": "workloads",
    "service": "service",
    "migration": "migration",
}

#: Span key of the root span around each ``Simulator.run`` call.
RUN_KEY = "Simulator.run"

#: Scheduler interface methods wrapped on every class that defines them.
SCHEDULER_METHODS = (
    "pick_next",
    "on_wake",
    "on_slice_expired",
    "on_preempted",
    "on_block",
    "on_period",
    "charge_ns",
)


def _clock() -> float:
    # Host wall clock; never feeds simulation state.
    return time.perf_counter()  # repro: ignore[RPR001]


def layer_of_module(module: str) -> Optional[str]:
    """``repro.hypervisor.vmm`` -> ``hypervisor``; None outside the layers."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def layer_of_category(cat: Optional[str]) -> Optional[str]:
    """Layer owning an event category (``vmm.slice`` -> ``hypervisor``)."""
    if not cat:
        return None
    return CATEGORY_LAYERS.get(cat.split(".", 1)[0])


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """A span stack with exact per-layer self-time accounting.

    A span's self time is its duration minus the durations of its direct
    children.  Self time is added to the span's layer only while a
    ``Simulator.run`` root span is open, so the layer self times (with the
    ``None`` layer as "unattributed") sum to the run spans' total time.
    Call counts and inclusive times are kept per span key for every span,
    set-up included; a span directly nested in one of the same key (a
    ``super()`` call into a wrapped base method) is not counted again.

    The first ``keep`` spans are kept as ``[id, parent id, key, layer,
    start, end, cell]`` records for :func:`chrome_trace` (start and end
    stay None until the span closes).
    """

    def __init__(self, clock: Callable[[], float] = _clock, keep: int = 0) -> None:
        self.clock = clock
        self.keep = keep
        self.cell = 0
        self.spans: list[list] = []
        #: layer (None = unattributed) -> self seconds inside run spans
        self.self_s: dict[Optional[str], float] = {}
        #: span key -> inclusive seconds / calls (outermost spans only)
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: total seconds of the ``Simulator.run`` root spans
        self.run_s = 0.0
        self._stack: list[list] = []
        self._next_id = 0
        self._in_run = 0

    def open(self, key: str, layer: Optional[str]) -> None:
        stack = self._stack
        parent = stack[-1] if stack else None
        outer = parent is None or parent[0] != key
        if outer:
            self.calls[key] = self.calls.get(key, 0) + 1
        sid = self._next_id
        self._next_id = sid + 1
        rec = None
        if sid < self.keep:
            rec = [sid, parent[3] if parent else -1, key, layer, None, None, self.cell]
            self.spans.append(rec)
        # [key, layer, child seconds, id, outer, record, start]
        stack.append([key, layer, 0.0, sid, outer, rec, self.clock()])

    def close(self) -> float:
        end = self.clock()
        key, layer, child, _sid, outer, rec, start = self._stack.pop()
        dur = end - start
        if self._in_run:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + (dur - child)
        if self._stack:
            self._stack[-1][2] += dur
        if outer:
            self.incl_s[key] = self.incl_s.get(key, 0.0) + dur
        if rec is not None:
            rec[4] = start
            rec[5] = end
        return dur

    def open_run(self) -> None:
        self._in_run += 1
        self.open(RUN_KEY, "sim")

    def close_run(self) -> None:
        self.run_s += self.close()
        self._in_run -= 1

    @property
    def unattributed_s(self) -> float:
        return self.self_s.get(None, 0.0)

    def reconcile_error(self) -> float:
        """|sum of layer self times + unattributed - run span time|."""
        return abs(sum(self.self_s.values()) - self.run_s)


def chrome_trace(spans: list[list], metadata: dict) -> dict:
    """Closed span records as a Chrome-trace document (Perfetto opens it).

    One track per cell; ``args`` carry each span's id and parent id.
    """
    closed = [r for r in spans if r[5] is not None]
    t0 = min((r[4] for r in closed), default=0.0)
    events = [
        {
            "name": key,
            "cat": layer or "unattributed",
            "ph": "X",
            "ts": (start - t0) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": cell,
            "args": {"id": sid, "parent": parent},
        }
        for sid, parent, key, layer, start, end, cell in closed
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}


def _patch(stack: ExitStack, owner, name: str, value) -> None:
    """``setattr(owner, name, value)`` until ``stack`` closes."""
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    setattr(owner, name, value)
    stack.callback(setattr, owner, name, original)


# ----------------------------------------------------------------------
# Per-cell probe (always on; nothing per event)
# ----------------------------------------------------------------------
class CellRecord:
    """Host timings and exact counters of one scenario call."""

    __slots__ = ("entry", "first_run", "exit", "run_s", "sim_ns", "worlds", "apps", "counters")

    def __init__(self, entry: float) -> None:
        self.entry = entry
        self.first_run: Optional[float] = None
        self.exit = entry
        self.run_s = 0.0
        self.sim_ns = 0
        self.worlds: list = []
        self.apps: list = []
        self.counters: dict = {}

    @property
    def setup_s(self) -> float:
        """Cell entry to the first ``Simulator.run`` call."""
        end = self.first_run if self.first_run is not None else self.exit
        return end - self.entry


def exact_counters(worlds, apps, value: dict) -> dict:
    """Deterministic cost counters of one finished cell."""
    sims = [w.sim for w in worlds]
    mig = value.get("migration") or {}
    dfrs = value.get("dfrs") or {}
    svc = value.get("service") or {}
    return {
        "sim.events": sum(s.events_processed for s in sims),
        "sim.cancelled_popped": sum(s.cancelled_popped for s in sims),
        "hypervisor.context_switches": sum(
            vmm.total_context_switches for w in worlds for vmm in w.vmms
        ),
        "cluster.llc_misses": sum(cluster_stats(w.cluster)["llc_misses"] for w in worlds),
        "cluster.wire_bytes": sum(w.cluster.fabric.wire_bytes_total for w in worlds),
        "workloads.rounds": sum(a.rounds_completed for a in apps),
        "migration.started": mig.get("started", 0),
        "migration.completed": mig.get("completed", 0),
        "migration.bytes_copied": mig.get("bytes_copied", 0),
        "dfrs.solves": dfrs.get("solves", 0),
        "dfrs.caps_applied": dfrs.get("caps_applied", 0),
        "service.submitted": svc.get("submitted", 0),
        "service.admitted": svc.get("admitted", 0),
    }


class CellProbe:
    """Per-cell timings through the scenario registry and ``Simulator.run``.

    While installed, each given scenario is registered in
    :data:`repro.experiments.runner.SCENARIOS` as a timed wrapper (in place
    of the entry of the same name, if any), and each call of a wrapper
    appends one :class:`CellRecord` to :attr:`cells`.  When
    :attr:`recorder` is set, every ``Simulator.run`` call is also a root
    span in it.
    """

    def __init__(self, clock: Callable[[], float] = _clock) -> None:
        self.clock = clock
        self.cells: list[CellRecord] = []
        self.recorder: Optional[SpanRecorder] = None
        self._cell: Optional[CellRecord] = None

    def take(self) -> list[CellRecord]:
        cells, self.cells = self.cells, []
        return cells

    @contextmanager
    def installed(self, scenarios: dict) -> Iterator["CellProbe"]:
        with ExitStack() as stack:
            for name, fn in scenarios.items():
                _patch_key(stack, runner.SCENARIOS, name, self._wrap_cell(fn))
            _patch(stack, Simulator, "run", self._wrap_run(Simulator.run))
            _patch(stack, CloudWorld, "__init__", self._wrap_init(CloudWorld.__init__, "worlds"))
            _patch(stack, ParallelApp, "__init__", self._wrap_init(ParallelApp.__init__, "apps"))
            yield self

    def _wrap_cell(self, fn):
        probe = self

        @functools.wraps(fn)
        def cell(**kwargs):
            rec = CellRecord(probe.clock())
            probe.cells.append(rec)
            probe._cell = rec
            if probe.recorder is not None:
                probe.recorder.cell = len(probe.cells) - 1
            try:
                value = fn(**kwargs)
                rec.counters = exact_counters(rec.worlds, rec.apps, value)
            finally:
                rec.exit = probe.clock()
                probe._cell = None
                rec.worlds = rec.apps = []
            return value

        return cell

    def _wrap_run(self, run):
        probe = self

        @functools.wraps(run)
        def wrapped(sim, until=None, max_events=None):
            cell = probe._cell
            spans = probe.recorder
            t0 = probe.clock()
            now0 = sim.now
            if cell is not None and cell.first_run is None:
                cell.first_run = t0
            if spans is not None:
                spans.open_run()
            try:
                return run(sim, until, max_events)
            finally:
                if spans is not None:
                    spans.close_run()
                if cell is not None:
                    cell.run_s += probe.clock() - t0
                    cell.sim_ns += sim.now - now0

        return wrapped

    def _wrap_init(self, init, slot: str):
        probe = self

        @functools.wraps(init)
        def wrapped(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if probe._cell is not None:
                getattr(probe._cell, slot).append(obj)

        return wrapped


def _patch_key(stack: ExitStack, mapping: dict, key: str, value) -> None:
    """``mapping[key] = value`` until ``stack`` closes (removes new keys)."""
    if key in mapping:
        stack.callback(mapping.__setitem__, key, mapping[key])
    else:
        stack.callback(mapping.pop, key, None)
    mapping[key] = value


# ----------------------------------------------------------------------
# Layer tracer (traced passes only)
# ----------------------------------------------------------------------
class LayerProfiler(SimProfiler):
    """A :class:`SimProfiler` whose every event callback is also a span,
    owned by the layer of the event's category."""

    __slots__ = ("_spans", "_keys")

    def __init__(self, sim: Simulator, spans: SpanRecorder) -> None:
        super().__init__(sim, clock=spans.clock)
        self._spans = spans
        self._keys: dict = {}

    def run_event(self, cat: Optional[str], fn: Callable[[], None], depth: int) -> None:
        key = self._keys.get(cat)
        if key is None:
            key = self._keys[cat] = (f"event:{cat or 'uncat'}", layer_of_category(cat))
        spans = self._spans
        spans.open(*key)
        try:
            SimProfiler.run_event(self, cat, fn, depth)
        finally:
            spans.close()


class LayerTracer:
    """Installs span wrappers on every layer's public methods.

    Beyond :class:`SpanRecorder`'s call counts, :attr:`counts` holds the
    counters that need a return value or state change: idle picks,
    contended spin acquires, VMs created, ATC slice changes and period
    hook calls.  :attr:`profilers` are the per-simulator event profilers.
    """

    def __init__(self, spans: SpanRecorder) -> None:
        self.spans = spans
        self.profilers: list[LayerProfiler] = []
        self.counts = {
            "idle_picks": 0,
            "spin_contended": 0,
            "vms_created": 0,
            "slice_changes": 0,
            "period_hook_calls": 0,
        }

    # -- wrapper factories ----------------------------------------------
    def _span(self, fn, key: str, layer: Optional[str], post=None):
        open_, close = self.spans.open, self.spans.close
        if post is None:

            def wrapper(*args, **kwargs):
                open_(key, layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close()

        else:

            def wrapper(*args, **kwargs):
                open_(key, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close()
                post(result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def _count_idle_pick(self, picked) -> None:
        if picked is None:
            self.counts["idle_picks"] += 1

    def _count_contended(self, acquired: bool) -> None:
        if not acquired:
            self.counts["spin_contended"] += 1

    def _count_vm(self, _vm) -> None:
        self.counts["vms_created"] += 1

    def _count_cluster_vms(self, vc) -> None:
        self.counts["vms_created"] += len(vc.vms)

    def _wrap_method(self, stack: ExitStack, cls: type, name: str, key: str = "", post=None) -> None:
        fn = cls.__dict__[name]
        layer = layer_of_module(cls.__module__)
        _patch(stack, cls, name, self._span(fn, key or f"{cls.__name__}.{name}", layer, post))

    def _wrap_hook(self, hook):
        """Span + count around one ``VMM.period_hooks`` entry."""
        owner = getattr(hook, "__self__", None)
        module = type(owner).__module__ if owner is not None else getattr(hook, "__module__", "")
        key = f"hook:{getattr(hook, '__qualname__', 'hook')}"
        span = self._span(hook, key, layer_of_module(module))
        counts = self.counts

        def period_hook(now):
            counts["period_hook_calls"] += 1
            span(now)

        period_hook.simbench_hook = True
        return period_hook

    # -- installation ---------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        from repro.cluster.cache import PCPUCache
        from repro.cluster.network import Fabric
        from repro.cluster.node import Disk
        from repro.core.controller import ATCController
        from repro.core.monitor import SpinLatencyMonitor
        from repro.dfrs import controller as dfrs_controller
        from repro.dfrs import solver as dfrs_solver
        from repro.guest.process import GuestProcess
        from repro.guest.spinlock import SpinLock
        from repro.hypervisor.dom0 import Dom0
        from repro.hypervisor.vmm import VMM
        from repro.migration.engine import MigrationEngine
        from repro.schedulers.registry import SCHEDULERS

        with ExitStack() as stack:
            for cls, names in (
                (Simulator, ("at", "post_at")),
                (VMM, ("dispatch", "vcpu_block", "preempt", "kick", "on_vcpu_wake")),
                (Dom0, ("send_packet", "recv_packet", "submit_disk")),
                (SpinLatencyMonitor, ("end_period",)),
                (GuestProcess, ("on_dispatch", "on_preempt", "on_message")),
                (SpinLock, ("release",)),
                (Fabric, ("transmit",)),
                (PCPUCache, ("on_dispatch", "on_undispatch")),
                (Disk, ("submit",)),
                (ParallelApp, ("start",)),
                (MigrationEngine, ("start", "cancel")),
                (
                    CloudWorld,
                    (
                        "__init__",
                        "add_npb",
                        "add_cpu_app",
                        "add_stream",
                        "add_bonnie",
                        "add_ping",
                        "add_webserver",
                        "teardown_vm",
                    ),
                ),
            ):
                for name in names:
                    self._wrap_method(stack, cls, name)
            self._wrap_method(stack, SpinLock, "acquire", post=self._count_contended)
            self._wrap_method(stack, CloudWorld, "new_vm", post=self._count_vm)
            self._wrap_method(stack, CloudWorld, "virtual_cluster", post=self._count_cluster_vms)
            self._wrap_schedulers(stack, SCHEDULERS.values())
            self._wrap_atc(stack, ATCController)
            self._wrap_vmm_start(stack, VMM)
            for name in ("solve_host", "solve_cluster", "propose_moves"):
                wrapped = self._span(getattr(dfrs_solver, name), f"dfrs.{name}", "dfrs")
                _patch(stack, dfrs_solver, name, wrapped)
                if hasattr(dfrs_controller, name):
                    _patch(stack, dfrs_controller, name, wrapped)
            prev_hook = engine.on_simulator_created

            def attach(sim: Simulator) -> None:
                if prev_hook is not None:
                    prev_hook(sim)
                self.profilers.append(LayerProfiler(sim, self.spans))

            _patch(stack, engine, "on_simulator_created", attach)
            yield self

    def _wrap_schedulers(self, stack: ExitStack, classes) -> None:
        """Wrap each scheduler method once, on the class that defines it."""
        done = set()
        for cls in classes:
            for name in SCHEDULER_METHODS:
                definer = next(k for k in cls.__mro__ if name in k.__dict__)
                if (definer.__qualname__, name) in done:
                    continue
                done.add((definer.__qualname__, name))
                post = self._count_idle_pick if name == "pick_next" else None
                self._wrap_method(stack, definer, name, key=f"Scheduler.{name}", post=post)

    def _wrap_atc(self, stack: ExitStack, cls: type) -> None:
        """``ATCController.on_period`` span, counting VM slice changes."""
        span = self._span(cls.__dict__["on_period"], "ATCController.on_period", "core")
        counts = self.counts

        def on_period(controller, now):
            vms = list(controller.vmm.vms)
            before = [vm.slice_ns for vm in vms]
            span(controller, now)
            counts["slice_changes"] += sum(1 for vm, s in zip(vms, before) if vm.slice_ns != s)

        _patch(stack, cls, "on_period", functools.update_wrapper(on_period, span))

    def _wrap_vmm_start(self, stack: ExitStack, cls: type) -> None:
        """Wrap the period hooks registered by the time ``VMM.start`` runs."""
        start = cls.__dict__["start"]
        wrap_hook = self._wrap_hook

        def vmm_start(vmm):
            vmm.period_hooks[:] = [
                h if getattr(h, "simbench_hook", False) else wrap_hook(h)
                for h in vmm.period_hooks
            ]
            start(vmm)

        _patch(stack, cls, "start", functools.update_wrapper(vmm_start, start))

    # -- readout ----------------------------------------------------------
    def category_calls(self, cat: str) -> int:
        return sum(p.categories.get(cat, (0, 0.0))[0] for p in self.profilers)

    @property
    def max_queue_depth(self) -> int:
        return max((p.max_heap_depth for p in self.profilers), default=0)
