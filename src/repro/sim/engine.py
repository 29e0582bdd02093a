"""Discrete-event simulation engine.

A minimal, fast event-queue kernel in the style of classic DES libraries:
events are ``(time, sequence, callback)`` tuples kept in a pluggable
priority queue.  The sequence number breaks ties deterministically (FIFO
among simultaneous events), which keeps whole-cluster simulations
bit-reproducible for a given seed.

Two queue backends share the exact ``(time, seq)`` total order:

* ``"heap"`` (default) — a binary heap (:mod:`heapq`).  Queue entries are
  plain tuples, so every sift comparison is a C-level tuple compare; the
  ``Event`` handle rides in slot 2 and is never compared.
* ``"bucket"`` — a calendar queue (:class:`BucketQueue`): events hash into
  time buckets of a fixed width, only the *current* bucket epoch is kept
  heap-ordered, and future buckets are unsorted append-only lists.  Push
  is O(1) for future events, which beats the heap's O(log n) churn at the
  deep queue depths of full-scale (32-node / 256-VCPU) runs.

Both backends pop events in an identical order, so simulation results are
bit-identical regardless of backend (enforced by a differential test).
Select with ``Simulator(queue="bucket")`` or ``REPRO_EVENT_QUEUE=bucket``.

Design notes (following the repository's HPC-Python guidelines):

* the hot path (``schedule`` / ``run``) avoids allocation beyond the event
  record itself and uses ``__slots__`` everywhere;
* cancellation is O(1): a cancelled event stays in the queue but is
  skipped when popped (lazy deletion), which is far cheaper than heap
  surgery for the preemption-heavy scheduler workloads simulated here;
* fire-and-forget callbacks that are never cancelled can skip the
  ``Event`` handle entirely via :meth:`Simulator.post_at` /
  :meth:`Simulator.post_after` — the queue entry is then a bare
  ``(time, seq, fn, cat)`` tuple with no per-event object allocation;
* callbacks receive no arguments; closures or ``functools.partial`` bind
  whatever context they need.  This keeps the queue entries small.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import Callable, Iterator, Optional

__all__ = [
    "Event",
    "BucketQueue",
    "Simulator",
    "SimulationError",
    "WatchdogExceeded",
    "install_watchdog",
    "on_simulator_created",
    "EVENT_QUEUE_KINDS",
    "TIE_ORDERS",
    "ACCOUNTING_CATS",
]

#: Optional callable invoked with every newly constructed :class:`Simulator`.
#: The observability layer (:mod:`repro.obs.profiler`) uses this to attach a
#: self-profiler to simulators created deep inside scenario builders without
#: threading a reference through every call site.  ``None`` disables it.
on_simulator_created: Optional[Callable[["Simulator"], None]] = None

#: Recognized queue backends.
EVENT_QUEUE_KINDS = ("heap", "bucket")

#: Recognized tie-order modes for events sharing a timestamp.  ``"fifo"``
#: (default) pops simultaneous events in scheduling order; ``"reversed"``
#: inverts the sequence comparison *within* equal timestamps only (times
#: still pop in order).  Any metric difference between a "fifo" and a
#: "reversed" run of the same scenario is a confirmed order-dependence:
#: the result hinges on insertion order among simultaneous events, which
#: nothing in the model specifies (see :mod:`repro.analysis.races`).
TIE_ORDERS = ("fifo", "reversed")

#: Event categories whose callbacks run in the *accounting phase*: at any
#: given timestamp they execute before all other (default-phase) events,
#: regardless of scheduling order or tie-order mode.  This pins down the
#: one intra-timestamp ordering the model genuinely specifies: periodic
#: accounting (credit refresh, ATC slice recomputation, migration rounds
#: riding the period hooks) applies *before* same-instant dispatches and
#: guest activity consume it.  Without the phase, a slice timer expiring
#: exactly on a period boundary raced the period tick for who runs first —
#: a race the tie-order differential flagged on every ATC scenario.
#: ``tie_order="reversed"`` inverts ordering within a phase only, so the
#: accounting-before-consumers contract is part of the semantics, not an
#: accident of insertion order.
ACCOUNTING_CATS = frozenset({"vmm.period"})

#: Phase stride for queue keys: entries are keyed by
#: ``(time, phase * _PHASE_STRIDE + tie_sign * seq)``.  Sequence numbers
#: can never reach 2**53 events, so phase dominates the comparison and
#: ``seq`` breaks ties within a phase.
_PHASE_STRIDE = 1 << 53


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class WatchdogExceeded(SimulationError):
    """A simulation ran past its :func:`install_watchdog` budget.

    The sweep runner treats this as a non-retryable cell failure: a run
    that blew its event or simulated-time budget once will do so again
    deterministically, so retrying would only burn wall clock.
    """


def install_watchdog(
    sim: "Simulator",
    max_events: Optional[int] = None,
    max_now_ns: Optional[int] = None,
) -> None:
    """Arm a simulated-time / event-count watchdog on ``sim``.

    Piggybacks on the per-event ``sim.trace`` probe (chaining any tracer
    already installed, e.g. the runtime sanitizer) and raises
    :exc:`WatchdogExceeded` from inside the run loop once either budget is
    exceeded.  Purely observational until it fires: the check reads
    counters the loop maintains anyway, so a run that stays within budget
    is bit-identical with or without the watchdog.
    """
    if max_events is None and max_now_ns is None:
        return
    prev = sim.trace
    budget_events = None if max_events is None else sim.events_processed + max_events

    def _watch(now: int, fn: Callable[[], None]) -> None:
        if prev is not None:
            prev(now, fn)
        if budget_events is not None and sim.events_processed >= budget_events:
            raise WatchdogExceeded(
                f"watchdog: event budget {max_events} exhausted at t={now}"
            )
        if max_now_ns is not None and now > max_now_ns:
            raise WatchdogExceeded(
                f"watchdog: simulated time {now} ns past budget {max_now_ns} ns"
            )

    sim.trace = _watch


class Event:
    """A handle to a scheduled callback.

    Instances are returned by :meth:`Simulator.at` / :meth:`Simulator.after`
    and can be cancelled.  A cancelled event is skipped by the main loop.
    """

    __slots__ = ("time", "key", "fn", "cancelled", "cat")

    def __init__(
        self, time: int, key: int, fn: Callable[[], None], cat: Optional[str] = None
    ) -> None:
        self.time = time
        #: The entry's queue key (phase, tie sign and sequence number in one
        #: int; see :data:`_PHASE_STRIDE`): ``(time, key)`` is the pop order.
        self.key = key
        self.fn: Optional[Callable[[], None]] = fn
        self.cancelled = False
        #: Profiling category tag (``"guest"``, ``"dom0"``, ``"vmm.slice"``,
        #: ...); purely observational — never read by the event loop itself.
        self.cat = cat

    def cancel(self) -> None:
        """Cancel the event; it will not fire.  Idempotent."""
        self.cancelled = True
        self.fn = None  # break reference cycles / free closure early

    # Ordering ------------------------------------------------------------
    # Queue entries are tuples keyed by (time, key), so the queue never
    # compares Event objects; __lt__ is kept for introspection and tests
    # and agrees with the pop order under every phase and tie order.
    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.key < other.key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} key={self.key} {state}>"


def _entry_live(entry: tuple) -> bool:
    """Is this queue entry still runnable?  (Posted entries always are.)"""
    ev = entry[2]
    return not (ev.__class__ is Event and ev.cancelled)


class BucketQueue:
    """A calendar queue over ``(time, seq, ...)`` entries.

    Simulated time is divided into epochs of ``width`` ns.  Entries whose
    epoch is at or before the *current* epoch live in ``_cur``, a small
    binary heap; later entries are appended (unsorted, O(1)) to one of
    ``nbuckets`` circular bucket lists indexed by ``epoch % nbuckets``.
    When the current heap drains, :meth:`_advance` scans forward for the
    next populated epoch and heapifies just that epoch's entries.

    Ordering invariant: every entry in a future bucket has an epoch
    strictly greater than the current one, hence a time strictly greater
    than every entry in ``_cur`` — so the minimum of ``_cur`` is the
    global minimum and pops follow the exact ``(time, seq)`` order of the
    binary-heap backend.

    The queue resizes deterministically (based only on its own contents,
    never on host state) when occupancy outgrows the bucket array, keeping
    per-epoch heaps small for full-scale workloads.
    """

    __slots__ = ("_w", "_n", "_mask", "_buckets", "_cur", "_epoch", "_size")

    def __init__(self, width: int = 4096, nbuckets: int = 1024) -> None:
        if width < 1 or nbuckets < 2 or nbuckets & (nbuckets - 1):
            raise SimulationError(
                f"bucket queue needs width >= 1 and power-of-two buckets, "
                f"got width={width} nbuckets={nbuckets}"
            )
        self._w = width
        self._n = nbuckets
        self._mask = nbuckets - 1
        self._buckets: list[list] = [[] for _ in range(nbuckets)]
        self._cur: list = []  # heap of entries in epochs <= _epoch
        self._epoch = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[tuple]:
        yield from self._cur
        for lst in self._buckets:
            yield from lst

    def push(self, entry: tuple) -> None:
        e = entry[0] // self._w
        if e <= self._epoch:
            heappush(self._cur, entry)
        else:
            self._buckets[e & self._mask].append(entry)
        self._size += 1
        if self._size > 2 * self._n:
            self._resize()

    def peekentry(self) -> Optional[tuple]:
        if not self._size:
            return None
        if not self._cur:
            self._advance()
        return self._cur[0]

    def pop(self) -> tuple:
        if not self._cur:
            self._advance()
        self._size -= 1
        return heappop(self._cur)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Move the current epoch forward to the next populated one.

        Scans at most ``nbuckets`` epochs; past that (a sparse far-future
        schedule) it falls back to a direct minimum search and jumps
        straight to the earliest entry's epoch.
        """
        w = self._w
        mask = self._mask
        buckets = self._buckets
        e = self._epoch + 1
        scanned = 0
        while True:
            lst = buckets[e & mask]
            if lst:
                cur = [x for x in lst if x[0] // w == e]
                if cur:
                    if len(cur) == len(lst):
                        buckets[e & mask] = []
                    else:
                        buckets[e & mask] = [x for x in lst if x[0] // w != e]
                    heapify(cur)
                    self._cur = cur
                    self._epoch = e
                    return
            e += 1
            scanned += 1
            if scanned >= self._n:
                mt = None
                for lst in buckets:
                    for x in lst:
                        if mt is None or x[0] < mt:
                            mt = x[0]
                if mt is None:  # pragma: no cover - guarded by _size
                    raise SimulationError("bucket queue empty in _advance")
                e = mt // w
                scanned = 0

    def _resize(self) -> None:
        """Grow the bucket array; deterministic in queue contents only.

        New geometry: ``nbuckets`` = smallest power of two >= 2x the live
        entry count, ``width`` ~ 3x the mean inter-entry spacing (span /
        size), so one epoch holds a handful of entries on average.
        """
        entries = list(self)
        size = len(entries)
        lo = min(x[0] for x in entries)
        hi = max(x[0] for x in entries)
        span = hi - lo
        n = 2
        while n < 2 * size:
            n *= 2
        w = max(1, (3 * span) // size) if span else self._w
        self._w = w
        self._n = n
        self._mask = n - 1
        self._buckets = [[] for _ in range(n)]
        # Anchor the epoch at the earliest entry so it lands in _cur.
        self._epoch = lo // w
        cur: list = []
        for x in entries:
            e = x[0] // w
            if e <= self._epoch:
                cur.append(x)
            else:
                self._buckets[e & self._mask].append(x)
        heapify(cur)
        self._cur = cur


class Simulator:
    """The discrete-event simulation kernel.

    Attributes
    ----------
    now:
        Current simulation time in integer nanoseconds.
    events_processed:
        Number of callbacks executed so far (skipped/cancelled events do
        not count).
    queue_kind:
        The active backend, ``"heap"`` or ``"bucket"``.
    tie_order:
        How simultaneous events are ordered: ``"fifo"`` (default) or
        ``"reversed"`` (the race-detector differential mode — see
        :data:`TIE_ORDERS`).
    """

    __slots__ = (
        "now",
        "_heap",
        "_q",
        "queue_kind",
        "tie_order",
        "_seqsign",
        "_seq",
        "events_processed",
        "cancelled_popped",
        "_stopped",
        "trace",
        "profiler",
    )

    def __init__(self, queue: Optional[str] = None, tie_order: Optional[str] = None) -> None:
        if queue is None:
            queue = os.environ.get("REPRO_EVENT_QUEUE") or "heap"
        if queue not in EVENT_QUEUE_KINDS:
            raise SimulationError(
                f"unknown event queue {queue!r}; expected one of {EVENT_QUEUE_KINDS}"
            )
        if tie_order is None:
            tie_order = os.environ.get("REPRO_TIE_ORDER") or "fifo"
        if tie_order not in TIE_ORDERS:
            raise SimulationError(
                f"unknown tie order {tie_order!r}; expected one of {TIE_ORDERS}"
            )
        self.tie_order = tie_order
        #: Queue entries are keyed by ``(time, _seqsign * seq)``: +1 pops
        #: FIFO among ties, -1 pops LIFO (reversed) among ties.  Stored on
        #: the instance so the hot scheduling path pays one multiply and
        #: no branch, and the (time, seq) key stays a pure int tuple.
        self._seqsign = 1 if tie_order == "fifo" else -1
        self.queue_kind = queue
        self.now: int = 0
        #: Binary-heap backend storage.  Entries are ``(time, key, Event)``
        #: or ``(time, key, fn, cat)`` tuples (see :meth:`post_at`), where
        #: ``key`` encodes phase and (sign-adjusted) sequence number in one
        #: int; heapq therefore only ever compares ints, never objects.
        self._heap: list = []
        #: Calendar-queue backend (``None`` for the heap backend).
        self._q: Optional[BucketQueue] = BucketQueue() if queue == "bucket" else None
        self._seq: int = 0
        self.events_processed: int = 0
        #: Cancelled events lazily discarded when popped (waste metric).
        self.cancelled_popped: int = 0
        self._stopped = False
        #: Optional callable(time, fn) invoked before each event; used by
        #: the runtime sanitizer, tests and debugging tools.  ``None``
        #: disables tracing (default).
        self.trace: Optional[Callable[[int, Callable[[], None]], None]] = None
        #: Optional :class:`repro.obs.profiler.SimProfiler`; when set, the
        #: loop routes each callback through ``profiler.run_event`` so
        #: wall-clock time is attributed per category.  ``None`` = off.
        self.profiler = None
        if on_simulator_created is not None:
            on_simulator_created(self)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, fn: Callable[[], None], cat: Optional[str] = None) -> Event:
        """Schedule ``fn`` to run at absolute time ``time`` (ns).

        ``cat`` is an optional profiling category tag; the self-profiler
        attributes the callback's wall-clock cost to it.  It has no effect
        on simulation behaviour.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        time = int(time)
        key = self._seqsign * self._seq
        if cat not in ACCOUNTING_CATS:
            key += _PHASE_STRIDE
        ev = Event(time, key, fn, cat)
        entry = (time, key, ev)
        self._seq += 1
        if self._q is None:
            heappush(self._heap, entry)
        else:
            self._q.push(entry)
        return ev

    def after(self, delay: int, fn: Callable[[], None], cat: Optional[str] = None) -> Event:
        """Schedule ``fn`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.now + int(delay), fn, cat)

    def post_at(self, time: int, fn: Callable[[], None], cat: Optional[str] = None) -> None:
        """Fire-and-forget :meth:`at`: no :class:`Event` handle, no cancel.

        The queue entry is a bare ``(time, seq, fn, cat)`` tuple — use this
        on hot paths that never cancel (message deliveries, stat ticks) to
        skip the per-event object allocation.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        key = self._seqsign * self._seq
        if cat not in ACCOUNTING_CATS:
            key += _PHASE_STRIDE
        entry = (int(time), key, fn, cat)
        self._seq += 1
        if self._q is None:
            heappush(self._heap, entry)
        else:
            self._q.push(entry)

    def post_after(self, delay: int, fn: Callable[[], None], cat: Optional[str] = None) -> None:
        """Fire-and-forget :meth:`after` (see :meth:`post_at`)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.post_at(self.now + int(delay), fn, cat)

    def pops_before(self, time: int, cat: Optional[str], ev: Event) -> bool:
        """Would an entry scheduled now at ``time`` in category ``cat`` pop
        before the queued event ``ev``?

        Compares the exact queue key the entry would get, so phase and tie
        order count: under ``tie_order="reversed"`` a new entry at
        ``ev.time`` in ``ev``'s phase pops first.
        """
        if time != ev.time:
            return time < ev.time
        key = self._seqsign * self._seq
        if cat not in ACCOUNTING_CATS:
            key += _PHASE_STRIDE
        return key < ev.key

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the run loop after the current event returns.

        A stopped run leaves :attr:`now` at the last processed event (the
        clock is *not* advanced to a pending ``until`` deadline), so a
        subsequent :meth:`run` resumes exactly where the stop happened.
        """
        self._stopped = True

    def peek(self) -> Optional[int]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        if self._q is None:
            heap = self._heap
            while heap:
                entry = heap[0]
                ev = entry[2]
                if ev.__class__ is Event and ev.cancelled:
                    heappop(heap)
                    self.cancelled_popped += 1
                    continue
                return entry[0]
            return None
        q = self._q
        while True:
            entry = q.peekentry()
            if entry is None:
                return None
            ev = entry[2]
            if ev.__class__ is Event and ev.cancelled:
                q.pop()
                self.cancelled_popped += 1
                continue
            return entry[0]

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if queue empty."""
        pop = (lambda: heappop(self._heap)) if self._q is None else self._q.pop
        size = (lambda: len(self._heap)) if self._q is None else self._q.__len__
        while size():
            entry = pop()
            ev = entry[2]
            if ev.__class__ is Event:
                if ev.cancelled:
                    self.cancelled_popped += 1
                    continue
                fn = ev.fn
                ev.fn = None
            else:
                fn = ev
            self.now = entry[0]
            if self.trace is not None:
                self.trace(self.now, fn)
            if self.profiler is None:
                fn()
            else:
                self.profiler.run_event(
                    ev.cat if ev.__class__ is Event else entry[3], fn, size() + 1
                )
            self.events_processed += 1
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` (ns) is reached, or
        ``max_events`` callbacks have executed.

        When ``until`` is given and no runnable event at or before it
        remains, the clock is advanced to exactly ``until`` so repeated
        ``run`` calls compose naturally.  This holds on every exit path,
        including ``max_events`` exhaustion: if the budget ran out but the
        queue is drained up to ``until``, the clock still lands on
        ``until``; if runnable events at or before ``until`` remain, the
        clock stays at the last processed event so the next ``run`` call
        resumes without skipping them.  A :meth:`stop` likewise leaves
        ``now`` at the last processed event.
        """
        self._stopped = False
        if self._q is None:
            self._run_heap(until, max_events)
        else:
            self._run_bucket(until, max_events)
        if until is not None and self.now < until and not self._stopped:
            nxt = self.peek()
            if nxt is None or nxt > until:
                self.now = until

    def _run_heap(self, until: Optional[int], max_events: Optional[int]) -> None:
        """Hot loop, heap backend.  Pops eagerly and pushes the one
        over-deadline entry back — cheaper than peek-then-pop per event."""
        heap = self._heap
        processed = 0
        while heap and not self._stopped:
            entry = heappop(heap)
            ev = entry[2]
            if ev.__class__ is Event:
                if ev.cancelled:
                    self.cancelled_popped += 1
                    continue
                if until is not None and entry[0] > until:
                    heappush(heap, entry)
                    break
                fn = ev.fn
                ev.fn = None
            else:
                if until is not None and entry[0] > until:
                    heappush(heap, entry)
                    break
                fn = ev
            self.now = entry[0]
            if self.trace is not None:
                self.trace(self.now, fn)
            if self.profiler is None:
                fn()
            else:
                # cat is only needed for attribution; read it lazily so the
                # unprofiled hot path skips the extra attribute/index load.
                self.profiler.run_event(
                    ev.cat if ev.__class__ is Event else entry[3], fn, len(heap) + 1
                )
            self.events_processed += 1
            processed += 1
            if max_events is not None and processed >= max_events:
                break

    def _run_bucket(self, until: Optional[int], max_events: Optional[int]) -> None:
        """Hot loop, calendar-queue backend.  Identical pop order."""
        q = self._q
        processed = 0
        while q._size and not self._stopped:
            entry = q.pop()
            ev = entry[2]
            if ev.__class__ is Event:
                if ev.cancelled:
                    self.cancelled_popped += 1
                    continue
                if until is not None and entry[0] > until:
                    q.push(entry)
                    break
                fn = ev.fn
                ev.fn = None
            else:
                if until is not None and entry[0] > until:
                    q.push(entry)
                    break
                fn = ev
            self.now = entry[0]
            if self.trace is not None:
                self.trace(self.now, fn)
            if self.profiler is None:
                fn()
            else:
                self.profiler.run_event(
                    ev.cat if ev.__class__ is Event else entry[3], fn, q._size + 1
                )
            self.events_processed += 1
            processed += 1
            if max_events is not None and processed >= max_events:
                break

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _entries(self) -> Iterator[tuple]:
        """All queued entries, unordered (tests/debugging only)."""
        return iter(self._heap) if self._q is None else iter(self._q)

    def live_events(self) -> Iterator[Event]:
        """Non-cancelled :class:`Event` handles still queued, unordered.

        Fire-and-forget entries (:meth:`post_at`) have no handle and are
        not included.  O(n); introspection/tests only.
        """
        for entry in self._entries():
            ev = entry[2]
            if ev.__class__ is Event and not ev.cancelled:
                yield ev

    def pending(self) -> int:
        """Number of non-cancelled events still queued (O(n); tests only)."""
        return sum(1 for entry in self._entries() if _entry_live(entry))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = len(self._heap) if self._q is None else len(self._q)
        return f"<Simulator now={self.now} queue={self.queue_kind} pending={n}>"
