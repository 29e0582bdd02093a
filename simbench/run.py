"""Simulator benchmark: host time per workload, per-layer self time and
exact cost counters.

Run from the repository root::

    python3 simbench/run.py --workload table1_atc --seed 0 --seconds 40 --trace 0
    python3 simbench/run.py                  # every workload, one table each
    python3 simbench/run.py --record         # re-record simbench/reference.json

A run repeats *passes* over the workload's cells (``cells.py``) for about
``--seconds``, in one process, as a closed loop: each cell runs through
``run_sweep(jobs=1, use_cache=False)`` after the previous one returned.
Every cell's simulated result is digested and checked against
``reference.json``; a cell that raises, is not ``ok`` or mismatches counts
as failed.  The deterministic counters must repeat exactly in every pass.

``--trace 0`` reports the end-to-end metrics (median of the passes, with
quartiles and pass count): ``wall_s``, ``setup_s``, ``sim_s_per_host_s``
and ``peak_rss_mb``; the table also prints ``fail_rate``.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
(``layers.py``), and writes the first traced pass's spans as a Chrome-trace
file under ``simbench/results/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

A change that alters simulated behaviour on purpose must re-record the
reference with ``--record`` and say so.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment that would change what the simulator or the runner does.
PINNED_ENV = (
    "REPRO_EVENT_QUEUE",
    "REPRO_TIE_ORDER",
    "REPRO_FULL",
    "REPRO_JOBS",
    "REPRO_BENCH_CACHE",
    "REPRO_CACHE_DIR",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="re-record reference.json")
    args = ap.parse_args(argv)

    for key in PINNED_ENV:
        os.environ.pop(key, None)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"simbench: no simulator sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from simbench import measure
    from simbench.cells import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"simbench: unknown workload {args.workload!r}; known: {list(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.record:
        return measure.record(names)
    status = 0
    for name in names:
        report, spans = measure.measure(name, args.seed, args.seconds, bool(args.trace))
        measure.write_outputs(report, spans)
        measure.print_report(report)
        print(measure.result_line(report), flush=True)
        if not report["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
