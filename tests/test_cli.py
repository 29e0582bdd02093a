"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import VERBS, build_parser, main

#: Every table verb at tiny params: (argv, first stdout line).
TABLE_VERBS = {
    "typea": (["typea", "--app", "is", "--scheduler", "CR", "--rounds", "1"],
              "Evaluation type A"),
    "compare": (["compare", "--app", "is", "--rounds", "1"],
                "Type A comparison — is on 2 nodes"),
    "sweep": (["sweep", "--app", "is", "--slices", "30,1"], "Slice sweep — is.B (CR)"),
    "mix": (["mix", "--scheduler", "CR", "--horizon", "2"], "Mixed tenancy — CR"),
    "typeb": (["typeb", "--scheduler", "CR", "--nodes", "4", "--horizon", "2"],
              "Type B (LLNL trace mix) — CR on 4 nodes"),
    "chaos": (["chaos", "--app", "is", "--rounds", "1", "--horizon", "2",
               "--faults", "random:1:1"],
              "Chaos — is on 2 nodes, plan random:1:1"),
    "migrate": (["migrate", "--horizon", "1"],
                "Migration rebalance — lu x2 clusters, pack placement on 3 nodes"),
    "dfrs": (["dfrs", "--horizon", "1"],
             "DFRS comparator — lu x2 clusters, pack placement on 3 nodes"),
    "serve": (["serve", "--tenants", "2", "--rate", "4", "--horizon", "2"],
              "Service — fcfs-queue admission, poisson arrivals on 3 nodes"),
    "attack": (["attack", "--scheduler", "CR", "--horizon", "1"],
               "Adversarial tenancy — lu victim (tick-sampled accounting; "
               "gain = CPU consumed / CPU debited)"),
    "probe": (["probe", "--scheduler", "CR", "--probes", "10"],
              "Packet-path probe — CR (10 probes)"),
}


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_scheduler():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["typea", "--scheduler", "FIFO"])


def test_parser_rejects_unknown_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["typea", "--app", "linpack"])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("CR", "ATC", "lu", "ep", "ft"):
        assert name in out


def test_list_names_every_table_verb(capsys):
    assert list(VERBS) == list(TABLE_VERBS)
    assert main(["list"]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("experiments:"))
    assert line.split(":", 1)[1].strip().split(", ") == list(TABLE_VERBS)


def test_compare_has_no_scheduler_flag():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compare", "--scheduler", "CR"])


@pytest.mark.parametrize("verb", list(TABLE_VERBS))
def test_table_verb_runs(verb, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # chaos writes its salvage report to cwd
    argv, title = TABLE_VERBS[verb]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == title


def test_table_verb_cells_are_pinned():
    """The cells each verb declares for a fixed argv, without running
    them, are the ones recorded in ``cli_cells.json``."""
    pinned = json.loads((Path(__file__).parent / "cli_cells.json").read_text())
    assert list(pinned) == list(TABLE_VERBS)
    for verb, (argv, _) in TABLE_VERBS.items():
        args = build_parser().parse_args(argv)
        assert [s.to_dict() for s in VERBS[verb].cells(args)] == pinned[verb], verb


def test_usage_errors_exit_2_before_any_cell_runs(capsys):
    assert main(["sweep", "--slices", "30,abc"]) == 2
    assert "--slices expects comma-separated ms values" in capsys.readouterr().err
    assert main(["chaos", "--faults", "[]"]) == 2
    assert "empty plan" in capsys.readouterr().err


def test_typea_command(capsys):
    assert main(["typea", "--app", "is", "--scheduler", "CR", "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert "Evaluation type A" in out
    assert "is" in out


def test_sweep_command(capsys):
    assert main(["sweep", "--app", "is", "--slices", "30,1"]) == 0
    out = capsys.readouterr().out
    assert "Slice sweep" in out
    assert "30" in out and "1" in out


def test_mix_command(capsys):
    assert main(["mix", "--scheduler", "CR", "--horizon", "2"]) == 0
    out = capsys.readouterr().out
    assert "ping RTT" in out


def test_typeb_command(capsys):
    assert main(["typeb", "--scheduler", "CR", "--nodes", "4", "--horizon", "2"]) == 0
    out = capsys.readouterr().out
    assert "LLNL trace mix" in out


def test_probe_command(capsys):
    assert main(["probe", "--scheduler", "CR", "--probes", "10"]) == 0
    out = capsys.readouterr().out
    assert "end to end" in out


def test_extended_kernels_run():
    """ep (no communication) and ft (all-to-all) run end-to-end."""
    from repro.experiments.scenarios import run_type_a

    for app in ("ep", "ft"):
        r = run_type_a(app, "CR", 2, rounds=1, warmup_rounds=0, horizon_s=120)
        assert r["all_done"], app
    # ep has no messages at all
    r = run_type_a("ep", "CR", 2, rounds=1, warmup_rounds=0, horizon_s=120)
    assert r["cluster"]["messages_sent"] == 0


def test_new_spec_cpu_apps():
    from tests.conftest import add_guest_vm, make_node_world
    from repro.sim.rng import SimRNG
    from repro.sim.units import SEC
    from repro.workloads.nonparallel import CPU_APP_SPECS, CpuApp

    sim, cluster, vmms = make_node_world(n_pcpus=2)
    vm = add_guest_vm(vmms[0], 2)
    mcf = CpuApp(sim, vm, CPU_APP_SPECS["mcf"], SimRNG(0))
    gobmk = CpuApp(sim, vm, CPU_APP_SPECS["gobmk"], SimRNG(1))
    mcf.start()
    gobmk.start()
    vmms[0].start()
    sim.run(until=2 * SEC)
    assert mcf.run_times and gobmk.run_times
    assert CPU_APP_SPECS["mcf"].cache_sensitivity > CPU_APP_SPECS["gobmk"].cache_sensitivity
