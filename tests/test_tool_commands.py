"""Every command line the measurement tools run still parses, and the
tools' own rules hold.

``tools/bench_snapshot.py``, ``tools/cli_cost.py`` and
``tools/envelope_scan.py`` run fixed ``macroreal`` command lines, so a flag
that a change renames or removes would fail only minutes into a tool's run.
This test loads the tools, as ``tests/test_trace_sites.py`` loads
``bench/workloads.py``, and parses each of their command lines with the
command line's own parser. ``tools/bench_pairs.py``'s verdict rule is
checked on synthetic runs, ``tools/digest_threads.py``'s thread count
check without starting a child, and ``tools/traffic_lines.py``'s exit when
the package is not on the import path.
"""

import importlib.util
import os
import subprocess
import sys

import pytest
from pathlib import Path

from macroreal.cli import build_parser

TOOLS = Path(__file__).resolve().parents[1] / "tools"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tool_commands(monkeypatch) -> list:
    """The command lists of the three tools, in the order named above."""
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "1")   # envelope_scan sets them on import
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tools add to it
    cli_cost = _tool("cli_cost")
    monkeypatch.setitem(sys.modules, "cli_cost", cli_cost)   # bench_snapshot imports it
    envelope = _tool("envelope_scan")
    return [
        _tool("bench_snapshot").point_commands(),
        cli_cost.fixed_commands(),
        [[*argv, "--alpha", "0.5", "--dim", "4"] for argv in envelope.COMMANDS.values()],
    ]


def test_every_tool_command_parses(monkeypatch):
    lists = _tool_commands(monkeypatch)
    assert all(lists)
    parser = build_parser()
    rejected = []
    for argv in (argv for commands in lists for argv in commands):
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(argv)
    assert rejected == []


TIGHT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.00, 1.01, 1.02, 1.03, 1.04]   # spread 0.025 of 1.02
WIDE = [0.6, 0.8, 1.0, 1.2, 1.4, 0.7, 0.9, 1.1, 1.3, 1.0]             # spread 0.45 of 1.0


@pytest.mark.parametrize("parent, change, better, expected", [
    (TIGHT, [v * 1.3 for v in TIGHT], "lower", "worse"),
    (TIGHT, [v * 1.1 for v in TIGHT], "higher", "gain"),
    (WIDE, [v * 1.05 for v in WIDE], "lower", "unresolved"),
    (TIGHT, TIGHT[::-1], "lower", "holds"),
], ids=["worse", "gain", "unresolved", "holds"])
def test_bench_pairs_verdict(parent, change, better, expected):
    assert _tool("bench_pairs").verdict(parent, change, 0.25, better) == expected


def test_bench_pairs_wide_spread_resolves_when_every_change_run_is_better():
    change = [min(WIDE) - 0.01] * len(WIDE)   # the medians differ by less than the parent's IQR
    assert _tool("bench_pairs").verdict(WIDE, change, 0.25, "lower") == "holds"


@pytest.mark.parametrize("threads", ["0", str((os.cpu_count() or 1) + 1)], ids=["zero", "above-cpus"])
def test_digest_threads_rejects_a_count_outside_the_cpus_before_starting(monkeypatch, threads):
    def started(*args, **kwargs):
        raise AssertionError("a child was started")

    monkeypatch.setattr(subprocess, "run", started)
    with pytest.raises(SystemExit) as stop:
        _tool("digest_threads").main([threads])
    assert stop.value.code == 2


def test_traffic_lines_without_the_package_names_its_import_path(monkeypatch, capsys):
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "1")   # traffic_lines sets them on import
    tool = _tool("traffic_lines")
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "macroreal" else find_spec(name, *args))
    with pytest.raises(SystemExit) as stop:
        tool.main()
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "macroreal is not importable" in err and "PYTHONPATH" in err
