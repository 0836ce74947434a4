"""Every command line the measurement tools run still parses.

``tools/bench_snapshot.py``, ``tools/cli_cost.py`` and
``tools/envelope_scan.py`` run fixed ``macroreal`` command lines, so a flag
that a change renames or removes would fail only minutes into a tool's run.
This test loads the tools, as ``tests/test_trace_sites.py`` loads
``bench/workloads.py``, and parses each of their command lines with the
command line's own parser.
"""

import importlib.util
import sys
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
