#!/usr/bin/env python3
"""Executable lines of the ``macroreal`` package that ordinary traffic never reaches.

Runs, in one process and under ``sys.settrace``:

- every command recorded in ``bench/cli_digests.json``, through
  ``macroreal.cli.run`` inside a temporary directory, in the order of
  ``SCRIPT`` in ``tests/test_cli_digests.py``, so ``classify`` reads the
  files ``zoo ks`` wrote;
- two cycles each of the benchmark's ``exclusion`` and ``model_audit``
  workloads at seed 1, with their output checks;
- the four demos.

Then it prints each executable line of the package that none of them
reached, as ``module:line: source``, so the outputs of two commits can be
diffed:

    PYTHONPATH=src python3 tools/traffic_lines.py > traffic.txt

The package is imported from ``PYTHONPATH``; without it on the path the
tool says so in one line and exits with code 2. A command that exits non-zero,
a workload check that reports a problem or a demo that raises stops the run
with exit code 1, since its traffic would not be the ordinary one.
"""

import os

import toolenv

# One BLAS thread, as the benchmark and the digest guard run. Set before
# numpy is imported anywhere.
toolenv.one_blas_thread(os.environ)

import importlib.util
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = toolenv.ROOT
CYCLES = 2
SEED = 1


def executable_lines(path: Path) -> set:
    """Line numbers that carry bytecode in the module's code objects. A
    nested code object's first line (its ``def``, or the line of a lambda or
    comprehension) is left to the enclosing code, which executes that line
    whenever it defines or builds the nested one."""
    lines = set()
    todo = [(compile(path.read_text(), str(path), "exec"), True)]
    while todo:
        code, top = todo.pop()
        first = None if top else code.co_firstlineno
        lines.update(line for _, _, line in code.co_lines() if line and line != first)
        todo.extend((const, False) for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def tracer(package: str, reached: set):
    """A global trace function that line-traces frames of files in
    ``package`` and records each (file, line) they execute."""
    inside: dict = {}

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        hit = inside.get(filename)
        if hit is None:
            hit = inside[filename] = os.path.realpath(filename).startswith(package + os.sep)
        return local if hit else None

    return trace


def run_traffic(workdir: str) -> None:
    from macroreal.cli import run

    workloads = toolenv.load(ROOT / "bench" / "workloads.py")
    for command in toolenv.load(ROOT / "tests" / "test_cli_digests.py").SCRIPT:
        with toolenv.quiet(workdir):
            code = run(command.split())
        if code != 0:
            sys.exit(f"traffic: `macroreal {command}` exited {code}")

    for workload in (workloads.Exclusion, workloads.ModelAudit):
        bench = workload(SEED, False)
        for k in range(CYCLES):
            for inp in bench.cycle(k):
                problems = bench.check(inp, bench.run(inp))
                if problems:
                    sys.exit(f"traffic: {workload.name}: {problems[0]}")

    for demo in sorted((ROOT / "demos").glob("*.py")):
        with toolenv.quiet(workdir):
            runpy.run_path(str(demo), run_name="__main__")


def main() -> None:
    spec = importlib.util.find_spec("macroreal")
    if spec is None:
        print("traffic: macroreal is not importable; this tool imports it from PYTHONPATH "
              "(PYTHONPATH=src python3 tools/traffic_lines.py)", file=sys.stderr)
        sys.exit(2)
    package = os.path.realpath(spec.submodule_search_locations[0])
    reached: set = set()
    sys.settrace(tracer(package, reached))
    try:
        with tempfile.TemporaryDirectory() as workdir:
            run_traffic(workdir)
    finally:
        sys.settrace(None)
    reached = {(os.path.realpath(f), line) for f, line in reached}
    for path in sorted(Path(package).glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in reached:
                print(f"{path.stem}:{line}: {source[line - 1].strip()}")


if __name__ == "__main__":
    main()
