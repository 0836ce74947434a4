#!/usr/bin/env python3
"""Wall time and peak RSS of the benchmark's five fixed ``macroreal`` commands.

Reads ``FIXED_COMMANDS`` from ``bench/workloads.py`` (loaded read-only, as
``tests/test_trace_sites.py`` loads it) and runs the five commands in that
order, so ``classify`` reads the files ``zoo ks`` wrote. Each command runs
as its own child interpreter, ``python -m macroreal.cli ...``, inside a
temporary directory, with BLAS on one thread and the package imported from
the ``src`` directory beside this script. For each command it prints the
exit code, the wall seconds of each round and the child's largest
``ru_maxrss`` in MB:

    python3 tools/cli_cost.py

The script is run ``ROUNDS`` times. A command that exits non-zero stops the
run with exit code 1.
"""

import importlib.util
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fixed_commands() -> list:
    sys.path.insert(0, str(ROOT / "src"))  # bench/workloads.py imports macroreal
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FIXED_COMMANDS


def run_child(argv: list, cwd: str, env: dict) -> tuple:
    """(exit code, wall seconds, ru_maxrss in MB) of one command."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "macroreal.cli", *argv],
        stdout=subprocess.DEVNULL, cwd=cwd, env=env,
    )
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage.ru_maxrss / 1024.0


def main() -> int:
    commands = fixed_commands()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in BLAS_VARS})
    walls = [[] for _ in commands]
    rss = [0.0] * len(commands)
    with tempfile.TemporaryDirectory() as cwd:
        for _ in range(ROUNDS):
            for i, argv in enumerate(commands):
                code, wall, mb = run_child(argv, cwd, env)
                if code != 0:
                    print(f"`macroreal {' '.join(argv)}` exited {code}", file=sys.stderr)
                    return 1
                walls[i].append(wall)
                rss[i] = max(rss[i], mb)
    print(f"{'command':<88} {'wall s (each round)':<22} max_rss MB")
    for argv, times, mb in zip(commands, walls, rss):
        print(f"{' '.join(argv):<88} {' '.join(f'{t:.2f}' for t in times):<22} {mb:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
