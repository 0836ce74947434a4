#!/usr/bin/env python3
"""Wall time and peak RSS of the benchmark's five fixed ``macroreal`` commands.

Reads ``FIXED_COMMANDS`` from ``bench/workloads.py`` and the host-speed
kernel from ``bench/hostspeed.py`` (both loaded read-only, as
``tests/test_trace_sites.py`` loads the first) and runs the five commands in
that order, so ``classify`` reads the files ``zoo ks`` wrote. Each command
runs as its own child interpreter, ``python -m macroreal.cli ...``, inside a
temporary directory, with BLAS on one thread and the package imported from
the ``src`` directory beside this script. The kernel is timed just before
and just after each child, and the child's wall time is also given scaled to
the kernel's reference speed, as ``bench/run.py`` scales its times, so that
runs on a host whose speed drifts can be compared. For each command it
prints the exit code, the raw and the scaled wall seconds of each round and
the child's largest ``ru_maxrss`` in MB:

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

# Linux carries a process's high-water RSS across exec into what it spawns,
# so a command spawned from this script would report at least this script's
# RSS (numpy, the benchmark's modules, the host-speed kernel). Each command
# is spawned from a bare interpreter instead, which times it and prints its
# exit code, wall seconds and ru_maxrss in KB.
SPAWNER = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


def bench_module(name: str):
    """``bench/<name>.py``, loaded without touching the file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixed_commands() -> list:
    sys.path.insert(0, str(ROOT / "src"))  # bench/workloads.py imports macroreal
    return bench_module("workloads").FIXED_COMMANDS


def sampled_run(host, argv: list, **kwargs) -> tuple:
    """``subprocess.run(argv, **kwargs)`` with ``host`` sampled just before
    and just after it: the finished run, its wall seconds, and the factor
    that scales its wall seconds to the reference host speed."""
    host.sample()
    start = time.perf_counter()
    done = subprocess.run(argv, **kwargs)
    end = time.perf_counter()
    host.sample()
    return done, end - start, host.factor(start, end)


def run_child(argv: list, cwd: str, env: dict, host) -> tuple:
    """(exit code, wall seconds, wall seconds at the reference host speed,
    ru_maxrss in MB) of one command, run by ``sampled_run``."""
    done, _, factor = sampled_run(
        host, [sys.executable, "-c", SPAWNER, sys.executable, "-m", "macroreal.cli", *argv],
        stdout=subprocess.PIPE, cwd=cwd, env=env, text=True, check=True,
    )
    code, wall, kb = done.stdout.split()
    wall = float(wall)
    return int(code), wall, wall * factor, int(kb) / 1024.0


def run_rounds(commands: list, host) -> list:
    """One row per command, each run ``ROUNDS`` times in order inside one
    temporary directory, BLAS on one thread: its ``argv``, its ``wall_s``
    and ``scaled_wall_s`` of each round and its largest ``max_rss_mb``. A
    command that exits non-zero stops the run with exit code 1."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in BLAS_VARS})
    rows = [{"argv": argv, "wall_s": [], "scaled_wall_s": [], "max_rss_mb": 0.0}
            for argv in commands]
    with tempfile.TemporaryDirectory() as cwd:
        for _ in range(ROUNDS):
            for row in rows:
                code, wall, scaled, mb = run_child(row["argv"], cwd, env, host)
                if code != 0:
                    raise SystemExit(f"`macroreal {' '.join(row['argv'])}` exited {code}")
                row["wall_s"].append(wall)
                row["scaled_wall_s"].append(scaled)
                row["max_rss_mb"] = max(row["max_rss_mb"], mb)
    return rows


def main() -> int:
    hostspeed = bench_module("hostspeed")
    host = hostspeed.HostSpeed()
    rows = run_rounds(fixed_commands(), host)
    print(f"{'command':<88} {'wall s (each round)':<20} {'scaled s':<20} max_rss MB")
    for row in rows:
        print(f"{' '.join(row['argv']):<88} {' '.join(f'{t:.2f}' for t in row['wall_s']):<20} "
              f"{' '.join(f'{t:.2f}' for t in row['scaled_wall_s']):<20} {row['max_rss_mb']:.1f}")
    print(f"host kernel median {host.median():.5f} s; scaled times are at its "
          f"reference {hostspeed.REF_S} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
