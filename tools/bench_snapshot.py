#!/usr/bin/env python3
"""Write one benchmark snapshot of this checkout to a JSON file.

    python3 tools/bench_snapshot.py BENCH_<n>.json

The snapshot holds five kinds of timing, all taken on this host:

- ``tier1``: the wall seconds of the tier-1 suite
  (``python -m pytest -q --continue-on-collection-errors`` with ``src`` on
  the path), raw and scaled to the reference speed of
  ``bench/hostspeed.py``'s kernel (timed just before and just after the
  suite), and its summary line;
- ``cli``: each command's cold wall seconds, round by round, raw and
  scaled to the reference speed of ``bench/hostspeed.py``'s kernel, and the
  child's largest ``ru_maxrss`` in MB, from ``tools/cli_cost.py``'s round
  runner (BLAS on one thread). The commands are the benchmark's five fixed
  ones, then ``witness``, ``sweep`` and ``exclude`` in its three modes at
  d = 4 and 16. ``host.kernel_s_median`` is the kernel's median time over
  the samples taken around the suite and these children;
- ``serialize``: the median of each ``serialize.*`` metric over
  ``TRACED_SEEDS`` traced ``bench/run.py --workload cli`` runs, since one
  traced run swings by 20-30%;
- ``model_audit``: the median of every per-layer metric over
  ``TRACED_SEEDS`` traced ``bench/run.py --workload model_audit`` runs,
  among them ``zoo.grid_s`` and ``zoo.ks_build_s``;
- ``exclusion``: the same over traced ``bench/run.py --workload exclusion``
  runs, among them the EMMR child's peak RSS
  ``exclusion.emmr_rss_mb.d4``/``d8``/``d10`` and the EMMR solve's counts
  ``lp.pivots.emmr`` and ``lp.tableau_cells.emmr``.

The whole snapshot takes about three minutes on two cores. Two snapshots
compare only when taken on the same host, and their wall times compare
best by the scaled walls.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

import cli_cost
import toolenv

ROOT = toolenv.ROOT
TRACED_SEEDS = (1, 2, 3, 4)
TRACED_SECONDS = 5
POINT_ALPHA = "0.5"


def point_commands() -> list:
    out = []
    for dim in ("4", "16"):
        out.append(["witness", "--alpha", POINT_ALPHA, "--dim", dim, "--json", "-"])
        out.append(["sweep", "--dim", dim, "--csv", "-"])
        for mode in ("esmr", "emmr", "max-overlap"):
            out.append(["exclude", "--alpha", POINT_ALPHA, "--dim", dim, "--mode", mode,
                        "--json", "-"])
    return out


def tier1(host) -> dict:
    """The tier-1 suite's run, timed by ``cli_cost.sampled_run`` as each
    command is."""
    done, wall, factor = cli_cost.sampled_run(
        host, [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, env=toolenv.child_env(), capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall, "scaled_wall_s": wall * factor,
            "exit_code": done.returncode, "summary": lines[-1] if lines else ""}


def cli(host) -> list:
    """The command rows, timed with ``host``."""
    rows = cli_cost.run_rounds(cli_cost.fixed_commands() + point_commands(), host)
    for row in rows:
        row["median_wall_s"] = statistics.median(row["wall_s"])
        row["median_scaled_wall_s"] = statistics.median(row["scaled_wall_s"])
    return rows


def traced_medians(workload: str, prefix: str = "") -> dict:
    """Median over ``TRACED_SEEDS`` of each per-layer metric whose name
    starts with ``prefix``, from traced runs of ``workload``."""
    values = {}
    for seed in TRACED_SEEDS:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(TRACED_SECONDS), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result["failed"]:
            raise SystemExit(f"traced {workload} run at seed {seed}: {result['failed']} failed")
        for name, metric in result["metrics"].items():
            if name.startswith(prefix):
                values.setdefault(name, []).append(metric["value"])
    return {"seeds": list(TRACED_SEEDS), "seconds": TRACED_SECONDS,
            "median": {name: statistics.median(v) for name, v in sorted(values.items())}}


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python3 tools/bench_snapshot.py OUT.json", file=sys.stderr)
        return 2
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    hostspeed = toolenv.load(ROOT / "bench" / "hostspeed.py")
    host = hostspeed.HostSpeed()
    tier1_run = tier1(host)
    rows = cli(host)
    snapshot = {
        "commit": commit or None,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": version("numpy"), "scipy": version("scipy"),
                 "ref_s": hostspeed.REF_S, "kernel_s_median": host.median()},
        "tier1": tier1_run,
        "cli": rows,
        "serialize": traced_medians("cli", "serialize."),
        "model_audit": traced_medians("model_audit"),
        "exclusion": traced_medians("exclusion"),
    }
    Path(sys.argv[1]).write_text(json.dumps(snapshot, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
