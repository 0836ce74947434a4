#!/usr/bin/env python3
"""Run alternating benchmark pairs of a parent checkout and this one.

    python3 tools/bench_pairs.py PARENT_DIR --workload cli --seeds 1-10

For each seed it runs this checkout's ``bench/run.py --trace 0 --seconds
<run_seconds of BENCHMARK.json>`` twice: once with the parent's checkout
as working directory and once with a fresh clone of this checkout's HEAD,
made in a temporary directory beside PARENT_DIR, so both sides run the
same benchmark code and each imports its own ``src/`` from a fresh
checkout. (Run from the working checkout itself, the change read about 3%
slower on ``cli`` than the same code in a fresh clone.) Odd seeds run the
parent first, even seeds the change. The clone holds committed code only,
so a checkout whose tracked files have uncommitted changes is refused with
one line on stderr and exit code 2.

It prints each side's failed/attempted operations and, for every
end-to-end metric of BENCHMARK.json, both medians, the parent's quartiles
and spread (the distance between the quartiles as a share of its median),
the metric's bound, how many pairs the change lost, and a verdict:

- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``gain``: the change wins at least nine tenths of the pairs (ties count
  for neither) and its median is better by more than the distance between
  the parent's quartiles;
- ``unresolved``: the parent's spread exceeds the bound and not every run
  of the change beats every run of the parent;
- ``holds``: none of these.

Then it prints the pairs, one row per seed, with the parent's (``p``) and
the change's (``c``) value of each end-to-end metric.

Exits 1 when a metric is ``worse`` or more operations failed on the
change's side. Each run writes its result under ``.bench_out/`` of the
checkout it ran in, as ``bench/run.py`` does; the clone, and the change
side's results with it, are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import toolenv

ROOT = toolenv.ROOT
SIDES = ("parent", "change")


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def verdict(parent: list, change: list, bound: float, better: str) -> str:
    """The verdict on one metric from its paired runs: ``parent[i]`` and
    ``change[i]`` are pair i's values, ``bound`` the share of the parent's
    median by which the metric may worsen, and ``better`` "lower" or
    "higher"."""
    sign = 1.0 if better == "lower" else -1.0   # sign * value: lower is better
    p_mid, c_mid = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if sign * (c_mid - p_mid) > bound * abs(p_mid):
        return "worse"
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and sign * (p_mid - c_mid) > q3 - q1:
        return "gain"
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if q3 - q1 > bound * abs(p_mid) and not every_run_better:
        return "unresolved"
    return "holds"


def run(cwd: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {cwd} seed {seed} exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "macroreal" / "__init__.py").is_file():
        parser.error(f"no src/macroreal under {args.parent}")
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    if status.stdout.strip():
        print(f"bench_pairs: {ROOT} has uncommitted changes to tracked files; the change "
              "side runs a clone of HEAD, so commit them first", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = args.parent.resolve()
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_", dir=parent.parent) as scratch:
        dirs = {"parent": parent, "change": Path(scratch) / "change"}
        subprocess.run(["git", "clone", "--quiet", str(ROOT), str(dirs["change"])], check=True)
        for seed in args.seeds:
            for side in (SIDES if seed % 2 else SIDES[::-1]):
                runs[side].append(run(dirs[side], args.workload, seed, spec["run_seconds"]))
            print(f"seed {seed}: " + ", ".join(
                f"{side} failed {runs[side][-1]['failed']}/{runs[side][-1]['attempted']}"
                for side in SIDES), flush=True)

    failed = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
    for side in SIDES:
        print(f"{side}: failed {failed[side]} of {sum(r['attempted'] for r in runs[side])}")
    print(f"{'metric':<14}{'parent':>12}{'change':>12}{'p q1':>12}{'p q3':>12}"
          f"{'spread':>8}{'bound':>7}{'lost':>6}  verdict")
    verdicts = []
    for entry in spec["end_to_end"]:
        name, better = entry["name"], entry["better"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES)
        q1, _, q3 = statistics.quantiles(parent, n=4)
        p_mid = statistics.median(parent)
        sign = 1.0 if better == "lower" else -1.0
        lost = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        verdicts.append(verdict(parent, change, entry["bound"], better))
        print(f"{name:<14}{p_mid:>12.6g}{statistics.median(change):>12.6g}{q1:>12.6g}"
              f"{q3:>12.6g}{(q3 - q1) / p_mid if p_mid else 0.0:>8.3f}{entry['bound']:>7}"
              f"{lost:>3}/{len(parent):<2}  {verdicts[-1]}")
    names = [entry["name"] for entry in spec["end_to_end"]]
    print(f"{'seed':<6}" + "".join(f"{name} {side[0]}".rjust(16)
                                   for name in names for side in SIDES))
    for k, seed in enumerate(args.seeds):
        print(f"{seed:<6}" + "".join(f"{runs[side][k]['metrics'][name]['value']:>16.6g}"
                                     for name in names for side in SIDES))
    return 1 if "worse" in verdicts or failed["change"] > failed["parent"] else 0


if __name__ == "__main__":
    sys.exit(main())
