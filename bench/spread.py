"""Run one workload over several seeds and report how far its metrics spread.

    python3 bench/spread.py --workload exclusion --seeds 1-10
    python3 bench/spread.py --workload exclusion --seeds 1-10 --against .bench_out/spread-exclusion-1.json

Run from the repository root. For each metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json. The values go to
``.bench_out/spread-<workload>-<n>.json``; ``--against`` an earlier such
file also prints how far each median moved, as a share of the earlier one,
in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

OUT_DIR = Path(".bench_out")


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = spec["end_to_end"]
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    n = 1
    while (path := OUT_DIR / f"spread-{args.workload}-{n}.json").exists():
        n += 1
    path.write_text(json.dumps(runs, indent=1) + "\n")
    before = json.loads(args.against.read_text()) if args.against else None
    print(f"{'metric':<32}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}{'moved':>9}")
    for entry in declared:
        name = entry["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid if mid else 0.0
        line = f"{name:<32}{mid:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}{entry.get('bound', ''):>7}"
        if before is not None:
            old = statistics.median(r["metrics"][name]["value"] for r in before)
            worse = (mid - old) if entry["better"] == "lower" else (old - mid)
            line += f"{worse / old if old else 0.0:>9.3f}"
        print(line)
    print(f"values in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
