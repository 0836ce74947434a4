"""Record the sha256 of every output the cli workload can produce.

    python3 bench/record_digests.py

Run from the repository root. It runs each command of the cli workload's
script once, as the benchmark does, and rewrites bench/cli_digests.json.
The benchmark then fails any command whose output bytes differ, which makes
"CLI outputs stay byte-identical" checkable; rerun this only for a change
that is meant to alter those bytes, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main() -> int:
    workloads = run.load_program()
    work = workloads.Cli(0, False)
    table = {}
    try:
        for argv in workloads.cli_commands():
            code, stdout = work.run(argv)
            if code != 0:
                print(f"`macroreal {' '.join(argv)}` exited {code}", file=sys.stderr)
                return 1
            entry = {"stdout": hashlib.sha256(stdout).hexdigest()}
            if "--model-out" in argv:
                entry["files"] = {
                    name: workloads.sha256_file(work.workdir / name)
                    for name in (workloads.MODEL_FILE, workloads.FRAGMENT_FILE)
                }
            table[" ".join(argv)] = entry
    finally:
        work.close()
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests in {workloads.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
