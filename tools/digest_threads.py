#!/usr/bin/env python3
"""Replay the CLI digest guard with BLAS on a given number of threads.

    python3 tools/digest_threads.py 2

Runs every command recorded in ``bench/cli_digests.json`` the way
``tests/test_cli_digests.py`` does (its ``run_recorded``: one child
interpreter, the commands in script order), with the child's OpenBLAS, OMP
and MKL thread counts set to THREADS, which must lie in 1..``os.cpu_count()``.
Prints each command whose exit code, stdout digest or file digests differ
from the record, then ``k of N differ``, and exits 1 when k > 0. The
package is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import os
import sys

import toolenv


def thread_count(text: str) -> int:
    threads, cpus = int(text), os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        raise argparse.ArgumentTypeError(f"THREADS must be in 1..{cpus}, not {threads}")
    return threads


def differing(entries: dict, produced: dict) -> list:
    """The commands of ``produced`` (in its order) whose exit code is not 0
    or whose digests are not the recorded ``entries``."""
    return [
        command for command, (code, digest, written) in produced.items()
        if code != 0 or digest != entries[command]["stdout"]
        or written != entries[command].get("files", {})
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("threads", type=thread_count, metavar="THREADS")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(toolenv.ROOT / "src"))  # bench/workloads.py imports macroreal
    guard = toolenv.load(toolenv.ROOT / "tests" / "test_cli_digests.py")
    bad = differing(guard.ENTRIES, guard.run_recorded(args.threads))
    for command in bad:
        print(command)
    print(f"{len(bad)} of {len(guard.ENTRIES)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
