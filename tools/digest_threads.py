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
import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GUARD = ROOT / "tests" / "test_cli_digests.py"


def thread_count(text: str) -> int:
    threads, cpus = int(text), os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        raise argparse.ArgumentTypeError(f"THREADS must be in 1..{cpus}, not {threads}")
    return threads


def load_guard():
    """The digest guard module, importing ``macroreal`` from ``src/`` and
    its ``helpers`` from ``tests/``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    spec = importlib.util.spec_from_file_location("test_cli_digests", GUARD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    guard = load_guard()
    bad = differing(guard.ENTRIES, guard.run_recorded(args.threads))
    for command in bad:
        print(command)
    print(f"{len(bad)} of {len(guard.ENTRIES)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
