"""Byte-identity guard: every recorded command output.

``bench/cli_digests.json`` maps each command of the benchmark's cli script
to the sha256 of its stdout, and of the files it writes. Every command runs
here through ``cli.run``, all in one child interpreter inside a scratch
directory: the 128 `witness`/`exclude` commands, then the fixed ones in
script order, so ``classify`` reads the model ``zoo ks`` wrote. The fixed
commands are ``FIXED_COMMANDS`` of ``bench/workloads.py``, loaded from that
file as ``tests/test_trace_sites.py`` loads it, so the guard cannot drift
from the benchmark script. Any change to a status, optimum, certificate
vector, model entry or float formatting changes a digest. Both files are
only read.

The child pins BLAS to one thread, as the benchmark that recorded the
digests does: LAPACK's threaded solve in ``_Simplex.duals`` moves the last
bits of some Farkas rays (1e-18 at d=6) with the thread count.
``tools/digest_threads.py`` runs the same child on more threads through
``run_recorded``.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import macroreal

DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "cli_digests.json"
WORKLOADS = DIGESTS.with_name("workloads.py")
ENTRIES = json.loads(DIGESTS.read_text())
RECORDED = {
    command: entry["stdout"]
    for command, entry in ENTRIES.items()
    if command.split()[0] in ("witness", "exclude")
}


def _fixed_commands() -> list:
    """The benchmark script's fixed commands, in its order."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [" ".join(argv) for argv in module.FIXED_COMMANDS]


FIXED = _fixed_commands()

CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from macroreal.cli import run

result = {}
for command, files in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(command.split())
    written = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in files}
    result[command] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), written]
print(json.dumps(result))
"""


def run_recorded(threads: int) -> dict:
    """Run every recorded command in one child interpreter whose BLAS runs
    on ``threads`` threads, in script order. Map each command to its exit
    code, the sha256 of its stdout and those of the files it wrote."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    package_root = str(Path(macroreal.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    script = [
        (command, sorted(ENTRIES[command].get("files", {})))
        for command in sorted(RECORDED) + FIXED
    ]
    with tempfile.TemporaryDirectory() as workdir:
        child = subprocess.run(
            [sys.executable, "-c", CHILD],
            input=json.dumps(script),
            capture_output=True, text=True, env=env, cwd=workdir, timeout=300, check=True,
        )
    return json.loads(child.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def produced():
    return run_recorded(1)


def test_digests_cover_witness_and_exclude():
    kinds = {command.split()[0] for command in RECORDED}
    assert kinds == {"witness", "exclude"}
    modes = {command.split("--mode ")[1] for command in RECORDED if "--mode" in command}
    assert modes == {"esmr", "emmr", "max-overlap"}


def test_fixed_commands_are_the_other_recorded_commands():
    assert sorted(ENTRIES) == sorted([*RECORDED, *FIXED])


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_stdout_matches_recorded_digest(command, produced):
    code, digest, _ = produced[command]
    assert code == 0
    assert digest == RECORDED[command]


@pytest.mark.parametrize("command", FIXED)
def test_fixed_command_matches_recorded_digests(command, produced):
    code, digest, written = produced[command]
    assert code == 0
    assert digest == ENTRIES[command]["stdout"]
    assert written == ENTRIES[command].get("files", {})
