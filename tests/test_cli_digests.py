"""Byte-identity guard: every recorded `witness`/`exclude` output.

``bench/cli_digests.json`` maps each command of the benchmark's cli script
to the sha256 of its stdout. The commands that need no input files run
here through ``cli.run``, all in one child interpreter; any change to a
status, optimum, certificate vector or float formatting changes a digest.
The file is only read.

The child pins BLAS to one thread, as the benchmark that recorded the
digests does: LAPACK's threaded solve in ``_Simplex.duals`` moves the last
bits of some Farkas rays (1e-18 at d=6) with the thread count.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import macroreal

DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "cli_digests.json"
RECORDED = {
    command: entry["stdout"]
    for command, entry in json.loads(DIGESTS.read_text()).items()
    if command.split()[0] in ("witness", "exclude")
}

CHILD = """
import contextlib, hashlib, io, json, sys
from macroreal.cli import run

result = {}
for command in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(command.split())
    result[command] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps(result))
"""


@pytest.fixture(scope="module")
def produced():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    package_root = str(Path(macroreal.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps(sorted(RECORDED)),
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])


def test_digests_cover_witness_and_exclude():
    kinds = {command.split()[0] for command in RECORDED}
    assert kinds == {"witness", "exclude"}
    modes = {command.split("--mode ")[1] for command in RECORDED if "--mode" in command}
    assert modes == {"esmr", "emmr", "max-overlap"}


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_stdout_matches_recorded_digest(command, produced):
    code, digest = produced[command]
    assert code == 0
    assert digest == RECORDED[command]
