"""Smoke test: every script in ``demos/`` runs to completion.

Each demo runs in its own child interpreter, with BLAS on one thread, in a
temporary working directory, so a demo that writes files leaves nothing in
the checkout. The demos call the public API, so a renamed or removed entry
point shows up here as a non-zero exit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import macroreal

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert [demo.name for demo in DEMOS] == [
        "exclusion_certificates.py", "lgi_landscape.py", "model_zoo.py", "witness_tour.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    package_root = str(Path(macroreal.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip()
