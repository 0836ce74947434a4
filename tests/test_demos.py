"""Smoke test: every script in ``demos/`` runs to completion.

Each demo runs in its own child interpreter, with BLAS on one thread, in a
temporary working directory, so a demo that writes files leaves nothing in
the checkout. The demos call the public API, so a renamed or removed entry
point shows up here as a non-zero exit.
"""

import subprocess
import sys

import pytest
from toolenv import ROOT, child_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert [demo.name for demo in DEMOS] == [
        "exclusion_certificates.py", "lgi_landscape.py", "model_zoo.py", "witness_tour.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo, tmp_path):
    child = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=child_env(threads=1), cwd=tmp_path, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip()
