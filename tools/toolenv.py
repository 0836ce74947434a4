"""The environment the tools run the package in.

``one_blas_thread`` pins OpenBLAS, OMP and MKL to one thread, as the
benchmark and the digest guard run them: called on ``os.environ`` before
numpy is imported it pins the tool's own process, and on a child's
environment it pins the child. ``child_env`` is this environment with the
package imported from the ``src`` directory of this checkout. The tools
import this module as a sibling: run as a script, a tool finds it through
its own directory on ``sys.path``.
"""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def one_blas_thread(env):
    """``env`` with each BLAS thread count set to 1, changed in place and returned."""
    env.update({var: "1" for var in BLAS_VARS})
    return env


def child_env() -> dict:
    """A copy of this environment with ``PYTHONPATH`` at this checkout's ``src``."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))
