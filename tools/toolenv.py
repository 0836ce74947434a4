"""The one home of what the tests and the tools share to run the package.

- ``ROOT`` is this checkout.
- ``one_blas_thread`` pins OpenBLAS, OMP and MKL (``BLAS_VARS``) to one
  thread, as the benchmark and the digest guard run them: called on
  ``os.environ`` before numpy is imported, it pins the tool's own process.
- ``child_env`` is the one recipe for a child interpreter's environment:
  this one, with ``ROOT/src`` first on ``PYTHONPATH``, Python's default
  warning filters and, when given a thread count, BLAS on that many threads.
- ``load`` runs a Python file, such as ``bench/workloads.py``, as a fresh
  module without writing to it or to ``sys.path``.
- ``quiet`` discards stdout and stderr, optionally inside a working
  directory.

It imports only the standard library, so a tool can import it before numpy.
The tools import it as a sibling (run as a script, a tool finds it through
its own directory on ``sys.path``); the tests import it through the
``tools`` entry of the pytest ``pythonpath`` in ``pyproject.toml``.
"""

import contextlib
import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def one_blas_thread(env):
    """``env`` with each BLAS thread count set to 1, changed in place and returned."""
    env.update({var: "1" for var in BLAS_VARS})
    return env


def child_env(threads: int | None = None) -> dict:
    """A copy of this environment with ``ROOT/src`` first on ``PYTHONPATH``,
    ``PYTHONWARNINGS`` dropped and, when ``threads`` is given, BLAS on that
    many threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONWARNINGS", None)
    if threads is not None:
        env.update({var: str(threads) for var in BLAS_VARS})
    return env


def load(path: Path):
    """The Python file at ``path``, executed as a new module named
    ``<its folder>_<its stem>``."""
    spec = importlib.util.spec_from_file_location(f"{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def quiet(workdir=None):
    """Discard stdout and stderr, with ``workdir``, when given, as the
    working directory."""
    cwd = os.getcwd()
    try:
        if workdir is not None:
            os.chdir(workdir)
        with open(os.devnull, "w") as sink:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                yield
    finally:
        os.chdir(cwd)
