#!/usr/bin/env python3
"""Exit codes of the command line on the README's alpha envelope grid.

Runs ``witness`` and ``exclude --mode {esmr,emmr,max-overlap}`` at d = 4
and d = 6, in process through ``macroreal.cli.run``, at every point of the
grid that the README section "The alpha envelope" samples: 40 points per
decade for alpha in [1e-9, 1e-2], 10 per decade for eps = 1/sqrt(2) - alpha
in [1e-15, 1e-5], and the last double below 1/sqrt(2). The commands'
stdout and stderr are discarded. Each point prints one line,
``command d alpha exit_code``, so the scans of two commits can be diffed:

    PYTHONPATH=src python3 tools/envelope_scan.py > scan.txt

The program is imported from ``PYTHONPATH``, so pointing it at another
checkout's ``src`` scans that checkout.
"""

import os

# One BLAS thread, as the README's envelope was measured. Set before numpy
# is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import math

import numpy as np

from macroreal.cli import run
from macroreal.witness import ALPHA_MAX

COMMANDS = {
    "witness": ["witness"],
    "esmr": ["exclude", "--mode", "esmr"],
    "emmr": ["exclude", "--mode", "emmr"],
    "max-overlap": ["exclude", "--mode", "max-overlap"],
}
DIMS = (4, 6)


def envelope_alphas() -> list[float]:
    """The grid, ascending."""
    low = np.logspace(-9, -2, 7 * 40 + 1)
    high = ALPHA_MAX - np.logspace(-5, -15, 10 * 10 + 1)
    return [float(a) for a in low] + [float(a) for a in high] + [math.nextafter(ALPHA_MAX, 0.0)]


def main() -> None:
    alphas = envelope_alphas()
    with open(os.devnull, "w") as sink:
        for name, argv in COMMANDS.items():
            for dim in DIMS:
                for alpha in alphas:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = run([*argv, "--alpha", repr(alpha), "--dim", str(dim)])
                    print(name, dim, repr(alpha), code, flush=True)


if __name__ == "__main__":
    main()
