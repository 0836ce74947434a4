#!/usr/bin/env python3
"""Bit-level fingerprints of the six witness exclusion programs.

Builds the witness at d = 4, 6, 8 and 10 and alpha = 0.05, 0.3, 0.5, 0.65
and 1/sqrt(2) - 1e-4, runs ``esmr``, ``emmr``, ``max_overlap`` and the
three controls on each, and prints one line per program,
``method d alpha hash``. The hash covers ``outcome_bits`` of
``tests/helpers.py`` (status, pivots and the raw bytes of every number the
outcome carries) and the bytes of the certificate residual, so a change
that keeps every outcome bit prints the same 120 lines:

    PYTHONPATH=src python3 tools/outcome_bits.py > bits.txt

The program is imported from ``PYTHONPATH``, so pointing it at another
checkout's ``src`` fingerprints that checkout; ``outcome_bits`` always
comes from this checkout's tests.
"""

import os

# One BLAS thread, as the digest guard runs. Set before numpy is imported
# anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from helpers import outcome_bits
from macroreal import WitnessExclusion, WitnessParams, build_witness
from macroreal.witness import ALPHA_MAX

METHODS = ("esmr", "emmr", "max_overlap", "static_control", "unconstrained_control",
           "macro_only_control")
DIMS = (4, 6, 8, 10)
ALPHAS = (0.05, 0.3, 0.5, 0.65, ALPHA_MAX - 1e-4)


def program_lines(dim: int, alpha: float) -> list[str]:
    """One ``method d alpha hash`` line per program of the witness at
    (dim, alpha), in ``METHODS`` order."""
    context = WitnessExclusion(build_witness(WitnessParams(alpha, dim)))
    lines = []
    for method in METHODS:
        report = getattr(context, method)()
        digest = hashlib.sha256(repr(outcome_bits(report.outcome)).encode())
        digest.update(np.float64(report.certificate_residual).tobytes())
        lines.append(f"{method} {dim} {alpha!r} {digest.hexdigest()[:16]}")
    return lines


def main() -> None:
    for dim in DIMS:
        for alpha in ALPHAS:
            print("\n".join(program_lines(dim, alpha)), flush=True)


if __name__ == "__main__":
    main()
