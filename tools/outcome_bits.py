#!/usr/bin/env python3
"""Bit-level fingerprints of the six witness exclusion programs and of the
model zoo.

Builds the witness at d = 4, 6, 8 and 10 and alpha = 0.05, 0.3, 0.5, 0.65
and 1/sqrt(2) - 1e-4, runs ``esmr``, ``emmr``, ``max_overlap`` and the
three controls on each, and prints one line per program,
``method d alpha hash``. The hash covers ``outcome_bits`` of
``tests/helpers.py`` (status, pivots and the raw bytes of every number the
outcome carries) and the bytes of the certificate residual.

Then it prints one ``model name hash`` line for each of four models: the
cap model (``cap``) on a 2 000-node grid over two states, the macro
measurement and one rotation, whose map snaps the rotated nodes through
``SphereGrid.nearest``; ``bb`` and ``det`` as ``zoo`` builds them; and
``emmr-toy`` at pi/3. The hash covers the name, dtype, shape and bytes of
every preparation, response and map array, in registration order, and the
outcome labels. A change that keeps every outcome and model bit prints the
same 124 lines:

    PYTHONPATH=src python3 tools/outcome_bits.py > bits.txt

The program is imported from ``PYTHONPATH``, so pointing it at another
checkout's ``src`` fingerprints that checkout; ``outcome_bits`` always
comes from this checkout's tests.
"""

import os

import toolenv

# One BLAS thread, as the digest guard runs. Set before numpy is imported
# anywhere.
toolenv.one_blas_thread(os.environ)

import hashlib
import math

import numpy as np

from macroreal import (
    WitnessExclusion,
    WitnessParams,
    build_witness,
    emmr_toy_model,
    fibonacci_sphere_grid,
    kochen_specker_model,
    qubit_fragment,
)
from macroreal.cli import _zoo_build, build_parser
from macroreal.witness import ALPHA_MAX

outcome_bits = toolenv.load(toolenv.ROOT / "tests" / "helpers.py").outcome_bits

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


def model_hash(model) -> str:
    digest = hashlib.sha256()
    for kind in ("preparations", "responses", "maps"):
        for name, array in getattr(model, kind).items():
            digest.update(f"{kind} {name} {array.dtype.str} {array.shape}".encode())
            digest.update(array.tobytes())
    digest.update(repr(model.outcome_labels).encode())
    return digest.hexdigest()[:16]


def model_lines() -> list[str]:
    """One ``model name hash`` line per model: ``cap``, ``bb``, ``det`` and
    ``emmr-toy``."""
    fragment = qubit_fragment(
        {"up": (0.0, 0.0, 1.0), "skew": (0.6, 0.48, 0.64)},
        {"macro": (0.0, 0.0, 1.0)},
        rotations={"step": ((0.0, 1.0, 0.0), math.pi / 3)},
    )
    models = {"cap": kochen_specker_model(fibonacci_sphere_grid(2000), fragment)}
    for name in ("bb", "det"):
        models[name] = _zoo_build(build_parser().parse_args(["zoo", name]))[0]
    models["emmr-toy"] = emmr_toy_model(math.pi / 3)[0]
    return [f"model {name} {model_hash(model)}" for name, model in models.items()]


def main() -> None:
    for dim in DIMS:
        for alpha in ALPHAS:
            print("\n".join(program_lines(dim, alpha)), flush=True)
    print("\n".join(model_lines()), flush=True)


if __name__ == "__main__":
    main()
