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
outcome labels.

Next it prints one ``overlap name hash`` line for each of the same four
models. The hash covers the value bytes and the dtype and bytes of the
realizing set of ``asymmetric_overlap`` for every preparation against
every single target (each state with a delta set and each macro value with
declared eigenstates, the only targets there are), each asked twice so
that the second read of a memoized set counts, and against every union of
two distinct targets.

Then it prints one ``widened name hash`` line for each of the same four
models, which covers the memo-invalidation path of ``with_preparation``.
With the first delta-set state's realizing set already read, the model's
first preparation, rolled by one atom, is registered into that state's
delta set with ``with_preparation(..., delta_of=state)``. The hash covers
the value bytes and the dtype and bytes of the realizing set of that
state's overlap for every preparation of the widened model, each asked
twice.

Last it prints one ``classify name hash`` line for each of the same four
models, each classified against the fragment it was built from. The hash
covers the kind, then ``tree_bits`` of ``tests/helpers.py`` on the
evidence, which is read after the kind. A change that keeps every outcome,
model, overlap, kind and evidence bit prints the same 136 lines:

    PYTHONPATH=src python3 tools/outcome_bits.py > bits.txt

The program is imported from ``PYTHONPATH``, so pointing it at another
checkout's ``src`` fingerprints that checkout; ``outcome_bits`` and
``tree_bits`` always come from this checkout's tests.
"""

import os

import toolenv

# One BLAS thread, as the digest guard runs. Set before numpy is imported
# anywhere.
toolenv.one_blas_thread(os.environ)

import hashlib
import itertools
import math

import numpy as np

from macroreal import (
    WitnessExclusion,
    WitnessParams,
    asymmetric_overlap,
    build_witness,
    classify,
    emmr_toy_model,
    fibonacci_sphere_grid,
    kochen_specker_model,
    qubit_fragment,
)
from macroreal.cli import _zoo_build, build_parser
from macroreal.witness import ALPHA_MAX

helpers = toolenv.load(toolenv.ROOT / "tests" / "helpers.py")
outcome_bits, tree_bits = helpers.outcome_bits, helpers.tree_bits

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


def zoo_builds() -> dict:
    """The four fingerprinted models by name, ``cap``, ``bb``, ``det`` and
    ``emmr-toy``, each with the fragment it was built from."""
    fragment = qubit_fragment(
        {"up": (0.0, 0.0, 1.0), "skew": (0.6, 0.48, 0.64)},
        {"macro": (0.0, 0.0, 1.0)},
        rotations={"step": ((0.0, 1.0, 0.0), math.pi / 3)},
    )
    builds = {"cap": (kochen_specker_model(fibonacci_sphere_grid(2000), fragment), fragment)}
    for name in ("bb", "det"):
        builds[name] = _zoo_build(build_parser().parse_args(["zoo", name]))[:2]
    builds["emmr-toy"] = emmr_toy_model(math.pi / 3)
    return builds


def model_lines(models: dict) -> list[str]:
    """One ``model name hash`` line per model of ``zoo_builds()``."""
    return [f"model {name} {model_hash(model)}" for name, model in models.items()]


def queries_hash(model, queries) -> str:
    """Hash of the value and realizing set of ``asymmetric_overlap`` for
    each ``(mu, targets)`` query, in order."""
    digest = hashlib.sha256()
    for mu, targets in queries:
        report = asymmetric_overlap(model, mu, targets)
        digest.update(np.float64(report.value).tobytes())
        digest.update(report.realizing_set.dtype.str.encode())
        digest.update(report.realizing_set.tobytes())
    return digest.hexdigest()[:16]


def overlap_hash(model) -> str:
    singles = list(dict.fromkeys([*model.delta_sets, *model.eigenstate_preps]))
    queries = [(mu, t) for mu in model.preparations for t in singles for _ in range(2)]
    queries += [(mu, pair) for mu in model.preparations
                for pair in itertools.combinations(singles, 2)]
    return queries_hash(model, queries)


def overlap_lines(models: dict) -> list[str]:
    """One ``overlap name hash`` line per model of ``zoo_builds()``."""
    return [f"overlap {name} {overlap_hash(model)}" for name, model in models.items()]


def widened_hash(model) -> str:
    state = next(iter(model.delta_sets))
    first = next(iter(model.preparations))
    model.realizing_set(state)   # the old set, which the widened model must not read
    wider = model.with_preparation("widened", np.roll(model.preparation(first), 1),
                                   delta_of=state)
    return queries_hash(wider, [(mu, state) for mu in wider.preparations for _ in range(2)])


def widened_lines(models: dict) -> list[str]:
    """One ``widened name hash`` line per model of ``zoo_builds()``."""
    return [f"widened {name} {widened_hash(model)}" for name, model in models.items()]


def classify_hash(model, fragment) -> str:
    verdict = classify(model, fragment)
    digest = hashlib.sha256(verdict.kind.encode())
    digest.update(repr(tree_bits(verdict.evidence)).encode())
    return digest.hexdigest()[:16]


def classify_lines(builds: dict) -> list[str]:
    """One ``classify name hash`` line per model of ``zoo_builds()``."""
    return [f"classify {name} {classify_hash(model, fragment)}"
            for name, (model, fragment) in builds.items()]


def main() -> None:
    for dim in DIMS:
        for alpha in ALPHAS:
            print("\n".join(program_lines(dim, alpha)), flush=True)
    builds = zoo_builds()
    models = {name: model for name, (model, _) in builds.items()}
    print("\n".join(model_lines(models)), flush=True)
    print("\n".join(overlap_lines(models)), flush=True)
    print("\n".join(widened_lines(models)), flush=True)
    print("\n".join(classify_lines(builds)), flush=True)


if __name__ == "__main__":
    main()
