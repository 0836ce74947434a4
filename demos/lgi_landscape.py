#!/usr/bin/env python3
"""Three-time K statistics across model types.

K = C12 + C23 - C13 with classical bound 1. Quantum dynamics violates the
bound; so does the hemisphere-cap model (its measurement updates disturb
non-eigenstate preparations); the two-state mixture model with
non-invasive updates never does.
"""

import math

import numpy as np

from macroreal import (
    LGIModelBinding,
    emmr_toy_model,
    fibonacci_sphere_grid,
    kochen_specker_model,
    model_correlators,
    quantum_correlators,
    qubit_fragment,
    rotation_protocol,
)

NODES = 20000
grid = fibonacci_sphere_grid(NODES)

print("=" * 72)
print("K landscape (three-time, bound 1 for non-invasive mixtures)")
print("=" * 72)
print(f"{'theta':>8} {'quantum':>10} {'cap model':>10} {'mixture':>10}")

for theta in np.linspace(0.0, math.pi, 13):
    q = quantum_correlators(rotation_protocol(float(theta)))
    # no states: the correlators start from the macro caps, the cap model's
    # first declared eigenstates, so catalogued states would go unread
    frag = qubit_fragment(
        {}, {"macro": (0, 0, 1.0)}, rotations={"step": ((0.0, 1.0, 0.0), float(theta))},
    )
    ks = kochen_specker_model(grid, frag)
    k_ks = model_correlators(ks, LGIModelBinding("macro", "step")).k
    toy, _ = emmr_toy_model(float(theta))
    k_toy = model_correlators(toy, LGIModelBinding("macro", "step")).k
    flag = "  <- violation" if q.k > 1.0 + 1e-9 else ""
    print(f"{theta:8.4f} {q.k:10.5f} {k_ks:10.5f} {k_toy:10.5f}{flag}")

peak = quantum_correlators(rotation_protocol(math.pi / 3))
print(f"""
at theta = pi/3 the quantum and cap-model K reach {peak.k:.4f}: an
eigenstate-supported model violating the three-time bound, which is why
these inequalities alone cannot separate that model class from quantum
theory, and why the overlap/LP route is needed.
""")
