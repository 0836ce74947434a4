"""Acceptance suite: one test per headline criterion, each printed as a
pass/fail line with its runtime (run with ``pytest -v -s`` to see them).

Tolerances are fixed here, not configurable: witness identities at 1e-12,
fixing-unitary residuals at 1e-10, excluding-measurement residuals at 1e-8,
saturated slack at 1e-12, gap identity at 1e-14, LP certificates at 1e-7,
cap-model fidelity at 1e-3 on 2e4 nodes, property suite at its per-family
tolerances, LGI values at 5e-3 / 1e-9.
"""

import math
import time

import numpy as np

from macroreal import (
    LGIModelBinding,
    WitnessExclusion,
    WitnessParams,
    beltrametti_bugajski_model,
    bloch_vector,
    build_witness,
    classify,
    contradiction_gap,
    deterministic_extension_model,
    emmr_toy_model,
    kochen_specker_model,
    model_correlators,
    paired_validation_grid,
    quantum_correlators,
    qubit_fragment,
    rotation_protocol,
    sweep,
    validate,
)
from macroreal.ontomodel import Bindings, default_bindings
from helpers import additivity_violations, build_family_member, product_model, property_violations

ALPHAS_64 = np.linspace(0.05, 0.70, 64)


def report_line(number: int, name: str, ok: bool, elapsed: float, limit: float):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({elapsed:.2f}s < {limit:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s: {elapsed:.2f}s"


def test_criterion_1_witness_certification_sweep():
    t0 = time.perf_counter()
    ok = True
    rows = sweep(ALPHAS_64.tolist(), dim=4)
    for row, alpha in zip(rows, ALPHAS_64):
        bundle = build_witness(WitnessParams(float(alpha)))
        ok &= abs(np.linalg.norm(bundle.psi.amplitudes) - 1.0) <= 1e-12
        ok &= abs(np.linalg.norm(bundle.phi.amplitudes) - 1.0) <= 1e-12
        ok &= abs(bundle.zero.inner(bundle.psi) - alpha) <= 1e-12
        ok &= abs(bundle.phi.inner(bundle.psi) - alpha) <= 1e-12
        u = bundle.fixing_unitary.matrix
        ok &= np.linalg.norm(u @ bundle.zero.amplitudes - bundle.phi.amplitudes) <= 1e-10
        ok &= np.linalg.norm(u @ bundle.psi.amplitudes - bundle.psi.amplitudes) <= 1e-10
        ok &= row.antidist.certified
        ok &= row.antidist.residuals is not None and row.antidist.residuals.max() <= 1e-8
        ok &= abs(row.antidist.slack2) <= 1e-12
    report_line(1, "witness-certification-sweep", ok, time.perf_counter() - t0, 5.0)


def test_criterion_2_contradiction_gap():
    t0 = time.perf_counter()
    ok = True
    deficits = []
    for alpha in ALPHAS_64:
        rep = contradiction_gap(float(alpha))
        closed_form = alpha**2 * (1.0 - 2.0 * alpha**2)
        ok &= abs(rep.deficit - closed_form) <= 1e-14
        deficits.append(rep.deficit)
    ok &= abs(contradiction_gap(0.5).deficit - 0.125) <= 1e-14
    ok &= max(deficits) <= 0.125 + 1e-14
    report_line(2, "contradiction-gap", ok, time.perf_counter() - t0, 5.0)


def test_criterion_3_lp_exclusion():
    t0 = time.perf_counter()
    ok = True
    for alpha in (0.3, 0.5, 0.6):
        context = WitnessExclusion(build_witness(WitnessParams(alpha)))
        esmr = context.esmr()
        ok &= esmr.status == "infeasible" and esmr.certificate_residual <= 1e-7
        emmr = context.emmr()
        ok &= emmr.status == "infeasible" and emmr.certificate_residual <= 1e-7
        overlap = context.max_overlap()
        expected = alpha**2 * (1.0 + 2.0 * alpha**2)
        ok &= overlap.status == "optimal"
        ok &= abs(overlap.optimum - expected) <= 1e-7
        if alpha == 0.5:
            ok &= abs(overlap.optimum - 0.375) <= 1e-7
        control = context.macro_only_control()
        ok &= control.status == "feasible"
    report_line(3, "lp-exclusion", ok, time.perf_counter() - t0, 10.0)


def test_criterion_4_property_suite(ks_model, qubit_frag):
    t0 = time.perf_counter()
    violations: list[str] = []
    exact = dict(overlap_tol=1e-10, mono_tol=1e-12, sat_tol=1e-10)

    for seed in range(200):
        model, frag = build_family_member(seed)
        if not validate(model, frag, default_bindings(model, frag), tol=1e-9).passed:
            violations.append(f"seed {seed}: model invalid")
            continue
        violations += property_violations(model, frag, **exact)

    # anti-distinguishability additivity on witness-fragment models
    for alpha in (0.3, 0.5):
        context = WitnessExclusion(build_witness(WitnessParams(alpha)))
        model = product_model(context.fragment)
        violations += property_violations(model, context.fragment, **exact)
        violations += additivity_violations(model, tol=1e-10)

    # zoo models at their stated tolerances
    loose = dict(overlap_tol=2e-3, mono_tol=2e-3, sat_tol=2e-3)
    violations += property_violations(ks_model, qubit_frag, **loose)
    bb = beltrametti_bugajski_model(qubit_frag)
    violations += property_violations(bb, qubit_frag, **exact)
    det_frag = qubit_fragment(
        {n: tuple(bloch_vector(s)) for n, s in qubit_frag.states.items()},
        {"macro": (0.0, 0.0, 1.0)},
    )
    det = deterministic_extension_model(det_frag)
    violations += property_violations(det, det_frag, **exact)

    if violations:
        print("violations:", violations[:10])
    report_line(4, "property-suite", not violations, time.perf_counter() - t0, 30.0)


def test_criterion_5_zoo_fidelity(big_grid, ks_model, qubit_frag):
    t0 = time.perf_counter()
    ok = True

    state_dirs, meas_dirs = paired_validation_grid(50)
    dirs = {f"s{i}": tuple(d) for i, d in enumerate(state_dirs)}
    mdirs = {"macro": (0.0, 0.0, 1.0)}
    mdirs.update({f"m{i}": tuple(d) for i, d in enumerate(meas_dirs)})
    frag = qubit_fragment(dirs, mdirs)
    model = kochen_specker_model(big_grid, frag)
    bindings = Bindings(
        preparations={f"s{i}": f"s{i}" for i in range(50)},
        measurements={m: m for m in mdirs},
        pairs=tuple((f"s{i}", f"m{i}") for i in range(50)),
    )
    fidelity = validate(model, frag, bindings, tol=1e-3)
    ok &= fidelity.passed

    ks_verdict = classify(ks_model, qubit_frag)
    ok &= ks_verdict.kind == "ESMR"
    ok &= ks_verdict.evidence["max_mixture_residual"] > 0.01

    bb = beltrametti_bugajski_model(qubit_frag)
    ok &= classify(bb, qubit_frag).kind == "NONE"

    det_frag = qubit_fragment(
        {n: tuple(bloch_vector(s)) for n, s in qubit_frag.states.items()},
        {"macro": (0.0, 0.0, 1.0)},
    )
    det = deterministic_extension_model(det_frag)
    ok &= classify(det, det_frag).kind == "SSMR"
    report_line(5, "zoo-fidelity", ok, time.perf_counter() - t0, 60.0)


def test_criterion_6_lgi_landscape(big_grid):
    t0 = time.perf_counter()
    ok = True

    quantum = quantum_correlators(rotation_protocol(math.pi / 3))
    ok &= abs(quantum.k - 1.5) <= 5e-3

    frag = qubit_fragment(
        {"up": (0.0, 0.0, 1.0), "down": (0.0, 0.0, -1.0)},
        {"macro": (0.0, 0.0, 1.0)},
        rotations={"step": ((0.0, 1.0, 0.0), math.pi / 3)},
    )
    ks = kochen_specker_model(big_grid, frag)
    ks_cors = model_correlators(ks, LGIModelBinding("macro", "step"))
    ok &= abs(ks_cors.k - 1.5) <= 5e-3

    for theta in np.linspace(0.0, math.pi, 32):
        toy, _ = emmr_toy_model(float(theta))
        cors = model_correlators(toy, LGIModelBinding("macro", "step"))
        ok &= cors.k <= 1.0 + 1e-9
    report_line(6, "lgi-landscape", ok, time.perf_counter() - t0, 60.0)
