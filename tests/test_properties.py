"""Framework property checks over seeded model families.

A fast development-sized run; the acceptance suite repeats it over the full
200-model batch.
"""

import pytest

from macroreal import WitnessExclusion, WitnessParams, build_witness, validate
from macroreal.ontomodel import default_bindings
from helpers import additivity_violations, build_family_member, product_model, property_violations

EXACT = dict(overlap_tol=1e-10, mono_tol=1e-12, sat_tol=1e-10)


@pytest.mark.parametrize("seed", range(24))
def test_random_families_satisfy_all_properties(seed):
    model, frag = build_family_member(seed)
    report = validate(model, frag, default_bindings(model, frag), tol=1e-9)
    assert report.passed, f"family member {seed} is not valid"
    violations = property_violations(model, frag, **EXACT)
    assert violations == []


@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_witness_product_models(alpha):
    bundle = build_witness(WitnessParams(alpha))
    context = WitnessExclusion(bundle)
    model = product_model(context.fragment)
    report = validate(model, context.fragment, default_bindings(model, context.fragment), tol=1e-9)
    assert report.passed
    assert property_violations(model, context.fragment, **EXACT) == []
    assert additivity_violations(model, tol=1e-10) == []


def test_ks_model_properties(ks_model, qubit_frag):
    loose = dict(overlap_tol=2e-3, mono_tol=2e-3, sat_tol=2e-3)
    assert property_violations(ks_model, qubit_frag, **loose) == []
