"""The pure-Python solver ports in ``witness`` against scipy, bit for bit.

``_bounded_min`` and ``_brentq`` port scipy 1.17.1's bounded Brent
minimiser and its C ``brentq``; every witness byte depends on the angles
they return. Each port is compared with its scipy original on seeded smooth
functions, ``_solve_slot_angles`` with the scipy-based original kept in
``helpers.scipy_slot_angles``, and the anti-distinguishing projectors with
those that original produces.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from macroreal import (
    CertificationError,
    WitnessParams,
    build_witness,
    check_antidistinguishable,
)
from macroreal import witness
from helpers import scipy_slot_angles

ALPHA_MAX = 1.0 / math.sqrt(2.0)


def outcome(solver, p, q, r):
    """Exact, sign-of-zero-aware image of a slot-angle result; an arithmetic
    exception maps to its type, so both versions must fail alike."""
    try:
        result = solver(p, q, r)
    except ArithmeticError as exc:
        return type(exc)
    return None if result is None else tuple(float(t).hex() for t in result)


@pytest.mark.parametrize("r", [1e-15, 1e-13, 1e-12])
def test_slot_angles_zero_sine_takes_the_zero_angle(r):
    """p = 1 pins t2 = 0, so sin(t2) = 0; an r within the 1e-12 slack of 0
    gives t3 = 0 instead of dividing by sin(t2)."""
    assert witness._solve_slot_angles(1.0, 0.0, r) == (0.0, 0.0, 0.0)
    assert witness._solve_slot_angles(1.0, 0.0, 2e-12) is None


def smooth_function(rng: np.random.Generator):
    """A seeded smooth function of one variable returning Python floats."""
    c = [float(v) for v in rng.normal(size=5)]
    s = float(rng.uniform(0.5, 5.0))

    def f(x):
        return c[0] + c[1] * math.sin(s * x + c[2]) + c[3] * x * x + c[4] * math.cos(x)

    return f


unit_interval = st.one_of(
    st.sampled_from([0.0, 1e-15, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=400, deadline=None)
@given(p=unit_interval, q=unit_interval, r=unit_interval)
def test_slot_angles_match_scipy_oracle(p, q, r):
    assert outcome(witness._solve_slot_angles, p, q, r) == outcome(scipy_slot_angles, p, q, r)


def test_slot_angles_match_scipy_oracle_in_generic_branch():
    # half-normal draws land mostly in the generic branch that calls both ports
    rng = np.random.default_rng(7)
    for _ in range(2000):
        p, q, r = (float(v) for v in np.abs(rng.normal(size=3)) / 3.0)
        assert outcome(witness._solve_slot_angles, p, q, r) == outcome(scipy_slot_angles, p, q, r)


@pytest.mark.parametrize("xatol", [1e-15, 1e-10, 1e-5])
def test_bounded_min_matches_scipy(xatol):
    rng = np.random.default_rng(11)
    for _ in range(300):
        f = smooth_function(rng)
        lo = float(rng.uniform(-3.0, 0.0))
        hi = lo + float(rng.uniform(1e-9, 4.0))
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        assert witness._bounded_min(f, lo, hi, xatol).hex() == float(res.x).hex()


def test_bounded_min_returns_best_point_at_evaluation_cap(monkeypatch):
    f = smooth_function(np.random.default_rng(3))
    res = minimize_scalar(f, bounds=(-2.0, 2.0), method="bounded",
                          options={"xatol": 1e-15, "maxiter": 4})
    assert res.status == 1
    monkeypatch.setattr(witness, "_BOUNDED_MAXFUN", 4)
    assert witness._bounded_min(f, -2.0, 2.0, 1e-15).hex() == float(res.x).hex()


def test_brentq_matches_scipy():
    rng = np.random.default_rng(13)
    found = 0
    while found < 300:
        f = smooth_function(rng)
        lo = float(rng.uniform(-3.0, 0.0))
        hi = lo + float(rng.uniform(1e-9, 4.0))
        if math.copysign(1.0, f(lo)) == math.copysign(1.0, f(hi)):
            continue
        found += 1
        for xtol, rtol in ((2e-16, 8.9e-16), (2e-12, 8.9e-16), (1e-6, 1e-10)):
            root = witness._brentq(f, lo, hi, xtol, rtol)
            assert root.hex() == float(brentq(f, lo, hi, xtol=xtol, rtol=rtol)).hex()


def test_brentq_signbit_bracket_matches_scipy():
    # f(lo) * f(hi) underflows to -0.0: the bracket test must use the signs
    def f(x):
        return 1e-200 * (x - 0.3)

    assert witness._brentq(f, 0.0, 1.0, 2e-12, 8.9e-16) == brentq(f, 0.0, 1.0) == 0.3


def test_brentq_same_sign_bracket_raises():
    with pytest.raises(ValueError):
        brentq(math.cos, 0.0, 1.0)
    with pytest.raises(CertificationError, match="does not change sign"):
        witness._brentq(math.cos, 0.0, 1.0, 2e-16, 8.9e-16)


def test_brentq_iteration_cap_raises(monkeypatch):
    with pytest.raises(RuntimeError, match="converge"):
        brentq(math.cos, 0.0, 3.0, maxiter=1)
    monkeypatch.setattr(witness, "_BRENTQ_MAXITER", 1)
    with pytest.raises(CertificationError, match="did not converge"):
        witness._brentq(math.cos, 0.0, 3.0, 2e-16, 8.9e-16)


@pytest.mark.parametrize("dim", [4, 6, 10, 16])
def test_antidist_projectors_match_scipy_oracle(dim, monkeypatch):
    # five of these alphas reach the root find at every dim
    alphas = [*np.linspace(0.01, 0.7, 40).tolist(), 0.5553106689789393, ALPHA_MAX - 1e-6]
    ported = []
    for alpha in alphas:
        bundle = build_witness(WitnessParams(alpha, dim))
        ported.append(check_antidistinguishable(bundle.psi, bundle.phi, bundle.zero))
    monkeypatch.setattr(witness, "_solve_slot_angles", scipy_slot_angles)
    for alpha, report in zip(alphas, ported):
        bundle = build_witness(WitnessParams(alpha, dim))
        oracle = check_antidistinguishable(bundle.psi, bundle.phi, bundle.zero)
        assert report.measurement.projectors.tobytes() == oracle.measurement.projectors.tobytes()
