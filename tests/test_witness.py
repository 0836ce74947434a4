import math

import numpy as np
import pytest

from macroreal import (
    CertificationError,
    StateVector,
    WitnessParams,
    apply_unitary,
    born,
    build_fixing_unitary,
    build_witness,
    check_antidistinguishable,
    contradiction_gap,
    gram,
    sweep,
    witness_coefficients,
)
from helpers import basis_containing

ALPHA_MAX = 1.0 / math.sqrt(2.0)


def triple_from_gram(g: np.ndarray) -> list[StateVector]:
    """States in C^4 with a prescribed Gram matrix, via Cholesky."""
    chol = np.linalg.cholesky(g + 0j)
    vecs = np.zeros((3, 4), dtype=complex)
    vecs[:, :3] = chol
    return [StateVector.normalized(v) for v in vecs]


# -- parameters and coefficients ---------------------------------------------

def test_params_reject_boundary_and_low_dim():
    with pytest.raises(ValueError):
        WitnessParams(ALPHA_MAX)
    with pytest.raises(ValueError):
        WitnessParams(0.0)
    with pytest.raises(ValueError):
        WitnessParams(-0.1)
    with pytest.raises(ValueError):
        WitnessParams(0.5, dim=3)


@pytest.mark.parametrize("dim", [4.5, 4.0, math.nan])
def test_params_reject_a_non_integer_dim_at_construction(dim):
    with pytest.raises(TypeError):
        WitnessParams(0.5, dim)
    with pytest.raises(TypeError):
        sweep([0.5], dim)


def test_params_store_dim_as_a_python_int():
    params = WitnessParams(0.5, np.int64(5))
    assert params.dim == 5 and type(params.dim) is int
    with pytest.raises(ValueError, match=r"^dim must be >= 4, got 3$"):
        WitnessParams(0.5, np.int64(3))


def test_coefficients_at_half():
    co = witness_coefficients(0.5)
    expected = (0.5, 0.35355339059327373, 0.7905694150420949, 0.5, 0.7071067811865476, 0.5)
    assert np.allclose(co, expected, atol=1e-8)
    # exact identities
    assert abs(co.beta - math.sqrt(2) * 0.25) < 1e-14
    assert abs(co.delta - 0.5) < 1e-14
    assert abs(co.eta - math.sqrt(2) * 0.5) < 1e-14


def test_bundle_inner_products_small_alpha():
    bundle = build_witness(WitnessParams(0.1))
    assert abs(bundle.zero.inner(bundle.psi) - 0.1) < 1e-12
    assert abs(bundle.phi.inner(bundle.psi) - 0.1) < 1e-12


def test_bundle_gram_at_half():
    bundle = build_witness(WitnessParams(0.5))
    g = gram([bundle.psi, bundle.phi, bundle.zero])
    off = np.abs(g[np.triu_indices(3, k=1)]) ** 2
    assert np.allclose(off, 0.25, atol=1e-12)


def test_bundle_macro_contains_zero():
    bundle = build_witness(WitnessParams(0.3))
    probs = born(bundle.zero, bundle.basis_bq)
    assert abs(probs[0] - 1.0) < 1e-12


def test_born_distributions_in_bprime():
    for alpha in (0.15, 0.4, 0.62):
        bundle = build_witness(WitnessParams(alpha))
        co = bundle.coefficients
        p_psi = born(bundle.psi, bundle.basis_bprime)
        assert np.allclose(
            p_psi, [co.alpha**2, co.beta**2, co.tau**2, 0.0], atol=1e-12
        )
        p_phi = born(bundle.phi, bundle.basis_bprime)
        assert np.allclose(
            p_phi, [co.delta**2, co.eta**2, 0.0, co.kappa**2], atol=1e-12
        )


def test_dim_padding():
    bundle = build_witness(WitnessParams(0.5, dim=6))
    assert bundle.psi.dim == 6
    assert abs(bundle.phi.inner(bundle.psi) - 0.5) < 1e-12
    report = check_antidistinguishable(bundle.psi, bundle.phi, bundle.zero)
    assert report.certified


# -- fixing unitary -----------------------------------------------------------

def test_fixing_unitary_identity_when_phi_equals_zero():
    e = np.eye(4, dtype=complex)
    psi = StateVector.normalized(e[0] + e[1])
    zero = StateVector(e[0])
    u = build_fixing_unitary(psi, zero, zero)
    assert np.allclose(u.matrix, np.eye(4), atol=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 0.3])
def test_fixing_unitary_on_witness_triples(alpha):
    bundle = build_witness(WitnessParams(alpha))
    u = build_fixing_unitary(bundle.psi, bundle.zero, bundle.phi)
    assert np.linalg.norm(u.matrix @ bundle.zero.amplitudes - bundle.phi.amplitudes) <= 1e-10
    assert np.linalg.norm(u.matrix @ bundle.psi.amplitudes - bundle.psi.amplitudes) <= 1e-10
    dev = np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(4))
    assert dev <= 1e-10


def test_fixing_unitary_rejects_mismatched_overlaps():
    e = np.eye(4, dtype=complex)
    psi = StateVector(e[0])
    zero = StateVector.normalized(e[0] + e[1])
    phi = StateVector.normalized(e[0] + 2 * e[1])
    with pytest.raises(CertificationError):
        build_fixing_unitary(psi, zero, phi)


def test_fixing_unitary_rejects_complex_overlap_of_zero_and_phi():
    e = np.eye(4, dtype=complex)
    psi = StateVector(e[2])
    zero = StateVector(e[0])
    phi = StateVector(0.6j * e[0] + 0.8 * e[1])
    with pytest.raises(CertificationError, match="must be real"):
        build_fixing_unitary(psi, zero, phi)


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_fixing_unitary_on_random_reflected_triples(dim):
    """phi = H zero for a reflection H across a random w orthogonal to psi,
    so the requirements <0|psi> = <phi|psi> and <0|phi> real hold."""
    rng = np.random.default_rng(dim)
    for _ in range(20):
        psi, zero = (StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
                     for _ in range(2))
        w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        w -= np.vdot(psi.amplitudes, w) * psi.amplitudes
        h = np.eye(dim) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real
        phi = StateVector.normalized(h @ zero.amplitudes)
        u = build_fixing_unitary(psi, zero, phi).matrix
        assert np.linalg.norm(u @ zero.amplitudes - phi.amplitudes) <= 1e-12
        assert np.linalg.norm(u @ psi.amplitudes - psi.amplitudes) <= 1e-12


@pytest.mark.parametrize("dim", [4, 16])
@pytest.mark.parametrize("alpha", [
    6e-9, 1e-7, 1e-3, ALPHA_MAX - 1e-6, ALPHA_MAX - 1e-12, math.nextafter(ALPHA_MAX, 0.0),
])
def test_fixing_unitary_at_both_ends_of_the_alpha_range(alpha, dim):
    bundle = build_witness(WitnessParams(alpha, dim))
    u = bundle.fixing_unitary.matrix
    zero, phi, psi = bundle.zero.amplitudes, bundle.phi.amplitudes, bundle.psi.amplitudes
    assert np.linalg.norm(u @ zero - phi) <= 1e-12
    assert np.linalg.norm(u @ psi - psi) <= 1e-12
    assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-12


def test_u_invariance_of_psi_statistics():
    bundle = build_witness(WitnessParams(0.37))
    moved = apply_unitary(bundle.fixing_unitary, bundle.psi)
    for meas in (bundle.basis_bprime, bundle.basis_bq):
        assert np.abs(born(moved, meas) - born(bundle.psi, meas)).max() < 1e-10


# -- anti-distinguishability ---------------------------------------------------

def test_antidist_orthonormal_triple():
    e = np.eye(4, dtype=complex)
    report = check_antidistinguishable(StateVector(e[0]), StateVector(e[1]), StateVector(e[2]))
    assert report.certified
    assert report.a == report.b == report.c == 0.0
    assert report.residuals.max() <= 1e-12


def test_antidist_witness_triple_saturates_second_inequality(witness_half, antidist_half):
    r = antidist_half
    assert (r.a, r.b, r.c) == pytest.approx((0.25, 0.25, 0.25), abs=1e-12)
    assert r.slack1 == pytest.approx(0.25, abs=1e-12)
    assert abs(r.slack2) <= 1e-12
    assert r.certified and r.residuals.max() <= 1e-8


def test_antidist_rejects_flat_overlaps():
    x = math.sqrt(0.4)
    g = np.array([[1, x, x], [x, 1, x], [x, x, 1.0]])
    states = triple_from_gram(g)
    report = check_antidistinguishable(*states)
    assert not report.inequality1_ok
    assert report.measurement is None
    assert report.slack1 == pytest.approx(1 - 1.2, abs=1e-9)


def test_antidist_measurement_is_projective(antidist_half):
    meas = antidist_half.measurement
    assert meas.outcomes == ("not_psi", "not_phi", "not_zero", "rest")
    for p in meas.projectors:
        assert np.abs(p @ p - p).max() < 1e-10


def test_antidist_random_complex_triples():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 25:
        vecs = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        states = [StateVector.normalized(v) for v in vecs]
        g = gram(states)
        a, b, c = abs(g[0, 1]) ** 2, abs(g[0, 2]) ** 2, abs(g[1, 2]) ** 2
        if not (a + b + c < 1 and (1 - a - b - c) ** 2 >= 4 * a * b * c):
            continue
        report = check_antidistinguishable(*states)
        assert report.certified
        assert report.residuals.max() <= 1e-8
        checked += 1


# -- contradiction gap ---------------------------------------------------------

def test_gap_formula_and_maximum():
    rep = contradiction_gap(0.5)
    assert rep.deficit == pytest.approx(0.125, abs=1e-14)
    assert rep.deficit == pytest.approx(rep.esmr_lower_bound - rep.quantum_upper_bound, abs=1e-14)
    # interior maximum at alpha = 0.5
    grid = np.linspace(0.05, ALPHA_MAX - 1e-9, 201)
    deficits = [contradiction_gap(a).deficit for a in grid]
    assert max(deficits) <= 0.125 + 1e-12


def test_gap_limits():
    assert contradiction_gap(1e-8).deficit == pytest.approx(0.0, abs=1e-15)
    assert contradiction_gap(ALPHA_MAX).deficit == pytest.approx(0.0, abs=1e-14)


# -- sweep ----------------------------------------------------------------------

def test_sweep_shapes_and_order():
    rows = sweep([0.2, 0.4, 0.6])
    assert [r.alpha for r in rows] == [0.2, 0.4, 0.6]
    assert all(r.antidist.certified for r in rows)
    assert sweep([]) == []


def test_sweep_deficit_unimodal_peak():
    alphas = np.linspace(0.05, 0.70, 64)
    rows = sweep(alphas.tolist())
    deficits = np.array([r.contradiction.deficit for r in rows])
    peak = int(np.argmax(deficits))
    assert abs(alphas[peak] - 0.5) == np.abs(alphas - 0.5).min()
    assert np.all(np.diff(deficits[: peak + 1]) > -1e-15)
    assert np.all(np.diff(deficits[peak:]) < 1e-15)


def test_sweep_reports_row_index_on_error():
    with pytest.raises(ValueError, match="row 1"):
        sweep([0.3, 0.9])


# -- fuzzing ----------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.01, max_value=ALPHA_MAX - 1e-6))
def test_witness_identities_fuzzed(alpha):
    bundle = build_witness(WitnessParams(alpha))
    co = bundle.coefficients
    assert abs(co.alpha**2 + co.beta**2 + co.tau**2 - 1.0) < 1e-12
    assert abs(co.delta**2 + co.eta**2 + co.kappa**2 - 1.0) < 1e-12
    assert abs(bundle.phi.inner(bundle.psi) - alpha) < 1e-12
    report = check_antidistinguishable(bundle.psi, bundle.phi, bundle.zero)
    assert report.certified
    assert abs(report.slack2) <= 1e-12
    assert report.residuals.max() <= 1e-8
