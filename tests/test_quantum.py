import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macroreal import (
    ProjMeasurement,
    StateVector,
    UnitaryMap,
    apply_unitary,
    basis_measurement,
    born,
    computational_measurement,
    gram,
)
from macroreal.witness import ALPHA_MAX, WitnessParams, build_witness
from helpers import random_state, random_unitary


def test_state_requires_normalization():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))
    s = StateVector.normalized([1.0, 1.0])
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


def test_state_dim_bounds():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0]))
    with pytest.raises(ValueError):
        StateVector.normalized(np.ones(17))


def test_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        UnitaryMap(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_measurement_structure_checks():
    eye = np.eye(2, dtype=complex)
    good = ProjMeasurement(("0", "1"), np.stack([np.outer(eye[0], eye[0]), np.outer(eye[1], eye[1])]))
    assert good.n_outcomes == 2
    with pytest.raises(ValueError):
        ProjMeasurement(("0", "1"), np.stack([np.outer(eye[0], eye[0])] * 2))
    with pytest.raises(ValueError):
        ProjMeasurement(("0",), np.stack([np.eye(2, dtype=complex) * 0.5]))


def test_born_eigenstate_case():
    meas = computational_measurement(4)
    e0 = StateVector(np.eye(4, dtype=complex)[0])
    assert np.allclose(born(e0, meas), [1, 0, 0, 0], atol=1e-12)


def test_born_balanced_superposition():
    meas = computational_measurement(2)
    plus = StateVector.normalized([1.0, 1.0])
    assert np.allclose(born(plus, meas), [0.5, 0.5], atol=1e-12)


def test_born_witness_state_in_bprime():
    # alpha = 0.5: direct matrix-vector oracle against the closed form
    alpha = 0.5
    beta = np.sqrt(2) * alpha**2
    tau = np.sqrt(1 - alpha**2 - beta**2)
    psi = StateVector(np.array([alpha, beta, tau, 0.0], dtype=complex))
    meas = computational_measurement(4)
    oracle = np.array(
        [abs(np.conj(np.eye(4)[k]) @ psi.amplitudes) ** 2 for k in range(4)]
    )
    probs = born(psi, meas)
    assert np.allclose(probs, oracle, atol=1e-12)
    assert np.allclose(probs, [0.25, 0.125, 0.625, 0.0], atol=1e-12)


def test_born_dimension_mismatch():
    with pytest.raises(ValueError):
        born(StateVector.normalized([1, 0, 0]), computational_measurement(2))


def test_apply_identity_and_permutation():
    s = StateVector.normalized([0.6, 0.8j])
    assert apply_unitary(UnitaryMap(np.eye(2)), s).same_ray(s, tol=1e-12)
    x = UnitaryMap(np.array([[0, 1], [1, 0]], dtype=complex))
    e0 = StateVector(np.array([1, 0], dtype=complex))
    e1 = StateVector(np.array([0, 1], dtype=complex))
    assert apply_unitary(x, e0).same_ray(e1, tol=1e-12)


def test_gram_trivial_cases():
    e = np.eye(3, dtype=complex)
    states = [StateVector(e[k]) for k in range(3)]
    assert np.allclose(gram(states), np.eye(3), atol=1e-12)
    assert np.allclose(gram(states[:1]), [[1.0]], atol=1e-12)
    with pytest.raises(ValueError):
        gram([])
    with pytest.raises(ValueError, match="share a dimension"):
        gram([StateVector(e[0][:2]), states[0]])


def test_gram_hermitian_unit_diagonal():
    rng = np.random.default_rng(7)
    states = [random_state(rng, 4) for _ in range(5)]
    g = gram(states)
    assert np.allclose(g, g.conj().T, atol=1e-12)
    assert np.allclose(np.diag(g).real, 1.0, atol=1e-12)


def assert_gram_is_entrywise_inner(states):
    expected = np.array([[s.inner(t) for t in states] for s in states], dtype=complex)
    assert gram(states).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", [4, 6, 10, 16])
def test_gram_of_witness_triples_is_inner_bit_for_bit(dim):
    """The anti-distinguishability check reads its overlaps from ``gram``, so
    ``gram`` must carry the bits of ``StateVector.inner``; a matrix product
    differs in the last bit at d = 10 and 16."""
    for alpha in np.linspace(0.02, 0.98 * ALPHA_MAX, 35):
        bundle = build_witness(WitnessParams(float(alpha), dim))
        assert_gram_is_entrywise_inner([bundle.psi, bundle.phi, bundle.zero])


def test_gram_of_random_states_is_inner_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        assert_gram_is_entrywise_inner([random_state(rng, dim) for _ in range(4)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.sampled_from([2, 3, 4]))
def test_born_unitary_invariance(seed, dim):
    rng = np.random.default_rng(seed)
    state = random_state(rng, dim)
    u = random_unitary(rng, dim)
    meas = basis_measurement(_random_basis(rng, dim))
    direct = born(state, meas)
    conjugated = [u.matrix @ p @ u.matrix.conj().T for p in meas.projectors]   # U P U^dag
    rotated = born(apply_unitary(u, state), ProjMeasurement(meas.outcomes, conjugated))
    assert np.abs(direct - rotated).max() < 1e-10
    assert direct.min() >= 0.0
    assert abs(direct.sum() - 1.0) < 1e-12


def _random_basis(rng, dim):
    u = random_unitary(rng, dim)
    return [StateVector(u.matrix[:, k]) for k in range(dim)]
