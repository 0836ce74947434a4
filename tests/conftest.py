import pytest

from macroreal import (
    WitnessExclusion,
    WitnessParams,
    build_witness,
    check_antidistinguishable,
    fibonacci_sphere_grid,
    kochen_specker_model,
    standard_qubit_fragment,
)


@pytest.fixture(scope="session")
def witness_half():
    return build_witness(WitnessParams(0.5))


@pytest.fixture(scope="session")
def antidist_half(witness_half):
    return check_antidistinguishable(
        witness_half.psi, witness_half.phi, witness_half.zero
    )


@pytest.fixture(scope="session")
def exclusion_half(witness_half, antidist_half):
    return WitnessExclusion(witness_half, antidist_half)


@pytest.fixture(scope="session")
def qubit_frag():
    return standard_qubit_fragment()


@pytest.fixture(scope="session")
def big_grid():
    return fibonacci_sphere_grid(20000)


@pytest.fixture(scope="session")
def ks_model(big_grid, qubit_frag):
    return kochen_specker_model(big_grid, qubit_frag)
