import itertools
import math

import numpy as np
import pytest

from macroreal import (
    FiniteOntModel,
    LGIModelBinding,
    LGIProtocol,
    UnitaryMap,
    emmr_toy_model,
    kochen_specker_model,
    measurement_from_direction,
    model_correlators,
    quantum_correlators,
    qubit_fragment,
    rotation_protocol,
)
from macroreal.lgi import OUTCOME_VALUES


def sequence_enumeration_oracle(protocol, steps_a, steps_b):
    """Independent two-time correlator by explicit branch enumeration with
    projector matrices."""
    u = protocol.step.matrix
    projs = protocol.measurement.projectors
    values = OUTCOME_VALUES
    total = 0.0
    for proj0 in projs:  # eigenstate mixture start
        vals, vecs = np.linalg.eigh(proj0)
        start = vecs[:, np.argmax(vals)]
        for a, b in itertools.product(range(2), repeat=2):
            amp = np.linalg.matrix_power(u, steps_a) @ start
            branch = projs[a] @ amp
            p_a = np.real(np.vdot(amp, branch))
            if p_a <= 1e-15:
                continue
            branch = branch / math.sqrt(p_a)
            branch = np.linalg.matrix_power(u, steps_b) @ branch
            p_b = np.real(np.vdot(branch, projs[b] @ branch))
            total += 0.5 * p_a * p_b * values[a] * values[b]
    return total


def test_protocol_requires_dichotomic():
    from macroreal import computational_measurement

    with pytest.raises(ValueError):
        LGIProtocol(
            measurement=computational_measurement(4),
            step=UnitaryMap(np.eye(4)),
        )


def test_quantum_frozen_dynamics():
    cors = quantum_correlators(rotation_protocol(0.0))
    assert cors == pytest.approx((1.0, 1.0, 1.0, 1.0), abs=1e-12)


def test_quantum_right_angle():
    cors = quantum_correlators(rotation_protocol(math.pi / 2))
    assert cors.c12 == pytest.approx(0.0, abs=1e-12)
    assert cors.c23 == pytest.approx(0.0, abs=1e-12)
    assert cors.c13 == pytest.approx(-1.0, abs=1e-12)
    assert cors.k == pytest.approx(1.0, abs=1e-12)


def test_quantum_pi_thirds_violation():
    cors = quantum_correlators(rotation_protocol(math.pi / 3))
    assert cors.k == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.4])
def test_quantum_matches_sequence_enumeration(theta):
    protocol = rotation_protocol(theta)
    cors = quantum_correlators(protocol)
    assert cors.c12 == pytest.approx(sequence_enumeration_oracle(protocol, 0, 1), abs=1e-12)
    assert cors.c23 == pytest.approx(sequence_enumeration_oracle(protocol, 1, 1), abs=1e-12)
    assert cors.c13 == pytest.approx(sequence_enumeration_oracle(protocol, 0, 2), abs=1e-12)
    # analytic form for the eigenstate-mixture start
    assert cors.c12 == pytest.approx(math.cos(theta), abs=1e-12)
    assert cors.c13 == pytest.approx(math.cos(2 * theta), abs=1e-12)


def test_quantum_pure_initial_state():
    from macroreal import StateVector

    protocol = rotation_protocol(math.pi / 2)
    up = StateVector(np.array([1.0, 0.0], dtype=complex))
    cors = quantum_correlators(protocol, up)
    assert cors.c12 == pytest.approx(0.0, abs=1e-12)


def test_correlator_magnitude_bound():
    for theta in np.linspace(0, math.pi, 16):
        cors = quantum_correlators(rotation_protocol(theta))
        assert max(abs(cors.c12), abs(cors.c23), abs(cors.c13)) <= 1 + 1e-12


def test_single_atom_model_is_frozen():
    model = FiniteOntModel(
        atoms=1,
        preparations={"only": np.array([1.0])},
        responses={"macro": np.array([[1.0], [0.0]])},
        outcome_labels={"macro": ("+", "-")},
        macro_measurement="macro",
        eigenstate_preps={"+": ("only",)},
        maps={"step": np.eye(1)},
        updates={"macro": {"+": "only", "-": "only"}},
    )
    cors = model_correlators(model, LGIModelBinding("macro", "step", initial=("only",)))
    assert cors.k == pytest.approx(1.0, abs=1e-12)


def test_missing_update_rule_is_an_error():
    model = FiniteOntModel(
        atoms=1,
        preparations={"only": np.array([1.0])},
        responses={"macro": np.array([[1.0], [0.0]])},
        outcome_labels={"macro": ("+", "-")},
        macro_measurement="macro",
        eigenstate_preps={"+": ("only",)},
        maps={"step": np.eye(1)},
    )
    with pytest.raises(ValueError, match="update"):
        model_correlators(model, LGIModelBinding("macro", "step", initial=("only",)))


def test_unknown_step_map_is_an_error():
    model, _ = emmr_toy_model(0.5)
    with pytest.raises(ValueError, match="ghost"):
        model_correlators(model, LGIModelBinding("macro", "ghost"))


def test_ks_model_matches_quantum_at_pi_thirds(big_grid):
    frag = qubit_fragment(
        {"up": (0, 0, 1.0), "down": (0, 0, -1.0)},
        {"macro": (0, 0, 1.0)},
        rotations={"step": ((0.0, 1.0, 0.0), math.pi / 3)},
    )
    model = kochen_specker_model(big_grid, frag)
    cors = model_correlators(model, LGIModelBinding("macro", "step"))
    assert cors.k == pytest.approx(1.5, abs=5e-3)


def test_emmr_toy_respects_classical_bound():
    for theta in np.linspace(0.0, math.pi, 32):
        model, _ = emmr_toy_model(theta)
        cors = model_correlators(model, LGIModelBinding("macro", "step"))
        assert cors.k <= 1.0 + 1e-9
        # classical Markov forms
        assert cors.c12 == pytest.approx(math.cos(theta), abs=1e-12)
        assert cors.c13 == pytest.approx(math.cos(theta) ** 2, abs=1e-12)
