import dataclasses
import inspect
import itertools
import math
import re

import numpy as np
import pytest

from macroreal import (
    FiniteOntModel,
    LGIModelBinding,
    LGIProtocol,
    UnitaryMap,
    emmr_toy_model,
    kochen_specker_model,
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


def test_correlator_magnitude_bound():
    for theta in np.linspace(0, math.pi, 16):
        cors = quantum_correlators(rotation_protocol(theta))
        assert max(abs(cors.c12), abs(cors.c23), abs(cors.c13)) <= 1 + 1e-12


def two_atom_model(**overrides):
    """Atom 0 carries macro value +, atom 1 value -; the step map is the
    identity and each value has a declared eigenstate preparation."""
    base = dict(
        atoms=2,
        preparations={"up": np.array([1.0, 0.0]), "down": np.array([0.0, 1.0])},
        responses={"macro": np.eye(2)},
        outcome_labels={"macro": ("+", "-")},
        macro_measurement="macro",
        eigenstate_preps={"+": ("up",), "-": ("down",)},
        maps={"step": np.eye(2)},
        updates={"macro": {"+": "up", "-": "down"}},
    )
    base.update(overrides)
    return FiniteOntModel(**base)


def test_two_atom_model_is_frozen():
    cors = model_correlators(two_atom_model(), LGIModelBinding("macro", "step"))
    assert cors == pytest.approx((1.0, 1.0, 1.0, 1.0), abs=1e-12)


def test_missing_update_rule_is_an_error():
    with pytest.raises(ValueError, match="update"):
        model_correlators(two_atom_model(updates={}), LGIModelBinding("macro", "step"))


def _three_outcome_model() -> FiniteOntModel:
    """A three-valued macro measurement with an eigenstate for every value,
    so the initial mixture forms and the dichotomy check is what refuses."""
    labels = ("a", "b", "c")
    return FiniteOntModel(
        atoms=3,
        preparations={q: np.eye(3)[k] for k, q in enumerate(labels)},
        responses={"macro": np.eye(3)},
        outcome_labels={"macro": labels},
        macro_measurement="macro",
        eigenstate_preps={q: (q,) for q in labels},
        maps={"step": np.arange(3)},
        updates={"macro": {q: q for q in labels}},
    )


@pytest.mark.parametrize(("call", "message"), [
    (lambda: LGIProtocol(rotation_protocol(0.5).measurement, UnitaryMap(np.eye(3))),
     "step unitary and measurement dimensions differ"),
    (lambda: model_correlators(_three_outcome_model(), LGIModelBinding("macro", "step")),
     "bound measurement is not dichotomic"),
    (lambda: model_correlators(two_atom_model(updates={"macro": {"+": "up"}}),
                               LGIModelBinding("macro", "step")),
     "no update rule for outcome '-'"),
], ids=["protocol-dims", "not-dichotomic", "outcome-without-update"])
def test_malformed_arguments_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_missing_eigenstate_preparation_is_an_error():
    model = two_atom_model(eigenstate_preps={"+": ("up",)})
    with pytest.raises(ValueError, match="no declared eigenstate preparation"):
        model_correlators(model, LGIModelBinding("macro", "step"))


def test_binding_names_a_measurement_and_a_step_map_only():
    assert [f.name for f in dataclasses.fields(LGIModelBinding)] == ["measurement", "step_map"]
    assert list(inspect.signature(quantum_correlators).parameters) == ["protocol"]


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
