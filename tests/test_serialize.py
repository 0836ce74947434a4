import json

import numpy as np
import pytest

from macroreal import (
    classify,
    emmr_toy_model,
    fragment_from_json,
    fragment_to_json,
    model_from_json,
    model_to_json,
)
from macroreal.ontomodel import QuantumFragment
from macroreal.quantum import ProjMeasurement, StateVector, UnitaryMap
from macroreal.serialize import dumps_json
from helpers import random_fragment, split_state_model


def test_fragment_round_trip():
    rng = np.random.default_rng(2)
    frag = random_fragment(rng, 3)
    data = fragment_to_json(frag)
    back = fragment_from_json(data)
    assert back.dim == frag.dim
    assert set(back.states) == set(frag.states)
    for name in frag.states:
        assert back.states[name].same_ray(frag.states[name], tol=1e-12)
    for name in frag.unitaries:
        assert np.allclose(back.unitaries[name].matrix, frag.unitaries[name].matrix, atol=1e-12)
    for name in frag.measurements:
        assert back.measurements[name].outcomes == frag.measurements[name].outcomes
        assert np.allclose(
            back.measurements[name].projectors, frag.measurements[name].projectors, atol=1e-12
        )
    assert back.macro_observable == frag.macro_observable


def test_model_round_trip_preserves_everything():
    rng = np.random.default_rng(6)
    frag = random_fragment(rng, 2)
    model = split_state_model(rng, frag)
    back = model_from_json(model_to_json(model))
    assert back.atoms == model.atoms
    for name, vec in model.preparations.items():
        assert np.allclose(back.preparations[name], vec, atol=0)
    for name, resp in model.responses.items():
        assert np.allclose(back.responses[name], resp, atol=0)
    assert back.eigenstate_preps == model.eigenstate_preps
    assert back.delta_sets == model.delta_sets
    assert back.macro_measurement == model.macro_measurement
    for name, gamma in model.maps.items():
        assert np.allclose(back.maps[name], gamma, atol=0)


def test_deterministic_map_compact_form():
    import math

    model, _ = emmr_toy_model(math.pi / 4)
    data = model_to_json(model)
    # dense map serializes as a matrix
    assert isinstance(data["maps"]["step"], list)
    # deterministic maps round-trip through the compact form
    det = {"atoms": 2,
           "preparations": {"p": [1.0, 0.0]},
           "responses": {"m": [[1.0, 0.0], [0.0, 1.0]]},
           "outcomes": {"m": ["a", "b"]},
           "macro_measurement": "m",
           "maps": {"swap": {"deterministic": [1, 0]}}}
    back = model_from_json(det)
    assert back.maps["swap"].ndim == 1
    again = model_to_json(back)
    assert again["maps"]["swap"] == {"deterministic": [1, 0]}


def test_round_trip_classification_identical():
    import math

    model, frag = emmr_toy_model(math.pi / 3)
    back = model_from_json(model_to_json(model))
    assert classify(back, frag).kind == classify(model, frag).kind == "EMMR"


def test_dump_is_key_sorted_and_repeatable():
    rng = np.random.default_rng(8)
    frag = random_fragment(rng, 2)
    a = dumps_json(fragment_to_json(frag))
    b = dumps_json(fragment_to_json(fragment_from_json(fragment_to_json(frag))))
    assert a == b


def test_fragment_codec_is_bit_exact():
    """Signed zeros and 17-digit values survive the JSON round trip."""
    c, s = 0.6000000000000001, 0.7999999999999999
    v = np.array([complex(c, -0.0), complex(-0.0, s)])
    w = np.array([complex(-0.0, s), complex(c, 0.0)])     # orthogonal to v
    projectors = np.stack([np.outer(v, v.conj()), np.outer(w, w.conj())])
    unitary = np.array([[complex(-0.0, -1.0), complex(-0.0, -0.0)],
                        [complex(0.0, -0.0), complex(c, -s)]])
    frag = QuantumFragment(
        2, {"v": StateVector(v)}, {"u": UnitaryMap(unitary)},
        {"macro": ProjMeasurement(("a", "b"), projectors)}, "macro",
    )
    arrays = (frag.states["v"].amplitudes, frag.unitaries["u"].matrix,
              frag.measurements["macro"].projectors)
    for arr in arrays:
        assert np.signbit(arr.real).any() and np.signbit(arr.imag).any()
    back = fragment_from_json(json.loads(dumps_json(fragment_to_json(frag))))
    again = (back.states["v"].amplitudes, back.unitaries["u"].matrix,
             back.measurements["macro"].projectors)
    for before, after in zip(arrays, again):
        assert after.dtype == before.dtype and after.shape == before.shape
        assert after.tobytes() == before.tobytes()
