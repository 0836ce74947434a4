"""JSON wire formats for fragments and finite models.

Complex numbers are [re, im] pairs; matrices are row-major nested lists.
Stochastic maps serialize as dense matrices, with deterministic maps
compacted to {"deterministic": [target, ...]} (a dense matrix for a large
grid would be enormous). Dumps are key-sorted so identical objects produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .ontomodel import FiniteOntModel, QuantumFragment
from .quantum import ProjMeasurement, StateVector, UnitaryMap


def _complex_vector_out(vec: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def _complex_matrix_out(mat: np.ndarray) -> list:
    return [_complex_vector_out(row) for row in mat]


def _complex_vector_in(data) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data])


def _complex_matrix_in(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def fragment_to_json(fragment: QuantumFragment) -> dict:
    return {
        "dim": fragment.dim,
        "states": {
            name: _complex_vector_out(s.amplitudes) for name, s in fragment.states.items()
        },
        "unitaries": {
            name: _complex_matrix_out(u.matrix) for name, u in fragment.unitaries.items()
        },
        "measurements": {
            name: {
                "outcomes": list(m.outcomes),
                "projectors": [_complex_matrix_out(p) for p in m.projectors],
            }
            for name, m in fragment.measurements.items()
        },
        "macro_observable": fragment.macro_observable,
    }


def fragment_from_json(data: dict) -> QuantumFragment:
    dim = int(data["dim"])
    states = {
        name: StateVector(_complex_vector_in(v)) for name, v in data["states"].items()
    }
    unitaries = {
        name: UnitaryMap(_complex_matrix_in(m)) for name, m in data["unitaries"].items()
    }
    measurements = {}
    for name, spec in data["measurements"].items():
        projs = np.stack([_complex_matrix_in(p) for p in spec["projectors"]])
        measurements[name] = ProjMeasurement(tuple(spec["outcomes"]), projs)
    return QuantumFragment(dim, states, unitaries, measurements, data["macro_observable"])


def model_to_json(model: FiniteOntModel) -> dict:
    maps: dict = {}
    for name, gamma in model.maps.items():
        if gamma.ndim == 1:
            maps[name] = {"deterministic": [int(t) for t in gamma]}
        else:
            maps[name] = [[float(v) for v in row] for row in gamma]
    return {
        "atoms": model.atoms,
        "preparations": {
            name: [float(w) for w in vec] for name, vec in model.preparations.items()
        },
        "eigenstate_preps": {q: list(v) for q, v in model.eigenstate_preps.items()},
        "maps": maps,
        "responses": {
            name: [[float(v) for v in row] for row in resp]
            for name, resp in model.responses.items()
        },
        "updates": {m: dict(t) for m, t in model.updates.items()},
        "outcomes": {m: list(v) for m, v in model.outcome_labels.items()},
        "macro_measurement": model.macro_measurement,
        "delta_sets": {s: list(v) for s, v in model.delta_sets.items()},
    }


def model_from_json(data: dict) -> FiniteOntModel:
    maps = {}
    for name, spec in data.get("maps", {}).items():
        if isinstance(spec, dict) and "deterministic" in spec:
            maps[name] = np.asarray(spec["deterministic"], dtype=int)
        else:
            maps[name] = np.asarray(spec, dtype=float)
    return FiniteOntModel(
        atoms=int(data["atoms"]),
        preparations={
            name: np.asarray(vec, dtype=float)
            for name, vec in data["preparations"].items()
        },
        responses={
            name: np.asarray(resp, dtype=float)
            for name, resp in data["responses"].items()
        },
        outcome_labels={m: tuple(v) for m, v in data.get("outcomes", {}).items()},
        macro_measurement=data["macro_measurement"],
        eigenstate_preps={q: tuple(v) for q, v in data.get("eigenstate_preps", {}).items()},
        maps=maps,
        updates={m: dict(t) for m, t in data.get("updates", {}).items()},
        delta_sets={s: tuple(v) for s, v in data.get("delta_sets", {}).items()},
    )


def dumps_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())
