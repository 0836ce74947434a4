"""JSON wire formats for fragments and finite models.

Complex numbers are [re, im] pairs; matrices and projector stacks are
row-major nested lists, and complex arrays round-trip bit for bit.
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


def _complex_out(arr: np.ndarray) -> list:
    """Complex array of any shape as nested lists ending in [re, im] pairs."""
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _complex_in(data) -> np.ndarray:
    """Inverse of ``_complex_out``, bit for bit: the float64 pairs are
    viewed as complex128 (``re + 1j * im`` would lose signed zeros)."""
    pairs = np.ascontiguousarray(data, dtype=np.float64)
    if pairs.shape[-1] != 2:
        raise ValueError(f"complex data must end in [re, im] pairs, got shape {pairs.shape}")
    return pairs.view(np.complex128)[..., 0]


def fragment_to_json(fragment: QuantumFragment) -> dict:
    return {
        "dim": fragment.dim,
        "states": {name: _complex_out(s.amplitudes) for name, s in fragment.states.items()},
        "unitaries": {name: _complex_out(u.matrix) for name, u in fragment.unitaries.items()},
        "measurements": {
            name: {"outcomes": list(m.outcomes), "projectors": _complex_out(m.projectors)}
            for name, m in fragment.measurements.items()
        },
        "macro_observable": fragment.macro_observable,
    }


def fragment_from_json(data: dict) -> QuantumFragment:
    dim = int(data["dim"])
    states = {name: StateVector(_complex_in(v)) for name, v in data["states"].items()}
    unitaries = {name: UnitaryMap(_complex_in(m)) for name, m in data["unitaries"].items()}
    measurements = {
        name: ProjMeasurement(tuple(spec["outcomes"]), _complex_in(spec["projectors"]))
        for name, spec in data["measurements"].items()
    }
    return QuantumFragment(dim, states, unitaries, measurements, data["macro_observable"])


def model_to_json(model: FiniteOntModel) -> dict:
    return {
        "atoms": model.atoms,
        "preparations": {name: vec.tolist() for name, vec in model.preparations.items()},
        "eigenstate_preps": {q: list(v) for q, v in model.eigenstate_preps.items()},
        "maps": {
            name: {"deterministic": gamma.tolist()} if gamma.ndim == 1 else gamma.tolist()
            for name, gamma in model.maps.items()
        },
        "responses": {name: resp.tolist() for name, resp in model.responses.items()},
        "updates": {m: dict(t) for m, t in model.updates.items()},
        "outcomes": {m: list(v) for m, v in model.outcome_labels.items()},
        "macro_measurement": model.macro_measurement,
        "delta_sets": {s: list(v) for s, v in model.delta_sets.items()},
    }


def model_from_json(data: dict) -> FiniteOntModel:
    """The JSON lists go to ``FiniteOntModel`` as they are; it converts and
    checks every array once."""
    maps = {
        name: spec["deterministic"] if isinstance(spec, dict) else spec
        for name, spec in data.get("maps", {}).items()
    }
    return FiniteOntModel(
        atoms=int(data["atoms"]),
        preparations=data["preparations"],
        responses=data["responses"],
        outcome_labels=data.get("outcomes", {}),
        macro_measurement=data["macro_measurement"],
        eigenstate_preps=data.get("eigenstate_preps", {}),
        maps=maps,
        updates=data.get("updates", {}),
        delta_sets=data.get("delta_sets", {}),
    )


def dumps_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())
