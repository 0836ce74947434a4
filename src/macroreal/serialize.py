"""JSON wire formats for fragments and finite models.

Complex numbers are [re, im] pairs; matrices and projector stacks are
row-major nested lists, and complex arrays round-trip bit for bit.
Stochastic maps serialize as dense matrices, with deterministic maps
compacted to {"deterministic": [target, ...]} (a dense matrix for a large
grid would be enormous).

``dumps_json`` writes exactly the bytes of ``json.dumps(obj,
sort_keys=True, indent=1) + "\n"``, so identical objects produce
byte-identical files. The standard library encodes an indented dump in
pure Python, one value at a time; this writer formats each list of finite
floats in one pass. The readers turn a missing key or a value of the wrong
JSON type into a ``ValueError`` that names it.
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


def _field(data, key: str, kind: type, what: str, default=None):
    """``data[key]``, checked to be a ``kind``; ``default`` (when given)
    stands in for a missing key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(data).__name__}")
    if key not in data:
        if default is None:
            raise ValueError(f"{what}: missing key {key!r}")
        return default
    value = data[key]
    if not isinstance(value, kind):
        raise ValueError(
            f"{what}: {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def fragment_from_json(data: dict) -> QuantumFragment:
    dim = _field(data, "dim", int, "fragment")
    states = _field(data, "states", dict, "fragment")
    unitaries = _field(data, "unitaries", dict, "fragment")
    measurements = {}
    for name, spec in _field(data, "measurements", dict, "fragment").items():
        what = f"measurement {name!r}"
        measurements[name] = ProjMeasurement(
            tuple(_field(spec, "outcomes", list, what)),
            _complex_in(_field(spec, "projectors", list, what)),
        )
    return QuantumFragment(
        dim,
        {name: StateVector(_complex_in(v)) for name, v in states.items()},
        {name: UnitaryMap(_complex_in(m)) for name, m in unitaries.items()},
        measurements,
        _field(data, "macro_observable", str, "fragment"),
    )


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


def _table(data, key: str, kind: type) -> dict:
    """``data[key]`` (default empty), a JSON object whose values are each a
    ``kind``."""
    table = _field(data, key, dict, "model", {})
    for name in table:
        _field(table, name, kind, f"model {key!r}")
    return table


def model_from_json(data: dict) -> FiniteOntModel:
    """The JSON lists go to ``FiniteOntModel`` as they are; it converts and
    checks every array once."""
    atoms = _field(data, "atoms", int, "model")
    maps = {
        name: _field(spec, "deterministic", list, f"map {name!r}")
        if isinstance(spec, dict) else spec
        for name, spec in _field(data, "maps", dict, "model", {}).items()
    }
    return FiniteOntModel(
        atoms=atoms,
        preparations=_field(data, "preparations", dict, "model"),
        responses=_field(data, "responses", dict, "model"),
        outcome_labels=_table(data, "outcomes", list),
        macro_measurement=_field(data, "macro_measurement", str, "model"),
        eigenstate_preps=_table(data, "eigenstate_preps", list),
        maps=maps,
        updates=_table(data, "updates", dict),
        delta_sets=_table(data, "delta_sets", list),
    )


def dumps_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1) + "\\n"``, byte for byte."""
    parts = []
    _write(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write(obj, pad: str, parts: list) -> None:
    """Append ``obj`` in the ``indent=1`` layout, its closing bracket at
    ``pad`` (a newline and the enclosing indent)."""
    inner = pad + " "
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{")
        for i, (key, value) in enumerate(sorted(obj.items())):
            parts.append(("," if i else "") + inner + json.dumps(_key(key)) + ": ")
            _write(value, inner, parts)
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        reprs = _float_reprs(obj)
        if reprs is not None:
            parts.append("[" + inner + ("," + inner).join(reprs) + pad + "]")
            return
        parts.append("[")
        for i, value in enumerate(obj):
            parts.append(("," if i else "") + inner)
            _write(value, inner, parts)
        parts.append(pad + "]")
    else:
        parts.append(json.dumps(obj))


def _key(key) -> str:
    """A dict key as ``json`` writes it: non-string scalars become their
    JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _float_reprs(values) -> list | None:
    """``float.__repr__`` of each value (what ``json`` writes), or None
    unless every value is exactly a finite ``float``. The bulk of a model,
    +0.0 and 1.0, is filled in by bit-pattern masks; -0.0 keeps its repr."""
    if set(map(type, values)) != {float}:
        return None
    arr = np.array(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        return None
    zero = arr.view(np.uint64) == 0      # +0.0 only: -0.0 has its sign bit set
    one = arr == 1.0
    rest = ~(zero | one)
    out = np.empty(len(values), dtype=object)
    out[zero] = "0.0"
    out[one] = "1.0"
    out[rest] = list(map(float.__repr__, arr[rest].tolist()))
    return out.tolist()


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())
