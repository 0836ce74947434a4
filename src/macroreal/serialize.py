"""JSON wire formats for fragments and finite models.

Complex numbers are [re, im] pairs; matrices and projector stacks are
row-major nested lists, and complex arrays round-trip bit for bit.
Stochastic maps serialize as dense matrices, with deterministic maps
compacted to {"deterministic": [target, ...]} (a dense matrix for a large
grid would be enormous).

Payload builders hand the writer the arrays they hold, not ``.tolist()``
copies: ``model_to_json`` the model's own numpy arrays, ``fragment_to_json``
float64 views of its complex ones. One writer walk serves two entry points:
``write_json`` streams to a text file and ``dumps_json`` returns a string.
Both write exactly the bytes of
``json.dumps(obj, sort_keys=True, indent=1, default=np.ndarray.tolist) +
"\n"``, so identical objects produce byte-identical files. The standard
library encodes an indented dump in pure Python, one value at a time; this
writer formats each 1-D array of finite float64 in one pass, straight from
the array, writes a 2-D array row by row, so a file target never holds more
than one row's text, and writes everything else value by value.

``load_json`` reads the file in ``_CHUNK``-sized pieces (64 Ki characters)
and never holds its whole text. A string-aware splitter cuts out each leaf
list (one whose first ``]`` comes before any ``[``, ``{`` or ``"``) as soon
as it closes and parses it: a leaf of numbers becomes a read-only numpy
array, exactly ``np.asarray`` of the list json would give, so a 5 M-value
model never lives as Python floats. A leaf whose text holds no ``t``, ``f``
or ``n`` can hold no ``true``, ``false`` or ``null``; any other leaf is
walked once and stays a list if it holds a non-number. The rest, a skeleton
with a placeholder ``[k]`` for each leaf, goes through ``json.loads``, and
one walk puts each leaf in its placeholder's place, so the reader accepts
exactly what ``json.loads`` does. The walk stacks a list whose items are all
int64 or float64 arrays of one shape into one read-only array, again
exactly ``np.asarray`` of json's nested list, and lets go of the rows as it
does: a response matrix is held once, as one array, not as rows beside it.
Ragged lists, and lists holding booleans, strings or nulls, stay lists. A
file it rejects is read again whole and handed to ``json.loads``, so the
error raised is json's, with its message and position. Nesting too deep for
the interpreter's stack is a ``ValueError`` naming the file.

The readers turn a missing key, a value of the wrong JSON type, or a number
list holding strings, booleans or nulls into a ``ValueError`` that names it.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .ontomodel import FiniteOntModel, QuantumFragment
from .quantum import ProjMeasurement, StateVector, UnitaryMap


def _complex_out(arr: np.ndarray) -> np.ndarray:
    """Complex array of any shape viewed as float64 [re, im] pairs."""
    return arr.astype(np.complex128, order="C", copy=False)[..., None].view(np.float64)


def _complex_in(data) -> np.ndarray:
    """Inverse of ``_complex_out``, bit for bit: the float64 pairs are
    viewed as complex128 (``re + 1j * im`` would lose signed zeros)."""
    pairs = np.ascontiguousarray(_numbers(data, "[re, im] pairs"), dtype=np.float64)
    if pairs.shape[-1] != 2:
        raise ValueError(f"complex data must end in [re, im] pairs, got shape {pairs.shape}")
    return pairs.view(np.complex128)[..., 0]


# numpy dtype kind of a JSON list that holds something other than numbers
_NON_NUMBERS = {"b": "booleans", "U": "strings", "O": "other JSON values"}


def _numbers(value, what: str) -> np.ndarray:
    """``value`` as a numpy array of numbers. JSON strings, booleans and
    nulls are told apart by the array's dtype; a list whose dtype is
    numeric is walked for booleans mixed in among numbers, and an array is
    not walked. A list is converted once, read-only, so ``FiniteOntModel``
    keeps that array instead of copying it."""
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ValueError(f"{what} must be a rectangular array of numbers") from None
    if arr.dtype.kind not in "iuf":
        got = _NON_NUMBERS.get(arr.dtype.kind, arr.dtype.name)
        raise ValueError(f"{what} must hold only numbers, got {got}")
    if arr is not value:
        if _holds_bool(value):
            raise ValueError(f"{what} must hold only numbers, got booleans")
        arr.setflags(write=False)
    return arr


def _holds_bool(value) -> bool:
    """Whether a (nested) list holds a boolean; arrays inside are not
    walked."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_))


@contextmanager
def _naming(what: str):
    """Prefix a ``ValueError`` raised inside with ``what``, the entry being
    read."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


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


def _field(data, key: str, kind, what: str, default=None):
    """``data[key]``, checked to be a ``kind`` (a type or a tuple of types;
    a JSON boolean is no int); ``default`` (when given) stands in for a
    missing key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(data).__name__}")
    if key not in data:
        if default is None:
            raise ValueError(f"{what}: missing key {key!r}")
        return default
    value = data[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if isinstance(value, np.ndarray) and np.ndarray not in kinds:
        value = value.tolist()   # a number list that load_json parsed to an array
    if not isinstance(value, kinds) or (int in kinds and isinstance(value, bool)):
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{what}: {key!r} must be {names}, got {type(value).__name__}")
    return value


def fragment_from_json(data: dict) -> QuantumFragment:
    """An entry that its constructor rejects is named in the error."""
    dim = _field(data, "dim", int, "fragment")
    states, unitaries, measurements = {}, {}, {}
    for name, amplitudes in _field(data, "states", dict, "fragment").items():
        with _naming(f"state {name!r}"):
            states[name] = StateVector(_complex_in(amplitudes))
    for name, matrix in _field(data, "unitaries", dict, "fragment").items():
        with _naming(f"unitary {name!r}"):
            unitaries[name] = UnitaryMap(_complex_in(matrix))
    for name, spec in _field(data, "measurements", dict, "fragment").items():
        what = f"measurement {name!r}"
        outcomes = tuple(_field(spec, "outcomes", list, what))
        projectors = _field(spec, "projectors", (list, np.ndarray), what)
        with _naming(what):
            measurements[name] = ProjMeasurement(outcomes, _complex_in(projectors))
    return QuantumFragment(
        dim, states, unitaries, measurements,
        _field(data, "macro_observable", str, "fragment"),
    )


def model_to_json(model: FiniteOntModel) -> dict:
    """The model's own arrays, not copies; ``write_json`` formats them."""
    return {
        "atoms": model.atoms,
        "preparations": dict(model.preparations),
        "eigenstate_preps": {q: list(v) for q, v in model.eigenstate_preps.items()},
        "maps": {
            name: {"deterministic": gamma} if gamma.ndim == 1 else gamma
            for name, gamma in model.maps.items()
        },
        "responses": dict(model.responses),
        "updates": {m: dict(t) for m, t in model.updates.items()},
        "outcomes": {m: list(v) for m, v in model.outcome_labels.items()},
        "macro_measurement": model.macro_measurement,
        "delta_sets": {s: list(v) for s, v in model.delta_sets.items()},
    }


def _table(data, key: str, kind: type) -> dict:
    """``data[key]`` (default empty), a JSON object whose values are each a
    ``kind``."""
    table = _field(data, key, dict, "model", {})
    return {name: _field(table, name, kind, f"model {key!r}") for name in table}


def _number_table(data, key: str) -> dict:
    """``data[key]``, a JSON object of number arrays, each checked by
    ``_numbers``."""
    table = _field(data, key, dict, "model")
    return {name: _numbers(value, f"model {key!r}: {name!r}") for name, value in table.items()}


def model_from_json(data: dict) -> FiniteOntModel:
    """Each number list is converted to an array once, here, and checked to
    hold only numbers; ``FiniteOntModel`` checks the values."""
    atoms = _field(data, "atoms", int, "model")
    maps = {}
    for name, spec in _field(data, "maps", dict, "model", {}).items():
        if isinstance(spec, dict):
            what = f"map {name!r}"
            maps[name] = _numbers(_field(spec, "deterministic", (list, np.ndarray), what),
                                  f"{what}: 'deterministic'")
        else:
            maps[name] = _numbers(spec, f"model 'maps': {name!r}")
    return FiniteOntModel(
        atoms=atoms,
        preparations=_number_table(data, "preparations"),
        responses=_number_table(data, "responses"),
        outcome_labels=_table(data, "outcomes", list),
        macro_measurement=_field(data, "macro_measurement", str, "model"),
        eigenstate_preps=_table(data, "eigenstate_preps", list),
        maps=maps,
        updates=_table(data, "updates", dict),
        delta_sets=_table(data, "delta_sets", list),
    )


def dumps_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1,
    default=np.ndarray.tolist) + "\\n"``, byte for byte."""
    buf = io.StringIO()
    write_json(obj, buf)
    return buf.getvalue()


def write_json(obj, fh) -> None:
    """Write what ``dumps_json`` returns to the text file ``fh``, piece by
    piece, so no more than one array row is formatted at a time."""
    _write(obj, "\n", fh.write)
    fh.write("\n")


def _write(obj, pad: str, out) -> None:
    """Write ``obj`` through ``out`` in the ``indent=1`` layout, its closing
    bracket at ``pad`` (a newline and the enclosing indent)."""
    if isinstance(obj, np.ndarray) and obj.ndim < 2:
        if _finite_floats(obj):
            _write_floats(obj, pad, out)
            return
        obj = obj.tolist()
    inner = pad + " "
    if isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        out("{")
        for i, (key, value) in enumerate(sorted(obj.items())):
            out(("," if i else "") + inner + json.dumps(_key(key)) + ": ")
            _write(value, inner, out)
        out(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):   # arrays here are 2-D or more
        if not len(obj):
            out("[]")
            return
        out("[")
        for i, value in enumerate(obj):
            out(("," if i else "") + inner)
            _write(value, inner, out)
        out(pad + "]")
    else:
        out(json.dumps(obj))


def _key(key) -> str:
    """A dict key as ``json`` writes it: non-string scalars become their
    JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _finite_floats(arr: np.ndarray) -> bool:
    """Whether ``arr`` is a non-empty 1-D array of finite native float64."""
    return (arr.ndim == 1 and len(arr) > 0 and arr.dtype == np.float64
            and bool(np.isfinite(arr).all()))


def _write_floats(arr: np.ndarray, pad: str, out) -> None:
    """Write a ``_finite_floats`` array as ``json`` writes its ``tolist()``:
    ``float.__repr__`` of each value. The bulk of a model, +0.0 and 1.0, is
    filled in by bit-pattern masks; -0.0 keeps its repr."""
    zero = arr.view(np.uint64) == 0      # +0.0 only: -0.0 has its sign bit set
    one = arr == 1.0
    rest = ~(zero | one)
    reprs = np.empty(len(arr), dtype=object)
    reprs[zero] = "0.0"
    reprs[one] = "1.0"
    reprs[rest] = list(map(float.__repr__, arr[rest].tolist()))
    inner = pad + " "
    out("[" + inner + ("," + inner).join(reprs.tolist()) + pad + "]")


def load_json(path) -> dict:
    """``json.loads`` of the file's text, with leaf number lists parsed
    straight to read-only numpy arrays. The file is read once, in chunks;
    a document that does not parse is read again whole and handed to
    ``json.loads``, whose error is the one raised."""
    try:
        try:
            with open(path) as fh:
                skeleton, leaves = _split(fh)
            return _fill(json.loads(skeleton), leaves)
        except (json.JSONDecodeError, UnicodeDecodeError):
            json.loads(Path(path).read_text())
            raise
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


# Characters load_json reads at a time. Up to 64 Ki the reader's peak stays
# below 1.2 times the file (0.88 times on a 924 KB model from 1 Ki to 64 Ki);
# at 256 Ki it is 1.43 times and at 1 Mi 2.74 times.
_CHUNK = 1 << 16
_OUTSIDE_STOP = re.compile(r'[\["]')   # outside strings: a list or a string opens
_STRING_STOP = re.compile(r'["\\]')   # inside a string: it closes, or an escape


def _split(fh) -> tuple:
    """The text of ``fh``, read ``_CHUNK`` characters at a time, as a
    skeleton and the values of its leaf lists. A leaf list is one whose
    first ``]`` comes before any ``[``, ``{`` or ``"``. Each is parsed by
    ``_leaf`` as soon as it closes, and the skeleton holds ``[k]`` in its
    place, k its index among the leaves. Strings are skipped with their
    escapes, so a chunk may end anywhere. The pieces of a leaf longer than
    a chunk are joined once, when it closes."""
    skeleton, leaves = [], []
    pieces = None     # the text read in earlier chunks of a list that may be a leaf
    in_string = False
    at = 0            # where reading goes on in the chunk (1 after an escape at the end)
    while chunk := fh.read(_CHUNK):
        n, mark = len(chunk), 0     # chunk[mark:at] is not yet in skeleton or pieces
        while at < n:
            if pieces is not None:
                close = chunk.find("]", at)
                other = _first(chunk, '[{"', at, n if close < 0 else close)
                if other >= 0:      # not a leaf: its text is skeleton
                    skeleton += pieces
                    pieces, at = None, other
                elif close < 0:
                    at = n
                else:
                    pieces.append(chunk[mark:close + 1])
                    skeleton.append(f"[{len(leaves)}]")
                    leaves.append(_leaf("".join(pieces)))
                    pieces, at = None, close + 1
                    mark = at
            else:
                found = (_STRING_STOP if in_string else _OUTSIDE_STOP).search(chunk, at)
                if found is None:
                    at = n
                elif found.group() == '"':
                    in_string, at = not in_string, found.end()
                elif in_string:     # a backslash: skip the character it escapes
                    at = found.end() + 1
                else:               # a list opens
                    skeleton.append(chunk[mark:found.start()])
                    pieces, mark, at = [], found.start(), found.end()
        (skeleton if pieces is None else pieces).append(chunk[mark:])
        at -= n
    if pieces is not None:
        skeleton += pieces
    return "".join(skeleton), leaves


def _leaf(text: str):
    """``json.loads`` of a leaf list's text, except that a non-empty list
    of numbers becomes a read-only array. Without a t, f or n the text
    holds no true, false or null."""
    values = json.loads(text)
    if values and (_first(text, "tfn", 0, len(text)) < 0
                   or all(type(v) in (int, float) for v in values)):
        values = np.asarray(values)
        values.setflags(write=False)
    return values


def _fill(value, leaves: list):
    """``value`` with each placeholder ``[k]`` in it replaced, in place, by
    ``leaves[k]``, which ``leaves`` then lets go. A list of one int is
    always a placeholder: ``_split`` cuts out every leaf list, so any list
    it leaves holds a string, a list or an object. A list that fills with
    ``_stackable`` arrays becomes their read-only stack, and the rows go
    with the list."""
    if isinstance(value, list):
        if len(value) == 1 and type(value[0]) is int:
            leaf, leaves[value[0]] = leaves[value[0]], None
            return leaf
        for i, item in enumerate(value):
            value[i] = _fill(item, leaves)
        if _stackable(value):
            value = np.stack(value)
            value.setflags(write=False)
    elif isinstance(value, dict):
        for key, item in value.items():
            value[key] = _fill(item, leaves)
    return value


# the dtypes np.asarray gives a list of Python ints (within int64) and floats
_STACKED = (np.dtype(np.int64), np.dtype(np.float64))


def _stackable(items: list) -> bool:
    """Whether ``items`` are arrays of one shape, each int64 or float64:
    ``np.stack`` of them is then bit for bit ``np.asarray`` of the nested
    list they were parsed from, the same int to float rounding included."""
    return (all(isinstance(item, np.ndarray) and item.dtype in _STACKED for item in items)
            and len({item.shape for item in items}) == 1)


def _first(s: str, chars: str, start: int, stop: int) -> int:
    """The index of the first of ``chars`` in ``s[start:stop]``, or -1."""
    return min((i for i in (s.find(c, start, stop) for c in chars) if i >= 0), default=-1)
