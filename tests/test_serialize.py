import gc
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from macroreal import (
    classify,
    emmr_toy_model,
    fragment_from_json,
    fragment_to_json,
    model_from_json,
    model_to_json,
    serialize,
)
from macroreal.cli import _witness_json, _zoo_build, build_parser
from macroreal.exclusion import WitnessExclusion
from macroreal.ontomodel import QuantumFragment
from macroreal.quantum import ProjMeasurement, StateVector, UnitaryMap
from macroreal.serialize import dumps_json, load_json, write_json
from macroreal.witness import WitnessParams, build_witness
from helpers import json_load_oracle, json_oracle, random_fragment, split_state_model, tree_bits


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
    # dense map serializes as the model's own matrix
    assert data["maps"]["step"] is model.maps["step"]
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
    assert list(again["maps"]["swap"]) == ["deterministic"]
    assert again["maps"]["swap"]["deterministic"] is back.maps["swap"]
    assert json.loads(dumps_json(again))["maps"]["swap"] == {"deterministic": [1, 0]}
    assert model_from_json(again).maps["swap"].tolist() == [1, 0]


def test_model_to_json_hands_over_the_models_arrays():
    rng = np.random.default_rng(6)
    model = split_state_model(rng, random_fragment(rng, 2))
    data = model_to_json(model)
    for name, vec in model.preparations.items():
        assert data["preparations"][name] is vec
    for name, resp in model.responses.items():
        assert data["responses"][name] is resp
    # read-only arrays are shared, not copied, by the model read back
    back = model_from_json(data)
    for name, vec in model.preparations.items():
        assert back.preparations[name] is vec


def test_round_trip_classification_identical():
    import math

    model, frag = emmr_toy_model(math.pi / 3)
    back = model_from_json(model_to_json(model))
    assert classify(back, frag).kind == classify(model, frag).kind == "EMMR"


def test_dump_refuses_a_key_json_cannot_write():
    with pytest.raises(TypeError, match=r"^keys must be str, int, float, bool or None, not tuple$"):
        dumps_json({(1, 2): 0})


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


EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-5, 1e-4, 1e16, 2.0**53,
               math.nan, math.inf, -math.inf]
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats()
SCALARS = (FLOATS | st.integers() | st.booleans() | st.none() | st.text()
           | FLOATS.map(np.float64))
LEAVES = (SCALARS
          | st.lists(FLOATS, min_size=1)                  # value by value, as any list
          | st.lists(FLOATS | st.integers() | st.booleans())
          | st.lists(FLOATS.map(np.float64), min_size=1))
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner) | st.dictionaries(st.text(), inner)
                   | st.dictionaries(st.integers() | FLOATS | st.booleans(), inner)
                   | st.dictionaries(st.none(), inner)),
    max_leaves=10,
)


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES)
@example([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-5, 1e-4, 1e16, 2.0**53, 0.1])
@example({"b": [1.0, math.nan], "a": [math.inf, 0.5], "": []})
@example({"\u00e9\u6f22": [np.float64(-0.0), np.float64(1.0)], "z": {}, "y": [1, 2.5, True]})
def test_dumps_json_matches_the_oracle(value):
    assert dumps_json(value) == json_oracle(value)


SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6)
ARRAYS = (hnp.arrays(np.float64, SHAPES, elements=FLOATS)
          | hnp.arrays(np.int64, SHAPES)
          | hnp.arrays(np.bool_, SHAPES))
ARRAY_VALUES = ARRAYS | st.lists(ARRAYS, max_size=3) | st.dictionaries(st.text(), ARRAYS, max_size=3)


@settings(max_examples=200, deadline=None)
@given(ARRAY_VALUES)
@example(np.array([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-5, 1e-4, 1e16, 2.0**53, 0.1]))
@example(np.array([[1.0, math.nan], [math.inf, -0.0], [0.0, -math.inf]]))
@example({"int": np.array([3, -1, 0]), "empty": np.zeros(0), "no-cols": np.zeros((2, 0)),
          "no-rows": np.zeros((0, 3)), "scalar": np.array(2.5), "int-scalar": np.array(7)})
@example([np.arange(6.0).reshape(2, 3).T, np.linspace(0.0, 1.0, 7)[::3],
          np.array([1.5, 0.0, -0.0], dtype=">f8"), np.array([0.5, 1.0], dtype=np.float32)])
def test_dumps_json_writes_arrays_as_the_oracle(value):
    assert dumps_json(value) == json_oracle(value)


def _ks_2000():
    args = build_parser().parse_args(["zoo", "ks", "--nodes", "2000", "--pairs", "6"])
    model, fragment, _ = _zoo_build(args)
    return model, fragment


def _cli_payloads():
    model, fragment = _ks_2000()
    context = WitnessExclusion(build_witness(WitnessParams(0.5, 4)))
    return [
        model_to_json(model),
        fragment_to_json(fragment),
        context.esmr().to_json_dict(),
        context.emmr().to_json_dict(),
        context.max_overlap().to_json_dict(),
        _witness_json(0.5, 4),
    ]


def _float_lists(value) -> list:
    """The lists and tuples in ``value``, at any depth, that hold a float."""
    if isinstance(value, dict):
        return [found for item in value.values() for found in _float_lists(item)]
    if isinstance(value, (list, tuple)):
        here = [value] if any(isinstance(item, float) for item in value) else []
        return here + [found for item in value for found in _float_lists(item)]
    return []


def test_cli_payloads_hand_the_writer_arrays():
    """Certificate vectors, residuals and complex amplitudes reach the
    writer as the arrays they are, not as lists of Python floats."""
    for payload in _cli_payloads():
        assert _float_lists(payload) == []


def test_cli_payloads_match_the_oracle():
    """The payloads the commands write, byte for byte, in this process."""
    for payload in _cli_payloads():
        assert dumps_json(payload) == json_oracle(payload)


def test_write_json_streams_the_bytes_of_dumps_json(tmp_path):
    path = tmp_path / "out.json"
    for payload in _cli_payloads() + [{"b": [1.0, math.nan], "a": np.eye(2), "": []}]:
        with open(path, "w") as fh:
            write_json(payload, fh)
        assert path.read_bytes() == dumps_json(payload).encode()


def test_writing_a_model_holds_less_than_half_the_file(tmp_path):
    """A file target streams: the writer never holds the whole text, nor
    the model's values as Python floats."""
    model, _ = _ks_2000()
    data = model_to_json(model)
    path = tmp_path / "model.json"
    tracemalloc.start()
    try:
        with open(path, "w") as fh:
            write_json(data, fh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


def _ks_2000_file(tmp_path):
    """The ``zoo ks --nodes 2000 --pairs 6`` model and the file it is
    written to."""
    model, _ = _ks_2000()
    path = tmp_path / "model.json"
    with open(path, "w") as fh:
        write_json(model_to_json(model), fh)
    return model, path


# chunk sizes the whole-model tests read at: a small one and the default
MODEL_CHUNKS = (1 << 12, serialize._CHUNK)


@pytest.mark.parametrize("chunk", MODEL_CHUNKS)
def test_reading_a_model_peaks_below_six_fifths_of_the_file(tmp_path, monkeypatch, chunk):
    """The reader holds one chunk of the text and one leaf's values as
    Python numbers at a time, beside the arrays already parsed, so its
    peak is set by the model's arrays, not by the file."""
    _, path = _ks_2000_file(tmp_path)
    monkeypatch.setattr(serialize, "_CHUNK", chunk)
    tracemalloc.start()
    try:
        model_from_json(load_json(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * path.stat().st_size


def test_the_model_keeps_the_arrays_load_json_parsed(tmp_path):
    model, path = _ks_2000_file(tmp_path)
    data = load_json(path)
    loaded = model_from_json(data)
    for table in ("preparations", "responses"):
        for name, arr in data[table].items():
            assert getattr(loaded, table)[name] is arr
            assert arr.dtype == np.float64 and not arr.flags.writeable
    assert all(np.array_equal(loaded.responses[m], resp) for m, resp in model.responses.items())


# JSON text, drawn piece by piece so that documents hold every form the
# reader must tell apart: number lists, lists with true/false/null, strings
# holding brackets, braces, quotes and escapes, and nested containers
NUMBER_TEXT = (
    st.sampled_from(["0", "-0", "0.0", "-0.0", "1.0", "5e-324", "1e308", "1E+2", "2.5e-3",
                     "-1.5E-7", "9223372036854775807", "9223372036854775808",
                     "-9223372036854775809", "123456789012345678901234567890",
                     "NaN", "Infinity", "-Infinity"])
    | st.integers().map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.builds("{}E{:+d}".format, st.integers(-999, 999), st.integers(-400, 400))
)
STRING_TEXT = (
    st.text(st.sampled_from('ab[]{}",:\\/ \n\t\u00e9\u2028'), max_size=6).map(json.dumps)
    | st.sampled_from(['"\\u005d"', '"\\u005b["', '"\\"]"', '"\\\\"', '"\\/{"'])
)
CONSTANT_TEXT = st.sampled_from(["true", "false", "null"])
SPACE = st.sampled_from(["", " ", "\n ", "\t", "\r\n"])


def _joined(opener: str, closer: str, items) -> st.SearchStrategy:
    """``items`` as a JSON container's text, with whitespace drawn around
    each item."""
    spaced = st.tuples(SPACE, items, SPACE).map("".join)
    return st.lists(spaced, max_size=5).map(lambda xs: opener + ",".join(xs) + closer)


LEAF_TEXT = (_joined("[", "]", NUMBER_TEXT)
             | _joined("[", "]", NUMBER_TEXT | CONSTANT_TEXT))
DOC_TEXT = st.recursive(
    NUMBER_TEXT | STRING_TEXT | CONSTANT_TEXT | LEAF_TEXT,
    lambda inner: (_joined("[", "]", inner)
                   | _joined("{", "}", st.tuples(STRING_TEXT, SPACE, inner)
                             .map(lambda kv: kv[0] + ":" + kv[1] + kv[2]))),
    max_leaves=12,
)


def _outcome(read):
    """``read()``'s value as ``tree_bits``, or the type and message of the
    exception it raised."""
    try:
        return tree_bits(read())
    except ValueError as exc:
        return type(exc), str(exc)


# the chunk sizes load_json is checked at: small ones, so that a chunk ends
# inside every token and escape, and the default
CHUNKS = (1, 2, 3, 7, serialize._CHUNK)


def _load_both(path, text: str) -> tuple:
    """What ``load_json`` makes of a file holding ``text`` at each of
    ``CHUNKS``, and what its oracle makes of it."""
    path.write_text(text)
    got = []
    for chunk in CHUNKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "_CHUNK", chunk)
            got.append(_outcome(lambda: load_json(path)))
    return got, _outcome(lambda: json_load_oracle(path.read_text()))


@settings(max_examples=100, deadline=None)
@given(DOC_TEXT)
@example('{"a": [1, 2.5], "b": [[0.0, -0.0], [1e308, 5e-324]], "c": ["]", 1], "d": [1, true]}')
@example("[[], [ ], [1, null], [Infinity, -Infinity, NaN], [12345678901234567890123, 1]]")
@example('{"\\u005b": [1], "k": "[1, 2]", "e": {"x": [-0]}}')
@example('["abcd\\"[", [1]]')          # chunk 7 ends between a backslash and its quote
@example('[1, 2,\r\n3]')               # chunk 7 ends between \r and \n in the file's bytes
@example('[12345678, 0.5e-3]')          # chunks 3 and 7 end inside numbers
@example('[[[1, 2.5], [-0.0, 5e-324]], [[3, 4], [5, 6]]]')      # stacked twice
@example('[[12345678901234567890123, 1], [1, 2], [18446744073709551615, 0]]')
@example('[[1, 2], [3], [true, 1], [null, 1], ["a", 1], [], [[1]]]')
def test_load_json_matches_json_loads(tmp_path_factory, text):
    """Every document, at every chunk size: the same structure as
    ``json.loads``, each number leaf bit for bit ``np.asarray`` of json's
    list, with its dtype."""
    got, want = _load_both(tmp_path_factory.getbasetemp() / "doc.json", text)
    assert not isinstance(want[0], type)     # the drawn text is valid JSON
    assert got == [want] * len(CHUNKS)


@settings(max_examples=100, deadline=None)
@given(DOC_TEXT, st.data())
@example('{"atoms": [1, 2]}', None)
@example('{"a": 1\u0661}', None)
@example("[[1, 2], [3, 4\u0661]]", None)
@example("\ufeff[1]", None)
@example('["abcd\\"]', None)             # chunk 7 ends between a backslash and its quote
@example('[1,\r\n 2,]', None)            # chunk 2 ends between \r and \n in the file's bytes
@example('[1, 234567,]', None)          # chunks 2, 3 and 7 end inside a number
@example("[[1], [", None)               # chunk 7 ends right after a lone [ at the end
def test_load_json_rejects_what_json_loads_rejects(tmp_path_factory, text, data):
    """A document cut short, or with a character deleted or inserted, reads
    at every chunk size as ``json.loads`` reads it: the same value, or the
    same exception and message, at the same line and column."""
    if data is not None:
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["cut", "delete", "insert"]))
        if edit == "cut":
            text = text[:at]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + data.draw(st.sampled_from('[]{},:" -.e0tn\\')) + text[at:]
    got, want = _load_both(tmp_path_factory.getbasetemp() / "doc.json", text)
    assert got == [want] * len(CHUNKS)


@pytest.mark.parametrize("chunk", MODEL_CHUNKS)
def test_load_json_reads_a_good_file_once(tmp_path, monkeypatch, chunk):
    """A document that parses is read once, in chunks, and never whole."""
    _, path = _ks_2000_file(tmp_path)
    opened = []

    def counted_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    def whole_read(self, *args, **kwargs):
        raise AssertionError(f"{self} read whole")

    monkeypatch.setattr(serialize, "open", counted_open, raising=False)
    monkeypatch.setattr(serialize.Path, "read_text", whole_read)
    monkeypatch.setattr(serialize, "_CHUNK", chunk)
    assert tree_bits(load_json(path)) == tree_bits(json_load_oracle(path.read_bytes().decode()))
    assert opened == [path]


def test_no_leaf_array_outlives_the_result(tmp_path, monkeypatch):
    """With the cycle collector off, the rows of a stacked array are freed
    by the time ``load_json`` returns, and dropping what it returned frees
    every other array it made: nothing the reader leaves behind refers to
    them."""
    path = tmp_path / "doc.json"
    path.write_text('{"a": [1.5, 2.5], "b": [[0, 1], [2, 3]], "c": {"d": [4.0]}}')
    parsed = []

    def recorded_leaf(text):
        leaf = leaf_of(text)
        parsed.append(weakref.ref(leaf))
        return leaf

    leaf_of = serialize._leaf
    monkeypatch.setattr(serialize, "_leaf", recorded_leaf)
    gc.disable()
    try:
        data = load_json(path)
        arrays = [data["a"], data["b"], data["c"]["d"]]
        assert all(isinstance(arr, np.ndarray) for arr in arrays)
        assert data["b"].shape == (2, 2)
        assert [ref() is None for ref in parsed] == [False, True, True, False]
        refs = [weakref.ref(arr) for arr in arrays]
        del data, arrays
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


# numbers of every kind a rectangular list mixes: ints within int64, floats
# and the edge floats (signed zero, the smallest subnormal, NaN, infinities)
RECT_NUMBERS = (st.integers(-2**63, 2**63 - 1) | FLOATS
                | st.sampled_from([-0.0, 5e-324, -5e-324, 2**53 + 1]))


@st.composite
def _rectangular_lists(draw):
    """A 2-D or 3-D nested list of ``RECT_NUMBERS``, every row one length."""
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=4))
    values = iter(draw(st.lists(RECT_NUMBERS, min_size=math.prod(shape),
                                max_size=math.prod(shape))))

    def nest(dims):
        if len(dims) == 1:
            return [next(values) for _ in range(dims[0])]
        return [nest(dims[1:]) for _ in range(dims[0])]

    return nest(shape)


def _last_rows(nested: list) -> list:
    """The innermost list of rows at the end of ``nested``."""
    while isinstance(nested[-1][-1], list):
        nested = nested[-1]
    return nested


@settings(max_examples=100, deadline=None)
@given(_rectangular_lists(), st.sampled_from(["ragged", "true", "\"a\"", "null"]))
@example([[0.0, -0.0], [5e-324, 1]], "ragged")
@example([[[1, 2], [3, 4]], [[5, 6], [7, 2**62 + 1]]], "true")
@example([[[1, 2.5]], [[-0.0, 5e-324]]], "null")
@example([[2**53 + 1, 0.5], [-2**63, 1e308]], "\"a\"")
def test_load_json_stacks_rectangular_number_lists(tmp_path_factory, nested, spoiler):
    """A rectangular nested list of numbers reads, at every chunk size, as
    one read-only array, bit and dtype equal to ``np.asarray`` of json's
    list. Given a longer last row, or a boolean, string or null in its
    last row, it stays a list, as the oracle says."""
    path = tmp_path_factory.getbasetemp() / "rect.json"
    text = json.dumps(nested)
    want = np.asarray(json.loads(text))
    assert want.dtype in (np.int64, np.float64)
    rows = _last_rows(nested)
    if spoiler == "ragged":
        rows.append([0] * (len(rows[-1]) + 1))
    else:
        rows[-1][-1] = json.loads(spoiler)
    spoiled = json.dumps(nested)
    for chunk in CHUNKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "_CHUNK", chunk)
            path.write_text(text)
            got = load_json(path)
            path.write_text(spoiled)
            kept = load_json(path)
        assert isinstance(got, np.ndarray) and not got.flags.writeable
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert tree_bits(got) == tree_bits(json_load_oracle(text))
        assert type(kept) is list
        assert tree_bits(kept) == tree_bits(json_load_oracle(spoiled))


def test_fragment_reader_takes_the_readers_arrays(tmp_path, monkeypatch):
    """Projector stacks reach ``_complex_in`` as the reader's arrays, not as
    lists made back from them, and the fragment read from the file is bit
    for bit the one read from ``json.loads``."""
    _, fragment = _ks_2000()
    path = tmp_path / "fragment.json"
    path.write_text(dumps_json(fragment_to_json(fragment)))
    handed = []

    def recorded(data):
        handed.append(data)
        return complex_in(data)

    complex_in = serialize._complex_in
    monkeypatch.setattr(serialize, "_complex_in", recorded)
    data = load_json(path)
    got = fragment_from_json(data)
    assert len(handed) == len(fragment.states) + len(fragment.measurements)
    assert all(isinstance(arr, np.ndarray) for arr in handed)
    for name, spec in data["measurements"].items():
        assert any(arr is spec["projectors"] for arr in handed)
    want = fragment_from_json(json.loads(path.read_text()))
    for field in ("states", "unitaries", "measurements"):
        assert getattr(got, field).keys() == getattr(want, field).keys()
    for name in want.states:
        assert got.states[name].amplitudes.tobytes() == want.states[name].amplitudes.tobytes()
    for name, meas in want.measurements.items():
        assert got.measurements[name].outcomes == meas.outcomes
        assert got.measurements[name].projectors.tobytes() == meas.projectors.tobytes()


def test_each_stacked_arrays_rows_are_freed_as_it_is_made(tmp_path):
    """Four 50 x 500 matrices: the reader lets go of each one's rows as it
    stacks them, so at most one matrix is held twice, not all four."""
    rng = np.random.default_rng(3)
    matrices = {f"m{k}": rng.random((50, 500)) for k in range(4)}
    path = tmp_path / "matrices.json"
    with open(path, "w") as fh:
        write_json(matrices, fh)
    tracemalloc.start()
    try:
        data = load_json(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(data[k].tobytes() == m.tobytes() for k, m in matrices.items())
    assert peak < 1.5 * sum(m.nbytes for m in matrices.values())


def test_load_json_reads_as_deep_as_json_loads(tmp_path):
    """A document nested about 900 deep, which ``json.loads`` reads at the
    default recursion limit, reads as ``json.loads`` reads it."""
    pairs = 450                         # an object and a list each
    text = '{"a": [' * pairs + "[1.5, -0.0]" + "]}" * pairs
    path = tmp_path / "deep.json"
    path.write_text(text)
    got, want = load_json(path), json.loads(text)
    for _ in range(pairs):
        assert list(got) == list(want) == ["a"] and len(got["a"]) == len(want["a"]) == 1
        got, want = got["a"][0], want["a"][0]
    assert tree_bits(got) == tree_bits(json_load_oracle(json.dumps(want)))


def test_mixed_number_list_in_a_file_is_rejected(tmp_path):
    model, _ = _toy_json()
    path = tmp_path / "model.json"
    path.write_text(dumps_json({**model, "maps": {"step": {"deterministic": [1, False]}}}))
    with pytest.raises(ValueError,
                       match="map 'step': 'deterministic' must hold only numbers, got booleans"):
        model_from_json(load_json(path))


def _toy_json():
    model, frag = emmr_toy_model(math.pi / 3)
    return model_to_json(model), fragment_to_json(frag)


@pytest.mark.parametrize(("malform", "words"), [
    (lambda m: {**m, "atoms": 2.0}, "model: 'atoms' must be int, got float"),
    (lambda m: {k: v for k, v in m.items() if k != "responses"},
     "model: missing key 'responses'"),
    (lambda m: {**m, "maps": {"step": {"targets": [1, 0]}}},
     "map 'step': missing key 'deterministic'"),
    (lambda m: {**m, "updates": {"macro": "eig_up"}},
     "model 'updates': 'macro' must be dict, got str"),
    (lambda m: {**m, "outcomes": {"macro": 2}},
     "model 'outcomes': 'macro' must be list, got int"),
    (lambda m: {**m, "eigenstate_preps": {"q-": 0}},
     "model 'eigenstate_preps': 'q-' must be list, got int"),
    (lambda m: {**m, "delta_sets": {"up": 0}},
     "model 'delta_sets': 'up' must be list, got int"),
    (lambda m: {**m, "delta_sets": {"up": "eig_up"}},
     "model 'delta_sets': 'up' must be list, got str"),
    (lambda m: {**m, "eigenstate_preps": {"q-": "eig_down"}},
     "model 'eigenstate_preps': 'q-' must be list, got str"),
    (lambda m: {**m, "maps": {"step": {"deterministic": ["1", "0"]}}},
     "map 'step': 'deterministic' must hold only numbers, got strings"),
    (lambda m: {**m, "maps": {"step": {"deterministic": [True, False]}}},
     "map 'step': 'deterministic' must hold only numbers, got booleans"),
    (lambda m: {**m, "maps": {"step": {"deterministic": [1, "a"]}}},
     "map 'step': 'deterministic' must hold only numbers, got strings"),
    (lambda m: {**m, "maps": {"step": {"deterministic": [1, True]}}},
     "map 'step': 'deterministic' must hold only numbers, got booleans"),
    (lambda m: {**m, "preparations": {**m["preparations"], "eig_up": [1.0, False]}},
     "model 'preparations': 'eig_up' must hold only numbers, got booleans"),
    (lambda m: {**m, "responses": {"macro": [[1.0, 0.0], [0.0, True]]}},
     "model 'responses': 'macro' must hold only numbers, got booleans"),
    (lambda m: {**m, "preparations": {**m["preparations"], "eig_up": ["1.0", "0"]}},
     "model 'preparations': 'eig_up' must hold only numbers, got strings"),
    (lambda m: {**m, "responses": {"macro": [[1.0, None], [0.0, 1.0]]}},
     "model 'responses': 'macro' must hold only numbers, got other JSON values"),
    (lambda m: {**m, "maps": {"step": [[1.0, 0.0], [0.0]]}},
     "model 'maps': 'step' must be a rectangular array of numbers"),
    (lambda m: {**m, "atoms": True}, "model: 'atoms' must be int, got bool"),
])
def test_malformed_model_names_the_key(malform, words):
    model, _ = _toy_json()
    with pytest.raises(ValueError, match=words):
        model_from_json(malform(model))


@pytest.mark.parametrize(("malform", "words"), [
    (lambda f: [f], "fragment: expected a JSON object, got list"),
    (lambda f: {**f, "states": []}, "fragment: 'states' must be dict, got list"),
    (lambda f: {**f, "measurements": {"macro": {"outcomes": ["+", "-"]}}},
     "measurement 'macro': missing key 'projectors'"),
    (lambda f: {**f, "dim": True}, "fragment: 'dim' must be int, got bool"),
    (lambda f: {**f, "states": {**f["states"], "up": [["1.0", "0"], [0.0, 0.0]]}},
     "state 'up': [re, im] pairs must hold only numbers, got strings"),
    (lambda f: {**f, "states": {**f["states"], "up": [[True, False], [False, False]]}},
     "state 'up': [re, im] pairs must hold only numbers, got booleans"),
    (lambda f: {**f, "states": {**f["states"], "up": [[1.0], [0.0]]}},
     "state 'up': complex data must end in [re, im] pairs, got shape (2, 1)"),
    (lambda f: {**f, "unitaries": {"u": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}},
     "unitary 'u': matrix not unitary"),
    (lambda f: {**f, "measurements": {"macro": {**f["measurements"]["macro"],
                                                "outcomes": ["a", "b", "c"]}}},
     "measurement 'macro': one projector per outcome required"),
])
def test_malformed_fragment_names_the_key(malform, words):
    _, frag = _toy_json()
    with pytest.raises(ValueError, match=re.escape(words)):
        fragment_from_json(malform(frag))
