import csv
import dataclasses
import io
import json
import math
import shlex
import subprocess
import sys

import pytest

import macroreal
import macroreal.cli
import macroreal.witness
import macroreal.zoo
from macroreal.cli import run
from macroreal.ontomodel import _slsqplib_path
from toolenv import ROOT, child_env


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witness_stdout_json(capsys):
    code, out, _ = run_cli(capsys, "witness", "--alpha", "0.5", "--dim", "4", "--json", "-")
    assert code == 0
    payload = json.loads(out)
    assert payload["contradiction"]["deficit"] == pytest.approx(0.125, abs=1e-14)
    assert payload["antidistinguishability"]["certified"] is True


def test_witness_boundary_alpha_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "witness", "--alpha", str(1 / math.sqrt(2)))
    assert code == 2
    assert "alpha" in err


def test_unknown_subcommand_exits_2(capsys):
    assert run(["nonsense"]) == 2


def test_grid_too_large_to_allocate_exits_2(capsys, monkeypatch):
    """Running out of memory ends in one error line and exit 2, not a
    traceback. The sweep is stubbed: a real oversized allocation could
    succeed under memory overcommit and reach the OOM killer."""
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

    def sweep(alphas, dim):
        raise MemoryError(message)

    monkeypatch.setattr(macroreal.cli, "sweep", sweep)
    code, out, err = run_cli(capsys, "sweep", "--steps", "7")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_memory_error_without_a_message_still_says_what_failed(capsys, monkeypatch):
    """Python's own MemoryError (a list or bytes allocation) carries no
    message; the error line then names the exception."""
    def sweep(alphas, dim):
        raise MemoryError()

    monkeypatch.setattr(macroreal.cli, "sweep", sweep)
    code, out, err = run_cli(capsys, "sweep", "--steps", "7")
    assert (code, out, err) == (2, "", "error: MemoryError\n")


def test_sweep_schema_and_rows(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--alpha-min", "0.05", "--alpha-max", "0.70",
        "--steps", "64", "--csv", str(out_path),
    )
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert rows[0] == ["alpha", "beta", "tau", "delta", "eta", "kappa",
                       "a", "b", "c", "antidist_ok", "esmr_lower",
                       "quantum_upper", "deficit"]
    assert len(rows) == 65
    assert all(r[9] == "true" for r in rows[1:])
    deficits = [float(r[12]) for r in rows[1:]]
    assert max(deficits) == pytest.approx(0.125, abs=1e-3)


def test_sweep_rerun_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "sweep", "--steps", "7", "--csv", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_exclude_esmr_certificate(capsys):
    code, out, _ = run_cli(capsys, "exclude", "--alpha", "0.5", "--mode", "esmr")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "infeasible"
    assert payload["certificate"]["farkas_eq"]
    assert payload["certificate_residual"] <= 1e-7


def test_exclude_pivot_budget_exits_1(capsys, monkeypatch):
    import macroreal.lp

    monkeypatch.setattr(macroreal.lp, "MAX_PIVOTS", 5)
    code, out, err = run_cli(capsys, "exclude", "--alpha", "0.5", "--mode", "emmr")
    assert code == 1
    assert out == ""
    assert err == "certification failure: simplex pivot budget of 5 exhausted\n"


def test_witness_root_find_failure_exits_1(capsys, monkeypatch):
    # alpha = 0.25 reaches the slot-angle root find, which needs more than one step
    monkeypatch.setattr(macroreal.witness, "_BRENTQ_MAXITER", 1)
    code, out, err = run_cli(capsys, "witness", "--alpha", "0.25")
    assert code == 1
    assert out == ""
    assert err == "certification failure: root find did not converge (iteration cap 1)\n"


def one_failure_line(err: str) -> bool:
    return err.startswith("certification failure: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(("mode", "alpha", "dim", "gain"), [
    ("esmr", "0.7071067711865474", 4, "1.41e-08"),     # eps = 1e-8, the thirds ray
    ("esmr", "0.0001", 4, "6e-09"),                    # the fifths ray
    ("emmr", "0.0009055298304384401", 6, "9.38e-08"),  # the simplex's ray
])
def test_short_ray_gain_exits_1_with_one_stderr_line(mode, alpha, dim, gain, capsys):
    """An infeasible report whose ray gains less than CERT_TOL still goes to
    stdout, and the one stderr line names the shortfall in gain terms."""
    code, out, err = run_cli(
        capsys, "exclude", "--alpha", alpha, "--dim", str(dim), "--mode", mode
    )
    assert code == 1
    assert json.loads(out)["status"] == "infeasible"
    assert err == f"certification failure: {mode} ray gains {gain} < CERT_TOL 1e-07\n"


def run_uncertified(capsys, monkeypatch, *argv) -> tuple:
    """Run ``argv`` as is, then with every anti-distinguishability report
    uncertified: both stdouts and the second run's exit code and stderr."""
    real = macroreal.witness.check_antidistinguishable

    def uncertified(*states):
        return dataclasses.replace(real(*states), measurement=None)

    code, certified_out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    monkeypatch.setattr(macroreal.witness, "check_antidistinguishable", uncertified)
    monkeypatch.setattr(macroreal.cli, "check_antidistinguishable", uncertified)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert one_failure_line(err)
    assert "not certified anti-distinguishable" in err
    return certified_out, out


def test_uncertified_witness_exits_1_with_one_stderr_line(capsys, monkeypatch):
    certified_out, out = run_uncertified(capsys, monkeypatch, "witness", "--alpha", "0.5")
    expected = json.loads(certified_out)
    expected["antidistinguishability"]["certified"] = False
    assert json.loads(out) == expected


def test_uncertified_sweep_exits_1_with_one_stderr_line(capsys, monkeypatch):
    certified_out, out = run_uncertified(capsys, monkeypatch, "sweep", "--steps", "3")
    assert out == certified_out.replace(",true,", ",false,")


# the four zoo models, each with the fragment it is classified against
ZOO_MODELS_CHILD = """
from macroreal.cli import _zoo_build, build_parser
from macroreal.ontomodel import classify

zoo_models = [_zoo_build(build_parser().parse_args(["zoo", *words.split()]))[:2]
              for words in ("ks --nodes 2000", "bb", "det", "emmr-toy")]
"""
ZOO_KINDS = ["ESMR", "NONE", "SSMR", "EMMR"]

IMPORT_GUARD_CHILD = """
import contextlib, io, json, sys
import macroreal
from macroreal.cli import run

commands = [
    "witness --alpha 0.25 --dim 4",
    "sweep --steps 4 --dim 4",
    "exclude --alpha 0.25 --dim 4 --mode esmr",
    "exclude --alpha 0.25 --dim 4 --mode emmr",
    "exclude --alpha 0.25 --dim 4 --mode max-overlap",
    # the 1e-3 Born budget holds at 20 000 nodes; it scales as 1/sqrt(nodes)
    "zoo ks --nodes 2000 --pairs 5 --check-born --tol 3.2e-3",
    "zoo bb",
    "zoo det",
    "zoo emmr-toy",
    "lgi --model ks --nodes 2000 --theta-grid 4",
]
codes = []
for command in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(run(command.split()))
""" + ZOO_MODELS_CHILD + """
kinds = [classify(model, fragment).kind for model, fragment in zoo_models]
print(json.dumps([codes, kinds, sorted(k for k in sys.modules if k.startswith("scipy")),
                  "numpy.ma" in sys.modules]))
"""

EVIDENCE_CHILD = ZOO_MODELS_CHILD + """
import json, sys
sys.path.insert(0, {tests!r})

verdicts = [classify(model, fragment) for model, fragment in zoo_models]
kinds = [verdict.kind for verdict in verdicts]
evidences = [verdict.evidence for verdict in verdicts]
scipy_optimize = "scipy.optimize" in sys.modules

from helpers import support_index_classify, tree_bits   # imports scipy.optimize
same = [tree_bits(evidence) == tree_bits(support_index_classify(model, fragment).evidence)
        for evidence, (model, fragment) in zip(evidences, zoo_models)]
print(json.dumps([kinds, same, scipy_optimize]))
"""

# classify on zoo ks files, its evidence read from the command's output
# before anything imports scipy.optimize, then checked against the oracle
CLASSIFY_EVIDENCE_CHILD = """
import contextlib, io, json, os, sys, tempfile
sys.path.insert(0, {tests!r})
from macroreal.cli import run

with tempfile.TemporaryDirectory() as tmp:
    model, fragment, out = (os.path.join(tmp, name) for name in ("m.json", "f.json", "c.json"))
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [run(["zoo", "ks", "--nodes", "2000", "--pairs", "5",
                      "--model-out", model, "--fragment-out", fragment]),
                 run(["classify", "--model", model, "--fragment", fragment, "--json", out])]
    with open(out) as fh:
        payload = json.load(fh)
    scipy_modules = sorted(k for k in sys.modules if k.startswith("scipy"))

    from helpers import support_index_classify
    from macroreal.serialize import fragment_from_json, load_json, model_from_json
    import scipy.optimize._nnls
    oracle = support_index_classify(model_from_json(load_json(model)),
                                    fragment_from_json(load_json(fragment)))
same = payload == json.loads(json.dumps({{"classification": oracle.kind,
                                         "evidence": oracle.evidence}}))
reused = scipy.optimize._nnls._nnls is sys.modules["scipy.optimize._slsqplib"].nnls
print(json.dumps([codes, payload["classification"], scipy_modules, same, reused]))
"""


def _child_json(code: str):
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=child_env(), timeout=120, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])


def test_witness_sweep_exclude_do_not_load_scipy():
    codes, kinds, scipy_modules, numpy_ma = _child_json(IMPORT_GUARD_CHILD)
    assert codes == [0] * 10
    assert kinds == ZOO_KINDS
    assert scipy_modules == []
    # np.unique loads numpy.ma (numpy 2.4), which no command needs
    assert not numpy_ma


def test_classify_evidence_loads_only_scipys_nnls_extension():
    """Where scipy ships ``_slsqplib``, the ``classify`` command prints its
    evidence without importing ``scipy.optimize``, the evidence is the
    oracle's bit for bit, and a later ``import scipy.optimize`` reuses the
    extension module."""
    codes, kind, scipy_modules, same, reused = _child_json(
        CLASSIFY_EVIDENCE_CHILD.format(tests=str(ROOT / "tests")))
    assert codes == [0, 0]
    assert kind == "ESMR"
    assert same
    if _slsqplib_path() is None:
        assert "scipy.optimize" in scipy_modules   # the fallback
    else:
        assert scipy_modules == ["scipy.optimize._slsqplib"]
        assert reused


def test_zoo_evidence_read_after_the_verdict_matches_the_index_form_bit_for_bit():
    """The evidence is formed on its first read, after ``kind``, in a child
    that has not imported scipy before."""
    kinds, same, scipy_optimize = _child_json(EVIDENCE_CHILD.format(tests=str(ROOT / "tests")))
    assert kinds == ZOO_KINDS
    assert same == [True] * 4
    assert scipy_optimize is (_slsqplib_path() is None)


def test_exclude_rerun_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "exclude", "--alpha", "0.3", "--mode", "emmr", "--json", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_exclude_max_overlap_value(capsys):
    code, out, _ = run_cli(capsys, "exclude", "--alpha", "0.5", "--mode", "max-overlap")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == pytest.approx(0.375, abs=1e-7)


def test_zoo_missed_born_budget_exits_1_with_one_stderr_line(capsys):
    code, out, err = run_cli(
        capsys, "zoo", "ks", "--nodes", "200", "--pairs", "3", "--check-born", "--tol", "1e-6"
    )
    assert code == 1
    assert json.loads(out)["validation"]["passed"] is False
    assert one_failure_line(err)
    assert "misses the Born statistics" in err


def test_zoo_classify_round_trip(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    frag_path = tmp_path / "frag.json"
    code, _, _ = run_cli(
        capsys, "zoo", "ks", "--nodes", "3000", "--pairs", "8",
        "--model-out", str(model_path), "--fragment-out", str(frag_path),
        "--json", str(tmp_path / "zoo.json"),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "classify", "--model", str(model_path), "--fragment", str(frag_path)
    )
    assert code == 0
    first = json.loads(out)["classification"]
    code, out, _ = run_cli(
        capsys, "classify", "--model", str(model_path), "--fragment", str(frag_path)
    )
    assert json.loads(out)["classification"] == first == "ESMR"


def test_zoo_bb_and_det_classifications(tmp_path, capsys):
    for name, expected in (("bb", "NONE"), ("det", "SSMR"), ("emmr-toy", "EMMR")):
        model_path = tmp_path / f"{name}.json"
        frag_path = tmp_path / f"{name}_frag.json"
        code, _, _ = run_cli(
            capsys, "zoo", name, "--model-out", str(model_path),
            "--fragment-out", str(frag_path), "--json", str(tmp_path / "out.json"),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "classify", "--model", str(model_path), "--fragment", str(frag_path)
        )
        assert code == 0
        assert json.loads(out)["classification"] == expected


@pytest.mark.parametrize("name", ["bb", "det", "emmr-toy"])
def test_zoo_check_born_binds_through_delta_sets(name, capsys):
    # the toy's preparations eig_up and eig_down realize the states up and
    # down only through its delta sets
    code, out, err = run_cli(capsys, "zoo", name, "--check-born")
    assert code == 0, err
    assert json.loads(out)["validation"]["passed"] is True


def _write_edited_toy(edit, tmp_path, capsys) -> None:
    """Write the toy's model and fragment, as ``edit(model, fragment)``
    returns them, to ``m.json`` and ``f.json`` in ``tmp_path``."""
    code, _, _ = run_cli(
        capsys, "zoo", "emmr-toy", "--model-out", str(tmp_path / "m.json"),
        "--fragment-out", str(tmp_path / "f.json"), "--json", str(tmp_path / "out.json"),
    )
    assert code == 0
    model, frag = edit(json.loads((tmp_path / "m.json").read_text()),
                       json.loads((tmp_path / "f.json").read_text()))
    (tmp_path / "m.json").write_text(json.dumps(model))
    (tmp_path / "f.json").write_text(json.dumps(frag))


def _basis_projectors(dim: int) -> list:
    """The computational basis projectors of C^dim as [re, im] pairs."""
    return [[[[float(i == j == k), 0.0] for k in range(dim)] for j in range(dim)]
            for i in range(dim)]


def _with_macro(frag, **spec) -> dict:
    """The fragment with its macro measurement's entries replaced by ``spec``."""
    return {**frag, "measurements": {"macro": {**frag["measurements"]["macro"], **spec}}}


@pytest.mark.parametrize(("edit", "words"), [
    (lambda model, frag: ({}, frag), "model: missing key 'atoms'"),
    (lambda model, frag: ([model], frag), "model: expected a JSON object, got list"),
    (lambda model, frag: (model, {k: v for k, v in frag.items() if k != "dim"}),
     "fragment: missing key 'dim'"),
    (lambda model, frag: ({**model, "updates": {"macro": "eig_up"}}, frag),
     "model 'updates': 'macro' must be dict, got str"),
    (lambda model, frag: ({**model, "updates": {"macro": [1, 2]}}, frag),
     "model 'updates': 'macro' must be dict, got list"),
    (lambda model, frag: ({**model, "delta_sets": {"up": [7]}}, frag),
     "delta set of 'up' names unknown preparation 7"),
    (lambda model, frag: (
        {**model, "preparations": {**model["preparations"], "eig_up": [1.0, math.nan]}}, frag),
     "preparation 'eig_up': columns not stochastic, a sum is off 1 by nan"),
    (lambda model, frag: (
        model, {**frag, "states": {**frag["states"], "up": [[math.nan, 0.0], [0.0, 0.0]]}}),
     "state 'up': state not normalized: sum |a_i|^2 = nan"),
    (lambda model, frag: (
        model, {**frag, "unitaries": {"grow": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}}),
     "unitary 'grow': matrix not unitary: ||U^dag U - I||_F = 3.0"),
    (lambda model, frag: (
        model, {**frag, "states": {**frag["states"], "up": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}}),
     "state 'up' has dim 3, fragment dim 2"),
    (lambda model, frag: (
        model, {**frag, "unitaries": {"big": [[[float(j == k), 0.0] for k in range(3)]
                                              for j in range(3)]}}),
     "unitary 'big' has dim 3, fragment dim 2"),
    (lambda model, frag: (model, {**frag, "measurements": {
        **frag["measurements"], "wide": {"outcomes": ["a", "b", "c"],
                                         "projectors": _basis_projectors(3)}}}),
     "measurement 'wide' has dim 3, fragment dim 2"),
    (lambda model, frag: (model, {**frag, "macro_observable": "tilt"}),
     "macro observable 'tilt' not in measurements"),
    (lambda model, frag: (
        {**model, "preparations": {**model["preparations"], "mixed": [1.5, -0.5]}}, frag),
     "preparation 'mixed': negative entry -0.5"),
    (lambda model, frag: ({**model, "atoms": 0}, frag), "atom count must be positive"),
    (lambda model, frag: ({**model, "outcomes": {"macro": ["q+"]}}, frag),
     "response 'macro': 1 labels for 2 rows"),
    (lambda model, frag: ({**model, "macro_measurement": "tilt"}, frag),
     "macro measurement 'tilt' has no response matrix"),
    (lambda model, frag: (
        {**model, "eigenstate_preps": {**model["eigenstate_preps"], "q0": ["mixed"]}}, frag),
     "eigenstate declaration for unknown macro value 'q0'"),
    (lambda model, frag: (
        {**model, "eigenstate_preps": {**model["eigenstate_preps"], "q-": []}}, frag),
     "eigenstate declaration for 'q-' is empty"),
    (lambda model, frag: ({**model, "updates": {"tilt": {"q+": "eig_up"}}}, frag),
     "update rule for unknown measurement 'tilt'"),
    (lambda model, frag: ({**model, "updates": {"macro": {"q0": "eig_up"}}}, frag),
     "update rule for unknown outcome 'q0' of 'macro'"),
    (lambda model, frag: (model, _with_macro(frag, outcomes=["a", "b"])),
     "macro outcome labels ('q+', 'q-') do not match fragment macro outcomes ('a', 'b')"),
    (lambda model, frag: (
        model, {**frag, "states": {**frag["states"], "up": [[[1.0, 0.0]], [[0.0, 0.0]]]}}),
     "state 'up': expected a vector, got shape (2, 1)"),
    (lambda model, frag: (
        model, {**frag, "unitaries": {"wide": [[[1.0, 0.0], [0.0, 0.0]]] * 3}}),
     "unitary 'wide': expected a square matrix, got shape (3, 2)"),
    (lambda model, frag: (model, _with_macro(frag, outcomes=["q+", "q+"])),
     "measurement 'macro': outcome labels must be distinct"),
    (lambda model, frag: (model, _with_macro(frag, projectors=_basis_projectors(2)[0])),
     "measurement 'macro': projectors must have shape (n, d, d), got (2, 2)"),
], ids=["empty-model", "list-model", "fragment-without-dim", "update-not-object",
        "update-number-list", "delta-set-number-list", "nan-preparation", "nan-amplitude",
        "non-unitary", "state-dim", "unitary-dim", "measurement-dim", "unknown-macro-observable",
        "negative-entry", "no-atoms", "label-count", "macro-without-response",
        "eigenstates-of-unknown-value", "empty-eigenstates", "update-of-unknown-measurement",
        "update-of-unknown-outcome", "macro-label-mismatch", "state-not-vector",
        "unitary-not-square", "repeated-outcome", "projectors-not-stack"])
def test_classify_malformed_file_is_usage_error(edit, words, tmp_path, capsys):
    _write_edited_toy(edit, tmp_path, capsys)
    code, out, err = run_cli(
        capsys, "classify", "--model", str(tmp_path / "m.json"),
        "--fragment", str(tmp_path / "f.json"),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {words}\n"


@pytest.mark.parametrize(("edit", "words"), [
    (lambda model, frag: (
        {**model, "preparations": {**model["preparations"], "eig_up": [1e308, 1e308]}}, frag),
     "preparation 'eig_up': columns not stochastic, a sum is off 1 by inf"),
    (lambda model, frag: (
        model, {**frag, "states": {**frag["states"], "up": [[1e308, 0.0], [0.0, 0.0]]}}),
     "state 'up': state not normalized: sum |a_i|^2 = inf"),
    (lambda model, frag: (
        model, {**frag, "unitaries": {"huge": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}}),
     "unitary 'huge': matrix not unitary: ||U^dag U - I||_F = nan"),
], ids=["preparation", "state", "unitary"])
def test_classify_overflowing_preparation_writes_one_stderr_line(edit, words, tmp_path, capsys):
    """A column sum, a norm or a unitarity deviation that overflows fails
    its check. The command line, run with the default warning filters,
    prints the one ``error:`` line and no overflow warning beside it."""
    _write_edited_toy(edit, tmp_path, capsys)
    child = subprocess.run(
        [sys.executable, "-m", "macroreal.cli", "classify", "--model", str(tmp_path / "m.json"),
         "--fragment", str(tmp_path / "f.json")],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == f"error: {words}\n"


def _classify_model_text(text, tmp_path, capsys) -> tuple:
    """Run ``classify`` on a model file holding ``text`` (a string, or
    bytes written as they are) and the toy fragment."""
    code, _, _ = run_cli(
        capsys, "zoo", "emmr-toy", "--fragment-out", str(tmp_path / "f.json"),
        "--json", str(tmp_path / "out.json"),
    )
    assert code == 0
    if isinstance(text, bytes):
        (tmp_path / "m.json").write_bytes(text)
    else:
        (tmp_path / "m.json").write_text(text)
    return run_cli(capsys, "classify", "--model", str(tmp_path / "m.json"),
                   "--fragment", str(tmp_path / "f.json"))


@pytest.mark.parametrize("text", [
    '{"atoms": [1,]}',
    '{"atoms": 2, "preparations": {"up": [1.0, 0.0}}',
    '{"atoms": 2,\n "maps": {"step": {"deterministic": [0, 1\u0661]}}}',
], ids=["trailing-comma", "brace-in-leaf", "non-ascii-digit"])
def test_classify_json_error_is_json_loads_line(text, tmp_path, capsys):
    """A decode error inside a number list names the position in the file,
    as ``json.loads`` does."""
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    assert _classify_model_text(text, tmp_path, capsys) == (2, "", f"error: {want.value}\n")


def test_classify_json_error_in_a_leaf_across_chunks_is_json_loads_line(
        tmp_path, capsys, monkeypatch):
    """A trailing comma in a number list that a chunk boundary cuts is
    reported with ``json.loads``'s message and position."""
    text = '{"atoms": 2,\n "preparations": {"up": [1.0, 0.0,]}}'
    monkeypatch.setattr(macroreal.serialize, "_CHUNK", 40)
    assert text.index("[") < 40 < text.index("]")
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    assert _classify_model_text(text, tmp_path, capsys) == (2, "", f"error: {want.value}\n")


def test_classify_invalid_utf8_past_the_first_chunk_names_its_file_position(
        tmp_path, capsys, monkeypatch):
    """A byte that is not UTF-8, past the first chunk and past the text
    layer's first buffer, is reported as reading the whole file reports
    it: at its byte position in the file."""
    head = ('{"atoms": 2, "preparations": {"up": [' + ", ".join(["0.0"] * 3000)
            + '], "down": [1.0, 0.0]}, "macro_measurement": "').encode()
    assert len(head) > io.DEFAULT_BUFFER_SIZE
    monkeypatch.setattr(macroreal.serialize, "_CHUNK", 64)
    text = head + b'\xff"}'
    (tmp_path / "whole.json").write_bytes(text)
    with pytest.raises(UnicodeDecodeError) as want:
        (tmp_path / "whole.json").read_text()
    assert f"position {len(head)}:" in str(want.value)
    assert _classify_model_text(text, tmp_path, capsys) == (2, "", f"error: {want.value}\n")


def test_classify_deeply_nested_model_is_usage_error(tmp_path, capsys):
    """Nesting deeper than the interpreter's stack exits 2 with one stderr
    line, not a traceback."""
    code, out, err = _classify_model_text("[" * 5000 + "]" * 5000, tmp_path, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {tmp_path / 'm.json'}: JSON nested too deeply to read\n"


@pytest.mark.parametrize(("model_text", "fragment_text"), [
    ('{"atoms": [1,]}', '{"dim": [2,]}'),
    ('{"atoms": 0}', '{"dim": 0}'),
    ('{"atoms": 0}', '{"dim": [2,]}'),
], ids=["both-undecodable", "both-invalid", "invalid-model-undecodable-fragment"])
def test_classify_with_both_files_malformed_reports_the_model_file(
        model_text, fragment_text, tmp_path, capsys):
    """The model file is read and built before the fragment file is read,
    so its error is the one printed."""
    _write_edited_toy(lambda model, frag: (model, frag), tmp_path, capsys)
    good = {name: (tmp_path / name).read_text() for name in ("m.json", "f.json")}

    def classify_err(model: str, fragment: str) -> str:
        (tmp_path / "m.json").write_text(model)
        (tmp_path / "f.json").write_text(fragment)
        code, out, err = run_cli(capsys, "classify", "--model", str(tmp_path / "m.json"),
                                 "--fragment", str(tmp_path / "f.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    model_err = classify_err(model_text, good["f.json"])
    assert model_err != classify_err(good["m.json"], fragment_text)
    assert classify_err(model_text, fragment_text) == model_err


@pytest.mark.parametrize("argv", [
    ["sweep", "--steps", "0"], ["sweep", "--steps", "-1"],
    ["lgi", "--theta-grid", "0"], ["lgi", "--model", "emmr-toy", "--theta-grid", "-2"],
    ["zoo", "ks", "--pairs", "0"], ["zoo", "ks", "--pairs", "-3"],
])
def test_empty_grids_are_usage_errors(argv, capsys):
    """An empty grid would print only the CSV header, or check no pairs, and
    exit 0."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be an integer of at least 1" in err


@pytest.mark.parametrize("argv", [
    ["zoo", "ks", "--nodes", "100000000000"],
    ["lgi", "--model", "ks", "--nodes", "100000000000"],
], ids=["zoo", "lgi"])
def test_oversized_grid_is_usage_error_before_allocation(argv, capsys, monkeypatch):
    """A grid past MAX_GRID_NODES exits 2 with one line, never a numpy
    memory traceback, and its nodes are never computed."""
    spiral = macroreal.zoo._golden_spiral

    def small_spirals_only(n):
        assert n <= macroreal.zoo.MAX_GRID_NODES, f"computing {n} grid nodes"
        return spiral(n)

    monkeypatch.setattr(macroreal.zoo, "_golden_spiral", small_spirals_only)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: 100000000000 grid nodes exceed the 1000000 cap\n"


@pytest.mark.parametrize(("tol", "shown"), [("inf", "inf"), ("nan", "nan"), ("-1", "-1.0")])
def test_check_born_tol_must_be_finite_and_nonnegative(tol, shown, capsys):
    """An infinite tol would certify any model; a NaN or negative one would
    report every model as a certification failure."""
    code, out, err = run_cli(capsys, "zoo", "bb", "--check-born", "--tol", tol)
    assert code == 2
    assert out == ""
    assert err == f"error: tol must be a finite number >= 0, got {shown}\n"


ALL_COMMANDS = [
    ["witness"],
    ["exclude", "--mode", "esmr"],
    ["exclude", "--mode", "emmr"],
    ["exclude", "--mode", "max-overlap"],
]


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda argv: argv[-1])
def test_numerical_limits_inside_the_alpha_range_exit_1(argv, capsys):
    """Near 0, 1 - 2 alpha^2 rounds to 1 and leaves no normalization
    headroom. The alpha is valid input, so this is not a usage error."""
    code, out, err = run_cli(capsys, *argv, "--alpha", "5e-09")
    assert code == 1
    assert out == ""
    assert err.startswith("certification failure: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(("alpha", "expected"), [(4.2e-4, 0), (4e-4, 1)])
def test_esmr_lower_edge(alpha, expected, capsys):
    """Below alpha = 4.0825e-4 the ESMR ray's gain (3/5) alpha^2 (1 - 2 alpha^2)
    falls under CERT_TOL, so the infeasibility is no longer certified."""
    code, out, _ = run_cli(capsys, "exclude", "--alpha", repr(alpha), "--mode", "esmr")
    assert code == expected
    assert json.loads(out)["status"] == "infeasible"


ALPHA_MAX = macroreal.witness.ALPHA_MAX
COMMANDS = {argv[-1]: argv for argv in ALL_COMMANDS}

# The edges of the README table "The alpha envelope", one point on each
# side, as (command, dim, alpha, exit code).
ENVELOPE = [
    # witness, max-overlap, emmr: from alpha = 5.268e-9 to the last double
    # below 1/sqrt(2); 1/sqrt(2) itself is a usage error
    *[(cmd, dim, alpha, code)
      for cmd in ("witness", "max-overlap", "emmr")
      for dim in (4, 6)
      for alpha, code in [(5.26e-9, 1), (5.28e-9, 0), (1e-7, 0), (ALPHA_MAX - 1e-12, 0),
                          (math.nextafter(ALPHA_MAX, 0.0), 0), (ALPHA_MAX, 2)]],
    # esmr: 4.0825e-4 <= alpha and eps = 1/sqrt(2) - alpha >= 7.0711e-8
    *[("esmr", dim, alpha, code)
      for dim in (4, 6)
      for alpha, code in [(4e-4, 1), (4.2e-4, 0), (ALPHA_MAX - 7e-8, 1), (ALPHA_MAX - 7.2e-8, 0)]],
    # emmr fails for eps in [3.54e-10, 1.83e-8) at d=4 and [2.65e-11, 1.77e-8) at d=6
    ("emmr", 4, ALPHA_MAX - 1.85e-8, 0), ("emmr", 4, ALPHA_MAX - 1.8e-8, 1),
    ("emmr", 4, ALPHA_MAX - 1e-8, 1),
    ("emmr", 4, ALPHA_MAX - 3.6e-10, 1), ("emmr", 4, ALPHA_MAX - 3.5e-10, 0),
    ("emmr", 6, ALPHA_MAX - 1.8e-8, 0), ("emmr", 6, ALPHA_MAX - 1.75e-8, 1),
    ("emmr", 6, ALPHA_MAX - 1e-8, 1),
    ("emmr", 6, ALPHA_MAX - 2.7e-11, 1), ("emmr", 6, ALPHA_MAX - 2.6e-11, 0),
    # and at d=6 on parts of [7.08e-4, 9.23e-4], the first and last failures
    # of a 301-point log grid over [4.3e-4, 3e-3] beside their neighbours
    ("emmr", 6, 0.0007033861803784633, 0), ("emmr", 6, 0.000707955577080063, 1),
    ("emmr", 6, 0.0009055298304384401, 1),
    ("emmr", 6, 0.0009232200405437342, 1), ("emmr", 6, 0.0009292175405313542, 0),
    ("emmr", 4, 0.0009055298304384401, 0),
]


@pytest.mark.parametrize(("cmd", "dim", "alpha", "expected"), ENVELOPE)
def test_alpha_envelope_edges(cmd, dim, alpha, expected, capsys):
    """A change that moves an edge must also change the README table. Every
    exit 1 names its failure in one stderr line; exit 0 writes none."""
    code, _, err = run_cli(capsys, *COMMANDS[cmd], "--alpha", repr(alpha), "--dim", str(dim))
    assert code == expected
    if code == 0:
        assert err == ""
    elif code == 1:
        assert one_failure_line(err), err


def test_lgi_quantum_csv(capsys):
    code, out, _ = run_cli(capsys, "lgi", "--theta-grid", "5", "--model", "quantum")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:6] == ["theta", "c12", "c23", "c13", "k", "model"]
    assert "classical_bound_1" in rows[0][6]
    assert len(rows) == 6
    ks = [float(r[4]) for r in rows[1:]]
    assert max(ks) > 1.0 + 1e-6   # quantum violation appears on the grid


def test_lgi_emmr_toy_bounded(capsys):
    code, out, _ = run_cli(capsys, "lgi", "--theta-grid", "9", "--model", "emmr-toy")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(float(r[4]) <= 1.0 + 1e-9 for r in rows[1:])


def test_readme_command_examples_parse():
    """Every ``macroreal`` line of the fenced block under the README's
    "## Command line" parses with the CLI's own parser."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    examples = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("macroreal ")]
    assert len(examples) == 6
    parser = macroreal.cli.build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])
