"""The NNLS behind ``classify``'s condition (b), against scipy's ``nnls``.

``ontomodel._nnls`` solves min |E x - mu| over x >= 0 by Lawson and
Hanson's active-set method in E's QR frame, each passive set by least
squares on its columns of R. Its solution x is the whole certificate:
``ontomodel._mixture_verdict`` forms the residual r = mu - E x itself and
re-verifies x: a mixture within ``MIXTURE_RESIDUAL_TOL``, or an optimum up
to rounding, whose |r| is then mu's distance from the cone, or neither,
where ``classify`` raises ``CertificationError`` and the ``classify``
command exits 1. ``classify``'s evidence prints that |r| for that x, bit
for bit. scipy's ``nnls`` is the independent oracle:
Hypothesis draws nonnegative E with k = 1..6 columns, repeated and zero
columns among them, and mu inside or outside their cone, and the verdicts
and residuals must agree with scipy's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

import macroreal.ontomodel as ontomodel
from macroreal import (
    CertificationError,
    FiniteOntModel,
    beltrametti_bugajski_model,
    bloch_vector,
    classify,
    deterministic_extension_model,
    emmr_toy_model,
    fibonacci_sphere_grid,
    kochen_specker_model,
    qubit_fragment,
    standard_qubit_fragment,
)
from macroreal.cli import run
from macroreal.ontomodel import MIXTURE_RESIDUAL_TOL
from macroreal.serialize import dumps_json, fragment_to_json, model_to_json
from helpers import (MIXTURE_KEYS, agrees_with_the_oracle, eigen_matrix, residuals_of_x,
                     support_index_classify, tree_bits)

# small whole numbers over a common denominator: columns that repeat, vanish
# or depend on each other, with no conditioning that would let a residual
# differ from scipy's by more than 1e-12 |mu|
ENTRY = st.integers(0, 4)


@st.composite
def cone_problems(draw):
    k = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 8))
    denominator = draw(st.integers(1, 7))
    matrix = np.array(draw(st.lists(st.lists(ENTRY, min_size=k, max_size=k),
                                    min_size=rows, max_size=rows))) / denominator
    for _ in range(draw(st.integers(0, 2))):        # repeated columns
        matrix[:, draw(st.integers(0, k - 1))] = matrix[:, draw(st.integers(0, k - 1))]
    if draw(st.booleans()):                           # a zero column
        matrix[:, draw(st.integers(0, k - 1))] = 0.0
    if draw(st.booleans()):                           # mu in the cone
        weights = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))) / 3.0
        mu = matrix @ weights
    else:
        mu = np.array(draw(st.lists(ENTRY, min_size=rows, max_size=rows))) / 7.0
    return np.ascontiguousarray(matrix), mu


def solve(matrix, mu):
    return ontomodel._nnls(*np.linalg.qr(matrix), mu)


def distinct_columns(matrix):
    """The nonzero columns of ``matrix``, each once."""
    keep = []
    for j in range(matrix.shape[1]):
        column = matrix[:, j]
        if column.any() and not any((column == matrix[:, i]).all() for i in keep):
            keep.append(j)
    return matrix[:, keep]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(cone_problems())
def test_nnls_optimum_matches_scipy_and_its_certificate_reverifies(problem):
    """The residual agrees with scipy's rnorm within 1e-12 |mu|, here on
    the distinct nonzero columns when they are independent. On a dependent
    set scipy's reported rnorm can fall below the residual of its own x
    (E with columns 0 and 4 equal, six columns in four rows, mu =
    (0, 3/7, 0, 3/7): rnorm 0.40557, |E x - mu| 0.40700, the optimum
    0.40658), so there the NNLS residual must be no larger than scipy's x's."""
    matrix, mu = problem
    x = solve(matrix, mu)
    ours, scale = float(np.linalg.norm(mu - matrix @ x)), 1e-12 * float(np.linalg.norm(mu))
    scipy_x, rnorm = nnls(matrix, mu)
    distinct = distinct_columns(matrix)
    if not distinct.size:
        assert ours == np.linalg.norm(mu)
    elif np.linalg.matrix_rank(distinct) == distinct.shape[1]:
        oracle = rnorm if distinct.shape[1] == matrix.shape[1] else nnls(distinct, mu)[1]
        assert abs(ours - oracle) <= scale
    else:
        assert ours <= np.linalg.norm(mu - matrix @ scipy_x) + scale
    # no draw lies near the tolerance: the verdict is scipy's and that of x's residual
    expected = bool(rnorm <= MIXTURE_RESIDUAL_TOL)
    assert expected is bool(ours <= MIXTURE_RESIDUAL_TOL)
    assert ontomodel._mixture_verdict(matrix, mu, x) is expected
    # x = 0, whose residual is mu, is a solution as well, not an optimal
    # one: it may certify nothing but the true verdict
    assert ontomodel._mixture_verdict(matrix, mu, np.zeros_like(x)) in (None, expected)


def test_the_qr_frame_keeps_the_conditioning_of_the_matrix():
    """On the normal form E.T @ E this case, mu on E's first column, keeps
    a residual of 1.8e-12 (the condition number squared); solved on R,
    whose conditioning is E's, it is rounding (1.4e-17), as in scipy's
    QR-based nnls."""
    matrix = np.array([[0.0, 1e-5], [0.34375, 2.0]])
    mu = np.array([0.0, 0.34375 / 3.0])
    x = solve(matrix, mu)
    assert (x >= 0.0).all()
    assert np.linalg.norm(mu - matrix @ x) <= 1e-15
    assert ontomodel._mixture_verdict(matrix, mu, x) is True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cone_problems(), st.data())
def test_flipping_one_sign_of_x_fails_reverification(problem, data):
    """x is the verifier's only certificate input; a draw with x = 0 has no
    sign to flip."""
    matrix, mu = problem
    x = solve(matrix, mu)
    if ontomodel._mixture_verdict(matrix, mu, x) is None or not x.any():
        return
    j = data.draw(st.sampled_from(np.flatnonzero(x).tolist()))
    bad = x.copy()
    bad[j] = -bad[j]
    assert ontomodel._mixture_verdict(matrix, mu, bad) is None


def edge_model(delta):
    """Two eigenstate preparations and ``edge``, at distance delta sqrt 2
    from their cone."""
    return FiniteOntModel(
        atoms=3,
        preparations={
            "e0": np.array([1.0, 0.0, 0.0]),
            "e1": np.array([0.0, 0.5, 0.5]),
            "edge": np.array([0.0, 0.5 + delta, 0.5 - delta]),
        },
        responses={"macro": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])},
        outcome_labels={"macro": ("q+", "q-")},
        macro_measurement="macro",
        eigenstate_preps={"q+": ("e0",), "q-": ("e1",)},
    )


EDGE_FRAGMENT = qubit_fragment({"up": (0.0, 0.0, 1.0)}, {"macro": (0.0, 0.0, 1.0)})


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
def test_near_the_tolerance_the_residual_of_the_optimum_decides(side):
    """A preparation at distance (1 +- 5e-4) MIXTURE_RESIDUAL_TOL from the
    eigenstate cone, far below where a Farkas bound could certify it is
    not a mixture, gets the verdict of the residual |mu - E x| of its
    verified optimum x: a mixture just below the tolerance, none just
    above, as scipy's residual says too."""
    model = edge_model(MIXTURE_RESIDUAL_TOL * (1.0 + side * 5e-4) / math.sqrt(2.0))
    matrix, mu = eigen_matrix(model), model.preparation("edge")
    x = solve(matrix, mu)
    assert ontomodel._mixture_verdict(matrix, mu, x) is (side < 0)
    verdict = classify(model, EDGE_FRAGMENT)
    assert verdict.kind == ("EMMR" if side < 0 else "ESMR")
    assert verdict.evidence["max_mixture_residual"] == float(np.linalg.norm(mu - matrix @ x))
    assert ("worst_mixture" in verdict.evidence) is (side > 0)
    assert agrees_with_the_oracle(verdict, model, EDGE_FRAGMENT)


def test_an_x_past_the_optimum_certifies_nothing():
    """With E = I and mu = (1/2, 1/2), x = 2 mu overshoots: r = -mu, so
    matrix.T @ r <= 0 and no column could lower |r|, yet x.(matrix.T @ r)
    = -1/2 breaks complementary slackness. x is no optimum, and the
    verifier gives no verdict where |r| alone would say "not a mixture"."""
    matrix = np.eye(2)
    mu = np.array([0.5, 0.5])
    assert ontomodel._mixture_verdict(matrix, mu, mu) is True
    assert (matrix.T @ (mu - matrix @ (2 * mu)) <= 0.0).all()
    assert ontomodel._mixture_verdict(matrix, mu, 2 * mu) is None


def test_an_nnls_that_stops_short_certifies_nothing(monkeypatch, tmp_path, capsys):
    """When the least-squares solve fails, ``_nnls`` returns the x it has,
    here x = 0, which is no optimum: for the first preparation, the
    eigenstate ``e0`` itself, it certifies nothing, so ``classify`` raises
    ``CertificationError`` naming it, where |mu - E x| = 1 alone would say
    "not a mixture", and the ``classify`` command exits 1 with one
    ``certification failure`` line and no output."""
    model = edge_model(1e-3)
    matrix, mu = eigen_matrix(model), model.preparation("e0")
    model_path, fragment_path = tmp_path / "model.json", tmp_path / "fragment.json"
    model_path.write_text(dumps_json(model_to_json(model)))
    fragment_path.write_text(dumps_json(fragment_to_json(EDGE_FRAGMENT)))

    def unsolved(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", unsolved)
    x = solve(matrix, mu)
    assert not x.any()
    assert ontomodel._mixture_verdict(matrix, mu, x) is None
    with pytest.raises(CertificationError, match="'e0'"):
        classify(model, EDGE_FRAGMENT)
    code = run(["classify", "--model", str(model_path), "--fragment", str(fragment_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("certification failure: preparation 'e0'") and err.count("\n") == 1


def _zoo_models(grid):
    std = standard_qubit_fragment()
    det_fragment = qubit_fragment(
        {name: tuple(bloch_vector(s)) for name, s in std.states.items()},
        {"macro": (0.0, 0.0, 1.0)},
    )
    return [
        (kochen_specker_model(grid, std), std),
        (beltrametti_bugajski_model(std), std),
        (deterministic_extension_model(det_fragment), det_fragment),
        emmr_toy_model(math.pi / 3),
    ]


@pytest.mark.parametrize("nodes", [2_000, 20_000])
def test_every_zoo_preparation_gets_scipys_verdict_with_a_certificate(nodes, big_grid):
    grid = big_grid if nodes == big_grid.node_count else fibonacci_sphere_grid(nodes)
    for model, fragment in _zoo_models(grid):
        matrix = eigen_matrix(model)
        for mu in model.preparations.values():
            verdict = ontomodel._mixture_verdict(matrix, mu, solve(matrix, mu))
            assert verdict is bool(nnls(matrix, mu)[1] <= MIXTURE_RESIDUAL_TOL)
        assert classify(model, fragment).kind == support_index_classify(model, fragment).kind


@pytest.fixture
def solved(monkeypatch):
    """The preparations ``ontomodel._nnls`` is asked to solve, in order,
    each with the x it returned."""
    asked = []
    real = ontomodel._nnls

    def counting(q, r, mu):
        x = real(q, r, mu)
        asked.append((mu, x))
        return x

    monkeypatch.setattr(ontomodel, "_nnls", counting)
    return asked


def test_classify_asks_condition_b_only_until_the_first_non_mixture(solved, big_grid):
    """No NNLS where (a) fails (bb, det), every preparation on the toy
    model, whose preparations are all mixtures, and on the cap model the
    two eigenstates and then the first state."""
    counts = []
    for model, fragment in _zoo_models(big_grid):
        solved.clear()
        classify(model, fragment)
        first = list(model.preparations)[:len(solved)]
        assert all(mu is model.preparation(name) for (mu, _), name in zip(solved, first))
        counts.append(len(solved))
    assert counts == [3, 0, 0, 3]


def test_the_evidence_solves_every_preparation_to_the_bits_of_the_kind(solved, big_grid):
    """The first read of the evidence runs the NNLS on every preparation
    exactly once, in registration order, those the kind reached included,
    and each x the kind solved is bit for bit the evidence's x."""
    for model, fragment in _zoo_models(big_grid):
        solved.clear()
        verdict = classify(model, fragment)
        kind_path = list(solved)
        solved.clear()
        verdict.evidence
        assert len(solved) == len(model.preparations)
        assert all(mu is model.preparation(name) for (mu, _), name in zip(solved, model.preparations))
        assert all(x.tobytes() == again.tobytes()
                   for (_, x), (_, again) in zip(kind_path, solved))


# E with columns 0 and 4 equal, where scipy's rnorm falls below |E x - mu|
DEPENDENT_CASE = (
    np.array([[2, 0, 3, 2, 2, 2], [2, 0, 0, 1, 2, 1], [3, 4, 4, 2, 3, 0], [3, 0, 1, 4, 3, 2]]) / 3.0,
    np.array([0.0, 3.0, 0.0, 3.0]) / 7.0,
)


def test_on_dependent_columns_the_printed_residual_is_that_of_x_not_scipys_rnorm():
    """The evidence prints |mu - E x| for the NNLS x the verifier checks,
    0.40657855630736306, where scipy's rnorm reads 0.4055706491861664,
    below the residual 0.40700047171339393 of scipy's own x."""
    matrix, mu = DEPENDENT_CASE
    evidence = ontomodel._mixture_evidence({"mu": mu}, matrix)
    residual = float(np.linalg.norm(mu - matrix @ solve(matrix, mu)))
    assert tree_bits(evidence) == tree_bits({"worst_mixture": {"preparation": "mu",
                                                               "residual": residual},
                                             "max_mixture_residual": residual})
    scipy_x, rnorm = nnls(matrix, mu)
    assert rnorm < residual < float(np.linalg.norm(mu - matrix @ scipy_x))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cone_problems())
def test_the_printed_residual_is_the_residual_of_x_on_drawn_cones(problem):
    """Bit for bit, and of two equal preparations the first is the worst,
    named only above the tolerance."""
    matrix, mu = problem
    residual = float(np.linalg.norm(mu - matrix @ solve(matrix, mu)))
    want = ({"worst_mixture": {"preparation": "a", "residual": residual}}
            if residual > MIXTURE_RESIDUAL_TOL else {})
    want["max_mixture_residual"] = residual
    evidence = ontomodel._mixture_evidence({"a": mu, "b": mu.copy()}, matrix)
    assert tree_bits(evidence) == tree_bits(want)


@pytest.mark.parametrize("nodes", [2_000, 20_000])
def test_the_printed_residual_is_the_residual_of_the_printed_x(nodes, big_grid):
    """On every zoo model the evidence prints |mu - E x| for the NNLS x the
    verifier checks, bit for bit, and the first preparation with the
    largest."""
    grid = big_grid if nodes == big_grid.node_count else fibonacci_sphere_grid(nodes)
    for model, fragment in _zoo_models(grid):
        evidence = classify(model, fragment).evidence
        assert (tree_bits({k: evidence[k] for k in evidence if k in MIXTURE_KEYS})
                == tree_bits(residuals_of_x(model)))
