"""The NNLS behind ``classify``'s condition (b), against scipy's ``nnls``.

``ontomodel._nnls`` solves min |E x - mu| over x >= 0 by Lawson and
Hanson's active-set method on the normal form, and
``ontomodel._mixture_verdict`` re-verifies its pair (x, r): x certifies a
mixture, r a Farkas certificate that mu is not one, or neither, inside the
band around ``MIXTURE_RESIDUAL_TOL`` where scipy decides. Hypothesis draws
nonnegative E with k = 1..6 columns, repeated and zero columns among them,
and mu inside or outside their cone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

import macroreal.ontomodel as ontomodel
from macroreal import (
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
from macroreal.ontomodel import MIXTURE_BAND, MIXTURE_RESIDUAL_TOL, NNLS_ROUNDING
from helpers import support_memo_classify

# small whole numbers over a common denominator: columns that repeat, vanish
# or depend on each other without the conditioning that would make any
# normal-form solver's residual differ from scipy's by more than 1e-12 |mu|
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
    return ontomodel._nnls(matrix, matrix.T @ matrix, mu)


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
    x, r = solve(matrix, mu)
    ours, scale = float(np.linalg.norm(r)), 1e-12 * float(np.linalg.norm(mu))
    scipy_x, rnorm = nnls(matrix, mu)
    distinct = distinct_columns(matrix)
    if not distinct.size:
        assert ours == np.linalg.norm(mu)
    elif np.linalg.matrix_rank(distinct) == distinct.shape[1]:
        oracle = rnorm if distinct.shape[1] == matrix.shape[1] else nnls(distinct, mu)[1]
        assert abs(ours - oracle) <= scale
    else:
        assert ours <= np.linalg.norm(mu - matrix @ scipy_x) + scale
    if abs(ours - MIXTURE_RESIDUAL_TOL) > 2 * MIXTURE_BAND * MIXTURE_RESIDUAL_TOL:
        expected = bool(rnorm <= MIXTURE_RESIDUAL_TOL)
        assert ontomodel._mixture_verdict(matrix, mu, x, r) is expected
        # x = 0 with its residual mu is a pair as well, not an optimal one:
        # it may certify nothing but the true verdict
        assert ontomodel._mixture_verdict(matrix, mu, np.zeros_like(x), mu) in (None, expected)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cone_problems(), st.data())
def test_flipping_one_sign_of_x_or_r_fails_reverification(problem, data):
    matrix, mu = problem
    x, r = solve(matrix, mu)
    if ontomodel._mixture_verdict(matrix, mu, x, r) is None:
        return
    flipped = False
    if x.any():
        j = data.draw(st.sampled_from(np.flatnonzero(x).tolist()))
        bad = x.copy()
        bad[j] = -bad[j]
        assert ontomodel._mixture_verdict(matrix, mu, bad, r) is None
        flipped = True
    # a flip smaller than the rounding allowance is rounding, not a change
    big = np.flatnonzero(2.0 * np.abs(r) > NNLS_ROUNDING * np.linalg.norm(mu))
    if big.size:
        i = data.draw(st.sampled_from(big.tolist()))
        bad = r.copy()
        bad[i] = -bad[i]
        assert ontomodel._mixture_verdict(matrix, mu, x, bad) is None
        flipped = True
    assert flipped or not mu.any()


def test_inside_the_band_scipy_decides():
    """A preparation at distance MIXTURE_RESIDUAL_TOL from the eigenstate
    cone gets no certified verdict, and classify's kind is the one scipy's
    residual gives."""
    delta = MIXTURE_RESIDUAL_TOL / math.sqrt(2.0)
    model = FiniteOntModel(
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
    matrix = np.column_stack([model.preparation("e0"), model.preparation("e1")])
    mu = model.preparation("edge")
    assert ontomodel._mixture_verdict(matrix, mu, *solve(matrix, mu)) is None
    fragment = qubit_fragment({"up": (0.0, 0.0, 1.0)}, {"macro": (0.0, 0.0, 1.0)})
    assert classify(model, fragment) == support_memo_classify(model, fragment)


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
        names = [p for q in model.outcome_labels[model.macro_measurement]
                 for p in model.eigenstate_preps[q]]
        matrix = np.column_stack([model.preparation(p) for p in names])
        for mu in model.preparations.values():
            verdict = ontomodel._mixture_verdict(matrix, mu, *solve(matrix, mu))
            assert verdict is bool(nnls(matrix, mu)[1] <= MIXTURE_RESIDUAL_TOL)
        assert classify(model, fragment).kind == support_memo_classify(model, fragment).kind


def test_classify_asks_condition_b_only_until_the_first_non_mixture(monkeypatch, big_grid):
    """No NNLS where (a) fails (bb, det), every preparation on the toy
    model, whose preparations are all mixtures, and on the cap model the
    two eigenstates and then the first state."""
    solved = []
    real = ontomodel._nnls

    def counting(matrix, gram, mu):
        solved.append(mu)
        return real(matrix, gram, mu)

    monkeypatch.setattr(ontomodel, "_nnls", counting)
    counts = []
    for model, fragment in _zoo_models(big_grid):
        solved.clear()
        classify(model, fragment)
        first = list(model.preparations)[:len(solved)]
        assert all(a is model.preparation(name) for a, name in zip(solved, first))
        counts.append(len(solved))
    assert counts == [3, 0, 0, 3]
