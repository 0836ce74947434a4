import numpy as np
import pytest

from macroreal import (
    Bindings,
    FiniteOntModel,
    asymmetric_overlap,
    classify,
    kernel_set,
    predict,
    push_forward,
    support,
    validate,
)
from macroreal.ontomodel import default_bindings
from helpers import (
    brute_force_overlap,
    eigensplit_model,
    macro_only_fragment,
    random_fragment,
    split_state_model,
)


def tiny_model(**overrides) -> FiniteOntModel:
    base = dict(
        atoms=3,
        preparations={
            "point0": np.array([1.0, 0.0, 0.0]),
            "mu": np.array([0.2, 0.3, 0.5]),
            "nu": np.array([0.0, 0.5, 0.5]),
        },
        responses={"macro": np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])},
        outcome_labels={"macro": ("q0", "q1")},
        macro_measurement="macro",
        eigenstate_preps={},
        maps={
            "identity": np.eye(3),
            "cycle": np.array([1, 2, 0]),
            "mix": np.full((3, 3), 1.0 / 3.0),
        },
    )
    base.update(overrides)
    return FiniteOntModel(**base)


# -- construction invariants ---------------------------------------------------

def test_rejects_unnormalized_preparation():
    with pytest.raises(ValueError, match="preparation"):
        tiny_model(preparations={"bad": np.array([0.5, 0.2, 0.2])})


def test_rejects_nonstochastic_response():
    with pytest.raises(ValueError, match="columns not stochastic"):
        tiny_model(responses={"macro": np.array([[1.0, 1.0, 0.0], [0.1, 0.0, 1.0]])})


def test_rejects_uncertain_eigenstate_declaration():
    with pytest.raises(ValueError, match="probability"):
        tiny_model(eigenstate_preps={"q0": ("mu",)})
    model = tiny_model(eigenstate_preps={"q0": ("point0",)})
    assert model.eigenstate_preps["q0"] == ("point0",)


def test_rejects_bad_map():
    with pytest.raises(ValueError, match="map"):
        tiny_model(maps={"bad": np.array([[0.5, 0, 0], [0.5, 1, 0], [0.1, 0, 1.0]])})


# -- predict / push_forward ------------------------------------------------------

def test_predict_point_mass_reads_response_column():
    model = tiny_model()
    assert np.allclose(predict(model, "point0", "macro"), [1.0, 0.0], atol=1e-12)


def test_predict_uniform_two_atoms_opposite_responses():
    model = FiniteOntModel(
        atoms=2,
        preparations={"mix": np.array([0.5, 0.5])},
        responses={"macro": np.eye(2)},
        outcome_labels={"macro": ("q0", "q1")},
        macro_measurement="macro",
    )
    assert np.allclose(predict(model, "mix", "macro"), [0.5, 0.5], atol=1e-12)


def test_predict_unknown_names():
    model = tiny_model()
    with pytest.raises(ValueError):
        predict(model, "nope", "macro")
    with pytest.raises(ValueError):
        predict(model, "mu", "nope")


def test_push_forward_identity_permutation_and_mixing():
    model = tiny_model()
    assert np.allclose(push_forward(model, "mu", "identity"), [0.2, 0.3, 0.5])
    assert np.allclose(push_forward(model, "point0", "cycle"), [0.0, 1.0, 0.0])
    assert np.allclose(push_forward(model, "point0", "mix"), np.full(3, 1 / 3))


def test_push_forward_registration_closure():
    model = tiny_model()
    nu = push_forward(model, "mu", "cycle")
    bigger = model.with_preparation("mu_after_cycle", nu)
    assert np.allclose(predict(bigger, "mu_after_cycle", "macro"),
                       bigger.responses["macro"] @ nu, atol=1e-12)
    with pytest.raises(ValueError):
        bigger.with_preparation("mu_after_cycle", nu)


# -- validate ---------------------------------------------------------------------

def test_validate_exact_split_model():
    rng = np.random.default_rng(3)
    frag = random_fragment(rng, 3)
    model = split_state_model(rng, frag)
    report = validate(model, frag, default_bindings(model, frag), tol=1e-9)
    assert report.passed
    assert report.max_deviation <= 1e-12


def test_validate_names_offending_pair():
    rng = np.random.default_rng(4)
    frag = random_fragment(rng, 2)
    model = split_state_model(rng, frag)
    # corrupt one response column (stays stochastic, wrong statistics)
    responses = {m: r.copy() for m, r in model.responses.items()}
    bad = responses["macro"]
    bad[:, 0] = bad[::-1, 0]
    corrupted = FiniteOntModel(
        atoms=model.atoms,
        preparations=model.preparations,
        responses=responses,
        outcome_labels=model.outcome_labels,
        macro_measurement=model.macro_measurement,
        eigenstate_preps={},
        maps={},
        delta_sets=model.delta_sets,
    )
    report = validate(corrupted, frag, default_bindings(corrupted, frag), tol=1e-9)
    assert not report.passed
    prep, meas = report.worst_pair
    assert meas == "macro"


def test_validate_single_deterministic_pair():
    model = tiny_model(eigenstate_preps={"q0": ("point0",)})
    frag = macro_only_fragment(np.random.default_rng(0), 2)
    bindings = Bindings(
        preparations={"point0": "e0"},
        measurements={"macro": "macro"},
        pairs=(("point0", "macro"),),
    )
    report = validate(model, frag, bindings, tol=1e-12)
    assert report.passed and report.max_deviation == 0.0


# -- kernel sets -------------------------------------------------------------------

def test_kernel_set_all_ones():
    mu = np.array([0.25, 0.25, 0.5])
    k = kernel_set(np.ones(3), mu)
    assert list(k) == [0, 1, 2]
    assert mu[k].sum() == pytest.approx(1.0, abs=1e-12)


def test_kernel_set_point_mass():
    mu = np.array([0.0, 1.0, 0.0])
    f = np.array([0.5, 1.0, 0.5])
    k = kernel_set(f, mu)
    assert list(k) == [1]
    assert mu[k].sum() == pytest.approx(1.0, abs=1e-10)


def test_kernel_set_rejects_mismatched_measure():
    with pytest.raises(ValueError, match="shape"):
        kernel_set(np.ones(3), np.array([0.5, 0.5]))


def test_kernel_lemma_forced_construction():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(3, 12))
        mu = rng.dirichlet(np.ones(int(rng.integers(2, n + 1))) * 0.6, size=1)[0]
        mu = np.concatenate([mu, np.zeros(n - mu.size)])
        rng.shuffle(mu)
        f = rng.uniform(0.0, 1.0, size=n)
        f[support(mu)] = 1.0   # forces sum mu f = 1
        assert abs(mu @ f - 1.0) < 1e-12
        k = kernel_set(f, mu)
        assert mu[k].sum() >= 1.0 - 1e-10


# -- asymmetric overlap --------------------------------------------------------------

def test_overlap_self_is_one():
    model = tiny_model()
    assert asymmetric_overlap(model, "mu", "mu").value == pytest.approx(1.0, abs=1e-12)


def test_overlap_disjoint_supports():
    model = FiniteOntModel(
        atoms=4,
        preparations={
            "left": np.array([0.5, 0.5, 0.0, 0.0]),
            "right": np.array([0.0, 0.0, 0.3, 0.7]),
        },
        responses={"macro": np.array([[1.0, 1, 0, 0], [0.0, 0, 1, 1]])},
        outcome_labels={"macro": ("q0", "q1")},
        macro_measurement="macro",
    )
    report = asymmetric_overlap(model, "left", "right")
    assert report.value == 0.0
    assert set(report.realizing_set) == {2, 3}


def test_overlap_three_atom_example_matches_brute_force():
    model = tiny_model()
    report = asymmetric_overlap(model, "mu", "nu")
    assert report.value == pytest.approx(0.8, abs=1e-12)
    assert report.value == pytest.approx(brute_force_overlap(model, "mu", "nu"), abs=1e-12)


def test_overlap_multi_target_union_vs_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = 6
        preps = {
            name: rng.dirichlet(np.ones(n) * 0.4)
            for name in ("mu", "a", "b")
        }
        model = FiniteOntModel(
            atoms=n,
            preparations=preps,
            responses={"macro": np.ones((1, n))},
            outcome_labels={"macro": ("q0",)},
            macro_measurement="macro",
        )
        got = asymmetric_overlap(model, "mu", ("a", "b")).value
        want = brute_force_overlap(model, "mu", ("a", "b"))
        assert got == pytest.approx(want, abs=1e-12)


def test_realizing_set_is_read_only_ascending_union_of_supports():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        preps = {}
        for name in ("mu", "a", "b", "c"):
            w = rng.dirichlet(np.ones(n))
            w[rng.random(n) < 0.5] = 0.0
            w[int(rng.integers(n))] += 0.1
            preps[name] = w / w.sum()
        model = FiniteOntModel(
            atoms=n,
            preparations=preps,
            responses={"macro": np.ones((1, n))},
            outcome_labels={"macro": ("q0",)},
            macro_measurement="macro",
        )
        report = asymmetric_overlap(model, "mu", ("a", "c"))
        union = sorted({i for t in ("a", "c") for i in range(n) if preps[t][i] > 1e-12})
        got = report.realizing_set
        assert isinstance(got, np.ndarray)
        assert np.issubdtype(got.dtype, np.integer)
        assert not got.flags.writeable
        assert got.tolist() == union
        assert report.value == pytest.approx(preps["mu"][union].sum(), abs=1e-15)


def test_overlap_unknown_target_errors():
    model = tiny_model()
    with pytest.raises(ValueError, match="target"):
        asymmetric_overlap(model, "mu", "ghost")


# -- classification -------------------------------------------------------------------

def test_classify_requires_full_declarations():
    model = tiny_model(eigenstate_preps={"q0": ("point0",)})
    with pytest.raises(ValueError, match="q1"):
        classify(model)


def test_classify_emmr_and_esmr_families():
    rng = np.random.default_rng(21)
    frag = macro_only_fragment(rng, 3)
    emmr = eigensplit_model(rng, frag, mixture_only=True)
    esmr = eigensplit_model(rng, frag, mixture_only=False)
    assert validate(emmr, frag, default_bindings(emmr, frag), tol=1e-9).passed
    assert validate(esmr, frag, default_bindings(esmr, frag), tol=1e-9).passed
    assert classify(emmr, frag).kind == "EMMR"
    verdict = classify(esmr, frag)
    assert verdict.kind == "ESMR"
    assert verdict.evidence["max_mixture_residual"] > 1e-6


def test_classify_evidence_names_first_violations():
    # A = {0, 1}; "mixed" is the first preparation leaving it (atom 2), and
    # atom 3 is the carried atom with the least deterministic macro answer.
    # Atom 4 answers less deterministically still but no preparation carries it.
    model = FiniteOntModel(
        atoms=5,
        preparations={
            "eig0": np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
            "eig1": np.array([0.0, 1.0, 0.0, 0.0, 0.0]),
            "mixed": np.array([0.5, 0.0, 0.2, 0.3, 0.0]),
            "other": np.array([0.0, 0.0, 0.0, 1.0, 0.0]),
        },
        responses={"macro": np.array([[1.0, 0.0, 1.0, 0.6, 0.5], [0.0, 1.0, 0.0, 0.4, 0.5]])},
        outcome_labels={"macro": ("q0", "q1")},
        macro_measurement="macro",
        eigenstate_preps={"q0": ("eig0",), "q1": ("eig1",)},
    )
    verdict = classify(model)
    assert verdict.kind == "NONE"
    assert verdict.evidence["eigenstate_atoms"] == 2
    assert verdict.evidence["support_violation"] == {"preparation": "mixed", "atom": 2, "weight": 0.2}
    assert verdict.evidence["nondeterministic_atom"] == {"atom": 3, "max_response": 0.6}
