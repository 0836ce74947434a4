import math
import re

import numpy as np
import pytest

from macroreal import (
    Bindings,
    Classification,
    FiniteOntModel,
    asymmetric_overlap,
    beltrametti_bugajski_model,
    bloch_vector,
    classify,
    deterministic_extension_model,
    emmr_toy_model,
    fibonacci_sphere_grid,
    kernel_set,
    kochen_specker_model,
    predict,
    push_forward,
    qubit_fragment,
    standard_qubit_fragment,
    support,
    validate,
)
from macroreal.ontomodel import default_bindings
from helpers import (
    brute_force_overlap,
    eigensplit_model,
    macro_only_fragment,
    product_model,
    random_fragment,
    split_state_model,
    support_memo_classify,
    tree_bits,
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


def test_rejects_preparation_of_wrong_length():
    with pytest.raises(ValueError, match="preparation 'short': expected shape"):
        tiny_model(preparations={"short": np.array([0.5, 0.5])})


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


@pytest.mark.parametrize(("overrides", "words"), [
    ({"preparations": {"bad": np.array([np.nan, 0.5, 0.5])}}, "preparation 'bad'"),
    ({"responses": {"macro": np.array([[1.0, np.nan, 0.0], [0.0, 0.0, 1.0]])}},
     "response 'macro'"),
    ({"maps": {"bad": np.where(np.eye(3) == 1, np.nan, 0.0)}}, "map 'bad'"),
    ({"maps": {"bad": np.array([1.0, np.nan, 0.0])}}, "map 'bad'"),
], ids=["preparation", "response", "dense-map", "deterministic-map"])
def test_rejects_nan_entries(overrides, words):
    with pytest.raises(ValueError, match=words):
        tiny_model(**overrides)


def test_rejects_deterministic_targets_that_are_not_whole_numbers():
    with pytest.raises(ValueError, match="bad deterministic target array"):
        tiny_model(maps={"bad": np.array([0.7, 1.2, 2.0])})
    assert tiny_model(maps={"ok": np.array([1.0, 2.0, 0.0])}).maps["ok"].tolist() == [1, 2, 0]


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


def test_with_preparation_checks_the_new_vector_and_keeps_the_original():
    model = tiny_model(delta_sets={"s": ("mu",)})
    with pytest.raises(ValueError, match="preparation 'bad'"):
        model.with_preparation("bad", np.array([0.5, 0.2, 0.2]))
    bigger = model.with_preparation("nu2", [0.0, 0.5, 0.5], delta_of="s")
    assert bigger.delta_sets["s"] == ("mu", "nu2")
    assert not bigger.preparations["nu2"].flags.writeable
    assert "nu2" not in model.preparations and model.delta_sets["s"] == ("mu",)


def test_models_compare_and_hash_by_identity():
    a, b = tiny_model(), tiny_model()
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert hash(a) == hash(a)
    assert len({a, b, a.with_preparation("extra", [0.0, 0.0, 1.0])}) == 3


# -- memoized supports --------------------------------------------------------------

@pytest.fixture(scope="module")
def zoo_models() -> dict:
    return {kind: model for kind, (model, _) in _zoo_cases().items()}


def _zoo_cases() -> dict:
    """Fresh bb, det, emmr-toy and 2 000-node cap models, their support
    memos empty, each with its fragment."""
    std = standard_qubit_fragment()
    det_fragment = qubit_fragment(
        {name: tuple(bloch_vector(s)) for name, s in std.states.items()},
        {"macro": (0.0, 0.0, 1.0)},
    )
    cap_fragment = qubit_fragment(
        {"up": (0, 0, 1.0), "down": (0, 0, -1.0), "oblique": (0.6, 0.0, 0.8)},
        {"macro": (0, 0, 1.0), "tilted": (0.8, 0.0, 0.6)},
        rotations={"step": ((0.0, 1.0, 0.0), 0.7)},
    )
    return {
        "bb": (beltrametti_bugajski_model(std), std),
        "det": (deterministic_extension_model(det_fragment), det_fragment),
        "emmr-toy": emmr_toy_model(math.pi / 3),
        "cap2000": (kochen_specker_model(fibonacci_sphere_grid(2000), cap_fragment), cap_fragment),
    }


@pytest.mark.parametrize("kind", ["bb", "det", "emmr-toy", "cap2000"])
def test_model_support_is_the_read_only_support_of_the_preparation(zoo_models, kind):
    model = zoo_models[kind]
    for name in model.preparations:
        got = model.support(name)
        assert not got.flags.writeable
        assert np.array_equal(got, support(model.preparation(name)))
        assert model.support(name) is got
    with pytest.raises(ValueError, match="unknown preparation"):
        model.support("ghost")


def test_with_preparation_leaves_the_parent_memo_alone():
    model = tiny_model()
    before = {name: model.support(name) for name in model.preparations}
    bigger = model.with_preparation("edge", [0.0, 0.0, 1.0])
    assert bigger.support("edge").tolist() == [2]
    assert bigger.support("mu") is before["mu"]
    assert model._supports.keys() == before.keys()
    assert all(model.support(name) is atoms for name, atoms in before.items())
    with pytest.raises(ValueError, match="unknown preparation 'edge'"):
        model.support("edge")


def test_sibling_models_keep_their_own_supports():
    model = tiny_model(delta_sets={"s": ("nu",)})
    model.support("mu")
    left = model.with_preparation("new", [1.0, 0.0, 0.0], delta_of="s")
    right = model.with_preparation("new", [0.0, 0.5, 0.5], delta_of="s")
    assert left.support("new").tolist() == [0]
    assert right.support("new").tolist() == [1, 2]
    assert asymmetric_overlap(left, "mu", "new").realizing_set.tolist() == [0]
    assert asymmetric_overlap(right, "mu", "new").realizing_set.tolist() == [1, 2]
    assert asymmetric_overlap(left, "mu", "s").realizing_set.tolist() == [0, 1, 2]
    assert asymmetric_overlap(right, "mu", "s").realizing_set.tolist() == [1, 2]


def test_memoized_overlaps_match_brute_force_on_small_zoo_models():
    frag = qubit_fragment(
        {
            "up": (0, 0, 1.0),
            "down": (0, 0, -1.0),
            "plus_x": (1.0, 0, 0),
            "skew": (0.6, 0.48, 0.64),
        },
        {"macro": (0, 0, 1.0)},
    )
    models = [
        beltrametti_bugajski_model(frag),
        deterministic_extension_model(frag),
        emmr_toy_model(math.pi / 3)[0],
    ]
    for model in models:
        names = list(model.preparations)
        targets = names + [(a, b) for a in names for b in names] + list(model.eigenstate_preps)
        for mu in names:
            for target in targets:
                got = asymmetric_overlap(model, mu, target)
                assert got.value == pytest.approx(brute_force_overlap(model, mu, target), abs=1e-12)
                resolved = (target,) if isinstance(target, str) else target
                union = sorted({
                    int(i) for t in resolved for p in model.target_preparations(t)
                    for i in support(model.preparation(p))
                })
                assert got.realizing_set.tolist() == union
                assert not got.realizing_set.flags.writeable


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


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, -1.0, -1e-300])
def test_validate_rejects_a_tol_that_is_not_finite_and_nonnegative(tol):
    model = tiny_model(eigenstate_preps={"q0": ("point0",)})
    frag = macro_only_fragment(np.random.default_rng(0), 2)
    bindings = Bindings({"point0": "e0"}, {"macro": "macro"}, (("point0", "macro"),))
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        validate(model, frag, bindings, tol=tol)
    assert validate(model, frag, bindings, tol=0.0).passed


@pytest.mark.parametrize(("bindings", "message"), [
    (Bindings({"point0": "e0"}, {"macro": "macro"}, (("ghost", "macro"),)),
     "pair references unbound preparation 'ghost'"),
    (Bindings({"point0": "e0"}, {"macro": "macro"}, (("point0", "ghost"),)),
     "pair references unbound measurement 'ghost'"),
    (Bindings({"point0": "e0"}, {"m3": "macro"}),
     "outcome count mismatch for pair ('point0', 'm3'): (3,) vs (2,)"),
    (Bindings({"point0": "e0"}, {"macro": "macro"}, ()), "bindings produce no pairs to validate"),
], ids=["unbound-preparation", "unbound-measurement", "outcome-count", "no-pairs"])
def test_validate_refuses_malformed_bindings(bindings, message):
    model = tiny_model(
        responses={"macro": np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "m3": np.eye(3)},
        outcome_labels={"macro": ("q0", "q1"), "m3": ("a", "b", "c")},
    )
    frag = macro_only_fragment(np.random.default_rng(0), 2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        validate(model, frag, bindings, tol=1e-9)


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


def test_kernel_set_rejects_nan_entries():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        kernel_set(np.array([np.nan, 1.0]), np.array([0.5, 0.5]))


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
        classify(model, macro_only_fragment(np.random.default_rng(0), 2))


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
    # In the second case only "other", registered after "mixed", carries atom 3,
    # so the carried set must not stop at the first violation.
    for mixed in ([0.5, 0.0, 0.2, 0.3, 0.0], [0.5, 0.0, 0.5, 0.0, 0.0]):
        model = FiniteOntModel(
            atoms=5,
            preparations={
                "eig0": np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
                "eig1": np.array([0.0, 1.0, 0.0, 0.0, 0.0]),
                "mixed": np.array(mixed),
                "other": np.array([0.0, 0.0, 0.0, 1.0, 0.0]),
            },
            responses={"macro": np.array([[1.0, 0.0, 1.0, 0.6, 0.5], [0.0, 1.0, 0.0, 0.4, 0.5]])},
            outcome_labels={"macro": ("q0", "q1")},
            macro_measurement="macro",
            eigenstate_preps={"q0": ("eig0",), "q1": ("eig1",)},
        )
        verdict = classify(model, macro_only_fragment(np.random.default_rng(0), 2))
        assert verdict.kind == "NONE"
        assert verdict.evidence["eigenstate_atoms"] == 2
        assert verdict.evidence["support_violation"] == {
            "preparation": "mixed", "atom": 2, "weight": mixed[2],
        }
        assert verdict.evidence["nondeterministic_atom"] == {"atom": 3, "max_response": 0.6}


def _classify_cases() -> list:
    """(model, fragment) pairs: the zoo models and seeded random models of
    each helper family."""
    cases = list(_zoo_cases().values())
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        frag = random_fragment(rng, 2 + seed % 3)
        cases += [(split_state_model(rng, frag), frag), (product_model(frag), frag)]
        macro_frag = macro_only_fragment(rng, 2 + seed % 3)
        for mixture_only in (True, False):
            cases.append((eigensplit_model(rng, macro_frag, mixture_only), macro_frag))
    return cases


def test_classify_matches_the_support_memo_form():
    """Testing weights against SUPPORT_EPS gives the verdict and evidence of
    reading each support through the memo, bit for bit."""
    cases = _classify_cases()
    kinds = set()
    for model, frag in cases:
        if not all(q in model.eigenstate_preps for q in model.outcome_labels[model.macro_measurement]):
            continue
        got = classify(model, frag)
        want = support_memo_classify(model, frag)
        assert got == want
        assert tree_bits(got.evidence) == tree_bits(want.evidence)
        kinds.add(got.kind)
    assert kinds == {"EMMR", "ESMR", "SSMR", "NONE"}


def test_classification_is_read_only_and_compares_by_kind_and_evidence():
    model, frag = _zoo_cases()["emmr-toy"]
    verdict = classify(model, frag)
    with pytest.raises(AttributeError):
        verdict.kind = "NONE"
    assert verdict == Classification("EMMR", dict(verdict.evidence))
    assert verdict != Classification("NONE", verdict.evidence)
    assert repr(verdict) == f"Classification(kind='EMMR', evidence={verdict.evidence!r})"


def test_classify_leaves_the_support_memo_as_it_found_it():
    """On fresh models, with one support read before: classify neither
    adds to the memo nor replaces what it holds."""
    for model, frag in _zoo_cases().values():
        first = next(iter(model.preparations))
        before = {first: model.support(first)}
        classify(model, frag)
        assert model._supports == before
        assert model._supports[first] is before[first]
