import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macroreal import (
    Bindings,
    SphereGrid,
    beltrametti_bugajski_model,
    bloch_vector,
    classify,
    deterministic_extension_model,
    emmr_toy_model,
    fibonacci_sphere_grid,
    kochen_specker_model,
    paired_validation_grid,
    predict,
    push_forward,
    qubit_fragment,
    rotation_unitary,
    state_from_bloch,
    validate,
)
from macroreal.ontomodel import default_bindings
from macroreal.ontomodel import QuantumFragment
from macroreal.quantum import ProjMeasurement, StateVector, UnitaryMap, computational_measurement
from macroreal.zoo import (
    MAX_GRID_NODES,
    NEAREST_BLOCK,
    orbit_closed_directions,
    rotation_of_unitary,
)

from helpers import cap_model_reference, nearest_reference


def test_grid_invariants():
    grid = fibonacci_sphere_grid(2000)
    assert grid.nodes.shape == (2000, 3) and not grid.nodes.flags.writeable
    assert np.abs(np.linalg.norm(grid.nodes, axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize(("count", "error"), [
    (3, ValueError),
    (MAX_GRID_NODES + 1, ValueError),
    (math.nan, TypeError),
    (2000.0, TypeError),
], ids=["too-few", "past-cap", "nan", "float"])
def test_grid_rejects_bad_node_counts(count, error):
    with pytest.raises(error):
        SphereGrid(count)


def _with_measurement(meas) -> QuantumFragment:
    macro = computational_measurement(2, ("q+", "q-"))
    return QuantumFragment(2, {}, {}, {"macro": macro, "m": meas}, "macro")


ZERO, EYE = np.zeros((2, 2)), np.eye(2)


@pytest.mark.parametrize(("call", "message"), [
    (lambda: bloch_vector(StateVector(np.array([1.0, 0.0, 0.0]))),
     "bloch_vector expects a qubit state"),
    (lambda: rotation_of_unitary(UnitaryMap(np.eye(3))),
     "rotation_of_unitary expects a qubit unitary"),
    (lambda: kochen_specker_model(fibonacci_sphere_grid(20), _with_measurement(
        ProjMeasurement(("a", "b", "c"), np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), ZERO]))
    )), "expected a two-outcome qubit measurement"),
    (lambda: kochen_specker_model(fibonacci_sphere_grid(20), _with_measurement(
        ProjMeasurement(("all", "none"), np.stack([EYE, ZERO]))
    )), "outcome projector is not rank one"),
    (lambda: qubit_fragment({}, {"x": (1.0, 0.0, 0.0)}),
     "measurement_directions must include 'macro'"),
    (lambda: orbit_closed_directions(
        {"a": (1.0, 0.0, 0.0)}, rotation_of_unitary(rotation_unitary((0.0, 1.0, 0.0), 1.0))
    ), "rotation orbit does not close; choose a commensurate angle"),
    (lambda: beltrametti_bugajski_model(qubit_fragment(
        {"up": (0.0, 0.0, 1.0)}, {"macro": (0.0, 0.0, 1.0)},
        {"r": ((0.0, 1.0, 0.0), math.pi / 2)},
    )), "catalogue not closed: 'r' image of 'up' is uncatalogued"),
], ids=["bloch-off-qubit", "rotation-off-qubit", "ks-three-outcomes", "ks-not-rank-one",
        "fragment-without-macro", "open-orbit", "bb-open-catalogue"])
def test_malformed_arguments_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_grid_node_count_is_a_python_int():
    grid = SphereGrid(np.int64(10))
    assert type(grid.node_count) is int and grid.nodes.shape == (10, 3)


def test_grids_compare_and_hash_by_identity():
    a, b = fibonacci_sphere_grid(10), fibonacci_sphere_grid(10)
    assert (a == a) is True and (a == b) is False
    assert len({a, b}) == 2 and hash(a) == hash(a)


def _unit_rows(rng, m):
    points = rng.normal(size=(m, 3))
    return points / np.linalg.norm(points, axis=1)[:, None]


def _brute_nearest(nodes, points):
    """Index of the nearest node to each point by brute force, the squares
    summed dx^2 + dy^2 + dz^2, in chunks of about 2^21 point-node pairs."""
    nx, ny, nz = nodes.T
    found = []
    for chunk in np.array_split(points, max(1, len(points) * len(nodes) >> 21)):
        d = (chunk[:, 0, None] - nx) ** 2
        d += (chunk[:, 1, None] - ny) ** 2
        d += (chunk[:, 2, None] - nz) ** 2
        found.append(d.argmin(axis=1))
    return np.concatenate(found)


def _assert_nearest_matches_oracles(grid, points):
    """``grid.nearest`` equals a fresh cKDTree's answer, and brute force's
    where the grid has at most 2 000 nodes."""
    from scipy.spatial import cKDTree

    got = grid.nearest(points)
    assert np.array_equal(got, cKDTree(grid.nodes).query(points)[1])
    if grid.node_count <= 2000:
        assert np.array_equal(got, _brute_nearest(grid.nodes, points))


def _rotated_nodes(grid, axis, angle):
    return grid.nodes @ rotation_of_unitary(rotation_unitary(axis, angle)).T


AXIS_POINTS = np.vstack([np.eye(3), -np.eye(3)])


def test_nearest_matches_brute_force_and_a_fresh_tree():
    rng = np.random.default_rng(11)
    for n in (4, 5, 13, 2000, 20000):
        grid = fibonacci_sphere_grid(n)
        for _ in range(4):
            _assert_nearest_matches_oracles(
                grid, _rotated_nodes(grid, rng.normal(size=3), float(rng.uniform(0.1, 3.0))))
        _assert_nearest_matches_oracles(grid, _unit_rows(rng, 4000))
        _assert_nearest_matches_oracles(grid, AXIS_POINTS)
    # the rotations of `lgi --model ks` at its default 32 thetas and nodes
    grid = fibonacci_sphere_grid(20000)
    for theta in np.linspace(0.0, math.pi, 32):
        _assert_nearest_matches_oracles(grid, _rotated_nodes(grid, (0.0, 1.0, 0.0), theta))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(4, 20000),
        axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda v: sum(c * c for c in v) > 1e-6),
        angle=st.floats(0.0, 2.0 * math.pi),
    )
    def drawn(n, axis, angle):
        grid = fibonacci_sphere_grid(n)
        _assert_nearest_matches_oracles(grid, _rotated_nodes(grid, axis, angle))

    drawn()


@pytest.mark.parametrize("count", [
    1, NEAREST_BLOCK - 1, NEAREST_BLOCK, NEAREST_BLOCK + 1, 2 * NEAREST_BLOCK + 3])
def test_nearest_across_block_edges(big_grid, count):
    """On the 20 000-node grid, at and around each block edge, ``nearest``
    equals cKDTree and the unblocked arithmetic on every point, and brute
    force on the 16 points either side of each edge, for rotated nodes and
    for random unit rows."""
    rng = np.random.default_rng(count)
    rotated = _rotated_nodes(big_grid, rng.normal(size=3), float(rng.uniform(0.1, 3.0)))
    edges = np.arange(0, count + NEAREST_BLOCK, NEAREST_BLOCK)
    near_edges = np.unique(np.clip((edges[:, None] + np.arange(-16, 16)).ravel(), 0, count - 1))
    for points in (rotated[rng.permutation(len(rotated))[:count]], _unit_rows(rng, count)):
        got = big_grid.nearest(points)
        _assert_nearest_matches_oracles(big_grid, points)
        assert np.array_equal(got, nearest_reference(big_grid, points))
        assert np.array_equal(got[near_edges], _brute_nearest(big_grid.nodes, points[near_edges]))


def test_nearest_of_no_points_is_an_empty_index_array():
    got = fibonacci_sphere_grid(20).nearest(np.empty((0, 3)))
    assert got.shape == (0,) and got.dtype == np.dtype(int)


def test_lgi_ks_builds_one_tree(monkeypatch, capsys):
    """``lgi --model ks`` builds its snapping structure once for all thetas.
    That structure is the spiral grid itself: its nodes are computed once
    and no KD-tree is built."""
    import scipy.spatial

    import macroreal.zoo
    from macroreal.cli import run

    real_tree, real_spiral = scipy.spatial.cKDTree, macroreal.zoo._golden_spiral
    trees, spirals = [], []

    def counting_tree(*args, **kwargs):
        trees.append(1)
        return real_tree(*args, **kwargs)

    def counting_spiral(n):
        spirals.append(n)
        return real_spiral(n)

    monkeypatch.setattr(scipy.spatial, "cKDTree", counting_tree)
    monkeypatch.setattr(macroreal.zoo, "_golden_spiral", counting_spiral)
    assert run(["lgi", "--model", "ks", "--theta-grid", "8", "--nodes", "2000"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 9
    assert spirals == [2000]
    assert trees == []


def test_bloch_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        assert np.allclose(bloch_vector(state_from_bloch(d)), d, atol=1e-12)


def small_fragment(theta=math.pi / 3):
    s, c = math.sin(theta), math.cos(theta)
    return qubit_fragment(
        {
            "up": (0, 0, 1.0),
            "down": (0, 0, -1.0),
            "oblique": (s, 0, c),
            "plus_x": (1.0, 0, 0),
        },
        {"macro": (0, 0, 1.0), "tilted": (s, 0, c)},
    )


@pytest.fixture(scope="module")
def model_and_frag(big_grid):
    frag = small_fragment()
    return kochen_specker_model(big_grid, frag), frag


class TestKochenSpecker:
    def test_aligned_state(self, model_and_frag):
        model, _ = model_and_frag
        probs = predict(model, "up", "macro")
        assert abs(probs[0] - 1.0) <= 1e-3

    def test_perpendicular_state(self, model_and_frag):
        model, _ = model_and_frag
        probs = predict(model, "plus_x", "macro")
        assert abs(probs[0] - 0.5) <= 1e-3

    def test_oblique_born_value(self, model_and_frag):
        model, _ = model_and_frag
        probs = predict(model, "oblique", "macro")
        assert abs(probs[0] - 0.75) <= 1e-3   # cos^2(pi/6)

    def test_validates_against_fragment(self, model_and_frag):
        model, frag = model_and_frag
        report = validate(model, frag, default_bindings(model, frag), tol=1e-3)
        assert report.passed

    def test_classified_esmr(self, model_and_frag):
        model, frag = model_and_frag
        verdict = classify(model, frag)
        assert verdict.kind == "ESMR"
        assert verdict.evidence["max_mixture_residual"] > 0.01

    def test_rejects_nonqubit_fragment(self, big_grid, witness_half):
        from macroreal import QuantumFragment

        frag = QuantumFragment(
            4,
            {"psi": witness_half.psi},
            {},
            {"bprime": witness_half.basis_bprime},
            "bprime",
        )
        with pytest.raises(ValueError):
            kochen_specker_model(big_grid, frag)

    def test_update_rule_reprepares_outcome_cap(self, model_and_frag):
        model, _ = model_and_frag
        table = model.updates["macro"]
        for label, pname in table.items():
            probs = model.responses["macro"] @ model.preparation(pname)
            idx = model.outcome_labels["macro"].index(label)
            assert probs[idx] >= 1.0 - 1e-12

    def test_snapped_rotation_tracks_quantum(self, model_and_frag, big_grid):
        frag = qubit_fragment(
            {"up": (0, 0, 1.0), "down": (0, 0, -1.0)},
            {"macro": (0, 0, 1.0)},
            rotations={"step": ((0.0, 1.0, 0.0), math.pi / 3)},
        )
        model = kochen_specker_model(big_grid, frag)
        moved = push_forward(model, "up", "step")
        probs = model.responses["macro"] @ moved
        assert abs(probs[0] - 0.75) <= 2e-3


def test_building_the_cap_model_holds_its_arrays_once():
    """The model keeps the cap weights and responses it is handed instead of
    copying them, so building the ``zoo ks`` model on a 2 000-node grid
    peaks at most a quarter above the arrays the model holds."""
    grid = fibonacci_sphere_grid(2000)
    state_dirs, meas_dirs = paired_validation_grid(50)
    mdirs = {"macro": (0.0, 0.0, 1.0)}
    mdirs.update({f"m{i}": tuple(d) for i, d in enumerate(meas_dirs)})
    frag = qubit_fragment({f"s{i}": tuple(d) for i, d in enumerate(state_dirs)}, mdirs)
    tracemalloc.start()
    try:
        model = kochen_specker_model(grid, frag)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(arr.nbytes for table in (model.preparations, model.responses, model.maps)
               for arr in table.values())
    assert held == (152 + 51 * 2) * 2000 * 8
    assert peak <= 1.25 * held


def _audit_fragment(seed):
    """A fragment shaped like the benchmark's cap audits: six paired states
    and measurements from ``paired_validation_grid``, both macro
    eigenstates, the macro measurement and one rotation, drawn from
    ``seed``."""
    rng = np.random.default_rng(seed)
    state_dirs, meas_dirs = paired_validation_grid(50)
    picks = rng.choice(len(state_dirs), size=6, replace=False)
    states = {f"s{j}": tuple(state_dirs[i]) for j, i in enumerate(picks)}
    states.update(up=(0.0, 0.0, 1.0), down=(0.0, 0.0, -1.0))
    meas = {"macro": (0.0, 0.0, 1.0)}
    meas.update({f"m{j}": tuple(meas_dirs[i]) for j, i in enumerate(picks)})
    rotation = (tuple(rng.normal(size=3)), float(rng.uniform(0.3, 2.8)))
    return qubit_fragment(states, meas, rotations={"rot": rotation})


def _traced_peak(build):
    """(result of ``build()``, its tracemalloc peak above the start)."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start


def test_nearest_and_the_cap_build_stay_in_cache_sized_blocks(big_grid):
    """Snapping 20 000 rotated nodes peaks at most 2 MiB above its start
    (5.2 MiB when one pass held (4, 20 000) corner arrays), and building
    the cap model of a benchmark-shaped fragment on 20 000 nodes at most
    3 MiB above the arrays the model keeps (6.0 MiB before the weights and
    responses were built in place)."""
    rotated = _rotated_nodes(big_grid, (0.3, 1.0, -0.2), 1.1)
    _, peak = _traced_peak(lambda: big_grid.nearest(rotated))
    assert peak <= 2 * 2**20
    fragment = _audit_fragment(7)
    model, peak = _traced_peak(lambda: kochen_specker_model(big_grid, fragment))
    held = sum(arr.nbytes for table in (model.preparations, model.responses, model.maps)
               for arr in table.values())
    assert held == (22 + 7 * 2 + 1) * 20000 * 8
    assert peak - held <= 3 * 2**20


@pytest.mark.parametrize("nodes", [2001, 20000, 50000])
def test_the_in_place_cap_build_keeps_the_bits_of_the_reference(nodes):
    """Every preparation, response and map of the cap model has the dtype,
    shape and bytes of the out-of-place, unblocked build. At 2 001 nodes
    one node lies on the macro equator, so a height of 0 and its negation
    are weighed."""
    grid = fibonacci_sphere_grid(nodes)
    assert (grid.nodes[:, 2] == 0.0).any() == (nodes == 2001)
    model = kochen_specker_model(grid, _audit_fragment(nodes))
    built = (model.preparations, model.responses, model.maps)
    for got, want in zip(built, cap_model_reference(grid, _audit_fragment(nodes))):
        assert list(got) == list(want)
        for name, array in want.items():
            assert (got[name].dtype, got[name].shape) == (array.dtype, array.shape), name
            assert got[name].tobytes() == array.tobytes(), name


class TestBeltramettiBugajski:
    def test_exact_validation(self):
        frag = small_fragment()
        model = beltrametti_bugajski_model(frag)
        report = validate(model, frag, default_bindings(model, frag), tol=1e-12)
        assert report.passed and report.max_deviation <= 1e-12

    def test_macro_only_catalogue_is_deterministic(self):
        frag = qubit_fragment(
            {"up": (0, 0, 1.0), "down": (0, 0, -1.0)}, {"macro": (0, 0, 1.0)}
        )
        model = beltrametti_bugajski_model(frag)
        resp = model.responses["macro"]
        assert np.allclose(resp, np.round(resp), atol=1e-12)
        assert classify(model, frag).kind == "EMMR"

    def test_superposition_catalogue_is_none(self):
        frag = small_fragment()
        model = beltrametti_bugajski_model(frag)
        verdict = classify(model, frag)
        assert verdict.kind == "NONE"
        assert "nondeterministic_atom" in verdict.evidence


class TestDeterministicExtension:
    def make(self):
        frag = qubit_fragment(
            {"up": (0, 0, 1.0), "down": (0, 0, -1.0), "plus_x": (1.0, 0, 0)},
            {"macro": (0, 0, 1.0)},
        )
        return deterministic_extension_model(frag), frag

    def test_eigenstate_only_degenerates(self):
        frag = qubit_fragment(
            {"up": (0, 0, 1.0), "down": (0, 0, -1.0)}, {"macro": (0, 0, 1.0)}
        )
        model = deterministic_extension_model(frag)
        assert model.atoms == 2

    def test_validates_exactly_and_classifies_ssmr(self):
        model, frag = self.make()
        report = validate(model, frag, default_bindings(model, frag), tol=1e-12)
        assert report.passed
        assert classify(model, frag).kind == "SSMR"

    def test_rejects_extra_measurements(self):
        frag = small_fragment()
        with pytest.raises(ValueError, match="macro"):
            deterministic_extension_model(frag)


def test_emmr_toy_is_emmr_and_valid():
    model, frag = emmr_toy_model(math.pi / 3)
    bindings = Bindings(
        preparations={"eig_up": "up", "eig_down": "down"},
        measurements={"macro": "macro"},
    )
    report = validate(model, frag, bindings, tol=1e-12)
    assert report.passed
    assert classify(model, frag).kind == "EMMR"
