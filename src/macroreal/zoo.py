"""Reference ontological models for qubit fragments.

Three constructions span the classification landscape: the hemisphere-cap
qubit model (eigenstate-supported but not mixture-only, reproducing Born
statistics up to quadrature error), the trivial model whose atoms are the
catalogued quantum states themselves (neither condition holds once a
superposition is catalogued), and a value-definite extension that carries a
macro value on every atom while escaping the eigenstate supports.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .ontomodel import SUPPORT_EPS, FiniteOntModel, QuantumFragment
from .quantum import (
    ProjMeasurement,
    StateVector,
    UnitaryMap,
    apply_unitary,
    basis_measurement,
    born,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
MAX_GRID_NODES = 10**6   # the largest grid ``SphereGrid.nearest`` was checked at
NEAREST_BLOCK = 4096     # points per block of ``SphereGrid.nearest``
ORBIT_MAX_STATES = 256   # orbits of angles incommensurate with pi never close
PAIR_OFFSET = 13         # measurement member offset in paired_validation_grid
PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """The golden-angle spiral of ``node_count`` nodes with equal weights
    4*pi/n: node k sits at height 1 - (2k+1)/n and azimuth 2*pi*k/golden.

    This is the spherical Fibonacci point set of Keinert, Innmann, Saenger
    and Stamminger, "Spherical Fibonacci Mapping" (ACM TOG 34(6), 2015),
    whose inverse mapping gives ``nearest`` without a search; its four
    candidates per point hold the node ``scipy.spatial.cKDTree`` returns
    on every grid size the tests check (see ``nearest``). The
    z-offsets (2k+1)/n keep every node strictly off the equator for even
    n, which keeps hemisphere supports clean. Grids compare and hash by
    identity, like the models built on them.
    """

    node_count: int
    nodes: np.ndarray = field(init=False, repr=False)   # (n, 3) unit vectors

    def __post_init__(self) -> None:
        # operator.index rejects NaN and other non-integers with a TypeError
        n = operator.index(self.node_count)
        if n < 4:
            raise ValueError("need at least 4 nodes")
        if n > MAX_GRID_NODES:
            raise ValueError(f"{n} grid nodes exceed the {MAX_GRID_NODES} cap")
        nodes = _golden_spiral(n)
        nodes.setflags(write=False)
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "nodes", nodes)
        columns = tuple(np.ascontiguousarray(nodes[:, axis]) for axis in range(3))
        for column in columns:
            column.setflags(write=False)
        # the x, y and z columns of ``nodes``, each contiguous, for ``nearest``
        object.__setattr__(self, "_columns", columns)

    def nearest(self, points) -> np.ndarray:
        """Index of the node nearest to each of the (m, 3) unit ``points``.

        The inverse spherical Fibonacci mapping (Keinert et al. 2015): from
        a point's azimuth and height it picks the local lattice of index
        offsets F0, F1 (consecutive Fibonacci numbers), solves for the
        lattice cell holding the point and turns the cell's four corner
        heights into node indices. Of those four candidates it keeps the
        one at the smallest squared distance, summed as dx^2 + dy^2 + dz^2
        as ``scipy.spatial.cKDTree`` sums it, and the first one on a tie.
        The result equals cKDTree's and brute force's on the tests' grids
        of 4, 5, 13, 2 000 and 20 000 nodes (rotated grids, random unit
        points, the poles and the axis points); rotated grids and random
        unit points also matched cKDTree at every size from 4 to 59, at
        200 000 and at the ``MAX_GRID_NODES`` cap.

        The points are taken in blocks of at most ``NEAREST_BLOCK`` = 4 096.
        A block's (4, block) float64 corner arrays take 128 KiB: glibc's
        default mmap threshold, and small enough to stay in L2. Larger
        arrays lie above that threshold, and their pages are faulted in
        afresh on every call. Within a block the lattice constants are
        computed once for each level from 2 to the highest that occurs (12
        on a 20 000-node grid) and gathered by level. They are the
        per-point expressions on the same values, so every index is the one
        a single unblocked pass gives.
        """
        p = np.asarray(points, dtype=float)
        best = np.empty(len(p), dtype=int)
        for start in range(0, len(p), NEAREST_BLOCK):
            best[start:start + NEAREST_BLOCK] = self._nearest_block(
                p[start:start + NEAREST_BLOCK])
        return best

    def _nearest_block(self, p: np.ndarray) -> np.ndarray:
        """``nearest`` on a nonempty (m, 3) block of points."""
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        n = self.node_count
        # lattice level, at least 2: the argument is clamped at 1 so the
        # poles (and heights a rounding step past them) take log(1) = 0
        spread = np.maximum(n * math.pi * math.sqrt(5.0) * (1.0 - z * z), 1.0)
        level = np.maximum(2.0, np.floor(np.log(spread) / math.log(GOLDEN * GOLDEN)))
        # the lattice constants of each level from 2 to the block's highest
        fib = GOLDEN**np.arange(2.0, level.max() + 1.0) / math.sqrt(5.0)
        f0, f1 = np.round(fib), np.round(fib * GOLDEN)
        # basis of the local lattice: the azimuth step of index offset f, in
        # [-2*pi/golden, 2*pi - 2*pi/golden), and its height step -2f/n;
        # golden - 1 = 1/golden
        a0, a1 = (2.0 * math.pi * (np.modf((f + 1.0) * (GOLDEN - 1.0))[0] - (GOLDEN - 1.0))
                  for f in (f0, f1))
        b0, b1 = -2.0 * f0 / n, -2.0 * f1 / n
        det = a0 * b1 - a1 * b0
        # each point's constants, gathered by level
        a0, a1, b0, b1, det = np.stack([a0, a1, b0, b1, det])[:, (level - 2.0).astype(np.intp)]
        top = 1.0 - 1.0 / n
        azimuth, height = np.arctan2(y, x), z - top
        c0 = np.floor((b1 * azimuth - a1 * height) / det)
        c1 = np.floor((a0 * height - b0 * azimuth) / det)
        # the cell's four corners as rows
        s0, s1 = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])[:, :, None]
        corner_z = b0 * (c0 + s0) + b1 * (c1 + s1) + top
        index = np.clip(np.floor(0.5 * n - 0.5 * n * corner_z), 0, n - 1).astype(int)
        nx, ny, nz = self._columns
        d = (nx[index] - x) ** 2 + (ny[index] - y) ** 2 + (nz[index] - z) ** 2
        # a later corner replaces the best so far only when strictly nearer,
        # so the first one on a tie stays
        best, best_d = index[0], d[0]
        for corner in range(1, 4):
            nearer = d[corner] < best_d
            best = np.where(nearer, index[corner], best)
            best_d = np.where(nearer, d[corner], best_d)
        return best


def fibonacci_sphere_grid(n: int) -> SphereGrid:
    """The golden-angle spiral grid of ``n`` nodes, 4 <= n <= MAX_GRID_NODES."""
    return SphereGrid(n)


def _golden_spiral(n: int) -> np.ndarray:
    """(n, 3) unit vectors: golden-angle azimuths at heights 1 - (2k+1)/n."""
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    azimuth = 2.0 * math.pi * k / GOLDEN
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(azimuth), r * np.sin(azimuth), z])


# -- Bloch helpers ----------------------------------------------------------

def bloch_vector(state: StateVector) -> np.ndarray:
    """Bloch 3-vector of a qubit state."""
    if state.dim != 2:
        raise ValueError("bloch_vector expects a qubit state")
    amp = state.amplitudes
    return _pauli_expectations(np.outer(amp, amp.conj()))


def _pauli_expectations(rho: np.ndarray) -> np.ndarray:
    """(tr(sigma_x rho), tr(sigma_y rho), tr(sigma_z rho)), real parts: the
    one map behind ``bloch_vector`` and the cap model's measurement axes."""
    return np.real(np.einsum("kij,ji->k", PAULI, rho))


def state_from_bloch(direction) -> StateVector:
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    theta = math.acos(np.clip(n[2], -1.0, 1.0))
    phi = math.atan2(n[1], n[0])
    return StateVector(
        np.array([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)])
    )


def measurement_from_direction(direction, labels=("+", "-")) -> ProjMeasurement:
    plus = state_from_bloch(direction)
    minus = state_from_bloch(-np.asarray(direction, dtype=float))
    return basis_measurement([plus, minus], labels)


def rotation_of_unitary(u: UnitaryMap) -> np.ndarray:
    """SO(3) action of a qubit unitary on Bloch vectors."""
    if u.dim != 2:
        raise ValueError("rotation_of_unitary expects a qubit unitary")
    m = u.matrix
    return 0.5 * np.real(
        np.einsum("iab,bc,jcd,da->ij", PAULI, m, PAULI, m.conj().T)
    )


def rotation_unitary(axis, angle: float) -> UnitaryMap:
    """Qubit unitary rotating Bloch vectors by ``angle`` about ``axis``."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    gen = n[0] * PAULI[0] + n[1] * PAULI[1] + n[2] * PAULI[2]
    mat = math.cos(angle / 2.0) * np.eye(2) - 1j * math.sin(angle / 2.0) * gen
    return UnitaryMap(mat)


def _measurement_direction(meas: ProjMeasurement) -> np.ndarray:
    """Bloch direction of the first outcome of a dichotomic qubit measurement."""
    if meas.dim != 2 or meas.n_outcomes != 2:
        raise ValueError("expected a two-outcome qubit measurement")
    direction = _pauli_expectations(meas.projectors[0])
    norm = np.linalg.norm(direction)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("outcome projector is not rank one")
    return direction / norm


# -- fragment builders ------------------------------------------------------

def qubit_fragment(
    state_directions: dict,
    measurement_directions: dict,
    rotations: dict | None = None,
) -> QuantumFragment:
    """Qubit fragment from named Bloch directions.

    ``measurement_directions`` must include ``"macro"``, the macro
    observable, whose outcomes are labelled q+ and q-. Each rotation is
    an (axis, angle) pair; the listed states are not automatically closed
    under them, callers add images they intend to query.
    """
    if "macro" not in measurement_directions:
        raise ValueError("measurement_directions must include 'macro'")
    states = {name: state_from_bloch(d) for name, d in state_directions.items()}
    measurements = {}
    for name, d in measurement_directions.items():
        labels = ("q+", "q-") if name == "macro" else ("+", "-")
        measurements[name] = measurement_from_direction(d, labels)
    unitaries = {}
    for name, (axis, angle) in (rotations or {}).items():
        unitaries[name] = rotation_unitary(axis, angle)
    return QuantumFragment(2, states, unitaries, measurements, "macro")


def orbit_closed_directions(seeds: dict, rotation: np.ndarray) -> dict:
    """Close a set of named Bloch directions under a rotation.

    Images of catalogued directions get derived names; directions already
    present (dot within 1e-12 of 1) are not duplicated. Raises if the orbit
    does not close within ``ORBIT_MAX_STATES`` members, as happens for rotation
    angles incommensurate with pi.
    """
    dirs = {name: np.asarray(d, dtype=float) / np.linalg.norm(d) for name, d in seeds.items()}
    frontier = list(dirs.items())
    while frontier:
        name, d = frontier.pop(0)
        image = rotation @ d
        if any(image @ v > 1.0 - 1e-12 for v in dirs.values()):
            continue
        if len(dirs) >= ORBIT_MAX_STATES:
            raise ValueError("rotation orbit does not close; choose a commensurate angle")
        new_name = f"rot:{name}"
        dirs[new_name] = image
        frontier.append((new_name, image))
    return {name: tuple(d) for name, d in dirs.items()}


def standard_qubit_fragment() -> QuantumFragment:
    """Small spread-out fragment of the property suite and of ``zoo bb`` and
    ``zoo det``: macro z-axis, oblique and equatorial states, one rotation
    by pi/3 about y, with the catalogue closed under the rotation's orbit."""
    theta = math.pi / 3
    s3 = math.sin(theta)
    c3 = math.cos(theta)
    # both macro eigenstates are seeded so classification can run
    seeds = {
        "up": (0.0, 0.0, 1.0),
        "down": (0.0, 0.0, -1.0),
        "plus_x": (1.0, 0.0, 0.0),
        "skew": (0.6, 0.48, 0.64),
    }
    rot = np.array([[c3, 0.0, s3], [0.0, 1.0, 0.0], [-s3, 0.0, c3]])
    state_dirs = orbit_closed_directions(seeds, rot)
    meas_dirs = {
        "macro": (0.0, 0.0, 1.0),
        "mx": (1.0, 0.0, 0.0),
        "oblique_axis": (s3, 0.0, c3),
    }
    return qubit_fragment(state_dirs, meas_dirs, {"step": ((0.0, 1.0, 0.0), theta)})


def paired_validation_grid(n_pairs: int = 50):
    """Deterministic (state, measurement) direction pairs for fidelity checks.

    Both direction families come from one golden-angle spiral of 2*n_pairs
    directions, made by the grids' own generator; pair i uses member 2i for the
    state and member (2i + PAIR_OFFSET) mod 2*n_pairs for the measurement,
    spreading relative angles without sharing axes.
    """
    total = 2 * n_pairs
    dirs = _golden_spiral(total)
    states = dirs[2 * np.arange(n_pairs) % total]
    meas = dirs[(2 * np.arange(n_pairs) + PAIR_OFFSET) % total]
    return states, meas


# -- the three reference models ---------------------------------------------

def kochen_specker_model(grid: SphereGrid, fragment: QuantumFragment) -> FiniteOntModel:
    """Hemisphere-cap qubit model on a sphere grid.

    Atoms are grid nodes. A state with Bloch vector n gets weight
    max(0, n.node) * node_weight, normalized; a measurement along m answers
    its first outcome exactly when m.node >= 0. Unitaries become node
    permutations by rotate-then-snap-to-nearest. Measurements re-prepare the
    observed outcome's cap; each macro cap is its value's first eigenstate.
    Weights and responses are built in place, each in the one array the
    model keeps (a response's two rows in one preallocated (2, n) array,
    the second outcome's cap from the negated heights), and are handed over
    read-only, uncopied by the model.
    """
    if fragment.dim != 2:
        raise ValueError("the cap model is a qubit construction")
    nodes = grid.nodes
    node_weight = 4.0 * math.pi / grid.node_count

    def cap_weights(heights: np.ndarray) -> np.ndarray:
        # one new array, scaled and normalized in place; 0.0 goes first
        # because np.maximum(0.0, -0.0) is 0.0 but np.maximum(-0.0, 0.0) is -0.0
        w = np.maximum(0.0, heights)
        w *= node_weight
        total = w.sum()
        if total <= 0.0:
            raise ValueError("degenerate cap: no grid node in the open hemisphere")
        w /= total
        w.setflags(write=False)
        return w

    preparations = {}
    delta_sets = {}
    for name, state in fragment.states.items():
        preparations[name] = cap_weights(nodes @ bloch_vector(state))
        delta_sets[name] = (name,)

    # caps enter after the states, in measurement order: classify's evidence
    # names the first offending preparation in registration order
    responses = {}
    outcome_labels = {}
    updates = {}
    for mname, meas in fragment.measurements.items():
        heights = nodes @ _measurement_direction(meas)
        response = np.empty((2, grid.node_count))
        np.greater_equal(heights, 0.0, out=response[0])
        np.subtract(1.0, response[0], out=response[1])
        response.setflags(write=False)
        responses[mname] = response
        outcome_labels[mname] = meas.outcomes
        table = {}
        for k, label in enumerate(meas.outcomes):
            if k == 1:
                np.negative(heights, out=heights)   # the second outcome's cap
            pname = f"cap:{mname}:{label}"
            if pname not in preparations:
                preparations[pname] = cap_weights(heights)
            table[label] = pname
        updates[mname] = table

    macro = fragment.macro_observable
    eigenstates = _macro_eigenstates(fragment)
    eigenstate_preps = {
        q: (f"cap:{macro}:{q}",) + eigenstates.get(q, ()) for q in fragment.macro.outcomes
    }

    maps = {
        uname: grid.nearest(nodes @ rotation_of_unitary(u).T)
        for uname, u in fragment.unitaries.items()
    }

    return FiniteOntModel(
        atoms=grid.node_count,
        preparations=preparations,
        responses=responses,
        outcome_labels=outcome_labels,
        macro_measurement=macro,
        eigenstate_preps=eigenstate_preps,
        maps=maps,
        updates=updates,
        delta_sets=delta_sets,
    )


def _macro_eigenstates(fragment: QuantumFragment) -> dict:
    """Macro value -> the catalogued states lying on its ray (<P_q> within
    1e-12 of 1), in catalogue order; values without one are left out."""
    macro = fragment.macro
    eigenstates = {}
    for q, proj in zip(macro.outcomes, macro.projectors):
        members = tuple(
            sname for sname, state in fragment.states.items()
            if abs((state.amplitudes.conj() @ proj @ state.amplitudes).real - 1.0) <= 1e-12
        )
        if members:
            eigenstates[q] = members
    return eigenstates


def beltrametti_bugajski_model(fragment: QuantumFragment) -> FiniteOntModel:
    """One atom per catalogued state; responses are Born probabilities.

    Exact by construction for any fragment. The macro eigenstate
    declarations cover the catalogued states lying on macro rays; if some
    macro value has no catalogued eigenstate the declaration stays empty
    and classification refuses to run.
    """
    names = list(fragment.states)
    states = list(fragment.states.values())
    n_atoms = len(names)
    eye = np.eye(n_atoms)

    preparations = {name: eye[i] for i, name in enumerate(names)}
    delta_sets = {name: (name,) for name in names}

    responses = {}
    outcome_labels = {}
    for mname, meas in fragment.measurements.items():
        responses[mname] = np.column_stack([born(s, meas) for s in states])
        outcome_labels[mname] = meas.outcomes

    eigenstate_preps = _macro_eigenstates(fragment)

    maps = {}
    for uname, u in fragment.unitaries.items():
        targets = []
        for sname, state in fragment.states.items():
            image = apply_unitary(u, state)
            # the first catalogued state on the image's ray
            hit = next((i for i, t in enumerate(states) if image.same_ray(t)), None)
            if hit is None:
                raise ValueError(
                    f"catalogue not closed: {uname!r} image of {sname!r} is uncatalogued"
                )
            targets.append(hit)
        maps[uname] = np.asarray(targets, dtype=int)

    return FiniteOntModel(
        atoms=n_atoms,
        preparations=preparations,
        responses=responses,
        outcome_labels=outcome_labels,
        macro_measurement=fragment.macro_observable,
        eigenstate_preps=eigenstate_preps,
        maps=maps,
        delta_sets=delta_sets,
    )


def deterministic_extension_model(fragment: QuantumFragment) -> FiniteOntModel:
    """Value-definite toy: atoms are (state, macro value) pairs.

    Only the macro measurement may be catalogued. Each state's preparation
    spreads over its own atoms with Born weights, every atom answers its
    fixed macro value, and no atom is shared between states, so weight
    escapes the eigenstate supports whenever a superposition is catalogued.
    """
    extra = [m for m in fragment.measurements if m != fragment.macro_observable]
    if extra:
        raise ValueError(
            f"the value-definite extension handles the macro measurement only; "
            f"fragment also carries {extra!r}"
        )
    macro = fragment.macro
    q_labels = macro.outcomes
    # atoms in (state, outcome) row-major order, one per Born weight above SUPPORT_EPS
    probs = np.stack([born(state, macro) for state in fragment.states.values()])
    owner, outcome = np.nonzero(probs > SUPPORT_EPS)
    weights = probs[owner, outcome]
    n_atoms = weights.size

    preparations = {}
    for s, sname in enumerate(fragment.states):
        w = np.where(owner == s, weights, 0.0)
        preparations[sname] = w / w.sum()
    delta_sets = {name: (name,) for name in fragment.states}

    resp = np.zeros((len(q_labels), n_atoms))
    resp[outcome, np.arange(n_atoms)] = 1.0

    eigenstate_preps = _macro_eigenstates(fragment)

    # a macro outcome re-prepares the first catalogued eigenstate on its ray
    table = {q: names[0] for q, names in eigenstate_preps.items()}
    updates = {fragment.macro_observable: table} if table else {}

    return FiniteOntModel(
        atoms=n_atoms,
        preparations=preparations,
        responses={fragment.macro_observable: resp},
        outcome_labels={fragment.macro_observable: q_labels},
        macro_measurement=fragment.macro_observable,
        eigenstate_preps=eigenstate_preps,
        updates=updates,
        delta_sets=delta_sets,
    )


def emmr_toy_model(theta: float) -> tuple:
    """Classical two-state mixture model with a doubly stochastic step map.

    Preparations are the two macro eigenstates and their uniform mixture;
    the step map flips with probability sin^2(theta/2), matching the qubit
    transition probabilities of a Bloch rotation by ``theta``; measurement
    updates re-prepare the observed eigenstate, which never disturbs any of
    the registered preparations. Returns (model, fragment); the fragment
    catalogues the macro measurement only.
    """
    c2 = math.cos(theta / 2.0) ** 2
    s2 = 1.0 - c2
    fragment = qubit_fragment(
        {"up": (0.0, 0.0, 1.0), "down": (0.0, 0.0, -1.0)},
        {"macro": (0.0, 0.0, 1.0)},
    )
    q_plus, q_minus = fragment.macro.outcomes
    model = FiniteOntModel(
        atoms=2,
        preparations={
            "eig_up": np.array([1.0, 0.0]),
            "eig_down": np.array([0.0, 1.0]),
            "mixed": np.array([0.5, 0.5]),
        },
        responses={"macro": np.eye(2)},
        outcome_labels={"macro": (q_plus, q_minus)},
        macro_measurement="macro",
        eigenstate_preps={q_plus: ("eig_up",), q_minus: ("eig_down",)},
        maps={"step": np.array([[c2, s2], [s2, c2]])},
        updates={"macro": {q_plus: "eig_up", q_minus: "eig_down"}},
        delta_sets={"up": ("eig_up",), "down": ("eig_down",)},
    )
    return model, fragment
