"""Shared builders and independent oracles for the test suite.

The random-model families here are constructed to be exactly valid for
their fragments so framework properties can be asserted at tight
tolerances: split-atom state models (one cluster of atoms per catalogued
state), eigenstate-split models over macro-only fragments (eigenstate
supported without being mixtures), mixture models (mixtures only), and
product-measure models over deterministic response atoms of a witness
fragment (heavily overlapping supports). The environment of a child
interpreter comes from ``toolenv.child_env``, the one recipe that the tests
and the tools share.
"""

from __future__ import annotations

import itertools
import json
import math
import mmap
import struct

import numpy as np
from scipy.optimize import brentq, minimize_scalar, nnls

from macroreal import (
    FiniteOntModel,
    LinearProgram,
    QuantumFragment,
    StateVector,
    UnitaryMap,
    basis_measurement,
    born,
    computational_measurement,
    enumerate_atoms,
    lp,
    solve_lp,
)
from macroreal.exclusion import (
    MEAS_ANTIDIST,
    MEAS_BPRIME,
    MEAS_MACRO,
    _block_program,
)
from macroreal.ontomodel import DETERMINISM_TOL, MIXTURE_RESIDUAL_TOL, SUPPORT_EPS, Classification

ALL_MEASUREMENTS = (MEAS_ANTIDIST, MEAS_BPRIME, MEAS_MACRO)


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector.normalized(vec)


def random_unitary(rng: np.random.Generator, dim: int) -> UnitaryMap:
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(mat)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return UnitaryMap(q)


def basis_containing(state: StateVector) -> list[StateVector]:
    """Deterministic completion of a state to an orthonormal basis."""
    dim = state.dim
    cols = [state.amplitudes]
    for k in range(dim):
        v = np.eye(dim, dtype=complex)[k]
        for u in cols:
            v = v - (u.conj() @ v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-7:
            cols.append(v / norm)
        if len(cols) == dim:
            break
    return [StateVector(c) for c in cols]


def random_fragment(rng: np.random.Generator, dim: int) -> QuantumFragment:
    """Computational macro basis, a permutation unitary with a closed
    catalogue, and a measurement containing each non-eigenstate state."""
    eye = np.eye(dim, dtype=complex)
    states = {f"e{k}": StateVector(eye[k]) for k in range(dim)}
    perm = rng.permutation(dim)
    perm_matrix = np.zeros((dim, dim), dtype=complex)
    for i, j in enumerate(perm):
        perm_matrix[j, i] = 1.0
    unitaries = {"perm": UnitaryMap(perm_matrix)}

    measurements = {"macro": computational_measurement(dim, [f"q{k}" for k in range(dim)])}
    n_extra = int(rng.integers(1, 3))
    for t in range(n_extra):
        psi = random_state(rng, dim)
        states[f"s{t}"] = psi
        # close the catalogue under the permutation's orbit
        current = psi
        for step in range(1, 7):
            current = StateVector(perm_matrix @ current.amplitudes)
            if current.same_ray(psi, tol=1e-12):
                break
            states[f"perm{step}_s{t}"] = current
        measurements[f"probe{t}"] = basis_measurement(
            basis_containing(psi), [f"p{t}_{k}" for k in range(dim)]
        )
    return QuantumFragment(dim, states, unitaries, measurements, "macro")


def split_state_model(rng: np.random.Generator, fragment: QuantumFragment) -> FiniteOntModel:
    """Each catalogued state owns a random cluster of atoms sharing its Born
    response column; exact for any fragment."""
    names = list(fragment.states)
    clusters: dict[str, list[int]] = {}
    owner: list[str] = []
    for name in names:
        size = int(rng.integers(1, 4))
        clusters[name] = list(range(len(owner), len(owner) + size))
        owner.extend([name] * size)
    n_atoms = len(owner)

    preparations = {}
    for name in names:
        w = np.zeros(n_atoms)
        share = rng.uniform(0.2, 1.0, size=len(clusters[name]))
        w[clusters[name]] = share / share.sum()
        preparations[name] = w

    responses = {}
    outcome_labels = {}
    for mname, meas in fragment.measurements.items():
        cols = np.column_stack([born(fragment.states[s], meas) for s in owner])
        responses[mname] = cols
        outcome_labels[mname] = meas.outcomes

    macro = fragment.macro
    eigenstate_preps = {}
    for k, q in enumerate(macro.outcomes):
        members = [
            s for s in names
            if abs(born(fragment.states[s], macro)[k] - 1.0) <= 1e-12
        ]
        if members:
            eigenstate_preps[q] = tuple(members)

    maps = {}
    for uname, u in fragment.unitaries.items():
        gamma = np.zeros((n_atoms, n_atoms))
        for sname in names:
            image = StateVector.normalized(u.matrix @ fragment.states[sname].amplitudes)
            target = next(
                t for t in names if image.same_ray(fragment.states[t], tol=1e-10)
            )
            gamma[:, clusters[sname]] = preparations[target][:, None]
        maps[uname] = gamma

    return FiniteOntModel(
        atoms=n_atoms,
        preparations=preparations,
        responses=responses,
        outcome_labels=outcome_labels,
        macro_measurement=fragment.macro_observable,
        eigenstate_preps=eigenstate_preps,
        maps=maps,
        delta_sets={name: (name,) for name in names},
    )


def unitary_image_name(fragment: QuantumFragment, uname: str, sname: str) -> str | None:
    u = fragment.unitaries[uname]
    image = StateVector.normalized(u.matrix @ fragment.states[sname].amplitudes)
    for tname, t in fragment.states.items():
        if image.same_ray(t, tol=1e-10):
            return tname
    return None


def macro_only_fragment(rng: np.random.Generator, dim: int) -> QuantumFragment:
    eye = np.eye(dim, dtype=complex)
    states = {f"e{k}": StateVector(eye[k]) for k in range(dim)}
    states["super"] = random_state(rng, dim)
    measurements = {"macro": computational_measurement(dim, [f"q{k}" for k in range(dim)])}
    return QuantumFragment(dim, states, {}, measurements, "macro")


def eigensplit_model(
    rng: np.random.Generator, fragment: QuantumFragment, mixture_only: bool
) -> FiniteOntModel:
    """Macro-only fragment model with two atoms per macro value.

    Eigenstate preparations split their value's atoms evenly. Other states
    get Born-weighted splits: even (a mixture of the declared eigenstate
    preparations) when ``mixture_only``, skewed (eigenstate supported but
    not a mixture) otherwise.
    """
    macro = fragment.macro
    dim = fragment.dim
    n_atoms = 2 * dim

    def value_block(k: int, split: float) -> np.ndarray:
        w = np.zeros(n_atoms)
        w[2 * k] = split
        w[2 * k + 1] = 1.0 - split
        return w

    preparations = {}
    eigen_names = {}
    for k, q in enumerate(macro.outcomes):
        preparations[f"eig{k}"] = value_block(k, 0.5)
        eigen_names[q] = (f"eig{k}",)

    delta_sets = {}
    for sname, state in fragment.states.items():
        probs = born(state, macro)
        w = np.zeros(n_atoms)
        for k in range(dim):
            split = 0.5 if mixture_only else float(rng.uniform(0.1, 0.4))
            w += probs[k] * value_block(k, split)
        pname = f"prep_{sname}"
        preparations[pname] = w
        delta_sets[sname] = (pname,)

    resp = np.zeros((dim, n_atoms))
    for k in range(dim):
        resp[k, 2 * k] = resp[k, 2 * k + 1] = 1.0

    return FiniteOntModel(
        atoms=n_atoms,
        preparations=preparations,
        responses={"macro": resp},
        outcome_labels={"macro": macro.outcomes},
        macro_measurement="macro",
        eigenstate_preps=eigen_names,
        delta_sets=delta_sets,
    )


def build_family_member(seed: int):
    """Member ``seed`` of the seeded model families, as a (model, fragment)
    pair: split-state models on random fragments, then macro-only mixture
    and eigenstate-supported models, in turn."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    family = seed % 3
    if family == 0:
        frag = random_fragment(rng, dim)
        model = split_state_model(rng, frag)
    elif family == 1:
        frag = macro_only_fragment(rng, dim)
        model = eigensplit_model(rng, frag, mixture_only=True)
    else:
        frag = macro_only_fragment(rng, dim)
        model = eigensplit_model(rng, frag, mixture_only=False)
    return model, frag


def product_model(fragment: QuantumFragment) -> FiniteOntModel:
    """Independent-product measures over deterministic response atoms.

    Valid for any fragment and gives every state an overlapping support,
    which makes the union-overlap properties non-trivial.
    """
    atoms = enumerate_atoms(fragment)
    meas_names = list(fragment.measurements)
    n_atoms = len(atoms)

    borns = {
        (s, m): born(fragment.states[s], fragment.measurements[m])
        for s in fragment.states
        for m in meas_names
    }
    preparations = {}
    for sname in fragment.states:
        w = np.array(
            [
                np.prod([borns[(sname, m)][k] for m, k in zip(meas_names, atom)])
                for atom in atoms
            ]
        )
        preparations[sname] = w / w.sum()

    responses = {}
    outcome_labels = {}
    for mi, mname in enumerate(meas_names):
        meas = fragment.measurements[mname]
        resp = np.zeros((meas.n_outcomes, n_atoms))
        resp[atoms[:, mi], np.arange(n_atoms)] = 1.0
        responses[mname] = resp
        outcome_labels[mname] = meas.outcomes

    macro = fragment.macro
    eigenstate_preps = {}
    for k, q in enumerate(macro.outcomes):
        members = [
            s for s in fragment.states
            if abs(borns[(s, fragment.macro_observable)][k] - 1.0) <= 1e-12
        ]
        if members:
            eigenstate_preps[q] = tuple(members)

    return FiniteOntModel(
        atoms=n_atoms,
        preparations=preparations,
        responses=responses,
        outcome_labels=outcome_labels,
        macro_measurement=fragment.macro_observable,
        eigenstate_preps=eigenstate_preps,
        delta_sets={s: (s,) for s in fragment.states},
    )


def brute_force_overlap(model: FiniteOntModel, mu_name: str, targets) -> float:
    """Oracle: exhaustive minimum of mu(Omega) over atom subsets Omega with
    nu(Omega) = 1 for every preparation realizing every target."""
    if isinstance(targets, str):
        targets = (targets,)
    mu = model.preparation(mu_name)
    target_preps = []
    for t in targets:
        target_preps.extend(model.target_preparations(t))
    n = model.atoms
    if n > 16:
        raise ValueError("brute force oracle limited to 16 atoms")
    best = None
    for bits in itertools.product([0, 1], repeat=n):
        mask = np.array(bits, dtype=bool)
        if all(
            model.preparation(p)[mask].sum() >= 1.0 - 1e-12 for p in target_preps
        ):
            mass = mu[mask].sum()
            if best is None or mass < best:
                best = mass
    return float(best)


def support(weights: np.ndarray) -> np.ndarray:
    """Atom indices carrying more than ``SUPPORT_EPS`` weight."""
    return np.flatnonzero(weights > SUPPORT_EPS)


def support_index_classify(model: FiniteOntModel, fragment: QuantumFragment) -> Classification:
    """Oracle for ``ontomodel.classify``: the form that reads every
    preparation's support as atom indices,
    ``support(model.preparation(name))``, for conditions (a) and (c), and
    scatters the indices into masks."""

    def index_mask(names):
        mask = np.zeros(model.atoms, dtype=bool)
        for name in names:
            mask[support(model.preparation(name))] = True
        return mask

    macro = model.macro_measurement
    macro_labels = model.outcome_labels[macro]
    missing = [q for q in macro_labels if q not in model.eigenstate_preps]
    if fragment.macro.outcomes != macro_labels:
        raise ValueError(
            f"macro outcome labels {macro_labels!r} do not match fragment "
            f"macro outcomes {fragment.macro.outcomes!r}"
        )
    if missing:
        raise ValueError(f"no eigenstate preparations declared for macro values {missing!r}")

    eigen_names = [pname for q in macro_labels for pname in model.eigenstate_preps[q]]
    accessible = index_mask(eigen_names)

    evidence: dict = {"eigenstate_atoms": int(accessible.sum())}

    support_ok = True
    for pname, mu in model.preparations.items():
        atoms = support(mu)
        outside = atoms[~accessible[atoms]]
        if outside.size:
            support_ok = False
            evidence["support_violation"] = {
                "preparation": pname,
                "atom": int(outside[0]),
                "weight": float(mu[outside[0]]),
            }
            break

    eigen_matrix = np.column_stack([model.preparation(p) for p in eigen_names])
    mixture_ok = True
    worst_residual = 0.0
    for pname, mu in model.preparations.items():
        _, residual = nnls(eigen_matrix, mu)
        if residual > worst_residual:
            worst_residual = residual
            evidence["worst_mixture"] = {"preparation": pname, "residual": float(residual)}
        if residual > MIXTURE_RESIDUAL_TOL:
            mixture_ok = False
    evidence["max_mixture_residual"] = float(worst_residual)

    carried = index_mask(model.preparations)
    col_max = model.response(macro)[:, carried].max(axis=0)
    deterministic_ok = bool((col_max >= 1.0 - DETERMINISM_TOL).all())
    if not deterministic_ok:
        bad_local = int(np.argmin(col_max))
        bad_atom = int(np.where(carried)[0][bad_local])
        evidence["nondeterministic_atom"] = {
            "atom": bad_atom,
            "max_response": float(col_max[bad_local]),
        }

    if support_ok and mixture_ok:
        kind = "EMMR"
    elif support_ok:
        kind = "ESMR"
    elif deterministic_ok:
        kind = "SSMR"
    else:
        kind = "NONE"
    return Classification(kind, evidence)


# -- the framework property suite ---------------------------------------------


def measurable_targets(model: FiniteOntModel, fragment: QuantumFragment) -> list[str]:
    """States with a delta set and a fragment measurement containing them as
    an outcome (prerequisite for the single-target overlap bound)."""
    out = []
    for sname in fragment.states:
        if sname not in model.delta_sets:
            continue
        state = fragment.states[sname]
        for meas in fragment.measurements.values():
            if born(state, meas).max() >= 1.0 - 1e-12:
                out.append(sname)
                break
    return out


def property_violations(
    model: FiniteOntModel,
    fragment: QuantumFragment,
    *,
    overlap_tol: float,
    mono_tol: float,
    sat_tol: float,
    kernel_tol: float = 1e-10,
    boole_tol: float = 1e-12,
) -> list[str]:
    """Check the overlap calculus on one validated model; returns violations.

    Covers: the unit-average kernel lemma, the single-target overlap bound
    against squared inner products, the union bound, monotonicity under
    bound stochastic maps, saturation on eigenstate-supported models, and
    the measurement bound on union overlaps.
    """
    from macroreal import (
        asymmetric_overlap,
        classify,
        kernel_set,
        predict,
        push_forward,
    )

    bad: list[str] = []
    macro_name = model.macro_measurement
    macro_labels = model.outcome_labels[macro_name]

    # kernel lemma on eigenstate response rows
    for q, pnames in model.eigenstate_preps.items():
        row = model.responses[macro_name][macro_labels.index(q)]
        for pname in pnames:
            mu = model.preparation(pname)
            if abs(mu @ row - 1.0) <= 1e-12:
                k = kernel_set(row, mu)
                if mu[k].sum() < 1.0 - kernel_tol:
                    bad.append(f"kernel lemma fails for {pname}/{q}")

    bound_preps = [
        (pname, sname)
        for sname in fragment.states
        for pname in model.delta_sets.get(sname, ())
    ]
    targets = measurable_targets(model, fragment)

    # single-target overlap bounded by the squared inner product
    for pname, sname in bound_preps:
        for tname in targets:
            value = asymmetric_overlap(model, pname, tname).value
            ceiling = abs(fragment.states[tname].inner(fragment.states[sname])) ** 2
            if value > ceiling + overlap_tol:
                bad.append(
                    f"overlap bound fails: w({tname}|{pname})={value:.6g} "
                    f"> {ceiling:.6g}"
                )

    # union bound
    resolvable = [s for s in fragment.states if s in model.delta_sets]
    for pname, _ in bound_preps[:4]:
        for i in range(len(resolvable)):
            for j in range(i + 1, len(resolvable)):
                x, y = resolvable[i], resolvable[j]
                union = asymmetric_overlap(model, pname, (x, y)).value
                split = (
                    asymmetric_overlap(model, pname, x).value
                    + asymmetric_overlap(model, pname, y).value
                )
                if union > split + boole_tol:
                    bad.append(f"union bound fails for ({x},{y}|{pname})")

    # transformation monotonicity
    for uname in fragment.unitaries:
        if uname not in model.maps:
            continue
        for pname, sname in bound_preps:
            for tname in resolvable:
                image = unitary_image_name(fragment, uname, tname)
                if image is None or image not in model.delta_sets:
                    continue
                pushed = push_forward(model, pname, uname)
                tagged = model.with_preparation("__pushed__", pushed)
                before = asymmetric_overlap(model, pname, tname).value
                after = asymmetric_overlap(tagged, "__pushed__", image).value
                if after < before - mono_tol:
                    bad.append(
                        f"monotonicity fails: w({image}|{uname} {pname})="
                        f"{after:.6g} < {before:.6g}"
                    )

    # saturation on eigenstate-supported models
    kind = classify(model, fragment).kind if all(
        q in model.eigenstate_preps for q in macro_labels
    ) else None
    if kind in ("EMMR", "ESMR"):
        for pname, sname in bound_preps:
            born_macro = fragment.born(sname, macro_name)
            total = 0.0
            for k, q in enumerate(macro_labels):
                w = asymmetric_overlap(model, pname, q).value
                total += w
                if abs(w - born_macro[k]) > sat_tol:
                    bad.append(
                        f"saturation fails: w({q}|{pname})={w:.6g} "
                        f"!= {born_macro[k]:.6g}"
                    )
            if abs(total - 1.0) > sat_tol:
                bad.append(f"saturation sum fails for {pname}: {total:.6g}")

    # measurement bound on union overlaps
    for pname, sname in bound_preps[:4]:
        for mname, meas in fragment.measurements.items():
            pred = predict(model, pname, mname)
            for i in range(len(resolvable)):
                for j in range(i + 1, len(resolvable)):
                    x, y = resolvable[i], resolvable[j]
                    sup = set(np.where(fragment.born(x, mname) > 1e-12)[0])
                    sup |= set(np.where(fragment.born(y, mname) > 1e-12)[0])
                    ceiling = float(pred[sorted(sup)].sum())
                    union = asymmetric_overlap(model, pname, (x, y)).value
                    if union > ceiling + overlap_tol:
                        bad.append(
                            f"measurement bound fails for ({x},{y}|{pname}) "
                            f"on {mname}"
                        )
    return bad


def additivity_violations(model: FiniteOntModel, tol: float = 1e-10) -> list[str]:
    """Union overlap additivity on witness-fragment models: the measured
    triple forces w({phi,zero}|mu_psi) = w(phi|.) + w(zero|.)."""
    from macroreal import asymmetric_overlap

    union = asymmetric_overlap(model, "psi", ("phi", "zero")).value
    split = (
        asymmetric_overlap(model, "psi", "phi").value
        + asymmetric_overlap(model, "psi", "zero").value
    )
    if abs(union - split) > tol:
        return [f"additivity fails: union={union:.6g} split={split:.6g}"]
    return []


def lp_atom_maxima(context, target: str, indices) -> np.ndarray:
    """Largest weight each of the context's atoms ``indices`` can carry in a
    measure reproducing the target's statistics (its row of the Born
    table), one simplex LP per atom: the oracle for the closed-form
    ``accessible_atoms``."""
    marg, rhs = context._marg, context._born[target]
    maxima = []
    for idx in indices:
        objective = np.zeros(marg.shape[1])
        objective[idx] = 1.0
        outcome = solve_lp(LinearProgram(objective=objective, a_eq=marg, b_eq=rhs))
        assert outcome.status == "optimal", outcome.status
        maxima.append(outcome.value)
    return np.array(maxima)


def simplex_esmr(context) -> tuple:
    """``WitnessExclusion.esmr``'s program solved by the simplex, as the
    library certified it before the closed-form ray: the oracle for that
    ray. Returns the program, the solver's outcome and its re-verified
    residual."""
    allowed = context._eigen_union
    program = _block_program(
        context._marg[:, allowed],
        context._born["psi"],
        halves=2,
        transport=context._transport[:, allowed],
    )
    outcome = solve_lp(program)
    return program, outcome, lp.verify_certificate(program, outcome)


# -- dense simplex kernel oracle ---------------------------------------------------

class DenseSimplex(lp._Simplex):
    """The dense simplex kernel: the oracle the library's window kernel
    must match bit for bit, and the only other kernel.

    The tableau carries an identity block of artificial columns, every pivot
    rewrites every column of each touched row, pricing updates the whole
    reduced-cost row, Bland's rule scans the basis list, and the duals solve
    against a dense sign-normalized copy of the constraints (by least
    squares when the basis is singular, as the library's do).
    """

    def __init__(self, program: LinearProgram):
        super().__init__(program)
        t = self.table
        self.table = np.hstack([t[:, :-1], np.eye(self.m), t[:, -1:]])

    def _pivot(self, row: int, col: int) -> None:
        t = self.table
        t[row] = t[row] / t[row, col]
        other = np.abs(t[:, col]) > 0.0
        other[row] = False
        t[other] -= np.outer(t[other, col], t[row])
        self.basis[row] = col
        self.pivots += 1

    def run(self, cost: np.ndarray) -> str:
        enterable = self.n
        rc = None
        while True:
            if self.pivots > lp.MAX_PIVOTS:
                raise lp.PivotBudgetError("pivot budget exhausted")
            fresh = rc is None
            if fresh:
                rc = cost[:enterable] - cost[self.basis] @ self.table[:, :enterable]
            candidates = np.where(rc < -lp.FEAS_TOL)[0]
            entering = -1
            for j in candidates:
                if j not in self.basis:
                    entering = int(j)
                    break
            if entering < 0:
                if fresh:
                    return "optimal"
                rc = None
                continue
            col = self.table[:, entering]
            rows = np.where(col > lp.FEAS_TOL)[0]
            if rows.size == 0:
                if fresh:
                    return "unbounded"
                rc = None
                continue
            ratios = np.maximum(self.table[rows, -1], 0.0) / col[rows]
            best = ratios.min()
            tied = rows[ratios <= best + lp.FEAS_TOL]
            sound = tied[col[tied] > lp.PIVOT_TOL]
            if sound.size:
                tied = sound
            leave = int(min(tied, key=lambda r: self.basis[r]))
            self._pivot(leave, entering)
            rc -= rc[entering] * self.table[leave, :enterable]

    def duals(self, cost: np.ndarray) -> np.ndarray:
        p = self.program
        n_var, n_eq = p.n_vars, p.a_eq.shape[0]
        a = np.zeros((self.m0, self.n))
        a[:n_eq, :n_var] = p.a_eq
        a[n_eq:, :n_var] = p.a_ub
        a[n_eq:, n_var:] = np.eye(self.n - n_var)
        a[self.flip] = -a[self.flip]
        basis = np.array(self.basis, dtype=int)
        live = np.array(self.live, dtype=int)
        real = basis < self.n
        basis_cols = np.zeros((self.m, self.m))
        basis_cols[:, real] = a[np.ix_(live, basis[real])]
        basis_cols[:, ~real] = live[:, None] == basis[~real] - self.n
        try:
            y_live = np.linalg.solve(basis_cols.T, cost[basis])
        except np.linalg.LinAlgError:
            y_live = np.linalg.lstsq(basis_cols.T, cost[basis])[0]
        y = np.zeros(self.m0)
        y[self.live] = y_live
        return y


class CheckingSimplex(lp._Simplex):
    """The library kernel, checked after every pivot.

    Each basic column of the tableau must be an exact unit vector, the
    invariant that lets Bland's rule read the reduced costs alone. While a
    phase prices incrementally, ``rc`` must equal the full-width update
    ``rc - rc[e] * T[r]`` up to the sign of a zero, and be exactly 0.0 on
    every basic column. ``checked`` counts the pivots checked while
    pricing; ``windows`` holds each pivot's (span, count) of the pivot
    row's nonzeros. After ``drop_redundant_rows`` no artificial may be
    basic: phase 2 prices, and the primal point reads, only columns below
    ``n``.
    """

    def __init__(self, program: LinearProgram):
        super().__init__(program)
        self.checked = 0
        self.windows = []

    def drop_redundant_rows(self) -> None:
        super().drop_redundant_rows()
        assert (self.basis < self.n).all(), "an artificial is basic after phase 1"

    def _pivot(self, row: int, col: int) -> None:
        before = None if self.rc is None else self.rc.copy()
        super()._pivot(row, col)
        pivot_row = self.table[row, : self.n]
        nz = np.flatnonzero(pivot_row)
        self.windows.append((int(nz[-1] + 1 - nz[0]), nz.size))
        rows = np.flatnonzero(self.basis < self.n)
        cols = self.basis[rows]
        unit = np.zeros((self.m, rows.size))
        unit[rows, np.arange(rows.size)] = 1.0
        assert np.array_equal(self.table[:, cols], unit), "a basic column is no unit vector"
        if before is None:
            return
        full = before - before[col] * pivot_row
        assert (self.rc + 0.0).tobytes() == (full + 0.0).tobytes(), "reduced costs drifted"
        assert not self.rc[cols].any(), "a basic column's reduced cost is not 0.0"
        self.checked += 1


def solve_lp_with(kernel, program: LinearProgram) -> lp.LPOutcome:
    """``solve_lp(program)`` with ``kernel(program)`` standing in for the
    library's simplex class."""
    library = lp._Simplex
    lp._Simplex = kernel
    try:
        return lp.solve_lp(program)
    finally:
        lp._Simplex = library


def solve_lp_checked(program: LinearProgram) -> tuple:
    """``solve_lp(program)`` on a ``CheckingSimplex``: the outcome and the
    kernel that reached it."""
    kernels = []

    def kernel(p: LinearProgram) -> CheckingSimplex:
        kernels.append(CheckingSimplex(p))
        return kernels[-1]

    return solve_lp_with(kernel, program), kernels[0]


def outcome_bits(outcome: lp.LPOutcome) -> dict:
    """Status, pivot count and the raw bytes of every number an outcome
    carries, for bit-for-bit comparison."""
    bits = {"status": outcome.status, "pivots": outcome.pivots}
    if outcome.value is not None:
        bits["value"] = np.float64(outcome.value).tobytes()
    for name in ("x", "dual_eq", "dual_ub", "farkas_eq", "farkas_ub"):
        vec = getattr(outcome, name)
        bits[name] = None if vec is None else vec.tobytes()
    return bits


def mapping_behind(array: np.ndarray) -> mmap.mmap | None:
    """The ``mmap.mmap`` whose pages hold ``array``, or None when its memory
    comes from elsewhere (``np.zeros`` among others)."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview):
        base = base.obj
    return base if isinstance(base, mmap.mmap) else None


# -- per-row exclusion program assembly ------------------------------------------

def _row_marginals(fragment: QuantumFragment, atoms: list) -> tuple:
    """Marginal rows built one (measurement, outcome) row at a time from a
    list of outcome tuples."""
    meas_names = list(fragment.measurements)
    outcome_grid = np.array(atoms)  # (n_atoms, n_meas)
    rows = []
    keys = []
    for mi, mname in enumerate(meas_names):
        for o in range(fragment.measurements[mname].n_outcomes):
            rows.append((outcome_grid[:, mi] == o).astype(float))
            keys.append((mname, o))
    return np.array(rows), keys


def _keyed_rhs(fragment: QuantumFragment, keys: list, state_name: str) -> np.ndarray:
    """The state's Born probability for each (measurement, outcome) key."""
    borns = {m: fragment.born(state_name, m) for m in fragment.measurements}
    return np.array([borns[m][o] for m, o in keys])


def _row_transform(context, n_vars: int, mu_prime_cols: dict, mu_cols: dict) -> np.ndarray:
    row = np.zeros(n_vars)
    for atom_idx in context.accessible("zero"):
        col = mu_prime_cols.get(atom_idx)
        if col is not None:
            row[col] += 1.0
    for atom_idx in context.accessible("phi"):
        col = mu_cols.get(atom_idx)
        if col is not None:
            row[col] -= 1.0
    return row


def reference_esmr_program(
    context, include_support: bool = True, include_transform: bool = True
) -> LinearProgram:
    """ESMR assembled per atom and per row: the oracle for the block builder
    behind ``WitnessExclusion.esmr``."""
    atoms = [tuple(a) for a in context.atoms.tolist()]
    if include_support:
        allowed = sorted(set().union(*(context.accessible(q) for q in context._eigen_names)))
    else:
        allowed = list(range(len(atoms)))
    sub_atoms = [atoms[i] for i in allowed]
    marg, keys = _row_marginals(context.fragment, sub_atoms)
    rhs = _keyed_rhs(context.fragment, keys, "psi")
    ns = len(allowed)
    n_vars = 2 * ns
    a_eq = np.zeros((2 * len(keys), n_vars))
    a_eq[: len(keys), :ns] = marg
    a_eq[len(keys):, ns:] = marg
    b_eq = np.concatenate([rhs, rhs])
    mu_prime_cols = {atom_idx: j for j, atom_idx in enumerate(allowed)}
    mu_cols = {atom_idx: ns + j for j, atom_idx in enumerate(allowed)}
    a_ub = b_ub = None
    if include_transform:
        a_ub = _row_transform(context, n_vars, mu_prime_cols, mu_cols)[None, :]
        b_ub = np.zeros(1)
    return LinearProgram(
        objective=np.zeros(n_vars), a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub
    )


def reference_emmr_program(context, measurements: tuple = ALL_MEASUREMENTS) -> LinearProgram:
    """EMMR assembled one ``np.zeros(n_vars)`` row at a time, with atoms
    located by outcome tuple: the oracle for ``WitnessExclusion.emmr``."""
    frag = context.fragment
    eigen_names = context._eigen_names
    if tuple(measurements) != ALL_MEASUREMENTS:
        frag = QuantumFragment(
            dim=frag.dim,
            states=frag.states,
            unitaries=frag.unitaries,
            measurements={m: frag.measurements[m] for m in measurements},
            macro_observable=MEAS_MACRO,
        )
    atoms = [tuple(a) for a in enumerate_atoms(frag).tolist()]
    marg, keys = _row_marginals(frag, atoms)
    n_atoms = len(atoms)
    full = tuple(measurements) == ALL_MEASUREMENTS
    n_blocks = 2 * len(eigen_names) if full else len(eigen_names)
    n_vars = n_blocks * n_atoms

    rows = []
    rhs_list = []
    for blk, qname in enumerate(eigen_names * (2 if full else 1)):
        q_rhs = _keyed_rhs(frag, keys, qname)
        off = blk * n_atoms
        for r, key_rhs in enumerate(q_rhs):
            row = np.zeros(n_vars)
            row[off : off + n_atoms] = marg[r] - key_rhs
            rows.append(row)
            rhs_list.append(0.0)
    psi_rhs = _keyed_rhs(frag, keys, "psi")
    halves = (0, 1) if full else (0,)
    for half in halves:
        for r in range(len(keys)):
            row = np.zeros(n_vars)
            for blk in range(len(eigen_names)):
                off = (half * len(eigen_names) + blk) * n_atoms
                row[off : off + n_atoms] = marg[r]
            rows.append(row)
            rhs_list.append(psi_rhs[r])
    a_ub = b_ub = None
    if full:
        context_atoms = [tuple(a) for a in context.atoms.tolist()]
        atom_pos = {a: i for i, a in enumerate(atoms)}
        row3 = np.zeros(n_vars)
        for atom_idx in context.accessible("zero"):
            pos = atom_pos[context_atoms[atom_idx]]
            for blk in range(len(eigen_names)):
                row3[blk * n_atoms + pos] += 1.0
        for atom_idx in context.accessible("phi"):
            pos = atom_pos[context_atoms[atom_idx]]
            for blk in range(len(eigen_names), 2 * len(eigen_names)):
                row3[blk * n_atoms + pos] -= 1.0
        a_ub = row3[None, :]
        b_ub = np.zeros(1)
    return LinearProgram(
        objective=np.zeros(n_vars),
        a_eq=np.array(rows),
        b_eq=np.array(rhs_list),
        a_ub=a_ub,
        b_ub=b_ub,
    )


def reference_max_overlap_program(context) -> LinearProgram:
    """The max-overlap program with its objective set atom by atom."""
    atoms = [tuple(a) for a in context.atoms.tolist()]
    marg, keys = _row_marginals(context.fragment, atoms)
    rhs = _keyed_rhs(context.fragment, keys, "psi")
    objective = np.zeros(len(atoms))
    for atom_idx in set(context.accessible("zero")) | set(context.accessible("phi")):
        objective[atom_idx] = 1.0
    return LinearProgram(objective=objective, a_eq=marg, b_eq=rhs)


# -- scipy oracle for the witness solver ports -----------------------------------

def scipy_slot_angles(p: float, q: float, r: float):
    """The scipy-based ``witness._solve_slot_angles`` as it was before the
    pure-Python solver ports, kept as their bitwise oracle. Its one edit
    since is the ``s2 == 0.0`` guard, which the library has too: without it
    p = 1, q = 0, 1e-15 <= r <= 1e-12 divided by zero.

    Solve cos(t1)cos(t2)=p, sin(t1)cos(t3)=q, sin(t2)sin(t3)=r on [0, pi/2].

    Returns (t1, t2, t3) or None. Degenerate zero cases are handled by
    direct assignment; the generic case reduces to a one-dimensional root
    find in t3. Tangent maxima (the saturated second inequality) are
    accepted within a small slack and settled by the downstream residual
    check on the assembled measurement.
    """
    z = 1e-15
    if q < z:
        if p > 1.0:
            return None
        c2 = p
        s2 = math.sqrt(1.0 - c2 * c2)
        if r < z:
            return (0.0, math.acos(c2), 0.0)
        if r > s2 + 1e-12:
            return None
        if s2 == 0.0:   # p = 1 pins t2 = 0; r is within the slack of 0
            return (0.0, math.acos(c2), 0.0)
        return (0.0, math.acos(c2), math.asin(min(1.0, r / s2)))
    if r < z:
        if q > 1.0:
            return None
        c1 = math.sqrt(1.0 - q * q)
        if c1 < z:
            return (math.pi / 2, math.pi / 2, 0.0) if p < z else None
        if p / c1 > 1.0 + 1e-12:
            return None
        return (math.asin(q), math.acos(min(1.0, p / c1)), 0.0)
    if p < z:
        if q > 1.0:
            return None
        s3 = math.sqrt(1.0 - q * q)
        if s3 < z:
            return None
        if r / s3 > 1.0 + 1e-12:
            return None
        return (math.pi / 2, math.asin(min(1.0, r / s3)), math.acos(q))

    lo = math.asin(min(1.0, r))
    hi = math.acos(min(1.0, q))
    if lo > hi:
        return None

    def gap(t3: float) -> float:
        c3, s3 = math.cos(t3), math.sin(t3)
        s1 = q / c3 if c3 > 0 else math.inf
        s2 = r / s3 if s3 > 0 else math.inf
        if s1 > 1.0 or s2 > 1.0:
            return -1.0
        return math.sqrt(1.0 - s1 * s1) * math.sqrt(1.0 - s2 * s2) - p

    res = minimize_scalar(lambda t: -gap(t), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-15})
    t_peak = float(res.x)
    g_peak = gap(t_peak)
    if g_peak < -1e-7:
        return None
    if g_peak <= 0.0:
        t3 = t_peak
    elif gap(lo) >= 0.0:
        t3 = lo
    else:
        t3 = brentq(gap, lo, t_peak, xtol=2e-16, rtol=8.9e-16)
    c3, s3 = math.cos(t3), math.sin(t3)
    s1 = min(1.0, q / c3) if c3 > 0 else 1.0
    s2 = min(1.0, r / s3) if s3 > 0 else 1.0
    return (math.asin(s1), math.asin(s2), t3)


def json_oracle(obj) -> str:
    """What ``serialize.dumps_json`` must write, byte for byte: the standard
    library's indented, key-sorted dump (its pure-Python encoder), with
    numpy arrays written as their ``tolist()``."""
    return json.dumps(obj, sort_keys=True, indent=1, default=np.ndarray.tolist) + "\n"


def json_load_oracle(text: str):
    """What ``serialize.load_json`` must return for a file whose text is
    ``text``: ``json.loads(text)``, with each non-empty list of ints and
    floats only (no booleans) replaced by its ``np.asarray``, read-only.
    Then, from the leaves up, a list whose items all became int64 or
    float64 arrays of one shape is replaced by ``np.asarray`` of json's
    nested list, read-only."""

    def arrays_at_leaves(value):
        if isinstance(value, dict):
            return {key: arrays_at_leaves(v) for key, v in value.items()}
        if not isinstance(value, list):
            return value
        if value and all(type(v) in (int, float) for v in value):
            arr = np.asarray(value)
            arr.setflags(write=False)
            return arr
        items = [arrays_at_leaves(v) for v in value]
        if (items and all(isinstance(v, np.ndarray) and v.dtype.name in ("int64", "float64")
                          for v in items)
                and len({v.shape for v in items}) == 1):
            arr = np.asarray(value)
            arr.setflags(write=False)
            return arr
        return items

    return arrays_at_leaves(json.loads(text))


def tree_bits(value):
    """``value`` with each array and float replaced by a record of its exact
    bits (and an array's dtype, shape and writeability), so that two trees
    compare equal only when they are identical bit for bit."""
    if isinstance(value, np.ndarray):
        data = value.tolist() if value.dtype == object else value.tobytes()
        return ("array", value.dtype.str, value.shape, value.flags.writeable, data)
    if isinstance(value, dict):
        return ("dict", [(key, tree_bits(v)) for key, v in value.items()])
    if isinstance(value, list):
        return ("list", [tree_bits(v) for v in value])
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)
