"""LP certification that no eigenstate-supported model matches the witness.

The search space is the finite family of deterministic response atoms: one
chosen outcome per fragment measurement. Any finite-fragment model whose
atoms respond stochastically splits into a mixture of such atoms with the
same statistics, so verdicts hold within the deterministic-response model
class (and the reports say so). Three programs matter:

* ``esmr``: two measures, both reproducing the witness state's statistics,
  supported on eigenstate-accessible atoms, with the transported measure
  carrying at least as much mass on the image state's atoms as the original
  carries on the macro eigenstate's. Infeasible for every valid alpha.
* ``emmr``: the same with both measures decomposed into per-value
  eigenstate blocks. Infeasible a fortiori.
* ``max_overlap``: the quantum ceiling; maximizing the mass on the union of
  the two accessible sets under the statistics constraints alone lands at
  alpha^2 (1 + 2 alpha^2), short of the required 2 alpha^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lp import (
    CERT_TOL,
    LinearProgram,
    LPOutcome,
    solve_lp,
    verify_certificate,
)
from .ontomodel import QuantumFragment
from .quantum import StateVector, born
from .witness import (
    AntidistReport,
    CertificationError,
    WitnessBundle,
    check_antidistinguishable,
)

STRICT_POS_EPS = 1e-9      # accessibility threshold, matching LP feasibility
MAX_ATOMS = 10**6

MEAS_ANTIDIST = "antidist"
MEAS_BPRIME = "bprime"
MEAS_MACRO = "macro"
ALL_MEASUREMENTS = (MEAS_ANTIDIST, MEAS_BPRIME, MEAS_MACRO)


@dataclass(frozen=True)
class ResponseAtom:
    """One deterministic outcome choice per fragment measurement."""

    outcomes: tuple          # outcome index per measurement, fragment order
    labels: tuple            # matching outcome labels

    def __str__(self) -> str:
        return "|".join(self.labels)


def enumerate_atoms(fragment: QuantumFragment) -> list:
    """Full Cartesian product of outcome choices, in measurement order."""
    meas_names = list(fragment.measurements)
    counts = [fragment.measurements[m].n_outcomes for m in meas_names]
    total = math.prod(counts)
    if total > MAX_ATOMS:
        raise ValueError(f"{total} response atoms exceed the {MAX_ATOMS} cap")
    atoms = []
    for combo in itertools.product(*[range(c) for c in counts]):
        labels = tuple(
            fragment.measurements[m].outcomes[k] for m, k in zip(meas_names, combo)
        )
        atoms.append(ResponseAtom(tuple(combo), labels))
    return atoms


def _marginal_matrix(fragment: QuantumFragment, atoms: list) -> tuple:
    """Rows summing atom weight per (measurement, outcome), plus row keys."""
    meas_names = list(fragment.measurements)
    outcome_grid = np.array([a.outcomes for a in atoms])  # (n_atoms, n_meas)
    rows = []
    keys = []
    for mi, mname in enumerate(meas_names):
        for o in range(fragment.measurements[mname].n_outcomes):
            rows.append((outcome_grid[:, mi] == o).astype(float))
            keys.append((mname, o))
    return np.array(rows), keys


def _born_rhs(fragment: QuantumFragment, keys: list, state_name: str) -> np.ndarray:
    borns = {m: fragment.born(state_name, m) for m in fragment.measurements}
    return np.array([borns[m][o] for m, o in keys])


def accessible_atoms(
    fragment: QuantumFragment, target: str, atoms: list
) -> tuple:
    """Atoms that can carry positive weight in some measure reproducing the
    target state's statistics: those whose largest feasible weight exceeds
    ``STRICT_POS_EPS``.

    That largest weight is the Fréchet bound w* = min_m p_m(o_m), where
    p_m is the target's Born distribution for measurement m and o_m the
    outcome atom a chooses there; the constraints fix each marginal of the
    measure to p_m.

    * w(a) <= w*: the (m, o_m) marginal adds a's weight to other
      nonnegative weights, so w(a) <= p_m(o_m) for every m.
    * w* is attained: put w* on a. The remainders
      r_m = p_m - w* [o = o_m] are nonnegative and each sums to 1 - w*.
      If w* < 1, add the product measure (1 - w*) prod_m (r_m(o'_m) / (1 - w*))
      over all atoms o'; its marginals are the r_m, so the sum reproduces
      every p_m. Its weight on a is zero, because r_m(o_m) = 0 at the
      minimizing m.

    So a is accessible iff w* > STRICT_POS_EPS: one vectorised minimum over
    the measurements replaces one LP per atom. The atoms, and with them the
    ESMR, EMMR and overlap programs, are those the per-atom LPs select.
    """
    if target not in fragment.states:
        raise ValueError(f"target {target!r} not in the fragment catalogue")
    grid = np.array([a.outcomes for a in atoms], dtype=int).reshape(
        len(atoms), len(fragment.measurements)
    )
    weight = np.full(len(atoms), np.inf)
    for mi, mname in enumerate(fragment.measurements):
        born_m = np.asarray(fragment.born(target, mname))
        weight = np.minimum(weight, born_m[grid[:, mi]])
    return tuple(np.flatnonzero(weight > STRICT_POS_EPS).tolist())


@dataclass(frozen=True)
class ExclusionReport:
    """One LP verdict with its re-verified certificate and context."""

    alpha: float
    mode: str
    status: str
    optimum: float | None
    program: LinearProgram
    outcome: LPOutcome
    certificate_residual: float
    atom_count: int
    accessible_sizes: dict
    explanation: str
    required_mass: float | None = None
    quantum_ceiling: float | None = None

    def to_json_dict(self) -> dict:
        cert: dict = {}
        for attr in ("x", "dual_eq", "dual_ub", "farkas_eq", "farkas_ub"):
            vec = getattr(self.outcome, attr)
            if vec is not None:
                cert[attr] = [float(v) for v in vec]
        return {
            "alpha": self.alpha,
            "mode": self.mode,
            "status": self.status,
            "optimum": None if self.optimum is None else float(self.optimum),
            "certificate": cert,
            "certificate_residual": float(self.certificate_residual),
            "atom_counts": {"total": self.atom_count},
            "accessible_set_sizes": {k: int(v) for k, v in self.accessible_sizes.items()},
            "required_mass": self.required_mass,
            "quantum_ceiling": self.quantum_ceiling,
            "explanation": self.explanation,
        }


def witness_fragment(bundle: WitnessBundle, antidist_measurement) -> QuantumFragment:
    """The three-measurement fragment the exclusion programs quantify over."""
    dim = bundle.dim
    states = {"psi": bundle.psi, "phi": bundle.phi, "zero": bundle.zero}
    for k in range(1, dim):
        proj = bundle.basis_bq.projectors[k]
        # rank-one projector: recover its ray
        col = np.argmax(np.abs(np.diag(proj)))
        vec = proj[:, col] / np.linalg.norm(proj[:, col])
        states[f"q{k}"] = StateVector(vec)
    return QuantumFragment(
        dim=dim,
        states=states,
        unitaries={"fixing": bundle.fixing_unitary},
        measurements={
            MEAS_ANTIDIST: antidist_measurement,
            MEAS_BPRIME: bundle.basis_bprime,
            MEAS_MACRO: bundle.basis_bq,
        },
        macro_observable=MEAS_MACRO,
    )


class WitnessExclusion:
    """Shared context for the exclusion programs of one certified witness.

    Accessible-atom sets are computed once per target and reused across the
    ESMR, EMMR, and overlap programs.
    """

    def __init__(self, bundle: WitnessBundle, antidist: AntidistReport | None = None):
        if antidist is None:
            antidist = check_antidistinguishable(bundle.psi, bundle.phi, bundle.zero)
        if not antidist.certified:
            raise CertificationError(
                "witness triple is not certified anti-distinguishable; "
                "the exclusion programs are only sound with the excluding "
                "measurement in the fragment"
            )
        self.bundle = bundle
        self.antidist = antidist
        self.fragment = witness_fragment(bundle, antidist.measurement)
        self.atoms = enumerate_atoms(self.fragment)
        self._access: dict[str, tuple] = {}
        self._eigen_names = ["zero"] + [f"q{k}" for k in range(1, bundle.dim)]

    def accessible(self, target: str) -> tuple:
        if target not in self._access:
            self._access[target] = accessible_atoms(self.fragment, target, self.atoms)
        return self._access[target]

    def _accessible_sizes(self, targets) -> dict:
        return {t: len(self.accessible(t)) for t in targets}

    def _eigen_union(self) -> tuple:
        hit = set()
        for name in self._eigen_names:
            hit.update(self.accessible(name))
        return tuple(sorted(hit))

    def _transform_row(self, n_vars: int, mu_prime_cols: dict, mu_cols: dict) -> np.ndarray:
        """sum_{A_zero} mu' - sum_{A_phi} mu <= 0, i.e. the transported
        measure must cover at least the eigenstate mass it started from."""
        row = np.zeros(n_vars)
        for atom_idx in self.accessible("zero"):
            col = mu_prime_cols.get(atom_idx)
            if col is not None:
                row[col] += 1.0
        for atom_idx in self.accessible("phi"):
            col = mu_cols.get(atom_idx)
            if col is not None:
                row[col] -= 1.0
        return row

    # -- the three programs --------------------------------------------------

    def esmr(
        self, include_support: bool = True, include_transform: bool = True
    ) -> ExclusionReport:
        """Two-measure feasibility program for eigenstate-supported models."""
        allowed = list(self._eigen_union()) if include_support else list(range(len(self.atoms)))
        sub_atoms = [self.atoms[i] for i in allowed]
        marg, keys = _marginal_matrix(self.fragment, sub_atoms)
        rhs = _born_rhs(self.fragment, keys, "psi")
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
            a_ub = self._transform_row(n_vars, mu_prime_cols, mu_cols)[None, :]
            b_ub = np.zeros(1)
        program = LinearProgram(
            objective=np.zeros(n_vars), a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub
        )
        outcome = solve_lp(program)
        residual = verify_certificate(program, outcome)
        alpha = self.bundle.alpha
        lower = 2.0 * alpha**2
        upper = alpha**2 * (1.0 + 2.0 * alpha**2)
        mode = "esmr" if (include_support and include_transform) else (
            "esmr_static_control" if include_support else "esmr_unconstrained_control"
        )
        if mode == "esmr":
            explanation = (
                "Within the deterministic-response model class, any "
                "eigenstate-supported measure pair must put "
                f"{lower:.6f} = 2 alpha^2 of mass on the accessible atoms of "
                "{phi, zero}, while the witness statistics cap that mass at "
                f"alpha^2 (1 + 2 alpha^2) = {upper:.6f}; the program is "
                f"{outcome.status}."
            )
        else:
            explanation = (
                f"Control program ({mode}); the solver verdict is recorded, "
                "not asserted."
            )
        return ExclusionReport(
            alpha=alpha,
            mode=mode,
            status=outcome.status,
            optimum=outcome.value,
            program=program,
            outcome=outcome,
            certificate_residual=residual,
            atom_count=len(self.atoms),
            accessible_sizes=self._accessible_sizes(self._eigen_names + ["phi"]),
            explanation=explanation,
            required_mass=lower,
            quantum_ceiling=upper,
        )

    def emmr(self, measurements: tuple = ALL_MEASUREMENTS) -> ExclusionReport:
        """Per-value block decomposition; each block reproduces its
        eigenstate's statistics scaled by the block mass.

        Restricting ``measurements`` to ("macro",) yields the classical
        control: eigenstate mixtures reproduce any macro statistics.
        """
        frag = self.fragment
        if tuple(measurements) != ALL_MEASUREMENTS:
            frag = QuantumFragment(
                dim=frag.dim,
                states=frag.states,
                unitaries=frag.unitaries,
                measurements={m: frag.measurements[m] for m in measurements},
                macro_observable=MEAS_MACRO,
            )
        atoms = enumerate_atoms(frag)
        marg, keys = _marginal_matrix(frag, atoms)
        n_atoms = len(atoms)
        full = tuple(measurements) == ALL_MEASUREMENTS
        n_blocks = 2 * len(self._eigen_names) if full else len(self._eigen_names)
        n_vars = n_blocks * n_atoms

        rows = []
        rhs_list = []
        # each block is a subnormalized measure matching its eigenstate's
        # statistics: marginal(rho_q) - mass(rho_q) * born(q) = 0
        for blk, qname in enumerate(self._eigen_names * (2 if full else 1)):
            q_rhs = _born_rhs(frag, keys, qname)
            off = blk * n_atoms
            for r, key_rhs in enumerate(q_rhs):
                row = np.zeros(n_vars)
                row[off : off + n_atoms] = marg[r] - key_rhs
                rows.append(row)
                rhs_list.append(0.0)
        # the block sums reproduce the witness state
        psi_rhs = _born_rhs(frag, keys, "psi")
        halves = (0, 1) if full else (0,)
        for half in halves:
            for r in range(len(keys)):
                row = np.zeros(n_vars)
                for blk in range(len(self._eigen_names)):
                    off = (half * len(self._eigen_names) + blk) * n_atoms
                    row[off : off + n_atoms] = marg[r]
                rows.append(row)
                rhs_list.append(psi_rhs[r])
        a_ub = b_ub = None
        if full:
            atom_pos = {tuple(a.outcomes): i for i, a in enumerate(atoms)}
            mu_prime_cols = {}
            mu_cols = {}
            row3 = np.zeros(n_vars)
            for atom_idx in self.accessible("zero"):
                pos = atom_pos[tuple(self.atoms[atom_idx].outcomes)]
                for blk in range(len(self._eigen_names)):
                    row3[blk * n_atoms + pos] += 1.0
            for atom_idx in self.accessible("phi"):
                pos = atom_pos[tuple(self.atoms[atom_idx].outcomes)]
                for blk in range(len(self._eigen_names), 2 * len(self._eigen_names)):
                    row3[blk * n_atoms + pos] -= 1.0
            a_ub = row3[None, :]
            b_ub = np.zeros(1)
        program = LinearProgram(
            objective=np.zeros(n_vars),
            a_eq=np.array(rows),
            b_eq=np.array(rhs_list),
            a_ub=a_ub,
            b_ub=b_ub,
        )
        outcome = solve_lp(program)
        residual = verify_certificate(program, outcome)
        alpha = self.bundle.alpha
        mode = "emmr" if full else "emmr_macro_only"
        if full:
            explanation = (
                "Eigenstate-mixture decompositions inherit the eigenstate "
                "support constraint, so the contradiction chain applies "
                f"unchanged; the program is {outcome.status}."
            )
        else:
            explanation = (
                "Macro-only control: mixtures of macro eigenstates reproduce "
                f"any macro statistics; the program is {outcome.status}."
            )
        return ExclusionReport(
            alpha=alpha,
            mode=mode,
            status=outcome.status,
            optimum=outcome.value,
            program=program,
            outcome=outcome,
            certificate_residual=residual,
            atom_count=n_atoms,
            accessible_sizes=self._accessible_sizes(self._eigen_names + ["phi"]) if full else {},
            explanation=explanation,
            required_mass=2.0 * alpha**2 if full else None,
            quantum_ceiling=alpha**2 * (1.0 + 2.0 * alpha**2) if full else None,
        )

    def max_overlap(self) -> ExclusionReport:
        """Maximal mass on the accessible atoms of {phi, zero} under the
        witness statistics alone; the optimum is the quantum ceiling."""
        marg, keys = _marginal_matrix(self.fragment, self.atoms)
        rhs = _born_rhs(self.fragment, keys, "psi")
        objective = np.zeros(len(self.atoms))
        for atom_idx in set(self.accessible("zero")) | set(self.accessible("phi")):
            objective[atom_idx] = 1.0
        program = LinearProgram(objective=objective, a_eq=marg, b_eq=rhs, maximize=True)
        outcome = solve_lp(program)
        residual = verify_certificate(program, outcome)
        alpha = self.bundle.alpha
        lower = 2.0 * alpha**2
        upper = alpha**2 * (1.0 + 2.0 * alpha**2)
        explanation = (
            f"Maximum joint accessible mass is {outcome.value:.9f}; macro-"
            f"realism needs {lower:.9f}, leaving a deficit of "
            f"{lower - (outcome.value or 0.0):.9f}."
        )
        return ExclusionReport(
            alpha=alpha,
            mode="max_overlap",
            status=outcome.status,
            optimum=outcome.value,
            program=program,
            outcome=outcome,
            certificate_residual=residual,
            atom_count=len(self.atoms),
            accessible_sizes=self._accessible_sizes(["zero", "phi"]),
            explanation=explanation,
            required_mass=lower,
            quantum_ceiling=upper,
        )


def exclude_esmr(bundle: WitnessBundle, antidist: AntidistReport | None = None) -> ExclusionReport:
    return WitnessExclusion(bundle, antidist).esmr()


def exclude_emmr(bundle: WitnessBundle, antidist: AntidistReport | None = None) -> ExclusionReport:
    return WitnessExclusion(bundle, antidist).emmr()


def max_overlap(bundle: WitnessBundle, antidist: AntidistReport | None = None) -> ExclusionReport:
    return WitnessExclusion(bundle, antidist).max_overlap()
