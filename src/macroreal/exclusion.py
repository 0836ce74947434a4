"""LP certification that no eigenstate-supported model matches the witness.

The search space is the finite family of deterministic response atoms: one
chosen outcome per fragment measurement. Any finite-fragment model whose
atoms respond stochastically splits into a mixture of such atoms with the
same statistics, so verdicts hold within the deterministic-response model
class (and the reports say so). The atoms are one ``(n_atoms, n_meas)``
integer array: row a holds atom a's outcome index for each measurement, in
fragment order, and rows run in ``itertools.product`` order. Atom indices
in the accessible sets and LP columns are row indices of that array.
``WitnessExclusion`` computes every state's Born vectors and accessible set
once per witness, and every program reads them. Three programs matter:

* ``esmr``: two measures, both reproducing the witness state's statistics,
  supported on eigenstate-accessible atoms, with the transported measure
  carrying at least as much mass on the image state's atoms as the original
  carries on the macro eigenstate's. Infeasible for every valid alpha. Its
  Farkas ray is the paper's inequality chain, built in closed form from the
  accessible sets (``WitnessExclusion._esmr_ray``); no solver runs. Below
  alpha = 4.0825e-4 and within 7.07e-8 of 1/sqrt(2) it gains less than
  ``CERT_TOL`` and certifies nothing.
* ``emmr``: the same with both measures decomposed into per-value
  eigenstate blocks. Infeasible a fortiori. A function fills its equality
  matrix from the blocks: the simplex tableau whole, and the dense matrix
  once, after the tableau is freed, for the duals and the re-verification.
* ``max_overlap``: the quantum ceiling; maximizing the mass on the union of
  the two accessible sets under the statistics constraints alone lands at
  alpha^2 (1 + 2 alpha^2), short of the required 2 alpha^2.

Three controls drop premises: ``static_control`` the transport row,
``unconstrained_control`` the transport row and the eigenstate support, and
``macro_only_control`` every measurement but the macro one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import (
    FEAS_TOL,
    LinearProgram,
    LPOutcome,
    solve_lp,
    verify_certificate,
)
from .ontomodel import QuantumFragment
from .quantum import StateVector
from .witness import (
    AntidistReport,
    CertificationError,
    WitnessBundle,
    check_antidistinguishable,
    contradiction_gap,
)

STRICT_POS_EPS = FEAS_TOL  # accessibility threshold: the LP feasibility tolerance
MAX_ATOMS = 10**6

MEAS_ANTIDIST = "antidist"
MEAS_BPRIME = "bprime"
MEAS_MACRO = "macro"


def enumerate_atoms(fragment: QuantumFragment) -> np.ndarray:
    """Every deterministic response atom as one ``(n_atoms, n_meas)`` integer
    array: row a is atom a's outcome index per measurement, in fragment
    order. Rows run in ``itertools.product`` order (last measurement
    fastest), so row 0 is all zeros."""
    counts = [meas.n_outcomes for meas in fragment.measurements.values()]
    total = math.prod(counts)
    if total > MAX_ATOMS:
        raise ValueError(f"{total} response atoms exceed the {MAX_ATOMS} cap")
    return np.indices(counts).reshape(len(counts), total).T


def _block_program(
    marg: np.ndarray,
    psi_rhs: np.ndarray,
    halves: int,
    eigen_rhs: list | None = None,
    transport: np.ndarray | None = None,
) -> LinearProgram:
    """Feasibility program over ``halves`` measures on the columns of
    ``marg``, each measure split into one block per entry of ``eigen_rhs``
    (a single block when it is None).

    Rows, in order: every block matches its eigenstate's statistics scaled
    by the block mass, marg - born_q = 0 (blocks cycle through
    ``eigen_rhs`` in each half); the blocks of each half sum to the witness
    statistics ``psi_rhs``. ``transport``, a (2, n_cols) boolean array whose
    rows mark the columns accessible from zero and from phi, adds
    sum_{A_zero} mu' - sum_{A_phi} mu <= 0, with mu' the first half and mu
    the second: the transported measure must cover at least the eigenstate
    mass it started from.

    The equality matrix is not built here. The program's A_eq is a function
    that fills it: rows in groups of ``n_keys`` (one per row of ``marg``),
    columns in blocks of ``n_cols``; column block b holds ``marg - born_q``
    (q = b mod ``n_blocks``, entry by entry as the per-row assembly) in
    eigenstate group b and ``marg`` in its half's group. The simplex fills
    its tableau with it, and the dense matrix is built with it only when
    ``a_eq`` is first read, after the solve has freed its tableau.
    """
    n_keys, n_cols = marg.shape
    n_blocks = 1 if eigen_rhs is None else len(eigen_rhs)
    n_eigen = 0 if eigen_rhs is None else halves * n_blocks
    n_rows, n_vars = (n_eigen + halves) * n_keys, halves * n_blocks * n_cols

    def fill(out: np.ndarray) -> None:
        for b in range(halves * n_blocks):
            cols = slice(b * n_cols, (b + 1) * n_cols)
            if n_eigen:
                out[b * n_keys:(b + 1) * n_keys, cols] = marg - eigen_rhs[b % n_blocks][:, None]
            group = n_eigen + b // n_blocks
            out[group * n_keys:(group + 1) * n_keys, cols] = marg

    b_eq = np.zeros(n_rows)
    b_eq[n_rows - halves * n_keys:] = np.tile(psi_rhs, halves)
    a_ub = b_ub = None
    if transport is not None:
        zero_mask, phi_mask = transport
        width = n_vars // halves
        a_ub = np.zeros((1, n_vars))
        a_ub[0, :width] = np.tile(np.where(zero_mask, 1.0, 0.0), n_blocks)
        a_ub[0, width:] = np.tile(np.where(phi_mask, -1.0, 0.0), n_blocks)
        b_ub = np.zeros(1)
    return LinearProgram(objective=np.zeros(n_vars), a_eq=fill, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


def accessible_atoms(born: np.ndarray, rows: np.ndarray) -> list:
    """For each row of the Born table ``born`` (one state's Born vectors,
    concatenated in marginal-row order), the atoms that can carry positive
    weight in some measure reproducing that state's statistics: those whose
    largest feasible weight exceeds ``STRICT_POS_EPS``, as a read-only
    ascending index array. ``rows[m, a]`` is the marginal row of atom a's
    outcome for measurement m.

    That largest weight is the Fréchet bound w* = min_m p_m(o_m), where
    p_m is the state's Born distribution for measurement m and o_m the
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

    So a is accessible iff w* > STRICT_POS_EPS: one gather of the table at
    ``rows`` and one minimum over the measurements replace one LP per atom
    and state. The atoms, and with them the ESMR, EMMR and overlap
    programs, are those the per-atom LPs select.
    """
    sets = [np.flatnonzero(weight > STRICT_POS_EPS) for weight in born[:, rows].min(axis=1)]
    for accessible in sets:
        accessible.flags.writeable = False
    return sets


@dataclass(frozen=True)
class ExclusionReport:
    """One LP verdict with its re-verified certificate and context."""

    alpha: float
    mode: str
    program: LinearProgram
    outcome: LPOutcome
    certificate_residual: float
    atom_count: int
    accessible_sizes: dict
    explanation: str
    required_mass: float | None = None
    quantum_ceiling: float | None = None

    @property
    def status(self) -> str:
        return self.outcome.status

    @property
    def optimum(self) -> float | None:
        return self.outcome.value

    def to_json_dict(self) -> dict:
        cert = {attr: vec for attr in ("x", "dual_eq", "dual_ub", "farkas_eq", "farkas_ub")
                if (vec := getattr(self.outcome, attr)) is not None}
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
    """Shared context for the exclusion programs of one certified witness:
    the Born table (``fragment.born`` once per state and measurement), the
    marginal matrix, every accessible set, the eigen-union and the
    transport masks, all computed at construction."""

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
        self.fragment = witness_fragment(bundle, antidist.measurement)
        self.atoms = enumerate_atoms(self.fragment)
        # Marginal rows run (measurement, outcome): measurements in fragment
        # order, outcomes ascending. Measurement m's rows start at
        # _offsets[m], so rows[m, a] is the row of atom a's outcome there.
        measurements = self.fragment.measurements
        self._offsets = np.cumsum([0] + [meas.n_outcomes for meas in measurements.values()])
        rows = (self.atoms + self._offsets[:-1]).T
        self._marg = np.zeros((self._offsets[-1], len(self.atoms)))
        self._marg[rows, np.arange(len(self.atoms))] = 1.0
        self._marg.flags.writeable = False   # programs share it
        # one Born vector per state, in marginal-row order
        born = np.array([
            np.concatenate([self.fragment.born(state, m) for m in measurements])
            for state in self.fragment.states
        ])
        born.flags.writeable = False
        self._born = dict(zip(self.fragment.states, born))
        self._access = dict(zip(self.fragment.states, accessible_atoms(born, rows)))
        self._eigen_names = ["zero"] + [f"q{k}" for k in range(1, bundle.dim)]
        self._eigen_union = np.unique(np.concatenate([self._access[q] for q in self._eigen_names]))
        # rows 0 and 1 mark the atoms accessible from zero and from phi
        self._transport = np.zeros((2, len(self.atoms)), dtype=bool)
        self._transport[0, self._access["zero"]] = True
        self._transport[1, self._access["phi"]] = True
        gap = contradiction_gap(bundle.alpha)
        self._required, self._ceiling = gap.esmr_lower_bound, gap.quantum_upper_bound

    def accessible(self, target: str) -> np.ndarray:
        """The atoms that the target state's statistics let carry weight
        (``accessible_atoms``), as a read-only ascending index array."""
        if target not in self._access:
            raise ValueError(f"target {target!r} not in the fragment catalogue")
        return self._access[target]

    def _certify(
        self, mode: str, program: LinearProgram, outcome: LPOutcome, explain, *,
        targets, atom_count: int, bounds: bool,
    ) -> ExclusionReport:
        """Re-verify ``outcome``'s certificate on ``program`` and report both.

        ``explain`` words the verdict from the outcome. ``targets`` name the
        accessible sets whose sizes the report lists, and ``atom_count`` the
        atoms the program's columns range over. ``bounds`` says whether the
        report carries the alpha bounds (required mass and quantum ceiling).
        """
        return ExclusionReport(
            alpha=self.bundle.alpha,
            mode=mode,
            program=program,
            outcome=outcome,
            certificate_residual=verify_certificate(program, outcome),
            atom_count=atom_count,
            accessible_sizes={t: len(self.accessible(t)) for t in targets},
            explanation=explain(outcome),
            required_mass=self._required if bounds else None,
            quantum_ceiling=self._ceiling if bounds else None,
        )

    # -- the three programs --------------------------------------------------

    def _esmr_ray(self) -> LPOutcome:
        """The paper's ESMR contradiction as a Farkas ray of the ESMR
        program, whose columns are the eigen-union's atoms.

        Write mu' for the first half (psi before the fixing unitary), mu for
        the second (psi after it), B for bprime and D for the
        anti-distinguishing measurement. Three sets of outcomes carry the
        chain:

        * Z, the B outcomes of zero's atoms. Of the macro eigenstates only
          zero reaches them, so every column with a B outcome in Z is
          in A_zero, and mu'(A_zero) >= mu'(B in Z) = psi_B(Z) = alpha^2.
        * N, the D outcomes of phi's atoms whose B outcome lies in Z, and
          H, the B outcomes of the phi atoms whose D outcome is outside N.
          Every phi atom then has its D outcome in N or its B outcome in H,
          so mu(A_phi) <= psi_D(N) + psi_B(H). N, when phi shares atoms
          with zero, is the outcome that excludes psi, so psi_D(N) = 0; H
          is phi's other B outcomes, where psi puts beta^2 = 2 alpha^4.
        * The transport row, mu'(A_zero) <= mu(A_phi), closes the chain:
          alpha^2 <= 2 alpha^4, which fails below 1/sqrt 2 by the gain
          alpha^2 (1 - 2 alpha^2).

        In units of 1/3: half one takes 3 on the B rows in Z, half two -3 on
        the D rows in N and on the B rows in H, and the transport row -3.
        Each measurement's rows sum to the half's mass, so adding 1 to every
        row of a half and -3 to every row of one measurement there changes
        no column and no gain; half one takes that gauge on B, half two on
        D, as at the simplex's vertex. ``LPOutcome.farkas`` scales it as it
        scales ``solve_lp``'s rays. Within about 1.118e-5 of 1/sqrt 2, phi's
        B and macro probabilities on zero's outcome, (1 - 2 alpha^2)^2,
        fall below ``STRICT_POS_EPS``: phi shares no atom with zero, N is
        empty and the ray is in thirds. Elsewhere N's -5/3 rows scale it to
        fifths and the gain to 3/5 of the above. Wherever they certify, both
        are the simplex's rays bit for bit.
        """
        names = list(self.fragment.measurements)
        i_d, i_b = names.index(MEAS_ANTIDIST), names.index(MEAS_BPRIME)
        start = self._offsets
        columns = self.atoms[self._eigen_union]
        transport = self._transport[:, self._eigen_union]
        zero_b = np.unique(columns[transport[0], i_b])
        phi = columns[transport[1]]
        n_out = np.unique(phi[np.isin(phi[:, i_b], zero_b), i_d])
        h_out = np.unique(phi[~np.isin(phi[:, i_d], n_out), i_b])

        thirds = np.ones((2, start[-1]))
        thirds[0, start[i_b] : start[i_b + 1]] -= 3.0
        thirds[0, start[i_b] + zero_b] += 3.0
        thirds[1, start[i_d] : start[i_d + 1]] -= 3.0
        thirds[1, start[i_d] + n_out] -= 3.0
        thirds[1, start[i_b] + h_out] -= 3.0
        return LPOutcome.farkas(np.append(thirds, -3.0), thirds.size)

    def esmr(self) -> ExclusionReport:
        """Two-measure feasibility program for eigenstate-supported models,
        certified by the closed-form ray alone: always infeasible, with a
        residual over budget where the ray gains less than ``CERT_TOL``."""
        allowed = self._eigen_union
        program = _block_program(
            self._marg[:, allowed], self._born["psi"], halves=2,
            transport=self._transport[:, allowed],
        )
        return self._certify("esmr", program, self._esmr_ray(), lambda outcome: (
            "Within the deterministic-response model class, any "
            "eigenstate-supported measure pair must put "
            f"{self._required:.6f} = 2 alpha^2 of mass on the accessible atoms of "
            "{phi, zero}, while the witness statistics cap that mass at "
            f"alpha^2 (1 + 2 alpha^2) = {self._ceiling:.6f}; the program is "
            f"{outcome.status}."
        ), targets=self._eigen_names + ["phi"], atom_count=len(self.atoms), bounds=True)

    def emmr(self) -> ExclusionReport:
        """Per-value block decomposition; each block reproduces its
        eigenstate's statistics scaled by the block mass."""
        program = _block_program(
            self._marg,
            self._born["psi"],
            halves=2,
            eigen_rhs=[self._born[q] for q in self._eigen_names],
            transport=self._transport,
        )
        return self._certify("emmr", program, solve_lp(program), lambda outcome: (
            "Eigenstate-mixture decompositions inherit the eigenstate "
            "support constraint, so the contradiction chain applies "
            f"unchanged; the program is {outcome.status}."
        ), targets=self._eigen_names + ["phi"], atom_count=len(self.atoms), bounds=True)

    def max_overlap(self) -> ExclusionReport:
        """Maximal mass on the accessible atoms of {phi, zero} under the
        witness statistics alone; the optimum is the quantum ceiling."""
        program = LinearProgram(
            objective=self._transport.any(axis=0).astype(float),
            a_eq=self._marg,
            b_eq=self._born["psi"],
        )
        return self._certify("max_overlap", program, solve_lp(program), lambda outcome: (
            f"Maximum joint accessible mass is {outcome.value:.9f}; macro-"
            f"realism needs {self._required:.9f}, leaving a deficit of "
            f"{self._required - (outcome.value or 0.0):.9f}."
        ), targets=["zero", "phi"], atom_count=len(self.atoms), bounds=True)

    # -- the controls: verdicts recorded, not asserted ----------------------

    def static_control(self) -> ExclusionReport:
        """ESMR without the transport row; mode ``esmr_static_control``."""
        return self._esmr_control("esmr_static_control", self._marg[:, self._eigen_union])

    def unconstrained_control(self) -> ExclusionReport:
        """ESMR, mode ``esmr_unconstrained_control``, without the transport
        row and without the eigenstate support; every atom is a column."""
        return self._esmr_control("esmr_unconstrained_control", self._marg)

    def _esmr_control(self, mode: str, marg: np.ndarray) -> ExclusionReport:
        program = _block_program(marg, self._born["psi"], halves=2)
        return self._certify(mode, program, solve_lp(program), lambda outcome: (
            f"Control program ({mode}); the solver verdict is recorded, "
            "not asserted."
        ), targets=self._eigen_names + ["phi"], atom_count=len(self.atoms), bounds=True)

    def macro_only_control(self) -> ExclusionReport:
        """EMMR with the macro measurement alone, one measure and no
        transport row. Its atoms are the d macro outcomes, so its marginal
        matrix is the identity; mixtures of macro eigenstates reproduce any
        macro statistics. Mode ``emmr_macro_only``."""
        i_m = list(self.fragment.measurements).index(MEAS_MACRO)
        macro = slice(self._offsets[i_m], self._offsets[i_m + 1])
        program = _block_program(
            np.eye(self.bundle.dim),
            self._born["psi"][macro],
            halves=1,
            eigen_rhs=[self._born[q][macro] for q in self._eigen_names],
        )
        return self._certify("emmr_macro_only", program, solve_lp(program), lambda outcome: (
            "Macro-only control: mixtures of macro eigenstates reproduce "
            f"any macro statistics; the program is {outcome.status}."
        ), targets=(), atom_count=self.bundle.dim, bounds=False)
