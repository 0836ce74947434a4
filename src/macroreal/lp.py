"""Dense linear programming with self-verifying certificates.

Programs are stated over nonnegative variables with equality rows and
upper-bound inequality rows. The solver is a two-phase tableau simplex with
Bland's anti-cycling rule. Every verdict carries a certificate: an optimal
(or feasible) point together with dual multipliers, or a Farkas ray proving
infeasibility; ``verify_certificate`` re-checks either kind against the
original program.

Pricing is incremental: each phase prices every column once, and after
each pivot on (row r, column e) the reduced costs take the O(n) update
``rc -= rc[e] * T[r]`` with the new pivot row, instead of the O(m n)
product ``c_B @ T``. Before a phase ends (optimal or unbounded) the
columns are priced in full once more; if that fresh pricing still admits
an entering column, the phase goes on from it. So a verdict never rests on
accumulated rounding.

The ratio test keeps Bland's rule (smallest basic variable among the
minimum-ratio rows) with two guards against pivots on rounding-sized
entries. A basic value that rounding left slightly negative counts as
zero, so a 1e-8 entry over a -1e-16 value cannot produce the lone most
negative ratio. Among tied rows, those whose entry exceeds ``PIVOT_TOL``
go first; an entry in (``FEAS_TOL``, ``PIVOT_TOL``] is pivoted on only when
no tied row offers a larger one. Without the guards, EMMR programs whose
Born probabilities fall to 1e-8 (alpha near 0.5553 at d=6 and 10) pivoted
on such entries and pushed the right-hand side past 1e20 until the pivot
budget ran out. Solves that never meet such an entry follow the same path
as plain Bland's rule.

A phase-1 leftover above ``FEAS_TOL`` but within ``CERT_TOL`` whose Farkas
ray fails re-verification is rounding, not infeasibility (a pivot on a 1e-8
entry scales the rhs error by 1e8); the solve then goes on to phase 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9        # simplex pricing / feasibility tolerance
PIVOT_TOL = 1e-6       # ratio-test ties go to entries above this first
CERT_TOL = 1e-7        # certificate re-verification budget
MAX_PIVOTS = 200_000

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "feasible"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"


class PivotBudgetError(RuntimeError):
    """The simplex made more than ``MAX_PIVOTS`` pivots without a verdict."""


@dataclass(frozen=True)
class LinearProgram:
    """max (or min) c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0."""

    objective: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    maximize: bool = True

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = c.shape[0]
        a_eq, b_eq = _normalize_block(self.a_eq, self.b_eq, n, "eq")
        a_ub, b_ub = _normalize_block(self.a_ub, self.b_ub, n, "ub")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


def _normalize_block(a, b, n: int, kind: str):
    if a is None or (hasattr(a, "__len__") and len(a) == 0):
        return np.zeros((0, n)), np.zeros(0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape[1] != n:
        raise ValueError(f"{kind} matrix has {a.shape[1]} columns, expected {n}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"{kind} matrix/vector row mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a, b


@dataclass(frozen=True)
class LPOutcome:
    """Solver verdict plus the certificate data backing it.

    ``x`` and the duals are populated for optimal/feasible verdicts;
    ``farkas_eq``/``farkas_ub`` hold the infeasibility ray otherwise.
    ``value`` is reported in the program's own sense.
    """

    status: str
    value: float | None = None
    x: np.ndarray | None = None
    dual_eq: np.ndarray | None = None
    dual_ub: np.ndarray | None = None
    farkas_eq: np.ndarray | None = None
    farkas_ub: np.ndarray | None = None
    pivots: int = 0


class _Simplex:
    """Tableau simplex over the sign-normalized system A x = b, b >= 0."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.m, self.n = a.shape
        self.a = a
        self.table = np.hstack([a, np.eye(self.m), b[:, None]])
        self.basis = list(range(self.n, self.n + self.m))  # start on artificials
        self.live = list(range(self.m))                    # original row ids kept
        self.pivots = 0

    def _pivot(self, row: int, col: int) -> None:
        t = self.table
        t[row] = t[row] / t[row, col]
        other = np.abs(t[:, col]) > 0.0
        other[row] = False
        t[other] -= np.outer(t[other, col], t[row])
        self.basis[row] = col
        self.pivots += 1

    def run(self, cost: np.ndarray) -> str:
        """Bland's rule: smallest eligible entering column, smallest basic
        variable among the minimum-ratio rows, rows with entries above
        PIVOT_TOL first."""
        enterable = self.n  # artificial columns never re-enter
        rc = None           # reduced costs; None until priced in full
        while True:
            if self.pivots > MAX_PIVOTS:
                raise PivotBudgetError(
                    f"simplex pivot budget of {MAX_PIVOTS} exhausted"
                )
            fresh = rc is None
            if fresh:
                rc = cost[:enterable] - cost[self.basis] @ self.table[:, :enterable]
            candidates = np.where(rc < -FEAS_TOL)[0]
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
            rows = np.where(col > FEAS_TOL)[0]
            if rows.size == 0:
                if fresh:
                    return "unbounded"
                rc = None
                continue
            ratios = np.maximum(self.table[rows, -1], 0.0) / col[rows]
            best = ratios.min()
            tied = rows[ratios <= best + FEAS_TOL]
            sound = tied[col[tied] > PIVOT_TOL]
            if sound.size:
                tied = sound
            leave = int(min(tied, key=lambda r: self.basis[r]))
            self._pivot(leave, entering)
            rc -= rc[entering] * self.table[leave, :enterable]

    def drop_redundant_rows(self) -> None:
        """Remove rows whose artificial stayed basic with no pivot available."""
        keep = []
        for i in range(len(self.basis)):
            if self.basis[i] >= self.n:
                row = self.table[i, : self.n]
                j = int(np.argmax(np.abs(row)))
                if abs(row[j]) > FEAS_TOL:
                    self._pivot(i, j)
                    keep.append(i)
                # else: 0 = 0 row, redundant
            else:
                keep.append(i)
        if len(keep) != len(self.basis):
            self.table = self.table[keep]
            self.basis = [self.basis[i] for i in keep]
            self.live = [self.live[i] for i in keep]
            self.m = len(keep)

    def solution(self) -> np.ndarray:
        x = np.zeros(self.n)
        for i, j in enumerate(self.basis):
            if j < self.n:
                x[j] = self.table[i, -1]
        return x

    def duals(self, cost: np.ndarray, n_rows_orig: int) -> np.ndarray:
        """Solve B^T y = c_B on the live rows; dropped rows get dual zero."""
        basis = np.array(self.basis, dtype=int)
        live = np.array(self.live, dtype=int)
        real = basis < self.n
        basis_cols = np.zeros((self.m, self.m))
        basis_cols[:, real] = self.a[np.ix_(live, basis[real])]
        basis_cols[:, ~real] = live[:, None] == basis[~real] - self.n
        y_live = np.linalg.solve(basis_cols.T, cost[basis])
        y = np.zeros(n_rows_orig)
        y[self.live] = y_live
        return y


def solve_lp(program: LinearProgram) -> LPOutcome:
    """Two-phase dense simplex with Bland's rule.

    Infeasible programs come back with a Farkas ray (y, z): z <= 0,
    A_eq^T y + A_ub^T z <= 0 componentwise, and b_eq.y + b_ub.z > 0,
    which no feasible x >= 0 can satisfy. Unbounded objectives are a
    distinct status.
    """
    n = program.n_vars
    n_eq = program.a_eq.shape[0]
    n_ub = program.a_ub.shape[0]
    m = n_eq + n_ub

    # slack columns turn the inequality block into equalities
    a_all = np.zeros((m, n + n_ub))
    a_all[:n_eq, :n] = program.a_eq
    a_all[n_eq:, :n] = program.a_ub
    a_all[n_eq:, n:] = np.eye(n_ub)
    b_all = np.concatenate([program.b_eq, program.b_ub])
    flip = b_all < 0.0
    a_all[flip] = -a_all[flip]      # sign-normalize in place: b >= 0
    b_all[flip] = -b_all[flip]

    sx = _Simplex(a_all, b_all)
    n_cols = sx.n

    phase1 = np.concatenate([np.zeros(n_cols), np.ones(m)])
    sx.run(phase1)
    infeasibility = float(phase1[sx.basis] @ sx.table[:, -1])
    if infeasibility > FEAS_TOL:
        y = np.where(flip, -1.0, 1.0) * sx.duals(phase1, m)
        scale = np.abs(y).max()
        if scale > 1.0:
            y = y / scale
        outcome = LPOutcome(
            status=STATUS_INFEASIBLE,
            farkas_eq=y[:n_eq],
            farkas_ub=y[n_eq:],
            pivots=sx.pivots,
        )
        # A leftover within the certificate budget that no ray proves is
        # rounding (pivots on 1e-8 entries scale the rhs error by 1e8):
        # go on to phase 2 from the nearly feasible point.
        if infeasibility > CERT_TOL or verify_certificate(program, outcome) <= CERT_TOL:
            return outcome

    sx.drop_redundant_rows()
    sense = -1.0 if program.maximize else 1.0
    phase2 = np.concatenate(
        [sense * program.objective, np.zeros(n_ub), np.zeros(m)]
    )
    if sx.run(phase2) == "unbounded":
        return LPOutcome(status=STATUS_UNBOUNDED, pivots=sx.pivots)

    x = sx.solution()[:n]
    value = float(program.objective @ x)
    y_int = np.where(flip, -1.0, 1.0) * sx.duals(phase2, m)
    y_user = -y_int if program.maximize else y_int
    status = STATUS_OPTIMAL if program.objective.any() else STATUS_FEASIBLE
    return LPOutcome(
        status=status,
        value=value,
        x=x,
        dual_eq=y_user[:n_eq],
        dual_ub=y_user[n_eq:],
        pivots=sx.pivots,
    )


def verify_certificate(program: LinearProgram, outcome: LPOutcome) -> float:
    """Maximum violation of the certificate carried by ``outcome``.

    Optimal/feasible: primal residuals, dual feasibility, and the duality
    gap. Infeasible: the Farkas ray conditions; a ray that gains less than
    ``CERT_TOL`` proves nothing within the budget, so it reports the budget
    plus its shortfall and never passes.
    """
    if outcome.status == STATUS_UNBOUNDED:
        raise ValueError("unbounded outcomes carry no certificate to verify")
    if outcome.status == STATUS_INFEASIBLE:
        y = outcome.farkas_eq
        z = outcome.farkas_ub
        if y is None or z is None:
            raise ValueError("infeasible outcome lacks a Farkas certificate")
        combo = program.a_eq.T @ y + program.a_ub.T @ z
        gain = float(program.b_eq @ y + program.b_ub @ z)
        viol = max(
            float(combo.max(initial=0.0)),
            float(z.max(initial=0.0)),
        )
        if gain < CERT_TOL:
            viol = max(viol, 2.0 * CERT_TOL - gain)
        return viol

    x = outcome.x
    if x is None:
        raise ValueError("outcome lacks a primal point")
    viol = float(-x.min(initial=0.0))
    if program.a_eq.shape[0]:
        viol = max(viol, float(np.abs(program.a_eq @ x - program.b_eq).max()))
    if program.a_ub.shape[0]:
        viol = max(viol, float((program.a_ub @ x - program.b_ub).max(initial=0.0)))
    if outcome.status == STATUS_OPTIMAL and outcome.dual_eq is not None:
        y, z = outcome.dual_eq, outcome.dual_ub
        reduced = program.objective - program.a_eq.T @ y - program.a_ub.T @ z
        if program.maximize:
            viol = max(viol, float(reduced.max(initial=0.0)))
            if z.size:
                viol = max(viol, float(-z.min(initial=0.0)))
        else:
            viol = max(viol, float(-reduced.min(initial=0.0)))
            if z.size:
                viol = max(viol, float(z.max(initial=0.0)))
        dual_value = float(program.b_eq @ y + program.b_ub @ z)
        viol = max(viol, abs(dual_value - float(outcome.value)))
    return viol
