"""Dense linear programming with self-verifying certificates.

Programs are stated over nonnegative variables with equality rows and
upper-bound inequality rows. The solver is a two-phase tableau simplex with
Bland's anti-cycling rule; phase 1's artificial variables end with it, so
phase 2 and the primal point see only structural and slack columns. Every
verdict carries a certificate: an optimal (or feasible) point together with
dual multipliers, or a Farkas ray proving infeasibility;
``verify_certificate`` re-checks either kind against the original program.

A program's equality matrix may be a function that fills A_eq instead of
dense (``LinearProgram``). The solver takes its shapes from ``n_eq`` and
``n_ub`` and fills its tableau through ``write_eq``, so the tableau is the
solve's one copy of the program. Once the verdict is read the solve frees
the tableau, and only then do the duals read ``a_eq``, which builds the
dense matrix with the same fill (so with the tableau's floats) and keeps
it for ``verify_certificate``. So a solve from a fill makes the dense
solve's pivots and returns its bits, and the EMMR program is never held
twice. The one exception is the phase-1 leftover check below, whose duals
and re-verification run while the tableau lives.

The tableau and the dense matrix built from a fill are the solve's two
large arrays, and ``_zeros`` allocates both. Above ``DEMAND_ZERO_BYTES``
(32 MiB) they sit on demand-zero pages of a private anonymous mapping:
only the pages that the fill and the pivots write become resident, and
reads of the rest, as in pricing and re-verification, map the kernel's
shared zero page. The EMMR arrays are 94-96% zeros, and ``np.zeros`` would
advise huge pages for them, so one written cell would make 2 MiB resident.
At d=10 this cuts the EMMR call's rise in peak RSS from 39 to 12 MB, and
at d=16 from 336 to 56 MB. Smaller arrays come from ``np.zeros``: the heap
hands their freed blocks back warm, while demand-zero pages cost the d=8
EMMR call 6 500 more minor page faults and up to a fifth more time. The
values, and so every pivot and bit, are the same on either kind of array.

Pricing is incremental: each phase prices every column once, and after
each pivot on (row r, column e) the reduced costs take the update
``rc -= rc[e] * T[r]`` with the new pivot row, instead of the O(m n)
product ``c_B @ T``. Every basic column is an exact unit vector (a pivot
makes its column ``piv / piv`` = 1.0 and ``t - t*1.0`` = 0, and leaves the
other basic columns, zero in its row, alone), so its reduced cost is
exactly 0.0 and Bland's rule reads ``rc`` alone. Before a phase ends
(optimal or unbounded) the columns are priced in full once more; if that
fresh pricing still admits an entering column, the phase goes on from it.
So a verdict never rests on accumulated rounding.

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

Pivot updates are windowed. The window ``[lo, hi)`` runs from the pivot
row's first nonzero to its last. A pivot scales the window and the rhs of
its row, then, in the rows with a nonzero in the pivot column, updates the
window and the rhs column with the dense update's expression ``t - f*p``;
the reduced costs change only inside the window. The exclusion programs
keep each block's columns contiguous, so at d=10 the EMMR pivot row's ~330
nonzeros span ~480 of the tableau's 8 002 columns, and the window is read
and written as contiguous runs rather than gathered cell by cell. A cell
outside the window would have computed ``t - f*0``, which is ``t`` up to
the sign of a zero, and no sign of a zero is read: a zero stays zero
through later pivots and pricing, every decision compares against a
tolerance, and the rhs column, which yields ``x`` and the phase-1
leftover, is always updated. So the kernel makes the dense update's pivots
and returns its bits; the dense kernel survives as the test suite's
oracle.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9        # simplex pricing / feasibility tolerance
PIVOT_TOL = 1e-6       # ratio-test ties go to entries above this first
CERT_TOL = 1e-7        # certificate re-verification budget
MAX_PIVOTS = 200_000
DEMAND_ZERO_BYTES = 32 << 20   # larger arrays from _zeros sit on demand-zero pages

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "feasible"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"


class PivotBudgetError(RuntimeError):
    """The simplex made more than ``MAX_PIVOTS`` pivots without a verdict."""


def _zeros(shape: tuple) -> np.ndarray:
    """A C-contiguous float64 array of zeros. One above ``DEMAND_ZERO_BYTES``
    is a view of a private anonymous mapping, whose pages become resident
    only when written. Smaller arrays, and every array where the platform
    has no anonymous mappings, come from ``np.zeros``."""
    nbytes = 8 * math.prod(shape)
    anonymous = getattr(mmap, "MAP_ANONYMOUS", None)
    if nbytes <= DEMAND_ZERO_BYTES or anonymous is None:
        return np.zeros(shape)
    pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | anonymous)
    return np.frombuffer(pages, dtype=np.float64).reshape(shape)


class LinearProgram:
    """max c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0.

    ``a_eq`` is the dense matrix, or a function ``fill(out)`` that fills
    ``out`` (zeros, of shape ``(len(b_eq), len(objective))``) with A_eq.
    The simplex fills its tableau through ``write_eq``. The ``a_eq``
    attribute builds the dense matrix with the fill on first read and keeps
    it; the duals and certificate re-verification read it, after the solve
    has freed its tableau. An empty objective, a matrix without its
    right-hand side (or the reverse) or a non-finite entry raises
    ``ValueError``. Programs are read-only once built.
    """

    def __init__(self, objective, a_eq=None, b_eq=None, a_ub=None, b_ub=None):
        self.objective = _floats(objective, "objective")
        if not self.n_vars:
            raise ValueError("objective has no entries: a program needs a variable")
        if callable(a_eq):   # the fill, until ``a_eq`` is first read
            self._a_eq, self.b_eq = a_eq, _floats(b_eq, "eq right-hand side")
        else:
            self._a_eq, self.b_eq = _normalize_block(a_eq, b_eq, self.n_vars, "eq")
        self.a_ub, self.b_ub = _normalize_block(a_ub, b_ub, self.n_vars, "ub")

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def n_eq(self) -> int:
        return self.b_eq.shape[0]

    @property
    def n_ub(self) -> int:
        return self.b_ub.shape[0]

    @property
    def a_eq(self) -> np.ndarray:
        if callable(self._a_eq):
            dense = _zeros((self.n_eq, self.n_vars))
            self._a_eq(dense)
            self._a_eq = dense
        return self._a_eq

    def write_eq(self, out: np.ndarray) -> None:
        """Fill ``out`` (zeros on entry) with A_eq."""
        if callable(self._a_eq):
            self._a_eq(out)
        else:
            out[...] = self._a_eq


def _floats(values, what: str) -> np.ndarray:
    """``values`` as a float array; they must be given and finite."""
    if values is None:
        raise ValueError(f"{what} is missing")
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.isfinite(values).all():
        raise ValueError(f"{what} has a non-finite entry")
    return values


def _normalize_block(a, b, n: int, kind: str):
    if a is None or (hasattr(a, "__len__") and len(a) == 0):
        if b is not None and np.size(b):
            raise ValueError(f"{kind} right-hand side has no matrix rows")
        return np.zeros((0, n)), np.zeros(0)
    a = np.atleast_2d(_floats(a, f"{kind} matrix"))
    b = _floats(b, f"{kind} right-hand side")
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
    """

    status: str
    value: float | None = None
    x: np.ndarray | None = None
    dual_eq: np.ndarray | None = None
    dual_ub: np.ndarray | None = None
    farkas_eq: np.ndarray | None = None
    farkas_ub: np.ndarray | None = None
    pivots: int = 0

    @classmethod
    def farkas(cls, ray: np.ndarray, n_eq: int, pivots: int = 0) -> "LPOutcome":
        """Infeasible outcome whose Farkas ray (``n_eq`` entries of y, then z)
        is ``ray``, divided entry by entry by its largest magnitude if above 1;
        the simplex's rays and the closed-form ESMR ray alike are formed here."""
        scale = np.abs(ray).max()
        if scale > 1.0:
            ray = ray / scale
        return cls(STATUS_INFEASIBLE, farkas_eq=ray[:n_eq], farkas_ub=ray[n_eq:], pivots=pivots)


class _Simplex:
    """Tableau simplex over the sign-normalized system A x = b, b >= 0.

    ``A`` is ``[A_eq; A_ub]`` with a slack column for each inequality row,
    and every row whose rhs is negative negated (its zeros become ``-0.0``).
    The tableau is ``[A | b]``. Its A_eq part is written in place by the
    program's ``write_eq``, so a program whose A_eq is a fill has no dense
    copy beside the tableau; A_ub, the slacks and b are copied. The tableau
    carries no artificial columns: phase 1 starts on one artificial per row
    (basis entries ``n + i``), but pricing stops at column ``n``, so an
    artificial never re-enters, no step reads its column, and
    ``drop_redundant_rows`` ends the rest with phase 1. The duals rebuild
    the basis matrix from the program instead, and need no tableau.
    """

    def __init__(self, program: LinearProgram):
        n_var, n_eq, n_ub = program.n_vars, program.n_eq, program.n_ub
        self.program = program
        self.m = self.m0 = n_eq + n_ub   # m drops with redundant rows
        self.n = n_var + n_ub
        table = _zeros((self.m, self.n + 1))
        program.write_eq(table[:n_eq, :n_var])
        table[n_eq:, :n_var] = program.a_ub
        table[n_eq:, n_var:-1] = np.eye(n_ub)
        table[:n_eq, -1] = program.b_eq
        table[n_eq:, -1] = program.b_ub
        self.flip = table[:, -1] < 0.0
        table[self.flip] = -table[self.flip]   # b >= 0
        self.table = table
        self.basis = np.arange(self.n, self.n + self.m)  # start on artificials
        self.live = np.arange(self.m)                    # original row ids kept
        self.pivots = 0
        self.rc = None   # reduced costs while a phase prices incrementally

    def _pivot(self, row: int, col: int) -> None:
        """Pivot on (row, col) within the window ``[lo, hi)`` spanning the
        pivot row's nonzeros: scale the window and the rhs of the row, then
        update the window and the rhs of the rows with a nonzero in column
        ``col``. While a phase prices incrementally, update the reduced
        costs on the same window."""
        t = self.table
        n = self.n
        nz = (t[row, :n] != 0.0).nonzero()[0]
        lo, hi = int(nz[0]), int(nz[-1]) + 1
        column, rhs = t[:, col], t[:, -1]
        piv = column[row]
        pr = t[row, lo:hi]
        pr /= piv
        rhs[row] /= piv
        hit = column != 0.0
        hit[row] = False
        other = hit.nonzero()[0]
        f = column[other]
        t[other, lo:hi] -= f[:, None] * pr
        rhs[other] -= f * rhs[row]
        self.basis[row] = col
        self.pivots += 1
        rc = self.rc
        if rc is not None:
            rc[lo:hi] -= rc[col] * pr

    def run(self, cost: np.ndarray) -> str:
        """Bland's rule: smallest column with ``rc < -FEAS_TOL`` enters,
        smallest basic variable among the minimum-ratio rows leaves, rows
        with entries above PIVOT_TOL first. A fresh pricing sets ``rc`` in
        full; ``_pivot`` keeps it up to date; dropping ``rc`` asks for the
        next fresh pricing, and every verdict returns without it."""
        while True:
            if self.pivots > MAX_PIVOTS:
                raise PivotBudgetError(
                    f"simplex pivot budget of {MAX_PIVOTS} exhausted"
                )
            fresh = self.rc is None
            if fresh:
                # artificial columns never re-enter
                self.rc = cost[:self.n] - cost[self.basis] @ self.table[:, :self.n]
            entering = int((self.rc < -FEAS_TOL).argmax())
            if not self.rc[entering] < -FEAS_TOL:
                self.rc = None
                if fresh:
                    return "optimal"
                continue
            col, rhs = self.table[:, entering], self.table[:, -1]
            rows = (col > FEAS_TOL).nonzero()[0]
            if rows.size == 0:
                self.rc = None
                if fresh:
                    return "unbounded"
                continue
            ratios = np.maximum(rhs[rows], 0.0) / col[rows]
            best = ratios.min()
            tied = rows[ratios <= best + FEAS_TOL]
            sound = tied[col[tied] > PIVOT_TOL]
            if sound.size:
                tied = sound
            leave = int(tied[self.basis[tied].argmin()])
            self._pivot(leave, entering)

    def drop_redundant_rows(self) -> None:
        """Pivot each artificial still basic out of its row; drop the rows
        left with no pivot available (0 = 0 rows). No artificial is basic
        afterwards: a pivot column that is basic elsewhere is zero here."""
        dropped = []
        for i in np.flatnonzero(self.basis >= self.n):
            row = self.table[i, : self.n]
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > FEAS_TOL:
                self._pivot(i, j)
            else:
                dropped.append(i)
        if dropped:
            keep = np.delete(np.arange(self.m), dropped)
            self.table = self.table[keep]
            self.basis = self.basis[keep]
            self.live = self.live[keep]
            self.m = keep.size

    def duals(self, cost: np.ndarray) -> np.ndarray:
        """Solve B^T y = c_B on the live rows; dropped rows get dual zero.

        B's structural and slack columns are gathered from the program's
        dense blocks and sign-normalized as the tableau was (the same
        floats, ``-0.0`` included); an artificial column is a unit vector.
        """
        p = self.program
        n_var, n_eq = p.n_vars, p.n_eq
        basis, live = self.basis, self.live
        real = basis < self.n
        cols = basis[real]
        eq, var = live < n_eq, cols < n_var
        # a program given by a fill builds its dense A_eq here; the solve
        # has freed its tableau first (bar the phase-1 leftover check)
        basis_cols = np.zeros((self.m, self.m))
        at = real.nonzero()[0]   # where the structural and slack columns go
        basis_cols[np.ix_(eq, at[var])] = p.a_eq[np.ix_(live[eq], cols[var])]
        basis_cols[np.ix_(~eq, at[var])] = p.a_ub[np.ix_(live[~eq] - n_eq, cols[var])]
        basis_cols[np.ix_(~eq, at[~var])] = live[~eq, None] - n_eq == cols[~var] - n_var
        flipped = self.flip[live]
        basis_cols[flipped] = -basis_cols[flipped]
        basis_cols[:, ~real] = live[:, None] == basis[~real] - self.n
        try:
            y_live = np.linalg.solve(basis_cols.T, cost[basis])
        except np.linalg.LinAlgError:   # a singular B: see solve_lp
            y_live = np.linalg.lstsq(basis_cols.T, cost[basis])[0]
        y = np.zeros(self.m0)
        y[live] = y_live
        return y


def solve_lp(program: LinearProgram) -> LPOutcome:
    """Two-phase dense simplex with Bland's rule.

    Infeasible programs come back with a Farkas ray (y, z): z <= 0,
    A_eq^T y + A_ub^T z <= 0 componentwise, and b_eq.y + b_ub.z > 0,
    which no feasible x >= 0 can satisfy. Unbounded objectives are a
    distinct status.

    Known conditioning limit (no row scaling, no refactorised basis): on
    small random programs with +-1e-8 constraint entries, 0.04-0.7% of
    draws end badly: a wrong status, a residual of 1.2e-7 to 2e-7, a ray
    gaining under ``CERT_TOL``, or a singular basis, whose least-squares
    duals fail re-verification. The witness programs, tested alone, pass.
    """
    n, n_eq, n_ub = program.n_vars, program.n_eq, program.n_ub
    sx = _Simplex(program)

    phase1 = np.concatenate([np.zeros(sx.n), np.ones(sx.m)])
    sx.run(phase1)
    infeasibility = float(phase1[sx.basis] @ sx.table[:, -1])
    if infeasibility > FEAS_TOL:
        if infeasibility > CERT_TOL:
            sx.table = None   # the duals read the dense A_eq: hold one copy
        y = np.where(sx.flip, -1.0, 1.0) * sx.duals(phase1)
        outcome = LPOutcome.farkas(y, n_eq, sx.pivots)
        # A leftover within the certificate budget that no ray proves is
        # rounding (pivots on 1e-8 entries scale the rhs error by 1e8):
        # go on to phase 2 from the nearly feasible point. Its duals and
        # check read the dense A_eq, so this is the one place where a
        # program given by a fill is held dense beside its tableau.
        if infeasibility > CERT_TOL or verify_certificate(program, outcome) <= CERT_TOL:
            return outcome

    sx.drop_redundant_rows()
    # the tableau minimizes, so phase 2 prices the negated objective
    phase2 = np.concatenate([-program.objective, np.zeros(n_ub)])
    if sx.run(phase2) == "unbounded":
        return LPOutcome(status=STATUS_UNBOUNDED, pivots=sx.pivots)

    x = np.zeros(sx.n)
    x[sx.basis] = sx.table[:, -1]
    x = x[:n]
    sx.table = None   # freed before the duals build the dense A_eq
    value = float(program.objective @ x)
    y = np.where(sx.flip, 1.0, -1.0) * sx.duals(phase2)
    status = STATUS_OPTIMAL if program.objective.any() else STATUS_FEASIBLE
    return LPOutcome(
        status=status,
        value=value,
        x=x,
        dual_eq=y[:n_eq],
        dual_ub=y[n_eq:],
        pivots=sx.pivots,
    )


def farkas_gain(program: LinearProgram, outcome: LPOutcome) -> float:
    """b_eq . y + b_ub . z of the Farkas ray (y, z) an infeasible outcome
    carries; ``verify_certificate`` wants it at least ``CERT_TOL``."""
    y, z = outcome.farkas_eq, outcome.farkas_ub
    if y is None or z is None:
        raise ValueError("infeasible outcome lacks a Farkas certificate")
    return float(program.b_eq @ y + program.b_ub @ z)


def verify_certificate(program: LinearProgram, outcome: LPOutcome) -> float:
    """Maximum violation of the certificate carried by ``outcome``.

    Optimal/feasible: primal residuals, dual feasibility, and the duality
    gap; an optimal outcome without its duals raises ``ValueError``.
    Infeasible: the Farkas ray conditions; a ray that gains less than
    ``CERT_TOL`` proves nothing within the budget, so it reports the budget
    plus its shortfall and never passes.
    """
    if outcome.status == STATUS_UNBOUNDED:
        raise ValueError("unbounded outcomes carry no certificate to verify")
    if outcome.status == STATUS_INFEASIBLE:
        gain = farkas_gain(program, outcome)
        y, z = outcome.farkas_eq, outcome.farkas_ub
        combo = program.a_eq.T @ y + program.a_ub.T @ z
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
    viol = max(0.0, float(-x.min(initial=0.0)))  # +0.0, never -0.0
    viol = max(viol, float(np.abs(program.a_eq @ x - program.b_eq).max(initial=0.0)))
    viol = max(viol, float((program.a_ub @ x - program.b_ub).max(initial=0.0)))
    if outcome.status == STATUS_OPTIMAL:
        y, z = outcome.dual_eq, outcome.dual_ub
        if y is None or z is None:
            raise ValueError("optimal outcome lacks its duals")
        reduced = program.objective - program.a_eq.T @ y - program.a_ub.T @ z
        viol = max(viol, float(reduced.max(initial=0.0)))
        viol = max(viol, float(-z.min(initial=0.0)))
        dual_value = float(program.b_eq @ y + program.b_ub @ z)
        viol = max(viol, abs(dual_value - float(outcome.value)))
    return viol
