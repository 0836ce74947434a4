import math
import mmap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from macroreal import LinearProgram, LPOutcome, lp, solve_lp, verify_certificate
from macroreal.lp import CERT_TOL, farkas_gain
from helpers import DenseSimplex, mapping_behind, outcome_bits, solve_lp_checked, solve_lp_with


def test_max_with_upper_bound():
    p = LinearProgram(objective=[1.0], a_ub=[[1.0]], b_ub=[1.0])
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert verify_certificate(p, out) <= CERT_TOL


def test_infeasible_with_farkas():
    p = LinearProgram(objective=[0.0], a_ub=[[-1.0], [1.0]], b_ub=[-1.0, 0.0])
    out = solve_lp(p)
    assert out.status == "infeasible"
    assert out.farkas_ub is not None
    assert verify_certificate(p, out) <= CERT_TOL


def test_feasibility_status_for_zero_objective():
    p = LinearProgram(objective=[0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    out = solve_lp(p)
    assert out.status == "feasible"
    assert verify_certificate(p, out) <= CERT_TOL


def test_unbounded_flagged():
    p = LinearProgram(objective=[1.0, 0.0], a_eq=[[0.0, 1.0]], b_eq=[1.0])
    out = solve_lp(p)
    assert out.status == "unbounded"


def test_minimization_sense():
    # min x1 + 2 x2 s.t. x1 + x2 >= 1 is max -x1 - 2 x2, optimum -1
    p = LinearProgram(
        objective=[-1.0, -2.0],
        a_ub=[[-1.0, -1.0]],
        b_ub=[-1.0],
    )
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.value == pytest.approx(-1.0, abs=1e-9)
    assert verify_certificate(p, out) <= CERT_TOL


def test_degenerate_equalities():
    # duplicated rows exercise redundant-row dropping
    p = LinearProgram(
        objective=[1.0, 1.0],
        a_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
        b_eq=[1.0, 1.0, 2.0],
    )
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert verify_certificate(p, out) <= CERT_TOL


@pytest.mark.parametrize("seed", range(6))
def test_random_cross_check_against_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        m_eq = int(rng.integers(0, 4))
        m_ub = int(rng.integers(0, 5))
        c = rng.normal(size=n)
        a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
        a_ub = rng.normal(size=(m_ub, n)) if m_ub else None
        x0 = np.abs(rng.normal(size=n))
        b_eq = a_eq @ x0 if m_eq else None
        b_ub = (a_ub @ x0 + rng.uniform(-0.5, 1.0, size=m_ub)) if m_ub else None
        # maximizing -c is minimizing c, the reference's sense
        p = LinearProgram(objective=-c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
        mine = solve_lp(p)
        ref = linprog(
            c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub,
            bounds=[(0, None)] * n, method="highs",
        )
        if ref.status == 0:
            assert mine.status == "optimal"
            assert -mine.value == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
        else:
            # reference can conflate infeasible with unbounded; disambiguate
            # with a pure feasibility run
            feas = linprog(
                np.zeros(n), A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub,
                bounds=[(0, None)] * n, method="highs",
            )
            assert mine.status == ("unbounded" if feas.status == 0 else "infeasible")
        if mine.status != "unbounded":
            assert verify_certificate(p, mine) <= CERT_TOL


# -- differential test against HiGHS -------------------------------------------
# Small integer entries give ratio-test ties; +-1e-8 objective entries give
# reduced costs just above FEAS_TOL. Programs with 1e-8 entries in the
# constraints are tested on the EMMR/ESMR programs themselves
# (test_exclusion.py): on arbitrary small ones the exact optimum and
# HiGHS's tolerance-feasible one can differ by O(1).
ENTRIES = st.sampled_from([-2.0, -1.0, 0.0, 0.0, 1.0, 1.0, 2.0])
COSTS = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0, 1e-8, -1e-8])


def _matrix(draw, m, n):
    return np.array(draw(st.lists(
        st.lists(ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m,
    ))).reshape(m, n)


@st.composite
def small_lps(draw):
    """Feasible by construction (b from a point x0 with zero entries and
    zero slacks, so vertices are degenerate), unless a conflicting copy of
    an equality row is added. Redundant rows repeat or add up equality
    rows. An optional box row sum(x) <= B bounds the region."""
    n = draw(st.integers(1, 5))
    a_eq = _matrix(draw, draw(st.integers(0, 3)), n)
    a_ub = _matrix(draw, draw(st.integers(0, 3)), n)
    x0 = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n)))
    b_eq = a_eq @ x0
    slack = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5]), min_size=len(a_ub), max_size=len(a_ub)))
    b_ub = a_ub @ x0 + np.array(slack)
    if len(a_eq) and draw(st.booleans()):
        i, j = draw(st.integers(0, len(a_eq) - 1)), draw(st.integers(0, len(a_eq) - 1))
        a_eq = np.vstack([a_eq, a_eq[i] + a_eq[j]])
        b_eq = np.append(b_eq, b_eq[i] + b_eq[j])
    if len(a_eq) and draw(st.booleans()):
        i = draw(st.integers(0, len(a_eq) - 1))
        a_eq = np.vstack([a_eq, a_eq[i]])
        b_eq = np.append(b_eq, b_eq[i] + draw(st.sampled_from([0.0, 0.5, -1.0])))
    if draw(st.booleans()):
        a_ub = np.vstack([a_ub, np.ones(n)])
        b_ub = np.append(b_ub, x0.sum() + 1.0)
    c = np.array(draw(st.lists(COSTS, min_size=n, max_size=n)))
    # half the programs minimize c.x, stated as maximizing -c.x
    if not draw(st.booleans()):
        c = -c
    return LinearProgram(objective=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


def _highs_verdict(p: LinearProgram):
    """(status, value) from HiGHS, with infeasible told apart from
    unbounded by a pure feasibility run. Its tolerances are set below the
    1e-8 objective entries."""
    common = dict(
        A_eq=p.a_eq if len(p.a_eq) else None, b_eq=p.b_eq if len(p.a_eq) else None,
        A_ub=p.a_ub if len(p.a_ub) else None, b_ub=p.b_ub if len(p.a_ub) else None,
        bounds=[(0, None)] * p.n_vars, method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    feas = linprog(np.zeros(p.n_vars), **common)
    if feas.status == 2:
        return "infeasible", None
    assert feas.status == 0, feas.message
    res = linprog(-p.objective, **common)
    if res.status == 0:
        return ("optimal" if p.objective.any() else "feasible"), -res.fun
    assert res.status in (2, 3), res.message
    return "unbounded", None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_lps())
def test_differential_against_highs(p):
    mine = solve_lp(p)
    status, value = _highs_verdict(p)
    assert mine.status == status
    if value is not None:
        assert mine.value == pytest.approx(value, abs=1e-6, rel=1e-6)
    if mine.status != "unbounded":
        assert verify_certificate(p, mine) <= CERT_TOL


def test_farkas_ray_without_gain_does_not_verify():
    p = LinearProgram(objective=[0.0], a_eq=[[1.0]], b_eq=[1.0])
    empty = LPOutcome(status="infeasible", farkas_eq=np.zeros(1), farkas_ub=np.zeros(0))
    assert verify_certificate(p, empty) > CERT_TOL


def test_optimal_outcome_without_duals_does_not_verify():
    p = LinearProgram(objective=[1.0], a_ub=[[1.0]], b_ub=[1.0])
    out = solve_lp(p)
    assert verify_certificate(p, out) <= CERT_TOL
    with pytest.raises(ValueError, match="optimal outcome lacks its duals"):
        verify_certificate(p, LPOutcome(status="optimal", value=out.value, x=out.x))


@pytest.mark.parametrize(("outcome", "message"), [
    (LPOutcome(status="unbounded"), "unbounded outcomes carry no certificate to verify"),
    (LPOutcome(status="feasible"), "outcome lacks a primal point"),
], ids=["unbounded", "no-primal-point"])
def test_outcome_without_a_certificate_is_refused(outcome, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_certificate(LinearProgram(objective=[0.0]), outcome)


@pytest.mark.parametrize("objective", [[-1.0], [0.0]], ids=["optimal", "feasible"])
def test_zero_residual_is_positive_zero(objective):
    """x = 0 is exact here; the residual must not read -0.0 from -min(x)."""
    p = LinearProgram(objective=objective)
    r = verify_certificate(p, solve_lp(p))
    assert r == 0.0 and math.copysign(1.0, r) == 1.0


@pytest.mark.parametrize(("ray", "eq", "ub"), [
    ([3.0, -1.5, -6.0], [0.5, -0.25], [-1.0]),
    ([0.5, -0.25, 1.0], [0.5, -0.25], [1.0]),
], ids=["scaled", "kept"])
def test_farkas_outcome_scales_a_ray_to_a_largest_magnitude_of_one(ray, eq, ub):
    out = LPOutcome.farkas(np.array(ray), 2, pivots=7)
    assert (out.status, out.pivots) == ("infeasible", 7)
    assert out.farkas_eq.tolist() == eq and out.farkas_ub.tolist() == ub


def test_short_farkas_gain_is_charged_as_twice_cert_tol_less_the_gain():
    p = LinearProgram(objective=[0.0], a_eq=[[1.0]], b_eq=[-1.0], a_ub=[[1.0]], b_ub=[2.0])
    ray = LPOutcome(status="infeasible", farkas_eq=np.array([-5e-8]), farkas_ub=np.array([-1e-8]))
    gain = farkas_gain(p, ray)
    assert gain == -1.0 * -5e-8 + 2.0 * -1e-8
    assert verify_certificate(p, ray) == 2.0 * CERT_TOL - gain
    with pytest.raises(ValueError, match="lacks a Farkas certificate"):
        farkas_gain(p, LPOutcome(status="infeasible"))


def _tiny_pivot_program() -> LinearProgram:
    """x3 is fixed only through a 1e-8 entry; pivoting on it leaves 6e-9
    in a phase-1 artificial, above FEAS_TOL but within CERT_TOL."""
    x0 = np.array([0.0, 0.0, 0.5, 0.5])
    a_eq = np.array([[-2.0, -2.0, -2.0, -2.0], [-2.0, -2.0, 0.0, -2.0], [-2.0, -2.0, 1e-8, -2.0]])
    return LinearProgram(
        objective=[2.0] * 4, a_eq=a_eq, b_eq=a_eq @ x0, a_ub=[[1.0] * 4], b_ub=[2.0],
    )


def test_rounding_left_by_tiny_pivot_is_not_infeasibility():
    """No Farkas ray can gain on a feasible program, so the solve goes on
    from the phase-1 leftover and certifies the optimum."""
    p = _tiny_pivot_program()
    out = solve_lp(p)
    assert out.status == "optimal"
    assert out.value == pytest.approx(2.0, abs=1e-7)
    assert verify_certificate(p, out) <= CERT_TOL


def test_rounding_leftover_check_reads_the_dense_matrix_of_a_program_given_by_a_fill(monkeypatch):
    """The same program with its equality matrix given by a function that
    fills it reaches the phase-1 leftover check once, the one step of a
    solve that reads the dense matrix while the tableau lives, and comes
    back with the dense program's bits."""
    dense = _tiny_pivot_program()
    p = LinearProgram(objective=dense.objective, a_eq=lambda out: np.copyto(out, dense.a_eq),
                      b_eq=dense.b_eq, a_ub=dense.a_ub, b_ub=dense.b_ub)
    checks = []
    verify = lp.verify_certificate

    def counted(program, outcome):
        checks.append(program)
        return verify(program, outcome)

    monkeypatch.setattr(lp, "verify_certificate", counted)
    out = solve_lp(p)
    assert checks == [p]
    assert outcome_bits(out) == outcome_bits(solve_lp(dense))


def test_singular_basis_gets_duals_that_fail_verification_instead_of_raising():
    """Phase 1 pivots on 2.5e-9 and 5e-9 rounding entries and ends on a
    basis with no column in the second equality row, so B is singular
    (HiGHS calls the program unbounded). ``duals`` takes the least-squares
    y instead of raising ``LinAlgError``, and re-verification rejects the
    outcome; the dense oracle returns the same bits."""
    p = LinearProgram(
        objective=[-2.0, -2.0, -2.0, -2.0, 1.0, -2.0],
        a_eq=[[-2.0, -2.0, -2.0, -2.0, 1e-8, -2.0], [-2.0, -2.0, -2.0, 0.0, 0.0, -2.0]],
        b_eq=[-1.0, -1.0],
        a_ub=[[-2.0] * 6, [-2.0] * 6, [-2.0, -2.0, -2.0, -2.0, 0.0, -1e-8]],
        b_ub=[-1.0, -1.0, -5e-9],
    )
    out, kernel = solve_lp_checked(p)
    basis = kernel.basis[kernel.basis < kernel.n]
    assert not np.hstack([p.a_eq, np.zeros((2, 3))])[1, basis].any()
    assert verify_certificate(p, out) > CERT_TOL
    assert outcome_bits(out) == outcome_bits(solve_lp(p))
    assert outcome_bits(out) == outcome_bits(solve_lp_with(DenseSimplex, p))


def _fill_one(out):
    out[...] = 1.0


@pytest.mark.parametrize("kwargs, message", [
    (dict(objective=[0.0], a_eq=[], b_eq=[1.0]), "eq right-hand side has no matrix rows"),
    (dict(objective=[0.0], a_eq=[[1.0]]), "eq right-hand side is missing"),
    (dict(objective=[0.0], a_ub=[[1.0]]), "ub right-hand side is missing"),
    (dict(objective=[0.0], a_eq=[[1.0]], b_eq=[np.nan]), "eq right-hand side has a non-finite"),
    (dict(objective=[np.nan]), "objective has a non-finite"),
    (dict(objective=[0.0], a_eq=[[np.inf]], b_eq=[1.0]), "eq matrix has a non-finite"),
    (dict(objective=[0.0], a_eq=_fill_one), "eq right-hand side is missing"),
    (dict(objective=[0.0], a_eq=_fill_one, b_eq=[np.inf]), "eq right-hand side has a non-finite"),
    (dict(objective=[]), "objective has no entries"),
    (dict(objective=[], a_eq=[[]], b_eq=[0.0]), "objective has no entries"),
    (dict(objective=[0.0, 0.0], a_eq=[[1.0]], b_eq=[1.0]), "eq matrix has 1 columns, expected 2"),
    (dict(objective=[0.0], a_ub=[[1.0], [1.0]], b_ub=[1.0]),
     "ub matrix/vector row mismatch: 2 vs 1"),
], ids=["rhs-without-rows", "eq-without-rhs", "ub-without-rhs", "nan-rhs", "nan-objective",
        "inf-matrix", "fill-without-rhs", "fill-inf-rhs", "no-variables", "no-variables-eq",
        "wrong-columns", "row-mismatch"])
def test_malformed_program_raises_naming_the_block(kwargs, message):
    """Each of these once reached the solver: the row dropped (then
    ``feasible``), a missing right-hand side read as NaN (then an argmin of
    an empty sequence), a NaN objective (``optimal`` at NaN), an infinite
    entry (``optimal`` at x = 0), no variables (an argmax of an empty
    sequence in ``run``, or with an empty equality row in
    ``drop_redundant_rows``)."""
    with pytest.raises(ValueError, match=message):
        LinearProgram(**kwargs)


# -- the window kernel against the dense one -----------------------------------
# Negative right-hand sides flip rows (their zeros become -0.0), 1e-8 entries
# force pivots on rounding-sized numbers, and repeated equality rows leave
# artificials for drop_redundant_rows. Right-hand sides off the drawn point
# make some programs infeasible, so Farkas rays are compared too.
KERNEL_ENTRIES = st.sampled_from([-2.0, -1.0, 0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 1e-8, -1e-8])


@st.composite
def kernel_lps(draw):
    n = draw(st.integers(1, 6))
    m_eq, m_ub = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a_eq = np.array(draw(st.lists(KERNEL_ENTRIES, min_size=m_eq * n, max_size=m_eq * n)))
    a_ub = np.array(draw(st.lists(KERNEL_ENTRIES, min_size=m_ub * n, max_size=m_ub * n)))
    a_eq, a_ub = a_eq.reshape(m_eq, n), a_ub.reshape(m_ub, n)
    x0 = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n)))
    offsets = st.sampled_from([0.0, 0.0, 0.0, 0.5, -0.5, 1e-8])
    b_eq = a_eq @ x0 + np.array(draw(st.lists(offsets, min_size=m_eq, max_size=m_eq)))
    b_ub = a_ub @ x0 + np.array(draw(st.lists(offsets, min_size=m_ub, max_size=m_ub)))
    for _ in range(draw(st.integers(0, 2)) if m_eq else 0):
        i = draw(st.integers(0, m_eq - 1))
        scale = draw(st.sampled_from([1.0, -1.0, 2.0]))
        a_eq = np.vstack([a_eq, scale * a_eq[i]])
        b_eq = np.append(b_eq, scale * b_eq[i])
    c = np.array(draw(st.lists(COSTS, min_size=n, max_size=n)))
    return LinearProgram(objective=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(kernel_lps())
@example(_tiny_pivot_program())
def test_kernel_matches_dense_oracle_bit_for_bit(p):
    assert outcome_bits(solve_lp(p)) == outcome_bits(solve_lp_with(DenseSimplex, p))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(kernel_lps())
def test_incremental_pricing_matches_full_pricing(p):
    """After every pivot each basic column is an exact unit vector, and
    the window-updated reduced costs equal the full-width update up to the
    sign of a zero and are exactly 0.0 on the basic columns (asserted
    inside ``CheckingSimplex``); the checks leave the outcome's bits alone."""
    outcome, _ = solve_lp_checked(p)
    assert outcome_bits(outcome) == outcome_bits(solve_lp(p))


# -- pivot windows on block-structured programs ----------------------------------
# Like the exclusion programs, each block of columns has rows of its own, and
# one coupling row spans them all, so a pivot row's nonzeros sit in a window
# narrower than the tableau, with zeros inside it. The coupling row is a
# positive capacity, so the programs are bounded and phase 2 has work to do.

@st.composite
def block_lps(draw):
    widths = draw(st.lists(st.integers(3, 8), min_size=2, max_size=4))
    n = sum(widths)
    rows, equality = [], []
    start = 0
    for w in widths:
        for _ in range(draw(st.integers(1, 3))):
            row = np.zeros(n)
            row[start:start + w] = draw(st.lists(KERNEL_ENTRIES, min_size=w, max_size=w))
            rows.append(row)
            equality.append(draw(st.booleans()))
        start += w
    capacity = st.sampled_from([0.5, 1.0, 2.0, 1e-8])   # bounds every column
    rows.append(np.array(draw(st.lists(capacity, min_size=n, max_size=n))))
    equality.append(False)
    if draw(st.booleans()):   # a negated copy leaves work for drop_redundant_rows
        i = draw(st.integers(0, len(rows) - 1))
        rows.append(-rows[i])
        equality.append(True)
    a, eq = np.array(rows), np.array(equality)
    x0 = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n)))
    offsets = st.sampled_from([0.0, 0.0, 0.0, 0.5, -0.5, 1e-8])
    b = a @ x0 + np.array(draw(st.lists(offsets, min_size=len(rows), max_size=len(rows))))
    c = np.array(draw(st.lists(COSTS, min_size=n, max_size=n)))
    return LinearProgram(objective=c, a_eq=a[eq], b_eq=b[eq], a_ub=a[~eq], b_ub=b[~eq])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(block_lps())
# the pivot row's only nonzeros are the first and last columns: window [0, n)
@example(LinearProgram(objective=[0.0, 0, 0, 0, 1.0], a_eq=[[1.0, 0, 0, 0, 1.0]], b_eq=[1.0]))
# pivot rows with zeros inside windows that touch neither edge
@example(LinearProgram(
    objective=[0.0, 0, 0, 1.0, 0, 0, 0],
    a_eq=[[1.0, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1], [0, 1.0, 0, 0, 0, 2.0, 0]],
    b_eq=[1.0, 1.0, 1.0], a_ub=[[0, 0, 1.0, 1.0, 1.0, 0, 0]], b_ub=[2.0],
))
# drop_redundant_rows pivots on -4 over a zero rhs: x[0] comes back as -0.0
@example(LinearProgram(
    objective=[1.0, -1.0, -1.0],
    a_eq=[[0.0, -2.0, -2.0], [2.0, 1.0, 1.0], [0.0, 2.0, 2.0]], b_eq=[-2.0, 1.0, 2.0],
))
def test_block_kernel_matches_dense_oracle_bit_for_bit(p):
    assert outcome_bits(solve_lp(p)) == outcome_bits(solve_lp_with(DenseSimplex, p))


# -- the allocator behind the tableau and the dense A_eq ---------------------------

COLS = 1024
ROWS_AT_LINE = lp.DEMAND_ZERO_BYTES // (8 * COLS)   # ROWS_AT_LINE x COLS floats: 32 MiB


def test_zeros_above_the_line_are_a_writable_view_of_a_mapping():
    a = lp._zeros((ROWS_AT_LINE + 1, COLS))
    assert a.nbytes > lp.DEMAND_ZERO_BYTES
    assert isinstance(mapping_behind(a), mmap.mmap)
    assert a.dtype == np.float64 and a.shape == (ROWS_AT_LINE + 1, COLS)
    assert a.flags.c_contiguous and a.flags.writeable
    assert not a.any()
    a[ROWS_AT_LINE, COLS - 1] = 2.5
    assert a.sum() == 2.5


def test_zeros_at_or_below_the_line_come_from_np_zeros():
    for shape in [(ROWS_AT_LINE, COLS), (3, 4)]:
        a = lp._zeros(shape)
        assert a.base is None and mapping_behind(a) is None
        assert a.dtype == np.float64 and a.shape == shape and not a.any()


def test_zeros_without_anonymous_mappings_come_from_np_zeros(monkeypatch):
    monkeypatch.delattr(mmap, "MAP_ANONYMOUS", raising=False)
    a = lp._zeros((ROWS_AT_LINE + 1, COLS))
    assert a.base is None and mapping_behind(a) is None
    assert a.shape == (ROWS_AT_LINE + 1, COLS) and not a.any()
