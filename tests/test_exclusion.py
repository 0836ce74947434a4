import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from macroreal import (
    CertificationError,
    QuantumFragment,
    WitnessExclusion,
    WitnessParams,
    build_witness,
    check_antidistinguishable,
    enumerate_atoms,
    verify_certificate,
)
import macroreal.exclusion as exclusion
import macroreal.lp as lp
from macroreal.exclusion import STRICT_POS_EPS
from macroreal.lp import CERT_TOL, FEAS_TOL, solve_lp
from macroreal.witness import ALPHA_MAX
from helpers import (
    DenseSimplex,
    lp_atom_maxima,
    mapping_behind,
    outcome_bits,
    reference_emmr_program,
    reference_esmr_program,
    reference_max_overlap_program,
    simplex_esmr,
    solve_lp_checked,
    solve_lp_with,
)


def test_enumerate_counts(exclusion_half):
    frag = exclusion_half.fragment
    atoms = enumerate_atoms(frag)
    assert atoms.shape == (64, 3)     # three 4-outcome measurements
    assert len({tuple(a) for a in atoms.tolist()}) == 64
    assert atoms[0].tolist() == [0, 0, 0]


def test_enumerate_follows_product_order(exclusion_half):
    """Row a is the a-th outcome tuple of ``itertools.product``."""
    frag = exclusion_half.fragment
    counts = [m.n_outcomes for m in frag.measurements.values()]
    expected = list(itertools.product(*[range(c) for c in counts]))
    assert [tuple(a) for a in enumerate_atoms(frag).tolist()] == expected


def test_enumerate_rejects_huge_products(witness_half, antidist_half):
    from macroreal import QuantumFragment, computational_measurement

    meas = {f"m{k}": computational_measurement(16) for k in range(6)}
    frag = QuantumFragment(16, {}, {}, meas, "m0")
    with pytest.raises(ValueError, match="cap"):
        enumerate_atoms(frag)


def test_accessible_zero_state_atoms(exclusion_half):
    """The macro eigenstate forces its bprime and macro outcomes."""
    frag = exclusion_half.fragment
    atoms = exclusion_half.atoms
    meas_names = list(frag.measurements)
    b_idx = meas_names.index("bprime")
    m_idx = meas_names.index("macro")
    for atom_idx in exclusion_half.accessible("zero"):
        atom = atoms[atom_idx]
        assert atom[b_idx] == 0
        assert atom[m_idx] == 0


def test_accessible_excludes_zero_probability_outcomes(exclusion_half):
    frag = exclusion_half.fragment
    atoms = exclusion_half.atoms
    meas_names = list(frag.measurements)
    borns = {m: frag.born("phi", m) for m in meas_names}
    for atom_idx in exclusion_half.accessible("phi"):
        atom = atoms[atom_idx]
        for m, k in zip(meas_names, atom):
            assert borns[m][k] > 1e-9


def test_accessible_macro_sets_disjoint(exclusion_half):
    names = ["zero", "q1", "q2", "q3"]
    sets = [set(exclusion_half.accessible(n)) for n in names]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not sets[i] & sets[j]


def test_accessible_against_reference_lp(exclusion_half):
    """Independent oracle: the per-atom maximum via a reference solver."""
    atoms = exclusion_half.atoms
    marg, rhs = exclusion_half._marg, exclusion_half._born["phi"]
    mine = set(exclusion_half.accessible("phi"))
    for idx in range(len(atoms)):
        c = np.zeros(len(atoms))
        c[idx] = -1.0
        res = linprog(c, A_eq=marg, b_eq=rhs, bounds=[(0, None)] * len(atoms), method="highs")
        assert res.status == 0
        assert (idx in mine) == (-res.fun > 1e-9)


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("alpha", [0.3, 0.5553106689789393, ALPHA_MAX - 1e-6])
def test_accessible_closed_form_matches_lp_oracle(alpha, dim):
    """The Fréchet bound against per-atom simplex maxima, for every target.

    An atom inside a marginal row of exactly zero mass is pinned to zero by
    that one row; every other atom, down to Born probabilities of 1e-17,
    gets its own LP.
    """
    context = WitnessExclusion(build_witness(WitnessParams(alpha, dim)))
    marg = context._marg
    for target in context.fragment.states:
        rhs = context._born[target]
        bound = np.where(marg > 0.0, rhs[:, None], np.inf).min(axis=0)
        open_atoms = np.flatnonzero(bound > 0.0)
        maxima = lp_atom_maxima(context, target, open_atoms)
        assert maxima == pytest.approx(bound[open_atoms], abs=FEAS_TOL)
        by_lp = open_atoms[maxima > STRICT_POS_EPS]
        assert context.accessible(target).tolist() == by_lp.tolist()


def test_accessible_sets_are_read_only_ascending_index_arrays(exclusion_half):
    for target in exclusion_half.fragment.states:
        access = exclusion_half.accessible(target)
        assert access.dtype.kind == "i" and access.ndim == 1
        assert not access.flags.writeable
        assert np.all(np.diff(access) > 0)
        with pytest.raises(ValueError):
            access[0] = 0


def test_accessible_rejects_a_target_outside_the_catalogue(exclusion_half):
    with pytest.raises(ValueError, match="'nope'"):
        exclusion_half.accessible("nope")


def test_born_table_and_marginal_matrix_are_the_per_call_ones(exclusion_half):
    """The tables the programs and the LP oracles read: each state's Born
    vectors as ``fragment.born`` gives them, concatenated in fragment
    order, and one 0/1 row per (measurement, outcome)."""
    frag, atoms = exclusion_half.fragment, exclusion_half.atoms
    for state in frag.states:
        per_call = np.concatenate([frag.born(state, m) for m in frag.measurements])
        assert exclusion_half._born[state].tobytes() == per_call.tobytes()
    per_row = np.concatenate([
        atoms[:, mi] == np.arange(meas.n_outcomes)[:, None]
        for mi, meas in enumerate(frag.measurements.values())
    ]).astype(float)
    assert exclusion_half._marg.tobytes() == per_row.tobytes()


@pytest.mark.parametrize("dim", [4, 6])
def test_born_called_once_per_state_and_measurement(dim, monkeypatch):
    """Construction and the programs read one Born table: 3(d+2) ``born``
    calls, one per catalogued state (psi, phi, zero, q1..q_{d-1}) and
    measurement."""
    bundle = build_witness(WitnessParams(0.5, dim))
    calls = []
    born = QuantumFragment.born

    def counting_born(self, state_name, meas_name):
        calls.append((state_name, meas_name))
        return born(self, state_name, meas_name)

    monkeypatch.setattr(QuantumFragment, "born", counting_born)
    context = WitnessExclusion(bundle)
    for program in (context.esmr, context.max_overlap, context.emmr, context.macro_only_control):
        program()
    assert len(calls) == 3 * (dim + 2)
    assert len(set(calls)) == len(calls)


class TestExclusionPrograms:
    def test_esmr_infeasible_with_certificate(self, exclusion_half):
        report = exclusion_half.esmr()
        assert report.status == "infeasible"
        assert report.certificate_residual <= CERT_TOL
        assert report.mode == "esmr"
        assert "deterministic-response" in report.explanation

    def test_esmr_certificate_reverifies_against_program(self, exclusion_half):
        report = exclusion_half.esmr()
        assert verify_certificate(report.program, report.outcome) <= CERT_TOL

    def test_emmr_infeasible(self, exclusion_half):
        report = exclusion_half.emmr()
        assert report.status == "infeasible"
        assert report.certificate_residual <= CERT_TOL

    def test_max_overlap_closed_form(self, exclusion_half):
        report = exclusion_half.max_overlap()
        assert report.status == "optimal"
        assert report.optimum == pytest.approx(0.375, abs=1e-7)
        assert report.required_mass == pytest.approx(0.5, abs=1e-12)

    def test_macro_only_control_feasible(self, exclusion_half):
        report = exclusion_half.macro_only_control()
        assert report.status == "feasible"
        assert report.mode == "emmr_macro_only"
        assert report.atom_count == exclusion_half.bundle.dim
        assert report.accessible_sizes == {}

    def test_static_control_recorded_not_asserted(self, exclusion_half):
        report = exclusion_half.static_control()
        assert report.mode == "esmr_static_control"
        assert report.program.a_ub.shape[0] == 0
        assert report.status in ("feasible", "infeasible")
        assert report.certificate_residual <= CERT_TOL

    def test_unconstrained_control_feasible(self, exclusion_half):
        report = exclusion_half.unconstrained_control()
        assert report.mode == "esmr_unconstrained_control"
        assert report.status == "feasible"
        assert report.program.a_ub.shape[0] == 0
        assert report.program.n_vars == 2 * len(exclusion_half.atoms)

    def test_every_report_mode_is_a_program_or_a_control(self, exclusion_half):
        context = exclusion_half
        reports = [context.esmr(), context.emmr(), context.max_overlap(),
                   context.static_control(), context.unconstrained_control(),
                   context.macro_only_control()]
        assert [report.mode for report in reports] == [
            "esmr", "emmr", "max_overlap",
            "esmr_static_control", "esmr_unconstrained_control", "emmr_macro_only",
        ]

    def test_esmr_status_cross_checked_against_reference(self, exclusion_half):
        report = exclusion_half.esmr()
        p = report.program
        res = linprog(
            np.zeros(p.n_vars), A_eq=p.a_eq, b_eq=p.b_eq, A_ub=p.a_ub, b_ub=p.b_ub,
            bounds=[(0, None)] * p.n_vars, method="highs",
        )
        assert res.status == 2

    def test_max_overlap_cross_checked_against_reference(self, exclusion_half):
        report = exclusion_half.max_overlap()
        p = report.program
        res = linprog(
            -p.objective, A_eq=p.a_eq, b_eq=p.b_eq,
            bounds=[(0, None)] * p.n_vars, method="highs",
        )
        assert res.status == 0
        assert -res.fun == pytest.approx(report.optimum, abs=1e-8)


@pytest.mark.parametrize("dim", [4, 6, 8])
@pytest.mark.parametrize("alpha", [0.05, 0.5553106689789393, ALPHA_MAX - 1e-6])
def test_programs_match_per_row_assembly(alpha, dim):
    """Every program, controls included, is bit for bit the one the per-atom,
    per-row assembly in ``helpers`` builds (negative zeros included), and
    its solve takes the dense kernel's pivots and returns its bits."""
    context = WitnessExclusion(build_witness(WitnessParams(alpha, dim)))
    pairs = [
        (context.esmr(), reference_esmr_program(context)),
        (context.static_control(),
         reference_esmr_program(context, include_transform=False)),
        (context.unconstrained_control(),
         reference_esmr_program(context, include_support=False, include_transform=False)),
        (context.emmr(), reference_emmr_program(context)),
        (context.macro_only_control(),
         reference_emmr_program(context, measurements=("macro",))),
        (context.max_overlap(), reference_max_overlap_program(context)),
    ]
    for report, reference in pairs:
        for attr in ("objective", "a_eq", "b_eq", "a_ub", "b_ub"):
            mine, ref = getattr(report.program, attr), getattr(reference, attr)
            assert mine.shape == ref.shape, (report.mode, attr)
            assert mine.tobytes() == ref.tobytes(), (report.mode, attr)
        assert_matches_dense_kernel(report)


def assert_matches_dense_kernel(report):
    """The report's outcome is the dense kernel's, bit for bit. A closed-form
    ESMR ray takes no pivots, so for ESMR the pivot count is left out there,
    and the kernel's own solve of the program is held to every bit."""
    dense = outcome_bits(solve_lp_with(DenseSimplex, report.program))
    mine = outcome_bits(report.outcome)
    if report.mode == "esmr":
        assert outcome_bits(solve_lp(report.program)) == dense
        del mine["pivots"], dense["pivots"]
    assert mine == dense, report.mode


@pytest.mark.parametrize("alpha", [0.5, 0.5552396860617598])
def test_d10_emmr_solve_matches_dense_kernel_bit_for_bit(alpha):
    """The CLI digests reach d <= 6 only; this guards the kernel at d=10."""
    report = WitnessExclusion(build_witness(WitnessParams(alpha, 10))).emmr()
    dense = solve_lp_with(DenseSimplex, report.program)
    assert outcome_bits(report.outcome) == outcome_bits(dense)


@pytest.mark.parametrize("gap, dim", [(1e-2, 6), (1e-4, 6), (1e-2, 8), (1e-4, 8), (1e-6, 10)])
def test_near_boundary_solves_match_dense_kernel_bit_for_bit(gap, dim):
    """The benchmark certifies a witness 1e-6..1e-2 below 1/sqrt(2) in every
    cycle (1e-6 itself is in ``test_programs_match_per_row_assembly``)."""
    context = WitnessExclusion(build_witness(WitnessParams(ALPHA_MAX - gap, dim)))
    for report in (context.esmr(), context.emmr(), context.max_overlap()):
        assert_matches_dense_kernel(report)


# -- the block fill behind the EMMR tableau ---------------------------------------

EMMR_FILL_GRID = [
    (alpha, dim)
    for dim in (4, 6, 8, 10)
    for alpha in (0.05, 0.3, 0.5, 0.5553, 0.7, ALPHA_MAX - 1e-6)
] + [(9.055298304384401e-4, 6)]   # inside the d=6 gap: the ray gains too little


@pytest.mark.parametrize("alpha, dim", EMMR_FILL_GRID)
def test_emmr_from_block_fill_matches_dense_program(alpha, dim):
    """The simplex filling its tableau and building its dense matrix with
    the block fill takes the pivots and returns the ray that it takes and
    returns on the per-row dense program, and the residual re-verified on
    that dense program is the report's, bit for bit."""
    context = WitnessExclusion(build_witness(WitnessParams(alpha, dim)))
    report = context.emmr()
    dense = reference_emmr_program(context)
    outcome = solve_lp(dense)
    assert report.outcome.pivots == outcome.pivots
    for name in ("farkas_eq", "farkas_ub"):
        assert getattr(report.outcome, name).tobytes() == getattr(outcome, name).tobytes()
    residual = verify_certificate(dense, outcome)
    assert np.float64(report.certificate_residual).tobytes() == np.float64(residual).tobytes()


@pytest.mark.parametrize("mode, status", [("emmr", "infeasible"), ("macro_only_control", "feasible")])
def test_block_program_dense_matrix_built_once_with_no_tableau_alive(monkeypatch, mode, status):
    """The solve fills its tableau with the block program's fill and frees
    it before the duals read the dense matrix, on the infeasible path (EMMR)
    and on the phase-2 path (the macro-only control): the dense matrix is
    built once, while no simplex holds a tableau, and the certificate check
    reuses it. A dense build is a fill call on an array of its own; the
    tableau's fill writes into a slice of the tableau."""
    kernels = []
    init = lp._Simplex.__init__

    def kept(self, program):
        init(self, program)
        kernels.append(self)

    builds = []
    block_program = exclusion._block_program

    def traced(*args, **kwargs):
        program = block_program(*args, **kwargs)
        fill = program._a_eq

        def counted(out):
            if out.base is None:
                builds.append([kernel.table is None for kernel in kernels])
            fill(out)

        program._a_eq = counted
        return program

    monkeypatch.setattr(lp._Simplex, "__init__", kept)
    monkeypatch.setattr(exclusion, "_block_program", traced)
    report = getattr(WitnessExclusion(build_witness(WitnessParams(0.5, 6))), mode)()
    assert report.status == status
    assert builds == [[True]]
    assert report.program.a_eq is report.program.a_eq   # built once, then kept
    assert len(builds) == 1


def test_emmr_peak_memory_is_about_one_tableau():
    """The tableau is the solve's one copy of the program: under tracemalloc
    the d=8 EMMR call peaks at 1.25 times the tableau's bytes (2.14 times
    when the dense matrix was built first and copied into the tableau)."""
    bundle = build_witness(WitnessParams(0.5, 8))
    antidist = check_antidistinguishable(bundle.psi, bundle.phi, bundle.zero)
    tracemalloc.start()
    try:
        report = WitnessExclusion(bundle, antidist).emmr()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    p = report.program
    rows = p.n_eq + p.n_ub
    tableau_bytes = rows * (p.n_vars + p.n_ub + 1) * 8
    assert peak < 1.3 * tableau_bytes


@pytest.mark.parametrize("dim", [10, 12])
def test_emmr_on_demand_zero_pages_matches_np_zeros_bit_for_bit(monkeypatch, dim):
    """From d=10 up the EMMR tableau and dense A_eq exceed
    ``lp.DEMAND_ZERO_BYTES`` and sit on demand-zero pages; the solve and its
    re-verification return the bits they return on ``np.zeros`` arrays."""
    for alpha in (0.05, 0.5, ALPHA_MAX - 1e-6):
        context = WitnessExclusion(build_witness(WitnessParams(alpha, dim)))
        mapped = context.emmr()
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_zeros", np.zeros)
            plain = context.emmr()
        assert mapping_behind(mapped.program.a_eq) is not None, alpha
        assert mapping_behind(plain.program.a_eq) is None, alpha
        assert outcome_bits(mapped.outcome) == outcome_bits(plain.outcome), alpha
        residuals = [np.float64(r.certificate_residual).tobytes() for r in (mapped, plain)]
        assert residuals[0] == residuals[1], alpha


EMMR_RISE_CHILD = """
import macroreal as m

def peak_kb():
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))

context = m.WitnessExclusion(m.build_witness(m.WitnessParams(0.5, 10)))
before = peak_kb()
report = context.emmr()
print(report.status, peak_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from procfs")
def test_d10_emmr_peak_rss_rises_less_than_20_mb():
    """In a fresh process with BLAS on one thread, the d=10 EMMR call raises
    the peak RSS by about 12 MB: only the written pages of its 34 MB tableau
    and 34 MB dense A_eq become resident. On ``np.zeros`` arrays, which
    advise huge pages, it rose by 39 MB."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    package_root = str(Path(exclusion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", EMMR_RISE_CHILD],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    status, rise_kb = child.stdout.split()
    assert status == "infeasible"
    assert int(rise_kb) < 20 * 1024


RECORDED_ESMR_ALPHAS = sorted({
    float(command.split()[2])
    for command in json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "cli_digests.json").read_text()
    )
    if command.startswith("exclude") and command.endswith("--mode esmr")
})
# phi's two Born probabilities of about 8 eps^2 cross STRICT_POS_EPS here
EPS_SWITCH = math.sqrt(STRICT_POS_EPS / 8)
ESMR_ORACLE_ALPHAS = RECORDED_ESMR_ALPHAS + [
    1e-5, 1e-4, 2e-4, 4.04e-4, 4.12e-4, 1e-3, 1e-2, 0.3, 0.5553106689789393,
    *[ALPHA_MAX - eps for eps in (
        1e-2, 1e-4, EPS_SWITCH * 1.01, EPS_SWITCH * 0.99, 1e-6,
        7.14e-8, 7.0e-8, 3e-8, 1e-8, 1e-12, 1e-13,
    )],
]
# the README's ESMR edges: below either the ray gains less than CERT_TOL
ESMR_EDGES = (4.0825e-4, 7.0711e-8)


@pytest.mark.parametrize("dim", [4, 6, 8, 10, 16])
def test_esmr_closed_form_matches_simplex_oracle(dim):
    """Where the closed-form ray certifies, it is the simplex's ray bit for
    bit, with the same status and residual. Where it declines, the simplex
    does not certify either, and the report is still infeasible, carries
    the ray, and charges its short gain as 2 CERT_TOL - gain. The grid has
    the recorded CLI alphas, both sides of the thirds/fifths switch, and
    points on both sides of, and inside, both bands where the ray
    declines."""
    transport, declined = {}, set()
    assert len(RECORDED_ESMR_ALPHAS) == 16
    for alpha in ESMR_ORACLE_ALPHAS:
        context = WitnessExclusion(build_witness(WitnessParams(alpha, dim)))
        report = context.esmr()
        program, outcome, residual = simplex_esmr(context)
        for attr in ("a_eq", "b_eq", "a_ub", "b_ub"):
            assert getattr(report.program, attr).tobytes() == getattr(program, attr).tobytes()
        assert report.status == "infeasible", alpha
        if report.certificate_residual <= CERT_TOL:
            assert outcome.status == "infeasible", alpha
            assert report.certificate_residual == residual, alpha
            assert report.outcome.farkas_eq.tobytes() == outcome.farkas_eq.tobytes(), alpha
            assert report.outcome.farkas_ub.tobytes() == outcome.farkas_ub.tobytes(), alpha
            transport[alpha] = float(outcome.farkas_ub[0])
        else:
            declined.add(alpha)
            assert not (outcome.status == "infeasible" and residual <= CERT_TOL), alpha
            assert outcome_bits(report.outcome) == outcome_bits(context._esmr_ray()), alpha
            ray = report.outcome
            gain = float(program.b_eq @ ray.farkas_eq + program.b_ub @ ray.farkas_ub)
            assert gain < CERT_TOL, alpha
            assert report.certificate_residual == 2.0 * CERT_TOL - gain, alpha
    low, high = ESMR_EDGES
    assert declined == {a for a in ESMR_ORACLE_ALPHAS if a < low or ALPHA_MAX - a < high}
    # the fifths ray above the switch, the thirds ray below it
    assert transport[ALPHA_MAX - EPS_SWITCH * 1.01] == -0.6
    assert transport[ALPHA_MAX - EPS_SWITCH * 0.99] == -1.0
    assert set(transport.values()) == {-1.0, -0.6}


@pytest.mark.parametrize("dim", [4, 6, 10, 16])
def test_esmr_certifies_without_the_simplex(dim, monkeypatch):
    def no_simplex(program):
        raise AssertionError("ESMR called the simplex")

    monkeypatch.setattr(exclusion, "solve_lp", no_simplex)
    low, high = ESMR_EDGES
    for alpha in ESMR_ORACLE_ALPHAS:
        report = WitnessExclusion(build_witness(WitnessParams(alpha, dim))).esmr()
        assert report.status == "infeasible", alpha
        assert report.outcome.pivots == 0, alpha
        assert (report.certificate_residual <= CERT_TOL) == (low <= alpha <= ALPHA_MAX - high)


def test_d10_emmr_incremental_pricing_matches_full_pricing():
    """Every pivot of the d=10 EMMR solve prices incrementally, and after
    each one ``CheckingSimplex`` finds every basic column an exact unit
    vector, the window-updated reduced costs equal to the full-width ones,
    and the basic columns' reduced costs exactly 0.0."""
    report = WitnessExclusion(build_witness(WitnessParams(0.5, 10))).emmr()
    outcome, kernel = solve_lp_checked(report.program)
    assert kernel.checked == outcome.pivots == report.outcome.pivots
    assert outcome_bits(outcome) == outcome_bits(report.outcome)


@pytest.mark.parametrize("dim", [6, 10])
def test_emmr_pivot_windows_stay_narrow(dim):
    """A pivot costs the span of its row's nonzeros, not their count. The
    EMMR program keeps each eigenstate block's columns contiguous, so the
    mean span is 1.55 (d=6) and 1.44 (d=10) times the mean count. With the
    blocks interleaved column by column it is 15 and 25 times: the windows
    widen toward the whole tableau and the window update loses its gain."""
    report = WitnessExclusion(build_witness(WitnessParams(0.5, dim))).emmr()
    _, kernel = solve_lp_checked(report.program)
    spans, counts = np.array(kernel.windows).T
    assert spans.mean() <= 2.0 * counts.mean()


@pytest.mark.parametrize("alpha", [0.3, 0.69])
def test_other_alphas(alpha):
    bundle = build_witness(WitnessParams(alpha))
    context = WitnessExclusion(bundle)
    esmr = context.esmr()
    assert esmr.status == "infeasible"
    assert esmr.certificate_residual <= CERT_TOL
    emmr = context.emmr()   # near the boundary the slack is tiny but strict
    assert emmr.status == "infeasible"
    assert emmr.certificate_residual <= CERT_TOL
    overlap = context.max_overlap()
    expected = alpha**2 * (1 + 2 * alpha**2)
    assert overlap.optimum == pytest.approx(expected, abs=1e-7)
    gap = overlap.required_mass - overlap.optimum
    assert gap == pytest.approx(alpha**2 * (1 - 2 * alpha**2), abs=1e-7)


@pytest.mark.parametrize(
    "alpha, dim", [(0.5553106689789393, 6), (0.5552396860617598, 10), (0.556, 10)]
)
def test_emmr_near_vanishing_born_probabilities(alpha, dim):
    """q1's antidist probabilities fall to 1e-8..1e-9 here. Pivoting on
    such entries blew the tableau up past 1e20 until the pivot budget ran
    out; with the ratio-test guards these solve like their neighbours
    (136-514 pivots, about 450 for a normal d=10 solve; 1000 leaves room
    for path changes, not for a stall)."""
    report = WitnessExclusion(build_witness(WitnessParams(alpha, dim))).emmr()
    assert report.status == "infeasible"
    assert report.certificate_residual <= CERT_TOL
    assert verify_certificate(report.program, report.outcome) <= CERT_TOL
    assert report.outcome.pivots < 1000


@settings(max_examples=20, deadline=None, derandomize=True)
@given(alpha=st.floats(0.554, 0.557), dim=st.sampled_from([4, 6]))
def test_programs_with_vanishing_probabilities_against_highs(alpha, dim):
    """In this window Born probabilities of 1e-8 and below enter the EMMR
    and ESMR rows as coefficients. Both programs stay infeasible, with
    certificates, and HiGHS agrees on the programs as built."""
    context = WitnessExclusion(build_witness(WitnessParams(alpha, dim)))
    for report in (context.emmr(), context.esmr()):
        assert report.status == "infeasible"
        assert verify_certificate(report.program, report.outcome) <= CERT_TOL
        p = report.program
        res = linprog(
            np.zeros(p.n_vars), A_eq=p.a_eq, b_eq=p.b_eq, A_ub=p.a_ub, b_ub=p.b_ub,
            bounds=[(0, None)] * p.n_vars, method="highs",
        )
        assert res.status == 2


def test_uncertified_witness_rejected(witness_half):
    from macroreal import AntidistReport

    fake = AntidistReport(
        a=0.4, b=0.4, c=0.4,
        inequality1_ok=False, inequality2_ok=True,
        slack1=-0.2, slack2=0.0, measurement=None, residuals=None,
    )
    with pytest.raises(CertificationError, match="not certified"):
        WitnessExclusion(witness_half, fake)


def test_report_json_schema(exclusion_half):
    payload = exclusion_half.esmr().to_json_dict()
    for key in ("alpha", "mode", "status", "certificate", "atom_counts",
                "accessible_set_sizes", "explanation"):
        assert key in payload
    assert payload["status"] == "infeasible"
    assert "farkas_eq" in payload["certificate"]
