"""The three benchmark workloads: inputs from a seed, one operation, checks.

Each workload is a closed loop with one caller. Inputs come in cycles with
the same cost structure for every seed (the seed moves alpha values,
directions, rotations and query mixes, never the number of operations of
each kind), so runs with different seeds measure the same mix.

A workload exposes:
  cycle(k)          the inputs of cycle k (untimed input generation)
  warm_up()         work done once before timing starts
  run(inp)          one operation; this call is what is timed
  check(inp, out)   a list of problems, empty when the output is correct
  label(inp)        the stratum an input belongs to (e.g. its dimension)
Every workload is constructed as ``Workload(seed, traced)``; ``traced`` is
true for the run that records spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import macroreal.cli as cli
import macroreal.exclusion as exclusion
import macroreal.lgi as lgi
import macroreal.lp as lp
import macroreal.ontomodel as ontomodel
import macroreal.witness as witness
import macroreal.zoo as zoo

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"


# -- trace sites ----------------------------------------------------------------

def _lp_note(args, outcome):
    program = args[0]
    m = program.a_eq.shape[0] + program.a_ub.shape[0]
    cells = m * (program.n_vars + program.a_ub.shape[0] + m + 1)
    return (outcome.pivots, cells, outcome.status)


def _emmr_note(args, report):
    program = report.program
    rows = program.a_eq.shape[0] + program.a_ub.shape[0]
    return (args[0].bundle.dim, program.n_vars, rows)


_WX = exclusion.WitnessExclusion
_MODEL = ontomodel.FiniteOntModel

# (owner, attribute, span name, note) for every call site a traced run
# wraps: the modules the benchmark itself calls through, the names the
# library modules imported from each other, and the names cli.py imported.
TRACE_SITES = [
    (witness, "build_witness", "witness.build", None),
    (witness, "check_antidistinguishable", "witness.antidist", None),
    (exclusion, "WitnessExclusion", "exclusion.context", None),
    (exclusion, "accessible_atoms", "exclusion.access", lambda a, r: len(r)),
    (exclusion, "solve_lp", "lp.solve", _lp_note),
    (exclusion, "verify_certificate", "lp.verify", lambda a, r: r),
    (lp, "verify_certificate", "lp.verify", lambda a, r: r),
    (_WX, "esmr", "exclusion.esmr", None),
    (_WX, "emmr", "exclusion.emmr", _emmr_note),
    (_WX, "max_overlap", "exclusion.max_overlap", None),
    (ontomodel, "validate", "ontomodel.validate", None),
    (ontomodel, "classify", "ontomodel.classify", None),
    (ontomodel, "asymmetric_overlap", "ontomodel.overlap", lambda a, r: len(r.realizing_set)),
    (ontomodel, "push_forward", "ontomodel.push_forward", None),
    (ontomodel, "kernel_set", "ontomodel.kernel_set", None),
    (_MODEL, "with_preparation", "ontomodel.with_preparation", None),
    (zoo, "fibonacci_sphere_grid", "zoo.grid", None),
    (zoo, "kochen_specker_model", "zoo.ks_build", None),
    (zoo, "beltrametti_bugajski_model", "zoo.bb_build", None),
    (zoo, "deterministic_extension_model", "zoo.det_build", None),
    (zoo, "emmr_toy_model", "zoo.toy_build", None),
    (lgi, "model_correlators", "lgi.model_correlators", None),
    (lgi, "quantum_correlators", "lgi.quantum_correlators", None),
    (cli, "build_witness", "witness.build", None),
    (cli, "check_antidistinguishable", "witness.antidist", None),
    (cli, "sweep", "witness.sweep", None),
    (cli, "WitnessExclusion", "exclusion.context", None),
    (cli, "validate", "ontomodel.validate", None),
    (cli, "classify", "ontomodel.classify", None),
    (cli, "fibonacci_sphere_grid", "zoo.grid", None),
    (cli, "kochen_specker_model", "zoo.ks_build", None),
    (cli, "beltrametti_bugajski_model", "zoo.bb_build", None),
    (cli, "deterministic_extension_model", "zoo.det_build", None),
    (cli, "emmr_toy_model", "zoo.toy_build", None),
    (cli, "model_correlators", "lgi.model_correlators", None),
    (cli, "quantum_correlators", "lgi.quantum_correlators", None),
    (cli, "model_to_json", "serialize.model_to_json", None),
    (cli, "model_from_json", "serialize.model_from_json", None),
    (cli, "fragment_to_json", "serialize.fragment_to_json", None),
    (cli, "fragment_from_json", "serialize.fragment_from_json", None),
    (cli, "dumps_json", "serialize.dumps_json", lambda a, r: len(r)),
    (cli, "load_json", "serialize.load_json", None),
]


# -- exclusion --------------------------------------------------------------------

def boundary_alpha(rng) -> float:
    """An alpha between 1e-6 and 1e-2 below the open end 1/sqrt(2)."""
    return witness.ALPHA_MAX - 10.0 ** -rng.uniform(2.0, 6.0)


class Exclusion:
    """One operation certifies one witness: build it, certify the
    anti-distinguishing measurement, solve ESMR, max-overlap and EMMR, and
    re-verify every certificate."""

    name = "exclusion"
    DIMS = (4, 6, 8, 10)
    # Per cycle two witnesses at d=4 and two at d=6 below one at d=8, and
    # one at d=10 in every second cycle. Over 11 cycles the median operation
    # then falls inside the d=6 stratum and the 11th-largest time (ten
    # beyond it) inside the d=8 stratum, never on the edge between two
    # strata, where it would be the fastest or slowest of a few samples.
    SLOTS = (4, 4, 6, 6, 8)
    NOMINAL_CYCLE_S = 3.2
    MIN_CYCLES = 11
    CYCLE_GROUP = 1

    def __init__(self, seed: int, traced: bool):
        self.rng = np.random.default_rng([seed, 1])

    def cycle(self, k: int) -> list:
        """The SLOTS, and d=10 when k is even, in seeded order. Exactly one
        witness sits near the alpha boundary; its dimension rotates through
        those present."""
        slots = self.SLOTS + (self.DIMS[-1],) if k % 2 == 0 else self.SLOTS
        present = sorted(set(slots))
        near = present[(k // 2) % len(present)]
        out = []
        for dim in self.rng.permutation(slots):
            dim = int(dim)
            if dim == near:
                alpha, near = boundary_alpha(self.rng), None
            else:
                alpha = float(self.rng.uniform(0.05, witness.ALPHA_MAX))
            out.append((alpha, dim))
        return out

    def warm_up(self) -> None:
        """One witness at the smallest and one at the largest dimension: the
        first EMMR call costs about twice the later ones."""
        todo = {self.DIMS[0], self.DIMS[-1]}
        for inp in self.cycle(-2):
            if inp[1] in todo:
                todo.discard(inp[1])
                self.run(inp)

    @staticmethod
    def label(inp) -> str:
        return f"d{inp[1]}"

    @staticmethod
    def run(inp):
        alpha, dim = inp
        bundle = witness.build_witness(witness.WitnessParams(alpha, dim))
        antidist = witness.check_antidistinguishable(bundle.psi, bundle.phi, bundle.zero)
        context = exclusion.WitnessExclusion(bundle, antidist)
        reports = (context.esmr(), context.max_overlap(), context.emmr())
        rechecked = [lp.verify_certificate(r.program, r.outcome) for r in reports]
        return antidist, reports, rechecked

    @staticmethod
    def check(inp, out) -> list:
        alpha, _ = inp
        antidist, (esmr, maxov, emmr), rechecked = out
        problems = []
        if not antidist.certified:
            problems.append("witness not certified anti-distinguishable")
        for report, want in ((esmr, "infeasible"), (maxov, "optimal"), (emmr, "infeasible")):
            if report.status != want:
                problems.append(f"{report.mode} ended {report.status}, expected {want}")
        ceiling = alpha**2 * (1.0 + 2.0 * alpha**2)
        if maxov.optimum is None or abs(maxov.optimum - ceiling) > lp.CERT_TOL:
            problems.append(f"max_overlap optimum {maxov.optimum!r} != {ceiling!r}")
        worst = max([r.certificate_residual for r in (esmr, maxov, emmr)] + rechecked)
        if not worst <= lp.CERT_TOL:
            problems.append(f"certificate residual {worst!r} above CERT_TOL")
        return problems


# -- model audit ------------------------------------------------------------------

def _unit(rng) -> tuple:
    v = rng.normal(size=3)
    return tuple(float(x) for x in v / np.linalg.norm(v))


def _oracle_support(vec) -> set:
    return set(np.flatnonzero(vec > ontomodel.SUPPORT_EPS).tolist())


def _oracle_overlap(model, mu_name, targets, supports):
    """Brute-force overlap: mu-mass of the union of the supports of every
    preparation realizing a target (a preparation name, a state's delta set
    or a macro value's declared eigenstates)."""
    union = set()
    for target in targets:
        if target in model.preparations:
            names = (target,)
        elif model.delta_sets.get(target):
            names = model.delta_sets[target]
        else:
            names = model.eigenstate_preps[target]
        for name in names:
            if name not in supports:
                supports[name] = _oracle_support(model.preparations[name])
            union.update(supports[name])
    mu = model.preparations[mu_name].tolist()
    return math.fsum(mu[i] for i in union), union


class ModelAudit:
    """One operation audits one model: build it, validate and classify it,
    answer a grid of overlap queries, register push-forwards, take kernel
    sets and evaluate the three-time correlators where the model has the
    maps and update rules they need."""

    name = "model_audit"
    NOMINAL_CYCLE_S = 0.7
    # 30 cycles keep the 11th-largest time inside the 20 000-node stratum
    # and give each zoo model ten audits
    MIN_CYCLES = 30
    ZOO = ("bb", "det", "toy")
    CYCLE_GROUP = len(ZOO)
    CAP_SIZES = (20_000, 2_000)
    PAIRS = 6           # validated (state, measurement) pairs per cap model
    UNIONS = 3          # fresh union targets per preparation
    ORACLE_SHARE = 10   # one query in this many is re-derived by brute force

    def __init__(self, seed: int, traced: bool):
        self.rng = np.random.default_rng([seed, 2])
        self.grids = {n: zoo.fibonacci_sphere_grid(n) for n in self.CAP_SIZES}
        self.state_dirs, self.meas_dirs = zoo.paired_validation_grid(50)
        self.standard = zoo.standard_qubit_fragment()
        self.det_fragment = zoo.qubit_fragment(
            {name: tuple(zoo.bloch_vector(s)) for name, s in self.standard.states.items()},
            {"macro": (0.0, 0.0, 1.0)},
        )

    @staticmethod
    def label(inp) -> str:
        return inp["kind"]

    def warm_up(self) -> None:
        for k in range(-len(self.ZOO), 0):
            for inp in self.cycle(k):
                self.run(inp)

    def _plan(self, inp, mus, singles, map_name):
        rng = self.rng
        queries = [(mu, (t,)) for mu in mus for t in singles]
        for mu in mus:
            for _ in range(self.UNIONS):
                size = int(rng.integers(2, 4))
                picks = rng.choice(len(singles), size=size, replace=False)
                queries.append((mu, tuple(singles[i] for i in sorted(picks))))
        pushes = list(mus) if map_name else []
        for mu in pushes:
            new = f"{mu}>{map_name}"
            queries += [(new, (t,)) for t in singles]
            queries.append((mus[0], (new,)))
        inp.update(
            singles=list(singles), map=map_name, pushes=pushes, queries=queries,
            sample=[i for i in range(len(queries)) if rng.integers(self.ORACLE_SHARE) == 0],
        )
        return inp

    def _cap_input(self, nodes: int) -> dict:
        rng = self.rng
        picks = rng.choice(len(self.state_dirs), size=self.PAIRS, replace=False)
        states = {f"s{j}": tuple(self.state_dirs[i]) for j, i in enumerate(picks)}
        states.update(up=(0.0, 0.0, 1.0), down=(0.0, 0.0, -1.0))
        meas = {"macro": (0.0, 0.0, 1.0)}
        meas.update({f"m{j}": tuple(self.meas_dirs[i]) for j, i in enumerate(picks)})
        rotation = (_unit(rng), float(rng.uniform(0.3, 2.8)))
        fragment = zoo.qubit_fragment(states, meas, rotations={"rot": rotation})
        pairs = tuple((f"s{j}", f"m{j}") for j in range(self.PAIRS))
        pairs += (("up", "macro"), ("down", "macro"))
        bindings = ontomodel.Bindings(
            preparations={s: s for s in states}, measurements={m: m for m in meas}, pairs=pairs
        )
        inp = dict(
            kind=f"cap{nodes}", fragment=fragment, grid=self.grids[nodes], bindings=bindings,
            # quadrature error of the cap model scales as 1/sqrt(nodes);
            # 1e-3 is the documented budget at 20000 nodes
            tol=1e-3 * math.sqrt(20_000 / nodes), expect="ESMR", binding=("macro", "rot"),
        )
        return self._plan(inp, list(states), list(states) + ["q+", "q-"], "rot")

    def cycle(self, k: int) -> list:
        """The 20 000-node cap model once, the 2 000-node one three times and
        one zoo model, taking bb, det and toy in turn. With one cheap model
        below the 2 000-node stratum and one dear model above it, the median
        operation falls in the middle of that stratum, not on an edge."""
        inputs = [self._cap_input(n) for n in self.CAP_SIZES + (2_000, 2_000)]
        std = list(self.standard.states)
        zoo_kind = self.ZOO[k % len(self.ZOO)]
        if zoo_kind == "bb":
            inputs.append(self._plan(
                dict(kind="bb", fragment=self.standard, tol=1e-9, expect="NONE", binding=None),
                std, std + ["q+", "q-"], "step"))
        elif zoo_kind == "det":
            inputs.append(self._plan(
                dict(kind="det", fragment=self.det_fragment, tol=1e-9, expect="SSMR",
                     binding=None),
                std, std + ["q+", "q-"], None))
        else:
            theta = float(self.rng.uniform(0.2, 2.9))
            inputs.append(self._plan(
                dict(kind="toy", theta=theta, tol=1e-9, expect="EMMR",
                     binding=("macro", "step")),
                ["eig_up", "eig_down", "mixed"], ["up", "down", "q+", "q-"], "step"))
        order = self.rng.permutation(len(inputs))
        return [inputs[i] for i in order]

    @staticmethod
    def run(inp):
        kind = inp["kind"]
        if kind.startswith("cap"):
            model = zoo.kochen_specker_model(inp["grid"], inp["fragment"])
            fragment, bindings = inp["fragment"], inp["bindings"]
        else:
            if kind == "bb":
                fragment = inp["fragment"]
                model = zoo.beltrametti_bugajski_model(fragment)
            elif kind == "det":
                fragment = inp["fragment"]
                model = zoo.deterministic_extension_model(fragment)
            else:
                model, fragment = zoo.emmr_toy_model(inp["theta"])
            bindings = ontomodel.default_bindings(model, fragment)
        report = ontomodel.validate(model, fragment, bindings, inp["tol"])
        verdict = ontomodel.classify(model, fragment)
        queries = inp["queries"]
        n_before = len(queries) - len(inp["pushes"]) * (len(inp["singles"]) + 1)
        overlaps = [ontomodel.asymmetric_overlap(model, mu, t) for mu, t in queries[:n_before]]
        for mu in inp["pushes"]:
            weights = ontomodel.push_forward(model, mu, inp["map"])
            new = f"{mu}>{inp['map']}"
            model = model.with_preparation(new, weights, delta_of=new)
        overlaps += [ontomodel.asymmetric_overlap(model, mu, t) for mu, t in queries[n_before:]]
        macro = model.macro_measurement
        response = model.response(macro)
        kernels = []
        for row, q in enumerate(model.outcome_labels[macro]):
            for name in model.eigenstate_preps[q]:
                kernels.append((name, ontomodel.kernel_set(response[row], model.preparation(name))))
        correlators = None
        if inp["binding"] is not None:
            correlators = lgi.model_correlators(model, lgi.LGIModelBinding(*inp["binding"]))
        return model, report, verdict, overlaps, kernels, correlators

    @staticmethod
    def check(inp, out) -> list:
        model, report, verdict, overlaps, kernels, correlators = out
        problems = []
        if not report.passed:
            problems.append(f"{inp['kind']}: Born deviation {report.max_deviation!r} above {inp['tol']}")
        if verdict.kind != inp["expect"]:
            problems.append(f"{inp['kind']}: classified {verdict.kind}, expected {inp['expect']}")
        supports: dict = {}
        for i in inp["sample"]:
            mu, targets = inp["queries"][i]
            value, union = _oracle_overlap(model, mu, targets, supports)
            got = overlaps[i]
            if abs(got.value - value) > 1e-12 or set(int(a) for a in got.realizing_set) != union:
                problems.append(f"{inp['kind']}: overlap({mu}, {targets}) = {got.value!r}, oracle {value!r}")
        for name, kernel in kernels:
            mass = math.fsum(model.preparation(name)[kernel].tolist())
            if mass < 1.0 - 1e-9:
                problems.append(f"{inp['kind']}: kernel of {name} carries {mass!r}, not 1")
        if correlators is not None:
            c12, c23, c13, k = (float(x) for x in correlators)
            if max(abs(c12), abs(c23), abs(c13)) > 1.0 + 1e-12 or abs(k - (c12 + c23 - c13)) > 1e-12:
                problems.append(f"{inp['kind']}: inconsistent correlators {correlators!r}")
            if inp["kind"] == "toy":
                c, c2 = math.cos(inp["theta"]), math.cos(inp["theta"]) ** 2
                if max(abs(c12 - c), abs(c23 - c), abs(c13 - c2)) > 1e-12:
                    problems.append(f"toy: correlators {correlators!r} off cos(theta)={c!r}")
        return problems


# -- command line -----------------------------------------------------------------

DIGESTS = Path(__file__).with_name("cli_digests.json")
ALPHA_GRID = tuple(float(a) for a in np.linspace(0.05, 0.70, 12)) + tuple(
    witness.ALPHA_MAX - d for d in (1e-2, 1e-3, 1e-4, 1e-6)
)
CLI_DIMS = (4, 6)
# 6 points x 4 commands + 5 fixed commands = 29 operations, enough for a
# tail with ten operations beyond it from one cycle
CLI_POINTS_PER_DIM = 3
MODEL_FILE = "ks-model.json"
FRAGMENT_FILE = "ks-fragment.json"


FIXED_COMMANDS = [
    ["sweep", "--steps", "64", "--csv", "-"],
    ["zoo", "ks", "--check-born", "--model-out", MODEL_FILE, "--fragment-out", FRAGMENT_FILE],
    ["classify", "--model", MODEL_FILE, "--fragment", FRAGMENT_FILE],
    ["lgi", "--model", "quantum", "--csv", "-"],
    ["lgi", "--model", "ks", "--csv", "-"],
]


def _point_commands(alpha: float, dim: int) -> list:
    a, d = repr(alpha), str(dim)
    out = [["witness", "--alpha", a, "--dim", d, "--json", "-"]]
    for mode in ("esmr", "emmr", "max-overlap"):
        out.append(["exclude", "--alpha", a, "--dim", d, "--mode", mode])
    return out


def cli_script(rng) -> list:
    """One cycle of the fixed command script; each entry is the argument
    list after ``macroreal``. Only the alpha of each exclusion point is
    seeded, drawn from ALPHA_GRID so every command has a recorded digest."""
    script = []
    for dim in CLI_DIMS * CLI_POINTS_PER_DIM:
        script += _point_commands(ALPHA_GRID[int(rng.integers(len(ALPHA_GRID)))], dim)
    return script + FIXED_COMMANDS


def cli_commands() -> list:
    """Every command a script can contain, in an order that runs
    ``zoo ks`` before the ``classify`` that reads its files."""
    points = [c for a in ALPHA_GRID for d in CLI_DIMS for c in _point_commands(a, d)]
    return points + FIXED_COMMANDS


def child_env() -> dict:
    """The benchmark's environment, importing the library from ``src``."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Cli:
    """One operation runs one ``macroreal`` subcommand as a child process
    (one child at a time); traced runs call ``macroreal.cli.run`` in-process
    instead, so the library calls under it can be spanned."""

    name = "cli"
    NOMINAL_CYCLE_S = 33.0
    MIN_CYCLES = 1
    CYCLE_GROUP = 1

    def __init__(self, seed: int, traced: bool):
        self.rng = np.random.default_rng([seed, 3])
        self.in_process = traced
        self.digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.workdir = OUT_DIR / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.child_rss_kb = 0
        parser = cli.build_parser()
        for argv in cli_script(np.random.default_rng(0)):
            parser.parse_args(argv)  # the script must match the CLI

    def cycle(self, k: int) -> list:
        return cli_script(self.rng)

    def warm_up(self) -> None:
        subprocess.run([sys.executable, "-c", "import macroreal"], env=self.env, cwd=ROOT, check=True)

    @staticmethod
    def label(argv) -> str:
        if argv[0] == "exclude":
            return f"exclude-{argv[-1]}"
        if argv[0] == "lgi":
            return f"lgi-{argv[2]}"
        return argv[0]

    def run(self, argv):
        if self.in_process:
            buf = io.StringIO()
            cwd = os.getcwd()
            os.chdir(self.workdir)
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.run(list(argv))
            finally:
                os.chdir(cwd)
            return code, buf.getvalue().encode()
        with open(self.workdir / "stderr.txt", "wb") as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "macroreal.cli", *argv],
                stdout=subprocess.PIPE, stderr=err, cwd=self.workdir, env=self.env,
            )
            try:
                out = child.stdout.read()
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                child.stdout.close()
        child.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return child.returncode, out

    def check(self, argv, out) -> list:
        code, stdout = out
        key = " ".join(argv)
        want = self.digests.get(key)
        if code != 0:
            return [f"`macroreal {key}` exited {code}"]
        if want is None:
            return [f"no recorded digest for `macroreal {key}`"]
        got = {"stdout": hashlib.sha256(stdout).hexdigest()}
        for name in want.get("files", {}):
            got.setdefault("files", {})[name] = sha256_file(self.workdir / name)
        if got != want:
            return [f"`macroreal {key}` output differs from its recorded digest"]
        return []

    def close(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()


WORKLOADS = {w.name: w for w in (Exclusion, ModelAudit, Cli)}
