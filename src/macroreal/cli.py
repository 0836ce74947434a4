"""Batch front door: witness sweeps, exclusion certificates, zoo builds,
classification, and LGI scans, serialized to JSON or CSV.

Exit codes: 0 success, 1 certification failure, 2 usage error (a bad flag,
a malformed input file or a grid too large to allocate). Exit 1 writes one
line to stderr, ``certification failure: <reason>``, and leaves stdout as it
would be on success. Outputs are deterministic for fixed flags and a
fixed BLAS thread count. CSV floats print with 17 significant digits; JSON
floats print as their shortest round-trip ``repr``, as ``json`` writes them.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .exclusion import WitnessExclusion
from .lgi import LGIModelBinding, model_correlators, quantum_correlators, rotation_protocol
from .lp import CERT_TOL, PivotBudgetError, farkas_gain
from .ontomodel import classify, default_bindings, validate
from .serialize import (
    dumps_json,
    fragment_from_json,
    fragment_to_json,
    load_json,
    model_from_json,
    model_to_json,
    write_json,
)
from .witness import (
    CertificationError,
    WitnessParams,
    build_witness,
    check_antidistinguishable,
    contradiction_gap,
    sweep,
)
from .zoo import (
    beltrametti_bugajski_model,
    bloch_vector,
    deterministic_extension_model,
    emmr_toy_model,
    fibonacci_sphere_grid,
    kochen_specker_model,
    paired_validation_grid,
    qubit_fragment,
    standard_qubit_fragment,
)

LGI_HEADER_NOTE = "k_convention=c12+c23-c13_classical_bound_1"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _count(text: str) -> int:
    """A grid size of at least 1: an empty grid would certify vacuously."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def _emit(text: str, target: str | None) -> None:
    if target is None or target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text)


def _emit_json(obj, target: str | None) -> None:
    """``obj`` as JSON: streamed by ``write_json`` to a file target, through
    ``dumps_json`` to ``sys.stdout`` as it is at call time, so a redirect
    of stdout captures it."""
    if target is None or target == "-":
        sys.stdout.write(dumps_json(obj))
    else:
        with open(target, "w") as fh:
            write_json(obj, fh)


def _fail(reason: str) -> int:
    """Exit 1 with the one stderr line that names the failed certificate."""
    print(f"certification failure: {reason}", file=sys.stderr)
    return 1


def _witness_json(alpha: float, dim: int) -> dict:
    bundle = build_witness(WitnessParams(alpha, dim))
    report = check_antidistinguishable(bundle.psi, bundle.phi, bundle.zero)
    gap = contradiction_gap(alpha)
    return {
        "alpha": alpha,
        "dim": dim,
        "coefficients": bundle.coefficients._asdict(),
        "antidistinguishability": {
            "a": report.a, "b": report.b, "c": report.c,
            "inequality1_ok": report.inequality1_ok,
            "inequality2_ok": report.inequality2_ok,
            "slack1": report.slack1, "slack2": report.slack2,
            "certified": report.certified,
            "residuals": report.residuals,
        },
        "contradiction": {
            "esmr_lower_bound": gap.esmr_lower_bound,
            "quantum_upper_bound": gap.quantum_upper_bound,
            "deficit": gap.deficit,
        },
    }


def _cmd_witness(args) -> int:
    payload = _witness_json(args.alpha, args.dim)
    _emit_json(payload, args.json)
    report = payload["antidistinguishability"]
    if not report["certified"]:
        return _fail(
            "witness triple is not certified anti-distinguishable "
            f"(slack1 {report['slack1']:.3g}, slack2 {report['slack2']:.3g})"
        )
    return 0


def _cmd_sweep(args) -> int:
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.steps)
    rows = sweep(alphas.tolist(), args.dim)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["alpha", "beta", "tau", "delta", "eta", "kappa", "a", "b", "c",
         "antidist_ok", "esmr_lower", "quantum_upper", "deficit"]
    )
    for row in rows:
        co, ad, gap = row.coefficients, row.antidist, row.contradiction
        writer.writerow(
            [_fmt(row.alpha), _fmt(co.beta), _fmt(co.tau), _fmt(co.delta),
             _fmt(co.eta), _fmt(co.kappa), _fmt(ad.a), _fmt(ad.b), _fmt(ad.c),
             str(ad.certified).lower(), _fmt(gap.esmr_lower_bound),
             _fmt(gap.quantum_upper_bound), _fmt(gap.deficit)]
        )
    _emit(buf.getvalue(), args.csv)
    failed = [r.alpha for r in rows if not r.antidist.certified]
    if failed:
        return _fail(
            f"{len(failed)} of {len(rows)} witness triples are not certified "
            f"anti-distinguishable (first at alpha {failed[0]!r})"
        )
    return 0


# --mode -> (WitnessExclusion method, the status that certifies the claim)
EXCLUDE_MODES = {
    "esmr": ("esmr", "infeasible"),
    "emmr": ("emmr", "infeasible"),
    "max-overlap": ("max_overlap", "optimal"),
}


def _cmd_exclude(args) -> int:
    context = WitnessExclusion(build_witness(WitnessParams(args.alpha, args.dim)))
    method, expected = EXCLUDE_MODES[args.mode]
    report = getattr(context, method)()
    _emit_json(report.to_json_dict(), args.json)
    residual = report.certificate_residual
    if report.status != expected:
        return _fail(
            f"{args.mode} program is {report.status}, not {expected} "
            f"(certificate residual {residual:.3g})"
        )
    if not residual <= CERT_TOL:
        if report.status == "infeasible":
            gain = farkas_gain(report.program, report.outcome)
            if gain < CERT_TOL:
                return _fail(f"{args.mode} ray gains {gain:.3g} < CERT_TOL {CERT_TOL:g}")
        return _fail(
            f"{args.mode} certificate residual {residual:.3g} exceeds CERT_TOL {CERT_TOL:g}"
        )
    return 0


def _zoo_build(args):
    pairs = None
    if args.model == "ks":
        state_dirs, meas_dirs = paired_validation_grid(args.pairs)
        dirs = {f"s{i}": tuple(d) for i, d in enumerate(state_dirs)}
        mdirs = {"macro": (0.0, 0.0, 1.0)}
        mdirs.update({f"m{i}": tuple(d) for i, d in enumerate(meas_dirs)})
        fragment = qubit_fragment(dirs, mdirs)
        model = kochen_specker_model(fibonacci_sphere_grid(args.nodes), fragment)
        pairs = tuple((f"s{i}", f"m{i}") for i in range(len(state_dirs)))
    elif args.model == "bb":
        fragment = standard_qubit_fragment()
        model = beltrametti_bugajski_model(fragment)
    elif args.model == "det":
        base = standard_qubit_fragment()
        fragment = qubit_fragment(
            {name: tuple(bloch_vector(s)) for name, s in base.states.items()},
            {"macro": (0.0, 0.0, 1.0)},
        )
        model = deterministic_extension_model(fragment)
    else:  # emmr-toy
        model, fragment = emmr_toy_model(math.pi / 3)
    return model, fragment, replace(default_bindings(model, fragment), pairs=pairs)


def _cmd_zoo(args) -> int:
    model, fragment, bindings = _zoo_build(args)
    result = {"model": args.model, "atoms": model.atoms}
    if args.check_born:
        report = validate(model, fragment, bindings, tol=args.tol)
        result["validation"] = {
            "passed": report.passed,
            "max_deviation": report.max_deviation,
            "tol": report.tol,
            "worst_pair": list(report.worst_pair),
        }
    if args.model_out:
        _emit_json(model_to_json(model), args.model_out)
    if args.fragment_out:
        _emit_json(fragment_to_json(fragment), args.fragment_out)
    _emit_json(result, args.json)
    if args.check_born and not result["validation"]["passed"]:
        return _fail(
            f"model misses the Born statistics by {report.max_deviation:.3g} "
            f"> tol {report.tol:g} at {report.worst_pair}"
        )
    return 0


def _cmd_classify(args) -> int:
    model = model_from_json(load_json(args.model))
    fragment = fragment_from_json(load_json(args.fragment))
    verdict = classify(model, fragment)
    payload = {"classification": verdict.kind, "evidence": verdict.evidence}
    _emit_json(payload, args.json)
    return 0


def _cmd_lgi(args) -> int:
    thetas = np.linspace(0.0, math.pi, args.theta_grid)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theta", "c12", "c23", "c13", "k", "model", LGI_HEADER_NOTE])
    if args.model == "ks":
        grid = fibonacci_sphere_grid(args.nodes)
    for theta in thetas:
        if args.model == "quantum":
            cors = quantum_correlators(rotation_protocol(theta))
        elif args.model == "ks":
            fragment = qubit_fragment(
                {"up": (0, 0, 1.0), "down": (0, 0, -1.0)},
                {"macro": (0, 0, 1.0)},
                rotations={"step": ((0.0, 1.0, 0.0), theta)},
            )
            model = kochen_specker_model(grid, fragment)
            cors = model_correlators(model, LGIModelBinding("macro", "step"))
        else:  # emmr-toy
            model, _ = emmr_toy_model(theta)
            cors = model_correlators(model, LGIModelBinding("macro", "step"))
        writer.writerow(
            [_fmt(theta), _fmt(cors.c12), _fmt(cors.c23), _fmt(cors.c13),
             _fmt(cors.k), args.model, ""]
        )
    _emit(buf.getvalue(), args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macroreal",
        description="Witness construction, overlap bounds, and LP exclusion "
        "certificates for macro-realist models of quantum fragments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="build and certify one witness")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--json", default="-")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("sweep", help="witness certification sweep over alpha")
    p.add_argument("--alpha-min", type=float, default=0.05)
    p.add_argument("--alpha-max", type=float, default=0.70)
    p.add_argument("--steps", type=_count, default=64)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--csv", default="-")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("exclude", help="LP exclusion certificates")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--mode", choices=list(EXCLUDE_MODES), required=True)
    p.add_argument("--json", default="-")
    p.set_defaults(func=_cmd_exclude)

    p = sub.add_parser("zoo", help="build reference models")
    p.add_argument("model", choices=["ks", "bb", "det", "emmr-toy"])
    p.add_argument("--nodes", type=int, default=20000)
    p.add_argument("--pairs", type=_count, default=50)
    p.add_argument("--check-born", action="store_true")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--model-out", default=None)
    p.add_argument("--fragment-out", default=None)
    p.add_argument("--json", default="-")
    p.set_defaults(func=_cmd_zoo)

    p = sub.add_parser("classify", help="classify a model JSON against a fragment JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--fragment", required=True)
    p.add_argument("--json", default="-")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("lgi", help="K-statistic scan over step angles")
    p.add_argument("--theta-grid", type=_count, default=32)
    p.add_argument("--model", choices=["quantum", "ks", "emmr-toy"], default="quantum")
    p.add_argument("--nodes", type=int, default=20000)
    p.add_argument("--csv", default="-")
    p.set_defaults(func=_cmd_lgi)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CertificationError, PivotBudgetError) as exc:
        return _fail(str(exc))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
