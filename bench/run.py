"""Benchmark for macroreal: one seeded workload, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload exclusion --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the current directory. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its
per-layer metrics. The lines before it say the same for a reader, with
sample counts, per-stratum medians and the run's environment. See
bench/README.md for what each workload and metric is.
"""

from __future__ import annotations

import os

# A single caller in a closed loop; one BLAS thread keeps runs steady on a
# small shared machine. Set before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path.cwd()
TAIL_BEYOND = 10        # op_s.tail is the time with this many samples above it
SETUP_PROBES = 7
CHILD_PROBES = 3
EMMR_RSS_DIMS = (4, 8, 10)
TIME_LIMIT_S = 150.0    # start no new operation after this long
OP_LIMIT_S = 60.0       # an operation still running after this long fails
RUN_LIMIT_S = 170.0     # ... and so does one still running at this point of the run


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import the library from this checkout's ``src`` and the workloads."""
    src = ROOT / "src"
    if not (src / "macroreal" / "__init__.py").is_file():
        fail(f"no src/macroreal under {ROOT}; run from the repository root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import macroreal
    if Path(macroreal.__file__).resolve().parent != (src / "macroreal").resolve():
        fail(f"imported macroreal from {macroreal.__file__}, not from {src}")
    import hostspeed
    import workloads
    return workloads, hostspeed


def timed_child(args, ready: bytes | None = None) -> tuple:
    """Run one child process to completion. Return the seconds until it
    printed the line ``ready`` (or until it exited), its peak RSS in KB as
    rusage reports it, and the last line it printed."""
    t0 = time.perf_counter()
    from workloads import child_env

    child = subprocess.Popen(args, stdout=subprocess.PIPE, cwd=ROOT, env=child_env())
    try:
        seconds = None
        if ready is not None:
            line = child.stdout.readline()
            seconds = time.perf_counter() - t0
            if line.strip() != ready:
                raise RuntimeError(f"child {args[1:]} printed {line!r}")
        rest = child.stdout.read().split()
        _, status, usage = os.wait4(child.pid, 0)
        if seconds is None:
            seconds = time.perf_counter() - t0
    except BaseException:
        child.kill()
        child.wait()
        raise
    finally:
        child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(f"child {args[1:]} exited {child.returncode}")
    return seconds, usage.ru_maxrss, rest[-1].decode() if rest else ""


def setup_probe(args) -> dict:
    """One fresh-process set-up time: interpreter start, imports and the
    first cycle's input generation, up to where the first operation would run."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    return dict(start=start, seconds=timed_child(probe, ready=b"ready")[0])


# The child reports its own high-water RSS: a child's rusage ru_maxrss is
# at least the parent's RSS at fork, which would hide the small dimensions.
EMMR_CHILD = """
import macroreal as m
b = m.build_witness(m.WitnessParams({alpha!r}, {dim}))
r = m.WitnessExclusion(b).emmr()
if r.status != "infeasible":
    raise SystemExit(f"emmr ended {{r.status}}")
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


class OperationTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise OperationTimeout("operation still running after its time limit")


@contextlib.contextmanager
def time_limit():
    """Fail the operation with OperationTimeout when it runs past
    OP_LIMIT_S, or past RUN_LIMIT_S since the benchmark started, so a
    stalled operation is counted as failed instead of holding up the run."""
    left = min(OP_LIMIT_S, RUN_LIMIT_S - (time.perf_counter() - START))
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, max(left, 1.0))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The time with TAIL_BEYOND samples above it, and its percentile."""
    if len(xs) <= TAIL_BEYOND:
        return 0.0, 0.0
    ordered = sorted(xs)
    return ordered[-TAIL_BEYOND - 1], 100.0 * (len(xs) - TAIL_BEYOND) / len(xs)


def measure(workloads, cls, args, tracer, host):
    """Warm up, then run whole cycles. In a traced run, every second cycle
    replays the one before it with spans on, so traced and untraced times
    come from the same inputs. An untraced run spreads its set-up probes
    evenly between the cycles, so they sample the same machine as the
    operations. The host-speed kernel is timed between operations, every
    ``hostspeed.EVERY_S`` seconds, and once more at the end; ``host_scale``
    then gives every operation and probe its time at the reference speed."""
    if tracer is None:
        work = cls(args.seed, False)
    else:
        with tracer.patched(workloads.TRACE_SITES):  # set-up spans carry op None
            work = cls(args.seed, True)
    work.warm_up()
    cycles = max(cls.MIN_CYCLES, round(args.seconds / cls.NOMINAL_CYCLE_S))
    cycles += -cycles % cls.CYCLE_GROUP  # whole turns of what a workload rotates
    probes_before = [0] * (cycles + 1)
    if tracer is None:
        for i in range(SETUP_PROBES):
            probes_before[i * cycles // SETUP_PROBES] += 1
    else:
        cycles += cycles % 2
    setups = []
    ops, problems = [], []
    inputs = None
    host.sample()
    try:
        for j in range(cycles):
            for _ in range(probes_before[j]):
                host.maybe_sample()
                setups.append(setup_probe(args))
            traced = tracer is not None and j % 2 == 1
            if not traced:
                inputs = work.cycle(j)
            for inp in inputs:
                if time.perf_counter() - START > TIME_LIMIT_S:
                    print(f"bench: time limit reached in cycle {j} of {cycles}", file=sys.stderr)
                    return work, ops, problems, setups
                host.maybe_sample()
                op_id, out = len(ops), None
                t0 = time.perf_counter()
                try:
                    if traced:
                        with time_limit(), tracer.patched(workloads.TRACE_SITES), \
                                tracer.operation(op_id):
                            out = work.run(inp)
                    else:
                        with time_limit():
                            out = work.run(inp)
                    t1 = time.perf_counter()
                    found = work.check(inp, out)
                except Exception as exc:  # a failed operation is counted, not fatal
                    t1 = time.perf_counter()
                    found = [f"{type(exc).__name__}: {exc}"]
                del out
                ops.append(dict(cycle=j, label=work.label(inp), start=t0, seconds=t1 - t0,
                                ok=not found, traced=traced))
                problems += [f"op {op_id} ({work.label(inp)}): {p}" for p in found]
    finally:
        host.sample()
    return work, ops, problems, setups


def host_scale(host, ops, setups) -> None:
    """Add to every operation and set-up probe its time at the reference
    host speed (``scaled``), from the kernel samples beside it."""
    for rec in ops + setups:
        rec["scaled"] = rec["seconds"] * host.factor(rec["start"], rec["start"] + rec["seconds"])


def end_to_end(work, ops, setups, key="scaled") -> dict:
    """The end-to-end metrics from each operation's ``key`` time: its time
    at the reference host speed, or ``seconds`` as measured."""
    times = [o[key] for o in ops if o["ok"]]
    if hasattr(work, "child_rss_kb"):  # operations run in child processes
        rss_kb = work.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": median([s[key] for s in setups]),
        "op_s.p50": median(times),
        "op_s.tail": tail(times)[0],
        "ops_per_s": len(times) / sum(times) if times else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }


LP_KINDS = {
    "exclusion.access": "access",
    "exclusion.esmr": "esmr",
    "exclusion.emmr": "emmr",
    "exclusion.max_overlap": "max_overlap",
}


def per_layer(workloads, tracer, ops, extra) -> dict:
    """Layer metrics from the spans. Times are seconds per traced operation
    (``zoo.grid_s`` is per call); counts are per operation of the first
    traced cycle, so they repeat exactly for a seed."""
    from tracer import ancestor_names, self_times

    spans = tracer.spans
    traced = [i for i, o in enumerate(ops) if o["traced"]]
    first_cycle = ops[traced[0]]["cycle"] if traced else None
    first = {i for i in traced if ops[i]["cycle"] == first_cycle}
    n, n1 = max(len(traced), 1), max(len(first), 1)
    selfs = self_times(spans)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def per_op(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ())) / n

    def in_first(name):
        return [i for i in by_name.get(name, ()) if spans[i][4] in first]

    m = {
        "witness.build_s": per_op("witness.build"),
        "witness.antidist_s": per_op("witness.antidist"),
        "exclusion.access_s": per_op("exclusion.access"),
        "exclusion.assemble_s": sum(
            selfs[i] for name in ("exclusion.esmr", "exclusion.emmr", "exclusion.max_overlap")
            for i in by_name.get(name, ())) / n,
    }
    solves = {kind: [] for kind in LP_KINDS.values()}
    for i in by_name.get("lp.solve", ()):
        kind = next((LP_KINDS[a] for a in ancestor_names(spans, i) if a in LP_KINDS), None)
        if kind is not None:
            solves[kind].append(i)
    for kind, idx in solves.items():
        firsts = [i for i in idx if spans[i][4] in first and spans[i][5] is not None]
        m[f"lp.solves.{kind}"] = len(firsts) / n1
        m[f"lp.solve_s.{kind}"] = sum(spans[i][2] - spans[i][1] for i in idx) / n
        m[f"lp.pivots.{kind}"] = sum(spans[i][5][0] for i in firsts) / n1
        m[f"lp.tableau_cells.{kind}"] = float(max((spans[i][5][1] for i in firsts), default=0))
    access_lps = m["lp.solves.access"] * n1
    accessible = sum(spans[i][5] for i in in_first("exclusion.access") if spans[i][5] is not None)
    m["exclusion.access_lps"] = m["lp.solves.access"]
    m["exclusion.access_yield"] = accessible / access_lps if access_lps else 0.0
    shapes = {spans[i][5][0]: spans[i][5][1:] for i in in_first("exclusion.emmr") if spans[i][5]}
    for dim in workloads.Exclusion.DIMS:
        vars_, rows = shapes.get(dim, (0, 0))
        m[f"exclusion.emmr_vars.d{dim}"] = float(vars_)
        m[f"exclusion.emmr_rows.d{dim}"] = float(rows)
    residuals = [spans[i][5] for i in by_name.get("lp.verify", ()) if spans[i][5] is not None]
    m["lp.verify_s"] = per_op("lp.verify")
    m["lp.cert_residual_max"] = max(residuals, default=0.0)
    raised = sum(1 for i in by_name.get("lp.solve", ()) if spans[i][5] is None)
    m["lp.failures"] = float(raised + sum(1 for r in residuals if not r <= workloads.lp.CERT_TOL))

    sizes = [spans[i][5] for i in in_first("ontomodel.overlap") if spans[i][5] is not None]
    m["ontomodel.overlap_s"] = per_op("ontomodel.overlap")
    m["ontomodel.overlap_calls"] = len(in_first("ontomodel.overlap")) / n1
    m["ontomodel.realizing_atoms"] = sum(sizes) / len(sizes) if sizes else 0.0
    for short in ("with_preparation", "push_forward", "validate", "classify", "kernel_set"):
        m[f"ontomodel.{short}_s"] = per_op(f"ontomodel.{short}")
    grids = by_name.get("zoo.grid", ())
    m["zoo.grid_s"] = sum(spans[i][2] - spans[i][1] for i in grids) / len(grids) if grids else 0.0
    m["zoo.ks_build_s"] = per_op("zoo.ks_build")
    m["lgi.model_correlators_s"] = per_op("lgi.model_correlators")
    m["lgi.quantum_correlators_s"] = per_op("lgi.quantum_correlators")
    for short in ("model_to_json", "model_from_json", "dumps_json", "load_json"):
        m[f"serialize.{short}_s"] = per_op(f"serialize.{short}")
    m["serialize.json_bytes"] = float(sum(
        spans[i][5] for i in in_first("serialize.dumps_json") if spans[i][5] is not None)) / n1
    plain = [o["seconds"] for o in ops if o["ok"] and not o["traced"]]
    spanned = [o["seconds"] for o in ops if o["ok"] and o["traced"]]
    m["trace.overhead"] = median(spanned) - median(plain)
    m.update(extra)
    return m


def child_layers(args, workloads) -> dict:
    """Layers measured in child processes: interpreter start, import, and
    EMMR peak memory per dimension (in-process peak RSS only ever rises)."""
    py = sys.executable
    out = {
        "cli.interp_s": median([timed_child([py, "-c", "pass"])[0] for _ in range(CHILD_PROBES)]),
        "cli.import_s": median(
            [timed_child([py, "-c", "import macroreal"])[0] for _ in range(CHILD_PROBES)]),
    }
    for dim in EMMR_RSS_DIMS:
        rss = 0.0
        if args.workload == "exclusion":
            alpha = next(a for a, d in workloads.Exclusion(args.seed, False).cycle(0) if d == dim)
            rss = int(timed_child([py, "-c", EMMR_CHILD.format(alpha=alpha, dim=dim)])[2]) / 1024.0
        out[f"exclusion.emmr_rss_mb.d{dim}"] = rss
    return out


def environment(args) -> dict:
    import numpy
    import scipy

    src = ROOT / "src" / "macroreal"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None when no
    such library can be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        fail(f"no BENCHMARK.json in {ROOT}; run from the repository root")
    spec = json.loads(bench_file.read_text())
    workloads, hostspeed = load_program()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        work = cls(args.seed, False)
        work.cycle(0)
        print("ready", flush=True)
        if hasattr(work, "close"):
            work.close()
        return 0

    workloads.OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    host = hostspeed.HostSpeed()
    work, ops, problems, setups = measure(workloads, cls, args, tracer, host)
    host_scale(host, ops, setups)
    try:
        if args.trace:
            values = per_layer(workloads, tracer, ops, child_layers(args, workloads))
            declared = spec["per_layer"]
            # span and child times are scaled by the run's median kernel time
            scale = hostspeed.REF_S / host.median()
            for entry in declared:
                if entry["unit"] == "s" and entry["name"] in values:
                    values[entry["name"]] *= scale
            values["host.kernel_s"] = host.median()
        else:
            values = end_to_end(work, ops, setups)
            declared = spec["end_to_end"]
    finally:
        if hasattr(work, "close"):
            work.close()

    env = environment(args)
    times = [o["scaled"] for o in ops if o["ok"] and not o["traced"]]
    failed = sum(1 for o in ops if not o["ok"])
    for p in problems[:20]:
        print(f"bench: FAILED {p}", file=sys.stderr)
    print(f"# {args.workload}: {len(ops)} operations, {failed} failed, "
          f"fail_rate {failed / max(len(ops), 1):.6g} (ratio)")
    if not args.trace:
        _, pct = tail(times)
        print(f"# op_s.tail is p{pct:.1f} over n={len(times)} untraced operations; "
              f"setup_s is the median of {len(setups)} fresh processes")
        for label in sorted({o["label"] for o in ops}):
            sub = [o["scaled"] for o in ops if o["label"] == label and o["ok"]]
            print(f"#   {label:>20}: n={len(sub)} median {median(sub):.6g} s")
    print(f"# host kernel median {host.median():.6g} s over {len(host.samples)} samples "
          f"(reference {hostspeed.REF_S} s); times are at the reference speed")
    if not args.trace:
        raw = end_to_end(work, ops, setups, key="seconds")
        print("# as measured: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb"))
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            fail(f"metric {name!r} declared in BENCHMARK.json is not computed")
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}
        print(f"{name} = {values[name]:.9g} {entry['unit']}")
    print(f"# env {json.dumps(env, sort_keys=True)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "ops": ops, "setups": setups, "metrics": metrics, "problems": problems,
              "host": {"ref_s": hostspeed.REF_S, "at": host.at, "kernel_s": host.samples}}
    (workloads.OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record) + "\n")
    if tracer is not None:
        (workloads.OUT_DIR / f"spans-{tag}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "note"], "spans": tracer.spans}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
