"""Every command line the measurement tools run still parses, and the
tools' own rules hold.

``tools/bench_snapshot.py``, ``tools/cli_cost.py`` and
``tools/envelope_scan.py`` run fixed ``macroreal`` command lines, so a flag
that a change renames or removes would fail only minutes into a tool's run.
This test loads the tools with ``toolenv.load`` and parses each of their
command lines with the command line's own parser. ``tools/bench_pairs.py``'s
verdict rule is checked on synthetic runs, and its clone of the change and
its per-pair table with the runs stubbed; ``tools/digest_threads.py``'s
thread count check without starting a child, ``tools/traffic_lines.py``'s
exit when the package is not on the import path, ``tools/bench_snapshot.py``'s
host-speed scaling of the tier-1 wall time with the suite's run stubbed, and
the lines ``tools/outcome_bits.py`` prints for one witness, for the model
zoo, for each zoo model widened by one preparation and for each zoo
model's ``classify`` verdict. Last, each job of ``tools/toolenv.py`` is
checked to have no copy under ``tools/`` or ``tests/``, and its
``child_env`` recipe is checked.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest
from pathlib import Path

from macroreal.cli import build_parser
from toolenv import BLAS_VARS, ROOT, child_env, load


def _tool(name: str):
    return load(ROOT / "tools" / f"{name}.py")


def _tool_commands(monkeypatch) -> list:
    """The command lists of the three tools, in the order named above."""
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "1")   # envelope_scan sets them on import
    monkeypatch.setattr(sys, "path", list(sys.path))   # cli_cost adds src to it
    cli_cost = _tool("cli_cost")
    monkeypatch.setitem(sys.modules, "cli_cost", cli_cost)   # bench_snapshot imports it
    envelope = _tool("envelope_scan")
    return [
        _tool("bench_snapshot").point_commands(),
        cli_cost.fixed_commands(),
        [[*argv, "--alpha", "0.5", "--dim", "4"] for argv in envelope.COMMANDS.values()],
    ]


def test_every_tool_command_parses(monkeypatch):
    lists = _tool_commands(monkeypatch)
    assert all(lists)
    parser = build_parser()
    rejected = []
    for argv in (argv for commands in lists for argv in commands):
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(argv)
    assert rejected == []


TIGHT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.00, 1.01, 1.02, 1.03, 1.04]   # spread 0.025 of 1.02
WIDE = [0.6, 0.8, 1.0, 1.2, 1.4, 0.7, 0.9, 1.1, 1.3, 1.0]             # spread 0.45 of 1.0


@pytest.mark.parametrize("parent, change, better, expected", [
    (TIGHT, [v * 1.3 for v in TIGHT], "lower", "worse"),
    (TIGHT, [v * 1.1 for v in TIGHT], "higher", "gain"),
    (WIDE, [v * 1.05 for v in WIDE], "lower", "unresolved"),
    (TIGHT, TIGHT[::-1], "lower", "holds"),
], ids=["worse", "gain", "unresolved", "holds"])
def test_bench_pairs_verdict(parent, change, better, expected):
    assert _tool("bench_pairs").verdict(parent, change, 0.25, better) == expected


def test_bench_pairs_wide_spread_resolves_when_every_change_run_is_better():
    change = [min(WIDE) - 0.01] * len(WIDE)   # the medians differ by less than the parent's IQR
    assert _tool("bench_pairs").verdict(WIDE, change, 0.25, "lower") == "holds"


@pytest.mark.parametrize("status", ["", " M src/macroreal/lp.py\n"], ids=["clean", "dirty"])
def test_bench_pairs_runs_the_change_from_a_clone_of_a_clean_checkout(
        monkeypatch, tmp_path, capsys, status):
    tool = _tool("bench_pairs")
    (tmp_path / "parent" / "src" / "macroreal").mkdir(parents=True)
    (tmp_path / "parent" / "src" / "macroreal" / "__init__.py").touch()
    spec = json.loads((tool.ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["end_to_end"]]
    commands, bench_dirs = [], []
    parent = (tmp_path / "parent").resolve()

    def stub(argv, cwd=None, **kwargs):   # stands in for git and bench/run.py
        commands.append(argv[:2])
        if argv[:2] == ["git", "status"]:
            return subprocess.CompletedProcess(argv, 0, stdout=status)
        if argv[:2] == ["git", "clone"]:
            return subprocess.CompletedProcess(argv, 0)
        bench_dirs.append(Path(cwd))
        value = int(argv[argv.index("--seed") + 1]) + (0.0 if Path(cwd) == parent else 0.01)
        result = {"failed": 0, "attempted": 1,
                  "metrics": {name: {"value": value} for name in names}}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(subprocess, "run", stub)
    code = tool.main([str(tmp_path / "parent"), "--workload", "cli", "--seeds", "1-2"])
    out, err = capsys.readouterr()
    if status:
        assert code == 2 and out == "" and err.count("\n") == 1
        assert commands == [["git", "status"]]
        return
    assert code == 0 and err == ""
    assert commands[:2] == [["git", "status"], ["git", "clone"]]
    assert bench_dirs.count(parent) == 2
    change = [d for d in bench_dirs if d != parent]
    assert len(change) == 2 and all(d != tool.ROOT and d.parent.parent == parent.parent
                                    for d in change)
    assert list(tmp_path.iterdir()) == [tmp_path / "parent"]   # the clone's directory is gone
    rows = [line.split() for line in out.splitlines()[-2:]]   # the pairs, one row per seed
    assert rows == [[str(seed), *[f"{seed:g}", f"{seed + 0.01:g}"] * len(names)]
                    for seed in (1, 2)]


# Each job's own home is tools/toolenv.py. The [n] and \s+ keep these
# patterns out of a plain grep for the names they look for.
HARNESS_COPIES = {
    "load a file as a module": r"spec_from_file_locatio[n]\(",
    "assign BLAS_VARS": r"^\s*BLAS_VARS\s*=",
    "define child_env": r"^\s*def\s+child_env\b",
    "compute the root": r"Path\(__file__\)\.resolve\(\)\.parents\[1\]",
}


def test_each_harness_job_is_defined_only_in_toolenv():
    copies = [
        f"{path.relative_to(ROOT)}: {job}"
        for folder in ("tools", "tests") for path in sorted((ROOT / folder).glob("*.py"))
        if path.name != "toolenv.py"
        for job, pattern in HARNESS_COPIES.items()
        if re.search(pattern, path.read_text(), re.MULTILINE)
    ]
    assert copies == []


@pytest.mark.parametrize("threads", [None, 3], ids=["unpinned", "pinned"])
def test_child_env_puts_src_first_drops_warnings_and_pins_blas_when_asked(monkeypatch, threads):
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setenv("PYTHONWARNINGS", "error")
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "7")
    env = child_env(threads)
    assert env["PYTHONPATH"].split(os.pathsep) == [str(ROOT / "src"), "elsewhere"]
    assert "PYTHONWARNINGS" not in env
    assert [env[var] for var in BLAS_VARS] == ["7" if threads is None else str(threads)] * 3
    assert os.environ["PYTHONWARNINGS"] == "error"   # a copy: this process keeps its own


@pytest.mark.parametrize("threads", ["0", str((os.cpu_count() or 1) + 1)], ids=["zero", "above-cpus"])
def test_digest_threads_rejects_a_count_outside_the_cpus_before_starting(monkeypatch, threads):
    def started(*args, **kwargs):
        raise AssertionError("a child was started")

    monkeypatch.setattr(subprocess, "run", started)
    with pytest.raises(SystemExit) as stop:
        _tool("digest_threads").main([threads])
    assert stop.value.code == 2


def test_traffic_lines_without_the_package_names_its_import_path(monkeypatch, capsys):
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "1")   # traffic_lines sets them on import
    tool = _tool("traffic_lines")
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "macroreal" else find_spec(name, *args))
    with pytest.raises(SystemExit) as stop:
        tool.main()
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "macroreal is not importable" in err and "PYTHONPATH" in err


def test_bench_snapshot_scales_the_tier1_wall_by_host_samples_around_it(monkeypatch):
    monkeypatch.setitem(sys.modules, "cli_cost", _tool("cli_cost"))
    snapshot = _tool("bench_snapshot")
    hostspeed = load(ROOT / "bench" / "hostspeed.py")
    host = hostspeed.HostSpeed()
    samples_at_start = []

    def suite(argv, **kwargs):   # stands in for the nested pytest run
        samples_at_start.append(len(host.samples))
        assert argv[1:3] == ["-m", "pytest"]
        return subprocess.CompletedProcess(argv, 0, stdout=".\n700 passed in 1.00s\n")

    monkeypatch.setattr(subprocess, "run", suite)
    run = snapshot.tier1(host)
    assert samples_at_start == [1] and len(host.samples) == 2
    scale = hostspeed.REF_S / (0.5 * sum(host.samples))   # the mean of the two samples
    assert run["scaled_wall_s"] == pytest.approx(run["wall_s"] * scale, rel=1e-12)
    assert run["exit_code"] == 0 and run["summary"] == "700 passed in 1.00s"


def test_outcome_bits_prints_one_well_formed_line_per_program(monkeypatch):
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "1")   # outcome_bits sets them on import
    tool = _tool("outcome_bits")
    lines = tool.program_lines(4, 0.5)
    assert len(lines) == 6
    for line, method in zip(lines, tool.METHODS):
        assert re.fullmatch(rf"{method} 4 0\.5 [0-9a-f]{{16}}", line), line
    builds = tool.zoo_builds()
    models = {name: model for name, (model, _) in builds.items()}
    for kind, lines in (("model", tool.model_lines(models)),
                        ("overlap", tool.overlap_lines(models)),
                        ("widened", tool.widened_lines(models)),
                        ("classify", tool.classify_lines(builds))):
        assert len(lines) == 4
        for line, name in zip(lines, ("cap", "bb", "det", "emmr-toy")):
            assert re.fullmatch(rf"{kind} {name} [0-9a-f]{{16}}", line), line
    # each model is classified against its own fragment, and each kind occurs once
    kinds = [tool.classify(model, fragment).kind for model, fragment in builds.values()]
    assert kinds == ["ESMR", "NONE", "SSMR", "EMMR"]
    # the overlap targets are the states with delta sets and the macro values,
    # never the toy's bare preparation names eig_up and eig_down
    queries = []
    overlap = tool.asymmetric_overlap

    def recorded(model, mu, queried):
        queries.append((model, mu, queried))
        return overlap(model, mu, queried)

    monkeypatch.setattr(tool, "asymmetric_overlap", recorded)
    toy = models["emmr-toy"]
    tool.overlap_hash(toy)
    targets = {t for _, _, queried in queries
               for t in ((queried,) if isinstance(queried, str) else queried)}
    assert targets == {*toy.delta_sets, *toy.eigenstate_preps} == {"up", "down", "q+", "q-"}
    # the widened line asks the first delta-set state, twice for every
    # preparation of one model that registered "widened" into its delta set
    queries.clear()
    tool.widened_hash(toy)
    (wider,) = {id(model): model for model, _, _ in queries}.values()
    assert wider.delta_sets["up"] == (*toy.delta_sets["up"], "widened")
    assert [(mu, t) for _, mu, t in queries] == [
        (mu, "up") for mu in (*toy.preparations, "widened") for _ in range(2)]
