"""Record a ``BENCH_<n>.json``: end-to-end results, Tier-1 wall time, machine, per-layer times.

Run from the repository root::

    python3 tools/record_bench.py --out BENCH_22.json [--baseline CHECKOUT]

The file has four parts:

* ``end_to_end``: each workload of ``bench/run.py --trace 0`` run ``RUNS``
  times as a subprocess, ``SECONDS`` each, with seeds 1, 2, ...; the median
  and quartiles of every metric of the result lines, and the lines themselves;
* ``tier1``: the wall time, summary line and ten slowest tests of one
  Tier-1 run (``python -m pytest -q --durations=10`` with ``src`` on the path);
* ``machine``: ``machine_block()`` of ``bench/run.py``;
* ``per_layer``: the rows of one table of source trees, this checkout's
  ``src`` and, with ``--baseline``, another checkout's (say, the parent
  commit's), every part under ``trees.<tree>``.  ``trees.<tree>.verify``
  holds the time per ``verify-oracles`` round of each ``verify`` stage, from
  timers put around the stage functions while the suites run in-process on
  the benchmark's trial counts; ``trees.<tree>.engine`` the time per
  ``ccdf`` call of argument parsing and of each stage of the Monte Carlo
  engine (draw, Gram pair, optimum, scheme kernel, losses, emission), from
  ``cli.main`` run in-process on the ``ccdf-paper`` calls (L = 1, 2, 3, 5,
  Nt = 64, Nr = 4, bidirectional) and the ``ccdf-wide`` call, 200 trials
  each, one chunk of the engine.  The baseline's package is imported beside
  ``mmwbeam`` under another name, and a stage function that a tree lacks is
  not timed there.  Each of ``STAGE_ROUNDS`` rounds runs the verify round,
  then each ccdf call; the twins of a run, one per tree, sit next to each
  other, the tree that goes first alternating by round, and each timed call
  comes right after an untimed warm-up call of the same run, so a timed call
  starts as warm as its twin whatever ran before it.  Each stage is given by
  the quartiles of its times: a drift in machine load reaches every run
  alike and widens its quartiles.  These rows compare within one file,
  between twins; across files they move with the machine.
  ``long_runs.trees`` holds the quartiles over ``LONG_REPEATS`` rounds of
  ``run_ccdf`` at ``LONG_TRIALS`` trials, many chunks of the engine, at each
  L of ``ccdf-paper``, seated the same way.  ``cold_start.trees`` holds, for
  each of ``ccdf``, ``verify`` and ``closedform``, the quartiles over
  ``COLD_SPAWNS`` fresh interpreters of the time to import ``mmwbeam.cli``,
  of the first ``main`` call, and of the ``-X importtime`` self time of each
  ``mmwbeam`` module, and the self and cumulative times of ``numpy``,
  ``numpy.random`` and ``argparse``.

The file is written before the Tier-1 run, so the tests that read the
newest record find it, and written again with the ``tier1`` part.  Then
the script prints each row beside the same row of the newest earlier
``BENCH_<n>.json`` in the repository root, and, with ``--baseline``, each
``src`` row beside its ``baseline`` twin.

The script itself needs only the standard library; the per-layer part imports
``mmwbeam`` from ``src``, and ``machine_block`` imports numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402  bench/run.py
import workloads  # noqa: E402

# Rounds of the verify suites, and of each ccdf call, that the per-layer part times.
STAGE_ROUNDS = 30

# Untraced runs of each workload, and the length of each run in seconds.
RUNS = 3
SECONDS = 20.0

# Trials of each long run_ccdf call, and the calls per path count and source tree.
LONG_TRIALS = 100_000
LONG_REPEATS = 5

# Fresh interpreters per command and source tree that the cold-start part runs.
COLD_SPAWNS = 11
# Modules besides the package's whose -X importtime self and cumulative times the
# cold-start part records: numpy loads numpy.random on the first draw, and cli loads
# argparse only for a line its flag table does not read.
COLD_MODULES = ("numpy", "numpy.random", "argparse")
# A fresh interpreter of the cold-start part: it imports mmwbeam.cli from the tree
# given first, runs the command line given second, and prints its two times.
_COLD_CHILD = """\
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import mmwbeam.cli
imported = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = mmwbeam.cli.main(json.loads(sys.argv[2]))
done = time.perf_counter()
print(json.dumps({"exit": code, "import_cli": imported - start, "first_main": done - imported}))
"""


def end_to_end() -> dict:
    """Median and quartiles of each metric of ``RUNS`` untraced runs of every workload."""
    out = {}
    for workload in workloads.WORKLOADS:
        lines = []
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SECONDS), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        metrics = {}
        for name, entry in lines[0]["metrics"].items():
            values = [line["metrics"][name]["value"] for line in lines]
            metrics[name] = {"unit": entry["unit"], **bench_run.quartiles(values)}
        out[workload] = {"seeds": list(range(1, RUNS + 1)), "metrics": metrics, "results": lines}
    return out


def tier1() -> dict:
    """Wall time, summary line and ten slowest tests of one Tier-1 run."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=10"],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": summary,
            "slowest": slowest_tests(proc.stdout)}


def slowest_tests(report: str) -> list[dict]:
    """The ``--durations`` lines of a pytest report: seconds, phase and test id of each."""
    lines = re.findall(r"^(\d+\.\d+)s (setup|call|teardown) +(\S+)$", report, flags=re.M)
    return [{"seconds": float(seconds), "phase": phase, "test": test}
            for seconds, phase, test in lines]


def cold_commands() -> dict:
    """The command line of each command whose cold start is recorded.

    ``ccdf`` and ``verify`` are the set-up calls of ``ccdf-paper`` and
    ``verify-oracles``, one item each, as ``bench/run.py`` times them.
    """
    return {
        "ccdf": workloads.argv(workloads.setup_options("ccdf-paper", 1)),
        "verify": workloads.argv(workloads.setup_options("verify-oracles", 1)),
        "closedform": ["closedform", "--case", "v-orth", "--a1", "2", "--a2", "1", "--uu", "0.5"],
    }


def importtime_us(stderr: str) -> dict:
    """Self and cumulative microseconds of each module in ``-X importtime`` output, by name."""
    rows = re.findall(r"^import time: +(\d+) \| +(\d+) \| +(\S+)$", stderr, flags=re.M)
    return {name: (int(self_us), int(cumulative)) for self_us, cumulative, name in rows}


def _cold_child(src: Path, argv: list, importtime: bool) -> tuple[dict, str]:
    """The times one fresh interpreter prints, and its stderr."""
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _COLD_CHILD, str(src), json.dumps(argv)],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=bench_run.SETUP_TIMEOUT_S, check=True,
    )
    times = json.loads(proc.stdout)
    if times["exit"] != 0:
        raise RuntimeError(f"mmwbeam {' '.join(argv)} exited {times['exit']} under {src}")
    return times, proc.stderr


def _package_modules(src: Path) -> list[str]:
    """The name of every module of the ``mmwbeam`` package under ``src``."""
    stems = sorted(path.stem for path in (src / "mmwbeam").glob("*.py"))
    return ["mmwbeam" if stem == "__init__" else f"mmwbeam.{stem}" for stem in stems]


def cold_start(trees: dict) -> dict:
    """Quartiles in ms of each command's cold-start rows, for every source tree of ``trees``.

    ``trees`` maps a name to a ``src`` directory.  A round runs, for each
    command and tree in turn, one plain interpreter for the import and
    ``main`` times and one under ``-X importtime`` for the module self times;
    a module that an interpreter does not import reads 0.  Every other round
    runs the trees in reverse order.
    """
    commands = cold_commands()
    samples: dict = {tree: {command: defaultdict(list) for command in commands} for tree in trees}
    modules = {tree: [*_package_modules(src), *COLD_MODULES] for tree, src in trees.items()}
    for index in range(COLD_SPAWNS):
        for command, argv in commands.items():
            # the trees take turns to go first
            for tree, src in list(trees.items())[:: 1 if index % 2 == 0 else -1]:
                rows = samples[tree][command]
                times, _ = _cold_child(src, argv, importtime=False)
                rows["import_cli"].append(times["import_cli"])
                rows["first_main"].append(times["first_main"])
                _, stderr = _cold_child(src, argv, importtime=True)
                imported = importtime_us(stderr)
                for name in modules[tree]:
                    rows[name].append(imported.get(name, (0, 0))[0] / 1e6)
                for name in COLD_MODULES:
                    rows[f"{name} cumulative"].append(imported.get(name, (0, 0))[1] / 1e6)
    return {
        "unit": "ms per fresh interpreter; import_cli: import mmwbeam.cli; first_main: the first "
                "main call; each module: its -X importtime self time (and cumulative time, "
                "where named)",
        "spawns": COLD_SPAWNS,
        "bytecode_written": not sys.flags.dont_write_bytecode,
        "argv": commands,
        "trees": {tree: {command: _summary(rows, "ms") for command, rows in by_command.items()}
                  for tree, by_command in samples.items()},
    }


# The name another tree's package is imported under, beside this tree's ``mmwbeam``.
BASELINE_PACKAGE = "baseline_mmwbeam"


def tree_modules(tree: str, src: Path) -> SimpleNamespace:
    """The ``beamformer``, ``cli``, ``closedform``, ``montecarlo`` and ``verify`` modules of a tree.

    The tree named ``src`` is this checkout's ``mmwbeam``.  Another tree's
    package is imported once, from ``src``, as ``BASELINE_PACKAGE``; its
    modules import one another by relative name, so none of them is this
    tree's.
    """
    package = "mmwbeam"
    if tree != "src":
        package = BASELINE_PACKAGE
        if package not in sys.modules:
            package_dir = src / "mmwbeam"
            spec = importlib.util.spec_from_file_location(
                package, package_dir / "__init__.py",
                submodule_search_locations=[str(package_dir)])
            sys.modules[package] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[package])
    return SimpleNamespace(**{
        name: importlib.import_module(f"{package}.{name}")
        for name in ("beamformer", "cli", "closedform", "montecarlo", "verify")})


def _search_stage(terms, betas, num_theta) -> str:
    # a coarse scan shares one amplitude row; a refined one has a window per instance
    return "coarse_search" if betas.shape[0] == 1 else "refined_search"


def verify_stages(m: SimpleNamespace) -> list:
    """``(owner, attribute, stage)`` of each timed stage function of the verify suites.

    ``m`` holds one tree's modules, as :func:`tree_modules` gives them.  A
    stage is a name, or a function of the call's arguments that gives one.
    """
    return [
        (m.verify, "_draw_prop1", "draw"),
        (m.verify, "_draw_params", "draw"),
        (m.closedform, "_scans", _search_stage),
        (m.closedform, "_objectives", "objectives"),
        (m.verify, "_fixtures", "fixtures"),
        (m.verify, "_fixture_snrs", "fixture_svd"),
        (m.beamformer, "_dense_optimal", "dense_svd_route"),
        (m.verify, "_residuals", "span_residuals"),
        (m.verify, "_grams", "reduced_snr"),
        (m.beamformer, "_optimal_snr", "reduced_snr"),
    ]


def engine_stages(m: SimpleNamespace) -> list:
    """The same for a ccdf call.

    ``montecarlo`` imports its kernels by name, ``_SCHEME_SNR`` holds the
    scheme kernels and ``_TWO_PATH_SNR`` those on the couplings of L = 2,
    whose Gram data (``_couplings``) and optimum (``_two_path_optimal``)
    are timed under the stage names of the other L.  The self time of
    ``_trial_losses`` is the chunk loop itself: the frequency stack, the SNR
    ratios and the log10 of each loss.  At L = 1 the engine runs only the
    draw and writes zeros, so its Gram pair, optimum and scheme stages are
    not timed.
    """
    tables = [getattr(m.montecarlo, name, {}) for name in ("_SCHEME_SNR", "_TWO_PATH_SNR")]
    return [
        (m.cli, "_parse", "parsing"),
        (m.montecarlo, "_draw_chunk", "draw"),
        (m.montecarlo, "spatial_frequencies", "gram_pair"),
        (m.montecarlo, "_grams", "gram_pair"),
        (m.montecarlo, "_couplings", "gram_pair"),
        (m.montecarlo, "_optimal_snr", "optimum"),
        (m.montecarlo, "_two_path_optimal", "optimum"),
        *((table, scheme, "scheme") for table in tables for scheme in table),
        (m.montecarlo, "_trial_losses", "losses"),
        (m.montecarlo, "ccdf_to_csv", "emission"),
        (m.montecarlo, "ccdf_to_dict", "emission"),
        (m.cli, "_wrap_json", "emission"),
        (m.cli, "_emit", "emission"),
    ]


def binding(owner, name: str):
    """What ``owner`` binds to ``name``: an attribute of a module or class, or a dict entry."""
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _bound(owner, name: str) -> bool:
    """Whether ``owner`` binds a function to ``name``."""
    return callable(owner.get(name) if isinstance(owner, dict) else getattr(owner, name, None))


def _rebind(owner, name: str, fn) -> None:
    if isinstance(owner, dict):
        owner[name] = fn
    else:
        setattr(owner, name, fn)


@contextlib.contextmanager
def _stage_timers(stages, totals: dict):
    """Wrap every stage function for the duration of the block.

    Each wrapper adds its self time to ``totals[stage]``: the time of a timed
    call inside it goes to that call's stage only.
    """
    active = []  # time spent in timed calls nested in each active timed call

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            active.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = active.pop()
                totals[stage(*args) if callable(stage) else stage] += elapsed - nested
                if active:
                    active[-1] += elapsed

        return wrapper

    originals = [(owner, name, binding(owner, name)) for owner, name, _ in stages]
    try:
        for (owner, name, fn), (_, _, stage) in zip(originals, stages):
            _rebind(owner, name, timed(stage, fn))
        yield
    finally:
        for owner, name, fn in originals:
            _rebind(owner, name, fn)


def _summary(rounds: dict, unit: str) -> dict:
    """Quartiles of each stage's times in seconds, given in ``unit`` (ms or us)."""
    scale = {"ms": 1e3, "us": 1e6}[unit]
    summary = {}
    for stage, values in sorted(rounds.items()):
        q = bench_run.quartiles([scale * value for value in values])
        summary[stage] = {f"{key}_{unit}": q[key] for key in ("q1", "median", "q3")}
    return summary


def _timed_rounds(runs: dict, rounds: int) -> dict:
    """Self time of each stage of every run in each of ``rounds`` rounds, for every tree.

    ``runs`` maps a run's name to its twins, ``{tree: (stages, run)}``.  Round
    ``index`` takes the runs in turn and each run's twins next to each other,
    the tree that goes first alternating by round; each twin calls
    ``run(index)`` twice, an untimed warm-up and then the call timed with its
    own stages, so every timed call follows a call of the same run, whatever
    ran before.  The result maps tree, run and stage to the times in seconds;
    ``all`` is each timed call's wall time.
    """
    times: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for index in range(1, rounds + 1):
        for name, twins in runs.items():
            for tree, (stages, run) in list(twins.items())[:: 1 if index % 2 else -1]:
                run(index)
                totals: dict = defaultdict(float)
                with _stage_timers(stages, totals):
                    start = time.perf_counter()
                    run(index)
                    totals["all"] = time.perf_counter() - start
                for stage, seconds in totals.items():
                    times[tree][name][stage].append(seconds)
    return times


def _verify_round(index: int, suites) -> None:
    for suite, trials in workloads.VERIFY_TRIALS:
        if trials is not None:
            suites.run_suite(suite, trials, seed=index)


def _ccdf_call(options: dict, cli_module):
    """``run(index)`` for :func:`_timed_rounds`: the ``ccdf`` call at seed ``index``, in-process,
    through the ``main`` of ``cli_module``."""
    def run(index: int) -> None:
        argv = workloads.argv({**options, "seed": index})
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_module.main(argv) != 0:
                raise RuntimeError(f"mmwbeam {' '.join(argv)} failed")

    return run


def _ccdf_calls() -> dict:
    """Options of every ccdf call of the benchmark, by a readable name."""
    return {
        f"{workload} L={options['paths']} Nt={options['nt']} Nr={options['nr']}": options
        for workload in ("ccdf-paper", "ccdf-wide")
        for options in workloads.invocations(workload, 1, 0)
    }


def _tree_runs(tree: str, src: Path, calls: dict) -> dict:
    """``(stages, run)`` of the verify round and of each ccdf call of ``calls``, in one tree.

    A stage function that the tree lacks is left out.
    """
    m = tree_modules(tree, src)
    verify, engine = ([entry for entry in stages(m) if _bound(*entry[:2])]
                      for stages in (verify_stages, engine_stages))
    return {"verify": (verify, lambda index: _verify_round(index, m.verify)),
            **{name: (engine, _ccdf_call(options, m.cli)) for name, options in calls.items()}}


def _tree_layer(times: dict) -> dict:
    """Quartiles of one tree's verify stages per round and engine stages per ccdf call."""
    suites = times.pop("verify")
    suites["all_suites"] = suites.pop("all")
    engine = {}
    for name, stages in times.items():
        stages["other"] = [
            total - sum(values[i] for stage, values in stages.items() if stage != "all")
            for i, total in enumerate(stages["all"])
        ]
        engine[name] = _summary(stages, "us")
    return {"verify": _summary(suites, "ms"), "engine": engine}


def per_layer(trees: dict) -> dict:
    """Quartiles of each verify stage per round, and of each engine stage per ccdf call, per tree.

    ``trees`` maps a name to a ``src`` directory, as for :func:`cold_start`.
    """
    calls = _ccdf_calls()
    runs: dict = defaultdict(dict)
    for tree, src in trees.items():
        for name, twin in _tree_runs(tree, src, calls).items():
            runs[name][tree] = twin
    return {
        "unit": {"verify": "ms per verify-oracles round (prop1 40 instances, prop2-prop4 10 each)",
                 "engine": f"us per ccdf call of 200 trials (one chunk), at --seed 1 to "
                           f"{STAGE_ROUNDS}; other: the config records and sorting"},
        "rounds": STAGE_ROUNDS,
        "schedule": "each round runs the verify round, then each ccdf call; the twins of a run, "
                    "one per tree, next to each other, the tree that goes first alternating by "
                    "round; each timed call right after an untimed warm-up call of the same run",
        "argv": {name: workloads.argv({key: value for key, value in options.items()
                                       if key != "seed"})
                 for name, options in calls.items()},
        "trees": {tree: _tree_layer(times)
                  for tree, times in _timed_rounds(runs, STAGE_ROUNDS).items()},
    }


def long_runs(trees: dict) -> dict:
    """Quartiles in ms of ``run_ccdf`` at ``LONG_TRIALS`` trials, at each L of ``ccdf-paper``.

    Each call is the ``ccdf-paper`` configuration (Nt = 64, Nr = 4,
    bidirectional) at seed 1 to ``LONG_REPEATS``, in every tree of ``trees``,
    seated by :func:`_timed_rounds` as the per-layer runs are.
    """
    def call(montecarlo, paths: int):
        return lambda index: montecarlo.run_ccdf(montecarlo.McConfig(
            num_paths=paths, trials=LONG_TRIALS, seed=index, nt=64, nr=4))

    engines = {tree: tree_modules(tree, src).montecarlo for tree, src in trees.items()}
    runs = {f"L={paths}": {tree: ([], call(module, paths)) for tree, module in engines.items()}
            for paths in (1, 2, 3, 5)}
    return {
        "unit": "ms per run_ccdf call, Nt=64, Nr=4, bidirectional",
        "trials": LONG_TRIALS,
        "repeats": LONG_REPEATS,
        "trees": {tree: _summary({name: stages["all"] for name, stages in times.items()}, "ms")
                  for tree, times in _timed_rounds(runs, LONG_REPEATS).items()},
    }


def _tree_rows(layer: dict):
    """``(part, tree, row, median)`` of every median under a ``trees`` table of the per-layer
    part: its own, ``cold_start``'s and ``long_runs``'."""
    def leaves(node: dict, path: str):
        for key, value in node.items():
            median = next((name for name in value if name.startswith("median_")), None)
            if median is None:
                yield from leaves(value, f"{path}{key} ")
            else:
                yield f"{path}{key} {median}", value[median]

    for part, entry in (("per_layer", layer), ("cold_start", layer.get("cold_start", {})),
                        ("long_runs", layer.get("long_runs", {}))):
        for tree, node in entry.get("trees", {}).items():
            for row, median in leaves(node, ""):
                yield part, tree, row, median


def _rows(doc: dict) -> dict:
    """Every compared number of a BENCH document, keyed by a readable row name."""
    rows = {}
    for workload, entry in doc.get("end_to_end", {}).items():
        for metric, values in entry["metrics"].items():
            rows[f"end_to_end {workload} {metric}"] = values["median"]
    if "tier1" in doc:
        rows["tier1 wall_s"] = doc["tier1"]["wall_s"]
    for part, tree, row, median in _tree_rows(doc.get("per_layer", {})):
        rows[f"{part} {tree} {row}"] = median
    return rows


def _cells(values, width: int) -> str:
    return " ".join(f"{value:{width}.6g}" if value is not None else f"{'-':>{width}}"
                    for value in values)


def compare_trees(layer: dict) -> None:
    """Print each per-layer row of this tree beside its baseline twin; a row that only one
    tree has reads ``-`` in the other."""
    twins: dict = defaultdict(dict)
    for part, tree, row, median in _tree_rows(layer):
        twins[f"{part} {row}"][tree] = median
    print(f"{'row':<64} {'baseline':>12} {'src':>12} {'saved':>12}")
    for row, medians in twins.items():
        before, after = medians.get("baseline"), medians.get("src")
        saved = before - after if None not in (before, after) else None
        print(f"{row:<64} {_cells((before, after, saved), 12)}")


def compare(doc: dict, out: Path) -> None:
    """Print each row of ``doc`` beside the newest earlier ``BENCH_<n>.json``, if any."""
    earlier = {}
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and path.resolve() != out.resolve():
            earlier[int(match.group(1))] = path
    if not earlier:
        print("no earlier BENCH_<n>.json to compare with")
        return
    base = earlier[max(earlier)]
    old, new = _rows(json.loads(base.read_text(encoding="utf-8"))), _rows(doc)
    print(f"{'row':<72} {base.name:>14} {out.name:>14} {'new/old':>8}")
    for row in sorted(old.keys() | new.keys()):
        before, after = old.get(row), new.get(row)
        ratio = f"{after / before:8.3f}" if before and after is not None else " " * 8
        print(f"{row:<72} {_cells((before, after), 14)} {ratio}")


def _commit(checkout: Path) -> str | None:
    """The commit checked out at ``checkout``, or None where it is no git work tree."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the JSON file to write")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="checkout (such as the parent commit's) whose src/ per-layer rows "
                             "are recorded beside this one's")
    args = parser.parse_args(argv)
    trees = {"src": ROOT / "src"}
    if args.baseline is not None:
        trees["baseline"] = args.baseline / "src"
    layer = per_layer(trees)
    layer["cold_start"] = cold_start(trees)
    layer["long_runs"] = long_runs(trees)
    if args.baseline is not None:
        layer["baseline_commit"] = _commit(args.baseline)
    doc = {"machine": bench_run.machine_block(), "per_layer": layer, "end_to_end": end_to_end()}
    out = Path(args.out)
    # on disk before Tier-1 runs, for the tests that read the newest record
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    doc["tier1"] = tier1()
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    compare(doc, out)
    if args.baseline is not None:
        compare_trees(layer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
