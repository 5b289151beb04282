"""Record a ``BENCH_<n>.json``: end-to-end results, Tier-1 wall time, machine, ``verify`` stages.

Run from the repository root::

    python3 tools/record_bench.py --out BENCH_22.json [--baseline CHECKOUT]

The file has four parts:

* ``end_to_end``: each workload of ``bench/run.py --trace 0`` run ``RUNS``
  times as a subprocess, ``SECONDS`` each, with seeds 1, 2, ...; the median
  and quartiles of every metric of the result lines, and the lines themselves;
* ``tier1``: the wall time, summary line and ten slowest tests of one
  Tier-1 run (``python -m pytest -q --durations=10`` with ``src`` on the path);
* ``machine``: ``machine_block()`` of ``bench/run.py``;
* ``per_layer``: the time per ``verify-oracles`` round of each ``verify``
  stage, from timers put around the stage functions while the suites run
  in-process on the benchmark's trial counts; and, under ``engine``, the
  time per ``ccdf`` invocation of argument parsing and of each stage of the
  Monte Carlo engine (draw, Gram pair, optimum, scheme kernel, losses,
  emission), from ``cli.main`` run in-process on the ``ccdf-paper`` calls
  (L = 1, 2, 3, 5, Nt = 64, Nr = 4, bidirectional) and the ``ccdf-wide``
  call.  Each call runs 200 trials, one chunk of the engine.  The verify
  round and the five calls take turns, one of each per round and in
  reverse order every other round, for ``STAGE_ROUNDS`` rounds, and each
  stage is given by the quartiles of its times: a drift in machine load
  while they run reaches every stage alike and widens its quartiles, where
  blocks of rounds, one call after the other, would read it as a change of
  one call's stages.  Under
  ``cold_start``, for each of ``ccdf``, ``verify`` and ``closedform``, the
  quartiles over ``COLD_SPAWNS`` fresh interpreters of the time to import
  ``mmwbeam.cli``, of the first ``main`` call, and of the ``-X importtime``
  self time of each ``mmwbeam`` module, and the self and cumulative times of
  ``numpy``, ``numpy.random`` and ``argparse``.  Under ``long_runs``, the
  quartiles over ``LONG_REPEATS`` calls of ``run_ccdf`` at ``LONG_TRIALS``
  trials, many chunks of the engine, at each L of ``ccdf-paper``.  With
  ``--baseline``, the same rows of another checkout's ``src`` are recorded
  in the same rounds, the two trees taking turns: its cold start, its long
  runs, and, under
  ``baseline_stages`` and ``baseline_engine``, its ``verify`` stages and the
  stages of its ``ccdf`` calls, parsing included, from its package imported
  beside this one under another name, whose verify round and each ``ccdf``
  call run next to this tree's same run, after it in one round and before it
  in the next.  A stage function
  that the baseline lacks is not timed there.

The file is written before the Tier-1 run, so the tests that read the
newest record find it, and written again with the ``tier1`` part.  Then
the script prints each row beside the same row of the newest earlier
``BENCH_<n>.json`` in the repository root.

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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402  bench/run.py
import workloads  # noqa: E402

from mmwbeam import beamformer, cli, closedform, montecarlo, verify  # noqa: E402

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


def _search_stage(terms, betas, num_theta) -> str:
    # a coarse scan shares one amplitude row; a refined one has a window per instance
    return "coarse_search" if betas.shape[0] == 1 else "refined_search"


# (owner, attribute, stage) of each timed stage function of the verify suites.
# A stage is a name, or a function of the call's arguments that gives one.
STAGES = [
    (verify, "_draw_prop1", "draw"),
    (verify, "_draw_params", "draw"),
    (closedform, "_scans", _search_stage),
    (closedform, "_objectives", "objectives"),
    (verify, "_fixtures", "fixtures"),
    (verify, "_fixture_snrs", "fixture_svd"),
    (beamformer, "_dense_optimal", "dense_svd_route"),
    (verify, "_residuals", "span_residuals"),
    (verify, "_grams", "reduced_snr"),
    (beamformer, "_optimal_snr", "reduced_snr"),
]

def engine_stages(cli_module, montecarlo_module) -> list:
    """The same for a ccdf call, at the bindings of the given ``cli`` and ``montecarlo``.

    ``montecarlo`` imports its kernels by name, and ``_SCHEME_SNR`` holds the
    scheme kernels.  The self time of ``_trial_losses`` is the chunk loop
    itself: the frequency stack, the SNR ratios and the log10 of each loss.
    """
    schemes = getattr(montecarlo_module, "_SCHEME_SNR", {})
    return [
        (cli_module, "_parse", "parsing"),
        (montecarlo_module, "_draw_chunk", "draw"),
        (montecarlo_module, "spatial_frequencies", "gram_pair"),
        (montecarlo_module, "_grams", "gram_pair"),
        (montecarlo_module, "_optimal_snr", "optimum"),
        *((schemes, scheme, "scheme") for scheme in schemes),
        (montecarlo_module, "_trial_losses", "losses"),
        (montecarlo_module, "ccdf_to_csv", "emission"),
        (montecarlo_module, "ccdf_to_dict", "emission"),
        (cli_module, "_wrap_json", "emission"),
        (cli_module, "_emit", "emission"),
    ]


ENGINE_STAGES = engine_stages(cli, montecarlo)


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


def _timed_rounds(runs: dict) -> dict:
    """Self time of each stage in each of ``STAGE_ROUNDS`` rounds, for every run of ``runs``.

    ``runs`` maps a name to ``(stages, run)``.  A round calls each
    ``run(index)`` once, in turn, with its own stages timed, so the runs
    interleave; every other round takes them in reverse order, so no run
    always follows the same one.  The first round warms caches and is not
    kept; ``all`` is each call's wall time.
    """
    rounds: dict = {name: defaultdict(list) for name in runs}
    for index in range(STAGE_ROUNDS + 1):
        for name, (stages, run) in list(runs.items())[:: 1 if index % 2 == 0 else -1]:
            totals: dict = defaultdict(float)
            with _stage_timers(stages, totals):
                start = time.perf_counter()
                run(index)
                totals["all"] = time.perf_counter() - start
            if index:
                for stage, seconds in totals.items():
                    rounds[name][stage].append(seconds)
    return rounds


def _verify_round(index: int, suites=verify) -> None:
    for suite, trials in workloads.VERIFY_TRIALS:
        if trials is not None:
            suites.run_suite(suite, trials, seed=index)


# The name the baseline tree's package is imported under, beside ``mmwbeam``.
BASELINE_PACKAGE = "baseline_mmwbeam"


def _baseline_module(src: Path, name: str):
    """The module of the ``mmwbeam`` package under ``src`` that ``name`` names in this tree.

    The package is imported once, as ``BASELINE_PACKAGE``; its modules import
    one another by relative name, so none of them is this tree's.
    """
    if BASELINE_PACKAGE not in sys.modules:
        package_dir = src / "mmwbeam"
        spec = importlib.util.spec_from_file_location(
            BASELINE_PACKAGE, package_dir / "__init__.py",
            submodule_search_locations=[str(package_dir)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[BASELINE_PACKAGE] = package
        spec.loader.exec_module(package)
    return importlib.import_module(name.replace("mmwbeam", BASELINE_PACKAGE, 1))


def _baseline_verify(src: Path) -> tuple[list, object]:
    """``(stages, run)`` of the verify round of the ``mmwbeam`` package under ``src``.

    Each of :data:`STAGES` is timed on the baseline's module of the same
    name, where that module has the function.
    """
    stages = []
    for owner, name, stage in STAGES:
        module = _baseline_module(src, owner.__name__)
        if _bound(module, name):
            stages.append((module, name, stage))
    baseline = _baseline_module(src, verify.__name__)
    return stages, lambda index: _verify_round(index, baseline)


def _baseline_engine(src: Path) -> tuple[list, object]:
    """``(stages, cli)`` of a ccdf call of the ``mmwbeam`` package under ``src``.

    The stages are :func:`engine_stages` of the baseline's ``cli`` and
    ``montecarlo``, each where the baseline binds the function.
    """
    baseline_cli = _baseline_module(src, cli.__name__)
    stages = engine_stages(baseline_cli, _baseline_module(src, montecarlo.__name__))
    return [entry for entry in stages if _bound(*entry[:2])], baseline_cli


def _ccdf_call(options: dict, cli_module=cli):
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


def _engine(calls: dict, rounds: dict) -> dict:
    """Quartiles per ccdf call of each engine stage, from the rounds of each call."""
    configs = {}
    for name, options in calls.items():
        stages = rounds[name]
        stages["other"] = [
            total - sum(values[i] for stage, values in stages.items() if stage != "all")
            for i, total in enumerate(stages["all"])
        ]
        argv = workloads.argv({key: value for key, value in options.items() if key != "seed"})
        configs[name] = {"argv": argv, "stages": _summary(stages, "us")}
    return {
        "unit": "us per ccdf call of 200 trials (one chunk), at --seed 1 to 30; "
                "other: the config records and sorting",
        "rounds": STAGE_ROUNDS,
        "configs": configs,
    }


def per_layer(baseline: Path | None = None) -> dict:
    """Quartiles per round of each verify stage, and of the engine's stages per ccdf call.

    ``baseline`` names another tree's ``src``, whose verify stages and
    engine stages are recorded too, under ``baseline_stages`` and
    ``baseline_engine``: each of its runs sits next to this tree's same run.
    """
    calls = _ccdf_calls()
    runs = {"verify": (STAGES, _verify_round)}
    if baseline is not None:
        runs["baseline verify"] = _baseline_verify(baseline)
        baseline_stages, baseline_cli = _baseline_engine(baseline)
    for name, options in calls.items():
        runs[name] = (ENGINE_STAGES, _ccdf_call(options))
        if baseline is not None:
            runs[f"baseline {name}"] = (baseline_stages, _ccdf_call(options, baseline_cli))
    rounds = _timed_rounds(runs)
    layer = {
        "unit": "ms per verify-oracles round (prop1 40 instances, prop2-prop4 10 each)",
        "rounds": STAGE_ROUNDS,
        "schedule": "round-robin: each round runs the verify round, then each ccdf call once"
                    + (", each run next to the baseline's" if baseline is not None else "")
                    + "; every other round in reverse order",
    }
    for key, run in (("stages", "verify"), ("baseline_stages", "baseline verify")):
        if run in rounds:
            suites = rounds.pop(run)
            suites["all_suites"] = suites.pop("all")
            layer[key] = _summary(suites, "ms")
    layer["engine"] = _engine(calls, rounds)
    if baseline is not None:
        layer["baseline_engine"] = _engine(
            calls, {name: rounds[f"baseline {name}"] for name in calls})
    return layer


def long_runs(baseline: Path | None = None) -> dict:
    """Quartiles in ms of ``run_ccdf`` at ``LONG_TRIALS`` trials, at each L of ``ccdf-paper``.

    Each call is the ``ccdf-paper`` configuration (Nt = 64, Nr = 4,
    bidirectional) at seed 1 to ``LONG_REPEATS``.  ``baseline`` names another
    tree's ``src``, whose ``run_ccdf`` runs each call too; the trees take
    turns to go first.
    """
    engines = {"src": montecarlo}
    if baseline is not None:
        engines["baseline"] = _baseline_module(baseline, montecarlo.__name__)
    samples: dict = {tree: defaultdict(list) for tree in engines}
    for seed in range(1, LONG_REPEATS + 1):
        for paths in (1, 2, 3, 5):
            for tree, module in list(engines.items())[:: 1 if seed % 2 else -1]:
                cfg = module.McConfig(num_paths=paths, trials=LONG_TRIALS, seed=seed, nt=64, nr=4)
                start = time.perf_counter()
                module.run_ccdf(cfg)
                samples[tree][f"L={paths}"].append(time.perf_counter() - start)
    return {
        "unit": "ms per run_ccdf call, Nt=64, Nr=4, bidirectional",
        "trials": LONG_TRIALS,
        "repeats": LONG_REPEATS,
        "trees": {tree: _summary(rows, "ms") for tree, rows in samples.items()},
    }


def _rows(doc: dict) -> dict:
    """Every compared number of a BENCH document, keyed by a readable row name."""
    rows = {}
    for workload, entry in doc.get("end_to_end", {}).items():
        for metric, values in entry["metrics"].items():
            rows[f"end_to_end {workload} {metric}"] = values["median"]
    if "tier1" in doc:
        rows["tier1 wall_s"] = doc["tier1"]["wall_s"]
    layer = doc.get("per_layer", {})
    for stage, values in layer.get("stages", {}).items():
        rows[f"verify {stage} median_ms"] = values["median_ms"]
    for stage, values in layer.get("baseline_stages", {}).items():
        rows[f"verify baseline {stage} median_ms"] = values["median_ms"]
    for key, prefix in (("engine", "engine"), ("baseline_engine", "engine baseline")):
        engine_part = layer.get(key)
        if isinstance(engine_part, dict):
            for config, entry in engine_part["configs"].items():
                for stage, values in entry["stages"].items():
                    rows[f"{prefix} {config} {stage} median_us"] = values["median_us"]
    for tree, commands in layer.get("cold_start", {}).get("trees", {}).items():
        for command, stages in commands.items():
            for stage, values in stages.items():
                rows[f"cold_start {tree} {command} {stage} median_ms"] = values["median_ms"]
    for tree, calls in layer.get("long_runs", {}).get("trees", {}).items():
        for call, values in calls.items():
            rows[f"long_runs {tree} {call} median_ms"] = values["median_ms"]
    return rows


def compare_trees(layer: dict) -> None:
    """Print each verify stage, engine stage and cold-start row of the baseline tree beside
    this tree's."""
    print(f"{'verify stage, median ms':<40} {'baseline':>10} {'src':>10} {'saved':>10}")
    for stage in sorted(layer["stages"].keys() | layer["baseline_stages"].keys()):
        before, after = (layer[key].get(stage, {}).get("median_ms", 0.0)
                         for key in ("baseline_stages", "stages"))
        print(f"{stage:<40} {before:10.3f} {after:10.3f} {before - after:10.3f}")
    print(f"{'engine stage, median us':<40} {'baseline':>10} {'src':>10} {'saved':>10}")
    for config, entry in layer["engine"]["configs"].items():
        stages = entry["stages"]
        baseline_stages = layer["baseline_engine"]["configs"][config]["stages"]
        print(config)
        for stage in sorted(stages.keys() | baseline_stages.keys()):
            before, after = (part.get(stage, {}).get("median_us", 0.0)
                             for part in (baseline_stages, stages))
            print(f"  {stage:<38} {before:10.1f} {after:10.1f} {before - after:10.1f}")
    trees = layer["cold_start"]["trees"]
    print(f"{'cold start, median ms':<40} {'baseline':>10} {'src':>10} {'saved':>10}")
    for command, stages in trees["src"].items():
        for stage, values in stages.items():
            before = trees["baseline"][command].get(stage, {}).get("median_ms", 0.0)
            after = values["median_ms"]
            print(f"{command + ' ' + stage:<40} {before:10.3f} {after:10.3f} {before - after:10.3f}")
    trees = layer["long_runs"]["trees"]
    print(f"{'run_ccdf, median ms':<40} {'baseline':>10} {'src':>10} {'saved':>10}")
    for call, values in trees["src"].items():
        before, after = trees["baseline"][call]["median_ms"], values["median_ms"]
        print(f"{call:<40} {before:10.3f} {after:10.3f} {before - after:10.3f}")


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
    print(f"{'row':<64} {base.name:>14} {out.name:>14} {'new/old':>8}")
    for row in sorted(old.keys() | new.keys()):
        before, after = old.get(row), new.get(row)
        ratio = f"{after / before:8.3f}" if before and after is not None else " " * 8
        cells = [f"{value:14.6g}" if value is not None else f"{'-':>14}" for value in (before, after)]
        print(f"{row:<64} {cells[0]} {cells[1]} {ratio}")


def _commit(checkout: Path) -> str | None:
    """The commit checked out at ``checkout``, or None where it is no git work tree."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the JSON file to write")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="checkout (such as the parent commit's) whose src/ verify stages, "
                             "ccdf engine stages and cold start are recorded beside this one's")
    args = parser.parse_args(argv)
    trees = {"src": ROOT / "src"}
    if args.baseline is not None:
        trees["baseline"] = args.baseline / "src"
    layer = per_layer(trees.get("baseline"))
    layer["cold_start"] = cold_start(trees)
    layer["long_runs"] = long_runs(trees.get("baseline"))
    if args.baseline is not None:
        layer["cold_start"]["baseline_commit"] = _commit(args.baseline)
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
