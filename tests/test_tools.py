"""The tools under ``tools/`` still reach the library names they use."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDER = ROOT / "tools" / "record_bench.py"
LINE_COUNTER = ROOT / "tools" / "src_lines.py"


def load_recorder(monkeypatch):
    """``tools/record_bench.py`` imported as a module; importing it runs nothing."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the recorder prepends bench/ and src/
    spec = importlib.util.spec_from_file_location("record_bench", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_stage_resolves(monkeypatch):
    # a renamed stage function must fail here, not the next time the recorder runs
    recorder = load_recorder(monkeypatch)
    stages = recorder.STAGES
    assert {(owner.__name__, name, stage) for owner, name, stage in stages} >= {
        ("mmwbeam.verify", "_draw_prop1", "draw"),
        ("mmwbeam.verify", "_draw_params", "draw"),
    }
    assert {(owner.__name__, name) for owner, name, _ in stages} >= {
        ("mmwbeam.verify", "_fixtures"),
        ("mmwbeam.closedform", "_scans"),
        ("mmwbeam.closedform", "_objectives"),
        ("mmwbeam.verify", "_fixture_snrs"),
        ("mmwbeam.beamformer", "_dense_optimal"),
    }
    for owner, name, _ in stages:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
    engine = recorder.ENGINE_STAGES
    assert {stage for _, _, stage in engine} == {
        "parsing", "draw", "gram_pair", "optimum", "scheme", "losses", "emission"}
    # every scheme kernel the engine can call is timed
    from mmwbeam import montecarlo
    assert {name for owner, name, _ in engine if owner is montecarlo._SCHEME_SNR} == set(
        montecarlo._SCHEME_SNR)
    for owner, name, _ in engine:
        assert callable(recorder.binding(owner, name)), name


def test_every_engine_stage_runs_in_a_ccdf_call(monkeypatch):
    # a binding the engine no longer calls would leave its stage silently at 0
    recorder = load_recorder(monkeypatch)
    monkeypatch.setattr(recorder, "STAGE_ROUNDS", 1)
    options = {"command": "ccdf", "paths": 2, "nt": 16, "nr": 4, "trials": 20}
    timed = set()
    for scheme, fmt in (("bidirectional", "csv"), ("equal_power", "json")):
        call = recorder._ccdf_call({**options, "scheme": scheme, "format": fmt})
        rounds = recorder._timed_rounds({"ccdf": (recorder.ENGINE_STAGES, call)})["ccdf"]
        timed |= {stage for stage, values in rounds.items() if min(values) > 0.0}
    assert timed >= {stage for _, _, stage in recorder.ENGINE_STAGES}


def test_every_verify_stage_runs_in_a_round(monkeypatch):
    # a binding the suites no longer call would leave its stage silently at 0, or
    # hide beside a live binding of the same stage: so each binding is timed alone too
    recorder = load_recorder(monkeypatch)
    monkeypatch.setattr(recorder, "STAGE_ROUNDS", 1)
    alone = [(owner, name, f"{owner.__name__}.{name}") for owner, name, _ in recorder.STAGES]
    expected = {stage for _, _, stage in alone}
    named = {stage for _, _, stage in recorder.STAGES if isinstance(stage, str)}
    expected |= named | {"coarse_search", "refined_search"}
    timed = set()
    for stages in (alone, recorder.STAGES):
        rounds = recorder._timed_rounds({"verify": (stages, recorder._verify_round)})["verify"]
        timed |= {stage for stage, values in rounds.items() if min(values) > 0.0}
    assert expected - timed == set()


def test_rounds_take_turns_and_report_quartiles(monkeypatch):
    # rounds taken in blocks, one call after the other, read a drift in machine load as a
    # change in one call's stages; in turns it reaches every call and widens the quartiles,
    # and every other round reverses the turns, so no call always follows the same one
    recorder = load_recorder(monkeypatch)
    monkeypatch.setattr(recorder, "STAGE_ROUNDS", 4)
    calls = []
    runs = {name: ([], lambda index, name=name: calls.append((index, name))) for name in "abc"}
    rounds = recorder._timed_rounds(runs)
    assert calls == [(index, name) for index in range(5)
                     for name in ("abc" if index % 2 == 0 else "cba")]
    assert {name: len(stages["all"]) for name, stages in rounds.items()} == dict.fromkeys("abc", 4)
    summary = recorder._summary({"all": [4e-6, 1e-6, 3e-6, 2e-6, 5e-6]}, "us")["all"]
    assert list(summary) == ["q1_us", "median_us", "q3_us"]
    assert summary["q1_us"] <= summary["median_us"] == 3.0 <= summary["q3_us"]


def test_per_layer_runs_every_call_in_one_schedule(monkeypatch):
    # the verify round and every ccdf call of the benchmark share the one round-robin
    recorder = load_recorder(monkeypatch)
    seen = {}
    monkeypatch.setattr(recorder, "_timed_rounds", lambda runs: seen.update(runs) or {
        name: {"all": [1.0, 2.0], "draw": [0.5, 0.5]} for name in runs})
    doc = recorder.per_layer()
    assert list(seen) == ["verify", *recorder._ccdf_calls()]
    assert len(doc["engine"]["configs"]) == 5
    assert set(doc["stages"]) == {"all_suites", "draw"}
    for entry in doc["engine"]["configs"].values():
        assert entry["stages"]["other"]["median_us"] == 1e6


def test_a_baseline_trees_verify_stages_are_its_own(monkeypatch):
    # the baseline's package is imported beside mmwbeam under another name: every stage it
    # times is its module's, a stage function it lacks is left out, and its round runs
    recorder = load_recorder(monkeypatch)
    monkeypatch.setattr(recorder, "STAGE_ROUNDS", 1)
    missing = (recorder.verify, "_no_such_stage", "missing")
    monkeypatch.setattr(recorder, "STAGES", [*recorder.STAGES, missing])
    try:
        stages, run = recorder._baseline_verify(ROOT / "src")
        assert len(stages) == len(recorder.STAGES) - 1
        for (owner, name, stage), (src_owner, src_name, src_stage) in zip(
                stages, recorder.STAGES):
            assert owner.__name__ == src_owner.__name__.replace(
                "mmwbeam", recorder.BASELINE_PACKAGE, 1)
            assert (name, stage) == (src_name, src_stage)
            assert getattr(owner, name) is not getattr(src_owner, src_name)
        rounds = recorder._timed_rounds({"baseline verify": (stages, run)})["baseline verify"]
        timed = {stage for stage, values in rounds.items() if min(values) > 0.0}
        assert timed >= {stage for _, _, stage in stages if isinstance(stage, str)}
    finally:
        for name in [name for name in sys.modules if name.startswith(recorder.BASELINE_PACKAGE)]:
            del sys.modules[name]


def test_a_baseline_trees_engine_stages_are_its_own(monkeypatch):
    # the baseline's ccdf calls run its own main, every engine stage it times, parsing
    # included, is its module's, and each of its calls runs right after this tree's
    recorder = load_recorder(monkeypatch)
    monkeypatch.setattr(recorder, "STAGE_ROUNDS", 1)
    try:
        stages, baseline_cli = recorder._baseline_engine(ROOT / "src")
        assert baseline_cli.__name__ == f"{recorder.BASELINE_PACKAGE}.cli"
        assert len(stages) == len(recorder.ENGINE_STAGES)
        for (owner, name, stage), (src_owner, src_name, src_stage) in zip(
                stages, recorder.ENGINE_STAGES):
            assert (name, stage) == (src_name, src_stage)
            assert recorder.binding(owner, name) is not recorder.binding(src_owner, src_name)
        options = {"command": "ccdf", "paths": 2, "nt": 16, "nr": 4, "trials": 20}
        call = recorder._ccdf_call(options, baseline_cli)
        rounds = recorder._timed_rounds({"baseline": (stages, call)})["baseline"]
        timed = {stage for stage, values in rounds.items() if min(values) > 0.0}
        assert timed >= {"parsing", "draw", "gram_pair", "optimum", "scheme", "losses",
                         "emission"}
        seen = {}
        monkeypatch.setattr(recorder, "_timed_rounds", lambda runs: seen.update(runs) or {
            name: {"all": [1.0, 2.0], "draw": [0.5, 0.5]} for name in runs})
        doc = recorder.per_layer(ROOT / "src")
        calls = list(recorder._ccdf_calls())
        assert list(seen) == ["verify", "baseline verify",
                              *(run for name in calls for run in (name, f"baseline {name}"))]
        assert list(doc["baseline_engine"]["configs"]) == list(doc["engine"]["configs"]) == calls
    finally:
        for name in [name for name in sys.modules if name.startswith(recorder.BASELINE_PACKAGE)]:
            del sys.modules[name]


def test_cold_start_rows_come_from_fresh_interpreters(monkeypatch):
    # each command's rows hold COLD_SPAWNS samples per tree, and a module that a command
    # does not import reads 0
    recorder = load_recorder(monkeypatch)
    times, stderr = recorder._cold_child(ROOT / "src", recorder.cold_commands()["ccdf"], True)
    assert times["import_cli"] > 0.0 and times["first_main"] > 0.0
    imported = recorder.importtime_us(stderr)
    assert imported["mmwbeam.cli"][0] > 0 and "mmwbeam.verify" not in imported
    assert "argparse" not in imported
    assert imported["numpy.random"][1] >= imported["numpy.random"][0] > 0
    monkeypatch.setattr(recorder, "COLD_SPAWNS", 2)
    monkeypatch.setattr(recorder, "_cold_child", lambda src, argv, importtime: (
        {"import_cli": 0.1, "first_main": 0.02}, stderr))
    cold = recorder.cold_start({"src": ROOT / "src"})
    assert list(cold["trees"]["src"]) == ["ccdf", "verify", "closedform"]
    rows = cold["trees"]["src"]["verify"]
    assert rows["import_cli"]["median_ms"] == 100.0
    assert rows["mmwbeam.verify"]["median_ms"] == 0.0
    assert rows["mmwbeam.cli"]["median_ms"] == pytest.approx(imported["mmwbeam.cli"][0] / 1e3)
    assert {"numpy cumulative", "numpy.random cumulative", "argparse cumulative"} <= set(rows)
    assert rows["argparse"]["median_ms"] == 0.0


def test_long_runs_time_each_path_count_in_each_tree(monkeypatch):
    # one row per L of ccdf-paper for this tree and the baseline's, each call its own tree's
    recorder = load_recorder(monkeypatch)
    monkeypatch.setattr(recorder, "LONG_TRIALS", 40)
    monkeypatch.setattr(recorder, "LONG_REPEATS", 2)
    try:
        baseline = recorder._baseline_module(ROOT / "src", "mmwbeam.montecarlo")
        calls = []
        for module, tree in ((recorder.montecarlo, "src"), (baseline, "baseline")):
            run = module.run_ccdf
            monkeypatch.setattr(module, "run_ccdf", lambda cfg, run=run, tree=tree: (
                calls.append((tree, cfg.num_paths, cfg.trials, cfg.seed)) or run(cfg)))
        doc = recorder.long_runs(ROOT / "src")
    finally:
        for name in [name for name in sys.modules if name.startswith(recorder.BASELINE_PACKAGE)]:
            del sys.modules[name]
    assert calls == [(tree, paths, 40, seed) for seed in (1, 2) for paths in (1, 2, 3, 5)
                     for tree in (("src", "baseline") if seed == 1 else ("baseline", "src"))]
    assert (doc["trials"], doc["repeats"]) == (40, 2)
    for tree in ("src", "baseline"):
        assert list(doc["trees"][tree]) == ["L=1", "L=2", "L=3", "L=5"]
        assert all(row["median_ms"] > 0.0 for row in doc["trees"][tree].values())
    rows = recorder._rows({"per_layer": {"long_runs": doc}})
    assert rows["long_runs baseline L=5 median_ms"] == doc["trees"]["baseline"]["L=5"]["median_ms"]


def test_the_record_is_on_disk_before_tier1_runs(monkeypatch, tmp_path):
    # the README names the newest record, and a Tier-1 test checks that the file exists
    recorder = load_recorder(monkeypatch)
    out = tmp_path / "BENCH_0.json"
    for name in ("per_layer", "long_runs"):
        monkeypatch.setattr(recorder, name, lambda baseline=None, name=name: {name: 1})
    monkeypatch.setattr(recorder, "cold_start", lambda trees: {"trees": {}})
    monkeypatch.setattr(recorder, "end_to_end", lambda: {})
    monkeypatch.setattr(recorder, "compare", lambda doc, path: None)
    seen = []
    monkeypatch.setattr(recorder, "tier1", lambda: seen.append(
        json.loads(out.read_text(encoding="utf-8"))) or {"wall_s": 1.0})
    assert recorder.main(["--out", str(out)]) == 0
    (written,) = seen
    assert "tier1" not in written and written["per_layer"]["long_runs"] == {"long_runs": 1}
    assert json.loads(out.read_text(encoding="utf-8")) == {**written, "tier1": {"wall_s": 1.0}}


def test_slowest_tests_are_read_from_the_durations_report(monkeypatch):
    recorder = load_recorder(monkeypatch)
    report = (
        "..... [100%]\n"
        "============================= slowest 10 durations =============================\n"
        "4.12s call     tests/test_acceptance.py::test_01_channel_power_normalization\n"
        "0.88s setup    tests/test_properties.py::test_dominant_path[8]\n"
        "856 passed in 45.65s\n"
    )
    assert recorder.slowest_tests(report) == [
        {"seconds": 4.12, "phase": "call",
         "test": "tests/test_acceptance.py::test_01_channel_power_normalization"},
        {"seconds": 0.88, "phase": "setup", "test": "tests/test_properties.py::test_dominant_path[8]"},
    ]


def test_line_counts_match_the_modules():
    out = subprocess.run(
        [sys.executable, str(LINE_COUNTER)],
        capture_output=True, text=True, check=True,
    ).stdout
    header, *rows, total = [line.split() for line in out.splitlines()]
    assert header == ["module", "total", "code"]
    modules = sorted((ROOT / "src" / "mmwbeam").glob("*.py"))
    assert [row[0] for row in rows] == [path.name for path in modules]
    for (_, lines, code), path in zip(rows, modules):
        assert int(lines) == len(path.read_text(encoding="utf-8").splitlines())
        assert 0 < int(code) < int(lines)
    assert total == ["total", str(sum(int(row[1]) for row in rows)),
                     str(sum(int(row[2]) for row in rows))]


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path):
    spec = importlib.util.spec_from_file_location("src_lines", LINE_COUNTER)
    counter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counter)
    module = tmp_path / "sample.py"
    module.write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment alone\n"
        "import math  # code with a comment\n"
        "\n"
        "\n"
        "class Shape:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def area(self):\n"
        '        """Function docstring,\n'
        "\n"
        '        with a blank line inside."""\n'
        "        # another comment\n"
        '        "a string that is not a docstring"\n'
        "        return math.pi\n",
        encoding="utf-8",
    )
    # code: the import, the class and def lines, the bare string and the return
    assert counter.count(module) == (17, 5)
