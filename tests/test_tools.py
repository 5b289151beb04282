"""The tools under ``tools/`` still reach the library names they use."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDER = ROOT / "tools" / "record_bench.py"
LINE_COUNTER = ROOT / "tools" / "src_lines.py"


@pytest.fixture
def recorder(monkeypatch):
    """``tools/record_bench.py`` imported as a module; importing it runs nothing.

    The baseline package that a test imports through it beside ``mmwbeam`` is
    dropped from ``sys.modules`` afterwards.
    """
    monkeypatch.setattr(sys, "path", list(sys.path))  # the recorder prepends bench/ and src/
    spec = importlib.util.spec_from_file_location("record_bench", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [name for name in sys.modules if name.startswith(module.BASELINE_PACKAGE)]:
        del sys.modules[name]


CCDF = {"command": "ccdf", "paths": 2, "nt": 16, "nr": 4, "trials": 20}


def test_every_timed_stage_resolves(recorder):
    # a renamed stage function must fail here, not the next time the recorder runs
    m = recorder.tree_modules("src", ROOT / "src")
    stages = recorder.verify_stages(m)
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
    engine = recorder.engine_stages(m)
    assert {stage for _, _, stage in engine} == {
        "parsing", "draw", "gram_pair", "optimum", "scheme", "losses", "emission"}
    # every scheme kernel the engine can call is timed, on the Grams and on the couplings
    for table in (m.montecarlo._SCHEME_SNR, m.montecarlo._TWO_PATH_SNR):
        assert {name for owner, name, _ in engine if owner is table} == set(table)
    for owner, name, _ in engine:
        assert callable(recorder.binding(owner, name)), name
    # the runs leave out a stage function a tree lacks; this tree lacks none
    runs = recorder._tree_runs("src", ROOT / "src", {"ccdf": CCDF})
    assert (runs["verify"][0], runs["ccdf"][0]) == (stages, engine)


def test_every_engine_stage_runs_in_a_ccdf_call(recorder):
    # a binding the engine no longer calls would leave its stage silently at 0, or hide
    # beside a live binding of the same stage (the two-path kernels share the stage names
    # of the others): so each binding is timed alone, over every scheme at L = 2 and 3
    m = recorder.tree_modules("src", ROOT / "src")
    engine = recorder.engine_stages(m)
    alone = [(owner, name, f"{index} {stage} {name}")
             for index, (owner, name, stage) in enumerate(engine)]
    timed = set()
    for paths, scheme, fmt in (
        (2, "bidirectional", "csv"), (2, "equal_power", "json"), (2, "dominant_tx_mf_rx", "csv"),
        (3, "bidirectional", "csv"), (3, "dominant_tx_mf_rx", "json"),
    ):
        call = recorder._ccdf_call({**CCDF, "paths": paths, "scheme": scheme, "format": fmt},
                                   m.cli)
        rounds = recorder._timed_rounds({"ccdf": {"src": (alone, call)}}, 1)["src"]["ccdf"]
        timed |= {stage for stage, values in rounds.items() if min(values) > 0.0}
    assert {stage for _, _, stage in alone} - timed == set()


def test_every_verify_stage_runs_in_a_round(recorder):
    # a binding the suites no longer call would leave its stage silently at 0, or
    # hide beside a live binding of the same stage: so each binding is timed alone too
    m = recorder.tree_modules("src", ROOT / "src")
    stages = recorder.verify_stages(m)
    alone = [(owner, name, f"{owner.__name__}.{name}") for owner, name, _ in stages]
    expected = {stage for _, _, stage in alone}
    expected |= {stage for _, _, stage in stages if isinstance(stage, str)}
    expected |= {"coarse_search", "refined_search"}
    timed = set()
    run = recorder._tree_runs("src", ROOT / "src", {})["verify"][1]
    for timed_stages in (alone, stages):
        rounds = recorder._timed_rounds({"verify": {"src": (timed_stages, run)}}, 1)
        timed |= {stage for stage, values in rounds["src"]["verify"].items() if min(values) > 0.0}
    assert expected - timed == set()


def test_rounds_seat_twins_together_each_after_a_warm_up(recorder):
    # a timed call reads colder after another run than after itself: so each timed call
    # comes right after an untimed call of the same run, beside its twin in the other tree,
    # and the twin that goes first alternates by round; a drift in machine load then reaches
    # every run alike and widens the quartiles
    calls = []
    runs = {}
    for name in "ab":
        for tree in ("src", "baseline"):
            owner = SimpleNamespace(step=lambda: None)

            def run(index, owner=owner, step=owner.step, name=name, tree=tree):
                calls.append((index, name, tree, owner.step is not step))
                owner.step()

            runs.setdefault(name, {})[tree] = ([(owner, "step", "step")], run)
    times = recorder._timed_rounds(runs, 4)
    assert calls == [(index, name, tree, timed) for index in range(1, 5) for name in "ab"
                     for tree in (("src", "baseline") if index % 2 else ("baseline", "src"))
                     for timed in (False, True)]
    assert list(times) == ["src", "baseline"]
    for by_run in times.values():
        assert {name: {stage: len(values) for stage, values in stages.items()}
                for name, stages in by_run.items()} == dict.fromkeys("ab", {"step": 4, "all": 4})
    summary = recorder._summary({"all": [4e-6, 1e-6, 3e-6, 2e-6, 5e-6]}, "us")["all"]
    assert list(summary) == ["q1_us", "median_us", "q3_us"]
    assert summary["q1_us"] <= summary["median_us"] == 3.0 <= summary["q3_us"]


def test_per_layer_runs_every_call_of_both_trees_in_one_schedule(recorder, monkeypatch):
    # the verify round and every ccdf call of the benchmark share the one round-robin, each
    # with its twin in the other tree, and every part of each tree sits under its name
    seen = {}
    monkeypatch.setattr(recorder, "_timed_rounds", lambda runs, rounds: seen.update(runs) or {
        tree: {name: {"all": [1.0, 2.0], "draw": [0.5, 0.5]} for name in runs}
        for tree in ("src", "baseline")})
    doc = recorder.per_layer({"src": ROOT / "src", "baseline": ROOT / "src"})
    calls = list(recorder._ccdf_calls())
    assert list(seen) == ["verify", *calls]
    assert all(list(twins) == ["src", "baseline"] for twins in seen.values())
    assert list(doc["argv"]) == calls and list(doc["trees"]) == ["src", "baseline"]
    for part in doc["trees"].values():
        assert set(part["verify"]) == {"all_suites", "draw"}
        assert list(part["engine"]) == calls
        for stages in part["engine"].values():
            assert stages["other"]["median_us"] == 1e6


def test_each_trees_stages_are_its_own(recorder, monkeypatch):
    # a baseline tree's package is imported beside mmwbeam under another name: in each tree,
    # every verify and engine stage timed is a function of its own package, a stage function
    # the tree lacks is left out, and each of its runs times its stages
    parts = {"verify": recorder.verify_stages, "ccdf": recorder.engine_stages}
    for stages in parts.values():
        monkeypatch.setattr(recorder, stages.__name__, lambda m, stages=stages: [
            *stages(m), (m.verify, "_no_such_stage", "missing")])
    packages = {"src": "mmwbeam", "baseline": recorder.BASELINE_PACKAGE}
    runs = {tree: recorder._tree_runs(tree, ROOT / "src", {"ccdf": CCDF}) for tree in packages}
    for tree, package in packages.items():
        m = recorder.tree_modules(tree, ROOT / "src")
        for run, stages in parts.items():
            assert runs[tree][run][0] == stages(m)
            for owner, name, _ in stages(m):
                assert recorder.binding(owner, name).__module__.startswith(f"{package}.")
    times = recorder._timed_rounds(
        {run: {tree: runs[tree][run] for tree in packages} for run in parts}, 1)
    for tree in packages:
        for run in parts:
            timed = {stage for stage, values in times[tree][run].items() if min(values) > 0.0}
            assert timed >= {stage for *_, stage in runs[tree][run][0] if isinstance(stage, str)}


def test_cold_start_rows_come_from_fresh_interpreters(recorder, monkeypatch):
    # each command's rows hold COLD_SPAWNS samples per tree, and a module that a command
    # does not import reads 0
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


def test_long_runs_time_each_path_count_in_each_tree(recorder, monkeypatch):
    # one row per L of ccdf-paper for this tree and the baseline's, each call its own tree's,
    # seated as the per-layer runs are
    monkeypatch.setattr(recorder, "LONG_TRIALS", 40)
    monkeypatch.setattr(recorder, "LONG_REPEATS", 2)
    trees = {"src": ROOT / "src", "baseline": ROOT / "src"}
    calls = []
    for tree, src in trees.items():
        module = recorder.tree_modules(tree, src).montecarlo
        run = module.run_ccdf
        monkeypatch.setattr(module, "run_ccdf", lambda cfg, run=run, tree=tree: (
            calls.append((tree, cfg.num_paths, cfg.trials, cfg.seed)) or run(cfg)))
    doc = recorder.long_runs(trees)
    assert calls == [(tree, paths, 40, seed) for seed in (1, 2) for paths in (1, 2, 3, 5)
                     for tree in (("src", "baseline") if seed == 1 else ("baseline", "src"))
                     for _ in range(2)]
    assert (doc["trials"], doc["repeats"]) == (40, 2)
    for tree in trees:
        assert list(doc["trees"][tree]) == ["L=1", "L=2", "L=3", "L=5"]
        assert all(row["median_ms"] > 0.0 for row in doc["trees"][tree].values())


def test_compare_trees_prints_each_src_row_beside_its_baseline_twin(recorder, capsys):
    def quartiles(median, unit):
        return {f"q1_{unit}": median - 1, f"median_{unit}": median, f"q3_{unit}": median + 1}

    def tree(scale):
        return {
            "per_layer": {"verify": {"all_suites": quartiles(10 * scale, "ms")},
                          "engine": {"ccdf-paper L=1": {"all": quartiles(100 * scale, "us")}}},
            "cold_start": {"ccdf": {"import_cli": quartiles(20 * scale, "ms")}},
            "long_runs": {"L=1": quartiles(40 * scale, "ms")},
        }

    trees = {"src": tree(1), "baseline": tree(2)}
    trees["src"]["per_layer"]["engine"]["ccdf-paper L=1"]["new"] = quartiles(7, "us")
    layer = {"unit": {}, "trees": {name: parts["per_layer"] for name, parts in trees.items()},
             **{part: {"unit": "ms", "trees": {name: parts[part] for name, parts in trees.items()}}
                for part in ("cold_start", "long_runs")}}
    # (baseline, src) medians of each row; the baseline lacks the stage "new"
    twins = {
        "per_layer verify all_suites median_ms": (20, 10),
        "per_layer engine ccdf-paper L=1 all median_us": (200, 100),
        "per_layer engine ccdf-paper L=1 new median_us": (None, 7),
        "cold_start ccdf import_cli median_ms": (40, 20),
        "long_runs L=1 median_ms": (80, 40),
    }
    expected = {}
    for key, (before, after) in twins.items():
        part, row = key.split(" ", 1)
        for name, median in (("src", after), ("baseline", before)):
            if median is not None:
                expected[f"{part} {name} {row}"] = median
    assert recorder._rows({"per_layer": layer}) == expected
    recorder.compare_trees(layer)
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["row", "baseline", "src", "saved"]
    printed = {line[:64].rstrip(): line[64:].split() for line in lines}
    assert printed == {
        row: ["-" if value is None else f"{value:.6g}"
              for value in (before, after, None if before is None else before - after)]
        for row, (before, after) in twins.items()
    }


def test_the_record_is_on_disk_before_tier1_runs(recorder, monkeypatch, tmp_path):
    # the README names the newest record, and a Tier-1 test checks that the file exists
    out = tmp_path / "BENCH_0.json"
    for name in ("per_layer", "long_runs"):
        monkeypatch.setattr(recorder, name, lambda trees, name=name: {name: 1})
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


def test_slowest_tests_are_read_from_the_durations_report(recorder):
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
