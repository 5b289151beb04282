"""The tools under ``tools/`` still reach the library names they use."""

import importlib.util
import sys
from pathlib import Path

RECORDER = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"


def load_recorder(monkeypatch):
    """``tools/record_bench.py`` imported as a module; importing it runs nothing."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the recorder prepends bench/ and src/
    spec = importlib.util.spec_from_file_location("record_bench", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_stage_resolves(monkeypatch):
    # a renamed stage function must fail here, not the next time the recorder runs
    stages = load_recorder(monkeypatch).STAGES
    assert {(owner.__name__, name) for owner, name, _ in stages} >= {
        ("mmwbeam.verify", "_fixtures"),
        ("_Searches", "run"),
        ("mmwbeam.beamformer", "_dense_optimal"),
    }
    for owner, name, _ in stages:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
