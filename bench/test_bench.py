"""Self-tests of the benchmark: its output gate, its tracing and its inputs.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import run
import workloads

run.use_source_tree()

import gate  # noqa: E402  (needs the source tree on the path)
import tracer  # noqa: E402
from mmwbeam import cli, montecarlo  # noqa: E402

CCDF = {
    "command": "ccdf",
    "paths": 3,
    "nt": 64,
    "nr": 4,
    "scheme": "bidirectional",
    "format": "csv",
    "trials": 40,
    "seed": 5,
}
VERIFY = {"command": "verify", "suite": "prop2", "trials": 2, "seed": 5}


@pytest.fixture(scope="module")
def ccdf_output() -> str:
    result = run.invoke(cli.main, workloads.argv(CCDF))
    assert result.exit_code == 0
    return result.stdout


def _replace_sample(text: str, old: float, new: float) -> str:
    lines = text.splitlines(keepends=True)
    target = f"{old:.17g},"
    hits = [i for i, line in enumerate(lines) if line.startswith(target)]
    assert len(hits) == 1
    lines[hits[0]] = f"{new:.17g}," + lines[hits[0]].split(",", 1)[1]
    return "".join(lines)


def test_gate_passes_real_ccdf_output(ccdf_output):
    assert gate.check_ccdf(CCDF, ccdf_output) == []


def test_gate_flags_a_perturbed_sample(ccdf_output):
    params, samples, _ = gate.parse_ccdf(ccdf_output, "csv")
    loss = gate.reference_loss_db(gate.mc_config(params), 0)
    old = float(samples[np.argmin(np.abs(samples - loss))])
    nudged = old + 10.0 * math.log10(1.0 + 1e-7)
    failures = gate.check_ccdf(CCDF, _replace_sample(ccdf_output, old, nudged))
    assert any(f.startswith("trial 0:") for f in failures)


def test_gate_flags_unsorted_and_negative_samples(ccdf_output):
    _, samples, _ = gate.parse_ccdf(ccdf_output, "csv")
    failures = gate.check_ccdf(CCDF, _replace_sample(ccdf_output, float(samples[-1]), -1.0))
    assert "samples are not sorted ascending" in failures
    assert any(f.startswith("loss below") for f in failures)


def test_verify_gate():
    result = run.invoke(cli.main, workloads.argv(VERIFY))
    assert gate.check_verify(result.exit_code, result.stdout) == []
    assert gate.check_verify(4, result.stdout) == ["exit code 4"]
    broken = result.stdout.replace("5/5 checks passed", "4/5 checks passed")
    broken = broken.replace("[pass]", "[FAIL]", 1)
    assert len(gate.check_verify(0, broken)) == 2


def test_replay_matches_run_ccdf(ccdf_output):
    assert run.replay_matches(CCDF, ccdf_output) == []
    _, samples, _ = gate.parse_ccdf(ccdf_output, "csv")
    old = float(samples[10])
    assert run.replay_matches(CCDF, _replace_sample(ccdf_output, old, np.nextafter(old, math.inf)))


def test_traced_self_times_are_nonnegative_and_within_wall(ccdf_output):
    trace = tracer.Tracer()
    traced_main = trace.wrap("cli.main", cli.main)
    originals = dict(montecarlo.SCHEMES)
    wall = 0.0
    outputs = []
    for options in (CCDF, VERIFY):
        trace.request += 1
        with tracer.instrument(trace), warnings.catch_warnings():
            result = run.invoke(traced_main, workloads.argv(options))
        assert result.exit_code == 0
        wall += result.seconds
        outputs.append(result.stdout)
    assert outputs[0] == ccdf_output
    assert montecarlo.SCHEMES == originals
    self_s = trace.self_times()
    assert set(self_s) >= {"cli.main", "montecarlo.run_ccdf", "verify", "closedform.grid_search"}
    assert all(value >= 0.0 for value in self_s.values())
    assert sum(self_s.values()) <= wall
    assert trace.calls["montecarlo.trial_rng"] == CCDF["trials"]
    assert trace.counts["verify.instances"] == VERIFY["trials"]


def test_inputs_are_a_pure_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.invocations(workload, 7, 3)
        assert first == workloads.invocations(workload, 7, 3)
        assert first != workloads.invocations(workload, 8, 3)
        assert first != workloads.invocations(workload, 7, 4)
    code = "import json, workloads; print(json.dumps(workloads.invocations('ccdf-paper', 7, 3)))"
    fresh = subprocess.run(
        [sys.executable, "-c", code],
        cwd=run.BENCH_DIR,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert json.loads(fresh.stdout) == workloads.invocations("ccdf-paper", 7, 3)
