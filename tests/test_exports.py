"""Every exported name resolves, the CLI's case lists come from the regime table, and the
benchmark's tracer, gate and replay find every function they call."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mmwbeam import beamformer, channel, cli, closedform, montecarlo, steering, verify
import mmwbeam

MODULES = (mmwbeam, steering, channel, beamformer, closedform, montecarlo, verify, cli)


def case_choices(command):
    return tuple(cli._flags(command)["--case"][2])


def test_exports_resolve_and_cli_cases_follow_the_regime_table():
    for module in MODULES:
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module
    assert case_choices("closedform") == tuple(closedform.REGIMES)
    assert case_choices("sweep") == tuple(
        case for case, regime in closedform.REGIMES.items() if regime.allocation is not None
    )


# The root's names in their documented order, each with the module that defines it.
ROOT_NAMES = {
    steering: ["AngleSpec", "ArrayGeometry", "cpo_inner_product", "steering_vector"],
    channel: ["ChannelMatrix", "PathComponent", "assemble_channel", "channel_power"],
    beamformer: ["BeamformerPair", "bidirectional_beamformer", "dominant_path_beamformer",
                 "equal_power_beamformer", "matched_filter", "optimal_beamformer",
                 "received_snr", "reduced_optimal_beamformer"],
    closedform: ["AllocationPoint", "RegimeError", "TwoPathParams"],
    montecarlo: ["CcdfTable", "McConfig", "percentile", "run_ccdf", "sample_paths"],
}


def test_root_names_resolve_on_first_access():
    # the package root imports a module only when one of its names is read
    assert mmwbeam.__all__ == ["__version__", *(name for names in ROOT_NAMES.values()
                                                for name in names)]
    for module, names in ROOT_NAMES.items():
        for name in names:
            assert getattr(mmwbeam, name) is getattr(module, name), name
    star: dict = {}
    exec("from mmwbeam import *", star)
    assert {name: star[name] for name in mmwbeam.__all__} == {
        name: getattr(mmwbeam, name) for name in mmwbeam.__all__
    }
    assert set(mmwbeam.__all__) <= set(dir(mmwbeam))
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        mmwbeam.nonesuch


def test_importing_the_root_loads_no_submodule_and_no_numpy(tmp_path):
    src = str(Path(mmwbeam.__file__).parents[1])
    code = ("import json, sys; import mmwbeam; print(json.dumps(sorted("
            "name for name in sys.modules if name.startswith(('mmwbeam.', 'numpy')))))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                              filter(None, [src, os.environ.get("PYTHONPATH")]))))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_every_regime_closed_form_is_exported():
    # the bench tracer times the beta_opt_/delta_snr_/snr_ names of __all__; a regime
    # function missing there would run untraced
    names = {"snr_dominant_path", "snr_optimal"}
    for regime in closedform.REGIMES.values():
        names.update(name for name in (regime.allocation, regime.loss) if name)
    assert names <= set(closedform.__all__)


BENCH = str(Path(__file__).parents[1] / "bench")


def test_bench_tracer_binds_every_target(monkeypatch):
    # bench/run.py --trace 1 rebinds each function it times wherever the package binds
    # it; a renamed or unbound function stops the run with "no binding site found"
    monkeypatch.syspath_prepend(BENCH)
    tracer = importlib.import_module("tracer")
    run_ccdf = montecarlo.run_ccdf
    with tracer.instrument(tracer.Tracer()):
        assert montecarlo.run_ccdf is not run_ccdf
    assert montecarlo.run_ccdf is run_ccdf


def test_bench_tracer_counts_the_default_grid(monkeypatch):
    # the tracer counts grid points from allocation_grid_search's num_beta and num_theta,
    # bound by name with their defaults
    monkeypatch.syspath_prepend(BENCH)
    tracer = importlib.import_module("tracer")
    trace = tracer.Tracer()
    with tracer.instrument(trace):
        closedform.allocation_grid_search(closedform.TwoPathParams(1.0, 0.5, uu_mag=0.3))
    assert trace.calls["closedform.grid_search"] == 1
    assert trace.counts["closedform.grid_search.points"] == 201 * 360


@pytest.mark.parametrize("workload", ["ccdf-paper", "ccdf-wide", "verify-oracles"])
def test_bench_round_passes_its_gate_and_replay(workload, monkeypatch):
    # the benchmark checks each output through the package's public calls: its gate
    # recomputes ccdf trials from a dense SVD and its replay redraws them per channel
    monkeypatch.syspath_prepend(BENCH)
    workloads = importlib.import_module("workloads")
    gate = importlib.import_module("gate")
    run = importlib.import_module("run")
    assert workload in workloads.WORKLOADS
    for options in workloads.invocations(workload, 0, 0):
        if options["command"] == "ccdf":
            options["trials"] = 16
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(workloads.argv(options))
        if options["command"] == "verify":
            assert gate.check_verify(code, out.getvalue()) == [], options
        else:
            assert code == cli.EXIT_OK
            assert gate.check_ccdf(options, out.getvalue()) == [], options
            assert run.replay_matches(options, out.getvalue()) == [], options
