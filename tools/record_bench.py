"""Record a ``BENCH_<n>.json``: end-to-end results, Tier-1 wall time, machine, ``verify`` stages.

Run from the repository root::

    python3 tools/record_bench.py --out BENCH_22.json

The file has four parts:

* ``end_to_end``: each workload of ``bench/run.py --trace 0`` run ``RUNS``
  times as a subprocess, ``SECONDS`` each, with seeds 1, 2, ...; the median
  and quartiles of every metric of the result lines, and the lines themselves;
* ``tier1``: the wall time and summary line of one Tier-1 run
  (``python -m pytest -q`` with ``src`` on the path);
* ``machine``: ``machine_block()`` of ``bench/run.py``;
* ``per_layer``: the time per ``verify-oracles`` round of each ``verify``
  stage, from timers put around the stage functions while the suites run
  in-process on the benchmark's trial counts.  The stages of the Monte Carlo
  engine are not timed yet; a later change adds them.

The script itself needs only the standard library; the per-layer part imports
``mmwbeam`` from ``src``, and ``machine_block`` imports numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
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

from mmwbeam import beamformer, closedform, verify  # noqa: E402

# Rounds of the verify suites the per-layer part times.
STAGE_ROUNDS = 30

# Untraced runs of each workload, and the length of each run in seconds.
RUNS = 3
SECONDS = 20.0


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
    """Wall time and summary line of one Tier-1 run."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": summary}


def _search_stage(searches, betas) -> str:
    # a coarse search shares one amplitude row; a refined one has a window per instance
    return "coarse_search" if betas.shape[0] == 1 else "refined_search"


# (owner, attribute, stage) of each timed stage function.  A stage is a name,
# or a function of the call's arguments that gives one.
STAGES = [
    (verify, "_instance_rng", "draw"),
    (verify, "_draw_prop1", "draw"),
    (verify, "_draw_params", "draw"),
    (closedform._Searches, "run", _search_stage),
    (verify, "_fixtures", "fixtures"),
    (beamformer, "_dense_optimal", "dense_svd_route"),
    (verify, "_residuals", "span_residuals"),
    (verify, "_grams", "reduced_snr"),
    (beamformer, "_optimal_snr", "reduced_snr"),
]


def _stage_timers(totals: dict) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for each timed stage function.

    Each wrapper adds its self time to ``totals[stage]``: the time of a timed
    call inside it (an instance's generator inside its draw) goes to that
    call's stage only.
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

    return [(owner, name, timed(stage, getattr(owner, name))) for owner, name, stage in STAGES]


def per_layer() -> dict:
    """Median and minimum per round of each verify stage over ``STAGE_ROUNDS`` rounds."""
    totals: dict = defaultdict(float)
    timers = _stage_timers(totals)
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in timers]
    rounds: dict = defaultdict(list)
    try:
        for owner, name, wrapper in timers:
            setattr(owner, name, wrapper)
        for index in range(STAGE_ROUNDS + 1):
            totals.clear()
            start = time.perf_counter()
            for suite, trials in workloads.VERIFY_TRIALS:
                if trials is not None:
                    verify.run_suite(suite, trials, seed=index)
            totals["all_suites"] = time.perf_counter() - start
            if index:  # the first round warms caches
                for stage, seconds in totals.items():
                    rounds[stage].append(seconds)
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
    return {
        "unit": "ms per verify-oracles round (prop1 40 instances, prop2-prop4 10 each)",
        "rounds": STAGE_ROUNDS,
        "stages": {
            stage: {
                "median_ms": 1e3 * statistics.median(values),
                "min_ms": 1e3 * min(values),
            }
            for stage, values in sorted(rounds.items())
        },
        "engine": "not timed yet: the Monte Carlo engine's stages wait for a later change",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the JSON file to write")
    args = parser.parse_args(argv)
    doc = {
        "machine": bench_run.machine_block(),
        "per_layer": per_layer(),
        "tier1": tier1(),
        "end_to_end": end_to_end(),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
