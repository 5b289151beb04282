"""Benchmark of the mmwbeam command line, driven in-process through ``mmwbeam.cli.main``.

Run from the repository root::

    python3 bench/run.py --workload ccdf-paper --seed 1 --seconds 20 --trace 0

One client calls ``main`` in a closed loop (the next invocation starts when
the previous one returns; no extra threads; BLAS threads at their default,
recorded in the machine block).  Every output is checked by ``gate``.

``--trace 0`` prints the end-to-end metrics ``setup_s``, ``items_per_s``,
``peak_rss_mb`` and ``passed_frac`` (see :func:`untraced_run`).
``--trace 1`` runs each invocation untraced and then traced, prints the
per-layer metrics and ``trace.overhead_frac``, and replays every ccdf trial
through the public calls to check it bit for bit (see :func:`traced_run`).

The last line of standard output is one JSON object; details, the machine
block and the spans go to ``bench/out/``.  Without ``src/mmwbeam`` beside
this directory the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_SPAWNS = 11
SETUP_TIMEOUT_S = 60
# Reference times of the calibrate() kernel and of an interpreter that only
# imports numpy: their typical times on a 2-core x86-64 box with Python 3.11,
# numpy 2.4 and OpenBLAS.  Timings are rescaled to these (see untraced_run).
CAL_REF_S = 5.0e-3
REF_SPAWN_S = 0.15

_SETUP_CHILD = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import mmwbeam.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = mmwbeam.cli.main(json.loads(sys.argv[2]))
sys.exit(code)
"""

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Per-layer metrics reported with --trace 1: (name, unit).  Additive counters
# and self times are per item (trial or verification instance); rare events
# are whole counts.
PER_LAYER = (
    ("montecarlo.trial_rng.calls", "1/item"),
    ("montecarlo.trial_rng.self_s", "s/item"),
    ("montecarlo.draw.self_s", "s/item"),
    ("steering.steering_matrix.calls", "1/item"),
    ("steering.steering_matrix.self_s", "s/item"),
    ("channel.assemble_channel.calls", "1/item"),
    ("channel.assemble_channel.self_s", "s/item"),
    ("channel.assemble_channel.bytes_computed", "B/item"),
    ("beamformer.reduced_optimal.calls", "1/item"),
    ("beamformer.reduced_optimal.self_s", "s/item"),
    ("beamformer.reduced_optimal.fallbacks", "count"),
    ("beamformer.scheme.calls", "1/item"),
    ("beamformer.scheme.self_s", "s/item"),
    ("beamformer.power_iteration.calls", "1/item"),
    ("beamformer.power_iteration.self_s", "s/item"),
    ("closedform.grid_search.calls", "1/item"),
    ("closedform.grid_search.self_s", "s/item"),
    ("closedform.grid_search.points", "1/item"),
    ("closedform.regime.calls", "1/item"),
    ("closedform.regime.self_s", "s/item"),
    ("steering.cpo_inner_product.calls", "1/item"),
    ("steering.cpo_inner_product.self_s", "s/item"),
    ("steering.mainlobe_freq_delta.self_s", "s/item"),
    ("verify.self_s", "s/item"),
    ("verify.instances", "count"),
    ("verify.checks_failed", "count"),
    ("montecarlo.run_ccdf.self_s", "s/item"),
    ("montecarlo.emit.self_s", "s/item"),
    ("montecarlo.emit.bytes", "B/item"),
    ("cli.main.self_s", "s/item"),
    ("montecarlo.resampled", "count"),
    ("montecarlo.nonfinite_losses", "count"),
    ("montecarlo.useful_frac", "frac"),
    ("trace.items", "count"),
    ("trace.overhead_frac", "frac"),
)

_FALLBACK_MESSAGE = "reduced eigenproblem is ill-conditioned"


@dataclass
class Tally:
    """Invocations attempted and failed, with the reasons for each failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, options: dict, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append({"argv": workloads.argv(options), "problems": problems})
        return not problems


@dataclass
class Invocation:
    exit_code: int | None
    seconds: float
    stdout: str
    error: str | None = None


def use_source_tree():
    """Import mmwbeam from ``src/`` beside this directory, and nowhere else."""
    if not (SRC / "mmwbeam" / "cli.py").is_file():
        raise FileNotFoundError(f"no mmwbeam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mmwbeam

    if Path(mmwbeam.__file__).resolve().parent != (SRC / "mmwbeam").resolve():
        raise ImportError(f"mmwbeam was imported from {mmwbeam.__file__}, not {SRC}")
    return mmwbeam


def invoke(main, argv: list[str]) -> Invocation:
    """Run one CLI invocation in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except Exception:
            code = None
            error = traceback.format_exc(limit=3)
        seconds = perf_counter() - start
    if error is None and err.getvalue():
        error = err.getvalue()
    return Invocation(code, seconds, out.getvalue(), error)


def check(options: dict, result: Invocation) -> list[str]:
    """Problems with one invocation's outcome; empty when it succeeded."""
    import gate

    if result.error is not None and result.exit_code is None:
        return [result.error]
    if options["command"] == "verify":
        return gate.check_verify(result.exit_code, result.stdout)
    if result.exit_code != 0:
        return [f"exit code {result.exit_code}: {result.error}"]
    try:
        return gate.check_ccdf(options, result.stdout)
    except (ValueError, KeyError, IndexError) as err:
        return [f"unreadable output: {err!r}"]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"n": 1, "q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def _spawn(code: str, *args: str) -> tuple[float, list[str]]:
    """Wall seconds of one fresh interpreter running ``code``, and its problems."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=SETUP_TIMEOUT_S,
        check=False,
    )
    seconds = perf_counter() - start
    problems = [] if proc.returncode == 0 else [f"exit {proc.returncode}: {proc.stderr[-500:]!r}"]
    return seconds, problems


def measure_setup(options: dict, tally: Tally) -> tuple[float, float]:
    """Set-up wall seconds of one fresh interpreter, raw and rescaled.

    A reference interpreter that only imports numpy starts right after it;
    the set-up time is rescaled by ``REF_SPAWN_S / reference time``.
    """
    wall, problems = _spawn(_SETUP_CHILD, str(SRC), json.dumps(workloads.argv(options)))
    reference, ref_problems = _spawn("import numpy")
    tally.record(options, problems + ref_problems)
    return wall, wall * REF_SPAWN_S / reference


@functools.lru_cache(maxsize=1)
def _calibration_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    cores = rng.standard_normal((8, 3, 3)) + 1j * rng.standard_normal((8, 3, 3))
    basis = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    return cores, basis


def calibrate() -> float:
    """Seconds taken by a fixed reference kernel shaped like Monte Carlo trials.

    Small complex eigenproblems, matrix-vector products, float formatting
    and parsing, sorting and JSON, much as in one trial and its output.  It
    uses nothing from mmwbeam, so no change to the library moves it.
    """
    import numpy as np

    cores, basis = _calibration_inputs()
    start = perf_counter()
    acc = 0.0
    for k in range(60):
        eigvals, eigvecs = np.linalg.eig(cores[k % 8])
        beam = basis @ eigvecs[:, int(np.argmax(eigvals.real))]
        acc += float(np.linalg.norm(beam)) + math.log10(1.0 + abs(complex(eigvals[0])))
        text = ",".join(f"{x:.17g}" for x in beam.real[:16])
        acc += sum(float(x) for x in text.split(",")[:4]) + float(np.sort(np.abs(beam))[-1])
        acc += len(json.dumps({"k": k, "pair": [k, k + 1]}))
    acc += float(statistics.median([Fraction(i, 7) for i in range(50)]))
    return perf_counter() - start


def untraced_run(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics: set-up time, items per second, peak RSS, passed fraction.

    On a shared machine identical work runs up to twice as slow while
    neighbours are busy, in phases lasting seconds to minutes.  So each
    measurement is paired with a reference measurement of the same kind
    taken right after it, and rescaled to the reference's nominal time.
    Every timed invocation is followed by the :func:`calibrate` kernel and
    rescaled by ``CAL_REF_S / kernel time``; ``items_per_s`` is the median
    over rounds of the rescaled rate.  ``setup_s`` is the median over fresh
    interpreters (see :func:`measure_setup`), spread evenly over the run.
    The raw wall figures are kept in the detail file.
    """
    tally = Tally()
    setup_opts = workloads.setup_options(workload, seed)
    setup = [measure_setup(setup_opts, tally)]
    use_source_tree()
    from mmwbeam import cli

    tally.record(setup_opts, check(setup_opts, invoke(cli.main, workloads.argv(setup_opts))))

    rates, raw_rates, kernels = [], [], []
    start = perf_counter()
    round_index = 0
    while round_index == 0 or perf_counter() - start < seconds:
        elapsed = perf_counter() - start
        if len(setup) < SETUP_SPAWNS and elapsed >= len(setup) * seconds / SETUP_SPAWNS:
            setup.append(measure_setup(setup_opts, tally))
        busy = scaled = 0.0
        done = 0
        for options in workloads.invocations(workload, seed, round_index):
            result = invoke(cli.main, workloads.argv(options))
            kernels.append(calibrate())
            busy += result.seconds
            scaled += result.seconds * CAL_REF_S / kernels[-1]
            if tally.record(options, check(options, result)):
                done += workloads.items(options)
        raw_rates.append(done / busy)
        rates.append(done / scaled)
        round_index += 1
    while len(setup) < SETUP_SPAWNS:
        setup.append(measure_setup(setup_opts, tally))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed = len(tally.failures)
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "passed_frac": (1.0 - failed / tally.attempted, "frac"),
    }
    detail = {
        "rounds": round_index,
        "items_per_s": quartiles(rates),
        "wall_setup_s": quartiles([wall for wall, _ in setup]),
        "setup_s": quartiles([scaled for _, scaled in setup]),
        "wall_items_per_s": quartiles(raw_rates),
        "kernel_s": quartiles(kernels),
        "failed_frac": failed / tally.attempted,
    }
    return {"tally": tally, "metrics": metrics, "detail": detail}


def replay_matches(options: dict, stdout: str) -> list[str]:
    """Recompute every trial through the public calls; losses must equal the output bit for bit."""
    import numpy as np

    import gate
    from mmwbeam import montecarlo
    from mmwbeam.beamformer import reduced_optimal_beamformer
    from mmwbeam.channel import assemble_channel

    params, samples, _ = gate.parse_ccdf(stdout, options.get("format", "csv"))
    cfg = gate.mc_config(params)
    tx_geom, rx_geom = cfg.tx_geometry, cfg.rx_geometry
    scheme_fn = montecarlo.SCHEMES[cfg.scheme]
    losses = np.empty(cfg.trials)
    for trial in range(cfg.trials):
        paths = montecarlo.sample_paths(cfg, trial)
        channel = assemble_channel(paths, tx_geom, rx_geom)
        optimal = reduced_optimal_beamformer(paths, tx_geom, rx_geom, channel=channel)
        scheme = scheme_fn(paths, tx_geom, rx_geom, channel=channel)
        if scheme.normalized_snr > 0.0:
            losses[trial] = 10.0 * math.log10(optimal.normalized_snr / scheme.normalized_snr)
        else:
            losses[trial] = math.inf
    replayed = np.sort(losses)
    same_bits = replayed.view(np.uint64) == samples.view(np.uint64)
    if replayed.shape == samples.shape and same_bits.all():
        return []
    return ["replayed trials differ from run_ccdf"]


def traced_run(workload: str, seed: int, seconds: float, tag: str) -> dict:
    """Per-layer metrics: each invocation runs untraced, then traced with the same argv.

    Counts and self times are per item of the traced invocations, and
    ``trace.overhead_frac`` is traced over untraced wall time of the same
    invocations, minus one.  A traced output must equal its untraced output
    byte for byte, and every ccdf output must equal a replay of its trials
    through the public calls (``sample_paths`` -> ``assemble_channel`` ->
    ``reduced_optimal_beamformer`` -> scheme) bit for bit.  The RuntimeWarning
    of the ``reduced_optimal_beamformer`` fallback is counted from outside.
    """
    use_source_tree()
    import tracer as tracing
    from mmwbeam import cli

    tally = Tally()
    warm = workloads.setup_options(workload, seed)
    tally.record(warm, check(warm, invoke(cli.main, workloads.argv(warm))))

    trace = tracing.Tracer()
    traced_main = trace.wrap("cli.main", cli.main)
    untraced_s = traced_s = 0.0
    items = 0
    deadline = perf_counter() + seconds
    round_index = 0
    while round_index == 0 or perf_counter() < deadline:
        for options in workloads.invocations(workload, seed, round_index):
            argv = workloads.argv(options)
            plain = invoke(cli.main, argv)
            untraced_s += plain.seconds
            tally.record(options, check(options, plain))

            trace.request += 1
            with tracing.instrument(trace), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                traced = invoke(traced_main, argv)
            traced_s += traced.seconds
            trace.counts["beamformer.reduced_optimal.fallbacks"] += sum(
                issubclass(w.category, RuntimeWarning) and _FALLBACK_MESSAGE in str(w.message)
                for w in caught
            )
            problems = check(options, traced)
            if traced.stdout != plain.stdout:
                problems.append("traced output differs from untraced output")
            if not problems and options["command"] == "ccdf":
                problems += replay_matches(options, traced.stdout)
            if tally.record(options, problems):
                items += workloads.items(options)
        round_index += 1

    OUT_DIR.mkdir(exist_ok=True)
    trace.dump(OUT_DIR / f"{tag}-spans.json")
    per_item = max(items, 1)
    self_s = trace.self_times()
    calls = trace.calls
    counts = trace.counts
    values = {}
    for name, unit in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name == "trace.items":
            values[name] = items
        elif name == "trace.overhead_frac":
            values[name] = traced_s / untraced_s - 1.0
        elif name == "montecarlo.useful_frac":
            attempts = counts["montecarlo.trials"] + counts["montecarlo.resampled"]
            values[name] = counts["montecarlo.trials"] / attempts if attempts else 1.0
        elif kind == "self_s":
            values[name] = self_s.get(span, 0.0) / per_item
        elif kind == "calls":
            values[name] = calls[span] / per_item
        elif unit.endswith("/item"):
            values[name] = counts[name] / per_item
        else:
            values[name] = counts[name]
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    detail = {
        "rounds": round_index,
        "spans": sum(calls.values()),
        "spans_written": len(trace.spans),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "calls": dict(calls),
        "function_calls_per_item": {
            name: n / per_item for name, n in sorted(trace.function_calls.items())
        },
        "self_s": self_s,
        "counts": dict(counts),
    }
    return {"tally": tally, "metrics": metrics, "detail": detail}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """Commit of the checkout from ``.git`` files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the library sources, identifying the code even without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmwbeam").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_block() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _summary_line(name: str, value: float, unit: str, spread: dict | None) -> str:
    line = f"  {name:42s} {value:.6g} {unit}"
    if spread:
        line += f"  (median of {spread['n']}, q1={spread['q1']:.6g}, q3={spread['q3']:.6g})"
    return line


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mmwbeam" / "cli.py").is_file():
        print(f"error: no mmwbeam sources under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run = traced_run(args.workload, args.seed, args.seconds, tag)
    else:
        run = untraced_run(args.workload, args.seed, args.seconds)
    tally, detail = run["tally"], run["detail"]
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in run["metrics"].items()}
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    machine = machine_block()
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        doc = vars(args) | {"result": result, "detail": detail}
        doc |= {"failures": tally.failures, "machine": machine}
        json.dump(doc, fh, indent=2)

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {detail['rounds']} rounds, "
        f"{tally.attempted} invocations, {len(tally.failures)} failed"
    )
    for name, entry in metrics.items():
        print(_summary_line(name, entry["value"], entry["unit"], detail.get(name)))
    if not args.trace:
        for name, unit in (("wall_setup_s", "s"), ("wall_items_per_s", "1/s")):
            print(_summary_line(name, detail[name]["median"], unit, detail[name]))
        print(_summary_line("failed_frac", detail["failed_frac"], "frac", None))
    for failure in tally.failures[:5]:
        print(f"  FAILED {' '.join(failure['argv'])}: {failure['problems'][:3]}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
