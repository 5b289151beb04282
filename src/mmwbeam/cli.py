"""Command-line interface: closed-form evaluations, loss sweeps, CCDF runs,
and verification batteries, with CSV/JSON emission.

Angles cross this boundary in degrees and are converted to radians before
touching any library code.  Every output embeds the resolved run
configuration and the library version: JSON documents carry a ``config``
key, CSV files a ``# config = ...`` comment preamble ahead of the
mandatory header row.

Exit codes: 0 success, 2 usage error (a run too large for memory included), 3 I/O error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Any

import numpy as np

from . import __version__, closedform, montecarlo, verify
from .beamformer import _loss_db

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VERIFY = 4

_CLOSEDFORM_CASES = tuple(closedform.REGIMES)
_SWEEP_CASES = tuple(case for case, regime in closedform.REGIMES.items() if regime.allocation)
# The columns of a sweep row, each the closedform record's value of its key.
_SWEEP_COLUMNS = {"k": "mag_a1", "beta_sq": "beta_sq", "delta_snr": "delta_snr",
                  "delta_snr_db": "delta_snr_db"}


class UsageError(Exception):
    """Invalid parameter combination detected after argument parsing."""


# Every parameter of each command, once: name -> (type, choices, help).  The
# parser, the --config check and the recorded config all read this table.
_PARAMS: dict[str, dict[str, tuple[type, Any, str | None]]] = {
    "closedform": {
        "case": (str, _CLOSEDFORM_CASES, None),
        "a1": (float, None, "|gain| of path 1"),
        "a2": (float, None, "|gain| of path 2"),
        "uu": (float, None, "|u1^H u2|"),
        "vv": (float, None, "|v1^H v2|"),
        "nu_deg": (float, None, "phase misalignment"),
        "phase_diff_deg": (float, None, None),
        "uu_phase_deg": (float, None, None),
        "vv_phase_deg": (float, None, None),
    },
    "sweep": {
        "case": (str, _SWEEP_CASES, None),
        "k_min": (float, None, None),
        "k_max": (float, None, None),
        "k_points": (int, None, None),
        "uu": (float, None, None),
        "vv": (float, None, None),
        "nu_deg": (float, None, None),
    },
    "ccdf": {
        "paths": (int, None, None),
        "nt": (int, None, None),
        "nr": (int, None, None),
        "trials": (int, None, None),
        "spacing": (float, None, None),
        "fov_deg": (float, None, None),
        "scheme": (str, sorted(montecarlo.SCHEMES), None),
        "angle_sampling": (str, montecarlo.ANGLE_SAMPLING, None),
        "rng": (str, [montecarlo.RNG_ALGORITHM], "random stream"),
    },
    "verify": {"suite": (str, verify.SUITE_NAMES, None), "trials": (int, None, None)},
}
# The parameters every command takes, after its own.
_COMMON = {
    "out": (str, None, "output file (default: stdout)"),
    "format": (str, ("csv", "json"), None),
    "seed": (int, None, None),
}
_COMMAND_HELP = {
    "closedform": "evaluate one closed-form case",
    "sweep": "sweep the gain ratio K and tabulate the loss",
    "ccdf": "Monte Carlo CCDF of the loss vs. the optimum",
    "verify": "run an oracle-equivalence battery",
}
# The McConfig field of each ccdf parameter whose name differs from it.
_CCDF_FIELDS = {"paths": "num_paths", "spacing": "spacing_wavelengths"}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later ``main`` calls.

    Parsing leaves the parser unchanged: each call gets a fresh namespace,
    and messages go to the ``sys.stdout``/``sys.stderr`` of the moment.
    """
    parser = argparse.ArgumentParser(
        prog="mmwbeam",
        description="Two-path beamforming closed forms, loss sweeps, and CCDF simulation",
    )
    parser.add_argument("--version", action="version", version=f"mmwbeam {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, params in _PARAMS.items():
        sub = subs.add_parser(command, help=_COMMAND_HELP[command])
        for name, (kind, choices, text) in {**params, **_COMMON}.items():
            flag = "--" + name.replace("_", "-")
            sub.add_argument(flag, type=kind, choices=choices, default=None, help=text)
        sub.add_argument("--config", default=None, help="JSON file of defaults (flags win)")
    return parser


def _merge_config_file(command: str, args: dict) -> dict:
    """Overlay file-provided values under explicit flags; reject unknown keys."""
    path = args.pop("config", None)
    if path is None:
        return args
    if "\0" in path:
        raise UsageError("--config must not contain a NUL character")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise OSError(f"cannot read config file {path}: {err}") from err
    # JSONDecodeError, or UnicodeDecodeError on a file that is not UTF-8
    except ValueError as err:
        raise UsageError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise UsageError("config file must contain a JSON object")
    known = {**_PARAMS[command], **_COMMON}
    for key, value in doc.items():
        if key not in known:
            raise UsageError(f"unknown config key {key!r} for command {command!r}")
        if args.get(key) is None and value is not None:
            kind, choices, _ = known[key]
            try:
                value = _coerce(kind, value)
            except (TypeError, ValueError, OverflowError) as err:
                raise UsageError(f"config key {key!r}: {err}") from err
            if choices is not None and value not in choices:
                raise UsageError(
                    f"config key {key!r}: invalid choice {value!r} "
                    f"(choose from {', '.join(choices)})"
                )
            args[key] = value
    return args


def _coerce(kind: type, value: Any) -> Any:
    """A config-file value as ``kind``, refusing what the matching flag would refuse.

    A string key takes only a string, a boolean is no number, and an ``int``
    key takes no fraction: ``str()`` alone would write to a file named
    ``{'a': 1}``, and ``int()`` would run ``true`` as 1 and ``2.5`` as 2.
    """
    if kind is str and not isinstance(value, str):
        raise ValueError(f"expected a string, got {json.dumps(value)}")
    if kind is not str and isinstance(value, bool):
        raise ValueError(f"expected a number, got {json.dumps(value)}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return kind(value)


def _require(args: dict, key: str, command: str) -> Any:
    if args.get(key) is None:
        flag = "--" + key.replace("_", "-")
        raise UsageError(f"{command} requires {flag}")
    return args[key]


def _fget(args: dict, key: str, default: float) -> float:
    value = args.get(key)
    return default if value is None else float(value)


def _phases_from_args(args: dict) -> tuple[float, float, float]:
    """Resolve (phase_diff, uu_phase, vv_phase) in radians."""
    trio = [args.get(k) for k in ("phase_diff_deg", "uu_phase_deg", "vv_phase_deg")]
    if args.get("nu_deg") is not None:
        if any(v is not None for v in trio):
            raise UsageError("--nu-deg is mutually exclusive with the explicit phase flags")
        return math.radians(float(args["nu_deg"])), 0.0, 0.0
    return tuple(math.radians(float(v)) if v is not None else 0.0 for v in trio)


def _regime_couplings(args: dict, command: str) -> tuple[str, closedform.Regime, float, float]:
    """The case of a closedform or sweep call, its regime, and ``(uu, vv)`` by the regime's rules.

    The constrained flag, if given, must equal the regime's forced value
    (and keeps its bits); otherwise it takes that value.  ``sweep`` needs
    the free flag.  :class:`closedform.TwoPathParams` checks that each lies
    in [0, 1], and the regime's closed forms what else they need.
    """
    case = _require(args, "case", command)
    regime = closedform.REGIMES[case]
    couplings = {end: _fget(args, end, 0.0) for end in ("uu", "vv")}
    end, free = regime.constrained, regime.free
    if args.get(end) is None:
        couplings[end] = regime.forced
    elif couplings[end] != regime.forced:
        raise UsageError(f"case {case} assumes --{end} {regime.forced:g}")
    if command == "sweep" and args.get(free) is None:
        raise UsageError(f"case {case} needs --{free}")
    return case, regime, couplings["uu"], couplings["vv"]


def _closedform_record(args: dict) -> dict:
    """The ``closedform`` record of one case; what ``TwoPathParams`` refuses is a usage error."""
    case, regime, uu, vv = _regime_couplings(args, "closedform")
    mag_a1 = float(_require(args, "a1", "closedform"))
    mag_a2 = float(_require(args, "a2", "closedform"))
    phase_diff, uu_phase, vv_phase = _phases_from_args(args)
    try:
        params = closedform.TwoPathParams(
            mag_a1=mag_a1,
            mag_a2=mag_a2,
            phase_diff=phase_diff,
            uu_mag=uu,
            uu_phase=uu_phase,
            vv_mag=vv,
            vv_phase=vv_phase,
        )
        alloc = regime.beta_opt(params)
        delta = regime.delta_snr(params)
    except ValueError as err:
        raise UsageError(str(err)) from err

    return {
        "case": case,
        "mag_a1": mag_a1,
        "mag_a2": mag_a2,
        "uu_mag": uu,
        "vv_mag": vv,
        "nu_deg": math.degrees(params.misalignment),
        "gains_swapped": mag_a2 > mag_a1,
        "beta_sq": None if alloc is None else alloc.beta**2,
        "theta_deg": None if alloc is None else math.degrees(alloc.theta),
        "delta_snr": delta,
        "delta_snr_db": _loss_db(delta),
        "snr_dominant": closedform.snr_dominant_path(params),
        "snr_optimal": closedform.snr_optimal(params),
    }


def _sweep_rows(args: dict) -> list[dict]:
    """The split and loss at each gain ratio K: the ``closedform`` record of gains K and 1."""
    _regime_couplings(args, "sweep")
    k_min = float(_require(args, "k_min", "sweep"))
    k_max = float(_require(args, "k_max", "sweep"))
    k_points = int(args["k_points"])
    if not 1.0 <= k_min <= k_max < math.inf:
        raise UsageError(
            "need 1 <= --k-min <= --k-max < inf (K is the dominant-to-weak gain ratio)"
        )
    if k_points < 1:
        raise UsageError("--k-points must be >= 1")
    ratios = np.linspace(k_min, k_max, k_points).tolist()
    records = (_closedform_record({**args, "a1": k, "a2": 1.0}) for k in ratios)
    return [{column: rec[key] for column, key in _SWEEP_COLUMNS.items()} for rec in records]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _records_to_csv(records: list[dict], preamble: list[str]) -> str:
    lines = [f"# {p}" for p in preamble]
    header = list(records[0].keys())
    lines.append(",".join(header))
    for rec in records:
        lines.append(",".join(_format_cell(rec[k]) for k in header))
    return "\n".join(lines) + "\n"


def _preamble(run_config: dict) -> list[str]:
    return [
        "config = " + json.dumps(run_config, sort_keys=True),
        f"version = {__version__}",
    ]


# Placeholder of the i-th list of floats in a JSON document under emission.
_FLOAT_LIST_STUB = "\0float list %d\0"


def _stub_float_lists(obj, lists: list):
    """``obj`` with each non-empty list of floats replaced by a placeholder string.

    The lists go to ``lists``; the ``i``-th placeholder is ``_FLOAT_LIST_STUB % i``.
    """
    if isinstance(obj, dict):
        return {key: _stub_float_lists(value, lists) for key, value in obj.items()}
    if isinstance(obj, list):
        if obj and all(type(item) is float for item in obj):
            lists.append(obj)
            return _FLOAT_LIST_STUB % (len(lists) - 1)
        return [_stub_float_lists(item, lists) for item in obj]
    return obj


def _wrap_json(run_config: dict, results) -> str:
    """The document ``json.dumps(doc, sort_keys=True, indent=2)`` writes, and a newline.

    With an indent, json runs its pure-Python encoder, which costs a few
    microseconds a float.  So each list of floats is encoded by the C encoder
    instead (``indent=None``: the same tokens, ", "-separated) and laid out at
    the indent of its placeholder's line.  A placeholder that the document's
    own strings repeat leaves the whole document to the plain call.
    """
    doc = {"config": run_config, "version": __version__, "results": results}
    lists: list = []
    text = json.dumps(_stub_float_lists(doc, lists), sort_keys=True, indent=2)
    stubs = [json.dumps(_FLOAT_LIST_STUB % i) for i in range(len(lists))]
    if any(text.count(stub) != 1 for stub in stubs):
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    for stub, values in zip(stubs, lists):
        at = text.index(stub)
        line = text[text.rfind("\n", 0, at) + 1 : at]
        pad = line[: len(line) - len(line.lstrip(" "))]
        tokens = json.dumps(values)[1:-1].split(", ")
        body = f",\n{pad}  ".join(tokens)
        text = f"{text[:at]}[\n{pad}  {body}\n{pad}]{text[at + len(stub):]}"
    return text + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _error_record(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def _resolved_params(command: str, args: dict) -> dict:
    names = list(_PARAMS[command]) + ["seed"]
    return {k: args.get(k) for k in names}


def _run_config(command: str, args: dict, out_path: str | None, fmt: str) -> dict:
    """The resolved configuration of one invocation, as every output records it."""
    parameters = _resolved_params(command, args)
    return {"command": command, "parameters": parameters, "output_path": out_path, "format": fmt}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code is not None else EXIT_OK

    args = vars(namespace)
    command = args.pop("command")
    try:
        args = _merge_config_file(command, args)
        out_path = args.get("out")
        # open() refuses such a path only once the work is done
        if "\0" in (out_path or ""):
            raise UsageError("--out must not contain a NUL character")
        fmt = args.get("format") or ("json" if command in ("closedform", "verify") else "csv")

        if command in ("closedform", "sweep"):
            if command == "sweep" and args["k_points"] is None:
                args["k_points"] = 91
            run_config = _run_config(command, args, out_path, fmt)
            records = [_closedform_record(args)] if command == "closedform" else _sweep_rows(args)
            results = records[0] if command == "closedform" else {"rows": records}
            if fmt == "json":
                _emit(_wrap_json(run_config, results), out_path)
            else:
                _emit(_records_to_csv(records, _preamble(run_config)), out_path)

        elif command == "ccdf":
            _require(args, "paths", "ccdf")
            # McConfig field -> ccdf parameter, for every parameter the output records
            names = {_CCDF_FIELDS.get(key, key): key for key in _resolved_params(command, args)}
            given = {field: args[key] for field, key in names.items() if args.get(key) is not None}
            try:
                cfg = montecarlo.McConfig.from_dict({"trials": 10_000, "seed": 0, **given})
            except ValueError as err:
                raise UsageError(str(err)) from err
            recorded = cfg.to_dict()
            args.update({key: recorded[field] for field, key in names.items()})
            run_config = _run_config(command, args, out_path, fmt)
            table = montecarlo.run_ccdf(cfg)
            if fmt == "json":
                results = montecarlo.ccdf_to_dict(table)
                results["median_db"] = montecarlo.percentile(table, 0.5)
                results["p90_db"] = montecarlo.percentile(table, 0.9)
                _emit(_wrap_json(run_config, results), out_path)
            else:
                _emit(montecarlo.ccdf_to_csv(table, _preamble(run_config)), out_path)

        elif command == "verify":
            suite = _require(args, "suite", "verify")
            if fmt != "json":
                raise UsageError("verify writes JSON only; --format must be json")
            seed = int(args["seed"]) if args.get("seed") is not None else 0
            trials = int(args["trials"]) if args.get("trials") is not None else None
            try:
                report = verify.run_suite(suite, trials=trials, seed=seed)
            except ValueError as err:
                raise UsageError(str(err)) from err
            args["seed"] = seed
            args["trials"] = report.trials
            run_config = _run_config(command, args, out_path, fmt)
            sys.stdout.write("\n".join(report.lines()) + "\n")
            if out_path is not None:
                _emit(_wrap_json(run_config, report.to_dict()), out_path)
            if not report.passed:
                _error_record("verification", f"suite {suite} failed {report.num_failed} checks")
                return EXIT_VERIFY

    except UsageError as err:
        _error_record("usage", str(err))
        return EXIT_USAGE
    # a run or a --config file too large for memory is a usage error, not a crash
    except MemoryError as err:
        _error_record("usage", str(err) or "out of memory")
        return EXIT_USAGE
    except OSError as err:
        _error_record("io", str(err))
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
