"""Command-line interface: closed-form evaluations, loss sweeps, CCDF runs,
and verification batteries, with CSV/JSON emission.

Angles cross this boundary in degrees and are converted to radians before
touching any library code.  Every output embeds the resolved run
configuration and the library version: JSON documents carry a ``config``
key, CSV files a ``# config = ...`` comment preamble ahead of the
mandatory header row.

A process loads only what its command runs: ``closedform``, ``montecarlo``
or ``verify`` is imported by the command that uses it.  A command line made
of a command and exact ``--flag value`` pairs of that command's flags is
read straight from its parameter table, without argparse; any other line is
left to argparse, imported then (see :func:`_parse`).

Exit codes: 0 success, 2 usage error (a run too large for memory included), 3 I/O error,
4 verification failure.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import types
from typing import TYPE_CHECKING, Any

import numpy as np

from . import __version__
from .beamformer import _loss_db

if TYPE_CHECKING:
    import argparse

    from . import closedform

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VERIFY = 4

# The columns of a sweep row, each the closedform record's value of its key.
_SWEEP_COLUMNS = {"k": "mag_a1", "beta_sq": "beta_sq", "delta_snr": "delta_snr",
                  "delta_snr_db": "delta_snr_db"}


class UsageError(Exception):
    """Invalid parameter combination detected after argument parsing."""


@functools.lru_cache(maxsize=None)
def _params(command: str) -> dict[str, tuple[type, Any, str | None]]:
    """Every parameter of ``command``, once: name -> (type, choices, help).

    The parser, the --config check and the recorded config all read this
    table.  Its choices come from the module that runs the command, imported
    here on first use, so a process loads only its own command's module.
    """
    if command == "ccdf":
        from . import montecarlo

        return {
            "paths": (int, None, None),
            "nt": (int, None, None),
            "nr": (int, None, None),
            "trials": (int, None, None),
            "spacing": (float, None, None),
            "fov_deg": (float, None, None),
            "scheme": (str, sorted(montecarlo.SCHEMES), None),
            "angle_sampling": (str, montecarlo.ANGLE_SAMPLING, None),
            "rng": (str, [montecarlo.RNG_ALGORITHM], "random stream"),
        }
    if command == "verify":
        from . import verify

        return {"suite": (str, verify.SUITE_NAMES, None), "trials": (int, None, None)}
    from . import closedform

    if command == "closedform":
        return {
            "case": (str, tuple(closedform.REGIMES), None),
            "a1": (float, None, "|gain| of path 1"),
            "a2": (float, None, "|gain| of path 2"),
            "uu": (float, None, "|u1^H u2|"),
            "vv": (float, None, "|v1^H v2|"),
            "nu_deg": (float, None, "phase misalignment"),
            "phase_diff_deg": (float, None, None),
            "uu_phase_deg": (float, None, None),
            "vv_phase_deg": (float, None, None),
        }
    allocation = tuple(case for case, regime in closedform.REGIMES.items() if regime.allocation)
    return {
        "case": (str, allocation, None),
        "k_min": (float, None, None),
        "k_max": (float, None, None),
        "k_points": (int, None, None),
        "uu": (float, None, None),
        "vv": (float, None, None),
        "nu_deg": (float, None, None),
    }


# The parameters every command takes, after its own.
_COMMON = {
    "out": (str, None, "output file (default: stdout)"),
    "format": (str, ("csv", "json"), None),
    "seed": (int, None, None),
}
# The flag every command takes last, which no --config file may set.
_CONFIG = {"config": (str, None, "JSON file of defaults (flags win)")}
_COMMAND_HELP = {
    "closedform": "evaluate one closed-form case",
    "sweep": "sweep the gain ratio K and tabulate the loss",
    "ccdf": "Monte Carlo CCDF of the loss vs. the optimum",
    "verify": "run an oracle-equivalence battery",
}
# The McConfig field of each ccdf parameter whose name differs from it.
_CCDF_FIELDS = {"paths": "num_paths", "spacing": "spacing_wavelengths"}


@functools.lru_cache(maxsize=None)
def _flags(command: str) -> dict[str, tuple[str, type, Any, str | None]]:
    """Each flag of ``command``, in the parser's order: flag -> (name, type, choices, help).

    Its own parameters, then the common ones, then ``--config``.
    """
    params = {**_params(command), **_COMMON, **_CONFIG}
    return {"--" + name.replace("_", "-"): (name, *spec) for name, spec in params.items()}


@functools.lru_cache(maxsize=None)
def _unset(command: str) -> dict[str, None]:
    """The namespace of ``command`` with no flag given: ``command`` and every flag's name, None."""
    return dict.fromkeys(["command", *(name for name, *_ in _flags(command).values())])


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared.

    A command's subparser is given that command's flags only when a line is
    first handed to it, so the lines that stop at the top level (``-h``,
    ``--version``, no command or an unknown one) import no command's module.
    Parsing leaves the parser unchanged: each call gets a fresh namespace,
    and messages go to the ``sys.stdout``/``sys.stderr`` of the moment.
    """
    import argparse

    class CommandParser(argparse.ArgumentParser):
        def __init__(self, command: str, **kwargs):
            super().__init__(**kwargs)
            self._command = command

        def parse_known_args(self, args=None, namespace=None):
            if self._command is not None:
                for flag, (_, kind, choices, text) in _flags(self._command).items():
                    self.add_argument(flag, type=kind, choices=choices, default=None, help=text)
                self._command = None
            return super().parse_known_args(args, namespace)

    parser = argparse.ArgumentParser(
        prog="mmwbeam",
        description="Two-path beamforming closed forms, loss sweeps, and CCDF simulation",
    )
    parser.add_argument("--version", action="version", version=f"mmwbeam {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=CommandParser)
    for command, text in _COMMAND_HELP.items():
        subs.add_parser(command, help=text, command=command)
    return parser


def _parse_table(command: str, pairs: list) -> types.SimpleNamespace | None:
    """The namespace argparse gives ``pairs`` after ``command``, read from the flag table; or None.

    ``pairs`` is read only where it is made of ``--flag value`` pairs, each
    flag one of ``command``'s flags spelled out in full and each value one
    that argparse would take as it stands: it does not start with ``-``,
    the flag's type converts it, and the result is among the flag's choices.
    The namespace has argparse's keys in argparse's order, ``command`` and
    then every flag's name, ``None`` where a flag is absent, and the last
    value of a repeated flag.  Any other line is declined.
    """
    flags = _flags(command)
    if len(pairs) % 2:
        return None
    values = {**_unset(command), "command": command}
    for flag, text in zip(pairs[::2], pairs[1::2]):
        if flag not in flags or text.startswith("-"):
            return None
        name, kind, choices, _ = flags[flag]
        try:
            value = kind(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[name] = value
    return types.SimpleNamespace(**values)


def _parse(argv) -> argparse.Namespace | types.SimpleNamespace:
    """The namespace of a command line; a usage error, ``-h`` or ``--version`` exits.

    A line whose first word names a command and whose rest is exact
    ``--flag value`` pairs of that command is read straight from the flag
    table (:func:`_parse_table`), with the namespace argparse would give and
    without importing argparse.  Every other line goes to the full parser,
    argparse imported then.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMAND_HELP:
        namespace = _parse_table(argv[0], argv[1:])
        if namespace is not None:
            return namespace
    return _build_parser().parse_args(argv)


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
    known = {**_params(command), **_COMMON}
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
    from . import closedform

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
    from . import closedform

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


# The types json writes as one token; a container of these alone is encoded in one call.
_SCALARS = {str, int, float, bool, type(None)}


def _json_text(obj, pad: str) -> str:
    """``obj`` laid out as ``json.dumps(obj, sort_keys=True, indent=2)`` does, at indent ``pad``.

    With an indent, json runs its pure-Python encoder, which costs a few
    microseconds a float.  Its layout is the compact one, keys sorted, with
    a newline and the indent after each item separator and inside each
    non-empty bracket pair.  So a list, tuple or dict of scalars alone goes
    to json's C encoder in one call, the newline and indent passed in its
    item separator (json escapes every newline of a string, so none is
    written but these), and a scalar in one call of its own; the containers
    around them are laid out here.  A key that is not a ``str`` raises
    ``TypeError``, where json would write it as one.
    """
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("keys must be str")
        if {*map(type, obj.values())} <= _SCALARS:
            body = json.dumps(obj, sort_keys=True, separators=(",\n" + inner, ": "))[1:-1]
        else:
            items = (f"{json.dumps(key)}: {_json_text(obj[key], inner)}" for key in sorted(obj))
            body = f",\n{inner}".join(items)
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if {*map(type, obj)} <= _SCALARS:
            body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        else:
            body = f",\n{inner}".join(_json_text(item, inner) for item in obj)
        return f"[\n{inner}{body}\n{pad}]"
    return json.dumps(obj)


def _wrap_json(run_config: dict, results) -> str:
    """The document ``json.dumps(doc, sort_keys=True, indent=2)`` writes, and a newline."""
    doc = {"config": run_config, "version": __version__, "results": results}
    return _json_text(doc, "") + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _error_record(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def _run_config(command: str, args: dict, out_path: str | None, fmt: str) -> dict:
    """The resolved configuration of one invocation, as every output records it."""
    parameters = {key: args.get(key) for key in [*_params(command), "seed"]}
    return {"command": command, "parameters": parameters, "output_path": out_path, "format": fmt}


def main(argv=None) -> int:
    try:
        namespace = _parse(argv)
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
            from . import montecarlo

            _require(args, "paths", "ccdf")
            # ccdf parameter -> McConfig field, for every parameter the output records
            fields = {key: _CCDF_FIELDS.get(key, key) for key in [*_params(command), "seed"]}
            given = {field: args[key] for key, field in fields.items() if args.get(key) is not None}
            try:
                cfg = montecarlo.McConfig.from_dict({"trials": 10_000, "seed": 0, **given})
            except ValueError as err:
                raise UsageError(str(err)) from err
            recorded = cfg.to_dict()
            resolved = {key: recorded[field] for key, field in fields.items()}
            run_config = _run_config(command, resolved, out_path, fmt)
            table = montecarlo.run_ccdf(cfg)
            if fmt == "json":
                results = montecarlo.ccdf_to_dict(table)
                results["median_db"] = montecarlo.percentile(table, 0.5)
                results["p90_db"] = montecarlo.percentile(table, 0.9)
                _emit(_wrap_json(run_config, results), out_path)
            else:
                _emit(montecarlo.ccdf_to_csv(table, _preamble(run_config)), out_path)

        elif command == "verify":
            from . import verify

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
