"""Every exported name resolves, and the CLI's case lists come from the regime table."""

import argparse

from mmwbeam import beamformer, channel, cli, closedform, montecarlo, steering, verify
import mmwbeam

MODULES = (mmwbeam, steering, channel, beamformer, closedform, montecarlo, verify, cli)


def case_choices(command):
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (case,) = [a for a in subparsers.choices[command]._actions if a.dest == "case"]
    return tuple(case.choices)


def test_exports_resolve_and_cli_cases_follow_the_regime_table():
    for module in MODULES:
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module
    assert case_choices("closedform") == tuple(closedform.REGIMES)
    assert case_choices("sweep") == tuple(
        case for case, regime in closedform.REGIMES.items() if regime.allocation is not None
    )
