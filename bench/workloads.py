"""The CLI invocations each benchmark workload makes, as a pure function of the seed.

A workload is a list of rounds; a round is a fixed list of ``mmwbeam``
invocations.  Every invocation's ``--seed`` is derived by hashing
``(workload, seed, round, position)``, so one benchmark seed gives the same
argv sequence in every process and on every machine, and the invocations of
a run draw different trials.
"""

from __future__ import annotations

import hashlib

# ccdf-paper: the paper's CCDF figure at the headline configuration; per-trial
# Python overhead dominates.  Invocations are kept short (about 50-100 ms on a
# 2-core box) so that a 20 s run holds dozens of rounds to take a median over.
PAPER_PATHS = (1, 2, 3, 5)
PAPER_TRIALS = 200

# ccdf-wide: 16x larger arrays, the equal-power phase search, the other angle
# sampler and JSON emission; arithmetic and memory count more than calls.
WIDE_TRIALS = 200

# verify-oracles: closed forms against grid and eigen oracles; no Monte Carlo.
VERIFY_TRIALS = (("prop1", 40), ("prop2", 10), ("prop3", 10), ("prop4", 10), ("bounds", None))

WORKLOADS = ("ccdf-paper", "ccdf-wide", "verify-oracles")


def derive_seed(workload: str, seed: int, round_index: int, position: int) -> int:
    """32-bit CLI seed of one invocation; stable across processes and platforms."""
    key = f"{workload}/{seed}/{round_index}/{position}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "little")


def invocations(workload: str, seed: int, round_index: int) -> list[dict]:
    """Options of each CLI call in one round, keyed by flag name without dashes.

    ``command`` names the subcommand; every other key becomes ``--key value``.
    """
    if workload == "ccdf-paper":
        calls = [
            {
                "command": "ccdf",
                "paths": num_paths,
                "nt": 64,
                "nr": 4,
                "scheme": "bidirectional",
                "format": "csv",
                "trials": PAPER_TRIALS,
            }
            for num_paths in PAPER_PATHS
        ]
    elif workload == "ccdf-wide":
        calls = [
            {
                "command": "ccdf",
                "paths": 2,
                "nt": 256,
                "nr": 16,
                "scheme": "equal_power",
                "angle_sampling": "uniform_cosine",
                "format": "json",
                "trials": WIDE_TRIALS,
            }
        ]
    elif workload == "verify-oracles":
        calls = [{"command": "verify", "suite": suite} for suite, _ in VERIFY_TRIALS]
        for call, (_, trials) in zip(calls, VERIFY_TRIALS):
            if trials is not None:
                call["trials"] = trials
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    for position, call in enumerate(calls):
        call["seed"] = derive_seed(workload, seed, round_index, position)
    return calls


def argv(options: dict) -> list[str]:
    """Command line of one invocation, without the program name."""
    out = [options["command"]]
    for key, value in options.items():
        if key != "command":
            out += ["--" + key.replace("_", "-"), str(value)]
    return out


def items(options: dict) -> int:
    """Work items one invocation completes: trials for ccdf, instances for verify.

    The ``bounds`` suite draws no random instances, so it completes none.
    """
    return int(options.get("trials", 0))


def setup_options(workload: str, seed: int) -> dict:
    """The workload's first invocation cut to a single item, for set-up timing."""
    options = dict(invocations(workload, seed, 0)[0])
    options["trials"] = 1
    return options
