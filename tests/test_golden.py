"""CCDF outputs of the command line pinned against the golden CSV files.

Each file under ``tests/golden/`` is the stdout of one ``mmwbeam ccdf``
call; its ``# config`` line records the parameters.  A rerun must give the
same preamble and ``ccdf`` column byte for byte and every loss sample within
``GOLDEN_TOL_DB``, the rounding a change of the arithmetic may move it by.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mmwbeam.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_TOL_DB = 1e-12


def split_csv(text):
    """The '# config' lines and the (delta_snr_db, ccdf) columns of a CSV emission."""
    lines = text.splitlines()
    config = [line for line in lines if line.startswith("# config")]
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "delta_snr_db,ccdf"
    samples, ccdf = zip(*(line.split(",") for line in body[1:]))
    return config, samples, ccdf


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("ccdf_*.csv")), ids=lambda p: p.stem)
def test_ccdf_matches_golden(path, capsys):
    golden_config, golden_samples, golden_ccdf = split_csv(path.read_text())
    (line,) = golden_config
    parameters = json.loads(line.partition(" = ")[2])["parameters"]
    argv = ["ccdf", "--format", "csv"]
    for key, value in parameters.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert main(argv) == EXIT_OK
    config, samples, ccdf = split_csv(capsys.readouterr().out)
    assert config == golden_config
    assert ccdf == golden_ccdf
    diff = np.abs(np.array(samples, dtype=float) - np.array(golden_samples, dtype=float))
    assert diff.max() <= GOLDEN_TOL_DB
