"""Command-line outputs pinned against the golden files under ``tests/golden/``.

Each file was written by one ``mmwbeam`` call and records its parameters in
its config: the ``# config`` line of a CSV, the ``config`` key of a JSON
document.  A CCDF rerun must give the same preamble and ``ccdf`` column byte
for byte and every loss sample within ``GOLDEN_TOL_DB``, the rounding a
change of the arithmetic may move it by.  ``closedform``, ``sweep`` and
``verify`` reruns must give the same bytes: text and JSON report for
``verify``, which writes its report to the relative path its config records.
Every CCDF file was drawn from the stream ``philox4x64-v2`` (the ``_v2``
in its name); each CSV is also checked trial by trial against a dense SVD of
each redrawn channel, and the JSON one, a JSON emission of the wide CSV's
run, pins the emitter: its config, counts and CCDF exactly, its samples,
median and 90th percentile within ``GOLDEN_TOL_DB``, and its bytes as
``cli._wrap_json`` renders the parsed document.  A rerun of the paper's
configuration at L = 4, which no file holds, is checked against the dense
SVD the same way.
Every file there must be read by one of these tests.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from mmwbeam.channel import assemble_channel
from mmwbeam.cli import EXIT_OK, _wrap_json, main
from mmwbeam.montecarlo import SCHEMES, McConfig, sample_paths

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


def config_of(text):
    """The run config recorded in a CSV preamble or a JSON document."""
    if text.startswith("# config = "):
        return json.loads(text.splitlines()[0].partition(" = ")[2])
    return json.loads(text)["config"]


def argv_of(config):
    """The command line that reproduces a recorded config."""
    argv = [config["command"], "--format", config["format"]]
    for key, value in config["parameters"].items():
        if value is not None:
            argv += ["--" + key.replace("_", "-"), str(value)]
    if config["output_path"] is not None:
        argv += ["--out", config["output_path"]]
    return argv


# (glob pattern, partner suffixes) of every golden parametrization below: a test
# reads each file matching the pattern and, beside it, the same stem with each suffix.
READ = []


def golden(*patterns, partners=()):
    READ.extend((pattern, partners) for pattern in patterns)
    paths = sorted(path for pattern in patterns for path in GOLDEN.glob(pattern))
    return pytest.mark.parametrize("path", paths, ids=lambda p: p.stem)


def is_read(path):
    """True when a golden test reads ``path``, directly or as a partner of its primary file."""
    for pattern, partners in READ:
        primary = path.with_suffix(Path(pattern).suffix)
        if path.match(pattern) or (
            path.suffix in partners and primary.exists() and primary.match(pattern)
        ):
            return True
    return False


@golden("ccdf_*.csv")
def test_ccdf_matches_golden(path, capsys):
    golden_config, golden_samples, golden_ccdf = split_csv(path.read_text())
    assert main(argv_of(config_of(path.read_text()))) == EXIT_OK
    config, samples, ccdf = split_csv(capsys.readouterr().out)
    assert config == golden_config
    assert ccdf == golden_ccdf
    diff = np.abs(np.array(samples, dtype=float) - np.array(golden_samples, dtype=float))
    assert diff.max() <= GOLDEN_TOL_DB


@golden("ccdf_*.json")
def test_ccdf_json_matches_golden(path, capsys):
    golden_doc = json.loads(path.read_text())
    assert main(argv_of(golden_doc["config"])) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == golden_doc["config"]
    assert doc["version"] == golden_doc["version"]
    results, golden_results = doc["results"], golden_doc["results"]
    assert results.keys() == golden_results.keys()
    for key in ("config", "num_resampled", "ccdf"):
        assert results[key] == golden_results[key]
    for key in ("samples_db", "median_db", "p90_db"):
        diff = np.abs(np.subtract(results[key], golden_results[key]))
        assert diff.max() <= GOLDEN_TOL_DB


@golden("ccdf_*.json")
def test_json_emission_rerenders_golden_bytes(path):
    # a faster writer of the JSON document must keep these bytes: the parsed golden
    # renders back to itself, and so do values at the edges of float formatting
    text = path.read_text()
    doc = json.loads(text)
    assert _wrap_json(doc["config"], doc["results"]) == text
    edges = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e-300, 0.1]
    for results in (
        {"samples_db": edges, "p90_db": -math.inf},
        {"samples_db": [], "ccdf": [edges, [1, 2.0], []], "rows": [{"x": [0.5]}]},
        # a string the emitter's placeholder could be mistaken for
        {"samples_db": [0.5], "note": "\0float list 0\0"},
    ):
        reference = json.JSONEncoder(sort_keys=True, indent=2).iterencode(
            {"config": doc["config"], "version": doc["version"], "results": results},
            _one_shot=False,
        )
        assert _wrap_json(doc["config"], results) == "".join(reference) + "\n"


def dense_loss_db(cfg, trial):
    """Loss of one trial, its optimum the top singular value of the dense channel matrix."""
    tx_geom, rx_geom = cfg.tx_geometry, cfg.rx_geometry
    paths = sample_paths(cfg, trial)
    channel = assemble_channel(paths, tx_geom, rx_geom)
    optimal = np.linalg.svd(channel.entries, compute_uv=False)[0] ** 2 / (cfg.nt * cfg.nr)
    scheme = SCHEMES[cfg.scheme](paths, tx_geom, rx_geom, channel=channel).normalized_snr
    return 10.0 * math.log10(optimal / scheme)


def assert_matches_dense_svd(text):
    """Every trial of a CSV emission, redrawn through the public route, against a dense SVD."""
    params = config_of(text)["parameters"]
    cfg = McConfig.from_dict(dict(
        num_paths=params["paths"], trials=params["trials"], seed=params["seed"],
        nt=params["nt"], nr=params["nr"], spacing_wavelengths=params["spacing"],
        fov_deg=params["fov_deg"], scheme=params["scheme"],
        angle_sampling=params["angle_sampling"], rng=params["rng"],
    ))
    emitted_db = np.array(split_csv(text)[1], dtype=float)
    dense_db = np.sort([dense_loss_db(cfg, trial) for trial in range(cfg.trials)])
    ratio = 10.0 ** ((emitted_db - dense_db) / 10.0)
    assert np.all(np.abs(ratio - 1.0) <= 1e-9)


@golden("ccdf_*.csv")
def test_v2_ccdf_golden_matches_dense_svd(path):
    assert_matches_dense_svd(path.read_text())


def test_l4_ccdf_matches_dense_svd(capsys):
    # no golden file holds L = 4, whose Hermitian forms are written entry by entry as
    # at L = 2 and 3: the paper's configuration rerun at L = 4, checked trial by trial
    config = config_of((GOLDEN / "ccdf_L3_nt64_nr4_v2.csv").read_text())
    config["parameters"]["paths"] = 4
    assert main(argv_of(config)) == EXIT_OK
    assert_matches_dense_svd(capsys.readouterr().out)


@golden("closedform_*.json", "sweep_*.csv")
def test_closedform_and_sweep_match_golden(path, capsys):
    text = path.read_text()
    assert main(argv_of(config_of(text))) == EXIT_OK
    assert capsys.readouterr().out == text


@golden("verify_*.json", partners=(".txt",))
def test_verify_matches_golden(path, capsys, tmp_path, monkeypatch):
    report = path.read_text()
    config = config_of(report)
    monkeypatch.chdir(tmp_path)
    assert main(argv_of(config)) == EXIT_OK
    assert capsys.readouterr().out == path.with_suffix(".txt").read_text()
    assert (tmp_path / config["output_path"]).read_text() == report


def test_every_golden_file_is_read():
    # a regenerated or renamed file that no pattern matches would drop out unnoticed
    assert [path.name for path in sorted(GOLDEN.iterdir()) if not is_read(path)] == []
