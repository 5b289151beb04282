"""Output checks for benchmark invocations.

The checks recompute results from independent routes instead of comparing
output bytes, so a change of number formatting or of the random stream
(with its config recorded in the output) is not a failure, while a wrong
loss value, a broken sort or a failed oracle is.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from mmwbeam import montecarlo
from mmwbeam.channel import assemble_channel

# Loss values may dip below zero by rounding only.
LOSS_FLOOR_DB = -1e-9
# Relative agreement of the recomputed optimum/scheme SNR ratio.
REL_TOL = 1e-9
# Trials recomputed per ccdf invocation, evenly spread over the trial indices.
SUBSAMPLE = 8

_DB_PER_NEPER = 10.0 / math.log(10.0)

_VERIFY_HEAD = re.compile(
    r"^suite (\w+): trials=(\d+) seed=(\d+) -> (\d+)/(\d+) checks passed$"
)


def parse_ccdf(text: str, fmt: str) -> tuple[dict, np.ndarray, np.ndarray]:
    """Resolved parameters, sorted losses (dB) and CCDF ordinates of one output."""
    if fmt == "json":
        doc = json.loads(text)
        params = doc["config"]["parameters"]
        samples = np.array(doc["results"]["samples_db"], dtype=float)
        ccdf = np.array(doc["results"]["ccdf"], dtype=float)
        return params, samples, ccdf
    params = None
    rows = []
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith("# config = "):
            params = json.loads(line[len("# config = ") :])["parameters"]
        elif not line.startswith("#"):
            if line != "delta_snr_db,ccdf":
                raise ValueError(f"unexpected CSV header {line!r}")
            break
    for line in lines:
        loss, frac = line.split(",")
        rows.append((float(loss), float(frac)))
    if params is None:
        raise ValueError("CSV output has no '# config = ' preamble")
    table = np.array(rows, dtype=float).reshape(-1, 2)
    return params, table[:, 0].copy(), table[:, 1].copy()


def mc_config(params: dict) -> montecarlo.McConfig:
    """The Monte Carlo configuration an output reports it ran."""
    return montecarlo.McConfig(
        num_paths=params["paths"],
        trials=params["trials"],
        seed=params["seed"],
        nt=params["nt"],
        nr=params["nr"],
        spacing_wavelengths=params["spacing"],
        fov_deg=params["fov_deg"],
        scheme=params["scheme"],
        angle_sampling=params["angle_sampling"],
    )


def reference_loss_db(cfg: montecarlo.McConfig, trial: int) -> float:
    """Loss of one trial with the optimum from a dense SVD of the channel."""
    tx_geom, rx_geom = cfg.tx_geometry, cfg.rx_geometry
    paths = montecarlo.sample_paths(cfg, trial)
    channel = assemble_channel(paths, tx_geom, rx_geom)
    sigma_max = np.linalg.svd(channel.entries, compute_uv=False)[0]
    optimal = float(sigma_max) ** 2 / (cfg.nt * cfg.nr)
    scheme = montecarlo.SCHEMES[cfg.scheme](paths, tx_geom, rx_geom, channel=channel)
    if scheme.normalized_snr <= 0.0:
        return math.inf
    return 10.0 * math.log10(optimal / scheme.normalized_snr)


def _contains(samples: np.ndarray, loss_db: float) -> bool:
    """True when a sorted sample lies within REL_TOL (as a linear ratio) of loss_db."""
    if math.isinf(loss_db):
        return bool(np.isinf(samples).any())
    idx = int(np.searchsorted(samples, loss_db))
    for k in (idx - 1, idx):
        if 0 <= k < samples.size and math.isfinite(samples[k]):
            if abs(math.expm1((samples[k] - loss_db) / _DB_PER_NEPER)) <= REL_TOL:
                return True
    return False


def check_ccdf(options: dict, text: str) -> list[str]:
    """Failures of one ``ccdf`` output; an empty list means it passed."""
    params, samples, ccdf = parse_ccdf(text, options.get("format", "csv"))
    failures = []
    for key, value in options.items():
        if key not in ("command", "format") and params.get(key) != value:
            failures.append(f"config {key}={params.get(key)!r}, requested {value!r}")
    n = samples.size
    if n != params["trials"] or ccdf.size != n:
        failures.append(f"{n} samples and {ccdf.size} ordinates for {params['trials']} trials")
        return failures
    if not np.all(samples[1:] >= samples[:-1]):
        failures.append("samples are not sorted ascending")
    expected = (n - np.arange(n, dtype=float)) / n
    if not np.array_equal(ccdf, expected):
        failures.append("ccdf[i] != (n - i) / n")
    if not np.all(samples >= LOSS_FLOOR_DB):
        failures.append(f"loss below {LOSS_FLOOR_DB} dB: {float(samples.min())!r}")
    cfg = mc_config(params)
    for trial in np.unique(np.linspace(0, n - 1, SUBSAMPLE).round().astype(int)):
        loss = reference_loss_db(cfg, int(trial))
        if not _contains(samples, loss):
            failures.append(f"trial {trial}: SVD reference loss {loss!r} dB is not in the output")
    return failures


def check_verify(exit_code: int | None, text: str) -> list[str]:
    """Failures of one ``verify`` run: nonzero exit or any check not passed."""
    failures = [] if exit_code == 0 else [f"exit code {exit_code}"]
    lines = text.splitlines()
    head = _VERIFY_HEAD.match(lines[0]) if lines else None
    if head is None:
        return failures + ["no suite summary line"]
    passed, total = int(head.group(4)), int(head.group(5))
    if total == 0 or passed != total:
        failures.append(f"{passed}/{total} checks passed")
    failures += [line.strip() for line in lines[1:] if "[pass]" not in line]
    return failures
