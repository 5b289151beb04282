"""Monte Carlo study of the SNR loss of directional beamforming.

Each trial draws a random sparse channel (i.i.d. complex Gaussian gains,
azimuths uniform over the array field of view), computes the optimal
normalized SNR and the SNR of a low-complexity scheme, and records the
loss in dB.  Sorted losses with their complementary-CDF ordinates form a
:class:`CcdfTable`.

Stream contract: trial ``t`` draws from its own counter-based Philox
stream keyed by ``(seed, t)`` (counter 0): normals ``(2, L)`` for the gains,
then ``L`` uniforms for the departure azimuths, then ``L`` for the arrival
azimuths.  A draw whose gains all fall below ``_MIN_GAIN`` is redrawn from
the same stream, at most ``_MAX_RESAMPLE`` times.  So runs are reproducible
and every trial is a pure function of ``(seed, t)``.  Both rows of
uniforms are drawn on [0, 1) in one call and mapped to the field of view
once per chunk with numpy's own ``lo + (hi - lo) * u``, which consumes the
stream and yields the values of two ``rng.uniform(lo, hi, L)`` calls.

The engine works on chunks of consecutive trials.  A chunk is drawn into
arrays ``gains``, ``aod`` and ``aoa`` of shape (B, L), the Gram matrices
(B, L, L) of the transmit and receive steering vectors are evaluated in
closed form (see :func:`mmwbeam.steering.gram_stack`), and the optimum and
the scheme SNR come from the stacked L x L kernels of
:mod:`mmwbeam.beamformer`; no steering vector is formed, so a trial's cost
does not depend on Nt or Nr.  The chunk size follows from the O(L^2)
per-trial working set, a fixed budget of ``_CHUNK_BYTES`` and a cap of
``_MAX_CHUNK_TRIALS``, so memory stays bounded for any trial count.  The
public per-channel route ``sample_paths`` -> ``reduced_optimal_beamformer``
-> ``SCHEMES[scheme]`` calls the same kernels and reproduces every loss bit
for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .beamformer import (
    _bidirectional_snr,
    _dominant_snr,
    _equal_power_snr,
    _loss_db,
    _optimal_snr,
    bidirectional_beamformer,
    dominant_path_beamformer,
    equal_power_beamformer,
)
from .channel import PathComponent
from .steering import AngleSpec, ArrayGeometry, gram_stack, spatial_frequencies

__all__ = [
    "RNG_ALGORITHM",
    "SCHEMES",
    "McConfig",
    "CcdfTable",
    "trial_rng",
    "sample_paths",
    "run_ccdf",
    "percentile",
    "ccdf_to_csv",
    "ccdf_to_dict",
    "ccdf_to_json",
]

RNG_ALGORITHM = "philox4x64"

SCHEMES: dict[str, Callable] = {
    "bidirectional": bidirectional_beamformer,
    "dominant_tx_mf_rx": dominant_path_beamformer,
    "equal_power": equal_power_beamformer,
}

# The stacked kernel behind each scheme: (gains, gram_t, gram_r) -> (snr, beam weights).
_SCHEME_SNR: dict[str, Callable] = {
    "bidirectional": _bidirectional_snr,
    "dominant_tx_mf_rx": _dominant_snr,
    "equal_power": _equal_power_snr,
}

GAIN_MODELS = ("complex_gaussian",)

ANGLE_SAMPLING = ("uniform_angle", "uniform_cosine")

_MAX_RESAMPLE = 100

# A draw whose path gains all have magnitude below this is redrawn: the
# channel is zero to within rounding and the loss would be 0/0.
_MIN_GAIN = 1e-150

# Working-set budget and trial cap of one chunk of trials (see _chunk_trials).
_CHUNK_BYTES = 1 << 20
_MAX_CHUNK_TRIALS = 256

# Elevation of every drawn path: the azimuth plane.
_BROADSIDE = math.pi / 2.0


@dataclass(frozen=True)
class McConfig:
    """Configuration of one CCDF run."""

    num_paths: int
    trials: int
    seed: int
    nt: int = 64
    nr: int = 4
    spacing_wavelengths: float = 0.5
    fov_deg: float = 120.0
    gain_model: str = "complex_gaussian"
    scheme: str = "bidirectional"
    angle_sampling: str = "uniform_angle"

    def __post_init__(self) -> None:
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.nt < 1 or self.nr < 1:
            raise ValueError("antenna counts must be >= 1")
        if not self.spacing_wavelengths > 0:
            raise ValueError("spacing_wavelengths must be > 0")
        if not 0.0 < self.fov_deg <= 180.0:
            raise ValueError("fov_deg must lie in (0, 180]")
        if self.gain_model not in GAIN_MODELS:
            raise ValueError(f"unknown gain model {self.gain_model!r}")
        if self.angle_sampling not in ANGLE_SAMPLING:
            raise ValueError(
                f"unknown angle sampling {self.angle_sampling!r}; choose from {ANGLE_SAMPLING}"
            )
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {sorted(SCHEMES)}")
        if self.scheme == "equal_power" and self.num_paths != 2:
            raise ValueError("the equal_power scheme is defined for num_paths = 2 only")

    @property
    def tx_geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.nt, self.spacing_wavelengths)

    @property
    def rx_geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.nr, self.spacing_wavelengths)

    def to_dict(self) -> dict:
        return {
            "num_paths": self.num_paths,
            "trials": self.trials,
            "seed": self.seed,
            "nt": self.nt,
            "nr": self.nr,
            "spacing_wavelengths": self.spacing_wavelengths,
            "fov_deg": self.fov_deg,
            "gain_model": self.gain_model,
            "scheme": self.scheme,
            "angle_sampling": self.angle_sampling,
            "rng": RNG_ALGORITHM,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "McConfig":
        """Inverse of :meth:`to_dict`; rejects a config recorded under another stream."""
        rng = doc.get("rng", RNG_ALGORITHM)
        if rng != RNG_ALGORITHM:
            raise ValueError(f"unsupported random stream {rng!r}; expected {RNG_ALGORITHM!r}")
        return cls(**{k: v for k, v in doc.items() if k != "rng"})


@dataclass(frozen=True)
class CcdfTable:
    """Sorted loss samples (dB) with complementary-CDF ordinates.

    ``ccdf[i]`` is the empirical fraction of samples at or above
    ``samples_db[i]``, so it decreases from 1 to 1/trials.
    """

    samples_db: np.ndarray
    ccdf: np.ndarray
    config: McConfig
    num_resampled: int = 0


def trial_rng(cfg: McConfig, trial_index: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, trial_index)."""
    key = np.array([cfg.seed, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _angle_bounds(cfg: McConfig) -> tuple[float, float]:
    """Range of the uniform angle draws: azimuths, or their cosines for ``uniform_cosine``."""
    half_fov = math.radians(cfg.fov_deg) / 2.0
    lo = math.pi / 2.0 - half_fov
    hi = math.pi / 2.0 + half_fov
    if cfg.angle_sampling == "uniform_angle":
        return lo, hi
    # uniform in the spatial frequency cos(azimuth) instead of the angle
    return math.cos(hi), math.cos(lo)


def _draw_once(rng: np.random.Generator, normals, angles) -> None:
    """One draw of the stream: gains into ``normals`` (2, L), then aod, aoa into ``angles`` (2, L).

    ``angles`` receives raw uniforms on [0, 1), which :func:`_azimuths` maps.
    """
    rng.standard_normal(out=normals)
    rng.random(out=angles)


def _gains(normals: np.ndarray) -> np.ndarray:
    """Complex gains (B, L) from standard normal draws (B, 2, L)."""
    return (normals[:, 0] + 1j * normals[:, 1]) / math.sqrt(2.0)


def _azimuths(cfg: McConfig, uniforms: np.ndarray) -> np.ndarray:
    """Azimuths (B, 2, L) of the departure and arrival uniforms (B, 2, L) on [0, 1).

    The map to the field of view is numpy's own ``lo + (hi - lo) * u``, so a
    value equals the one ``rng.uniform(lo, hi)`` gives for the same draw.
    """
    lo, hi = _angle_bounds(cfg)
    angles = lo + (hi - lo) * uniforms
    return np.arccos(angles) if cfg.angle_sampling == "uniform_cosine" else angles


def _vanishing(gains: np.ndarray) -> np.ndarray:
    """True for each row of ``gains`` whose magnitudes all fall below ``_MIN_GAIN``."""
    return np.abs(gains).max(axis=-1) < _MIN_GAIN


def _redraw(rng: np.random.Generator, normals, angles) -> int:
    """Draw one trial into ``normals``, ``angles`` (1, 2, L) until its gains are usable.

    Returns the number of redraws; raises after ``_MAX_RESAMPLE`` of them.
    """
    _draw_once(rng, normals[0], angles[0])
    redraws = 0
    while _vanishing(_gains(normals))[0]:
        redraws += 1
        if redraws > _MAX_RESAMPLE:
            seed, trial = rng.bit_generator.state["state"]["key"].tolist()
            raise RuntimeError(f"trial {trial} of seed {seed} kept producing degenerate channels")
        _draw_once(rng, normals[0], angles[0])
    return redraws


def _draw_chunk(cfg: McConfig, trials: range):
    """Gains, aod and aoa (B, L) of consecutive trials, and the number of redraws.

    One Philox bit generator is re-keyed to ``(seed, trial)`` for each
    trial, which yields the same stream as :func:`trial_rng` without
    building a generator per trial.  Rows that need redrawing are replayed
    from the start of their stream by :func:`_redraw`.
    """
    bitgen = np.random.Philox(key=np.array([cfg.seed, trials.start], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    state = bitgen.state

    def rekey(trial: int) -> None:
        state["state"]["key"][1] = trial
        bitgen.state = state

    shape = (len(trials), 2, cfg.num_paths)
    normals, angles = np.empty(shape), np.empty(shape)
    for row, trial in enumerate(trials):
        rekey(trial)
        _draw_once(rng, normals[row], angles[row])
    redraws = 0
    for row in np.flatnonzero(_vanishing(_gains(normals))):
        rekey(trials[row])
        redraws += _redraw(rng, normals[row : row + 1], angles[row : row + 1])
    azimuths = _azimuths(cfg, angles)
    return _gains(normals), azimuths[:, 0], azimuths[:, 1], redraws


def _draw_paths(cfg: McConfig, rng: np.random.Generator) -> list[PathComponent]:
    """Path components of one trial from its stream ``rng``, redrawn as :func:`run_ccdf` does."""
    normals, angles = np.empty((1, 2, cfg.num_paths)), np.empty((1, 2, cfg.num_paths))
    _redraw(rng, normals, angles)
    gains = _gains(normals)[0].tolist()
    aods, aoas = _azimuths(cfg, angles)[0].tolist()
    return [
        PathComponent(gain=gains[i], aod=AngleSpec(aods[i]), aoa=AngleSpec(aoas[i]))
        for i in range(cfg.num_paths)
    ]


def sample_paths(cfg: McConfig, trial_index: int) -> list[PathComponent]:
    """Path components of one trial; a pure function of (seed, trial_index)."""
    return _draw_paths(cfg, trial_rng(cfg, trial_index))


def _chunk_trials(cfg: McConfig) -> int:
    """Trials per chunk: at most ``_MAX_CHUNK_TRIALS``, and as many as fit ``_CHUNK_BYTES``.

    A trial's arrays do not depend on Nt or Nr.  At most about eight
    complex L x L arrays of a trial are alive at once (its two Grams and the
    eigendecompositions and products of the kernels), plus a few hundred
    bytes of draws, SNRs and Python floats: 750 bytes at L = 2 and 3 kB at
    L = 5, measured with ``tracemalloc``.  Past a few hundred trials a
    larger chunk gains little: the fixed cost of a chunk, one Philox key
    schedule and about a hundred small numpy calls (0.15-0.25 ms on a
    2-vCPU x86-64 box with numpy 2.4), is then under 1 microsecond per
    trial.
    """
    per_trial = 8 * 16 * cfg.num_paths**2 + 256
    return max(1, min(cfg.trials, _MAX_CHUNK_TRIALS, _CHUNK_BYTES // per_trial))


def _trial_losses(cfg: McConfig) -> tuple[np.ndarray, int]:
    """Loss (dB) of every trial in trial order, and the number of redraws."""
    scheme_snr = _SCHEME_SNR[cfg.scheme]
    tx_geom, rx_geom = cfg.tx_geometry, cfg.rx_geometry
    chunk = _chunk_trials(cfg)
    losses = np.empty(cfg.trials)
    num_resampled = 0
    for start in range(0, cfg.trials, chunk):
        trials = range(start, min(start + chunk, cfg.trials))
        gains, aod, aoa, redraws = _draw_chunk(cfg, trials)
        num_resampled += redraws
        gram_t = gram_stack(tx_geom, spatial_frequencies(aod, _BROADSIDE))
        gram_r = gram_stack(rx_geom, spatial_frequencies(aoa, _BROADSIDE))
        optimal, _ = _optimal_snr(gains, gram_t, gram_r)
        scheme, _ = scheme_snr(gains, gram_t, gram_r)
        losses[start : trials.stop] = [
            _loss_db(o, s) for o, s in zip(optimal.tolist(), scheme.tolist())
        ]
    return losses, num_resampled


def run_ccdf(cfg: McConfig) -> CcdfTable:
    """Run all trials and build the loss CCDF for the configured scheme.

    Trials run in chunks sized to a ``_CHUNK_BYTES`` working set (see the
    module docstring for the stream contract).  Per chunk: draw every
    trial's paths from its own stream, evaluate the Gram matrices of its
    steering vectors, the optimal normalized SNR (the Hermitian L x L core)
    and the scheme's normalized SNR in stacked kernels, and record
    ``10*log10(optimal/scheme)``.  Draws whose gains
    all vanish are redrawn from the same stream and counted in
    ``num_resampled``.  Each loss equals, bit for bit, the one the public
    per-channel functions give for ``sample_paths(cfg, trial)``.
    """
    losses, num_resampled = _trial_losses(cfg)
    order = np.sort(losses)
    n = cfg.trials
    ccdf = (n - np.arange(n, dtype=float)) / n
    order.setflags(write=False)
    ccdf.setflags(write=False)
    return CcdfTable(samples_db=order, ccdf=ccdf, config=cfg, num_resampled=num_resampled)


def percentile(table: CcdfTable, p: float) -> float:
    """Nearest-rank p-quantile of the loss samples, p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    n = table.samples_db.size
    if n == 0:
        raise ValueError("empty table")
    rank = max(math.ceil(p * n), 1)
    return float(table.samples_db[rank - 1])


def ccdf_to_csv(table: CcdfTable, header_comments: Sequence[str] = ()) -> str:
    """Render the table as CSV with header ``delta_snr_db,ccdf``.

    ``header_comments`` lines (without the leading '#') are emitted as a
    '#'-prefixed preamble before the header row; values keep full float
    precision so reruns with the same config are byte-identical.
    """
    lines = [f"# {c}" for c in header_comments]
    lines.append("delta_snr_db,ccdf")
    for x, y in zip(table.samples_db, table.ccdf):
        lines.append(f"{x:.17g},{y:.17g}")
    return "\n".join(lines) + "\n"


def ccdf_to_dict(table: CcdfTable) -> dict:
    return {
        "config": table.config.to_dict(),
        "num_resampled": table.num_resampled,
        "samples_db": [float(x) for x in table.samples_db],
        "ccdf": [float(y) for y in table.ccdf],
    }


def ccdf_to_json(table: CcdfTable, indent: int | None = None) -> str:
    return json.dumps(ccdf_to_dict(table), sort_keys=True, indent=indent)
