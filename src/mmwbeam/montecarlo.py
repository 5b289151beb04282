"""Monte Carlo study of the SNR loss of directional beamforming.

Each trial draws a random sparse channel (i.i.d. complex Gaussian gains,
azimuths uniform over the array field of view), computes the optimal
normalized SNR and the SNR of a low-complexity scheme, and records the
loss in dB.  Sorted losses with their complementary-CDF ordinates form a
:class:`CcdfTable`.

Stream contract (``philox4x64-v2``, recorded as ``rng`` in every output).
Every trial is a pure function of ``(seed, t)``: one Philox keyed by
``(seed, 0)``, in which trial ``t`` owns the ``L`` counter blocks after
counter ``t*L``, that is the ``4L`` doubles ``Generator.random`` gives from
there: ``L`` uniforms ``u1``, ``L`` uniforms ``u2``, then ``L`` for the
departure and ``L`` for the arrival azimuths.  Each gain is
``sqrt(-log1p(-u1)) * exp(2j*pi*u2)``: its squared magnitude is exactly
Exp(1) and its phase uniform and independent, so the gain is CN(0, 1)
(recorded as ``gain_model`` ``complex_gaussian``).  Slots do not overlap,
so a chunk of trials is read in one call and the values depend neither on
the chunk size nor on the order of chunks.  Redraw ``r >= 1`` of trial
``t`` reads slot ``t`` of the Philox keyed by ``(seed, r)``.

A draw whose gains all fall below ``_MIN_GAIN`` is redrawn, at most
``_MAX_RESAMPLE`` times, and counted.  The azimuth uniforms on [0, 1) are
mapped to the field of view with numpy's own ``lo + (hi - lo) * u``, the
value ``rng.uniform(lo, hi)`` gives for the same draw.

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
import numbers
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

# The random stream and gain law of every trial (see the module docstring).  Each
# output records them, and McConfig.from_dict accepts no other value.
RNG_ALGORITHM = "philox4x64-v2"
_GAIN_MODEL = "complex_gaussian"

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
    scheme: str = "bidirectional"
    angle_sampling: str = "uniform_angle"

    def __post_init__(self) -> None:
        for name in ("num_paths", "trials", "seed", "nt", "nr"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
            "gain_model": _GAIN_MODEL,
            "scheme": self.scheme,
            "angle_sampling": self.angle_sampling,
            "rng": RNG_ALGORITHM,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "McConfig":
        """Inverse of :meth:`to_dict`.

        The keys ``rng`` and ``gain_model`` may be left out; given, they must
        name the stream and gain law every trial is drawn with, and any other
        value (such as the retired stream ``philox4x64``) raises ``ValueError``.
        """
        fields = dict(doc)
        for key, only in (("rng", RNG_ALGORITHM), ("gain_model", _GAIN_MODEL)):
            if fields.pop(key, only) != only:
                raise ValueError(f"unknown {key} {doc[key]!r}; the only one is {only!r}")
        return cls(**fields)


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


def trial_rng(cfg: McConfig, trial_index: int, redraw: int = 0) -> np.random.Generator:
    """Generator at the slot of trial ``trial_index`` in the Philox keyed by ``(seed, redraw)``."""
    key = np.array([cfg.seed, redraw], dtype=np.uint64)
    counter = int(trial_index) * cfg.num_paths
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _angle_bounds(cfg: McConfig) -> tuple[float, float]:
    """Range of the uniform angle draws: azimuths, or their cosines for ``uniform_cosine``."""
    half_fov = math.radians(cfg.fov_deg) / 2.0
    lo = math.pi / 2.0 - half_fov
    hi = math.pi / 2.0 + half_fov
    if cfg.angle_sampling == "uniform_angle":
        return lo, hi
    # uniform in the spatial frequency cos(azimuth) instead of the angle
    return math.cos(hi), math.cos(lo)


def _gains(draws: np.ndarray) -> np.ndarray:
    """Complex gains (B, L) from the uniform rows ``u1``, ``u2`` of draws (B, 4, L)."""
    return np.sqrt(-np.log1p(-draws[:, 0])) * np.exp(2j * np.pi * draws[:, 1])


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


def _draw_trial(cfg: McConfig, trial: int, out: np.ndarray) -> int:
    """Draw one trial into ``out`` (1, 4, L) from its start, redrawing until its gains are usable.

    Returns the number of redraws; raises after ``_MAX_RESAMPLE`` of them.
    """
    trial_rng(cfg, trial).random(out=out)
    redraws = 0
    while _vanishing(_gains(out))[0]:
        redraws += 1
        if redraws > _MAX_RESAMPLE:
            raise RuntimeError(
                f"trial {trial} of seed {cfg.seed} kept producing degenerate channels"
            )
        trial_rng(cfg, trial, redraws).random(out=out)
    return redraws


def _draw_chunk(cfg: McConfig, trials: range):
    """Gains, aod and aoa (B, L) of consecutive trials, and the number of redraws.

    The whole chunk is read in one call from the generator at the first
    trial's slot.  Rows whose gains vanish are drawn again from their start
    by :func:`_draw_trial`.
    """
    draws = np.empty((len(trials), 4, cfg.num_paths))
    trial_rng(cfg, trials.start).random(out=draws)
    gains = _gains(draws)
    rows = np.flatnonzero(_vanishing(gains))
    redraws = sum(_draw_trial(cfg, trials[row], draws[row : row + 1]) for row in rows)
    if rows.size:
        gains = _gains(draws)
    azimuths = _azimuths(cfg, draws[:, 2:])
    return gains, azimuths[:, 0], azimuths[:, 1], redraws


def _draw_paths(cfg: McConfig, trial: int) -> list[PathComponent]:
    """Path components of one trial, drawn and redrawn as :func:`run_ccdf` draws them."""
    draws = np.empty((1, 4, cfg.num_paths))
    _draw_trial(cfg, trial, draws)
    gains = _gains(draws)[0].tolist()
    aods, aoas = _azimuths(cfg, draws[:, 2:])[0].tolist()
    return [
        PathComponent(gain=gains[i], aod=AngleSpec(aods[i]), aoa=AngleSpec(aoas[i]))
        for i in range(cfg.num_paths)
    ]


def sample_paths(cfg: McConfig, trial_index: int) -> list[PathComponent]:
    """Path components of one trial; a pure function of (seed, trial_index)."""
    return _draw_paths(cfg, trial_index)


def _chunk_trials(cfg: McConfig) -> int:
    """Trials per chunk: at most ``_MAX_CHUNK_TRIALS``, and as many as fit ``_CHUNK_BYTES``.

    A trial's arrays do not depend on Nt or Nr.  At most about eight
    complex L x L arrays of a trial are alive at once (its two Grams and the
    eigendecompositions and products of the kernels), plus a few hundred
    bytes of draws, SNRs and Python floats: 750 bytes at L = 2 and 3 kB at
    L = 5, measured with ``tracemalloc``.  Past a few hundred trials a
    larger chunk gains little: the fixed cost of a chunk, one generator and
    about a hundred small numpy calls (0.15-0.25 ms on a 2-vCPU x86-64 box
    with numpy 2.4), is then under 1 microsecond per trial.
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
    trial's paths, evaluate the Gram matrices of its steering vectors, the
    optimal normalized SNR (the Hermitian L x L core) and the scheme's
    normalized SNR in stacked kernels, and record
    ``10*log10(optimal/scheme)``.  Draws whose gains all vanish are redrawn
    as the stream defines and counted in ``num_resampled``.  Each loss
    equals, bit for bit, the one the public per-channel functions give for
    ``sample_paths(cfg, trial)``.
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
