"""Monte Carlo study of the SNR loss of directional beamforming.

Each trial draws a random sparse channel (i.i.d. complex Gaussian gains,
azimuths uniform over the array field of view), computes the optimal
normalized SNR and the SNR of a low-complexity scheme, and records the
loss in dB.  Sorted losses with their complementary-CDF ordinates form a
:class:`CcdfTable`.

Every trial derives its random stream solely from ``(seed, trial_index)``
through a counter-based Philox generator, so runs are reproducible and
trials can be evaluated in any order or in parallel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .beamformer import (
    bidirectional_beamformer,
    dominant_path_beamformer,
    equal_power_beamformer,
    reduced_optimal_beamformer,
)
from .channel import PathComponent, assemble_channel
from .steering import AngleSpec, ArrayGeometry

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

GAIN_MODELS = ("complex_gaussian",)

ANGLE_SAMPLING = ("uniform_angle", "uniform_cosine")

_MAX_RESAMPLE = 100


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


def _draw_azimuths(cfg: McConfig, rng: np.random.Generator) -> np.ndarray:
    half_fov = math.radians(cfg.fov_deg) / 2.0
    lo = math.pi / 2.0 - half_fov
    hi = math.pi / 2.0 + half_fov
    if cfg.angle_sampling == "uniform_angle":
        return rng.uniform(lo, hi, cfg.num_paths)
    # uniform in the spatial frequency cos(azimuth) instead of the angle
    freqs = rng.uniform(math.cos(hi), math.cos(lo), cfg.num_paths)
    return np.arccos(freqs)


def _draw_paths(cfg: McConfig, rng: np.random.Generator) -> list[PathComponent]:
    normals = rng.standard_normal((2, cfg.num_paths))
    gains = (normals[0] + 1j * normals[1]) / math.sqrt(2.0)
    aods = _draw_azimuths(cfg, rng)
    aoas = _draw_azimuths(cfg, rng)
    return [
        PathComponent(
            gain=complex(gains[i]),
            aod=AngleSpec(float(aods[i])),
            aoa=AngleSpec(float(aoas[i])),
        )
        for i in range(cfg.num_paths)
    ]


def sample_paths(cfg: McConfig, trial_index: int) -> list[PathComponent]:
    """Path components of one trial; a pure function of (seed, trial_index)."""
    return _draw_paths(cfg, trial_rng(cfg, trial_index))


def _degenerate(paths: Sequence[PathComponent]) -> bool:
    return max(abs(complex(p.gain)) for p in paths) < 1e-150


def run_ccdf(cfg: McConfig) -> CcdfTable:
    """Run all trials and build the loss CCDF for the configured scheme.

    Per trial: assemble the channel, evaluate the optimal normalized SNR
    (via the Hermitian L x L core of :func:`reduced_optimal_beamformer`)
    and the scheme's normalized SNR, and record ``10*log10(optimal/scheme)``.
    Trials whose gains all collapse to zero are redrawn from the same
    per-trial stream and counted.
    """
    scheme_fn = SCHEMES[cfg.scheme]
    tx_geom = cfg.tx_geometry
    rx_geom = cfg.rx_geometry

    samples = np.empty(cfg.trials)
    num_resampled = 0
    for trial in range(cfg.trials):
        rng = trial_rng(cfg, trial)
        paths = _draw_paths(cfg, rng)
        attempts = 0
        while _degenerate(paths):
            attempts += 1
            if attempts > _MAX_RESAMPLE:
                raise RuntimeError(f"trial {trial} kept producing degenerate channels")
            num_resampled += 1
            paths = _draw_paths(cfg, rng)
        channel = assemble_channel(paths, tx_geom, rx_geom)
        optimal = reduced_optimal_beamformer(paths, tx_geom, rx_geom, channel=channel)
        scheme = scheme_fn(paths, tx_geom, rx_geom, channel=channel)
        if scheme.normalized_snr > 0.0:
            delta_db = 10.0 * math.log10(optimal.normalized_snr / scheme.normalized_snr)
        else:
            delta_db = math.inf
        samples[trial] = delta_db

    order = np.sort(samples)
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
