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
value ``rng.uniform(lo, hi)`` gives for the same draw.  An azimuth reaches
the steering vectors only through its spatial frequency ``cos(azimuth)``.

The engine works on chunks of consecutive trials.  A chunk is drawn into
arrays ``gains``, ``aod`` and ``aoa`` of shape (B, L), the Gram data of the
transmit and receive steering vectors is evaluated in closed form, both
ends in one call, the optimum and the scheme SNR come from the stacked
kernels of :mod:`mmwbeam.beamformer`, and the chunk's losses in dB from
``beamformer._losses_db``, one division and one log pass with the bits
``beamformer._loss_db`` gives each pair; no steering vector is formed, so a
trial's cost does not depend on Nt or Nr.  At L = 2 the Gram data is the
two couplings ``rho_t``, ``rho_r`` (B,) of ``steering._couplings`` and the
kernels are the two-path ones (``_TWO_PATH_SNR``), which form no 2 x 2
matrix; at any other L it is the Gram matrices (B, L, L) of
``steering._grams`` and the L x L kernels (``_SCHEME_SNR``).  At L = 1
every loss is exactly 0 dB and only the draws run (see
``_trial_losses``), so the bytes of an L = 1 run do not depend on the
machine.  The chunk size follows from the per-trial working set and a
fixed budget of ``_CHUNK_BYTES``, so memory stays bounded for any trial
count.  The public per-channel route
``sample_paths`` -> ``reduced_optimal_beamformer`` -> ``SCHEMES[scheme]``
draws its trial as a chunk of one through the same draw route, calls the
same kernels and reproduces every loss bit for bit (at L = 1 its optimum
and scheme SNR are equal, so its loss is 0 too).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .beamformer import (
    _bidirectional_snr,
    _dominant_snr,
    _losses_db,
    _optimal_snr,
    _two_path_bidirectional,
    _two_path_dominant,
    _two_path_equal_power,
    _two_path_optimal,
    bidirectional_beamformer,
    dominant_path_beamformer,
    equal_power_beamformer,
)
from .channel import PathComponent, _path_list
from .steering import ArrayGeometry, _couplings, _grams, spatial_frequencies

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

# The stacked kernel behind each scheme defined at every L, as the engine calls it at
# L != 2: (gains, gram_t, gram_r) -> (snr, beam weights).
_SCHEME_SNR: dict[str, Callable] = {
    "bidirectional": _bidirectional_snr,
    "dominant_tx_mf_rx": _dominant_snr,
}

# The kernel behind each scheme at L = 2, on the two couplings: (gains, rho_t, rho_r) ->
# (snr, beam weights).
_TWO_PATH_SNR: dict[str, Callable] = {
    "bidirectional": _two_path_bidirectional,
    "dominant_tx_mf_rx": _two_path_dominant,
    "equal_power": _two_path_equal_power,
}

ANGLE_SAMPLING = ("uniform_angle", "uniform_cosine")

_MAX_RESAMPLE = 100

# A draw whose path gains all have magnitude below this is redrawn: the
# channel is zero to within rounding and the loss would be 0/0.
_MIN_GAIN = 1e-150

# Working-set budget of one chunk of trials (see _chunk_trials).
_CHUNK_BYTES = 1 << 20

# Bytes a trial of a chunk holds at L = 1 and 2, the measured working sets of
# _chunk_trials with a quarter to spare; other L count their L x L arrays.
_TRIAL_BYTES = {1: 160, 2: 704}


def _check_integers(**values) -> None:
    """The rule for integer fields, of ``McConfig`` and ``verify.run_suite``.

    Each value must be an integer and not a bool, checked before any range,
    and ``seed``, which keys Philox, a 64-bit unsigned one.
    """
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 0 <= values["seed"] < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")


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
        integers = ("num_paths", "trials", "seed", "nt", "nr")
        _check_integers(**{name: getattr(self, name) for name in integers})
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name in ("spacing_wavelengths", "fov_deg"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        _ = self.tx_geometry, self.rx_geometry  # they check nt, nr and the spacing
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
        return {**vars(self), "gain_model": _GAIN_MODEL, "rng": RNG_ALGORITHM}

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


def _slot_rng(seed: int, key: int, slot: int, blocks: int) -> np.random.Generator:
    """Generator at ``slot``, of ``blocks`` counter blocks, of the Philox keyed by ``(seed, key)``.

    Every keyed Philox of the package is built here: slot ``t`` starts at
    counter ``t * blocks``, and ``Generator.random`` gives its ``4 * blocks``
    doubles from there.
    """
    key_words = np.array([seed, key], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key_words, counter=slot * blocks))


def trial_rng(cfg: McConfig, trial_index: int, redraw: int = 0) -> np.random.Generator:
    """Generator at the slot of trial ``trial_index`` in the Philox keyed by ``(seed, redraw)``."""
    return _slot_rng(cfg.seed, redraw, int(trial_index), cfg.num_paths)


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


def _draw_chunk(cfg: McConfig, trials: range):
    """Gains, aod and aoa (B, L) of consecutive trials, and the number of redraws.

    The whole chunk is read in one call from the generator at the first
    trial's slot.  A row whose gains vanish is redrawn in place from the
    trial's slot under the next key, at most ``_MAX_RESAMPLE`` times.
    """
    draws = np.empty((len(trials), 4, cfg.num_paths))
    trial_rng(cfg, trials.start).random(out=draws)
    gains = _gains(draws)
    redraws = 0
    for row in np.flatnonzero(_vanishing(gains)).tolist():
        draw = draws[row : row + 1]
        for redraw in range(1, _MAX_RESAMPLE + 1):
            trial_rng(cfg, trials[row], redraw).random(out=draw)
            if not _vanishing(_gains(draw))[0]:
                break
        else:
            raise RuntimeError(
                f"trial {trials[row]} of seed {cfg.seed} kept producing degenerate channels"
            )
        redraws += redraw
        gains[row] = _gains(draw)[0]
    azimuths = _azimuths(cfg, draws[:, 2:])
    return gains, azimuths[:, 0], azimuths[:, 1], redraws


def sample_paths(cfg: McConfig, trial_index: int) -> list[PathComponent]:
    """Path components of one trial, drawn as a chunk of one; pure in (seed, trial_index)."""
    gains, aod, aoa, _ = _draw_chunk(cfg, range(trial_index, trial_index + 1))
    return _path_list(gains[0], aod[0], aoa[0])


# The name the benchmark's tracer times the per-trial draw under.
_draw_paths = sample_paths


def _chunk_trials(cfg: McConfig) -> int:
    """Trials per chunk: as many as fit ``_CHUNK_BYTES``.

    A trial's arrays do not depend on Nt or Nr.  At L = 1 a trial holds its
    draws alone, and at L = 2 its draws, two couplings and the (B,)
    temporaries of the two-path kernels: measured, a run's peak beyond its
    losses is 120 bytes a trial at L = 1 and 356 (bi-directional and
    dominant-path) to 550 (equal power) at L = 2, so ``_TRIAL_BYTES`` counts
    160 and 704.  At other L ten complex L x L arrays of a trial are alive
    at once (its two Grams, the factor of G_t, and the products and
    entry-by-entry temporaries of the kernels), counted with half a
    kilobyte of draws, SNRs and Python floats: 2.0 kB at L = 3 and 4.5 kB
    at L = 5.  So a chunk holds 6553, 1489, 537 and 232 trials at L = 1,
    2, 3 and 5, and a run's peak beyond its losses, measured with
    ``tracemalloc`` over 2.5 chunks at Nt = 64 and Nr = 4, stays within
    0.75, 0.51 (0.78 for equal power), 0.91 and 0.69 of ``_CHUNK_BYTES``.
    The fixed cost of a chunk, one generator and up to three hundred small
    numpy calls (0.1-0.35 ms on a 2-vCPU x86-64 box with numpy 2.4), is
    large beside the cost per trial (about 0.1, 0.6-0.9, 1.4-1.9 and 7-11
    microseconds at L = 1, 2, 3 and 5), so fewer, larger chunks pay: 10^5
    trials took 9.0, 69 and 83 ms at L = 1, 2 (bi-directional) and 2 (equal
    power) in chunks of this size, against 10.9, 75 and 93 ms in chunks of
    1560, 910 and 910, the sizes ten L x L arrays a trial would give
    (medians of seven runs on the same box).
    """
    per_trial = _TRIAL_BYTES.get(cfg.num_paths, 10 * 16 * cfg.num_paths**2 + 512)
    return max(1, min(cfg.trials, _CHUNK_BYTES // per_trial))


def _trial_losses(cfg: McConfig) -> tuple[np.ndarray, int]:
    """Loss (dB) of every trial in trial order, and the number of redraws.

    At L = 1 every loss is exactly 0 dB: the channel ``H = c g u v^H`` is
    rank one, so the path's transmit steering vector ``v`` is its dominant
    right-singular vector and the receive one ``u`` its matched filter, and
    both schemes steer at them.  Each chunk is drawn all the same, since a
    draw whose gain vanishes is redrawn and counted as at any L, and no
    Gram data, kernel, BLAS routine or logarithm runs.  At L = 2 each
    chunk's Gram data is its two couplings, and the kernels are the
    two-path ones; at any other L it is the Grams themselves.
    """
    two_paths = cfg.num_paths == 2
    optimum = _two_path_optimal if two_paths else _optimal_snr
    scheme_snr = (_TWO_PATH_SNR if two_paths else _SCHEME_SNR)[cfg.scheme]
    # element counts of the transmit and the receive array, one per end of a pair
    sizes = np.array([cfg.nt, cfg.nr])[:, None, None]
    chunk = _chunk_trials(cfg)
    losses = np.empty(cfg.trials)
    num_resampled = 0
    for start in range(0, cfg.trials, chunk):
        trials = range(start, min(start + chunk, cfg.trials))
        gains, *ends, redraws = _draw_chunk(cfg, trials)
        num_resampled += redraws
        if cfg.num_paths == 1:
            losses[start : trials.stop] = 0.0
            continue
        freqs = spatial_frequencies(ends)
        if two_paths:
            pair = _couplings(sizes, cfg.spacing_wavelengths, freqs)[..., 0]
        else:
            pair = _grams(sizes, cfg.spacing_wavelengths, freqs)
        optimal, _ = optimum(gains, *pair)
        scheme, _ = scheme_snr(gains, *pair)
        losses[start : trials.stop] = _losses_db(optimal, scheme)
    return losses, num_resampled


def run_ccdf(cfg: McConfig) -> CcdfTable:
    """Run all trials and build the loss CCDF for the configured scheme.

    Trials run in chunks sized to a ``_CHUNK_BYTES`` working set (see the
    module docstring for the stream contract).  Per chunk: draw every
    trial's paths, evaluate the Gram matrices of its steering vectors, the
    optimal normalized SNR (the Hermitian L x L core) and the scheme's
    normalized SNR in stacked kernels, and record
    ``10*log10(optimal/scheme)``.  At L = 1 every loss is exactly 0 dB and
    only the draws run (see ``_trial_losses``).  Draws whose gains all
    vanish are redrawn as the stream defines and counted in
    ``num_resampled``, at every L.  Each loss equals,
    bit for bit, the one the public per-channel functions give for
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
    lines.append("delta_snr_db,ccdf\n")
    # one % over every row: a % per row takes about a sixth longer
    values = np.column_stack((table.samples_db, table.ccdf)).ravel().tolist()
    return "\n".join(lines) + ("%.17g,%.17g\n" * len(table.samples_db)) % tuple(values)


def ccdf_to_dict(table: CcdfTable) -> dict:
    return {
        "config": table.config.to_dict(),
        "num_resampled": table.num_resampled,
        "samples_db": table.samples_db.tolist(),
        "ccdf": table.ccdf.tolist(),
    }
