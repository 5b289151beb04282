"""Transmit/receive beamformer constructions and received-SNR evaluation.

Two independent routes compute the optimal pair.  The dense oracle takes
the top right singular vector of ``H``.  The reduced route uses the path
structure: every eigenvector of ``H^H H`` with a nonzero eigenvalue is a
combination of the transmit steering vectors, so the search collapses from
Nt to L dimensions and becomes a Hermitian L x L eigenproblem.  The
low-complexity schemes (dominant-path, bi-directional, equal-power) and the
brute-force grid search over the same reduced space are provided for
benchmarking the loss against the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelMatrix, PathComponent, assemble_channel
from .steering import ArrayGeometry, steering_matrix

__all__ = [
    "BeamformerPair",
    "SnrReport",
    "GridSpec",
    "GridSizeError",
    "received_snr",
    "matched_filter",
    "optimal_beamformer",
    "reduced_optimal_beamformer",
    "dominant_path_beamformer",
    "bidirectional_beamformer",
    "equal_power_beamformer",
    "grid_search_beamformer",
]

_TWO_PI = 2.0 * math.pi

class GridSizeError(RuntimeError):
    """Requested search grid exceeds the configured point budget."""


@dataclass(frozen=True, eq=False)
class BeamformerPair:
    """Unit-norm transmit/receive vectors and the normalized SNR they achieve.

    ``normalized_snr`` is the received SNR divided by ``Nt * Nr * rho``,
    i.e. ``|rx^H H tx|^2 / (Nt * Nr)`` for unit-norm vectors.
    """

    tx: np.ndarray
    rx: np.ndarray
    normalized_snr: float


@dataclass(frozen=True)
class SnrReport:
    """Received-SNR bookkeeping for one (channel, tx, rx) evaluation."""

    pre_beamforming_snr: float
    received_snr: float
    normalized_snr: float
    delta_snr_db: float


@dataclass(frozen=True)
class GridSpec:
    """Resolution and optional per-axis windows for the brute-force search.

    ``num_beta`` points per amplitude axis and ``num_theta`` per phase axis;
    with L paths there are L-1 axes of each kind.  Windows restrict an axis
    to a sub-interval (used for zoom-in refinement); ``None`` means the full
    range [0, 1] or [0, 2*pi).
    """

    num_beta: int = 25
    num_theta: int = 24
    beta_windows: tuple | None = None
    theta_windows: tuple | None = None
    max_points: int = 2_000_000

    def __post_init__(self) -> None:
        if self.num_beta < 2 or self.num_theta < 2:
            raise ValueError("grid resolutions must be at least 2 points per axis")
        if self.max_points < 1:
            raise ValueError("max_points must be positive")


def _canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first significant entry is real nonnegative."""
    mags = np.abs(vec)
    peak = mags.max()
    if peak == 0.0:
        return vec
    idx = int(np.argmax(mags > 1e-12 * peak))
    return vec * np.exp(-1j * np.angle(vec[idx]))


def _as_pair(channel: ChannelMatrix, tx: np.ndarray) -> BeamformerPair:
    """Build the matched-filter pair for a given unit-norm transmit vector."""
    tx = _canonical_phase(tx)
    w = channel.entries @ tx
    norm_w = float(np.linalg.norm(w))
    if norm_w < 1e-300:
        raise ValueError("H @ tx is numerically zero; degenerate channel or beam")
    rx = w / norm_w
    snr = norm_w**2 / (channel.num_tx * channel.num_rx)
    tx.setflags(write=False)
    rx.setflags(write=False)
    return BeamformerPair(tx=tx, rx=rx, normalized_snr=snr)


def received_snr(
    channel: ChannelMatrix,
    tx: np.ndarray,
    rx: np.ndarray,
    pre_beamforming_snr: float = 1.0,
) -> SnrReport:
    """Evaluate ``rho * |rx^H H tx|^2 / (rx^H rx)`` and its normalized form.

    ``tx`` must satisfy the energy constraint ``||tx|| <= 1``; ``rx`` may
    have any nonzero norm (the quotient removes it).  ``delta_snr_db`` is
    the loss of this pair relative to the best achievable SNR on the same
    channel (nonnegative up to rounding).
    """
    tx = np.asarray(tx, dtype=complex)
    rx = np.asarray(rx, dtype=complex)
    if tx.shape != (channel.num_tx,):
        raise ValueError(f"tx has shape {tx.shape}, expected ({channel.num_tx},)")
    if rx.shape != (channel.num_rx,):
        raise ValueError(f"rx has shape {rx.shape}, expected ({channel.num_rx},)")
    if not pre_beamforming_snr > 0:
        raise ValueError("pre_beamforming_snr must be positive")
    tx_norm = float(np.linalg.norm(tx))
    if tx_norm > 1.0 + 1e-9:
        raise ValueError(f"||tx|| = {tx_norm} violates the unit energy constraint")
    rx_power = float(np.real(np.vdot(rx, rx)))
    if rx_power <= 0.0:
        raise ValueError("rx must be nonzero")

    amp = np.vdot(rx, channel.entries @ tx)
    snr_over_rho = float(abs(amp) ** 2) / rx_power
    dims = channel.num_tx * channel.num_rx
    normalized = snr_over_rho / dims
    best = float(np.linalg.norm(channel.entries, 2) ** 2) / dims
    if normalized > 0.0:
        delta_db = 10.0 * math.log10(best / normalized)
    else:
        delta_db = math.inf
    return SnrReport(
        pre_beamforming_snr=pre_beamforming_snr,
        received_snr=pre_beamforming_snr * snr_over_rho,
        normalized_snr=normalized,
        delta_snr_db=delta_db,
    )


def matched_filter(channel: ChannelMatrix, tx: np.ndarray) -> np.ndarray:
    """Unit-norm receive vector ``H tx / ||H tx||`` for a given beam."""
    w = channel.entries @ np.asarray(tx, dtype=complex)
    norm_w = float(np.linalg.norm(w))
    if norm_w < 1e-300:
        raise ValueError("H @ tx is numerically zero; degenerate channel or beam")
    return w / norm_w


def optimal_beamformer(channel: ChannelMatrix) -> BeamformerPair:
    """Best unit-norm pair from the dense SVD of ``H``.

    The transmit vector is the top right singular vector of ``H`` (a vector
    of the top singular subspace when the top singular value is repeated);
    the receive vector is its matched filter.  This route ignores the path
    structure, so it is the oracle for :func:`reduced_optimal_beamformer`.
    """
    h = channel.entries
    if not np.any(h):
        raise ValueError("channel matrix is zero")
    _, _, vh = np.linalg.svd(h, full_matrices=False)
    return _as_pair(channel, vh[0].conj())


def reduced_optimal_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None = None,
) -> BeamformerPair:
    """Best pair via the Hermitian L x L core of Proposition 1.

    With the thin QR factorization ``V = Q R`` of the transmit steering
    stack and ``W = U diag(gain) R^H``, the channel is proportional to
    ``W Q^H``, so ``H^H H`` is proportional to ``Q (W^H W) Q^H``.  The
    optimal transmit vector is ``Q x`` with ``x`` the top eigenvector of
    ``W^H W``; a rank-deficient core (coincident or cancelling paths)
    still yields a defined vector.
    """
    if len(paths) == 0:
        raise ValueError("at least one path component is required")
    if channel is None:
        channel = assemble_channel(paths, tx_geom, rx_geom)

    gains = np.array([complex(p.gain) for p in paths])
    rx_steer = steering_matrix(rx_geom, [p.aoa for p in paths])
    tx_steer = steering_matrix(tx_geom, [p.aod for p in paths])
    q, r = np.linalg.qr(tx_steer)
    core = (rx_steer * gains) @ r.conj().T
    _, eigvecs = np.linalg.eigh(core.conj().T @ core)
    return _as_pair(channel, q @ eigvecs[:, -1])


def _dominant_index(paths: Sequence[PathComponent]) -> int:
    """Index of the strongest path; ties go to the lowest index."""
    mags = np.array([abs(complex(p.gain)) for p in paths])
    return int(np.argmax(mags))


def dominant_path_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None = None,
) -> BeamformerPair:
    """Steer all transmit power along the strongest path.

    The transmit beam is the CPO steering vector of that path (analog
    phase shifters suffice); the receiver applies the matched filter.
    """
    if len(paths) == 0:
        raise ValueError("at least one path component is required")
    if channel is None:
        channel = assemble_channel(paths, tx_geom, rx_geom)
    best = _dominant_index(paths)
    tx = steering_matrix(tx_geom, [paths[best].aod])[:, 0]
    return _as_pair(channel, tx)


def bidirectional_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None = None,
) -> BeamformerPair:
    """Steer CPO beams at the strongest path on both ends of the link."""
    if len(paths) == 0:
        raise ValueError("at least one path component is required")
    if channel is None:
        channel = assemble_channel(paths, tx_geom, rx_geom)
    best = _dominant_index(paths)
    tx = steering_matrix(tx_geom, [paths[best].aod])[:, 0]
    rx = steering_matrix(rx_geom, [paths[best].aoa])[:, 0]
    amp = np.vdot(rx, channel.entries @ tx)
    snr = float(abs(amp) ** 2) / (channel.num_tx * channel.num_rx)
    tx.setflags(write=False)
    rx.setflags(write=False)
    return BeamformerPair(tx=tx, rx=rx, normalized_snr=snr)


def equal_power_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None = None,
    num_phase_points: int = 720,
) -> BeamformerPair:
    """Split transmit power equally between the two paths of an L=2 channel.

    The relative phase between the two steering vectors is chosen to
    maximize the received SNR: a uniform phase grid followed by three
    halving refinement passes around the best grid point.  The receiver
    applies the matched filter.
    """
    if len(paths) != 2:
        raise ValueError("equal-power beamforming is defined for exactly two paths")
    if channel is None:
        channel = assemble_channel(paths, tx_geom, rx_geom)

    tx_steer = steering_matrix(tx_geom, [p.aod for p in paths])
    mapped = channel.entries @ tx_steer  # (Nr, 2)
    quad = mapped.conj().T @ mapped  # f^H H^H H f coefficients
    cross_num = quad[0, 1]
    base_num = float(quad[0, 0].real + quad[1, 1].real)
    cross_den = complex(np.vdot(tx_steer[:, 0], tx_steer[:, 1]))

    def ratio(theta: np.ndarray):
        z = np.exp(1j * theta)
        num = base_num + 2.0 * np.real(cross_num * z)
        den = 2.0 + 2.0 * np.real(cross_den * z)
        out = np.where(den > 1e-12, num / np.where(den > 1e-12, den, 1.0), -np.inf)
        return out

    grid = np.linspace(0.0, _TWO_PI, num_phase_points, endpoint=False)
    values = ratio(grid)
    best_idx = int(np.argmax(values))
    theta = float(grid[best_idx])
    best_val = float(values[best_idx])
    step = _TWO_PI / num_phase_points
    for _ in range(3):
        step *= 0.5
        for cand in (theta - step, theta + step):
            val = float(ratio(np.array([cand]))[0])
            if val > best_val:
                best_val = val
                theta = cand

    tx = tx_steer[:, 0] + np.exp(1j * theta) * tx_steer[:, 1]
    return _as_pair(channel, tx / np.linalg.norm(tx))


def _axis_grid(window, default_lo, default_hi, count, endpoint):
    if window is None:
        return np.linspace(default_lo, default_hi, count, endpoint=endpoint)
    lo, hi = window
    return np.linspace(lo, hi, count)


def grid_search_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    grid: GridSpec = GridSpec(),
    channel: ChannelMatrix | None = None,
) -> BeamformerPair:
    """Exhaustive search over steering-vector combinations.

    Candidates are ``f = b_1 v_1 + sum_{i>=2} b_i exp(1j t_i) v_i`` with
    nonnegative amplitudes on the unit sphere (the last amplitude is
    ``sqrt(1 - sum b_i^2)``) and free phases for all but the first path.
    The Rayleigh quotient ``f^H H^H H f / f^H f`` is evaluated at every
    grid point; ties resolve to the lowest linear index.  Used as the
    brute-force oracle for the eigen-based and closed-form solutions.
    """
    if len(paths) == 0:
        raise ValueError("at least one path component is required")
    if channel is None:
        channel = assemble_channel(paths, tx_geom, rx_geom)
    num_paths = len(paths)
    tx_steer = steering_matrix(tx_geom, [p.aod for p in paths])

    if num_paths == 1:
        return _as_pair(channel, tx_steer[:, 0])

    num_axes = num_paths - 1
    for name, windows in (("beta_windows", grid.beta_windows), ("theta_windows", grid.theta_windows)):
        if windows is not None and len(windows) != num_axes:
            raise ValueError(f"{name} needs one (lo, hi) pair per axis: {num_axes}")
    total = grid.num_beta**num_axes * grid.num_theta**num_axes
    if total > grid.max_points:
        raise GridSizeError(
            f"grid has {total} points, exceeding the budget of {grid.max_points}"
        )

    beta_axes = [
        np.clip(_axis_grid(None if grid.beta_windows is None else grid.beta_windows[i],
                           0.0, 1.0, grid.num_beta, True), 0.0, 1.0)
        for i in range(num_axes)
    ]
    theta_axes = [
        _axis_grid(None if grid.theta_windows is None else grid.theta_windows[i],
                   0.0, _TWO_PI, grid.num_theta, False)
        for i in range(num_axes)
    ]
    mesh = np.meshgrid(*beta_axes, *theta_axes, indexing="ij")
    betas = np.stack([m.ravel() for m in mesh[:num_axes]], axis=1)  # (P, L-1)
    thetas = np.stack([m.ravel() for m in mesh[num_axes:]], axis=1)  # (P, L-1)

    sq_sum = np.sum(betas**2, axis=1)
    feasible = sq_sum <= 1.0 + 1e-12
    last_amp = np.sqrt(np.clip(1.0 - sq_sum, 0.0, None))

    coeff = np.empty((betas.shape[0], num_paths), dtype=complex)
    coeff[:, 0] = betas[:, 0]
    for i in range(1, num_axes):
        coeff[:, i] = betas[:, i] * np.exp(1j * thetas[:, i - 1])
    coeff[:, num_paths - 1] = last_amp * np.exp(1j * thetas[:, num_axes - 1])

    gram = tx_steer.conj().T @ tx_steer
    mapped = channel.entries @ tx_steer
    quad = mapped.conj().T @ mapped

    best_val = -math.inf
    best_row = None
    chunk = 200_000
    for lo in range(0, coeff.shape[0], chunk):
        c = coeff[lo : lo + chunk]
        ok = feasible[lo : lo + chunk]
        num = np.einsum("pi,ij,pj->p", c.conj(), quad, c).real
        den = np.einsum("pi,ij,pj->p", c.conj(), gram, c).real
        values = np.where(ok & (den > 1e-12), num / np.where(den > 1e-12, den, 1.0), -np.inf)
        idx = int(np.argmax(values))
        if values[idx] > best_val:
            best_val = float(values[idx])
            best_row = c[idx]
    if best_row is None or not math.isfinite(best_val):
        raise RuntimeError("no feasible grid point found")

    tx = tx_steer @ best_row
    return _as_pair(channel, tx / np.linalg.norm(tx))
