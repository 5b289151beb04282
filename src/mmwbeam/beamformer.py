"""Transmit/receive beamformer constructions and received-SNR evaluation.

Two independent routes compute the optimal pair.  The dense oracle takes
the top right singular vector of ``H``.  The reduced route uses the path
structure: every eigenvector of ``H^H H`` with a nonzero eigenvalue is a
combination of the transmit steering vectors, so the search collapses from
Nt to L dimensions and becomes a Hermitian L x L eigenproblem.  The
low-complexity schemes (dominant-path, bi-directional, equal-power) and the
brute-force grid search over the same reduced space are provided for
benchmarking the loss against the optimum.

The reduced route and the schemes evaluate their SNR in stacked kernels
over a leading batch axis (``gains (B, L)``, steering stacks ``(B, N, L)``)
built from L x L products, so ``H`` is never formed.  The Monte Carlo
engine calls them on a chunk of trials; the per-channel functions here are
calls with B = 1, and give the same bits.
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

# A beam whose squared norm is at most this is treated as the zero vector: its
# steering vectors have unit norm, so such a norm is cancellation residue and
# an SNR ratio over it would be rounding noise; its SNR is -inf instead.
MIN_BEAM_NORM_SQ = 1e-12


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


def _as_pair(channel: ChannelMatrix, tx: np.ndarray, snr: float | None = None) -> BeamformerPair:
    """Build the matched-filter pair for a given unit-norm transmit vector.

    ``snr`` is the pair's normalized SNR when a kernel has already computed
    it; otherwise it is ``|H tx|^2 / (Nt * Nr)``.
    """
    tx = _canonical_phase(tx)
    w = channel.entries @ tx
    norm_w = float(np.linalg.norm(w))
    if norm_w < 1e-300:
        raise ValueError("H @ tx is numerically zero; degenerate channel or beam")
    rx = w / norm_w
    if snr is None:
        snr = norm_w**2 / (channel.num_tx * channel.num_rx)
    tx.setflags(write=False)
    rx.setflags(write=False)
    return BeamformerPair(tx=tx, rx=rx, normalized_snr=float(snr))


def _loss_db(optimal: float, achieved: float = 1.0) -> float:
    """SNR loss ``10*log10(optimal / achieved)`` in dB, +inf when the ratio is not finite.

    ``achieved <= 0`` counts as an infinite ratio.  The scalar ``math.log10``
    is used on purpose: numpy's vectorised ``log10`` may round differently.
    """
    ratio = optimal / achieved if achieved > 0.0 else math.inf
    return 10.0 * math.log10(ratio) if math.isfinite(ratio) else math.inf


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
    return SnrReport(
        pre_beamforming_snr=pre_beamforming_snr,
        received_snr=pre_beamforming_snr * snr_over_rho,
        normalized_snr=normalized,
        delta_snr_db=_loss_db(best, normalized),
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


# Stacked kernels.  Every argument and result carries a leading batch axis B:
# gains (B, L), transmit/receive steering stacks (B, Nt, L) and (B, Nr, L).
# With c = sqrt(Nt * Nr / L), H = c * U diag(gain) V^H, so the normalized SNR
# |rx^H H tx|^2 / (Nt * Nr) of unit-norm beams is |rx^H U diag(gain) V^H tx|^2 / L.
# Each result depends only on its own channel's inputs: a stack of B channels
# gives the same bits as B calls with a stack of one.


def _herm(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(stack, -1, -2))


def _power(vectors: np.ndarray) -> np.ndarray:
    """Squared 2-norm along the last axis."""
    return np.sum(vectors.real**2 + vectors.imag**2, axis=-1)


def _path_stacks(
    paths: Sequence[PathComponent], tx_geom: ArrayGeometry, rx_geom: ArrayGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains (1, L) and steering stacks (1, Nt, L), (1, Nr, L) of one path list."""
    if len(paths) == 0:
        raise ValueError("at least one path component is required")
    gains = np.array([[complex(p.gain) for p in paths]])
    tx_steer = steering_matrix(tx_geom, [p.aod for p in paths])
    rx_steer = steering_matrix(rx_geom, [p.aoa for p in paths])
    return gains, tx_steer[None], rx_steer[None]


def _optimal_snr(
    gains: np.ndarray, rx_steer: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal normalized SNR (B,) and the top eigenvector of the core (B, K).

    ``r`` is the R factor of the thin QR ``V = Q R`` of the transmit stack.
    With ``W = U diag(gain) R^H``, ``H = c W Q^H``, so the optimum is the top
    eigenvalue of the Hermitian core ``W^H W`` over L and the optimal transmit
    beam is ``Q x`` for its eigenvector ``x``.
    """
    core = (rx_steer * gains[:, None, :]) @ _herm(r)
    eigvals, eigvecs = np.linalg.eigh(_herm(core) @ core)
    return eigvals[:, -1] / gains.shape[-1], eigvecs[..., -1]


def _dominant_index(gains: np.ndarray) -> np.ndarray:
    """Index (B,) of each channel's strongest path; ties go to the lowest index."""
    return np.argmax(np.abs(gains), axis=-1)


def _dominant_columns(stack: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Each stack's steering vector (B, N) of its channel's strongest path."""
    index = _dominant_index(gains)[:, None, None]
    return np.take_along_axis(stack, index, axis=-1)[..., 0]


def _couplings(stack: np.ndarray, beams: np.ndarray) -> np.ndarray:
    """Inner products ``s_l^H beam`` (B, L) of each steering vector with each beam (B, N)."""
    return np.conj((np.conj(beams)[:, None, :] @ stack)[:, 0, :])


def _matched_snr(
    gains: np.ndarray, tx_steer: np.ndarray, rx_steer: np.ndarray, tx: np.ndarray
) -> np.ndarray:
    """SNR (B,) of unit-norm transmit beams ``tx`` (B, Nt) with a matched-filter receiver.

    ``H tx = c U y`` with ``y_l = gain_l v_l^H tx``, so the SNR is ``||U y||^2 / L``.
    """
    weights = gains * _couplings(tx_steer, tx)
    return _power((rx_steer @ weights[..., None])[..., 0]) / gains.shape[-1]


def _dominant_snr(
    gains: np.ndarray, tx_steer: np.ndarray, rx_steer: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SNR (B,) and transmit beam (B, Nt) of steering at the strongest path, matched-filter receiver."""
    tx = _dominant_columns(tx_steer, gains)
    return _matched_snr(gains, tx_steer, rx_steer, tx), tx


def _bidirectional_snr(
    gains: np.ndarray, tx_steer: np.ndarray, rx_steer: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SNR (B,) and transmit beam (B, Nt) of steering both ends at the strongest path.

    ``u_k^H H v_k = c * sum_l gain_l (u_k^H u_l) (v_l^H v_k)``.
    """
    tx = _dominant_columns(tx_steer, gains)
    rx = _dominant_columns(rx_steer, gains)
    amp = np.sum(gains * np.conj(_couplings(rx_steer, rx)) * _couplings(tx_steer, tx), axis=-1)
    return (amp.real**2 + amp.imag**2) / gains.shape[-1], tx


def _equal_power_snr(
    gains: np.ndarray, tx_steer: np.ndarray, rx_steer: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SNR (B,) and transmit beam (B, Nt) of the best equal split of an L=2 channel.

    The beam is ``f = v_0 + exp(1j theta) v_1`` normalized.  ``||H f||^2 /
    ||f||^2`` is the ratio ``(a0 + a1 cos + a2 sin) / (2 + b1 cos + b2 sin)``
    of two quadratic forms in ``(1, exp(1j theta))``.  Its derivative vanishes
    where ``P sin + Q cos + R = 0`` with ``P = a0 b1 - 2 a1``, ``Q = 2 a2 -
    a0 b2`` and ``R = a2 b1 - a1 b2``, at ``atan2(P, Q) +- arccos(-R /
    sqrt(P^2 + Q^2))`` (over 1 where ``P = Q = 0``, with the cosine clipped
    to [-1, 1]).  The maximum is the best of these two roots and
    ``theta = 0``: when the departure angles coincide, rounding can put both
    roots where the beam cancels, which the ``MIN_BEAM_NORM_SQ`` mask rules
    out.  The SNR is that of the normalized beam itself, not the ratio's
    value, which rounds badly where ``||f||`` nearly vanishes.
    """
    gram = _herm(tx_steer) @ tx_steer  # V^H V
    mapped = (rx_steer * gains[:, None, :]) @ gram  # H V / c
    quad = _herm(mapped) @ mapped
    cross_num = quad[:, 0, 1, None]
    a0 = quad[:, 0, 0, None].real + quad[:, 1, 1, None].real
    cross_den = gram[:, 0, 1, None]

    # Re(c exp(1j theta)) = Re(c) cos(theta) - Im(c) sin(theta); the factor 2 is exact.
    a1, a2 = 2.0 * cross_num.real, -2.0 * cross_num.imag
    b1, b2 = 2.0 * cross_den.real, -2.0 * cross_den.imag
    p, q, r = a0 * b1 - 2.0 * a1, 2.0 * a2 - a0 * b2, a2 * b1 - a1 * b2
    scale = np.hypot(p, q)
    scale[scale == 0.0] = 1.0
    spread = np.arccos(np.clip(-r / scale, -1.0, 1.0))
    theta = np.concatenate([np.zeros_like(p), np.arctan2(p, q) + [-1.0, 1.0] * spread], axis=-1)
    cos, sin = np.cos(theta), np.sin(theta)
    num = a0 + (a1 * cos + a2 * sin)
    den = 2.0 + (b1 * cos + b2 * sin)
    values = np.divide(num, den, out=np.full(num.shape, -np.inf), where=den > MIN_BEAM_NORM_SQ)
    theta = np.take_along_axis(theta, np.argmax(values, axis=-1)[:, None], axis=-1)

    tx = tx_steer[:, :, 0] + np.exp(1j * theta) * tx_steer[:, :, 1]
    tx = tx / np.sqrt(_power(tx))[:, None]
    return _matched_snr(gains, tx_steer, rx_steer, tx), tx


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
    ``W^H W``, and the normalized SNR is its eigenvalue over L; a
    rank-deficient core (coincident or cancelling paths) still yields a
    defined vector.  The receive vector is the matched filter on ``channel``
    (assembled from ``paths`` when not given).
    """
    gains, tx_steer, rx_steer = _path_stacks(paths, tx_geom, rx_geom)
    if channel is None:
        channel = assemble_channel(paths, tx_geom, rx_geom)
    q, r = np.linalg.qr(tx_steer)
    snr, top = _optimal_snr(gains, rx_steer, r)
    return _as_pair(channel, q[0] @ top[0], snr[0])


def dominant_path_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None = None,
) -> BeamformerPair:
    """Steer all transmit power along the strongest path.

    The transmit beam is the CPO steering vector of that path (analog
    phase shifters suffice); the receiver applies the matched filter on
    ``channel`` (assembled from ``paths`` when not given).
    """
    gains, tx_steer, rx_steer = _path_stacks(paths, tx_geom, rx_geom)
    if channel is None:
        channel = assemble_channel(paths, tx_geom, rx_geom)
    snr, tx = _dominant_snr(gains, tx_steer, rx_steer)
    return _as_pair(channel, tx[0], snr[0])


def bidirectional_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None = None,
) -> BeamformerPair:
    """Steer CPO beams at the strongest path on both ends of the link.

    Both beams are steering vectors, so ``channel`` is not needed; it is
    accepted for the call signature shared by every scheme.
    """
    gains, tx_steer, rx_steer = _path_stacks(paths, tx_geom, rx_geom)
    snr, tx = _bidirectional_snr(gains, tx_steer, rx_steer)
    tx = tx[0]
    rx = _dominant_columns(rx_steer, gains)[0]
    tx.setflags(write=False)
    rx.setflags(write=False)
    return BeamformerPair(tx=tx, rx=rx, normalized_snr=float(snr[0]))


def equal_power_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None = None,
) -> BeamformerPair:
    """Split transmit power equally between the two paths of an L=2 channel.

    The relative phase between the two steering vectors is the exact
    maximizer of the received SNR, solved from the stationary points of the
    two-path ratio (see :func:`_equal_power_snr`).  The receiver applies the
    matched filter on ``channel`` (assembled from ``paths`` when not given).
    """
    if len(paths) != 2:
        raise ValueError("equal-power beamforming is defined for exactly two paths")
    gains, tx_steer, rx_steer = _path_stacks(paths, tx_geom, rx_geom)
    if channel is None:
        channel = assemble_channel(paths, tx_geom, rx_geom)
    snr, tx = _equal_power_snr(gains, tx_steer, rx_steer)
    return _as_pair(channel, tx[0], snr[0])


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
        nonzero = den > MIN_BEAM_NORM_SQ
        values = np.where(ok & nonzero, num / np.where(nonzero, den, 1.0), -np.inf)
        idx = int(np.argmax(values))
        if values[idx] > best_val:
            best_val = float(values[idx])
            best_row = c[idx]
    if best_row is None or not math.isfinite(best_val):
        raise RuntimeError("no feasible grid point found")

    tx = tx_steer @ best_row
    return _as_pair(channel, tx / np.linalg.norm(tx))
