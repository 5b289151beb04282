"""Transmit/receive beamformer constructions and received-SNR evaluation.

Two independent routes compute the optimal pair.  The dense oracle takes
the top right singular vector of ``H``.  The reduced route uses the path
structure: every eigenvector of ``H^H H`` with a nonzero eigenvalue is a
combination of the transmit steering vectors, so the search collapses from
Nt to L dimensions and becomes a Hermitian L x L eigenproblem.  The
low-complexity schemes (dominant-path, bi-directional, equal-power) are
provided for benchmarking the loss against the optimum.

The reduced route and the schemes evaluate their SNR in stacked kernels
over a leading batch axis (``gains (B, L)`` and the Gram matrices ``(B, L,
L)`` of the transmit and receive steering vectors, which
:func:`mmwbeam.steering.gram_stack` gives in closed form), so neither ``H``
nor any N-length vector is formed: a kernel's cost does not depend on Nt or
Nr.  The Monte Carlo engine calls them on a chunk of trials; the
per-channel functions here are calls with B = 1, and give the same bits.
They build steering vectors only to form the beams they return.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelMatrix, PathComponent, assemble_channel
from .steering import ArrayGeometry, angle_frequencies, gram_stack, steering_matrix

__all__ = [
    "BeamformerPair",
    "SnrReport",
    "received_snr",
    "matched_filter",
    "optimal_beamformer",
    "reduced_optimal_beamformer",
    "dominant_path_beamformer",
    "bidirectional_beamformer",
    "equal_power_beamformer",
]

# A beam whose squared norm is at most this is treated as the zero vector: its
# steering vectors have unit norm, so such a norm is cancellation residue and
# an SNR ratio over it would be rounding noise; its SNR is -inf instead.
MIN_BEAM_NORM_SQ = 1e-12

# A matched filter divides ``H tx`` by its norm: below this floor the division
# could overflow, so the beam is taken to miss the channel and is rejected.
MIN_RESPONSE_NORM = 1e-300


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
    if norm_w < MIN_RESPONSE_NORM:
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
    if norm_w < MIN_RESPONSE_NORM:
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
# gains (B, L) and the Gram matrices (B, L, L) of the transmit and receive
# steering vectors, G_t[l, k] = v_l^H v_k and G_r[l, k] = u_l^H u_k (see
# mmwbeam.steering.gram_stack).  With c = sqrt(Nt * Nr / L), H = c U diag(gain) V^H,
# so a transmit beam V w gives H V w = c U y with y = gain * (G_t w), and with a
# matched-filter receiver its normalized SNR |rx^H H tx|^2 / (Nt * Nr) is
# y^H G_r y / L.  No N-length vector is formed.  Each kernel returns the SNR (B,)
# and the weights w (B, L) of its transmit beam V w, of unit norm up to rounding.
# Each result depends only on its own channel's inputs: a stack of B channels
# gives the same bits as B calls with a stack of one.

# Eigenvalues of G_t at most this fraction of the largest are left out of the
# optimal beam: along them the steering vectors (nearly) cancel, and dividing
# by their root would only amplify rounding.
GRAM_RANK_FLOOR = 1e-12


def _herm(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(stack, -1, -2))


def _path_grams(
    paths: Sequence[PathComponent], tx_geom: ArrayGeometry, rx_geom: ArrayGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains (1, L) and the transmit/receive Grams (1, L, L) of one path list."""
    if len(paths) == 0:
        raise ValueError("at least one path component is required")
    gains = np.array([[complex(p.gain) for p in paths]])
    gram_t = gram_stack(tx_geom, angle_frequencies([p.aod for p in paths]))
    gram_r = gram_stack(rx_geom, angle_frequencies([p.aoa for p in paths]))
    return gains, gram_t[None], gram_r[None]


def _beam(steer: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Unit-norm beam (N,) of a steering matrix (N, L) and the weights (1, L) of a kernel."""
    beam = steer @ weights[0]
    return beam / np.linalg.norm(beam)


def _matched_pair(
    kernel,
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None,
) -> BeamformerPair:
    """The pair of a kernel on one path list: its beam and SNR, and a matched-filter receiver.

    The receiver is the matched filter on ``channel`` (assembled from
    ``paths`` when not given).
    """
    gains, gram_t, gram_r = _path_grams(paths, tx_geom, rx_geom)
    if channel is None:
        channel = assemble_channel(paths, tx_geom, rx_geom)
    snr, weights = kernel(gains, gram_t, gram_r)
    tx = _beam(steering_matrix(tx_geom, [p.aod for p in paths]), weights)
    return _as_pair(channel, tx, snr[0])


def _optimal_snr(
    gains: np.ndarray, gram_t: np.ndarray, gram_r: np.ndarray, beam: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Optimal normalized SNR (B,) and, with ``beam``, the weights (B, L) of an optimal beam.

    With ``G_t = E diag(lam) E^H`` and ``S = E diag(sqrt(lam))``, ``V = P S^H``
    for a P with orthonormal columns, so ``H^H H`` is proportional to
    ``P (T^H G_r T) P^H`` with ``T = diag(gain) S``.  The optimum is the top
    eigenvalue of that Hermitian L x L core over L, and the optimal beam is
    ``P y = V E diag(lam^-1/2) y`` for its eigenvector y, in which the
    eigenvalues of G_t at most ``GRAM_RANK_FLOOR`` times the largest are left
    out.  Negative rounding residue of lam counts as 0, so a rank-deficient
    G_t (coincident paths, Nt < L) or core (cancelling paths) still yields a
    defined SNR and beam.  Without ``beam`` the weights are None and only
    the eigenvalues of the core are computed.
    """
    lam, basis = np.linalg.eigh(gram_t)
    root = np.sqrt(np.maximum(lam, 0.0))
    mapped = gains[:, :, None] * (basis * root[:, None, :])
    core = _herm(mapped) @ (gram_r @ mapped)
    snr = np.linalg.eigvalsh(core)[:, -1] / gains.shape[-1]
    if not beam:
        return snr, None
    kept = lam > GRAM_RANK_FLOOR * lam[:, -1:]
    top = np.linalg.eigh(core)[1][..., -1]
    scaled = np.divide(top, root, out=np.zeros_like(top), where=kept)
    return snr, (basis @ scaled[..., None])[..., 0]


def _matched_snr(
    gains: np.ndarray, gram_t: np.ndarray, gram_r: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """SNR ``y^H G_r y / L`` (B,) of unit-norm transmit beams ``V w``, matched-filter receiver."""
    y = gains * (gram_t @ weights[..., None])[..., 0]
    power = np.sum(np.conj(y) * (gram_r @ y[..., None])[..., 0], axis=-1).real
    return power / gains.shape[-1]


def _dominant_weights(gains: np.ndarray) -> np.ndarray:
    """One-hot weights (B, L) of each channel's strongest path; ties go to the lowest index."""
    return np.eye(gains.shape[-1])[np.argmax(np.abs(gains), axis=-1)]


def _dominant_snr(
    gains: np.ndarray, gram_t: np.ndarray, gram_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SNR (B,) and weights (B, L) of steering at the strongest path, matched-filter receiver."""
    weights = _dominant_weights(gains)
    return _matched_snr(gains, gram_t, gram_r, weights), weights


def _bidirectional_snr(
    gains: np.ndarray, gram_t: np.ndarray, gram_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SNR (B,) and weights (B, L) of steering both ends at the strongest path k.

    ``u_k^H H v_k = c * sum_l gain_l G_r[k, l] G_t[l, k]``; the receive beam
    has the same weights on the receive steering vectors.
    """
    weights = _dominant_weights(gains)
    tx_couplings = (gram_t @ weights[..., None])[..., 0]
    rx_couplings = (weights[:, None, :] @ gram_r)[:, 0]
    amp = np.sum(gains * rx_couplings * tx_couplings, axis=-1)
    return (amp.real**2 + amp.imag**2) / gains.shape[-1], weights


def _equal_power_snr(
    gains: np.ndarray, gram_t: np.ndarray, gram_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SNR (B,) and weights (B, 2) of the best equal split of an L=2 channel.

    The beam is ``f = v_0 + exp(1j theta) v_1`` normalized.  ``||H f||^2 /
    ||f||^2`` is the ratio ``(a0 + a1 cos + a2 sin) / (2 + b1 cos + b2 sin)``
    of two quadratic forms in ``(1, exp(1j theta))``, with matrices
    ``G_t^H M G_t`` (``M = diag(conj(gain)) G_r diag(gain)``) and ``G_t``.  Its
    derivative vanishes where ``P sin + Q cos + R = 0`` with ``P = a0 b1 -
    2 a1``, ``Q = 2 a2 - a0 b2`` and ``R = a2 b1 - a1 b2``, at ``atan2(P, Q)
    +- arccos(-R / sqrt(P^2 + Q^2))`` (over 1 where ``P = Q = 0``, with the
    cosine clipped to [-1, 1]).  The maximum is the best of these two roots
    and ``theta = 0``: when the departure angles coincide, rounding can put
    both roots where the beam cancels, which the ``MIN_BEAM_NORM_SQ`` mask
    rules out.  The SNR is that of the normalized beam itself, with weights
    ``(1, exp(1j theta)) / ||f||``, not the ratio's value, which rounds badly
    where ``||f||`` nearly vanishes.
    """
    mapped = gains[:, :, None] * gram_t  # U^H H V / c
    quad = _herm(mapped) @ (gram_r @ mapped)
    cross_num = quad[:, 0, 1, None]
    a0 = quad[:, 0, 0, None].real + quad[:, 1, 1, None].real
    cross_den = gram_t[:, 0, 1, None]

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
    best = np.argmax(values, axis=-1)[:, None]
    theta = np.take_along_axis(theta, best, axis=-1)
    norm = np.sqrt(np.take_along_axis(den, best, axis=-1))
    weights = np.concatenate([np.ones_like(theta), np.exp(1j * theta)], axis=-1) / norm
    return _matched_snr(gains, gram_t, gram_r, weights), weights


def reduced_optimal_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None = None,
) -> BeamformerPair:
    """Best pair via the Hermitian L x L core of Proposition 1.

    Every eigenvector of ``H^H H`` with a nonzero eigenvalue is a combination
    of the transmit steering vectors, so the search collapses to L
    dimensions.  The core is built from the path gains and the Grams of the
    steering vectors alone (see :func:`_optimal_snr`): its top eigenvalue
    over L is the normalized SNR, and its eigenvector gives the transmit
    vector as a combination of the steering vectors.  A rank-deficient core
    (coincident or cancelling paths) still yields a defined vector.  The
    receive vector is the matched filter on ``channel`` (assembled from
    ``paths`` when not given).
    """
    return _matched_pair(
        functools.partial(_optimal_snr, beam=True), paths, tx_geom, rx_geom, channel
    )


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
    return _matched_pair(_dominant_snr, paths, tx_geom, rx_geom, channel)


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
    gains, gram_t, gram_r = _path_grams(paths, tx_geom, rx_geom)
    snr, weights = _bidirectional_snr(gains, gram_t, gram_r)
    tx = _beam(steering_matrix(tx_geom, [p.aod for p in paths]), weights)
    rx = _beam(steering_matrix(rx_geom, [p.aoa for p in paths]), weights)
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
    return _matched_pair(_equal_power_snr, paths, tx_geom, rx_geom, channel)
