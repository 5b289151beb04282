"""Transmit/receive beamformer constructions and received-SNR evaluation.

Two independent routes compute the optimal pair.  The dense oracle takes
the top right singular vector of ``H``.  The reduced route uses the path
structure: every eigenvector of ``H^H H`` with a nonzero eigenvalue is a
combination of the transmit steering vectors, so the search collapses from
Nt to L dimensions: a Hermitian L x L eigenproblem, set up through a pivoted
Cholesky factor of the transmit Gram.  Its top eigenvector, mapped through
the channel, weights each path by its conjugate gain times the receive
beam's response on it: beam steering across the paths with per-path power
allocation and phase compensation.  The low-complexity schemes
(dominant-path, bi-directional, equal-power) are provided for benchmarking
the loss against the optimum.

The reduced route and the schemes evaluate their SNR in stacked kernels
over a leading batch axis (``gains (B, L)`` and the Gram matrices ``(B, L,
L)`` of the transmit and receive steering vectors, which
:func:`mmwbeam.steering.gram_stack` gives in closed form), so neither ``H``
nor any N-length vector is formed: a kernel's cost does not depend on Nt or
Nr.  The Monte Carlo engine calls them on a chunk of trials from L = 2 on
(at L = 1 every loss is 0 dB, see ``montecarlo._trial_losses``); the
per-channel functions here are calls with B = 1, and give the same bits.
Which route a kernel takes depends on L:

* L = 2, the paper's two-path case: the Grams hold one coupling each,
  ``rho_t = G_t[0, 1]`` and ``rho_r = G_r[0, 1]``, and the two-path kernels
  (:func:`_two_path_optimal` and the schemes') take the gains and those two
  couplings alone.  Each writes out its 2 x 2 products entry by entry, with
  the products by the Grams' ones and zeros left out, and forms no matrix
  and calls no LAPACK or BLAS routine; the kernels on Grams read the
  couplings and hand them on.  Only the optimum's beam builds its
  matrices.
* L = 3 and 4: the Hermitian forms (the optimum's core and the SNR of a
  matched receiver) are written entry by entry over the stack
  (:func:`_hermitian_form`): numpy's stacked ``@`` dispatches to BLAS once
  per 3 x 3 or 4 x 4 matrix, and that dispatch, not the arithmetic, would
  be most of their cost.  The optimum's Gram factor is one LAPACK call on
  the whole stack (:func:`_gram_factor`), and its core's top eigenvalue at
  L = 3 Smith's trigonometric formula, with ``eigvalsh`` only where the
  core's top two eigenvalues nearly coincide (:func:`_top_eigenvalues`).
* L = 1 and L >= 5: the forms are stacked ``@`` products, and the
  factor and the top eigenvalue LAPACK's, as at L = 4; on a 1 x 1 Gram
  and core they are exactly ``[[1]]`` and the core's entry.

At every L the one-hot beams (dominant-path and bi-directional) read the
strongest path's Gram column by index instead of multiplying by their
weights.  Each per-channel function reads its pair from the paths alone:
both beams are combinations of the steering vectors (see :func:`_pair`),
and no channel is assembled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .channel import ChannelMatrix, PathComponent, _path_arrays
from .steering import ArrayGeometry, gram_stack, steering_stack

__all__ = [
    "BeamformerPair",
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
# could overflow, so the beam is taken to miss the channel (see _pair).
MIN_RESPONSE_NORM = 1e-300

# The entry that fixes a beam's phase is the first whose magnitude exceeds this
# fraction of the largest: the phase of an entry at rounding level is noise, so
# rotating by it would make the returned beam's phase depend on rounding.
PHASE_REFERENCE_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class BeamformerPair:
    """Unit-norm transmit/receive vectors and the normalized SNR they achieve.

    ``normalized_snr`` is the received SNR divided by ``Nt * Nr * rho``,
    i.e. ``|rx^H H tx|^2 / (Nt * Nr)`` for unit-norm vectors.
    """

    tx: np.ndarray
    rx: np.ndarray
    normalized_snr: float


def _phase_turn(vec: np.ndarray) -> np.ndarray:
    """Unit factors (B,) turning the first significant entry of each vector (B, N) real >= 0."""
    mags = np.abs(vec)
    idx = np.argmax(mags > PHASE_REFERENCE_FLOOR * mags.max(axis=-1, keepdims=True), axis=-1)
    return np.exp(-1j * np.angle(vec[np.arange(len(vec)), idx]))


def _frozen_pair(tx: np.ndarray, rx: np.ndarray, snr: float) -> BeamformerPair:
    """A pair of read-only beams."""
    for beam in (tx, rx):
        beam.setflags(write=False)
    return BeamformerPair(tx=tx, rx=rx, normalized_snr=float(snr))


def _loss_db(optimal: float, achieved: float = 1.0) -> float:
    """SNR loss ``10*log10(optimal / achieved)`` in dB, +inf unless the ratio is finite and > 0.

    ``achieved <= 0`` counts as an infinite ratio.  A ratio of 0 or below (an
    optimum of 0, or rounded below 0, over a positive SNR: both are then
    rounding residue of a vanishing channel) has no logarithm and reads
    +inf, as do a NaN and an overflowing ratio: a loss with no finite value
    is +inf.  The scalar ``math.log10`` is used on purpose: numpy's
    vectorised ``log10`` may round differently.  :func:`_losses_db` applies
    this rule to a stack of pairs.
    """
    ratio = optimal / achieved if achieved > 0.0 else math.inf
    return 10.0 * math.log10(ratio) if 0.0 < ratio < math.inf else math.inf


def _losses_db(optimal: np.ndarray, achieved: np.ndarray) -> np.ndarray:
    """:func:`_loss_db` of each pair of SNRs (B,), bit for bit, in one pass over the stack.

    One division gives the ratios, the scalar ``math.log10`` maps the finite
    positive ones in one Python pass and one numpy product scales them by
    10: a division and a product round the same in numpy as in Python.
    """
    with np.errstate(over="ignore"):
        ratios = np.divide(optimal, achieved, out=np.full(len(optimal), math.inf),
                           where=achieved > 0.0)
    valid = (ratios > 0.0) & (ratios < math.inf)
    logs = map(math.log10, np.where(valid, ratios, 1.0).tolist())
    return np.where(valid, 10.0 * np.fromiter(logs, float, len(ratios)), math.inf)


def received_snr(channel: ChannelMatrix, tx: np.ndarray, rx: np.ndarray) -> float:
    """Normalized received SNR ``|rx^H H tx|^2 / (||rx||^2 * Nt * Nr)`` of a beam pair.

    ``tx`` must satisfy the energy constraint ``||tx|| <= 1``; ``rx`` may
    have any nonzero norm (the quotient removes it).  Both must be finite.
    """
    tx = _finite_beam(tx, "tx")
    rx = _finite_beam(rx, "rx")
    if tx.shape != (channel.num_tx,):
        raise ValueError(f"tx has shape {tx.shape}, expected ({channel.num_tx},)")
    if rx.shape != (channel.num_rx,):
        raise ValueError(f"rx has shape {rx.shape}, expected ({channel.num_rx},)")
    tx_norm = float(np.linalg.norm(tx))
    if tx_norm > 1.0 + 1e-9:
        raise ValueError(f"||tx|| = {tx_norm} violates the unit energy constraint")
    rx_power = float(np.real(np.vdot(rx, rx)))
    if rx_power <= 0.0:
        raise ValueError("rx must be nonzero")
    amp = np.vdot(rx, channel.entries @ tx)
    return float(abs(amp) ** 2) / rx_power / (channel.num_tx * channel.num_rx)


def matched_filter(channel: ChannelMatrix, tx: np.ndarray) -> np.ndarray:
    """Unit-norm receive vector ``H tx / ||H tx||`` for a given finite beam."""
    return _matched(channel.entries[None], _finite_beam(tx, "tx")[None])[0][0]


def _finite_beam(beam, name: str) -> np.ndarray:
    """``beam`` as a complex array; a NaN or infinite entry raises ``ValueError``."""
    beam = np.asarray(beam, dtype=complex)
    if not np.isfinite(beam).all():
        raise ValueError(f"{name} has a non-finite entry")
    return beam


def _norms(vecs: np.ndarray) -> np.ndarray:
    """Norms (B,) of complex vectors (B, N), each with the bits of its row alone.

    The norm is that of ``np.linalg.norm``, ``sqrt(re . re + im . im)``, with
    the dot products taken by stacked products, which call the same BLAS
    routine per row.
    """
    re, im = vecs.real, vecs.imag
    return np.sqrt((re[:, None, :] @ re[..., None] + im[:, None, :] @ im[..., None])[:, 0, 0])


def _matched(entries: np.ndarray, tx: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Matched filters (B, Nr) to complex beams (B, Nt) on channels (B, Nr, Nt), and their SNRs.

    The SNR is the normalized ``||H tx||^2 / (Nt * Nr)``, with the norm of
    :func:`_norms`: each row has the bits of its channel alone.
    """
    w = (entries @ tx[..., None])[..., 0]
    norms = _norms(w)
    if np.any(norms < MIN_RESPONSE_NORM):
        raise ValueError("H @ tx is numerically zero; degenerate channel or beam")
    size = entries.shape[-2] * entries.shape[-1]
    return w / norms[:, None], [norm**2 / size for norm in norms.tolist()]


def optimal_beamformer(channel: ChannelMatrix) -> BeamformerPair:
    """Best unit-norm pair from the dense SVD of ``H``.

    The transmit vector is the top right singular vector of ``H`` (a vector
    of the top singular subspace when the top singular value is repeated);
    the receive vector is its matched filter.  This route ignores the path
    structure, so it is the oracle for :func:`reduced_optimal_beamformer`.
    It is :func:`_dense_optimal` on one channel: a zero ``H`` gives SNR 0.
    """
    tx, rx, snr = _dense_optimal(channel.entries[None])
    return _frozen_pair(tx[0], rx[0], snr[0])


def _dense_optimal(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """:func:`optimal_beamformer` of each channel (B, Nr, Nt): beams (B, Nt), (B, Nr) and SNRs.

    LAPACK and BLAS run on each matrix of a stack alone, so each row has the
    bits of its channel's own pair.  An exactly zero channel has no matched
    filter: its SNR is 0 and its beams are the SVD's first singular vectors,
    turned by the one phase factor of the transmit beam.
    """
    left, _, right = np.linalg.svd(entries, full_matrices=False)
    tx = right[:, 0].conj()
    turn = _phase_turn(tx)[:, None]
    tx *= turn
    rx, snr = left[:, :, 0] * turn, np.zeros(len(entries))
    live = np.any(entries, axis=(-2, -1))
    if live.any():
        rx[live], snr[live] = _matched(entries[live], tx[live])
    return tx, rx, snr.tolist()


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

# A pivot of the factor of G_t at or below this gives a zero column.  G_t has a
# unit diagonal, so what remains of it after each step is known only to about
# eps: a pivot at that level is rounding residue, and its root would amplify it.
PIVOT_FLOOR = float(np.finfo(float).eps)


def _herm(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(stack, -1, -2))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products (J, K, B) of matrices a (J, L, B) and b (L, K, B) stacked along the last axis.

    Each entry ``a[j, 0] b[0, k] + a[j, 1] b[1, k] + ...``, summed left to
    right, is elementwise over the stack, so a stack keeps the bits of its
    rows; with the batch axis last and of unit stride, each operation runs
    over whole rows.
    """
    out = a[:, :1] * b[:1]
    for k in range(1, a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1]
    return out


def _hermitian_form(gains: np.ndarray, factor: np.ndarray, gram_r: np.ndarray) -> np.ndarray:
    """Hermitian forms ``M^H G_r M`` (B, K, K) of ``M = diag(gain) Y``, factors Y (B, L, K).

    At L = 3 and 4 both products are :func:`_product`'s, entry by entry, on
    M laid out with the batch axis last: a stacked ``@`` dispatches to BLAS
    once per matrix, about 0.25 us each, so on 3 x 3 and 4 x 4 matrices it
    costs more than the arithmetic of the whole stack.  Each entry then
    has the bits of its own channel's form, but not those of ``@``, whose
    BLAS kernel rounds its sums in another order.  At other L the form is
    the stacked product: at L = 1 and L >= 5 entry by entry is slower, and
    the two-path kernels never form the L = 2 matrices.  Y is the
    optimum's Gram factor or ``G_t w`` (K = 1) for a matched receiver.
    """
    if gains.shape[-1] not in (3, 4):
        mapped = gains[:, :, None] * factor
        return _herm(mapped) @ (gram_r @ mapped)
    mapped = np.multiply(gains.T[:, None], factor.transpose(1, 2, 0), order="C")
    rx = np.ascontiguousarray(gram_r.transpose(1, 2, 0))
    return _product(np.conj(mapped).transpose(1, 0, 2), _product(rx, mapped)).transpose(2, 0, 1)


def _unit_scaled(gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex gains (B, L) scaled by the power of two that takes each row's peak into [0.5, 1).

    Also returns the exponents (B,) of those powers.  The real and imaginary
    parts are scaled by ``ldexp``: past a subnormal peak the power itself
    would be beyond the float range.
    """
    shift = -np.frexp(np.abs(gains).max(axis=-1))[1]
    return np.ldexp(gains.view(float), shift[:, None]).view(complex), shift


def _unscaled(value: float, shift: int) -> float:
    """``value * 2**-shift``: a value of terms scaled by ``2**shift``, scaled back.

    A value beyond the float range reads as infinite.
    """
    try:
        return math.ldexp(value, -shift)
    except OverflowError:
        return math.copysign(math.inf, value)


def _pair(
    kernel,
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    steer_rx: bool = False,
) -> BeamformerPair:
    """The pair of a kernel on one path list, read from the paths alone.

    The kernel runs on the gains scaled exactly by :func:`_unit_scaled`, so
    its weights w keep their direction at huge and tiny gains; its SNR,
    which is of degree two in the gains, is scaled back (beyond the float
    range it reads infinite).  ``tx = V w / ||V w||``, and on ``H = c U
    diag(gain) V^H`` the matched filter to it is ``rx = U y / ||U y||`` with
    ``y = gain * (G_t w)`` on the same scaled gains; ``steer_rx`` takes
    ``y = w`` instead.
    Where ``||U y|| <= MIN_RESPONSE_NORM`` (paths that cancel) ``rx`` is the
    strongest path's steering vector.  One phase factor turns both beams so
    that the first significant entry of ``tx`` is real nonnegative.
    """
    gains, freq_t, freq_r = _path_arrays(paths)
    gram_t, gram_r = gram_stack(tx_geom, freq_t)[None], gram_stack(rx_geom, freq_r)[None]
    scaled, shift = _unit_scaled(gains[None])
    snr, weights = kernel(scaled, gram_t, gram_r)
    tx = steering_stack(tx_geom, freq_t) @ weights[0]
    tx /= np.linalg.norm(tx)
    y = weights[0] if steer_rx else scaled[0] * (gram_t[0] @ weights[0])
    steer = steering_stack(rx_geom, freq_r)
    rx = steer @ y
    norm = np.linalg.norm(rx)
    rx = rx / norm if norm > MIN_RESPONSE_NORM else steer[:, np.argmax(np.abs(gains))]
    turn = _phase_turn(tx[None])[0]
    return _frozen_pair(tx * turn, rx * turn, _unscaled(float(snr[0]), 2 * int(shift[0])))


def _gram_factor(gram_t: np.ndarray) -> np.ndarray:
    """A Cholesky factor F (B, L, L) of each transmit Gram, ``G_t = F F^H``.

    F is LAPACK's (zpotrf), from one call on the whole stack through the
    gufunc behind ``np.linalg.cholesky``: it factors each matrix alone, so a
    row has the bits of ``np.linalg.cholesky`` on its own Gram (at L = 1
    ``[[1]]`` itself), and a Gram that zpotrf refuses (a pivot not
    positive: coincident departures, Nt < L) comes back all NaN instead of
    raising for the stack.  Those rows, and only those, take the pivoted
    factor of :func:`_pivoted_factor`.  The two-path kernels write their
    factor out (see :func:`_two_path_optimal`).
    """
    # a refusal raises the invalid flag; np.linalg.cholesky ignores the others too
    with np.errstate(all="ignore"):
        factor = _umath_linalg.cholesky_lo(gram_t, signature="D->D")
    refused = np.flatnonzero(np.isnan(factor[:, 0, 0].real))
    if refused.size:
        factor[refused] = _pivoted_factor(gram_t[refused])
    return factor


def _pivoted_factor(gram_t: np.ndarray) -> np.ndarray:
    """Pivoted semidefinite Cholesky factor F (B, L, L) of ``G_t = F F^H``, for L >= 3.

    Step k takes the largest remaining diagonal, so F is lower triangular in
    pivot order.  A pivot at most ``PIVOT_FLOOR`` gives a zero column, as
    does every later one: a singular G_t (coincident departures, Nt < L) has
    a backward-stable factor (Higham 1990).  Row 0 is the first pivot (the
    diagonal is 1).  Each operation is elementwise over the stack, so a row
    has the bits of its own Gram's factor.
    """
    batch, size = gram_t.shape[:2]
    rows = np.arange(batch)
    factor = np.zeros((batch, size, size), dtype=complex)
    first = factor[:, :, 0] = gram_t[:, :, 0]
    # a taken pivot keeps a zero row (for row 0 exactly: G_t[0, k] - conj(G_t[k, 0]))
    # and a diagonal of -inf, so no later step reads it
    schur = gram_t - first[:, :, None] * np.conj(first[:, None, :])
    schur[:, 0, 0] = -np.inf
    for k in range(1, size):
        diag = schur.diagonal(0, 1, 2).real
        pivot = diag.argmax(axis=-1)
        top = diag[rows, pivot]
        scale = np.where(top > PIVOT_FLOOR, top, np.inf) ** -0.5
        col = schur[rows, :, pivot] * scale[:, None]
        # the real root itself: the diagonal's imaginary part is rounding residue
        col[rows, pivot] = top * scale
        factor[:, :, k] = col
        if k + 1 < size:
            schur -= col[:, :, None] * col[:, None, :].conj()
            schur[rows, pivot] = 0.0
            schur[rows, pivot, pivot] = -np.inf
    return factor


# Smith's closed form reads a 3 x 3 core's top eigenvalue to a few eps, except where its
# top two eigenvalues nearly coincide: there r = det(B)/2 nears -1 and the error grows
# like eps / sqrt(1 + r).  Rows with 1 + r below this go to eigvalsh; on cores with top
# gaps down to 1e-14 the rest stay within 6e-15 of the spectral radius, where the formula
# alone errs by up to 2e-8.
NEAR_DOUBLE_TOP = 1e-3

# The spread p of a scaled core below which B = (A - qI) / p is formed with this in
# place of p: the squares that give p underflow below it, and the top eigenvalue is q
# to within 2p, far below rounding, whatever B reads.
SPREAD_FLOOR = 1e-150


def _top_eigenvalues(core: np.ndarray) -> np.ndarray:
    """Top eigenvalues (B,) of Hermitian cores (B, L, L), L != 2.

    ``eigvalsh``'s at every L but 3 (the two-path kernels take the L = 2 one
    in closed form, see :func:`_two_path_optimal`); at L = 1 that is the
    core's real entry, bit for bit, which zheevd returns as it is.  At L = 3
    Smith's trigonometric formula ``q + 2p cos(acos(r)/3)`` (Kopp,
    arXiv:physics/0610206), with ``q = tr(A)/3``, ``p^2 = ||A - qI||_F^2 /
    6`` and ``r = det(B)/2`` for ``B = (A - qI)/p``, is taken on the core's
    lower triangle (the one ``eigvalsh`` reads) scaled by the power of two
    that puts its largest diagonal entry in [0.5, 1): the squares in p
    neither under- nor overflow, and forming B before its determinant keeps
    ``p^3`` out.
    The rows where ``1 + r < NEAR_DOUBLE_TOP`` (or is NaN) are read from
    ``eigvalsh`` instead, which is then called on those rows alone.
    """
    if core.shape[-1] != 3:
        return np.linalg.eigvalsh(core)[:, -1]
    # the entries (6, B), batch last: A00, A11, A22, then A10, A20, A21, the lower triangle
    entries = core.transpose(1, 2, 0)[(0, 1, 2, 1, 2, 2), (0, 1, 2, 0, 0, 1)]
    shift = -np.frexp(entries[:3].real.max(axis=0))[1]
    parts = np.ldexp(entries.view(float).reshape(6, -1, 2), shift[:, None])
    diag, lower = parts[:3, :, 0], parts[3:].reshape(3, -1).view(complex)
    q = diag.sum(axis=0) / 3.0
    centred = diag - q
    squares = lower.real**2 + lower.imag**2
    p = np.sqrt(((centred**2).sum(axis=0) + 2.0 * squares.sum(axis=0)) / 6.0)
    inv = 1.0 / np.maximum(p, SPREAD_FLOOR)
    b, (x, y, z) = centred * inv, lower * inv
    # det of [[b0, x*, y*], [x, b1, z*], [y, z, b2]]
    det = (b.prod(axis=0) + 2.0 * (x * z * np.conj(y)).real
           - (b[::-1] * squares).sum(axis=0) * (inv * inv))
    r = np.maximum(np.minimum(0.5 * det, 1.0), -1.0)
    top = np.ldexp(q + 2.0 * p * np.cos(np.arccos(r) / 3.0), -shift)
    flagged = np.flatnonzero(~(1.0 + r >= NEAR_DOUBLE_TOP))
    if flagged.size:
        top[flagged] = np.linalg.eigvalsh(core[flagged])[:, -1]
    return top


def _optimal_snr(
    gains: np.ndarray, gram_t: np.ndarray, gram_r: np.ndarray, beam: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Optimal normalized SNR (B,) and, with ``beam``, the weights (B, L) of an optimal beam.

    With ``G_t = F F^H`` (:func:`_gram_factor`), ``V = P F^H`` for a P with
    orthonormal columns, so ``H^H H`` is proportional to ``P C P^H`` with the
    core ``C = T^H G_r T``, ``T = diag(gain) F`` (:func:`_hermitian_form`,
    entry by entry at L = 3 and 4, where a stacked ``@`` would spend its
    time dispatching BLAS per matrix).  The optimum is C's top eigenvalue
    over L for any factor (:func:`_top_eigenvalues`), so F may be LAPACK's
    unpivoted factor, one zpotrf call on the stack, and the pivoted one
    only where zpotrf refuses a Gram.  The eigenvalue is in closed form at
    L = 3, with ``eigvalsh`` only on the cores whose top two eigenvalues
    nearly coincide, and from ``eigvalsh`` at every other L.  At L = 2
    the Grams' couplings go to :func:`_two_path_optimal`, which forms no
    matrix.  The beam is :func:`_optimal_weights`'.  The kernel does not
    scale the gains: :func:`_pair` passes them scaled by
    :func:`_unit_scaled`, which keeps the core, w and its power from under-
    or overflowing.  Without ``beam`` the weights are None.
    """
    if gains.shape[-1] == 2:
        return _two_path_optimal(gains, gram_t[:, 0, 1], gram_r[:, 0, 1], beam)
    factor = _gram_factor(gram_t)
    core = _hermitian_form(gains, factor, gram_r)
    snr = _top_eigenvalues(core) / gains.shape[-1]
    if not beam:
        return snr, None
    return snr, _optimal_weights(gains, gram_t, gram_r, factor, core)


def _optimal_weights(gains, gram_t, gram_r, factor, core) -> np.ndarray:
    """Weights (B, L) of an optimal beam, from a factor F of ``G_t`` and the core C it gives.

    For C's top eigenvector y, ``C y = lambda y`` gives ``H^H H V w``
    proportional to ``lambda V w`` with ``w = diag(conj(gain)) G_r T y``: the
    paper's beam, each path weighted by its conjugate gain times the receive
    beam's response on it, normalized by ``sqrt(w^H G_t w)``.  A zero core
    (cancelling paths) gives w = 0, and the strongest path's weights instead.
    """
    vec = np.linalg.eigh(core)[1][..., -1:]
    weights = np.conj(gains) * (gram_r @ (gains[:, :, None] * factor) @ vec)[..., 0]
    power = np.sum(np.conj(weights) * (gram_t @ weights[..., None])[..., 0], axis=-1).real
    live = power > 0.0
    weights[~live] = np.eye(gains.shape[-1])[_strongest(gains[~live])]
    return weights / np.sqrt(np.where(live, power, 1.0))[:, None]


def _matched_snr(gains: np.ndarray, couplings: np.ndarray, gram_r: np.ndarray) -> np.ndarray:
    """SNR ``y^H G_r y / L`` (B,) of unit-norm transmit beams ``V w``, matched-filter receiver.

    ``couplings`` (B, L, 1) is ``G_t w``, and ``y = gain * (G_t w)``: the
    1 x 1 form of :func:`_hermitian_form` with ``Y = G_t w``.
    """
    form = _hermitian_form(gains, couplings, gram_r)
    return form[:, 0, 0].real / gains.shape[-1]


def _strongest(gains: np.ndarray) -> np.ndarray:
    """Index (B,) of each channel's strongest path; ties go to the lowest index."""
    return np.argmax(np.abs(gains), axis=-1)


def _dominant_snr(
    gains: np.ndarray, gram_t: np.ndarray, gram_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SNR (B,) and weights (B, L) of steering at the strongest path k, matched-filter receiver.

    ``G_t w`` of the one-hot w is column k of ``G_t``, read by index: a
    stacked ``@`` would dispatch BLAS once per matrix to add exact zeros.
    At L = 2 the Grams' couplings go to :func:`_two_path_dominant`.
    """
    if gains.shape[-1] == 2:
        return _two_path_dominant(gains, gram_t[:, 0, 1], gram_r[:, 0, 1])
    strongest = _strongest(gains)
    couplings = gram_t[np.arange(len(gains)), :, strongest, None]
    return _matched_snr(gains, couplings, gram_r), np.eye(gains.shape[-1])[strongest]


def _bidirectional_snr(
    gains: np.ndarray, gram_t: np.ndarray, gram_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SNR (B,) and weights (B, L) of steering both ends at the strongest path k.

    ``u_k^H H v_k = c * sum_l gain_l G_r[k, l] G_t[l, k]``, with row k of
    ``G_r`` and column k of ``G_t`` read by index (see :func:`_dominant_snr`);
    the receive beam has the same weights on the receive steering vectors.
    At L = 2 the Grams' couplings go to :func:`_two_path_bidirectional`.
    """
    if gains.shape[-1] == 2:
        return _two_path_bidirectional(gains, gram_t[:, 0, 1], gram_r[:, 0, 1])
    strongest = _strongest(gains)
    rows = np.arange(len(gains))
    amp = np.sum(gains * gram_r[rows, strongest] * gram_t[rows, :, strongest], axis=-1)
    return (amp.real**2 + amp.imag**2) / gains.shape[-1], np.eye(gains.shape[-1])[strongest]


def _equal_power_snr(
    gains: np.ndarray, gram_t: np.ndarray, gram_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_two_path_equal_power` on the couplings of two-path Grams (B, 2, 2)."""
    return _two_path_equal_power(gains, gram_t[:, 0, 1], gram_r[:, 0, 1])


# Two-path kernels.  At L = 2 the Grams hold one coupling each, rho_t = G_t[0, 1] =
# v_0^H v_1 and rho_r = G_r[0, 1] = u_0^H u_1 (mmwbeam.steering._couplings), and each
# kernel takes gains (B, 2) and rho_t, rho_r (B,).  Each writes out, entry by entry, the
# 2 x 2 products on G_t = [[1, rho_t], [conj(rho_t), 1]] and G_r, in their order and
# operand order (a complex product may fuse a multiply-add, so a * b and b * a can
# differ), leaving out only the exact products with the Grams' and the factor's ones
# and zeros: every SNR has the bits of those products (tests/test_beamformer.py keeps
# them as the oracle), and no 2 x 2 array, LAPACK or BLAS call is made.  Only the
# optimum's beam builds its matrices.


def _matrices(*entries) -> np.ndarray:
    """2 x 2 matrices (B, 2, 2) of four entries (B,) or scalars, row by row."""
    return np.stack(np.broadcast_arrays(*entries), axis=-1).reshape(-1, 2, 2)


def _two_path_optimal(
    gains: np.ndarray, rho_t: np.ndarray, rho_r: np.ndarray, beam: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`_optimal_snr` of two-path channels, from their couplings.

    The factor of ``G_t`` is ``F = [[1, 0], [conj(rho_t), s]]``, ``s =
    sqrt(1 - |rho_t|^2)``, with a remainder at most ``PIVOT_FLOOR`` giving
    ``s = 0``: no division.  So ``T = diag(gain) F`` has the rows ``(g0,
    0)`` and ``(g1 conj(rho_t), g1 s)``, and the core ``C = T^H G_r T`` has
    the top eigenvalue ``(C00 + C11)/2 + hypot((C00 - C11)/2, |C01|)``.
    With ``beam`` the matrices F, C and both Grams are built for the
    weights of :func:`_optimal_weights`, which runs LAPACK and BLAS on them.
    """
    g0, g1 = gains[:, 0], gains[:, 1]
    rest = 1.0 - (rho_t.real**2 + rho_t.imag**2)
    root = np.sqrt(np.where(rest > PIVOT_FLOOR, rest, 0.0))
    t10, t11 = g1 * np.conj(rho_t), g1 * root
    # row 0 of T^H, and column 0 of G_r T; its column 1 is (rho_r t11, t11)
    h00, h01 = np.conj(g0), np.conj(t10)
    r00, r10 = g0 + rho_r * t10, np.conj(rho_r) * g0 + t10
    c00 = h00 * r00 + h01 * r10
    c01 = h00 * (rho_r * t11) + h01 * t11
    c11 = np.conj(t11) * t11
    snr = (0.5 * (c00.real + c11.real) + np.hypot(0.5 * (c00.real - c11.real), np.abs(c01))) / 2
    if not beam:
        return snr, None
    factor = _matrices(1.0, 0.0, np.conj(rho_t), root)
    core = _matrices(c00, c01, np.conj(t11) * r10, c11)
    grams = (_matrices(1.0, rho, np.conj(rho), 1.0) for rho in (rho_t, rho_r))
    return snr, _optimal_weights(gains, *grams, factor, core)


def _two_path_matched(y0: np.ndarray, y1: np.ndarray, rho_r: np.ndarray) -> np.ndarray:
    """:func:`_matched_snr` ``y^H G_r y / 2`` (B,) of ``y = gain * (G_t w)`` = (y0, y1)."""
    form = np.conj(y0) * (y0 + rho_r * y1) + np.conj(y1) * (np.conj(rho_r) * y0 + y1)
    return form.real / 2


def _two_path_dominant(
    gains: np.ndarray, rho_t: np.ndarray, rho_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_dominant_snr` of two-path channels: column k of ``G_t`` is (1, conj(rho_t)) or
    (rho_t, 1)."""
    strongest = _strongest(gains)
    second = strongest == 1
    g0, g1 = gains[:, 0], gains[:, 1]
    y0 = np.where(second, g0 * rho_t, g0)
    y1 = np.where(second, g1, g1 * np.conj(rho_t))
    return _two_path_matched(y0, y1, rho_r), np.eye(2)[strongest]


def _two_path_bidirectional(
    gains: np.ndarray, rho_t: np.ndarray, rho_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_bidirectional_snr` of two-path channels: the strongest gain plus the other's,
    carried by ``G_r[k, o] G_t[o, k]``."""
    strongest = _strongest(gains)
    g0, g1 = gains[:, 0], gains[:, 1]
    amp = np.where(strongest == 1, g0 * np.conj(rho_r) * rho_t + g1,
                   g0 + g1 * rho_r * np.conj(rho_t))
    return (amp.real**2 + amp.imag**2) / 2, np.eye(2)[strongest]


def _phase_peak(alpha, b, c, delta) -> tuple[np.ndarray, np.ndarray]:
    """Maximum over phi of ``(alpha + b cos(phi) + c sin(phi)) / (1 + delta cos(phi))``, and its phi.

    For ``0 <= delta < 1`` the ratio stays at most ``T`` exactly when
    ``hypot(b - T delta, c) <= T - alpha``, so its maximum is the larger root
    of ``g T^2 - 2 p T - (b^2 + c^2 - alpha^2) = 0``, ``g = (1 - delta)(1 +
    delta)``, ``p = alpha - b delta``, attained at ``phi = atan2(c, b - T
    delta)``.  The discriminant is ``D = q^2 + c^2 g``, ``q = b - alpha
    delta``, and ``sqrt(D) = |q| + c^2 g / (sqrt(D) + |q|)`` splits the root
    ``(p + sqrt(D)) / g`` into ``T = (alpha + s b) / (1 + s delta) + c^2 /
    (sqrt(D) + |q|)``, ``s = copysign(1, q)``, as ``p + s q = (alpha + s b)(1
    - s delta)``.  No term is a difference of nearly equal parts, whatever
    ``delta``; the ``c^2`` term is 0 where ``c = 0``.  At ``q = 0`` both
    signs give ``alpha``, so a sign that rounding flips moves ``T`` only by
    ``2 |q| / g``.  At ``delta = 1`` the result may be infinite or NaN.

    Rounding bound, with u = eps / 2, ``N = |alpha| + |b| + |c|``, and
    ``1 - delta >= g / 2``: ``|T| <= 2N / g`` and the ``c^2`` term is at most
    ``|c| / sqrt(g) <= N / g``.  The first term is off by ``3u`` relative, so
    by ``6u N / g``.  ``q`` is off by ``2u N``, ``sqrt(D)`` by ``2u N + 4u
    sqrt(D)`` and ``sqrt(D) + |q|`` by ``4u N + 5u (sqrt(D) + |q|)``; as
    ``(sqrt(D) + |q|)^2 >= c^2 g``, the ``c^2`` term is off by ``7u N / g + 4u
    N / g``.  A flipped sign adds ``4u N / g`` and the last sum ``2u N / g``:
    ``T`` is within ``23u N / g`` of the exact maximum.  A subnormal result
    rounds by at most half the smallest subnormal ``s`` for each of the
    fifteen operations, each carried into ``T`` by at most ``4 / g``.
    """
    q = b - alpha * delta
    sign = np.copysign(1.0, q)
    square = c * c
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(q * q + square * ((1.0 - delta) * (1.0 + delta))) + np.abs(q)
        peak = (alpha + sign * b) / (1.0 + sign * delta) + square / np.where(c == 0.0, 1.0, root)
        return peak, np.arctan2(c, b - peak * delta)


def _two_path_equal_power(
    gains: np.ndarray, rho_t: np.ndarray, rho_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SNR (B,) and weights (B, 2) of the best equal split of two-path channels.

    The beam is ``f = v_0 + exp(1j theta) v_1`` normalized.  ``||H f||^2 /
    ||f||^2`` is the ratio of two quadratic forms in ``(1, exp(1j theta))``,
    with matrices ``Q = G_t^H M G_t`` (``M = diag(conj(gain)) G_r
    diag(gain)``, written entry by entry on the couplings) and ``G_t``.
    With ``phi = theta + arg(rho_t)`` and ``k = Q[0, 1] exp(-1j
    arg(rho_t))`` it is ``(alpha + Re(k) cos(phi) - Im(k) sin(phi)) / (1 +
    |rho_t| cos(phi))``, ``alpha = (Q[0, 0] + Q[1, 1]) / 2``, whose
    maximizing phase is :func:`_phase_peak`'s.  The cross term is divided
    by ``alpha`` where ``alpha > 0``: the kernel does not scale its gains,
    so at tiny gains ``Im(k)^2`` would underflow and lose the phase.  Where
    the beam at that phase vanishes (``||f||^2 = 2 + 2 |rho_t| cos(phi) <=
    MIN_BEAM_NORM_SQ``: coincident departures, where rounding can put the
    peak where the beam cancels) ``phi = 0`` is taken, the phase of the
    largest norm.  The SNR is that of the normalized beam itself
    (:func:`_two_path_matched` on ``G_t w = (w0 + rho_t w1, conj(rho_t) w0 +
    w1)``), with weights ``(1, exp(1j theta)) / ||f||``, not the ratio's
    value, which rounds badly where ``||f||`` nearly vanishes.
    """
    g0, g1 = gains[:, 0], gains[:, 1]
    m01, m10 = g0 * rho_t, g1 * np.conj(rho_t)
    # R = G_r M for M = diag(gain) G_t, then Q = M^H R: its diagonal and Q[0, 1]
    h00, h01, rho_rc = np.conj(g0), np.conj(m10), np.conj(rho_r)
    r00, r01 = g0 + rho_r * m10, m01 + rho_r * g1
    r10, r11 = rho_rc * g0 + m10, rho_rc * m01 + g1
    q00 = h00 * r00 + h01 * r10
    q01 = h00 * r01 + h01 * r11
    q11 = np.conj(m01) * r01 + np.conj(g1) * r11
    delta, turn = np.abs(rho_t), np.angle(rho_t)
    alpha = 0.5 * (q00.real + q11.real)
    unit = np.where(alpha > 0.0, alpha, 1.0)
    cross = q01 * np.exp(-1j * turn) / unit
    phi = _phase_peak(alpha / unit, cross.real, -cross.imag, delta)[1]
    norm_sq = 2.0 + 2.0 * delta * np.cos(phi)
    live = norm_sq > MIN_BEAM_NORM_SQ
    theta = np.where(live, phi, 0.0) - turn
    norm = np.sqrt(np.where(live, norm_sq, 2.0 + 2.0 * delta))
    weights = np.empty((len(theta), 2), dtype=complex)
    weights[:, 0] = 1.0
    weights[:, 1] = np.exp(1j * theta)
    weights /= norm[:, None]
    w0, w1 = weights[:, 0], weights[:, 1]
    y0, y1 = g0 * (w0 + rho_t * w1), g1 * (np.conj(rho_t) * w0 + w1)
    return _two_path_matched(y0, y1, rho_r), weights


def reduced_optimal_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None = None,
) -> BeamformerPair:
    """Best pair via the Hermitian L x L core of Proposition 1.

    Every eigenvector of ``H^H H`` with a nonzero eigenvalue is a combination
    of the transmit steering vectors, so the search collapses to L
    dimensions: the core's top eigenvalue over L is the normalized SNR, and
    its top eigenvector, mapped through the channel, weights the steering
    vectors (see :func:`_optimal_snr`).  A singular Gram (coincident
    departures, Nt < L) or zero core (cancelling paths) still yields unit
    beams.  The receive beam is the matched filter, read from the paths (see
    :func:`_pair`); ``channel`` is accepted for the call signature shared by
    every scheme and is not read.
    """
    return _pair(functools.partial(_optimal_snr, beam=True), paths, tx_geom, rx_geom)


def dominant_path_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None = None,
) -> BeamformerPair:
    """Steer all transmit power along the strongest path.

    The transmit beam is the CPO steering vector of that path (analog
    phase shifters suffice); the receive vector is the matched filter, read
    from the paths (see :func:`_pair`).  ``channel`` is accepted for the
    call signature shared by every scheme and is not read.
    """
    return _pair(_dominant_snr, paths, tx_geom, rx_geom)


def bidirectional_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None = None,
) -> BeamformerPair:
    """Steer CPO beams at the strongest path on both ends of the link.

    Both beams are steering vectors of the paths.  ``channel`` is accepted
    for the call signature shared by every scheme and is not read.
    """
    return _pair(_bidirectional_snr, paths, tx_geom, rx_geom, steer_rx=True)


def equal_power_beamformer(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
    channel: ChannelMatrix | None = None,
) -> BeamformerPair:
    """Split transmit power equally between the two paths of an L=2 channel.

    The relative phase between the two steering vectors is the exact
    maximizer of the received SNR, in the closed form of the two-path ratio's
    maximum (see :func:`_equal_power_snr`).  The receive vector is the
    matched filter, read from the paths (see :func:`_pair`).  ``channel`` is
    accepted for the call signature shared by every scheme and is not read.
    """
    if len(paths) != 2:
        raise ValueError("equal-power beamforming is defined for exactly two paths")
    return _pair(_equal_power_snr, paths, tx_geom, rx_geom)
