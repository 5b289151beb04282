"""Uniform linear array steering vectors and their inner products.

A direction is an azimuth in the plane of the array, and the array sees it
through its spatial frequency ``cos(azimuth)`` alone.  A steering vector
here is always a constant-phase-offset (CPO) vector: unit-magnitude entries
with a linearly increasing phase, scaled to unit 2-norm.  The inner product
of two such vectors is the Dirichlet kernel of their frequency difference,
which is what makes "electrical orthogonality" between two directions a
simple predicate on their spatial frequencies.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayGeometry",
    "AngleSpec",
    "spatial_frequencies",
    "angle_frequencies",
    "steering_stack",
    "gram_stack",
    "steering_vector",
    "steering_matrix",
    "cpo_inner_product",
    "electrically_orthogonal",
    "mainlobe_freq_delta",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ArrayGeometry:
    """A uniform linear array along the X axis.

    Parameters
    ----------
    num_elements : int
        Number of antenna elements (>= 1).
    spacing_wavelengths : float
        Inter-element spacing d divided by the carrier wavelength, finite
        and > 0 (default 0.5, i.e. critical half-wavelength spacing).
    """

    num_elements: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self) -> None:
        n = self.num_elements
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"num_elements must be a positive integer, got {self.num_elements}")
        if not 0 < self.spacing_wavelengths < math.inf:
            raise ValueError(
                f"spacing_wavelengths must be finite and > 0, got {self.spacing_wavelengths}"
            )


@dataclass(frozen=True)
class AngleSpec:
    """Azimuth of a propagation path in the plane of the array, in [0, 2*pi)."""

    azimuth_rad: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.azimuth_rad < _TWO_PI:
            raise ValueError(f"azimuth_rad must lie in [0, 2*pi), got {self.azimuth_rad}")


def spatial_frequencies(azimuth_rad):
    """Elementwise spatial frequency ``cos(azimuth)`` over an array of azimuths (radians).

    The one definition of the spatial frequency: :func:`angle_frequencies`
    and the batched Monte Carlo engine both call it, so a direction maps to
    the same bits on every route.
    """
    return np.cos(azimuth_rad)


def steering_stack(geom: ArrayGeometry, freqs: np.ndarray) -> np.ndarray:
    """Steering vectors of spatial frequencies ``freqs`` (..., L) as a (..., N, L) stack.

    Entry m of column l is ``exp(1j * m * step) / sqrt(N)`` with ``step = 2 *
    pi * spacing_wavelengths * freqs[..., l]``.  Each entry depends on its
    own frequency only, so a stack of many channels holds the same bits as
    the stacks of its channels built one at a time.
    """
    n = geom.num_elements
    steps = _TWO_PI * geom.spacing_wavelengths * np.asarray(freqs, dtype=float)
    phases = np.arange(n)[:, None] * steps[..., None, :]
    return np.exp(1j * phases) / math.sqrt(n)


@functools.lru_cache(maxsize=16)
def _pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the entries above the diagonal of a square matrix."""
    rows, cols = np.triu_indices(size, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def gram_stack(geom: ArrayGeometry, freqs: np.ndarray) -> np.ndarray:
    """Gram matrices (..., L, L) of the steering vectors of spatial frequencies ``freqs`` (..., L).

    Entry ``[l, k]`` is ``v_l^H v_k``, the Dirichlet kernel of
    :func:`cpo_inner_product` at ``freqs[..., k] - freqs[..., l]``, evaluated
    by the same expression at the same reduced phase ``psi`` on arrays.
    Only the entries above the diagonal are evaluated; the diagonal is
    exactly 1 and the entries below are their conjugates, so each matrix is
    exactly Hermitian.  No N-length vector is formed.
    Against ``steering_stack(...)^H @ steering_stack(...)`` an entry differs
    by a few ``eps * (1 + N * |step|)``, the rounding of the phases the stack
    multiplies by up to N - 1.  Each entry depends on its own pair of
    frequencies only, so a stack of many channels holds the same bits as the
    Grams of its channels built one at a time.
    """
    return _grams(geom.num_elements, geom.spacing_wavelengths, freqs)


def _grams(n, spacing: float, freqs) -> np.ndarray:
    """:func:`gram_stack` at element count ``n``: an int, or integers (..., 1), one per matrix.

    Each entry is computed from its own count by the same operations, so a
    stack of arrays of several sizes holds the bits of each array's own Grams.
    The array functions used here round as the scalar ``math`` ones of
    :func:`cpo_inner_product` do, so each entry has the bits of that function.
    """
    freqs = np.asarray(freqs, dtype=float)
    size = freqs.shape[-1]
    rows, cols = _pairs(size)
    psi = math.pi * spacing * (freqs[..., cols] - freqs[..., rows])
    psi -= np.rint(psi / math.pi) * math.pi
    coincident = psi == 0.0
    den = n * np.sin(psi)
    den[coincident] = 1.0
    upper = np.exp(1j * (n - 1) * psi) * (np.sin(n * psi) / den)
    upper[coincident] = 1.0
    gram = np.empty(freqs.shape + (size,), dtype=complex)
    gram[..., rows, cols] = upper
    gram[..., cols, rows] = np.conj(upper)
    gram[..., range(size), range(size)] = 1.0
    return gram


def steering_vector(geom: ArrayGeometry, angle: AngleSpec) -> np.ndarray:
    """Unit-norm CPO steering vector for one direction (see :func:`steering_stack`)."""
    return steering_matrix(geom, [angle])[:, 0]


def angle_frequencies(angles) -> np.ndarray:
    """Spatial frequencies (L,) of a sequence of :class:`AngleSpec` directions."""
    return spatial_frequencies(np.array([a.azimuth_rad for a in angles], dtype=float))


def steering_matrix(geom: ArrayGeometry, angles) -> np.ndarray:
    """Stack steering vectors for several directions into an (N, L) matrix."""
    return steering_stack(geom, angle_frequencies(angles))


def cpo_inner_product(geom: ArrayGeometry, freq_delta: float) -> complex:
    """Closed-form inner product of two CPO vectors.

    ``freq_delta`` is the difference of the two spatial frequencies
    (second minus first).  The result is the Dirichlet kernel

        exp(1j*(N-1)*psi) * sin(N*psi) / (N*sin(psi)),  psi = pi*d/lambda*freq_delta.

    The kernel is pi-periodic in psi, so it is evaluated at psi minus its
    nearest multiple of pi: near that multiple ``sin(N*psi)`` of the
    unreduced psi would carry the rounding of ``N*psi`` relative to its
    small value.  Where the reduced psi is exactly 0 the product is exactly 1.
    This is :func:`_grams`' kernel written again in scalar ``math``, entry
    for entry with its bits: the scalar reference that
    :func:`electrically_orthogonal` and ``tests/verify_reference.py`` use,
    at about 0.6 us a pair against 27 us through ``gram_stack`` (2 vCPUs,
    Python 3.11, numpy 2.4).  ``cmath.exp`` gives the phasor the bits of
    ``np.exp`` without a round trip through a numpy scalar.
    """
    n = geom.num_elements
    psi = math.pi * geom.spacing_wavelengths * freq_delta
    psi -= round(psi / math.pi) * math.pi
    if psi == 0.0:
        return 1.0 + 0.0j
    ratio = math.sin(n * psi) / (n * math.sin(psi))
    return cmath.exp(1j * (n - 1) * psi) * ratio


def electrically_orthogonal(
    geom: ArrayGeometry,
    angle1: AngleSpec,
    angle2: AngleSpec,
    tol: float = 1e-9,
) -> bool:
    """True when the steering vectors of two directions have |a^H b| < tol.

    For half-wavelength spacing this happens exactly at spatial-frequency
    separations of 2n/N, n a nonzero integer.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    freq1, freq2 = angle_frequencies([angle1, angle2]).tolist()
    return bool(abs(cpo_inner_product(geom, freq2 - freq1)) < tol)


def mainlobe_freq_delta(geom: ArrayGeometry, magnitude: float) -> float:
    """Invert the Dirichlet-kernel magnitude on its main lobe.

    Returns the spatial-frequency separation in [0, first null] at which
    ``|cpo_inner_product|`` equals ``magnitude``: 0.0 at 1, the null at 0.
    There the magnitude is ``D(psi) = sin(N psi) / (N sin psi)``, ``psi = pi
    d f``, falling from 1 to 0 on ``[0, pi / N]``.  A safeguarded Newton
    iteration solves ``D = magnitude`` from the quadratic estimate ``D ~ 1 -
    (N^2 - 1) psi^2 / 6``; the sign of ``D - magnitude`` keeps a bracket
    ``[lo, hi]``, and a step that leaves it bisects it.  It stops when a step
    moves psi by at most ``4 eps psi`` or back to the iterate before, or
    after 64 steps: on ``verify``'s draws 5 on average, at most 9.  Within
    about 400 eps of 1, where the crossing is ill-conditioned, it can take
    45.  (Stopping once the steps stop shrinking stops early at subnormal
    magnitudes.)

    The computed ``|cpo_inner_product|`` at the result is within ``32 eps``
    of ``magnitude``.  With ``u = eps / 2`` and ``psi |D'| <= pi / 2`` on the
    main lobe, the iteration's ``D`` strays from the exact one by under
    ``8u`` (two sines, product, quotient, ``N psi``), and that of
    ``cpo_inner_product`` by under ``19u`` (psi's rounding and the phasor
    too).  A last step of at most ``8u psi`` moves ``D`` by at most ``13u``,
    and leaves a residual as small (Newton) or a bracket as narrow
    (bisection): ``53u`` in all.  An iterate returns to the one before only
    when rounding sets the steps, and ``D`` is then within it of the target.
    """
    if not 0.0 <= magnitude <= 1.0:
        raise ValueError("magnitude must lie in [0, 1]")
    if magnitude == 1.0:
        return 0.0
    n = geom.num_elements
    if n == 1:
        raise ValueError("a single-element array has |inner product| = 1 everywhere")
    null = 1.0 / (n * geom.spacing_wavelengths)
    if magnitude == 0.0:
        return null
    lo, hi = 0.0, math.pi / n
    psi, previous = math.sqrt(6.0 * (1.0 - magnitude) / (n * n - 1.0)), math.nan
    for _ in range(64):
        sin_psi = math.sin(psi)
        value = math.sin(n * psi) / (n * sin_psi)
        if value > magnitude:
            lo = psi
        else:
            hi = psi
        slope = (math.cos(n * psi) - value * math.cos(psi)) / sin_psi
        new = psi - (value - magnitude) / slope if slope < 0.0 else math.nan
        if not lo <= new <= hi or new == 0.0:
            new = 0.5 * (lo + hi)
        if abs(new - psi) <= 4.0 * sys.float_info.epsilon * psi or new == previous:
            break
        previous, psi = psi, new
    return min(new / (math.pi * geom.spacing_wavelengths), null)
