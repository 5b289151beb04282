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
    This is :func:`gram_stack`'s kernel written again in scalar ``math`` on
    purpose: a pair costs about 0.6 us this way and 27 us through ``gram_stack``
    (2 vCPUs, Python 3.11, numpy 2.4), and :func:`mainlobe_freq_delta` calls
    it about 12 times per ``verify`` fixture.  ``cmath.exp`` gives the phasor
    the bits of ``np.exp`` without a round trip through a numpy scalar.
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


# Twice a bound on how far the computed ``|cpo_inner_product|`` strays from the
# exact kernel magnitude on the main lobe (see _mainlobe_bracket).
_MAINLOBE_TOL = 64.0 * sys.float_info.epsilon

# Newton steps that place the main-lobe crossing before its bracket is widened.
_NEWTON_STEPS = 4


def mainlobe_freq_delta(geom: ArrayGeometry, magnitude: float) -> float:
    """Invert the Dirichlet-kernel magnitude on its main lobe.

    Returns the spatial-frequency separation in [0, first null] at which
    ``|cpo_inner_product|`` equals ``magnitude``.  The kernel magnitude is
    monotone decreasing from 1 to 0 on that interval, so bisection suffices.
    It stops at the first midpoint that equals ``lo`` or ``hi``: that step
    would leave ``(lo, hi)`` unchanged or collapse it onto the midpoint, a
    fixed point either way, so the midpoint is what every later step would
    return (after about 53 steps).  The 200-step cap still binds when
    ``magnitude`` is within about 1e-15 of 1, where ``hi`` halves towards 0
    without meeting ``lo``.

    Only the midpoints inside a certified bracket ``(below, above)`` of the
    crossing evaluate the kernel (:func:`_mainlobe_bracket`): a midpoint at
    or below ``below`` computes above ``magnitude`` and one at or above
    ``above`` does not, so the bisection takes the steps, and returns the
    float, of one that evaluates every midpoint.  On ``verify``'s fixtures
    that is about 12 kernel calls in place of about 53.
    """
    if not 0.0 <= magnitude <= 1.0:
        raise ValueError("magnitude must lie in [0, 1]")
    if geom.num_elements == 1:
        if magnitude == 1.0:
            return 0.0
        raise ValueError("a single-element array has |inner product| = 1 everywhere")
    lo = 0.0
    hi = 1.0 / (geom.num_elements * geom.spacing_wavelengths)  # first null
    if magnitude == 0.0:
        return hi
    below, above = _mainlobe_bracket(geom, magnitude, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        elif abs(cpo_inner_product(geom, mid)) > magnitude:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mainlobe_bracket(geom: ArrayGeometry, magnitude: float, null: float) -> tuple[float, float]:
    """Separations ``below`` and ``above`` around the kernel's crossing of ``magnitude``.

    Both lie in [0, ``null``].  Every separation in (0, ``below``] computes
    ``|cpo_inner_product|`` above ``magnitude``, and every one in [``above``,
    ``null``) computes at most ``magnitude``; ``below = 0`` and ``above =
    null`` say nothing.  A few safeguarded Newton steps on ``D(psi) =
    sin(N psi) / (N sin psi)`` place the crossing, and a bracket around it is
    widened until its ends compute beyond ``magnitude -+ _MAINLOBE_TOL``.

    ``_MAINLOBE_TOL`` is twice ``eps_k = 32 eps``, a bound on how far the
    computed magnitude strays from the exact ``D`` at ``psi = pi_64 d f``,
    ``pi_64`` the float pi: with ``u = eps / 2``, ``psi`` rounds by ``2u``
    relative, which moves ``sin(N psi)`` by under ``3u N psi`` (``N psi`` adds
    ``u``) and so the ratio by under ``3u psi / sin(psi) <= 5u``; the two
    sines, the product by N and the division add ``2u + 5u + u`` of the ratio
    (at most 1), and the unit phasor ``exp(1j (N - 1) psi)``, its product and
    ``abs`` under ``6u``: about ``19u``, under a third of ``eps_k``.  The
    exact ``D`` is decreasing on the main lobe, so an end that computes above
    ``magnitude + 2 eps_k`` has every separation before it exactly above
    ``magnitude + eps_k``, hence computing above ``magnitude``; the other end
    alike.  Beyond the null, within the rounding of ``null`` itself, ``D``
    stays below ``eps``.
    """
    n = geom.num_elements
    if not _MAINLOBE_TOL < magnitude < 1.0 - _MAINLOBE_TOL:
        return 0.0, null
    # the crossing in psi = pi d f, from the quadratic start 1 - (n^2 - 1) psi^2 / 6
    lo, hi = 0.0, math.pi / n
    psi = math.sqrt(6.0 * (1.0 - magnitude) / (n * n - 1.0))
    for _ in range(_NEWTON_STEPS):
        sin_psi = math.sin(psi)
        value = math.sin(n * psi) / (n * sin_psi)
        if value > magnitude:
            lo = psi
        else:
            hi = psi
        slope = (math.cos(n * psi) - value * math.cos(psi)) / sin_psi
        psi -= (value - magnitude) / slope if slope < 0.0 else math.inf
        if not lo <= psi <= hi:
            psi = 0.5 * (lo + hi)
    scale = math.pi * geom.spacing_wavelengths
    crossing = psi / scale
    # about the separation that moves the magnitude by 2 _MAINLOBE_TOL
    width = 4.0 * sys.float_info.epsilon * crossing
    if slope < 0.0:
        width = max(width, 2.0 * _MAINLOBE_TOL / (-slope * scale))
    step = width
    while (
        crossing - step > 0.0
        and abs(cpo_inner_product(geom, crossing - step)) <= magnitude + _MAINLOBE_TOL
    ):
        step *= 2.0
    below = max(crossing - step, 0.0)
    step = width
    while (
        crossing + step < null
        and abs(cpo_inner_product(geom, crossing + step)) >= magnitude - _MAINLOBE_TOL
    ):
        step *= 2.0
    return below, min(crossing + step, null)
