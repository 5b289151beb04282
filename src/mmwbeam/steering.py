"""Uniform linear array steering vectors and their inner products.

A steering vector here is always a constant-phase-offset (CPO) vector:
unit-magnitude entries with a linearly increasing phase, scaled to unit
2-norm.  The inner product of two such vectors has a Dirichlet-kernel
closed form, which is what makes "electrical orthogonality" between two
directions a simple predicate on their spatial frequencies.
"""

from __future__ import annotations

import functools
import math
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
    "inner_product",
    "cpo_inner_product",
    "electrically_orthogonal",
    "mainlobe_freq_delta",
]

_TWO_PI = 2.0 * math.pi

# Band (in cycles of pi) around a multiple of pi in which the Dirichlet kernel
# is evaluated at the reduced phase: there sin(psi) cancels, and the reduction
# keeps the phase factor exp(1j (N - 1) psi) that a plain 1 would drop.
COINCIDENT_CYCLES = 1e-12


@dataclass(frozen=True)
class ArrayGeometry:
    """A uniform linear array along the X axis.

    Parameters
    ----------
    num_elements : int
        Number of antenna elements (>= 1).
    spacing_wavelengths : float
        Inter-element spacing d divided by the carrier wavelength
        (default 0.5, i.e. critical half-wavelength spacing).
    """

    num_elements: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self) -> None:
        if int(self.num_elements) != self.num_elements or self.num_elements < 1:
            raise ValueError(f"num_elements must be a positive integer, got {self.num_elements}")
        if not self.spacing_wavelengths > 0:
            raise ValueError(f"spacing_wavelengths must be > 0, got {self.spacing_wavelengths}")


@dataclass(frozen=True)
class AngleSpec:
    """Azimuth/elevation direction of a propagation path.

    The spatial frequency seen by an X-axis ULA is
    ``sin(elevation) * cos(azimuth)``; the default elevation of pi/2
    reduces this to ``cos(azimuth)``.
    """

    azimuth_rad: float
    elevation_rad: float = math.pi / 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.azimuth_rad < _TWO_PI:
            raise ValueError(f"azimuth_rad must lie in [0, 2*pi), got {self.azimuth_rad}")
        if not 0.0 < self.elevation_rad <= math.pi:
            raise ValueError(f"elevation_rad must lie in (0, pi], got {self.elevation_rad}")

    @classmethod
    def from_degrees(cls, azimuth_deg: float, elevation_deg: float = 90.0) -> "AngleSpec":
        """Build an AngleSpec from degrees, wrapping azimuth into [0, 360)."""
        return cls(math.radians(azimuth_deg % 360.0), math.radians(elevation_deg))

    @property
    def azimuth_deg(self) -> float:
        return math.degrees(self.azimuth_rad)

    @property
    def elevation_deg(self) -> float:
        return math.degrees(self.elevation_rad)

    def spatial_frequency(self) -> float:
        """Normalized spatial frequency sin(elevation)*cos(azimuth), in [-1, 1]."""
        return float(spatial_frequencies(self.azimuth_rad, self.elevation_rad))


def spatial_frequencies(azimuth_rad, elevation_rad):
    """Elementwise ``sin(elevation) * cos(azimuth)`` over arrays of angles (radians).

    The one definition of the spatial frequency: :class:`AngleSpec`,
    :func:`steering_matrix` and the batched Monte Carlo engine all call it,
    so a direction maps to the same bits on every route.
    """
    return np.sin(elevation_rad) * np.cos(azimuth_rad)


@functools.lru_cache(maxsize=64)
def _split_exponents(n: int) -> tuple[np.ndarray, int, int]:
    """Exponents of the two steering factors of an N-element array, read-only.

    Each index is written ``m = a K + b`` with ``K = ceil(sqrt(N))`` and
    ``A = ceil(N / K)``.  Returns ``1j * (0, 1, .., K-1, 0, K, .., (A-1) K)``
    as a (K + A, 1) column, ``K`` and ``A * K``.
    """
    fine = math.isqrt(n - 1) + 1
    coarse = -(-n // fine)
    index = np.concatenate([np.arange(fine), fine * np.arange(coarse)]).astype(float)
    exponents = 1j * index[:, None]
    exponents.setflags(write=False)
    return exponents, fine, coarse * fine


def steering_stack(geom: ArrayGeometry, freqs: np.ndarray) -> np.ndarray:
    """Steering vectors of spatial frequencies ``freqs`` (..., L) as a (..., N, L) stack.

    Entry m of column l equals ``exp(1j * m * step) / sqrt(N)`` with
    ``step = 2 * pi * spacing_wavelengths * freqs[..., l]``.  It is built as
    a product of two factors: with ``K = ceil(sqrt(N))`` and ``m = a K + b``,
    entry m is ``exp(1j a K step) * (exp(1j b step) / sqrt(N))``, so a column
    costs ``K + ceil(N / K)`` complex exponentials instead of N (16 instead
    of 64 at N = 64).  Against the one-exponential form the entry differs by
    at most ``4 * eps * (1 + m * |step|) / sqrt(N)``, the rounding of the
    phases ``a K step`` and ``b step``, of the two exponentials, of the
    scaling and of their product.  Each entry depends on its own
    frequency only, so a stack of many channels holds the same bits as the
    stacks of its channels built one at a time.
    """
    n = geom.num_elements
    exponents, fine, full = _split_exponents(n)
    steps = _TWO_PI * geom.spacing_wavelengths * np.asarray(freqs, dtype=float)
    factors = np.exp(exponents * steps[..., None, :])
    scaled = factors[..., :fine, :] * (1.0 / math.sqrt(n))
    stack = factors[..., fine:, None, :] * scaled[..., None, :, :]
    stack = stack.reshape(steps.shape[:-1] + (full, steps.shape[-1]))
    return stack if full == n else np.ascontiguousarray(stack[..., :n, :])


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
    by the same expression and the same reduction of the phase ``psi`` on
    arrays.  Only the entries above the diagonal are evaluated; the
    diagonal is exactly 1 and the entries below are their conjugates, so
    each matrix is exactly Hermitian.  No N-length vector is formed.
    Against ``steering_stack(...)^H @ steering_stack(...)`` an entry differs
    by a few ``eps * (1 + N * |step|)``, the rounding of the phases the stack
    multiplies by up to N - 1.  Each entry depends on its own pair of
    frequencies only, so a stack of many channels holds the same bits as the
    Grams of its channels built one at a time.
    """
    n = geom.num_elements
    freqs = np.asarray(freqs, dtype=float)
    size = freqs.shape[-1]
    rows, cols = _pairs(size)
    psi = math.pi * geom.spacing_wavelengths * (freqs[..., cols] - freqs[..., rows])
    cycles = psi / math.pi
    turns = np.round(cycles)
    psi = np.where(np.abs(cycles - turns) < COINCIDENT_CYCLES, psi - turns * math.pi, psi)
    coincident = psi == 0.0
    ratio = np.divide(np.sin(n * psi), n * np.sin(psi), out=np.ones_like(psi), where=~coincident)
    upper = np.exp(1j * (n - 1) * psi) * ratio
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
    azimuths = np.array([a.azimuth_rad for a in angles], dtype=float)
    elevations = np.array([a.elevation_rad for a in angles], dtype=float)
    return spatial_frequencies(azimuths, elevations)


def steering_matrix(geom: ArrayGeometry, angles) -> np.ndarray:
    """Stack steering vectors for several directions into an (N, L) matrix."""
    return steering_stack(geom, angle_frequencies(angles))


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Hermitian inner product a^H b of two equal-length vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"vector length mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def cpo_inner_product(geom: ArrayGeometry, freq_delta: float) -> complex:
    """Closed-form inner product of two CPO vectors.

    ``freq_delta`` is the difference of the two spatial frequencies
    (second minus first).  The result is the Dirichlet kernel

        exp(1j*(N-1)*psi) * sin(N*psi) / (N*sin(psi)),  psi = pi*d/lambda*freq_delta.

    The kernel is pi-periodic in psi.  Within ``COINCIDENT_CYCLES`` of a
    multiple of pi, where ``sin(psi)`` nearly vanishes, psi is first reduced
    by that multiple; where the reduced psi is exactly 0 the two vectors
    coincide entrywise and the product is exactly 1.
    """
    n = geom.num_elements
    psi = math.pi * geom.spacing_wavelengths * freq_delta
    cycles = psi / math.pi
    turns = round(cycles)
    if abs(cycles - turns) < COINCIDENT_CYCLES:
        psi -= turns * math.pi
        if psi == 0.0:
            return 1.0 + 0.0j
    ratio = math.sin(n * psi) / (n * math.sin(psi))
    return complex(np.exp(1j * (n - 1) * psi) * ratio)


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
    delta = angle2.spatial_frequency() - angle1.spatial_frequency()
    return bool(abs(cpo_inner_product(geom, delta)) < tol)


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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if abs(cpo_inner_product(geom, mid)) > magnitude:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
