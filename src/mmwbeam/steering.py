"""Uniform linear array steering vectors and their inner products.

A steering vector here is always a constant-phase-offset (CPO) vector:
unit-magnitude entries with a linearly increasing phase, scaled to unit
2-norm.  The inner product of two such vectors has a Dirichlet-kernel
closed form, which is what makes "electrical orthogonality" between two
directions a simple predicate on their spatial frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayGeometry",
    "AngleSpec",
    "steering_vector",
    "steering_matrix",
    "inner_product",
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
        return math.sin(self.elevation_rad) * math.cos(self.azimuth_rad)


def steering_vector(geom: ArrayGeometry, angle: AngleSpec) -> np.ndarray:
    """Unit-norm CPO steering vector for one direction.

    Entry m equals ``exp(1j * m * k * d * sin(el) * cos(az)) / sqrt(N)``
    with ``k * d = 2 * pi * spacing_wavelengths``.
    """
    n = geom.num_elements
    step = _TWO_PI * geom.spacing_wavelengths * angle.spatial_frequency()
    phases = step * np.arange(n)
    return np.exp(1j * phases) / math.sqrt(n)


def steering_matrix(geom: ArrayGeometry, angles) -> np.ndarray:
    """Stack steering vectors for several directions into an (N, L) matrix."""
    n = geom.num_elements
    steps = np.array([_TWO_PI * geom.spacing_wavelengths * a.spatial_frequency() for a in angles])
    phases = np.arange(n)[:, None] * steps[None, :]
    return np.exp(1j * phases) / math.sqrt(n)


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

    When psi is a multiple of pi the two vectors coincide entrywise and
    the product is exactly 1.
    """
    n = geom.num_elements
    psi = math.pi * geom.spacing_wavelengths * freq_delta
    cycles = psi / math.pi
    if abs(cycles - round(cycles)) < 1e-12:
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
        if abs(cpo_inner_product(geom, mid)) > magnitude:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
