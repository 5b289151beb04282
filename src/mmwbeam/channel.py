"""Sparse geometric MIMO channel assembly.

The channel is a sum of L rank-one terms, one per propagation path:
``H = sqrt(Nr*Nt/L) * sum_l gain_l * u_l v_l^H`` with ``u_l``/``v_l`` the
receive/transmit steering vectors of the path.  The leading constant keeps
``E[||H||_F^2] = Nr*Nt`` under unit-variance complex Gaussian path gains.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .steering import AngleSpec, ArrayGeometry, angle_frequencies, steering_stack

__all__ = [
    "PathComponent",
    "ChannelMatrix",
    "assemble_channel",
    "channel_power",
]


@dataclass(frozen=True)
class PathComponent:
    """One scatterer: complex gain plus departure/arrival directions."""

    gain: complex
    aod: AngleSpec
    aoa: AngleSpec

    def __post_init__(self) -> None:
        if not cmath.isfinite(complex(self.gain)):
            raise ValueError(f"path gain must be finite, got {self.gain}")


def _path_arrays(paths: Sequence[PathComponent]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains and departure and arrival spatial frequencies (L,) of a path list: the one reader."""
    if len(paths) == 0:
        raise ValueError("at least one path component is required")
    gains = np.array([complex(p.gain) for p in paths])
    freq_t = angle_frequencies([p.aod for p in paths])
    return gains, freq_t, angle_frequencies([p.aoa for p in paths])


def _path_list(gains: np.ndarray, aods: np.ndarray, aoas: np.ndarray) -> list[PathComponent]:
    """Path components of gains and departure and arrival azimuths (L,): the one writer."""
    return [
        PathComponent(complex(gain), AngleSpec(aod), AngleSpec(aoa))
        for gain, aod, aoa in zip(gains.tolist(), aods.tolist(), aoas.tolist())
    ]


@dataclass(frozen=True)
class ChannelMatrix:
    """Dense Nr x Nt channel matrix."""

    entries: np.ndarray

    @property
    def num_rx(self) -> int:
        return self.entries.shape[0]

    @property
    def num_tx(self) -> int:
        return self.entries.shape[1]


def assemble_channel(
    paths: Sequence[PathComponent],
    tx_geom: ArrayGeometry,
    rx_geom: ArrayGeometry,
) -> ChannelMatrix:
    """Assemble the channel matrix from path components.

    Rows index receive antennas, columns transmit antennas.
    """
    gains, freq_t, freq_r = _path_arrays(paths)
    steers = steering_stack(rx_geom, freq_r)[None], steering_stack(tx_geom, freq_t)[None]
    entries = _channel_stack(gains[None], *steers)[0]
    entries.setflags(write=False)
    return ChannelMatrix(entries=entries)


def _channel_stack(gains: np.ndarray, rx_steer: np.ndarray, tx_steer: np.ndarray) -> np.ndarray:
    """Channel matrices (B, Nr, Nt) of gains (B, L) and steering stacks (B, Nr, L), (B, Nt, L).

    The stacked product calls the same BLAS routine on each matrix, so each
    channel has the bits :func:`assemble_channel` gives it alone.
    """
    scale = math.sqrt(rx_steer.shape[-2] * tx_steer.shape[-2] / gains.shape[-1])
    return (scale * (rx_steer * gains[:, None, :])) @ np.conj(np.swapaxes(tx_steer, -1, -2))


def channel_power(channel: ChannelMatrix) -> float:
    """Squared Frobenius norm of the channel matrix."""
    return float(np.linalg.norm(channel.entries, "fro") ** 2)

