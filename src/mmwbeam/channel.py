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

from .steering import AngleSpec, ArrayGeometry, steering_matrix

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
    if len(paths) == 0:
        raise ValueError("at least one path component is required")
    gains = np.array([[complex(p.gain) for p in paths]])
    rx_steer = steering_matrix(rx_geom, [p.aoa for p in paths])  # (Nr, L)
    tx_steer = steering_matrix(tx_geom, [p.aod for p in paths])  # (Nt, L)
    entries = _channel_stack(gains, rx_steer[None], tx_steer[None])[0]
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

