"""Sparse geometric mmWave MIMO channels and directional beamforming analysis.

The package synthesizes multipath ULA channels, computes the optimal
transmit/receive beamformer pair alongside low-complexity directional
schemes, evaluates the received-SNR loss of the simple schemes in closed
form and by Monte Carlo, and ships brute-force oracles to verify every
closed form.
"""

__version__ = "0.1.0"

from .steering import (
    AngleSpec,
    ArrayGeometry,
    cpo_inner_product,
    electrically_orthogonal,
    steering_vector,
)
from .channel import (
    ChannelMatrix,
    PathComponent,
    assemble_channel,
    channel_power,
)
from .beamformer import (
    BeamformerPair,
    bidirectional_beamformer,
    dominant_path_beamformer,
    equal_power_beamformer,
    matched_filter,
    optimal_beamformer,
    received_snr,
    reduced_optimal_beamformer,
)
from .closedform import AllocationPoint, RegimeError, TwoPathParams
from .montecarlo import CcdfTable, McConfig, percentile, run_ccdf, sample_paths

__all__ = [
    "__version__",
    "AngleSpec",
    "ArrayGeometry",
    "cpo_inner_product",
    "electrically_orthogonal",
    "steering_vector",
    "ChannelMatrix",
    "PathComponent",
    "assemble_channel",
    "channel_power",
    "BeamformerPair",
    "bidirectional_beamformer",
    "dominant_path_beamformer",
    "equal_power_beamformer",
    "matched_filter",
    "optimal_beamformer",
    "received_snr",
    "reduced_optimal_beamformer",
    "AllocationPoint",
    "RegimeError",
    "TwoPathParams",
    "CcdfTable",
    "McConfig",
    "percentile",
    "run_ccdf",
    "sample_paths",
]
