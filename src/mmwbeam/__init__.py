"""Sparse geometric mmWave MIMO channels and directional beamforming analysis.

The package synthesizes multipath ULA channels, computes the optimal
transmit/receive beamformer pair alongside low-complexity directional
schemes, evaluates the received-SNR loss of the simple schemes in closed
form and by Monte Carlo, and ships brute-force oracles to verify every
closed form.
"""

__version__ = "0.1.0"

import importlib

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

# The module of each root name imported on first access (PEP 562): a ``ccdf``
# run never loads ``closedform``, and a ``closedform`` run never loads
# ``montecarlo``.
_LAZY = {
    "AllocationPoint": "closedform",
    "RegimeError": "closedform",
    "TwoPathParams": "closedform",
    "CcdfTable": "montecarlo",
    "McConfig": "montecarlo",
    "percentile": "montecarlo",
    "run_ccdf": "montecarlo",
    "sample_paths": "montecarlo",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


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
