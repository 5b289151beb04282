"""Sparse geometric mmWave MIMO channels and directional beamforming analysis.

The package synthesizes multipath ULA channels, computes the optimal
transmit/receive beamformer pair alongside low-complexity directional
schemes, evaluates the received-SNR loss of the simple schemes in closed
form and by Monte Carlo, and ships brute-force oracles to verify every
closed form.
"""

__version__ = "0.1.0"

import importlib

# The module of each root name, imported on first access (PEP 562): ``import mmwbeam``
# loads no submodule and no numpy, and a ``ccdf`` run never loads ``closedform``.
_ROOT = {
    "steering": ("AngleSpec", "ArrayGeometry", "cpo_inner_product", "steering_vector"),
    "channel": ("ChannelMatrix", "PathComponent", "assemble_channel", "channel_power"),
    "beamformer": ("BeamformerPair", "bidirectional_beamformer", "dominant_path_beamformer",
                   "equal_power_beamformer", "matched_filter", "optimal_beamformer",
                   "received_snr", "reduced_optimal_beamformer"),
    "closedform": ("AllocationPoint", "RegimeError", "TwoPathParams"),
    "montecarlo": ("CcdfTable", "McConfig", "percentile", "run_ccdf", "sample_paths"),
}
_MODULE = {name: module for module, names in _ROOT.items() for name in names}
__all__ = ["__version__", *_MODULE]


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE})
