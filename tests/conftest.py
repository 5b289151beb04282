import math

import numpy as np
import pytest

from mmwbeam.channel import PathComponent, _path_arrays
from mmwbeam.montecarlo import _draw_chunk
from mmwbeam.steering import AngleSpec, ArrayGeometry, gram_stack, spatial_frequencies


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_paths(rng, num_paths, fov_deg=360.0):
    """Random path components with CN(0,1) gains and uniform azimuths."""
    half = math.radians(fov_deg) / 2.0
    center = math.pi if fov_deg >= 360.0 else math.pi / 2.0
    lo, hi = max(center - half, 0.0), min(center + half, 2.0 * math.pi - 1e-12)
    out = []
    for _ in range(num_paths):
        re, im = rng.standard_normal(2)
        out.append(
            PathComponent(
                gain=complex(re, im) / math.sqrt(2.0),
                aod=AngleSpec(float(rng.uniform(lo, hi))),
                aoa=AngleSpec(float(rng.uniform(lo, hi))),
            )
        )
    return out


def kernel_args(paths, tx_geom, rx_geom):
    """A stacked kernel's arguments for one path list: gains (1, L) and both Grams (1, L, L)."""
    gains, freq_t, freq_r = _path_arrays(paths)
    return gains[None], gram_stack(tx_geom, freq_t)[None], gram_stack(rx_geom, freq_r)[None]


def engine_inputs(cfg):
    """Gains (B, L) and the Grams (B, L, L) the engine draws for every trial of ``cfg``."""
    gains, aod, aoa, _ = _draw_chunk(cfg, range(cfg.trials))
    gram_t = gram_stack(cfg.tx_geometry, spatial_frequencies(aod))
    gram_r = gram_stack(cfg.rx_geometry, spatial_frequencies(aoa))
    return gains, gram_t, gram_r


def geometry_pair(nt=8, nr=4, spacing=0.5):
    return ArrayGeometry(nt, spacing), ArrayGeometry(nr, spacing)


def equal_power_grid_snr(paths, tx_geom, rx_geom, points=20_000):
    """Best SNR of the normalized equal-power beams ``v_0 + exp(1j theta) v_1`` on a phase grid.

    Evaluated on the dense channel matrix; beams that cancel to within
    ``MIN_BEAM_NORM_SQ`` are skipped, as the scheme skips them.
    """
    from mmwbeam.beamformer import MIN_BEAM_NORM_SQ
    from mmwbeam.channel import assemble_channel
    from mmwbeam.steering import steering_matrix

    h = assemble_channel(paths, tx_geom, rx_geom).entries
    v = steering_matrix(tx_geom, [p.aod for p in paths])
    theta = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    beams = v[:, :1] + np.exp(1j * theta) * v[:, 1:]
    norm_sq = np.sum(np.abs(beams) ** 2, axis=0)
    kept = norm_sq > MIN_BEAM_NORM_SQ
    snr = np.sum(np.abs(h @ beams[:, kept]) ** 2, axis=0) / norm_sq[kept]
    return float(snr.max()) / (h.shape[0] * h.shape[1])


def rotated_cores(rng, spectra):
    """Hermitian matrices (B, 3, 3) ``U diag(spectrum) U^H``, one random unitary U per spectrum."""
    shape = (len(spectra), 3, 3)
    basis = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    return (basis * np.asarray(spectra)[:, None, :]) @ np.conj(np.swapaxes(basis, 1, 2))
