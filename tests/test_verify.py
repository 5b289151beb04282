"""The verification suites read the library's own results."""

import numpy as np

from mmwbeam import beamformer, verify


def test_prop1_reads_the_reduced_route_snr(monkeypatch):
    # prop1 takes the reduced SNR from the kernel, without the beam; it must be the value
    # reduced_optimal_beamformer reports for the same instance, bit for bit
    instances, snrs = [], []
    path_grams, optimal_snr = beamformer._path_grams, beamformer._optimal_snr

    def recorded_grams(*args):
        instances.append(args)
        return path_grams(*args)

    def recorded_snr(*args, **kwargs):
        result = optimal_snr(*args, **kwargs)
        snrs.append(result[0])
        return result

    monkeypatch.setattr(beamformer, "_path_grams", recorded_grams)
    monkeypatch.setattr(beamformer, "_optimal_snr", recorded_snr)
    assert verify.verify_prop1(trials=40, seed=0).passed
    monkeypatch.undo()
    assert len(instances) == len(snrs) == 40
    for (paths, tx_geom, rx_geom), snr in zip(instances, snrs):
        pair = beamformer.reduced_optimal_beamformer(paths, tx_geom, rx_geom)
        assert np.float64(pair.normalized_snr).tobytes() == snr.tobytes()
