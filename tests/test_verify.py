"""The verification suites read the library's own results."""

import numpy as np
import pytest

from mmwbeam import beamformer, closedform, verify
from mmwbeam.closedform import TwoPathParams


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


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("suite", ["prop2", "prop3", "prop4"])
def test_fixtures_measure_inside_their_regime(suite, seed):
    # every ULA channel an allocation suite builds measures, through from_paths, as a
    # parameter set its regime's closed forms accept: none of them raises
    case = verify._SUITE_CASES[suite]
    regime = closedform.REGIMES[case]
    for i in range(500):
        params = verify._draw_params(verify._instance_rng(seed, i), regime)
        paths, tx_geom, rx_geom = verify._two_path_fixture(
            case,
            (params.mag_a1, params.mag_a2),
            (params.phase_diff, 0.0),
            getattr(params, f"{regime.free}_mag"),
        )
        measured = TwoPathParams.from_paths(paths, tx_geom, rx_geom)
        regime.beta_opt(measured)
        regime.delta_snr(measured)
