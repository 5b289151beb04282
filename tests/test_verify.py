"""The verification suites read the library's own results."""

import dataclasses
import functools
import math
import sys

import numpy as np
import pytest

from mmwbeam import beamformer, closedform, verify
from mmwbeam.channel import _path_list
from mmwbeam.closedform import TwoPathParams
from mmwbeam.steering import spatial_frequencies
from verify_reference import alloc_values, measured_params, prop1_instance, prop1_values


def test_prop1_reads_the_reduced_route_snr(monkeypatch):
    # prop1 takes the reduced SNR from the kernel, without the beam, in one stacked call per
    # path count; each instance's SNR must be the value reduced_optimal_beamformer reports
    # for it, bit for bit
    calls = []
    optimal_snr = beamformer._optimal_snr

    def recorded_snr(gains, gram_t, gram_r, **kwargs):
        result = optimal_snr(gains, gram_t, gram_r, **kwargs)
        calls.append((gains, result[0]))
        return result

    monkeypatch.setattr(beamformer, "_optimal_snr", recorded_snr)
    assert verify.verify_prop1(trials=40, seed=0).passed
    monkeypatch.undo()
    instances = [prop1_instance(0, i) for i in range(40)]
    assert len(calls) == len({len(paths) for paths, _, _ in instances})
    snr_of = {
        gains.tobytes(): snr for stack, snrs in calls for gains, snr in zip(stack, snrs)
    }
    assert len(snr_of) == sum(len(stack) for stack, _ in calls) == 40
    for paths, tx_geom, rx_geom in instances:
        pair = beamformer.reduced_optimal_beamformer(paths, tx_geom, rx_geom)
        snr = snr_of[np.array([complex(p.gain) for p in paths]).tobytes()]
        assert np.float64(pair.normalized_snr).tobytes() == snr.tobytes()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("suite", ["prop2", "prop3", "prop4"])
def test_fixtures_measure_inside_their_regime(suite, seed):
    # every ULA channel an allocation suite builds measures, through from_paths, as a
    # parameter set its regime's closed forms accept: none of them raises.  Its free
    # coupling is the drawn one within mainlobe_freq_delta's 32 eps bound (the azimuths'
    # acos/cos round trip included), and its constrained one sits at its null or peak
    case = verify._SUITE_CASES[suite]
    regime = closedform.REGIMES[case]
    params = [verify._draw_params(verify._instance_rng(seed, i), regime) for i in range(500)]
    gains, aods, aoas, tx_geom, rx_geom = verify._fixtures(
        case,
        [(p.mag_a1, p.mag_a2) for p in params],
        [(p.phase_diff, 0.0) for p in params],
        [getattr(p, f"{regime.free}_mag") for p in params],
    )
    for p, instance in zip(params, zip(gains, aods, aoas)):
        paths = _path_list(*instance)
        measured = TwoPathParams.from_paths(paths, tx_geom, rx_geom)
        regime.beta_opt(measured)
        regime.delta_snr(measured)
        free = getattr(measured, f"{regime.free}_mag")
        assert abs(free - getattr(p, f"{regime.free}_mag")) <= 32 * sys.float_info.epsilon
        constrained = getattr(measured, f"{regime.constrained}_mag")
        if regime.forced == 0.0:
            assert constrained < closedform.ORTHOGONAL_TOL
        else:
            assert constrained > 1.0 - closedform.PARALLEL_TOL


@pytest.mark.parametrize(
    "trials, seed, name",
    [(3, 1.5, "seed"), (3, 1.0, "seed"), (3, -1.5, "seed"), (3, True, "seed"),
     (True, 0, "trials"), (2.5, 0, "trials"), (0.5, 0, "trials"), (np.float64(3.0), 0, "trials")],
)
def test_run_suite_refuses_a_non_integer_seed_or_trial_count(trials, seed, name):
    # a float seed would key Philox as its uint64 cast and be reported as given; the type
    # is checked before the range, so -1.5 and 0.5 get the same error
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        verify.run_suite("prop2", trials, seed)


@pytest.mark.parametrize(
    "values, instance", [([math.nan], 0), ([0.5, math.nan, 0.1], 1), ([0.1, math.nan, math.nan], 1)]
)
def test_a_nan_value_fails_its_check(values, instance):
    check = verify._worst("x", values, 1e-9)
    assert math.isnan(check.worst) and check.instance == instance
    assert not check.passed


def test_a_nan_closed_form_fails_its_suite(monkeypatch):
    # Regime looks its closed forms up by module name, so the rebinding reaches prop2's checks
    monkeypatch.setattr(closedform, "delta_snr_v_orth", lambda params: math.nan)
    report = verify.run_suite("prop2", 3, 0)
    assert not report.passed
    failed = [check for check in report.checks if not check.passed]
    assert failed and all(math.isnan(check.worst) for check in failed)
    assert all(check.instance == 0 for check in failed)


def test_the_loss_is_checked_against_the_grid_route(monkeypatch):
    # the dominant-path SNR skewed by 1e-6 skews the u-orth loss back; the loss times
    # snr_dominant_path still read the optimum, the loss times the grid objective does not
    two_path_snrs = closedform._two_path_snrs

    def skewed(params, terms):
        optimal, dominant, shift = two_path_snrs(params, terms)
        return optimal, dominant * (1.0 + 1e-6), shift

    monkeypatch.setattr(closedform, "_two_path_snrs", skewed)
    report = verify.run_suite("prop3", 10, 0)
    failed = [check for check in report.checks if not check.passed]
    assert [check.name for check in failed] == ["closed-form SNR identity (objective)"]
    assert failed[0].worst == pytest.approx(1e-6, rel=1e-3)


def python_max(values, start):
    """The worst value a loop over the instances keeps: Python's running ``max``."""
    worst = start
    for value in values:
        worst = max(worst, value)
    return worst


def bits(value):
    return np.float64(value).tobytes()


# trial counts below, at and above the chunk of instances one array pass holds
@pytest.mark.parametrize("trials", [1, 7, 41])
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
@pytest.mark.parametrize("suite", ["prop1", "prop2", "prop3", "prop4"])
def test_suite_worst_values_match_the_per_instance_loops(suite, seed, trials):
    if suite == "prop1":
        reference, starts = prop1_values, (0.0, 0.0, 0.0)
    else:
        reference = functools.partial(alloc_values, suite)
        starts = (0.0, -np.inf, 0.0, 0.0, 0.0)
    values = reference(seed, range(trials))
    report = verify.run_suite(suite, trials, seed)
    assert len(report.checks) == len(values)
    for k, (check, check_values, start) in enumerate(zip(report.checks, values, starts)):
        assert bits(check.worst) == bits(python_max(check_values, start)), check.name
        # the recorded instance is the first to attain the worst value, and replays it alone
        assert check.instance == check_values.index(check.worst)
        replayed = reference(seed, range(check.instance, check.instance + 1))[k]
        assert bits(replayed[0]) == bits(check.worst)


def scan_batch():
    """Parameter sets and beta windows of a mixed batch of scans."""
    regime = closedform.REGIMES["u-parallel"]
    sets = [
        # a flat objective: every row ties up to rounding
        (TwoPathParams(1.0, 1.0), None),
        (TwoPathParams(1.3e154, 1e154, uu_mag=0.3, vv_mag=0.4), None),
        # the first row is beta = 1/sqrt(2), where theta = pi cancels the beam: a
        # near-singular row, searched on the theta grid with masked entries
        (TwoPathParams(1.0, 1.0, vv_mag=1.0), (2**-0.5, 0.8)),
        (TwoPathParams(0.6, 1.7, 2.1, uu_mag=0.9, uu_phase=1.0, vv_mag=0.2, vv_phase=-0.4),
         (0.1, 0.3)),
        (TwoPathParams(1e-170, 3e-171, uu_mag=0.5, vv_mag=0.7, vv_phase=2.0), None),
    ]
    sets += [(verify._draw_params(verify._instance_rng(3, i), regime), None) for i in range(6)]
    sets += [(params, (0.9, 1.1)) for params, _ in sets[-3:]]
    return sets


def search_betas(window, num_beta=201):
    if window is None:
        return np.linspace(0.0, 1.0, num_beta)
    return np.clip(np.linspace(window[0], window[1], num_beta), 0.0, 1.0)


def test_each_scan_of_a_batch_is_its_scan_alone():
    sets = scan_batch()
    betas = np.array([search_betas(window) for _, window in sets])
    terms = closedform._grid_terms([params for params, _ in sets])
    batch = closedform._scans(terms, betas, 360)
    grid = closedform.objective_grid(sets[2][0], betas[2], np.linspace(0.0, 2 * np.pi, 360, False))
    assert np.isneginf(grid[0]).any()
    for (params, window), (point, value) in zip(sets, batch):
        alone_point, alone_value = closedform.allocation_grid_search(params, 201, 360, window)
        assert point == alone_point
        assert bits(value) == bits(alone_value)


def field_bits(params):
    return tuple(bits(value) for value in dataclasses.astuple(params))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("suite", ["prop2", "prop3", "prop4"])
def test_batched_measurement_keeps_the_bits_of_each_pair(suite, seed):
    # an allocation suite measures a chunk's fixtures with one Gram call per end; every
    # field keeps the bits of one scalar Dirichlet kernel and np.angle per pair, and
    # from_paths, the same measurement on one pair, does too
    case = verify._SUITE_CASES[suite]
    regime = closedform.REGIMES[case]
    params = [verify._draw_params(verify._instance_rng(seed, i), regime) for i in range(500)]
    gains, aods, aoas, tx_geom, rx_geom = verify._fixtures(
        case,
        [(p.mag_a1, p.mag_a2) for p in params],
        [(p.phase_diff, 0.0) for p in params],
        [getattr(p, f"{regime.free}_mag") for p in params],
    )
    batch = closedform._measured(
        gains, spatial_frequencies(aods), spatial_frequencies(aoas), tx_geom, rx_geom
    )
    for instance, measured in zip(zip(gains, aods, aoas), batch):
        paths = _path_list(*instance)
        expected = field_bits(measured_params(paths, tx_geom, rx_geom))
        assert field_bits(measured) == expected
        assert field_bits(TwoPathParams.from_paths(paths, tx_geom, rx_geom)) == expected


def prop1_bits(draw):
    nt, nr, normals, aods, aoas = draw
    return nt, nr, normals.tobytes(), aods.tobytes(), aoas.tobytes()


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_prop1_draws_the_reference_instance(seed):
    # both azimuth rows come from one call, the reference's from one call per row
    for index in range(200):
        nt, nr, normals, aods, aoas = verify._draw_prop1(verify._instance_rng(seed, index))
        paths, tx_geom, rx_geom = prop1_instance(seed, index)
        assert (nt, nr) == (tx_geom.num_elements, rx_geom.num_elements)
        gains = (normals[0] + 1j * normals[1]) / math.sqrt(2.0)
        assert gains.tobytes() == np.array([p.gain for p in paths]).tobytes()
        assert aods.tobytes() == np.array([p.aod.azimuth_rad for p in paths]).tobytes()
        assert aoas.tobytes() == np.array([p.aoa.azimuth_rad for p in paths]).tobytes()


# prop1 and every regime a suite can draw in
DRAWS = [(verify._draw_prop1, (), prop1_bits)] + [
    (verify._draw_params, (regime,), field_bits) for regime in closedform.REGIMES.values()
]


@pytest.mark.parametrize("seed", [0, 7, 12345, 2**63, 2**64 - 1])
@pytest.mark.parametrize("draw, args, key", DRAWS)
def test_each_instance_of_a_chunk_draws_its_own_generators_stream(draw, args, key, seed):
    # the chunk's one re-keyed generator gives each instance the stream of a fresh
    # Philox keyed by (seed, instance): prop1's size picks leave a cached 32-bit
    # half, which the next instance must not read
    chunks = list(verify._chunks(2 * verify._CHUNK))
    assert len(chunks) == 2
    for indices in chunks:
        drawn = verify._instance_draws(seed, indices, draw, *args)
        assert len(drawn) == len(indices)
        for index, instance in zip(indices, drawn):
            assert key(instance) == key(draw(verify._instance_rng(seed, index), *args))
