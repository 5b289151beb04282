"""Properties over random inputs: the batched Monte Carlo engine, the exact equal-power
phase, the steering stacks and their Grams, the two-path objective grid, the closed-form
regimes and the main-lobe bisection."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from conftest import equal_power_grid_snr  # noqa: E402
from mmwbeam import steering  # noqa: E402
from mmwbeam.beamformer import (  # noqa: E402
    equal_power_beamformer,
    optimal_beamformer,
    received_snr,
    reduced_optimal_beamformer,
)
from mmwbeam.channel import assemble_channel  # noqa: E402
from mmwbeam.closedform import (  # noqa: E402
    REGIMES,
    TwoPathParams,
    delta_snr_v_orth,
    objective_grid,
)
from mmwbeam.montecarlo import (  # noqa: E402
    ANGLE_SAMPLING,
    SCHEMES,
    McConfig,
    _trial_losses,
    sample_paths,
)
from mmwbeam.steering import (  # noqa: E402
    ArrayGeometry,
    cpo_inner_product,
    gram_stack,
    mainlobe_freq_delta,
    steering_stack,
)
from mmwbeam.verify import _two_path_fixture  # noqa: E402

# Losses may dip below zero by rounding only.
LOSS_FLOOR_DB = -1e-12

configs = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**64 - 1),
        "num_paths": st.integers(1, 5),
        "nt": st.integers(1, 64),
        "nr": st.integers(1, 64),
        "spacing_wavelengths": st.floats(0.01, 0.5),
        "angle_sampling": st.sampled_from(ANGLE_SAMPLING),
        "trials": st.integers(1, 40),
    }
)


def losses(scheme, **cfg):
    return _trial_losses(McConfig(scheme=scheme, **cfg))[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=configs)
def test_losses_are_nonnegative_and_ordered(cfg):
    bidirectional = losses("bidirectional", **cfg)
    dominant = losses("dominant_tx_mf_rx", **cfg)
    assert np.all(bidirectional >= LOSS_FLOOR_DB)
    assert np.all(dominant >= LOSS_FLOOR_DB)
    # per trial, the matched-filter receiver can only improve on the steered one
    assert np.all(dominant <= bidirectional - LOSS_FLOOR_DB)
    if cfg["num_paths"] == 1:
        assert np.all(np.abs(bidirectional) <= -LOSS_FLOOR_DB)
        assert np.all(np.abs(dominant) <= -LOSS_FLOOR_DB)
    if cfg["num_paths"] == 2:
        assert np.all(losses("equal_power", **cfg) >= LOSS_FLOOR_DB)


def dense_loss_ratio(cfg, trial):
    """Optimal over scheme SNR of one trial, both from the dense channel matrix.

    The optimum is the top singular value of ``H``; the scheme's SNR is
    ``received_snr`` of its beams on ``H``.  No Gram or L x L core is involved.
    """
    tx_geom, rx_geom = cfg.tx_geometry, cfg.rx_geometry
    paths = sample_paths(cfg, trial)
    channel = assemble_channel(paths, tx_geom, rx_geom)
    pair = SCHEMES[cfg.scheme](paths, tx_geom, rx_geom, channel=channel)
    scheme = received_snr(channel, pair.tx, pair.rx).normalized_snr
    return optimal_beamformer(channel).normalized_snr / scheme


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cfg=configs)
def test_engine_losses_match_dense_svd(cfg):
    schemes = ["bidirectional", "dominant_tx_mf_rx"]
    if cfg["num_paths"] == 2:
        schemes.append("equal_power")
    for scheme in schemes:
        mc = McConfig(scheme=scheme, **cfg)
        ratios = 10.0 ** (_trial_losses(mc)[0] / 10.0)
        dense = np.array([dense_loss_ratio(mc, trial) for trial in range(mc.trials)])
        assert np.all(np.abs(ratios - dense) <= 1e-9 * dense)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cfg=configs.map(lambda cfg: {**cfg, "num_paths": 2, "trials": min(cfg["trials"], 4)}))
def test_equal_power_phase_is_exact(cfg):
    mc = McConfig(scheme="equal_power", **cfg)
    tx_geom, rx_geom = mc.tx_geometry, mc.rx_geometry
    for trial in range(mc.trials):
        paths = sample_paths(mc, trial)
        snr = equal_power_beamformer(paths, tx_geom, rx_geom).normalized_snr
        optimal = reduced_optimal_beamformer(paths, tx_geom, rx_geom).normalized_snr
        assert snr >= (1.0 - 1e-12) * equal_power_grid_snr(paths, tx_geom, rx_geom)
        assert snr <= (1.0 + 1e-12) * optimal


# Units of the steering-entry error bound: 4 * eps * (1 + m * |step|) / sqrt(N).
STEERING_ULPS = 4.0 * np.finfo(float).eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.one_of(st.sampled_from([1, 2, 7, 13, 64, 256, 1000, 1024]), st.integers(1, 1024)),
    spacing=st.floats(0.001, 1.0),
    freqs=hnp.arrays(
        float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5), elements=st.floats(-1.0, 1.0)
    ),
)
def test_steering_stack_matches_definition(n, spacing, freqs):
    geom = ArrayGeometry(n, spacing)
    stack = steering_stack(geom, freqs)
    assert stack.shape == freqs.shape[:-1] + (n, freqs.shape[-1])
    m = np.arange(n)[:, None]
    steps = 2.0 * np.pi * spacing * freqs[..., None, :]
    exact = np.exp(1j * (m * steps)) / np.sqrt(n)
    assert np.all(np.abs(stack - exact) <= STEERING_ULPS * (1.0 + m * np.abs(steps)) / np.sqrt(n))
    # each row of the stack holds the bits of that row built alone
    for row, row_freqs in zip(stack, freqs):
        assert np.array_equal(row, steering_stack(geom, row_freqs))


# Units of the Gram-entry error bound: 32 * eps * (1 + N * max |step|).
GRAM_ULPS = 32.0 * np.finfo(float).eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.one_of(st.sampled_from([1, 2, 7, 13, 64, 256, 1000, 1024]), st.integers(1, 1024)),
    spacing=st.floats(0.001, 1.0),
    freqs=hnp.arrays(
        float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5), elements=st.floats(-1.0, 1.0)
    ),
)
def test_gram_stack_matches_dense_product(n, spacing, freqs):
    geom = ArrayGeometry(n, spacing)
    gram = gram_stack(geom, freqs)
    stack = steering_stack(geom, freqs)
    dense = np.conj(np.swapaxes(stack, -1, -2)) @ stack
    # the dense product carries the rounding of phases up to (N - 1) * |step|
    max_step = np.max(2.0 * np.pi * spacing * np.abs(freqs), axis=-1)
    assert np.all(np.abs(gram - dense) <= GRAM_ULPS * (1.0 + n * max_step)[:, None, None])
    assert np.all(np.diagonal(gram, axis1=-2, axis2=-1) == 1.0)
    for row, row_freqs in zip(gram, freqs):
        # each row holds the bits of that row built alone, and the closed form's values
        assert np.array_equal(row, gram_stack(geom, row_freqs))
        for (l, k), entry in np.ndenumerate(row):
            expected = cpo_inner_product(geom, row_freqs[k] - row_freqs[l])
            assert abs(entry - expected) <= 4.0 * np.finfo(float).eps


def objective_grid_reference(params, betas, thetas):
    """The one-expression form of ``objective_grid``, kept verbatim as its oracle."""
    a = params.gain_sq_1
    b = params.gain_sq_2
    uu = params.uu_mag
    vv = params.vv_mag
    nu = params.misalignment
    root_ab = params.mag_a1 * params.mag_a2

    beta = np.asarray(betas, dtype=float).reshape(-1, 1)
    spread = np.sqrt(np.clip(1.0 - beta**2, 0.0, None))
    phi = np.asarray(thetas, dtype=float).reshape(1, -1) + params.vv_phase
    cos_phi = np.cos(phi)
    pair_amp = 2.0 * beta * spread

    num = (
        a * beta**2
        + b * spread**2
        + (b * beta**2 + a * spread**2) * vv**2
        + 2.0 * root_ab * vv * uu * math.cos(nu)
        + pair_amp * (a + b) * vv * cos_phi
        + pair_amp * root_ab * uu * (vv**2 * np.cos(nu + phi) + np.cos(nu - phi))
    )
    den = 1.0 + pair_amp * vv * cos_phi
    return np.where(den > 1e-12, num / np.where(den > 1e-12, den, 1.0) / 2.0, -np.inf)


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


unit_coupling = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0))
two_path_params = st.builds(
    TwoPathParams,
    mag_a1=st.floats(0.0, 10.0),
    mag_a2=st.floats(0.0, 10.0),
    phase_diff=st.floats(-7.0, 7.0),
    uu_mag=unit_coupling,
    uu_phase=st.floats(-7.0, 7.0),
    vv_mag=unit_coupling,
    vv_phase=st.one_of(st.just(0.0), st.floats(-7.0, 7.0)),
)
# beta = 1/sqrt(2) and phi = pi cancel the beam when vv = 1: the masked route
split_axis = hnp.arrays(
    float, st.integers(1, 40), elements=st.one_of(st.floats(0.0, 1.0), st.just(math.sqrt(0.5)))
)
phase_axis = hnp.arrays(
    float, st.integers(1, 40), elements=st.one_of(st.floats(-7.0, 7.0), st.just(math.pi))
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(params=two_path_params, betas=split_axis, thetas=phase_axis)
@example(
    params=TwoPathParams(1.0, 1.0, uu_mag=1.0, vv_mag=1.0),
    betas=np.array([0.0, math.sqrt(0.5), 1.0]),
    thetas=np.array([0.0, math.pi]),
)
def test_objective_grid_matches_one_expression_form(params, betas, thetas):
    grid = objective_grid(params, betas, thetas)
    assert same_bits(grid, objective_grid_reference(params, betas, thetas))
    if params.vv_mag == 1.0 and params.vv_phase == 0.0:
        cancelled = np.isin(betas, math.sqrt(0.5))[:, None] & np.isin(thetas, math.pi)
        assert np.all(np.isneginf(grid[cancelled]))


gain_mags = st.floats(1e-150, 1e3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mag_a1=gain_mags, mag_a2=gain_mags, uu_mag=unit_coupling)
# a kernel that squared by multiplication (a*a for a**2) would round this loss differently
@example(mag_a1=0.7458805370776739, mag_a2=1.0, uu_mag=0.9383804870645365)
# the form a^2 + b^2 + 2ab(2uu^2 - 1) cancels here and reads 0.9999999979
@example(mag_a1=1.1728699829894298, mag_a2=1.1728699854271236, uu_mag=0.0)
def test_v_orth_loss_matches_scalar_expression(mag_a1, mag_a2, uu_mag):
    params = TwoPathParams(mag_a1, mag_a2, uu_mag=uu_mag)
    a, b = params.gain_sq_1, params.gain_sq_2
    # scaling both gains by a power of two is exact and keeps their squares in range
    shift = -math.frexp(max(a, b))[1]
    a, b = math.ldexp(a, shift), math.ldexp(b, shift)
    root = math.sqrt((a - b) ** 2 + 4.0 * a * b * uu_mag**2)
    assert delta_snr_v_orth(params) == (a + b + root) / (2.0 * max(a, b))


@pytest.mark.parametrize("case", list(REGIMES))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    mag_a1=gain_mags,
    mag_a2=gain_mags,
    coupling=st.one_of(unit_coupling, st.floats(0.0, 1e-6)),
    phase_diff=st.one_of(st.just(0.0), st.just(math.pi), st.floats(-7.0, 7.0)),
)
# squared gains near 1e-300: unscaled, every square underflows and the v-orth loss read 0.905
@example(mag_a1=1e-150, mag_a2=0.9e-150, coupling=0.7, phase_diff=0.0)
# rounding takes the v-orth loss to 1 - eps, the bound below
@example(mag_a1=0.8623289211859997, mag_a2=1.1511750756077277, coupling=0.0, phase_diff=0.0)
# the dominant u-parallel beam cancels: the loss is unbounded
@example(mag_a1=1.0, mag_a2=1.0, coupling=1.0, phase_diff=math.pi)
def test_loss_is_at_least_one(case, mag_a1, mag_a2, coupling, phase_diff):
    # The exact loss is >= 1.  For v-orth with a >= b the computed root is >= fl(a - b),
    # since sqrt(fl(y^2)) = |y|; fl(a + b) + fl(a - b) and its rounding lose at most 2u
    # of 2a (u = eps / 2), so the computed loss is >= 1 - eps.
    regime = REGIMES[case]
    couplings = {f"{regime.constrained}_mag": regime.forced, f"{regime.free}_mag": coupling}
    loss = regime.delta_snr(TwoPathParams(mag_a1, mag_a2, phase_diff=phase_diff, **couplings))
    assert loss >= 1.0 - np.finfo(float).eps
    # only a cancelled dominant beam, in the u-parallel regime, loses without bound
    assert loss < math.inf or case == "u-parallel"


# Couplings stay below 0.95: at 1 a parallel regime's optimum cancels to 0 at opposite
# phases, where a relative limit reads rounding noise.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(list(REGIMES)),
    mags=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    phases=st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)),
    coupling=st.floats(0.0, 0.95),
)
def test_regime_optimal_snr_matches_reduced_route(case, mags, phases, coupling):
    paths, tx_geom, rx_geom = _two_path_fixture(case, mags, phases, coupling)
    analytic = REGIMES[case].snr_optimal(TwoPathParams.from_paths(paths, tx_geom, rx_geom))
    reduced = reduced_optimal_beamformer(paths, tx_geom, rx_geom).normalized_snr
    # the limit verify applies to the same check against the dense SVD
    assert abs(reduced - analytic) <= 1e-6 * abs(analytic)


def bisection_reference(geom, magnitude):
    """The 200-step main-lobe bisection, written out in full."""
    lo, hi = 0.0, 1.0 / (geom.num_elements * geom.spacing_wavelengths)
    if magnitude == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(steering.cpo_inner_product(geom, mid)) > magnitude:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


magnitudes = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-15),
    st.floats(0.0, 1e-15).map(lambda x: 1.0 - x),
    st.sampled_from([0.0, 1.0]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(2, 1024), spacing=st.floats(0.05, 1.0), magnitude=magnitudes)
def test_mainlobe_bisection_matches_full_run(n, spacing, magnitude):
    geom = ArrayGeometry(n, spacing)
    assert mainlobe_freq_delta(geom, magnitude) == bisection_reference(geom, magnitude)


def test_mainlobe_bisection_stops_at_its_fixed_point(monkeypatch):
    calls = []
    inner = steering.cpo_inner_product

    def counted(geom, freq_delta):
        calls.append(freq_delta)
        return inner(geom, freq_delta)

    monkeypatch.setattr(steering, "cpo_inner_product", counted)
    mainlobe_freq_delta(ArrayGeometry(16), 0.37)
    assert len(calls) <= 70
