"""Properties over random inputs: the batched Monte Carlo engine, the exact equal-power
phase, the steering stacks and their Grams, the two-path objective grid, the closed-form
regimes, the main-lobe inverse and the L-path bound on the dominant-path loss."""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from conftest import equal_power_grid_snr, random_paths, rotated_cores  # noqa: E402
from mmwbeam import closedform, steering  # noqa: E402
from mmwbeam.beamformer import (  # noqa: E402
    _dominant_snr,
    _gram_factor,
    _herm,
    _hermitian_form,
    _loss_db,
    _optimal_snr,
    _top_eigenvalues,
    bidirectional_beamformer,
    dominant_path_beamformer,
    equal_power_beamformer,
    optimal_beamformer,
    received_snr,
    reduced_optimal_beamformer,
)
from mmwbeam.channel import PathComponent, assemble_channel  # noqa: E402
from mmwbeam.closedform import (  # noqa: E402
    ORTHOGONAL_TOL,
    REGIMES,
    RegimeError,
    TwoPathParams,
    allocation_grid_search,
    delta_snr_v_orth,
    objective_grid,
    snr_dominant_path,
    snr_optimal,
    two_path_objective,
)
from mmwbeam.montecarlo import (  # noqa: E402
    _MIN_GAIN,
    _SCHEME_SNR,
    ANGLE_SAMPLING,
    SCHEMES,
    McConfig,
    _draw_chunk,
    _trial_losses,
    sample_paths,
)
from mmwbeam.steering import (  # noqa: E402
    AngleSpec,
    ArrayGeometry,
    angle_frequencies,
    cpo_inner_product,
    gram_stack,
    mainlobe_freq_delta,
    spatial_frequencies,
    steering_stack,
    steering_vector,
)
from mmwbeam.verify import (  # noqa: E402
    _SUITE_CASES,
    _draw_params,
    _instance_rng,
)
from verify_reference import scan_bounds, two_path_fixture  # noqa: E402

# Losses may dip below zero by rounding only.
LOSS_FLOOR_DB = -1e-12

CONFIG_FIELDS = {
    "seed": st.integers(0, 2**64 - 1),
    "num_paths": st.integers(1, 5),
    "nt": st.integers(1, 64),
    "nr": st.integers(1, 64),
    "spacing_wavelengths": st.floats(0.01, 0.5),
    "angle_sampling": st.sampled_from(ANGLE_SAMPLING),
    "trials": st.integers(1, 40),
}
configs = st.fixed_dictionaries(CONFIG_FIELDS)
# Configs whose spacing reaches 2 wavelengths, so grating lobes too.
wide_configs = st.fixed_dictionaries({**CONFIG_FIELDS, "spacing_wavelengths": st.floats(0.01, 2.0)})


def losses(scheme, **cfg):
    return _trial_losses(McConfig(scheme=scheme, **cfg))[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=wide_configs)
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
    scheme = received_snr(channel, pair.tx, pair.rx)
    return optimal_beamformer(channel).normalized_snr / scheme


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cfg=wide_configs)
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


# Units of the trace-sandwich slack: 16 * eps times the sum of the trace's |terms|,
# which bounds every sum of L^2 products that the trace, the core and the schemes
# round (the worst seen over 6000 random configs was 3 of the 16).
SANDWICH_ULPS = 16.0 * np.finfo(float).eps


def engine_grams(mc):
    """Gains (B, L) and the transmit and receive Grams (B, L, L) of every trial the engine draws."""
    gains, aod, aoa, _ = _draw_chunk(mc, range(mc.trials))
    gram_t = gram_stack(mc.tx_geometry, spatial_frequencies(aod))
    gram_r = gram_stack(mc.rx_geometry, spatial_frequencies(aoa))
    return gains, gram_t, gram_r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=wide_configs)
def test_optimum_lies_in_the_trace_sandwich(cfg):
    # With A = diag(g) G_t diag(g)^H, L * optimal is the largest eigenvalue of A G_r.  Its
    # L eigenvalues are those of a product of two PSD matrices, so none is negative:
    # the largest lies between their mean and their sum tr(A G_r), and bounds every
    # scheme.  No eigensolver enters the bounds.
    mc = McConfig(**cfg)
    gains, gram_t, gram_r = engine_grams(mc)
    size = mc.num_paths
    terms = gains[:, :, None] * gram_t * np.conj(gains[:, None, :]) * np.swapaxes(gram_r, -1, -2)
    trace = terms.sum(axis=(-1, -2)).real
    slack = SANDWICH_ULPS * np.abs(terms).sum(axis=(-1, -2))
    optimal = size * _optimal_snr(gains, gram_t, gram_r)[0]
    assert np.all(trace / size - slack <= optimal)
    assert np.all(optimal <= trace + slack)
    for scheme, kernel in _SCHEME_SNR.items():
        if scheme != "equal_power" or size == 2:
            snr = kernel(gains, gram_t, gram_r)[0]
            assert np.all(snr >= 0.0)
            assert np.all(size * snr <= optimal + slack)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=wide_configs)
@example(cfg={"seed": 9, "num_paths": 5, "nt": 1, "nr": 3, "spacing_wavelengths": 2.0,
              "angle_sampling": "uniform_angle", "trials": 183})
def test_optimum_is_unchanged_by_swapping_the_ends(cfg):
    # H^T has the transmit steering vectors conj(u_l) and the receive ones conj(v_l):
    # its Grams are conj(G_r) and conj(G_t), and it has the singular values of H.
    gains, gram_t, gram_r = engine_grams(McConfig(**cfg))
    optimal = _optimal_snr(gains, gram_t, gram_r)[0]
    swapped = _optimal_snr(gains, np.conj(gram_r), np.conj(gram_t))[0]
    assert np.max(np.abs(swapped - optimal) / optimal) <= 2e-12


def chunk_losses(kernel, gains, gram_t, gram_r):
    """Loss (dB) of each trial of a chunk, as the engine takes it from the two kernels."""
    optimal = _optimal_snr(gains, gram_t, gram_r)[0]
    scheme = kernel(gains, gram_t, gram_r)[0]
    return np.array([_loss_db(o, s) for o, s in zip(optimal.tolist(), scheme.tolist())])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=wide_configs)
def test_losses_keep_their_values_at_gains_just_above_the_floor(cfg):
    # A chunk whose largest gain is just above _MIN_GAIN is kept, not redrawn: its squared
    # gains are near 1e-300, and every loss must read as at unit scale.
    mc = McConfig(**cfg)
    gains, gram_t, gram_r = engine_grams(mc)
    tiny = gains * (1.1 * _MIN_GAIN / np.abs(gains).max())
    for scheme, kernel in _SCHEME_SNR.items():
        if scheme != "equal_power" or mc.num_paths == 2:
            unit = chunk_losses(kernel, gains, gram_t, gram_r)
            scaled = chunk_losses(kernel, tiny, gram_t, gram_r)
            finite = np.isfinite(unit)
            assert np.array_equal(np.isfinite(scaled), finite)
            assert np.all(np.abs(scaled[finite] - unit[finite]) <= 1e-12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_paths=st.sampled_from([1, 2, 3, 5]),
    nt=st.integers(1, 64),
    nr=st.integers(1, 64),
    spacings=st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0)),
    phase=st.floats(-7.0, 7.0),
)
def test_per_channel_optimum_is_invariant(seed, num_paths, nt, nr, spacings, phase):
    rng = np.random.default_rng(seed)
    paths = random_paths(rng, num_paths)
    tx_geom, rx_geom = ArrayGeometry(nt, spacings[0]), ArrayGeometry(nr, spacings[1])
    optimal = reduced_optimal_beamformer(paths, tx_geom, rx_geom).normalized_snr
    # H^H: the ends swap and the gains are conjugated
    adjoint = [PathComponent(np.conj(p.gain), aod=p.aoa, aoa=p.aod) for p in paths]
    rotated = [PathComponent(p.gain * np.exp(1j * phase), p.aod, p.aoa) for p in paths]
    permuted = [paths[k] for k in rng.permutation(num_paths)]
    for changed, tx, rx in (
        (adjoint, rx_geom, tx_geom),
        (rotated, tx_geom, rx_geom),
        (permuted, tx_geom, rx_geom),
    ):
        snr = reduced_optimal_beamformer(changed, tx, rx).normalized_snr
        assert abs(snr - optimal) <= 2e-12 * optimal


PER_CHANNEL = {
    "optimal": reduced_optimal_beamformer,
    "dominant": dominant_path_beamformer,
    "bidirectional": bidirectional_beamformer,
    "equal_power": equal_power_beamformer,
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(list(PER_CHANNEL)),
    num_paths=st.sampled_from([1, 2, 3, 5]),
    nt=st.integers(1, 64),
    nr=st.integers(1, 64),
    spacings=st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0)),
    log_scale=st.floats(-150.0, 150.0),
)
def test_per_channel_pair_is_read_from_its_paths(
    seed, scheme, num_paths, nt, nr, spacings, log_scale
):
    num_paths = 2 if scheme == "equal_power" else num_paths
    rng = np.random.default_rng(seed)
    paths = [PathComponent(10.0**log_scale * p.gain, p.aod, p.aoa)
             for p in random_paths(rng, num_paths)]
    tx_geom, rx_geom = ArrayGeometry(nt, spacings[0]), ArrayGeometry(nr, spacings[1])
    channel = assemble_channel(paths, tx_geom, rx_geom)
    mismatched = assemble_channel(random_paths(rng, num_paths), tx_geom, rx_geom)
    build = PER_CHANNEL[scheme]
    pair = build(paths, tx_geom, rx_geom)
    # the channel a caller passes is not read
    for other in (build(paths, tx_geom, rx_geom, channel=ch) for ch in (channel, mismatched)):
        assert same_bits(other.tx, pair.tx) and same_bits(other.rx, pair.rx)
        assert other.normalized_snr == pair.normalized_snr
    assert abs(np.linalg.norm(pair.rx) - 1.0) <= 1e-12
    # abs=0: approx's default absolute tolerance would pass any SNR of tiny gains
    assert received_snr(channel, pair.tx, pair.rx) == pytest.approx(
        pair.normalized_snr, rel=1e-12, abs=0.0)
    if scheme != "bidirectional":
        # both beams turn by one phase: rx^H H tx = ||H tx|| of the matched filter
        amp = np.vdot(pair.rx, channel.entries @ pair.tx)
        assert amp.real > 0.0 and abs(amp.imag) <= 1e-12 * amp.real


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
    # each entry is the definition itself, so the two agree bit for bit
    assert np.array_equal(stack, np.exp(1j * (m * steps)) / np.sqrt(n))
    # each row of the stack holds the bits of that row built alone
    for row, row_freqs in zip(stack, freqs):
        assert np.array_equal(row, steering_stack(geom, row_freqs))


# Units of the Gram-entry error bound: 32 * eps * (1 + N * max |step|).
GRAM_ULPS = 32.0 * np.finfo(float).eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.one_of(st.sampled_from([1, 2, 7, 13, 64, 256, 1000, 1024]), st.integers(1, 1024)),
    spacing=st.floats(0.001, 2.0),
    freqs=hnp.arrays(
        float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5), elements=st.floats(-1.0, 1.0)
    ),
)
# a separation 1e-5 beyond a grating lobe: sin(N psi) of the unreduced psi loses digits
@example(n=3, spacing=1.0, freqs=np.array([[-0.5, 0.50001]]))
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
        # each row holds the bits of that row built alone, and of the scalar closed form
        assert np.array_equal(row, gram_stack(geom, row_freqs))
        for (l, k), entry in np.ndenumerate(row):
            assert entry == cpo_inner_product(geom, row_freqs[k] - row_freqs[l])


# Units of the bound on the two-path form against the stacked product, in eps times
# (|M|^T |G_r| |M|)[j, k].  With u = eps / 2, a complex product rounds within sqrt(5) u
# (Brent, Percival and Zimmermann 2007) and a sum within u, so each 2 x 2 product
# level of the entrywise form adds at most (sqrt(5) + 1) u and both levels about
# 6.5 u = 3.3 eps, to first order.  BLAS may fuse and reorder each entry's four real
# products and three sums, at most 4 u a level, 4 eps for both.  7.3 eps apart at
# most; 8 leaves the second-order terms room.  A rounding that underflows errs by up
# to half a subnormal spacing instead; an entry takes fewer than 16 roundings on
# each route, so 16 spacings cover both.
FORM_ULPS = 8.0 * np.finfo(float).eps
FORM_FLOOR = 16.0 * np.finfo(float).smallest_subnormal


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    nt=st.one_of(st.just(1), st.integers(1, 256)),
    nr=st.one_of(st.just(1), st.integers(1, 256)),
    spacing=st.floats(0.01, 2.0),
    coincident=st.sampled_from(["none", "departures", "arrivals", "both"]),
    power=st.sampled_from([-500, 0, 500]),
)
def test_two_path_form_matches_the_stacked_product(seed, nt, nr, spacing, coincident, power):
    # coincident paths and single-element arrays give |rho| = 1 and a singular Gram
    rng = np.random.default_rng(seed)
    batch = 8
    unit = rng.standard_normal((batch, 2)) + 1j * rng.standard_normal((batch, 2))
    gains = unit * 2.0**power
    aod, aoa = rng.uniform(0.0, math.pi, (2, batch, 2))
    if coincident in ("departures", "both"):
        aod[:, 1] = aod[:, 0]
    if coincident in ("arrivals", "both"):
        aoa[:, 1] = aoa[:, 0]
    gram_t = gram_stack(ArrayGeometry(nt, spacing), spatial_frequencies(aod))
    gram_r = gram_stack(ArrayGeometry(nr, spacing), spatial_frequencies(aoa))
    # the factors of the optimum and of the equal-power scheme
    for factor in (_gram_factor(gram_t), gram_t):
        form = _hermitian_form(gains, factor, gram_r)
        mapped = gains[:, :, None] * factor
        reference = _herm(mapped) @ (gram_r @ mapped)
        size = np.swapaxes(np.abs(mapped), -1, -2) @ (np.abs(gram_r) @ np.abs(mapped))
        assert np.all(np.abs(form - reference) <= FORM_ULPS * size + FORM_FLOOR)
        if power == 500:
            # nothing under- or overflows: the scale by a power of two is exact
            assert np.array_equal(form, _hermitian_form(unit, factor, gram_r) * 2.0**1000)
        for b in range(batch):
            rows = slice(b, b + 1)
            assert np.array_equal(form[rows], _hermitian_form(gains[rows], factor[rows],
                                                              gram_r[rows]))


# The L = 3 closed form of a core's top eigenvalue against eigvalsh of the same core, in
# units of its spectral radius: eigvalsh is backward stable to a few eps of it, and the
# closed form to a few eps too, since the rows whose error could grow (top two
# eigenvalues within about 1e-3 of the spread) go to eigvalsh.
TOP_RTOL = 1e-13

# Spectra of built cores, each of a row's uniform u in [0, 1): degenerate tops, lower
# ranks and the zero core.
BUILT_SPECTRA = {
    "double": lambda u: (1.0, 1.0, u),
    "triple": lambda u: (1.0, 1.0, 1.0),
    "rank1": lambda u: (1.0, 0.0, 0.0),
    "rank2": lambda u: (1.0, u, 0.0),
    "zero": lambda u: (0.0, 0.0, 0.0),
}


def built_cores(rng, kind, rotated, batch=8):
    """Hermitian cores (B, 3, 3) ``U diag(spectrum) U^H``, with U random unitary or the identity.

    ``near_scalar`` is ``u I`` plus a Hermitian perturbation of size 1e-120 u: its spread
    p cubed would underflow.
    """
    if kind == "near_scalar":
        noise = rng.standard_normal((batch, 3, 3)) + 1j * rng.standard_normal((batch, 3, 3))
        scale = 0.5 + rng.random(batch)[:, None, None]
        return scale * (np.eye(3) + 1e-120 * (noise + _herm(noise)))
    spectra = np.array([BUILT_SPECTRA[kind](u) for u in rng.random(batch)])
    return rotated_cores(rng, spectra) if rotated else spectra[:, None, :] * np.eye(3) + 0j


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from(["engine", "near_scalar", *BUILT_SPECTRA]),
    rotated=st.booleans(),
    nt=st.sampled_from([1, 2, 3, 64]),
    nr=st.sampled_from([1, 2, 4, 64]),
    coincident=st.sampled_from(["none", "departures", "arrivals"]),
    scale=st.sampled_from(["tiny", "unit", "huge", "floor"]),
)
def test_three_path_top_eigenvalue_matches_eigvalsh(seed, source, rotated, nt, nr, coincident,
                                                    scale):
    rng = np.random.default_rng(seed)
    if source == "engine":
        # the optimum's core on the engine's draws, singular Grams included
        cfg = McConfig(num_paths=3, trials=16, seed=seed, nt=nt, nr=nr)
        gains, aod, aoa, _ = _draw_chunk(cfg, range(cfg.trials))
        if coincident == "departures":
            aod[:, 1] = aod[:, 0]
        if coincident == "arrivals":
            aoa[:, 2] = aoa[:, 0]
        peak = np.abs(gains).max(axis=-1, keepdims=True)
        gains = gains * {"tiny": 2.0**-500, "unit": 1.0, "huge": 2.0**500,
                         "floor": 1.0001 * _MIN_GAIN / peak}[scale]
        gram_t = gram_stack(cfg.tx_geometry, spatial_frequencies(aod))
        gram_r = gram_stack(cfg.rx_geometry, spatial_frequencies(aoa))
        core = _hermitian_form(gains, _gram_factor(gram_t), gram_r)
    else:
        # a core is of degree two in the gains
        core = built_cores(rng, source, rotated) * {
            "tiny": 2.0**-1000, "unit": 1.0, "huge": 2.0**1000, "floor": _MIN_GAIN**2}[scale]
    top = _top_eigenvalues(core)
    spectrum = np.linalg.eigvalsh(core)
    assert np.all(np.isfinite(top))
    assert np.all(np.abs(top - spectrum[:, -1]) <= TOP_RTOL * np.abs(spectrum).max(axis=-1))
    if source in ("triple", "zero") and not rotated:
        # a scalar core has no spread: its top eigenvalue is its diagonal
        assert np.array_equal(top, core[:, 0, 0].real)


def objective_grid_reference(params, betas, thetas):
    """The one-expression form of ``objective_grid``, kept verbatim as its oracle."""
    a = params.mag_a1 * params.mag_a1
    b = params.mag_a2 * params.mag_a2
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


def unit_scaled(params, k=0):
    """``params`` with both gains scaled by ``2**k`` times the power of two that takes the
    larger into [0.5, 1).

    The scan and ``objective_grid`` evaluate their terms on gains scaled the
    latter way, so ``k`` leaves their scaled terms as they are while both
    magnitudes stay normal.
    """
    shift = k - math.frexp(max(params.mag_a1, params.mag_a2))[1]
    return TwoPathParams(
        math.ldexp(params.mag_a1, shift), math.ldexp(params.mag_a2, shift),
        params.phase_diff, params.uu_mag, params.uu_phase, params.vv_mag, params.vv_phase,
    )


def assert_scan_is_bounded(params, num_beta, num_theta, window):
    """The scan's rows against ``objective_grid``'s rows and ``snr_optimal``, within the bounds.

    Each row's scanned maximum is at least the grid's row maximum and at most the
    optimum, within the rounding bounds of ``verify_reference.scan_bounds``; a
    near-singular row is the grid's row maximum at its first phase.  The search
    takes the first best row, and its point evaluates to its value within the
    bounds: from above, as no phase exceeds the row's maximum, and from below, as
    the rounding of the maximizing phase enters the objective at second order.
    """
    point, value = allocation_grid_search(params, num_beta, num_theta, window)
    betas = np.linspace(0.0, 1.0, num_beta)
    if window is not None:
        betas = np.clip(np.linspace(window[0], window[1], num_beta), 0.0, 1.0)
    thetas = np.linspace(0.0, 2.0 * math.pi, num_theta, endpoint=False)
    grid = objective_grid(params, betas, thetas)
    # one set per row: each row's own scan
    rows = closedform._scans(closedform._grid_terms([params] * num_beta), betas[:, None], num_theta)
    values = np.array([row_value for _, row_value in rows])
    delta = closedform._grid_columns(closedform._grid_terms([params]), betas[None])[3][0]
    singular = np.abs(delta) > 1.0 - 1e-6
    top = grid.max(axis=1)
    assert same_bits(values[singular], top[singular])
    for k in np.flatnonzero(singular):
        assert rows[k][0].theta == thetas[int(np.argmax(grid[k]))]
    scan, grid_bound, optimum = scan_bounds(params, betas)
    tested = ~singular
    assert np.all(values[tested] >= top[tested] - (scan + grid_bound)[tested])
    assert np.all(values[tested] <= snr_optimal(params) + scan[tested] + optimum)
    first = int(np.argmax(values))
    assert rows[first][0] == point and same_bits(np.float64(value), values[first])
    objective = two_path_objective(params, point)
    if singular[first]:
        assert same_bits(np.float64(objective), np.float64(value))
    else:
        assert abs(objective - value) <= scan[first] + grid_bound[first]
    return point


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    params=two_path_params.map(unit_scaled),
    num_beta=st.one_of(st.just(201), st.integers(2, 3 * 64 + 1)),
    num_theta=st.one_of(st.just(360), st.integers(2, 64)),
    window=st.one_of(st.none(), st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))),
)
# vv = 1: the beam at beta = sqrt(1/2), theta = pi cancels, so that row is near singular
# and searched on 2 phases with the masked division; the window is clipped at 0
@example(params=TwoPathParams(1.0, 1.0, uu_mag=1.0, vv_mag=1.0), num_beta=64 + 7,
         num_theta=2, window=(-0.5, math.sqrt(0.5)))
# a window clipped at both ends
@example(params=TwoPathParams(0.6, 0.9, uu_mag=0.3, vv_mag=0.4), num_beta=64 + 3,
         num_theta=360, window=(-0.25, 1.25))
# a flat objective: every row ties up to rounding
@example(params=TwoPathParams(1.0, 1.0), num_beta=201, num_theta=360, window=None)
# a window wholly above [0, 1]: every row clips to beta = 1 and they tie exactly
@example(params=TwoPathParams(0.6, 0.9, uu_mag=0.3, vv_mag=0.4), num_beta=201,
         num_theta=360, window=(1.2, 1.5))
# a descending window
@example(params=TwoPathParams(0.6, 0.9, uu_mag=0.3, vv_mag=0.4), num_beta=201,
         num_theta=360, window=(0.9, 0.1))
# vv = 1 with masked rows on 4 phases
@example(params=TwoPathParams(1.0, 1.0, uu_mag=0.3, vv_mag=1.0), num_beta=201,
         num_theta=4, window=(-0.5, math.sqrt(0.5)))
# the cancelling set: equal gains, uu = vv = 1 and nu = pi, where the channel is 0
@example(params=TwoPathParams(1.0, 1.0, phase_diff=math.pi, uu_mag=1.0, vv_mag=1.0),
         num_beta=201, num_theta=360, window=(math.sqrt(0.5), 0.8))
# a huge transmit phase rounds the grid's phases nu +- phi by about 1e-10
@example(params=TwoPathParams(0.6, 0.9, phase_diff=1.0, uu_mag=0.3, vv_mag=1.0, vv_phase=1e6),
         num_beta=201, num_theta=360, window=None)
@example(params=TwoPathParams(0.6, 0.9, phase_diff=1.0, uu_mag=0.3, vv_mag=0.9, vv_phase=1e6),
         num_beta=201, num_theta=360, window=None)
# subnormal values: every row clips to beta = 0, where the doubled objective is 2147
# smallest subnormals
@example(params=TwoPathParams(0.9, 1.03e-160), num_beta=201, num_theta=360,
         window=(-0.5, -0.1))
# a maximizer midway between grid phases 10 and 11: the scan's rows exceed the grid's
@example(params=TwoPathParams(0.6, 0.9, vv_mag=0.4, vv_phase=-21 * math.pi / 360), num_beta=201,
         num_theta=360, window=None)
# every row clips to beta = 0: constant rows
@example(params=TwoPathParams(0.6, 0.9, uu_mag=0.3, vv_mag=0.4, vv_phase=0.5), num_beta=201,
         num_theta=360, window=(-1.0, -0.5))
def test_scan_holds_each_grid_row_maximum_below_the_optimum(params, num_beta, num_theta, window):
    assert_scan_is_bounded(params, num_beta, num_theta, window)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(params=two_path_params, k=st.integers(-250, 250))
# with x**2 (libm's pow) for a square, the search, on gains scaled back into [0.5, 1),
# and objective_grid squared different mantissas, and their values differed in the last bit
@example(params=TwoPathParams(10.0, 9.999999999999998), k=-4)
def test_scan_at_gains_scaled_by_a_power_of_two(params, k):
    point, value = allocation_grid_search(unit_scaled(params))
    scaled_point, scaled_value = allocation_grid_search(unit_scaled(params, k))
    assert scaled_point == point
    if abs(value) >= sys.float_info.min and abs(scaled_value) >= sys.float_info.min:
        assert scaled_value == math.ldexp(value, 2 * k)
    # objective_grid scales alike: an entry normal at both scales scales exactly by 2**(2k)
    betas = np.linspace(0.0, 1.0, 201)
    thetas = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    unit = objective_grid(unit_scaled(params), betas, thetas)
    grid = objective_grid(unit_scaled(params, k), betas, thetas)
    finite = np.isfinite(unit)
    assert np.array_equal(np.isfinite(grid), finite)
    assert same_bits(grid[~finite], unit[~finite])
    normal = finite & (np.abs(unit) >= sys.float_info.min) & (np.abs(grid) >= sys.float_info.min)
    assert same_bits(grid[normal], np.ldexp(unit[normal], 2 * k))


@pytest.mark.parametrize("suite", ["prop2", "prop3", "prop4"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 499))
def test_scan_on_verify_draws_is_bounded_by_the_grid_and_the_optimum(suite, seed, index):
    # both passes of the suite's scan: the coarse axis, then the window around its point
    params = unit_scaled(_draw_params(_instance_rng(seed, index), REGIMES[_SUITE_CASES[suite]]))
    point = assert_scan_is_bounded(params, 201, 360, None)
    step = 1.0 / 200
    assert_scan_is_bounded(params, 201, 360, (point.beta - step, point.beta + step))


gain_mags = st.floats(1e-150, 1e3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mag_a1=gain_mags, mag_a2=gain_mags, uu_mag=unit_coupling)
# a kernel that squared by multiplication (a*a for a**2) would round this loss differently
@example(mag_a1=0.7458805370776739, mag_a2=1.0, uu_mag=0.9383804870645365)
# the form a^2 + b^2 + 2ab(2uu^2 - 1) cancels here and reads 0.9999999979
@example(mag_a1=1.1728699829894298, mag_a2=1.1728699854271236, uu_mag=0.0)
def test_v_orth_loss_matches_scalar_expression(mag_a1, mag_a2, uu_mag):
    params = TwoPathParams(mag_a1, mag_a2, uu_mag=uu_mag)
    a, b = params.mag_a1 * params.mag_a1, params.mag_a2 * params.mag_a2
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
# equal gains just above ORTHOGONAL_TOL: a u-orth split with 1/vv^2 terms divided by zero
@example(mag_a1=1.0, mag_a2=1.0, coupling=1e-9, phase_diff=0.0)
@example(mag_a1=1.0, mag_a2=1.0, coupling=5e-9, phase_diff=0.0)
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


@pytest.mark.parametrize("case", list(REGIMES))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    mag_a1=gain_mags,
    mag_a2=gain_mags,
    free=st.one_of(st.just(ORTHOGONAL_TOL), st.floats(ORTHOGONAL_TOL, 1.0), st.just(1.0)),
    phase_diff=st.floats(-7.0, 7.0),
)
def test_closed_forms_accept_exactly_their_row(case, mag_a1, mag_a2, free, phase_diff):
    # each closed form a REGIMES row names holds at the row's forced coupling and
    # refuses a constrained coupling of 0.5
    regime = REGIMES[case]
    names = [n for n in (regime.allocation, regime.loss) if n is not None]

    def params(constrained):
        couplings = {f"{regime.constrained}_mag": constrained, f"{regime.free}_mag": free}
        return TwoPathParams(mag_a1, mag_a2, phase_diff=phase_diff, **couplings)

    for name in names:
        getattr(closedform, name)(params(regime.forced))
        with pytest.raises(RegimeError):
            getattr(closedform, name)(params(0.5))


@pytest.mark.parametrize("case", list(REGIMES))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    mag_a1=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    mag_a2=st.floats(1e-3, 10.0),
    coupling=unit_coupling,
    phase_diff=st.floats(-7.0, 7.0),
    k=st.integers(-560, 500),
)
# scaled to 1.3e154 and 1.2e154: unscaled, 2 a1 a2 overflowed, and times vv = 0 read NaN
@example(mag_a1=math.ldexp(1.3e154, -500), mag_a2=math.ldexp(1.2e154, -500), coupling=0.5,
         phase_diff=0.0, k=500)
def test_snr_closed_forms_scale_exactly(case, mag_a1, mag_a2, coupling, phase_diff, k):
    # each SNR is of degree one in the squared gains, and a power of two scales exactly
    regime = REGIMES[case]
    couplings = {f"{regime.constrained}_mag": regime.forced, f"{regime.free}_mag": coupling}
    unit = TwoPathParams(mag_a1, mag_a2, phase_diff=phase_diff, **couplings)
    scaled = TwoPathParams(
        math.ldexp(mag_a1, k), math.ldexp(mag_a2, k), phase_diff=phase_diff, **couplings
    )
    for snr in (snr_dominant_path, snr_optimal):
        try:
            expected = math.ldexp(snr(unit), 2 * k)
        except OverflowError:  # beyond the float range the scaled SNR reads +inf
            assert snr(scaled) == math.inf
            continue
        if abs(expected) >= sys.float_info.min:
            assert snr(scaled) == expected


def coupling_bound(n, spacing, freqs):
    """Largest difference rounding allows between a measured coupling and the dense product.

    Both routes read the same frequency bits.  With u = eps / 2 and s the largest |step|
    = 2 pi d |f| of the two paths, so that |psi| <= s: the dense product rounds each
    phase m * step by at most 3u m s and each of its N terms by about 11u of its size 1/N,
    and sums them with at most (N - 1) u per component, in all under u (11 + 3 N s + 1.5 N).
    The kernel's psi, reduction included, is off by at most 5u s, and the kernel's slope in
    psi is at most 2 (N - 1); its phase (N - 1) psi and ratio add u N s and about 8u, in
    all under u (9 + 11 N s).  Reading a coupling back from its magnitude and phase adds
    about 5u.  The sum is under eps (13 + 7 N s + N), which the bound rounds up.
    """
    step = 2.0 * math.pi * spacing * max(abs(f) for f in freqs)
    return np.finfo(float).eps * (16.0 + 8.0 * n * step + n)


azimuths = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    nt=st.integers(1, 64),
    nr=st.integers(1, 64),
    spacing=st.floats(0.001, 2.0),
    angles=st.tuples(azimuths, azimuths, azimuths, azimuths),
)
# departures 1e-5 in frequency beyond a grating lobe, arrivals on the same frequency
@example(nt=64, nr=4, spacing=1.0, angles=(math.acos(-0.5), 1.0, math.acos(0.50001), 1.0))
def test_measured_couplings_match_the_dense_product(nt, nr, spacing, angles):
    tx_geom, rx_geom = ArrayGeometry(nt, spacing), ArrayGeometry(nr, spacing)
    aod1, aoa1, aod2, aoa2 = (AngleSpec(a) for a in angles)
    paths = [PathComponent(1.0, aod1, aoa1), PathComponent(0.5j, aod2, aoa2)]
    params = TwoPathParams.from_paths(paths, tx_geom, rx_geom)
    for end, geom, pair in (("uu", rx_geom, (aoa1, aoa2)), ("vv", tx_geom, (aod1, aod2))):
        dense = np.vdot(steering_vector(geom, pair[0]), steering_vector(geom, pair[1]))
        mag, phase = getattr(params, f"{end}_mag"), getattr(params, f"{end}_phase")
        bound = coupling_bound(geom.num_elements, spacing, angle_frequencies(pair))
        assert abs(mag - abs(dense)) <= bound
        assert abs(mag * np.exp(1j * phase) - dense) <= bound


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
    paths, tx_geom, rx_geom = two_path_fixture(case, mags, phases, coupling)
    analytic = snr_optimal(TwoPathParams.from_paths(paths, tx_geom, rx_geom))
    reduced = reduced_optimal_beamformer(paths, tx_geom, rx_geom).normalized_snr
    # both are exact up to rounding: the worst over 4000 random draws is about 3e-15
    assert abs(reduced - analytic) <= 1e-12 * abs(analytic)


def kernel_snr(params):
    """``_optimal_snr`` on the 2 x 2 Grams of ``params``, its misalignment on path 1's gain.

    The SNR depends on the phases only through the misalignment, so this puts it all on
    the gain and keeps both Grams real: both routes then read the same float ``nu``.
    """
    gains = np.array([[params.mag_a1 * np.exp(1j * params.misalignment), params.mag_a2]])
    gram_t, gram_r = (
        np.array([[[1.0, mag], [mag, 1.0]]], dtype=complex)
        for mag in (params.vv_mag, params.uu_mag)
    )
    return float(_optimal_snr(gains, gram_t, gram_r)[0][0])


# Bound, in eps of (a + b) / 2, on |snr_optimal - kernel_snr|.  With s = a + b, u = eps / 2
# and lambda = 2 SNR <= 2s the top eigenvalue of each route's 2 x 2 core: snr_optimal reads
# a, b, r and fl(vv^2) (taken as the exact coupling, which moves lambda by at most u s)
# within u, cos and sin within u; each entry sums at most three products of at most four
# inputs of size at most s, so C00, C11 and |C01| are off by at most 12us, 4us and 14us.
# By Weyl's inequality lambda moves by at most 12us + 14us, and the final sum, hypot and
# halvings add 6us: 33us in all.  The kernel's factor and complex products put its entries
# within about 16us each, and a pivot at most eps zeroed moves G_t by eps: under 40us.
# So the SNRs, lambda / 2, differ by under 37us = 37 eps (s / 2), rounded up here.  Over
# 3000 draws per regime, between them and on the set below, the worst seen was 3.4 eps.
SNR_OPTIMAL_EPS = 40.0
gain_or_zero = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
phase_floats = st.floats(-7.0, 7.0)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from([*REGIMES, "between", "cancelling"]),
    mags=st.tuples(gain_or_zero, gain_or_zero),
    couplings=st.tuples(unit_coupling, unit_coupling),
    phases=st.tuples(phase_floats, phase_floats, phase_floats),
)
# equal gains, uu = vv and nu = pi, where the short form of |C01| cancels
@example(kind="cancelling", mags=(1.0, 1.0), couplings=(0.6, 0.6), phases=(0.0, 0.0, 0.0))
def test_snr_optimal_matches_the_kernel(kind, mags, couplings, phases):
    fields = dict(zip(("uu_mag", "vv_mag"), couplings))
    fields.update(zip(("phase_diff", "uu_phase", "vv_phase"), phases))
    if kind in REGIMES:
        fields[f"{REGIMES[kind].constrained}_mag"] = REGIMES[kind].forced
    elif kind == "cancelling":
        mags = (mags[0], mags[0])
        fields.update(vv_mag=fields["uu_mag"], phase_diff=math.pi, uu_phase=0.0, vv_phase=0.0)
    params = TwoPathParams(*mags, **fields)
    bound = SNR_OPTIMAL_EPS * np.finfo(float).eps * (mags[0] ** 2 + mags[1] ** 2) / 2.0
    assert abs(snr_optimal(params) - kernel_snr(params)) <= bound


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    mags=st.tuples(gain_mags, gain_mags),
    uu_mag=unit_coupling,
    phases=st.tuples(phase_floats, phase_floats, phase_floats),
)
# the dominant beam's sum rounds to -1.1e-16 here; both SNRs read 0
@example(mags=(0.9222109257625241, 0.9222109262438443), uu_mag=1.0, phases=(math.pi, 0.0, 0.0))
def test_snr_optimal_at_parallel_transmit_vectors_is_the_dominant_path_snr(mags, uu_mag, phases):
    # at vv = 1 the core is C00 alone, the dominant beam's SNR term for term
    phase = dict(zip(("phase_diff", "uu_phase", "vv_phase"), phases))
    params = TwoPathParams(*mags, uu_mag=uu_mag, vv_mag=1.0, **phase)
    assert snr_optimal(params) == snr_dominant_path(params)


# Bound, in eps of (a + b) / 2, on how far snr_optimal may read below snr_dominant_path.
# Exactly, the top eigenvalue lambda of the core is at least the dominant beam's doubled
# SNR D, a Rayleigh quotient of it.  Both read the same a, b, r, fl(vv^2), cos and sin, and
# with s = a + b and u = eps / 2 (see SNR_OPTIMAL_EPS) lambda is computed within 33us; D
# sums the terms of C00, so it is within the 12us of C00, and the max adds nothing.  So the
# computed 2 SNRs differ from lambda >= D by at most 45us, and the SNRs by 45us / 2 =
# 22.5 eps (s / 2), rounded up here.  The bound must be absolute: near the cancelling set
# D is a small residue of s and the same rounding is a large share of it (at gains 1.2246
# and 1.2260, uu = 0.972, vv = 1 - eps / 2 and nu = pi the optimum read 24 eps of the
# dominant SNR below it).  On the draws below the optimum never read below the dominant
# SNR; over 200 000 draws near the cancelling set the worst was 0.68 eps (s / 2).
DOMINANT_EPS = 24.0


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from([*REGIMES, "between", "cancelling"]),
    mags=st.tuples(gain_or_zero, gain_or_zero),
    couplings=st.tuples(unit_coupling, unit_coupling),
    phases=st.tuples(phase_floats, phase_floats, phase_floats),
    spread=st.floats(-1e-8, 1e-8),
)
# the dominant beam's sum rounded to -1.1e-16 here, and its SNR read below 0
@example(kind="cancelling", mags=(0.9222109257625241, 0.0), couplings=(0.0, 0.0),
         phases=(0.0, 0.0, 0.0), spread=5.219198406791747e-10)
def test_snr_optimal_is_at_least_the_dominant_path_snr(kind, mags, couplings, phases, spread):
    fields = dict(zip(("uu_mag", "vv_mag"), couplings))
    fields.update(zip(("phase_diff", "uu_phase", "vv_phase"), phases))
    if kind in REGIMES:
        fields[f"{REGIMES[kind].constrained}_mag"] = REGIMES[kind].forced
    elif kind == "cancelling":
        # near-equal gains on parallel vectors at both ends, in opposite phase
        mags = (mags[0], mags[0] * (1.0 + spread))
        fields.update(uu_mag=1.0, vv_mag=1.0, phase_diff=math.pi, uu_phase=0.0, vv_phase=0.0)
    params = TwoPathParams(*mags, **fields)
    dominant = snr_dominant_path(params)
    assert dominant >= 0.0
    bound = DOMINANT_EPS * np.finfo(float).eps * (mags[0] ** 2 + mags[1] ** 2) / 2.0
    assert snr_optimal(params) >= dominant - bound


eps = sys.float_info.epsilon
mainlobe_magnitudes = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 1e-300, 0.33]),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(0.0, 1e-15),
    st.floats(0.0, 1e-15).map(lambda x: 1.0 - x),
    st.integers(1, 400).map(lambda k: k * eps),
    st.integers(1, 400).map(lambda k: 1.0 - k * eps),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(n=st.integers(2, 1024), spacing=st.floats(0.001, 2.0, exclude_max=True),
       magnitude=mainlobe_magnitudes)
# verify's transmit fixture, the magnitudes nearest 1 and 0, and one whose iterates end in
# a two-cycle rather than a short step
@example(n=16, spacing=0.5, magnitude=0.33)
@example(n=2, spacing=0.5, magnitude=1.0 - eps / 2)
@example(n=1024, spacing=0.001, magnitude=5e-324)
@example(n=1000, spacing=0.5, magnitude=0.95)
def test_mainlobe_inverse_lands_within_its_bound(n, spacing, magnitude):
    # mainlobe_freq_delta's docstring derives the 32 eps bound.  Each step takes two cosines,
    # so 128 of them mean the 64-step cap was reached; away from both ends of the lobe the
    # iteration took at most 13 steps for every N from 2 to 1024 (psi does not see d)
    cosines = []

    def counted_cos(x):
        cosines.append(x)
        return math.cos(x)

    geom = ArrayGeometry(n, spacing)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steering, "math", SimpleNamespace(**{**vars(math), "cos": counted_cos}))
        delta = mainlobe_freq_delta(geom, magnitude)
    assert 0.0 <= delta <= 1.0 / (n * spacing)
    if magnitude in (0.0, 1.0):
        assert delta == (1.0 - magnitude) / (n * spacing)
    assert abs(abs(cpo_inner_product(geom, delta)) - magnitude) <= 32 * eps
    if magnitude < 1.0 - 400 * eps:
        assert len(cosines) < 128
    if 1e-3 <= magnitude <= 1.0 - 1e-3:
        assert len(cosines) <= 2 * 16


# The L-path form of the 3 dB bound: with orthogonal transmit vectors (G_t = I) the
# optimal SNR is the top eigenvalue of diag(g)^H G_r diag(g) over L, at most L max|g|^2 / L
# since G_r's top eigenvalue is at most its trace L, while steering at the strongest path
# gives max|g|^2 / L: dominant-path beamforming loses at most 10 log10 L dB.
PATH_COUNTS = [2, 3, 4, 5, 8]
gain_parts = st.floats(-1e3, 1e3).filter(lambda x: abs(x) >= 1e-3)


def orthogonal_transmit_loss(gains, gram_r):
    """Optimal over dominant-path SNR of one channel with G_t = I, and the path count."""
    size = gains.shape[-1]
    eye = np.eye(size, dtype=complex)[None]
    optimal = _optimal_snr(gains[None], eye, gram_r[None])[0][0]
    dominant = _dominant_snr(gains[None], eye, gram_r[None])[0][0]
    return optimal / dominant, size


@pytest.mark.parametrize("num_paths", PATH_COUNTS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), nr=st.integers(1, 64))
def test_dominant_path_loses_at_most_the_path_count(num_paths, data, nr):
    parts = data.draw(hnp.arrays(float, (2, num_paths), elements=gain_parts))
    freqs = data.draw(hnp.arrays(float, num_paths, elements=st.floats(-1.0, 1.0)))
    gram_r = gram_stack(ArrayGeometry(nr), freqs)
    loss, size = orthogonal_transmit_loss(parts[0] + 1j * parts[1], gram_r)
    # the eigensolver rounds the top eigenvalue by a few eps of ||C|| <= L max|g|^2
    assert loss <= size * (1.0 + 4 * size * np.finfo(float).eps)
    assert _loss_db(loss) <= 10.0 * math.log10(size) + 1e-13


@pytest.mark.parametrize("num_paths", PATH_COUNTS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(re=gain_parts, im=gain_parts, nr=st.integers(1, 64), freq=st.floats(-1.0, 1.0))
def test_equal_gains_on_parallel_receive_vectors_attain_the_bound(num_paths, re, im, nr, freq):
    # coincident receive frequencies give G_r = all ones exactly; the L = 2 closed form
    # reads L exactly, the L = 3 one (a rank-one core, r = 1) within 2 ulps in 3000 random
    # draws, and eigvalsh at L >= 4 within a few ulps (4 at most in 2000 random draws)
    gains = np.full(num_paths, complex(re, im))
    gram_r = gram_stack(ArrayGeometry(nr), np.full(num_paths, freq))
    loss, size = orthogonal_transmit_loss(gains, gram_r)
    ulps = abs(loss - size) / np.spacing(float(size))
    assert ulps <= (0 if size == 2 else 2 * size)


def numpy_cpo_inner_product(geom, freq_delta):
    """``cpo_inner_product`` with its phasor taken by ``np.exp`` of the Python complex and
    the product turned back into a Python complex: the bit reference of its ``cmath.exp``."""
    n = geom.num_elements
    psi = math.pi * geom.spacing_wavelengths * freq_delta
    psi -= round(psi / math.pi) * math.pi
    if psi == 0.0:
        return 1.0 + 0.0j
    ratio = math.sin(n * psi) / (n * math.sin(psi))
    return complex(np.exp(1j * (n - 1) * psi) * ratio)


freq_deltas = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-1e-8, 1e-8),
    # separations near a period of the kernel, where psi is reduced to near 0
    st.tuples(st.integers(-4, 4), st.floats(-1e-8, 1e-8)).map(lambda t: 2.0 * t[0] + t[1]),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(n=st.integers(1, 1024), spacing=st.floats(0.001, 2.0), freq_delta=freq_deltas)
@example(n=16, spacing=0.5, freq_delta=0.0)
@example(n=2, spacing=0.5, freq_delta=-1e-8)
def test_cpo_inner_product_keeps_the_bits_of_the_numpy_phasor(n, spacing, freq_delta):
    geom = ArrayGeometry(n, spacing)
    value, expected = cpo_inner_product(geom, freq_delta), numpy_cpo_inner_product(geom, freq_delta)
    assert type(value) is complex
    assert (value.real.hex(), value.imag.hex()) == (expected.real.hex(), expected.imag.hex())
