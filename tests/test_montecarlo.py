import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mmwbeam import beamformer, montecarlo
from mmwbeam.beamformer import _loss_db, reduced_optimal_beamformer
from mmwbeam.channel import assemble_channel
from mmwbeam.steering import gram_stack, spatial_frequencies
from mmwbeam.montecarlo import (
    ANGLE_SAMPLING,
    SCHEMES,
    CcdfTable,
    McConfig,
    RNG_ALGORITHM,
    ccdf_to_csv,
    ccdf_to_dict,
    percentile,
    run_ccdf,
    sample_paths,
)


INTEGER_FIELDS = ("num_paths", "trials", "seed", "nt", "nr")


def small_cfg(**overrides):
    base = dict(num_paths=2, trials=200, seed=7, nt=16, nr=4)
    base.update(overrides)
    return McConfig(**base)


def replayed_samples(cfg):
    """Sorted losses of every trial through the public per-channel calls."""
    tx_geom, rx_geom = cfg.tx_geometry, cfg.rx_geometry
    losses = []
    for trial in range(cfg.trials):
        paths = sample_paths(cfg, trial)
        ch = assemble_channel(paths, tx_geom, rx_geom)
        opt = reduced_optimal_beamformer(paths, tx_geom, rx_geom, channel=ch)
        scheme = SCHEMES[cfg.scheme](paths, tx_geom, rx_geom, channel=ch)
        if scheme.normalized_snr > 0.0:
            losses.append(10.0 * math.log10(opt.normalized_snr / scheme.normalized_snr))
        else:
            losses.append(math.inf)
    return np.sort(losses)


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(num_paths=0, trials=10, seed=1)
        with pytest.raises(ValueError):
            McConfig(num_paths=2, trials=0, seed=1)
        with pytest.raises(ValueError):
            McConfig(num_paths=2, trials=10, seed=-1)
        with pytest.raises(ValueError):
            McConfig(num_paths=2, trials=10, seed=1, fov_deg=200.0)
        with pytest.raises(ValueError):
            McConfig(num_paths=2, trials=10, seed=1, scheme="nonsense")

    @pytest.mark.parametrize(
        "field, value",
        [(field, value) for field in INTEGER_FIELDS for value in (1.5, 2.0, True, "3")]
        + [("spacing_wavelengths", True), ("fov_deg", True)]
        + [pytest.param("fov_deg", np.True_, id="fov_deg-numpy-True")],
    )
    def test_integer_field_rejects_other_types(self, field, value):
        # a seed of 1.5 used to run, and draw the samples of seed 1; the two float
        # fields take no boolean either (fov_deg=True used to run at 1 degree)
        kind = "an integer" if field in INTEGER_FIELDS else "a number"
        with pytest.raises(ValueError, match=f"{field} must be {kind}"):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_integer_field_accepts_numpy_integer(self, field):
        assert small_cfg(**{field: np.int64(3)}) == small_cfg(**{field: 3})

    def test_equal_power_needs_two_paths(self):
        with pytest.raises(ValueError, match="equal_power"):
            McConfig(num_paths=3, trials=10, seed=1, scheme="equal_power")
        McConfig(num_paths=2, trials=10, seed=1, scheme="equal_power")

    def test_dict_round_trip(self):
        cfg = small_cfg()
        doc = cfg.to_dict()
        assert doc["rng"] == RNG_ALGORITHM == "philox4x64-v2"
        assert McConfig.from_dict(doc) == cfg

    # philox4x64 is the retired v1 stream, whose files no longer replay
    @pytest.mark.parametrize("key,value", [("rng", "philox4x64-v3"), ("rng", "philox4x64"),
                                           ("gain_model", "rician")])
    def test_dict_rejects_other_stream(self, key, value):
        cfg = small_cfg()
        doc = cfg.to_dict()
        assert doc["gain_model"] == "complex_gaussian"
        with pytest.raises(ValueError, match=f"unknown {key} '{value}'"):
            McConfig.from_dict({**doc, key: value})
        # both keys are optional
        assert McConfig.from_dict({k: v for k, v in doc.items() if k != key}) == cfg


class TestSampling:
    def test_deterministic_per_trial(self):
        cfg = small_cfg()
        first = sample_paths(cfg, 11)
        second = sample_paths(cfg, 11)
        assert first == second

    def test_distinct_across_trials_and_seeds(self):
        cfg = small_cfg()
        assert sample_paths(cfg, 0) != sample_paths(cfg, 1)
        assert sample_paths(cfg, 0) != sample_paths(small_cfg(seed=8), 0)

    def test_gain_second_moment(self):
        cfg = small_cfg(num_paths=4, trials=1)
        total = 0.0
        draws = 25_000
        for trial in range(draws):
            for p in sample_paths(cfg, trial):
                total += abs(p.gain) ** 2
        mean = total / (draws * 4)
        assert abs(mean - 1.0) < 0.02

    def test_angles_inside_field_of_view(self):
        lo, hi = math.radians(30.0), math.radians(150.0)
        for sampling in ("uniform_angle", "uniform_cosine"):
            cfg = small_cfg(fov_deg=120.0, angle_sampling=sampling)
            for trial in range(200):
                for p in sample_paths(cfg, trial):
                    assert lo <= p.aod.azimuth_rad <= hi
                    assert lo <= p.aoa.azimuth_rad <= hi

    def test_sampling_modes_have_distinct_frequency_laws(self):
        # cosine mode: cos(azimuth) uniform on [-sin(fov/2), sin(fov/2)],
        # variance span^2/12 = 0.25; angle mode piles weight at the FOV
        # edges where the cosine is steepest, variance 0.2933 analytically
        draws = 4000
        variances = {}
        for sampling in ("uniform_angle", "uniform_cosine"):
            cfg = small_cfg(num_paths=1, angle_sampling=sampling)
            freqs = [
                math.cos(sample_paths(cfg, t)[0].aod.azimuth_rad) for t in range(draws)
            ]
            variances[sampling] = float(np.var(freqs))
        assert variances["uniform_cosine"] == pytest.approx(0.25, rel=0.05)
        assert variances["uniform_angle"] == pytest.approx(0.29330, rel=0.05)

    def test_angle_sampling_validation(self):
        with pytest.raises(ValueError, match="angle sampling"):
            small_cfg(angle_sampling="sobol")


def field_of_view(cfg):
    """Range of the uniform angle draws: azimuths, or their cosines for ``uniform_cosine``."""
    half_fov = math.radians(cfg.fov_deg) / 2.0
    lo, hi = math.pi / 2.0 - half_fov, math.pi / 2.0 + half_fov
    if cfg.angle_sampling == "uniform_cosine":
        lo, hi = math.cos(hi), math.cos(lo)
    return lo, hi


def slot_read(cfg, trial, attempt=0):
    """Gains, aod and aoa (L,) of one v2 trial: the 4L doubles after counter trial * L."""
    lo, hi = field_of_view(cfg)
    num_paths = cfg.num_paths
    key = np.array([cfg.seed, attempt], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=trial * num_paths))
    u1, u2, aod, aoa = rng.random(4 * num_paths).reshape(4, num_paths)
    aod, aoa = lo + (hi - lo) * aod, lo + (hi - lo) * aoa
    if cfg.angle_sampling == "uniform_cosine":
        aod, aoa = np.arccos(aod), np.arccos(aoa)
    return np.sqrt(-np.log1p(-u1)) * np.exp(2j * np.pi * u2), aod, aoa


STREAM_CASES = [(0, 1, 120.0), (7, 2, 37.5), (2**64 - 1, 5, 180.0)]


class TestStreamContract:
    @pytest.mark.parametrize("sampling", ANGLE_SAMPLING)
    @pytest.mark.parametrize("seed,num_paths,fov_deg", STREAM_CASES)
    def test_v2_chunk_draw_equals_slot_read(self, sampling, seed, num_paths, fov_deg):
        cfg = small_cfg(seed=seed, num_paths=num_paths, fov_deg=fov_deg, angle_sampling=sampling)
        # two chunks from different starting counters, overlapping in trials 9-11
        for trials in (range(5, 12), range(9, 30)):
            gains, aod, aoa, redraws = montecarlo._draw_chunk(cfg, trials)
            assert redraws == 0
            for row, trial in enumerate(trials):
                expected = slot_read(cfg, trial)
                for drawn, literal in zip((gains[row], aod[row], aoa[row]), expected):
                    assert_same_bits(drawn.view(float), np.asarray(literal).view(float))

    def test_v2_gain_law(self):
        # |g|^2 is exactly Exp(1) and the phase uniform: P(|g|^2 > 1) = 1/e, E[g/|g|] = 0
        cfg = small_cfg(num_paths=5, seed=3)
        gains = montecarlo._draw_chunk(cfg, range(20_000))[0].ravel()
        n = gains.size
        p = math.exp(-1.0)
        frac = float(np.mean(np.abs(gains) ** 2 > 1.0))
        assert abs(frac - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)
        assert abs(np.mean(gains / np.abs(gains))) <= 5.0 / math.sqrt(n)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_samples_do_not_depend_on_chunk_size(self, chunk, monkeypatch):
        cfg = small_cfg(num_paths=3, trials=60)
        reference = run_ccdf(cfg).samples_db
        # a budget of `chunk` trials of 10 complex 3 x 3 arrays and 512 bytes each
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", chunk * (10 * 16 * 9 + 512))
        assert montecarlo._chunk_trials(cfg) == chunk
        assert_same_bits(run_ccdf(cfg).samples_db, reference)


class TestRunCcdf:
    def test_single_path_loss_is_zero(self):
        table = run_ccdf(small_cfg(num_paths=1, trials=100))
        assert float(np.max(np.abs(table.samples_db))) < 1e-6

    def test_samples_nonnegative(self):
        table = run_ccdf(small_cfg(trials=500))
        assert float(table.samples_db[0]) >= -1e-9

    def test_sorted_with_matching_ccdf(self):
        table = run_ccdf(small_cfg(trials=64))
        assert np.all(np.diff(table.samples_db) >= 0.0)
        np.testing.assert_allclose(table.ccdf, (64 - np.arange(64)) / 64)
        assert table.ccdf[0] == 1.0

    def test_deterministic(self):
        t1 = run_ccdf(small_cfg(trials=128))
        t2 = run_ccdf(small_cfg(trials=128))
        np.testing.assert_array_equal(t1.samples_db, t2.samples_db)

    def test_trial_prefix_stable_under_more_trials(self):
        # per-trial streams: the first N samples do not depend on the total
        cfg_small = small_cfg(trials=50)
        cfg_large = small_cfg(trials=80)
        s1 = np.sort(run_ccdf(cfg_small).samples_db)
        # recompute the multiset of the first 50 trials from the larger run
        samples_large = []
        from mmwbeam.beamformer import bidirectional_beamformer

        for trial in range(50):
            paths = sample_paths(cfg_large, trial)
            ch = assemble_channel(paths, cfg_large.tx_geometry, cfg_large.rx_geometry)
            opt = reduced_optimal_beamformer(
                paths, cfg_large.tx_geometry, cfg_large.rx_geometry, channel=ch
            )
            scheme = bidirectional_beamformer(
                paths, cfg_large.tx_geometry, cfg_large.rx_geometry, channel=ch
            )
            samples_large.append(10.0 * math.log10(opt.normalized_snr / scheme.normalized_snr))
        assert_same_bits(np.sort(samples_large), s1)

    def test_median_grows_with_path_count(self):
        medians = [
            percentile(run_ccdf(small_cfg(num_paths=k, trials=800)), 0.5) for k in (2, 3, 5)
        ]
        assert medians[0] <= medians[1] <= medians[2]

    def test_p90_at_least_median(self):
        for scheme in ("bidirectional", "dominant_tx_mf_rx", "equal_power"):
            table = run_ccdf(small_cfg(trials=300, scheme=scheme))
            assert percentile(table, 0.9) >= percentile(table, 0.5)

    def test_dominant_path_scheme_loses_less_than_bidirectional(self):
        # the matched-filter receiver can only improve on the steered one
        bid = run_ccdf(small_cfg(trials=400, scheme="bidirectional"))
        dom = run_ccdf(small_cfg(trials=400, scheme="dominant_tx_mf_rx"))
        assert percentile(dom, 0.5) <= percentile(bid, 0.5) + 1e-12


ENGINE_CASES = [
    (scheme, num_paths, sampling)
    for scheme in SCHEMES
    for num_paths in ((2,) if scheme == "equal_power" else (1, 2, 3, 5))
    for sampling in ANGLE_SAMPLING
]


class TestEngineMatchesPublicRoute:
    @pytest.mark.parametrize("scheme,num_paths,sampling", ENGINE_CASES)
    def test_samples_equal_replay_bit_for_bit(self, scheme, num_paths, sampling, monkeypatch):
        # a quarter of the budget keeps the per-trial replay of 2.5 chunks short
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", montecarlo._CHUNK_BYTES // 4)
        base = dict(num_paths=num_paths, seed=11, nt=128, nr=8, scheme=scheme,
                    angle_sampling=sampling)
        chunk = montecarlo._chunk_trials(McConfig(trials=10**6, **base))
        # three full chunks would be 3 * chunk; stop half-way through the third
        cfg = McConfig(trials=2 * chunk + chunk // 2 + 1, **base)
        assert chunk >= 2 and cfg.trials % chunk != 0
        assert_same_bits(run_ccdf(cfg).samples_db, replayed_samples(cfg))

    def test_chunk_budget_bounds_large_arrays(self):
        # the peak allocation of a long run stays within the chunk budget plus its losses
        wide = McConfig(num_paths=2, trials=20_000, seed=0, nt=256, nr=16, scheme="equal_power")
        tracemalloc.start()
        try:
            montecarlo._trial_losses(wide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * montecarlo._CHUNK_BYTES + 8 * wide.trials
        assert montecarlo._chunk_trials(small_cfg(trials=3)) == 3

    @pytest.mark.parametrize("scheme,num_paths", [
        ("bidirectional", 1), ("bidirectional", 2), ("equal_power", 2), ("bidirectional", 3),
        ("dominant_tx_mf_rx", 3), ("bidirectional", 5),
    ])
    def test_chunk_budget_alone_bounds_the_working_set(self, scheme, num_paths):
        # the budget alone sizes each chunk, and a run's peak beyond its losses stays within it
        base = dict(num_paths=num_paths, seed=0, nt=64, nr=4, scheme=scheme)
        chunk = montecarlo._chunk_trials(McConfig(trials=10**6, **base))
        cfg = McConfig(trials=2 * chunk + chunk // 2, **base)
        # a first run's one-time allocations are not the chunk's
        montecarlo._trial_losses(McConfig(trials=3, **base))
        tracemalloc.start()
        try:
            montecarlo._trial_losses(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunk > 200
        assert peak <= montecarlo._CHUNK_BYTES + 8 * cfg.trials


class TestChunkLosses:
    # optimal and scheme SNRs of one chunk, each pair chosen for a corner of the ratio
    OPTIMAL = [2.0, 1.0, 0.7, 1.0, 1.0, 1e300, 1.0, 1.0, math.nan, 3.0]
    SCHEME = [1.0, 0.3, 0.7, 0.0, -0.0, 1e-10, 5e-324, math.nan, 1.0, -1.0]

    @pytest.mark.parametrize("num_paths", (2, 3))
    def test_each_loss_is_the_loss_of_its_own_pair(self, num_paths, monkeypatch):
        # the engine divides a chunk's SNRs at once; each loss must read as _loss_db(o, s),
        # from the two-path kernels at L = 2 as from the others
        def kernel(values):
            return lambda gains, ends_t, ends_r: (np.array(values[: len(gains)]), None)

        for name in ("_optimal_snr", "_two_path_optimal"):
            monkeypatch.setattr(montecarlo, name, kernel(self.OPTIMAL))
        for table in (montecarlo._SCHEME_SNR, montecarlo._TWO_PATH_SNR):
            monkeypatch.setitem(table, "bidirectional", kernel(self.SCHEME))
        cfg = small_cfg(trials=len(self.OPTIMAL), num_paths=num_paths)
        assert montecarlo._chunk_trials(cfg) == cfg.trials
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            losses = montecarlo._trial_losses(cfg)[0].tolist()
        assert losses == [_loss_db(o, s) for o, s in zip(self.OPTIMAL, self.SCHEME)]
        # a scheme SNR of 0, -0, NaN or below 0 and a ratio beyond the float range read inf
        assert losses[:3] == [10.0 * math.log10(2.0), 10.0 * math.log10(1.0 / 0.3), 0.0]
        assert losses[3:] == [math.inf] * 7

    def test_engine_losses_are_the_losses_of_the_kernels(self, monkeypatch):
        # over several chunks, each loss is _loss_db of the kernels' SNRs on its trial
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1 << 18)
        cfg = small_cfg(trials=700, scheme="equal_power", nt=256, nr=16)
        losses = montecarlo._trial_losses(cfg)[0]
        gains, aod, aoa, _ = montecarlo._draw_chunk(cfg, range(cfg.trials))
        gram_t = gram_stack(cfg.tx_geometry, spatial_frequencies(aod))
        gram_r = gram_stack(cfg.rx_geometry, spatial_frequencies(aoa))
        optimal = montecarlo._optimal_snr(gains, gram_t, gram_r)[0]
        scheme = beamformer._equal_power_snr(gains, gram_t, gram_r)[0]
        expected = [_loss_db(o, s) for o, s in zip(optimal.tolist(), scheme.tolist())]
        assert montecarlo._chunk_trials(cfg) < cfg.trials
        assert losses.tolist() == expected


class TestDegenerateArrays:
    @pytest.mark.parametrize("scheme,num_paths", [
        (scheme, num_paths)
        for scheme in SCHEMES
        for num_paths in ((2,) if scheme == "equal_power" else (1, 2, 3, 5))
    ])
    def test_single_element_arrays_give_finite_losses(self, scheme, num_paths):
        for nt, nr in ((1, 8), (16, 1), (1, 1)):
            cfg = small_cfg(num_paths=num_paths, nt=nt, nr=nr, scheme=scheme, trials=500)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                losses = run_ccdf(cfg).samples_db
            assert np.all(np.isfinite(losses))
            if nt == nr == 1:
                # every beam of a single-antenna link is optimal
                assert np.all(np.abs(losses) <= 1e-12)


def redraws_by_slot_read(cfg, trial, threshold):
    """Redraws of one v2 trial: attempt r reads the trial's slot under the key (seed, r)."""
    attempt = 0
    while np.abs(slot_read(cfg, trial, attempt)[0]).max() < threshold:
        attempt += 1
    return attempt


class TestResampling:
    def test_count_matches_per_trial_recount(self, monkeypatch):
        # raise the gain floor so that about one draw in twenty is redrawn (17 of 400)
        monkeypatch.setattr(montecarlo, "_MIN_GAIN", 0.5)
        # chunks of 227 trials, so that redraws fall in more than one
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1 << 18)
        cfg = small_cfg(num_paths=2, trials=400, nt=128, nr=8)
        assert montecarlo._chunk_trials(cfg) < cfg.trials
        table = run_ccdf(cfg)
        expected = sum(redraws_by_slot_read(cfg, t, 0.5) for t in range(cfg.trials))
        assert expected > 0
        assert table.num_resampled == expected
        # sample_paths redraws the same way, so the public route still replays the run
        assert_same_bits(table.samples_db, replayed_samples(cfg))
        assert json.loads(json.dumps(ccdf_to_dict(table)))["num_resampled"] == expected

    def test_v2_redraw_reads_the_next_key(self, monkeypatch):
        # redraw r of trial t is slot t of the Philox keyed by (seed, r), in the engine and
        # in sample_paths alike; at this floor about one draw in five is redrawn
        monkeypatch.setattr(montecarlo, "_MIN_GAIN", 0.8)
        cfg = small_cfg(num_paths=2, trials=200)
        gains, aod, aoa, redraws = montecarlo._draw_chunk(cfg, range(cfg.trials))
        attempts = [redraws_by_slot_read(cfg, t, 0.8) for t in range(cfg.trials)]
        assert redraws == sum(attempts) and max(attempts) >= 2
        for trial, attempt in enumerate(attempts):
            expected = slot_read(cfg, trial, attempt)
            for drawn, literal in zip((gains[trial], aod[trial], aoa[trial]), expected):
                assert_same_bits(drawn.view(float), np.asarray(literal).view(float))
            assert [p.gain for p in sample_paths(cfg, trial)] == expected[0].tolist()

    def test_gives_up_after_max_resample(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_MIN_GAIN", math.inf)
        with pytest.raises(RuntimeError, match="trial 0 of seed 7 kept producing degenerate"):
            run_ccdf(small_cfg(trials=3))
        with pytest.raises(RuntimeError, match="trial 4 of seed 7 kept producing degenerate"):
            sample_paths(small_cfg(), 4)


class TestPercentile:
    def test_all_zero_table(self):
        cfg = small_cfg(trials=5)
        table = CcdfTable(
            samples_db=np.zeros(5), ccdf=(5 - np.arange(5)) / 5, config=cfg
        )
        for p in (0.1, 0.5, 0.9):
            assert percentile(table, p) == 0.0

    def test_empty_table_rejected(self):
        table = CcdfTable(samples_db=np.empty(0), ccdf=np.empty(0), config=small_cfg(trials=5))
        with pytest.raises(ValueError, match="empty table"):
            percentile(table, 0.5)

    def test_nearest_rank_definition(self):
        cfg = small_cfg(trials=5)
        table = CcdfTable(
            samples_db=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
            ccdf=(5 - np.arange(5)) / 5,
            config=cfg,
        )
        assert percentile(table, 0.5) == 2.0
        assert percentile(table, 0.9) == 4.0

    def test_against_independent_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 200))
            data = rng.standard_normal(n)
            table = CcdfTable(
                samples_db=np.sort(data),
                ccdf=(n - np.arange(n)) / n,
                config=small_cfg(trials=n),
            )
            p = float(rng.uniform(0.01, 0.99))
            expected = sorted(data)[max(math.ceil(p * n), 1) - 1]
            assert percentile(table, p) == pytest.approx(expected)

    def test_domain_errors(self):
        table = run_ccdf(small_cfg(trials=10))
        with pytest.raises(ValueError):
            percentile(table, 0.0)
        with pytest.raises(ValueError):
            percentile(table, 1.0)


def per_row_csv(table, header_comments=()):
    """The CSV text formatted row by row with f-strings: the reference for ccdf_to_csv's bytes."""
    lines = [f"# {c}" for c in header_comments] + ["delta_snr_db,ccdf"]
    lines += [f"{x:.17g},{y:.17g}" for x, y in zip(table.samples_db.tolist(), table.ccdf.tolist())]
    return "\n".join(lines) + "\n"


# samples that print unlike plain losses: a negative zero, inf and subnormals
ODD_SAMPLES = [-0.0, math.inf, 5e-324, 1e-310, -2.5e-320, 0.1, 1e300]


def odd_table(n, ccdf=None, seed=0):
    """A table of n sorted samples, the odd ones among them, and standard or given ordinates."""
    samples = np.random.default_rng(seed).standard_normal(n) * 3.0
    samples[: len(ODD_SAMPLES)] = ODD_SAMPLES[:n]
    samples.sort()
    ordinates = (n - np.arange(n, dtype=float)) / n if ccdf is None else np.asarray(ccdf)
    return CcdfTable(samples_db=samples, ccdf=ordinates, config=small_cfg(trials=n))


class TestSerialization:
    @pytest.mark.parametrize("n", [1, 2, 200, 10_000])
    def test_csv_keeps_the_bytes_of_per_row_formatting(self, n):
        table = odd_table(n)
        comments = ["config = {}", "version = 0"]
        assert ccdf_to_csv(table, comments) == per_row_csv(table, comments)

    def test_csv_keeps_the_bytes_of_any_ordinates(self):
        # a table may carry ordinates other than the standard ones: other values, one array
        # differing from another only in the sign of a zero, NaN, inf and subnormals
        n = 200
        standard = (n - np.arange(n, dtype=float)) / n
        zero_end = np.linspace(1.0, 0.0, n)
        negative_zero = zero_end.copy()
        negative_zero[-1] = -0.0
        odd = standard.copy()
        odd[:4] = [math.nan, math.inf, 5e-324, -1e-310]
        for ccdf in (standard, zero_end, negative_zero, odd):
            table = odd_table(n, ccdf)
            assert ccdf_to_csv(table) == per_row_csv(table)
        assert ccdf_to_csv(odd_table(n, zero_end)) != ccdf_to_csv(odd_table(n, negative_zero))

    def test_csv_layout(self):
        table = run_ccdf(small_cfg(trials=10))
        text = ccdf_to_csv(table, header_comments=["config = {}"])
        lines = text.strip().split("\n")
        assert lines[0] == "# config = {}"
        assert lines[1] == "delta_snr_db,ccdf"
        assert len(lines) == 2 + 10
        first = lines[2].split(",")
        assert float(first[1]) == 1.0

    def test_csv_deterministic(self):
        t1 = run_ccdf(small_cfg(trials=40))
        t2 = run_ccdf(small_cfg(trials=40))
        assert ccdf_to_csv(t1) == ccdf_to_csv(t2)

    def test_json_round_trip(self):
        table = run_ccdf(small_cfg(trials=10))
        doc = json.loads(json.dumps(ccdf_to_dict(table)))
        assert doc["config"]["rng"] == RNG_ALGORITHM
        assert McConfig.from_dict(doc["config"]) == table.config
        assert len(doc["samples_db"]) == 10
        assert doc["num_resampled"] == 0
        np.testing.assert_allclose(doc["samples_db"], table.samples_db)
