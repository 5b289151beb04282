import json
import math

import numpy as np
import pytest

from mmwbeam.montecarlo import (
    CcdfTable,
    McConfig,
    RNG_ALGORITHM,
    ccdf_to_csv,
    ccdf_to_dict,
    ccdf_to_json,
    percentile,
    run_ccdf,
    sample_paths,
)


def small_cfg(**overrides):
    base = dict(num_paths=2, trials=200, seed=7, nt=16, nr=4)
    base.update(overrides)
    return McConfig(**base)


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
            McConfig(num_paths=2, trials=10, seed=1, gain_model="rician")
        with pytest.raises(ValueError):
            McConfig(num_paths=2, trials=10, seed=1, scheme="nonsense")

    def test_equal_power_needs_two_paths(self):
        with pytest.raises(ValueError, match="equal_power"):
            McConfig(num_paths=3, trials=10, seed=1, scheme="equal_power")
        McConfig(num_paths=2, trials=10, seed=1, scheme="equal_power")

    def test_dict_round_trip(self):
        cfg = small_cfg()
        doc = cfg.to_dict()
        assert doc["rng"] == RNG_ALGORITHM
        assert McConfig.from_dict(doc) == cfg

    def test_dict_rejects_other_stream(self):
        doc = {**small_cfg().to_dict(), "rng": "philox4x64-v2"}
        with pytest.raises(ValueError, match="philox4x64-v2"):
            McConfig.from_dict(doc)


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
        from mmwbeam.beamformer import bidirectional_beamformer, reduced_optimal_beamformer
        from mmwbeam.channel import assemble_channel

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
        np.testing.assert_allclose(np.sort(samples_large), s1, atol=1e-12)

    def test_golden_median_regression(self):
        # frozen from this repository's first run of this configuration
        table = run_ccdf(McConfig(num_paths=2, trials=2000, seed=42))
        assert percentile(table, 0.5) == pytest.approx(0.16839306336987975, abs=1e-12)

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


class TestPercentile:
    def test_all_zero_table(self):
        cfg = small_cfg(trials=5)
        table = CcdfTable(
            samples_db=np.zeros(5), ccdf=(5 - np.arange(5)) / 5, config=cfg
        )
        for p in (0.1, 0.5, 0.9):
            assert percentile(table, p) == 0.0

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


class TestSerialization:
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
        doc = json.loads(ccdf_to_json(table))
        assert doc["config"]["rng"] == RNG_ALGORITHM
        assert McConfig.from_dict(doc["config"]) == table.config
        assert len(doc["samples_db"]) == 10
        assert doc["num_resampled"] == 0
        np.testing.assert_allclose(doc["samples_db"], table.samples_db)
