import math

import numpy as np
import pytest

from conftest import geometry_pair, random_paths
from mmwbeam.channel import (
    ChannelMatrix,
    PathComponent,
    assemble_channel,
    channel_power,
)
from mmwbeam.montecarlo import McConfig, sample_paths
from mmwbeam.steering import AngleSpec, steering_vector


class TestAssembly:
    def test_single_path_rank_one(self):
        tx_geom, rx_geom = geometry_pair(nt=2, nr=2)
        path = PathComponent(1.0 + 0.0j, aod=AngleSpec(0.4), aoa=AngleSpec(1.3))
        ch = assemble_channel([path], tx_geom, rx_geom)
        u = steering_vector(rx_geom, path.aoa)
        v = steering_vector(tx_geom, path.aod)
        np.testing.assert_allclose(ch.entries, 2.0 * np.outer(u, v.conj()), atol=1e-14)
        assert channel_power(ch) == pytest.approx(4.0, rel=1e-12)

    def test_two_orthogonal_paths_equal_singular_values(self):
        # AoD and AoA separations both sit on Dirichlet nulls, so the
        # reduced 2x2 problem is diagonal with equal entries.
        tx_geom, rx_geom = geometry_pair(nt=8, nr=4)
        paths = [
            PathComponent(1.0, AngleSpec(math.acos(-0.125)), AngleSpec(math.acos(-0.25))),
            PathComponent(1.0, AngleSpec(math.acos(0.125)), AngleSpec(math.acos(0.25))),
        ]
        ch = assemble_channel(paths, tx_geom, rx_geom)
        sv = np.linalg.svd(ch.entries, compute_uv=False)
        expected = 8 * 4 / 2
        assert sv[0] ** 2 == pytest.approx(expected, rel=1e-12)
        assert sv[1] ** 2 == pytest.approx(expected, rel=1e-12)

    def test_average_power_normalization(self):
        # E[||H||_F^2] = Nr*Nt under unit-variance complex Gaussian gains
        cfg = McConfig(num_paths=3, trials=1, seed=99, nt=16, nr=4)
        tx_geom, rx_geom = cfg.tx_geometry, cfg.rx_geometry
        total = 0.0
        trials = 20_000
        for trial in range(trials):
            paths = sample_paths(cfg, trial)
            total += channel_power(assemble_channel(paths, tx_geom, rx_geom))
        mean = total / trials / (16 * 4)
        assert 0.97 < mean < 1.03

    def test_empty_path_list_rejected(self):
        tx_geom, rx_geom = geometry_pair()
        with pytest.raises(ValueError):
            assemble_channel([], tx_geom, rx_geom)

    def test_nonfinite_gain_rejected(self):
        with pytest.raises(ValueError):
            PathComponent(complex("inf"), AngleSpec(0.1), AngleSpec(0.2))

    def test_entries_read_only(self):
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(
            [PathComponent(1.0, AngleSpec(0.1), AngleSpec(0.2))], tx_geom, rx_geom
        )
        with pytest.raises(ValueError):
            ch.entries[0, 0] = 0.0


class TestChannelPower:
    def test_zero_matrix(self):
        ch = ChannelMatrix(entries=np.zeros((3, 5), dtype=complex))
        assert channel_power(ch) == 0.0

    def test_rank_one_identity(self):
        tx_geom, rx_geom = geometry_pair(nt=8, nr=4)
        ch = assemble_channel(
            [PathComponent(2.0, AngleSpec(0.3), AngleSpec(0.9))], tx_geom, rx_geom
        )
        assert channel_power(ch) == pytest.approx(4 * 8 * 4, rel=1e-12)

    def test_matches_entrywise_sum(self, rng):
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(random_paths(rng, 2), tx_geom, rx_geom)
        total = 0.0
        for i in range(ch.num_rx):
            for j in range(ch.num_tx):
                total += abs(ch.entries[i, j]) ** 2
        assert channel_power(ch) == pytest.approx(total, rel=1e-12)

    def test_equals_sum_of_squared_singular_values(self, rng):
        tx_geom, rx_geom = geometry_pair(nt=16, nr=4)
        for num_paths in (1, 2, 5):
            ch = assemble_channel(random_paths(rng, num_paths), tx_geom, rx_geom)
            sv = np.linalg.svd(ch.entries, compute_uv=False)
            assert channel_power(ch) == pytest.approx(float(np.sum(sv**2)), rel=1e-9)

    def test_rank_bound(self, rng):
        tx_geom, rx_geom = geometry_pair(nt=16, nr=4)
        for num_paths in (1, 2, 3, 7):
            ch = assemble_channel(random_paths(rng, num_paths), tx_geom, rx_geom)
            sv = np.linalg.svd(ch.entries, compute_uv=False)
            numerical_rank = int(np.sum(sv > 1e-9 * sv[0]))
            assert numerical_rank <= min(num_paths, 16, 4)


class TestLinearity:
    def test_power_of_two_scaling_is_exact(self, rng):
        tx_geom, rx_geom = geometry_pair()
        paths = random_paths(rng, 3)
        scaled = [
            PathComponent(2.0 * p.gain, aod=p.aod, aoa=p.aoa) for p in paths
        ]
        h1 = assemble_channel(paths, tx_geom, rx_geom).entries
        h2 = assemble_channel(scaled, tx_geom, rx_geom).entries
        np.testing.assert_array_equal(h2, 2.0 * h1)

    def test_general_scaling(self, rng):
        tx_geom, rx_geom = geometry_pair()
        paths = random_paths(rng, 3)
        c = 0.3 - 1.7j
        scaled = [PathComponent(c * p.gain, aod=p.aod, aoa=p.aoa) for p in paths]
        h1 = assemble_channel(paths, tx_geom, rx_geom).entries
        h2 = assemble_channel(scaled, tx_geom, rx_geom).entries
        np.testing.assert_allclose(h2, c * h1, rtol=1e-14, atol=1e-14)

