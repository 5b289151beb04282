import math
import warnings

import numpy as np
import pytest

from conftest import equal_power_grid_snr, geometry_pair, random_paths
from mmwbeam import montecarlo
from mmwbeam.beamformer import (
    BeamformerPair,
    _loss_db,
    bidirectional_beamformer,
    dominant_path_beamformer,
    equal_power_beamformer,
    matched_filter,
    optimal_beamformer,
    received_snr,
    reduced_optimal_beamformer,
)
from mmwbeam.channel import ChannelMatrix, PathComponent, assemble_channel
from mmwbeam.closedform import TwoPathParams, AllocationPoint, two_path_objective
from mmwbeam.steering import AngleSpec, ArrayGeometry, steering_matrix, steering_vector


def triple_product_oracle(h, f, g):
    """Entrywise evaluation of |g^H H f|^2 / (g^H g)."""
    amp = 0.0 + 0.0j
    for i in range(h.shape[0]):
        for j in range(h.shape[1]):
            amp += g[i].conjugate() * h[i, j] * f[j]
    return abs(amp) ** 2 / sum(abs(x) ** 2 for x in g)


def orthogonal_pair_channel(gain1=1.0, gain2=1.0, nt=8, nr=4):
    """Two paths with AoD and AoA separations on exact Dirichlet nulls."""
    paths = [
        PathComponent(gain1, AngleSpec(math.acos(-1.0 / nt)), AngleSpec(math.acos(-1.0 / nr))),
        PathComponent(gain2, AngleSpec(math.acos(1.0 / nt)), AngleSpec(math.acos(1.0 / nr))),
    ]
    return paths, ArrayGeometry(nt), ArrayGeometry(nr)


class TestReceivedSnr:
    def test_single_path_perfect_steering(self):
        tx_geom, rx_geom = geometry_pair(nt=8, nr=4)
        k = 3.0
        paths = [PathComponent(k, AngleSpec(0.8), AngleSpec(1.9))]
        ch = assemble_channel(paths, tx_geom, rx_geom)
        f = steering_vector(tx_geom, paths[0].aod)
        g = steering_vector(rx_geom, paths[0].aoa)
        rep = received_snr(ch, f, g)
        assert rep.normalized_snr == pytest.approx(k**2, rel=1e-12)

    def test_matches_triple_product_oracle(self, rng):
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(random_paths(rng, 3), tx_geom, rx_geom)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f /= np.linalg.norm(f)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rep = received_snr(ch, f, g, pre_beamforming_snr=2.5)
        oracle = triple_product_oracle(ch.entries, f, g)
        assert rep.received_snr == pytest.approx(2.5 * oracle, rel=1e-12)
        assert rep.normalized_snr == pytest.approx(oracle / 32.0, rel=1e-12)
        assert rep.received_snr == pytest.approx(
            rep.pre_beamforming_snr * 32.0 * rep.normalized_snr, rel=1e-12
        )

    def test_matched_receive_gives_quadratic_form(self, rng):
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(random_paths(rng, 2), tx_geom, rx_geom)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f /= np.linalg.norm(f)
        rep = received_snr(ch, f, matched_filter(ch, f))
        quad = np.real(np.vdot(ch.entries @ f, ch.entries @ f))
        assert rep.normalized_snr == pytest.approx(quad / 32.0, rel=1e-12)

    def test_zero_receive_vector_rejected(self, rng):
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(random_paths(rng, 1), tx_geom, rx_geom)
        f = np.ones(8) / math.sqrt(8.0)
        with pytest.raises(ValueError, match="nonzero"):
            received_snr(ch, f, np.zeros(4, dtype=complex))

    def test_overlong_transmit_vector_rejected(self, rng):
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(random_paths(rng, 1), tx_geom, rx_geom)
        with pytest.raises(ValueError, match="energy"):
            received_snr(ch, np.ones(8, dtype=complex), np.ones(4, dtype=complex))


class TestMatchedFilter:
    def test_single_path_alignment(self):
        tx_geom, rx_geom = geometry_pair()
        paths = [PathComponent(1.5, AngleSpec(0.8), AngleSpec(1.9))]
        ch = assemble_channel(paths, tx_geom, rx_geom)
        g = matched_filter(ch, steering_vector(tx_geom, paths[0].aod))
        u = steering_vector(rx_geom, paths[0].aoa)
        assert abs(np.vdot(g, u)) == pytest.approx(1.0, abs=1e-12)

    def test_dominates_random_receivers(self, rng):
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(random_paths(rng, 3), tx_geom, rx_geom)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f /= np.linalg.norm(f)
        best = received_snr(ch, f, matched_filter(ch, f)).normalized_snr
        for _ in range(100):
            g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert received_snr(ch, f, g).normalized_snr <= best + 1e-12

    def test_invariant_to_channel_scale(self, rng):
        tx_geom, rx_geom = geometry_pair()
        paths = random_paths(rng, 2)
        scaled = [PathComponent(3.0j * p.gain, p.aod, p.aoa) for p in paths]
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f /= np.linalg.norm(f)
        g1 = matched_filter(assemble_channel(paths, tx_geom, rx_geom), f)
        g2 = matched_filter(assemble_channel(scaled, tx_geom, rx_geom), f)
        assert abs(np.vdot(g1, g2)) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_channel_rejected(self):
        ch = ChannelMatrix(entries=np.zeros((4, 8), dtype=complex), num_paths=1)
        with pytest.raises(ValueError, match="zero"):
            matched_filter(ch, np.ones(8) / math.sqrt(8.0))


class TestOptimalBeamformer:
    def test_single_path(self):
        tx_geom, rx_geom = geometry_pair()
        paths = [PathComponent(2.0 * np.exp(0.4j), AngleSpec(0.8), AngleSpec(1.9))]
        ch = assemble_channel(paths, tx_geom, rx_geom)
        pair = optimal_beamformer(ch)
        v = steering_vector(tx_geom, paths[0].aod)
        assert abs(np.vdot(pair.tx, v)) == pytest.approx(1.0, abs=1e-10)
        assert pair.normalized_snr == pytest.approx(4.0, rel=1e-12)

    def test_v_orthogonal_closed_form(self):
        # transmit separation on a null; receive coupling left generic
        nt, nr = 8, 4
        paths = [
            PathComponent(2.0, AngleSpec(math.acos(-1.0 / nt)), AngleSpec(math.acos(-0.11))),
            PathComponent(1.0, AngleSpec(math.acos(1.0 / nt)), AngleSpec(math.acos(0.17))),
        ]
        tx_geom, rx_geom = ArrayGeometry(nt), ArrayGeometry(nr)
        ch = assemble_channel(paths, tx_geom, rx_geom)
        params = TwoPathParams.from_paths(paths, tx_geom, rx_geom)
        a, b, uu = params.gain_sq_1, params.gain_sq_2, params.uu_mag
        expected = (a + b + math.sqrt(a**2 + b**2 + 2 * a * b * (2 * uu**2 - 1))) / 4.0
        assert optimal_beamformer(ch).normalized_snr == pytest.approx(expected, rel=1e-11)

    def test_no_steering_combination_beats_the_optimum_l3(self, rng):
        # the optimal beam is a combination of the steering vectors (Proposition 1),
        # so no other combination's Rayleigh quotient of H may exceed its SNR
        tx_geom, rx_geom = geometry_pair(nt=8, nr=4)
        for _ in range(10):
            paths = random_paths(rng, 3)
            ch = assemble_channel(paths, tx_geom, rx_geom)
            best = optimal_beamformer(ch).normalized_snr
            span = steering_matrix(tx_geom, [p.aod for p in paths])
            beams = span @ (rng.standard_normal((3, 2000)) + 1j * rng.standard_normal((3, 2000)))
            power = np.sum(np.abs(ch.entries @ beams) ** 2, axis=0)
            quotient = power / np.sum(np.abs(beams) ** 2, axis=0) / (ch.num_tx * ch.num_rx)
            assert np.all(quotient <= best * (1.0 + 1e-12))

    def test_zero_channel_rejected(self):
        ch = ChannelMatrix(entries=np.zeros((4, 8), dtype=complex), num_paths=1)
        with pytest.raises(ValueError, match="zero"):
            optimal_beamformer(ch)

    def test_rerun_bit_identical(self, rng):
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(random_paths(rng, 3), tx_geom, rx_geom)
        p1 = optimal_beamformer(ch)
        p2 = optimal_beamformer(ch)
        np.testing.assert_array_equal(p1.tx, p2.tx)
        np.testing.assert_array_equal(p1.rx, p2.rx)
        assert p1.normalized_snr == p2.normalized_snr

    def test_phase_canonicalization(self, rng):
        tx_geom, rx_geom = geometry_pair()
        for _ in range(20):
            ch = assemble_channel(random_paths(rng, 2), tx_geom, rx_geom)
            pair = optimal_beamformer(ch)
            assert pair.tx[0].real >= 0.0
            assert abs(pair.tx[0].imag) < 1e-10 * max(abs(pair.tx[0]), 1e-30)


class TestReducedRoute:
    def test_diagonal_case(self):
        paths, tx_geom, rx_geom = orthogonal_pair_channel(gain1=2.0, gain2=1.0)
        pair = reduced_optimal_beamformer(paths, tx_geom, rx_geom)
        # reduced eigenvalues are {4, 1}; the top one maps to SNR 4/L
        assert pair.normalized_snr == pytest.approx(4.0 / 2.0, rel=1e-12)
        v1 = steering_vector(tx_geom, paths[0].aod)
        assert abs(np.vdot(pair.tx, v1)) == pytest.approx(1.0, abs=1e-10)

    def test_agrees_with_dense_route(self, rng):
        # the last two inputs cover Nr > Nt and more paths than receive antennas
        for nt, nr, path_counts in ((16, 4, (1, 2, 3, 5)), (2, 8, (1, 2, 3, 5)), (16, 2, (5,))):
            tx_geom, rx_geom = geometry_pair(nt=nt, nr=nr)
            for num_paths in path_counts:
                for _ in range(50):
                    paths = random_paths(rng, num_paths)
                    ch = assemble_channel(paths, tx_geom, rx_geom)
                    dense = optimal_beamformer(ch)
                    by_reduction = reduced_optimal_beamformer(
                        paths, tx_geom, rx_geom, channel=ch
                    )
                    assert by_reduction.normalized_snr == pytest.approx(
                        dense.normalized_snr, rel=1e-9
                    )

    def test_tx_in_steering_span(self, rng):
        tx_geom, rx_geom = geometry_pair(nt=16, nr=4)
        paths = random_paths(rng, 3)
        pair = reduced_optimal_beamformer(paths, tx_geom, rx_geom)
        span = steering_matrix(tx_geom, [p.aod for p in paths])
        q, _ = np.linalg.qr(span)
        resid = np.linalg.norm(pair.tx - q @ (q.conj().T @ pair.tx))
        assert resid < 1e-9

    def test_degenerate_inputs_give_defined_results(self, recwarn):
        # two coincident paths with opposite gains cancel to rounding noise:
        # the core is rank deficient but the SNR stays finite and tiny
        tx_geom, rx_geom = geometry_pair()
        paths = [
            PathComponent(1.0, AngleSpec(0.5), AngleSpec(0.7)),
            PathComponent(-1.0, AngleSpec(0.5), AngleSpec(0.7)),
        ]
        pair = reduced_optimal_beamformer(paths, tx_geom, rx_geom)
        assert 0.0 <= pair.normalized_snr < 1e-20

        # coincident paths add coherently at Nt=8, Nr=4: H = sqrt(Nt*Nr/2) * 1.5 * u v^H
        paths = [
            PathComponent(1.0, AngleSpec(0.5), AngleSpec(0.7)),
            PathComponent(0.5, AngleSpec(0.5), AngleSpec(0.7)),
        ]
        ch = assemble_channel(paths, tx_geom, rx_geom)
        for pair in (
            reduced_optimal_beamformer(paths, tx_geom, rx_geom, channel=ch),
            optimal_beamformer(ch),
        ):
            assert pair.normalized_snr == pytest.approx(1.125)
        assert len(recwarn) == 0


class TestSpanProperties:
    def test_all_significant_eigenvectors_in_span(self, rng):
        # every eigenvector of H^H H with a non-negligible eigenvalue is a
        # combination of the transmit steering vectors
        for num_paths, nt, nr in ((2, 8, 4), (3, 16, 4), (5, 16, 2)):
            tx_geom, rx_geom = ArrayGeometry(nt), ArrayGeometry(nr)
            paths = random_paths(rng, num_paths)
            ch = assemble_channel(paths, tx_geom, rx_geom)
            evals, evecs = np.linalg.eigh(ch.entries.conj().T @ ch.entries)
            span = steering_matrix(tx_geom, [p.aod for p in paths])
            q, _ = np.linalg.qr(span)
            for k in range(nt):
                if evals[k] > 1e-9 * evals[-1]:
                    vec = evecs[:, k]
                    resid = np.linalg.norm(vec - q @ (q.conj().T @ vec))
                    assert resid < 1e-8

    def test_rx_in_receive_span(self, rng):
        tx_geom, rx_geom = geometry_pair(nt=16, nr=4)
        paths = random_paths(rng, 3)
        ch = assemble_channel(paths, tx_geom, rx_geom)
        pair = optimal_beamformer(ch)
        span = steering_matrix(rx_geom, [p.aoa for p in paths])
        q, _ = np.linalg.qr(span)
        resid = np.linalg.norm(pair.rx - q @ (q.conj().T @ pair.rx))
        assert resid < 1e-8


class TestDominantPath:
    def test_coherent_alignment_gain(self):
        # both paths share angles -> |u1^H u2| = |v1^H v2| = 1, nu = 0
        tx_geom, rx_geom = geometry_pair()
        k = 3.0
        paths = [
            PathComponent(k, AngleSpec(0.8), AngleSpec(1.1)),
            PathComponent(1.0, AngleSpec(0.8), AngleSpec(1.1)),
        ]
        pair = dominant_path_beamformer(paths, tx_geom, rx_geom)
        assert pair.normalized_snr == pytest.approx((k + 1) ** 2 / 2.0, rel=1e-12)

    def test_orthogonal_paths_gain(self):
        paths, tx_geom, rx_geom = orthogonal_pair_channel(gain1=3.0, gain2=1.0)
        pair = dominant_path_beamformer(paths, tx_geom, rx_geom)
        assert pair.normalized_snr == pytest.approx(9.0 / 2.0, rel=1e-12)

    def test_matches_two_path_closed_form(self, rng):
        tx_geom, rx_geom = geometry_pair()
        for _ in range(20):
            paths = random_paths(rng, 2)
            p = TwoPathParams.from_paths(paths, tx_geom, rx_geom)
            a, b = p.gain_sq_1, p.gain_sq_2
            expected = (
                max(a + b * p.vv_mag**2, b + a * p.vv_mag**2)
                + 2.0 * p.mag_a1 * p.mag_a2 * p.vv_mag * p.uu_mag * math.cos(p.misalignment)
            ) / 2.0
            pair = dominant_path_beamformer(paths, tx_geom, rx_geom)
            assert pair.normalized_snr == pytest.approx(expected, rel=1e-10)

    def test_tie_breaks_to_first_path(self):
        tx_geom, rx_geom = geometry_pair()
        paths = [
            PathComponent(1.0, AngleSpec(0.4), AngleSpec(0.5)),
            PathComponent(-1.0, AngleSpec(1.4), AngleSpec(1.5)),
        ]
        pair = dominant_path_beamformer(paths, tx_geom, rx_geom)
        v1 = steering_vector(tx_geom, paths[0].aod)
        assert abs(np.vdot(pair.tx, v1)) == pytest.approx(1.0, abs=1e-12)


class TestBidirectional:
    def test_single_path_is_optimal(self, rng):
        tx_geom, rx_geom = geometry_pair()
        paths = random_paths(rng, 1)
        ch = assemble_channel(paths, tx_geom, rx_geom)
        pair = bidirectional_beamformer(paths, tx_geom, rx_geom, channel=ch)
        opt = optimal_beamformer(ch)
        assert pair.normalized_snr == pytest.approx(opt.normalized_snr, rel=1e-12)

    def test_orthogonal_paths(self):
        paths, tx_geom, rx_geom = orthogonal_pair_channel(gain1=1.0, gain2=2.0)
        pair = bidirectional_beamformer(paths, tx_geom, rx_geom)
        assert pair.normalized_snr == pytest.approx(4.0 / 2.0, rel=1e-12)

    def test_beams_are_steering_vectors(self, rng):
        tx_geom, rx_geom = geometry_pair()
        paths = random_paths(rng, 3)
        pair = bidirectional_beamformer(paths, tx_geom, rx_geom)
        mags_tx = np.abs(pair.tx)
        mags_rx = np.abs(pair.rx)
        np.testing.assert_allclose(mags_tx, 1.0 / math.sqrt(8.0), atol=1e-12)
        np.testing.assert_allclose(mags_rx, 1.0 / math.sqrt(4.0), atol=1e-12)


class TestEqualPower:
    def test_requires_two_paths(self, rng):
        tx_geom, rx_geom = geometry_pair()
        with pytest.raises(ValueError, match="two paths"):
            equal_power_beamformer(random_paths(rng, 3), tx_geom, rx_geom)

    def test_coherent_case(self):
        tx_geom, rx_geom = geometry_pair()
        k = 2.0
        paths = [
            PathComponent(k, AngleSpec(0.8), AngleSpec(1.1)),
            PathComponent(1.0, AngleSpec(0.8), AngleSpec(1.1)),
        ]
        pair = equal_power_beamformer(paths, tx_geom, rx_geom)
        assert pair.normalized_snr == pytest.approx((k + 1) ** 2 / 2.0, rel=1e-9)

    def test_fully_orthogonal_case(self):
        k = 3.0
        paths, tx_geom, rx_geom = orthogonal_pair_channel(gain1=k, gain2=1.0)
        pair = equal_power_beamformer(paths, tx_geom, rx_geom)
        assert pair.normalized_snr == pytest.approx((k**2 + 1) / 4.0, rel=1e-9)

    def test_matches_objective_at_half_power(self, rng):
        tx_geom, rx_geom = geometry_pair()
        for _ in range(10):
            paths = random_paths(rng, 2)
            pair = equal_power_beamformer(paths, tx_geom, rx_geom)
            params = TwoPathParams.from_paths(paths, tx_geom, rx_geom)
            # recover the phase the scheme picked and evaluate the objective there
            span = steering_matrix(tx_geom, [p.aod for p in paths])
            coeff = np.linalg.lstsq(span, pair.tx, rcond=None)[0]
            theta = float(np.angle(coeff[1] / coeff[0]))
            value = two_path_objective(
                params, AllocationPoint(beta=1.0 / math.sqrt(2.0), theta=theta)
            )
            assert pair.normalized_snr == pytest.approx(value, rel=1e-10)


# (name, nt, gains, departure azimuths, arrival azimuths) of degenerate two-path channels
DEGENERATE_EQUAL_POWER = [
    ("nt1", 1, (0.8 + 0.3j, -0.5 + 0.9j), (1.0, 2.0), (1.2, 1.9)),
    ("coincident_aod", 8, (0.8 + 0.3j, -0.5 + 0.9j), (1.0, 1.0), (1.2, 1.9)),
    *[
        (f"aod_gap_{gap:g}", 8, (0.8 + 0.3j, -0.5 + 0.9j), (1.0, 1.0 + gap), (1.2, 1.9))
        for gap in (1e-15, 1e-12, 1e-9, 1e-6)
    ],
    ("cancelling_gains", 8, (0.6 - 0.7j, -0.6 + 0.7j), (1.0, 2.0), (1.2, 1.9)),
    ("cancelling_gains_coincident_aod", 8, (0.6 - 0.7j, -0.6 + 0.7j), (1.0, 1.0), (1.2, 1.9)),
]


class TestEqualPowerDegenerate:
    @pytest.mark.parametrize(
        "nt,gains,aod,aoa",
        [case[1:] for case in DEGENERATE_EQUAL_POWER],
        ids=[case[0] for case in DEGENERATE_EQUAL_POWER],
    )
    def test_exact_phase_is_defined_and_matches_the_grid(self, nt, gains, aod, aoa, monkeypatch):
        tx_geom, rx_geom = geometry_pair(nt=nt, nr=4)
        paths = [PathComponent(g, AngleSpec(d), AngleSpec(a)) for g, d, a in zip(gains, aod, aoa)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            snr = equal_power_beamformer(paths, tx_geom, rx_geom).normalized_snr
            optimal = reduced_optimal_beamformer(paths, tx_geom, rx_geom).normalized_snr
        assert math.isfinite(snr)
        assert snr <= optimal * (1.0 + 1e-12)
        scale = abs(gains[0]) ** 2 + abs(gains[1]) ** 2
        assert abs(snr - equal_power_grid_snr(paths, tx_geom, rx_geom)) <= 1e-8 * scale

        # the Monte Carlo engine, fed this channel, gives the same loss bit for bit
        def draw_chunk(cfg, trials):
            return np.array([gains]), np.array([aod]), np.array([aoa]), 0

        monkeypatch.setattr(montecarlo, "_draw_chunk", draw_chunk)
        cfg = montecarlo.McConfig(num_paths=2, trials=1, seed=0, nt=nt, nr=4,
                                  scheme="equal_power")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            losses, _ = montecarlo._trial_losses(cfg)
        assert losses.tolist() == [_loss_db(optimal, snr)]


class TestSchemeDominance:
    def test_no_scheme_beats_the_optimum(self, rng):
        tx_geom, rx_geom = geometry_pair(nt=16, nr=4)
        for _ in range(30):
            paths = random_paths(rng, 2)
            ch = assemble_channel(paths, tx_geom, rx_geom)
            best = optimal_beamformer(ch).normalized_snr
            candidates = [
                dominant_path_beamformer(paths, tx_geom, rx_geom, channel=ch),
                bidirectional_beamformer(paths, tx_geom, rx_geom, channel=ch),
                equal_power_beamformer(paths, tx_geom, rx_geom, channel=ch),
            ]
            for pair in candidates:
                assert pair.normalized_snr <= best + 1e-9 * max(best, 1.0)

    def test_reported_loss_nonnegative_for_schemes(self, rng):
        tx_geom, rx_geom = geometry_pair(nt=16, nr=4)
        for _ in range(20):
            paths = random_paths(rng, 3)
            ch = assemble_channel(paths, tx_geom, rx_geom)
            for pair in (
                optimal_beamformer(ch),
                dominant_path_beamformer(paths, tx_geom, rx_geom, channel=ch),
                bidirectional_beamformer(paths, tx_geom, rx_geom, channel=ch),
            ):
                rep = received_snr(ch, pair.tx, pair.rx)
                assert rep.delta_snr_db >= -1e-9

    def test_pair_snr_consistent_with_evaluation(self, rng):
        tx_geom, rx_geom = geometry_pair()
        paths = random_paths(rng, 2)
        ch = assemble_channel(paths, tx_geom, rx_geom)
        for pair in (
            optimal_beamformer(ch),
            reduced_optimal_beamformer(paths, tx_geom, rx_geom, channel=ch),
            dominant_path_beamformer(paths, tx_geom, rx_geom, channel=ch),
            bidirectional_beamformer(paths, tx_geom, rx_geom, channel=ch),
            equal_power_beamformer(paths, tx_geom, rx_geom, channel=ch),
        ):
            assert abs(np.linalg.norm(pair.tx) - 1.0) < 1e-12
            assert abs(np.linalg.norm(pair.rx) - 1.0) < 1e-12
            evaluated = received_snr(ch, pair.tx, pair.rx).normalized_snr
            assert pair.normalized_snr == pytest.approx(evaluated, abs=1e-10)


class TestStackedKernels:
    def test_stack_gives_the_bits_of_single_channels(self, rng):
        # the Monte Carlo engine evaluates chunks; the public functions one channel
        from mmwbeam import beamformer
        from mmwbeam.steering import gram_stack, spatial_frequencies

        for nt, nr, num_paths in ((64, 4, 3), (2, 8, 5), (1, 3, 2), (16, 1, 2), (33, 5, 1)):
            tx_geom, rx_geom = geometry_pair(nt=nt, nr=nr, spacing=0.37)
            batch = 7
            gains = rng.standard_normal((batch, num_paths)) + 1j * rng.standard_normal(
                (batch, num_paths)
            )
            aod, aoa = rng.uniform(0.0, math.pi, (2, batch, num_paths))
            gram_t = gram_stack(tx_geom, spatial_frequencies(aod, math.pi / 2))
            gram_r = gram_stack(rx_geom, spatial_frequencies(aoa, math.pi / 2))
            kernels = [
                lambda g, t, r: beamformer._optimal_snr(g, t, r, beam=True),
                beamformer._dominant_snr,
                beamformer._bidirectional_snr,
            ]
            if num_paths == 2:
                kernels.append(beamformer._equal_power_snr)
            for kernel in kernels:
                stacked = kernel(gains, gram_t, gram_r)
                for b in range(batch):
                    rows = slice(b, b + 1)
                    single = kernel(gains[rows], gram_t[rows], gram_r[rows])
                    for whole, one in zip(stacked, single):
                        np.testing.assert_array_equal(whole[rows], one)
