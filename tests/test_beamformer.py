import math
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from conftest import (
    engine_inputs,
    equal_power_grid_snr,
    geometry_pair,
    kernel_args,
    random_paths,
    rotated_cores,
)
from mmwbeam import beamformer, montecarlo
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
from mmwbeam.montecarlo import sample_paths
from mmwbeam.steering import (
    AngleSpec,
    ArrayGeometry,
    gram_stack,
    spatial_frequencies,
    steering_matrix,
    steering_stack,
    steering_vector,
    _grams,
)


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
        assert received_snr(ch, f, g) == pytest.approx(k**2, rel=1e-12)

    def test_matches_triple_product_oracle(self, rng):
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(random_paths(rng, 3), tx_geom, rx_geom)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f /= np.linalg.norm(f)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        oracle = triple_product_oracle(ch.entries, f, g)
        assert received_snr(ch, f, g) == pytest.approx(oracle / 32.0, rel=1e-12)

    def test_matched_receive_gives_quadratic_form(self, rng):
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(random_paths(rng, 2), tx_geom, rx_geom)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f /= np.linalg.norm(f)
        quad = np.real(np.vdot(ch.entries @ f, ch.entries @ f))
        assert received_snr(ch, f, matched_filter(ch, f)) == pytest.approx(quad / 32.0, rel=1e-12)

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

    @pytest.mark.parametrize("end, size", [("tx", 4), ("rx", 8), ("tx", (8, 1)), ("rx", (1, 4))])
    def test_beam_of_the_wrong_shape_rejected(self, rng, end, size):
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(random_paths(rng, 1), tx_geom, rx_geom)
        beams = {"tx": np.full(8, 0.25, dtype=complex), "rx": np.ones(4, dtype=complex)}
        beams[end] = np.full(size, 0.25, dtype=complex)
        expected = {"tx": r"\(8,\)", "rx": r"\(4,\)"}[end]
        with pytest.raises(ValueError, match=f"{end} has shape .*, expected {expected}"):
            received_snr(ch, beams["tx"], beams["rx"])

    @pytest.mark.parametrize("end", ["tx", "rx"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_beam_rejected(self, rng, end, value):
        # a NaN entry passed both the energy and the nonzero check and gave a NaN SNR
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(random_paths(rng, 1), tx_geom, rx_geom)
        beams = {"tx": np.full(8, 0.25, dtype=complex), "rx": np.ones(4, dtype=complex)}
        beams[end][1] = value
        with pytest.raises(ValueError, match=f"{end} has a non-finite entry"):
            received_snr(ch, beams["tx"], beams["rx"])


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
        best = received_snr(ch, f, matched_filter(ch, f))
        for _ in range(100):
            g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert received_snr(ch, f, g) <= best + 1e-12

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
        ch = ChannelMatrix(entries=np.zeros((4, 8), dtype=complex))
        with pytest.raises(ValueError, match="zero"):
            matched_filter(ch, np.ones(8) / math.sqrt(8.0))

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_beam_rejected(self, rng, value):
        # a NaN entry gave a NaN receive vector and a RuntimeWarning
        tx_geom, rx_geom = geometry_pair()
        ch = assemble_channel(random_paths(rng, 2), tx_geom, rx_geom)
        tx = np.full(8, 0.25, dtype=complex)
        tx[3] = value
        with pytest.raises(ValueError, match="tx has a non-finite entry"):
            matched_filter(ch, tx)


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
        a, b, uu = params.mag_a1 * params.mag_a1, params.mag_a2 * params.mag_a2, params.uu_mag
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

    def test_zero_channel_gives_snr_zero_and_unit_beams(self):
        # an exactly zero H has no matched filter: its SNR is 0, its beams the SVD's own
        ch = ChannelMatrix(entries=np.zeros((4, 8), dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = optimal_beamformer(ch)
        left, _, right = np.linalg.svd(ch.entries)
        assert pair.normalized_snr == 0.0
        assert np.array_equal(pair.tx, right[0].conj()) and np.array_equal(pair.rx, left[:, 0])
        assert abs(np.linalg.norm(pair.tx) - 1.0) < 1e-15
        assert abs(np.linalg.norm(pair.rx) - 1.0) < 1e-15

    def test_a_zero_row_of_a_stack_leaves_the_others_their_bits(self, rng):
        entries = rng.standard_normal((5, 4, 8)) + 1j * rng.standard_normal((5, 4, 8))
        entries[2] = 0.0
        tx, rx, snr = beamformer._dense_optimal(entries)
        assert snr[2] == 0.0 and np.all(np.isfinite(tx[2])) and np.all(np.isfinite(rx[2]))
        for row in (0, 1, 3, 4):
            alone = optimal_beamformer(ChannelMatrix(entries=entries[row]))
            assert tx[row].tobytes() == alone.tx.tobytes()
            assert rx[row].tobytes() == alone.rx.tobytes()
            assert snr[row] == alone.normalized_snr > 0.0

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

    # the weights are quadratic in the gains and their power quartic: scales at which
    # these under- or overflow included
    @pytest.mark.parametrize("scale", (1e-150, 1e-100, 1.0, 1e100, 1e150))
    @pytest.mark.parametrize("spacing", (1e-4, 0.5, 2.0))
    def test_beam_attains_the_optimum(self, rng, spacing, scale):
        # the SNR of the returned beams, not only the reported one, is the optimum
        for nt, num_paths in ((8, 3), (64, 3), (8, 5), (64, 5)):
            tx_geom, rx_geom = geometry_pair(nt=nt, nr=4, spacing=spacing)
            for _ in range(20):
                paths = [PathComponent(scale * p.gain, p.aod, p.aoa)
                         for p in random_paths(rng, num_paths)]
                ch = assemble_channel(paths, tx_geom, rx_geom)
                pair = reduced_optimal_beamformer(paths, tx_geom, rx_geom, channel=ch)
                dense = optimal_beamformer(ch).normalized_snr
                # abs=0: approx's default absolute tolerance would pass any SNR of tiny gains
                assert received_snr(ch, pair.tx, pair.rx) == pytest.approx(
                    dense, rel=1e-12, abs=0.0)

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
            a, b = p.mag_a1 * p.mag_a1, p.mag_a2 * p.mag_a2
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

    @pytest.mark.parametrize("sampling", montecarlo.ANGLE_SAMPLING)
    @pytest.mark.parametrize("nt, nr", [(256, 16), (8, 4), (2, 2)])
    def test_snr_is_the_matched_snr_of_its_own_weights(self, nt, nr, sampling):
        # the SNR is that of the returned beam: y^H G_r y / 2 on y = gain * (G_t w), with
        # G_t w = (w0 + rho w1, conj(rho) w0 + w1) and the form written entry by entry; a
        # stacked gram_t @ w rounds its sums in its BLAS kernel's order, so it is only near
        cfg = montecarlo.McConfig(
            num_paths=2, trials=200, seed=nt + nr, nt=nt, nr=nr, scheme="equal_power",
            angle_sampling=sampling,
        )
        gains, gram_t, gram_r = engine_inputs(cfg)
        snr, weights = beamformer._equal_power_snr(gains, gram_t, gram_r)
        rho, (w0, w1) = gram_t[:, 0, 1], weights.T
        couplings = np.stack([w0 + rho * w1, np.conj(rho) * w0 + w1], axis=-1)[..., None]
        assert snr.tobytes() == (entrywise_form(gains, couplings, gram_r)[:, 0, 0].real / 2).tobytes()
        stacked = beamformer._matched_snr(gains, gram_t @ weights[..., None], gram_r)
        scale = np.sum(np.abs(gains), axis=-1) ** 2 / 2
        assert np.all(np.abs(snr - stacked) <= 16 * np.finfo(float).eps * scale)


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


PER_CHANNEL = (
    reduced_optimal_beamformer,
    dominant_path_beamformer,
    bidirectional_beamformer,
    equal_power_beamformer,
)


class TestPairFromPaths:
    @pytest.mark.parametrize("scheme", PER_CHANNEL)
    def test_a_mismatched_channel_is_not_read(self, scheme):
        # a receiver matched to the channel passed in, not to the paths, reaches
        # 0.2458 of the 0.5063 reported for the dominant path here
        tx_geom, rx_geom = geometry_pair(nt=8, nr=4)
        paths = path_list((1.0, 0.3), (0.5, 1.5), (0.7, 2.0))
        mismatched = assemble_channel(path_list((0.2, 0.3), (2.5, 1.5), (0.2, 2.0)),
                                      tx_geom, rx_geom)
        pair = scheme(paths, tx_geom, rx_geom, channel=mismatched)
        evaluated = received_snr(assemble_channel(paths, tx_geom, rx_geom), pair.tx, pair.rx)
        assert evaluated == pytest.approx(pair.normalized_snr, rel=1e-12)

    @pytest.mark.parametrize("scheme", PER_CHANNEL)
    @pytest.mark.parametrize("gain", (0.6 - 0.7j, 1e-200, 3e150j))
    def test_cancelling_paths_listen_along_the_strongest(self, scheme, gain):
        # g and -g on one direction cancel: the matched filter is undefined, and the
        # receive beam is the first strongest path's steering vector
        tx_geom, rx_geom = geometry_pair(nt=8, nr=4)
        paths = path_list((gain, -gain), (0.5, 0.5), (0.7, 0.7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = scheme(paths, tx_geom, rx_geom)
        assert 0.0 <= pair.normalized_snr <= 1e-20 * abs(gain) ** 2
        assert abs(np.linalg.norm(pair.tx) - 1.0) < 1e-12
        np.testing.assert_allclose(pair.rx, steering_vector(rx_geom, paths[0].aoa),
                                   rtol=0.0, atol=1e-15)

    def test_tiny_gains_keep_the_matched_filter(self):
        # the squared norm of the response to gains near 1e-157 is subnormal; the
        # response to gains scaled by a power of two keeps the bits of its direction
        tx_geom, rx_geom = geometry_pair(nt=8, nr=4)
        unit = path_list((0.8 + 0.3j, -0.5 + 0.9j), (0.5, 1.5), (0.7, 2.0))
        tiny = [PathComponent(p.gain * 2.0**-520, p.aod, p.aoa) for p in unit]
        # the dominant beam is the one whose transmit side does not depend on the scale
        reference = dominant_path_beamformer(unit, tx_geom, rx_geom)
        pair = dominant_path_beamformer(tiny, tx_geom, rx_geom)
        np.testing.assert_array_equal(pair.tx, reference.tx)
        np.testing.assert_array_equal(pair.rx, reference.rx)

    @pytest.mark.parametrize("scheme", PER_CHANNEL)
    def test_subnormal_gains_give_the_beams_of_normal_gains(self, scheme):
        # the scale of a subnormal peak, 2**1030 here, was formed alone and overflowed
        tx_geom, rx_geom = geometry_pair(nt=8, nr=4)
        tiny = path_list((1e-310, 3e-311j), (0.5, 1.5), (0.7, 2.0))
        normal = [PathComponent(p.gain * 2.0**1000, p.aod, p.aoa) for p in tiny]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = scheme(tiny, tx_geom, rx_geom)
        reference = scheme(normal, tx_geom, rx_geom)
        np.testing.assert_array_equal(pair.tx, reference.tx)
        np.testing.assert_array_equal(pair.rx, reference.rx)
        assert pair.normalized_snr == math.ldexp(reference.normalized_snr, -2000)

    @pytest.mark.parametrize("scheme", PER_CHANNEL)
    def test_beams_do_not_depend_on_the_scale_of_the_gains(self, scheme):
        # on unscaled gains x2^-560 the optimal core underflowed, and the reduced route
        # returned the dominant beam (|<tx, unit tx>| = 0.967), equal power 0.534
        tx_geom, rx_geom = geometry_pair(nt=8, nr=4)
        unit = path_list((0.8 + 0.3j, -0.5 + 0.9j), (0.5, 1.5), (0.7, 2.0))
        reference = scheme(unit, tx_geom, rx_geom)
        for k in range(-600, 501, 10):
            scaled = [PathComponent(p.gain * 2.0**k, p.aod, p.aoa) for p in unit]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pair = scheme(scaled, tx_geom, rx_geom)
            np.testing.assert_allclose(pair.tx, reference.tx, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(pair.rx, reference.rx, rtol=0.0, atol=1e-12)
            if -500 <= k <= 500:
                assert pair.normalized_snr == math.ldexp(reference.normalized_snr, 2 * k)


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

    def test_evaluated_snr_never_beats_the_optimum(self, rng):
        tx_geom, rx_geom = geometry_pair(nt=16, nr=4)
        for _ in range(20):
            paths = random_paths(rng, 3)
            ch = assemble_channel(paths, tx_geom, rx_geom)
            best = optimal_beamformer(ch).normalized_snr
            for pair in (
                optimal_beamformer(ch),
                dominant_path_beamformer(paths, tx_geom, rx_geom, channel=ch),
                bidirectional_beamformer(paths, tx_geom, rx_geom, channel=ch),
            ):
                # a loss of at least -1e-9 dB
                assert received_snr(ch, pair.tx, pair.rx) <= best * 10.0**1e-10

    def test_pair_snr_consistent_with_evaluation(self, rng):
        tx_geom, rx_geom = geometry_pair()
        paths = random_paths(rng, 2)
        ch = assemble_channel(paths, tx_geom, rx_geom)
        # a channel of other paths is not read: the pair is that of its own paths
        other = assemble_channel(random_paths(rng, 2), tx_geom, rx_geom)
        for pair in (
            optimal_beamformer(ch),
            *(
                scheme(paths, tx_geom, rx_geom, channel=given)
                for given in (ch, other)
                for scheme in PER_CHANNEL
            ),
        ):
            assert abs(np.linalg.norm(pair.tx) - 1.0) < 1e-12
            assert abs(np.linalg.norm(pair.rx) - 1.0) < 1e-12
            evaluated = received_snr(ch, pair.tx, pair.rx)
            assert pair.normalized_snr == pytest.approx(evaluated, abs=1e-10)


class TestStackedKernels:
    def test_stack_gives_the_bits_of_single_channels(self, rng):
        # the Monte Carlo engine evaluates chunks; the public functions one channel
        from mmwbeam import beamformer
        from mmwbeam.steering import gram_stack, spatial_frequencies

        for nt, nr, num_paths in (
            (64, 4, 3), (2, 8, 5), (1, 3, 2), (16, 1, 2), (256, 16, 2), (33, 5, 1)
        ):
            tx_geom, rx_geom = geometry_pair(nt=nt, nr=nr, spacing=0.37)
            batch = 7
            gains = rng.standard_normal((batch, num_paths)) + 1j * rng.standard_normal(
                (batch, num_paths)
            )
            aod, aoa = rng.uniform(0.0, math.pi, (2, batch, num_paths))
            gram_t = gram_stack(tx_geom, spatial_frequencies(aod))
            gram_r = gram_stack(rx_geom, spatial_frequencies(aoa))
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


def dense_optimum(cfg, trial):
    """Top squared singular value of the trial's assembled channel over Nt * Nr."""
    paths = sample_paths(cfg, trial)
    h = assemble_channel(paths, cfg.tx_geometry, cfg.rx_geometry).entries
    return np.linalg.svd(h, compute_uv=False)[0] ** 2 / (cfg.nt * cfg.nr)


class TestNearCollinearOptimum:
    # At spacings far below half a wavelength every steering vector nearly
    # equals every other: G_t is numerically rank deficient, and its factor
    # must not amplify the rounding of its near-zero directions.
    @pytest.mark.parametrize("nt", (2, 16, 64))
    @pytest.mark.parametrize("num_paths", (2, 3, 5))
    @pytest.mark.parametrize("spacing", (1e-6, 1e-4, 1e-2))
    def test_engine_optimum_matches_dense_svd(self, spacing, num_paths, nt):
        cfg = montecarlo.McConfig(num_paths=num_paths, trials=150, seed=2024, nt=nt, nr=4,
                                  spacing_wavelengths=spacing)
        optimal = beamformer._optimal_snr(*engine_inputs(cfg))[0]
        dense = np.array([dense_optimum(cfg, trial) for trial in range(cfg.trials)])
        assert np.max(np.abs(optimal - dense) / dense) <= 2e-12


FACTOR_GAINS = (0.8 + 0.3j, -0.5 + 0.9j, 0.4 - 1.1j, -0.7 - 0.2j, 1.2 + 0.1j)
FACTOR_ARRIVALS = (1.2, 1.9, 0.6, 2.4, 1.5)

# (nt, gains, aod, aoa) whose transmit Gram G_t is singular or nearly so: departures
# coincident or a gap apart, or fewer transmit antennas than paths.
SINGULAR_GRAMS = [
    *(
        pytest.param(16, FACTOR_GAINS[:n], tuple(1.0 + gap * k for k in range(n)),
                     FACTOR_ARRIVALS[:n], id=f"L{n}_aod_gap_{gap:g}")
        for n in (3, 5)
        for gap in (0.0, 1e-15, 1e-12, 1e-9)
    ),
    *(
        pytest.param(nt, FACTOR_GAINS[:n], (0.4, 1.1, 1.7, 2.2, 2.9)[:n],
                     FACTOR_ARRIVALS[:n], id=f"L{n}_nt{nt}")
        for n in (3, 5)
        for nt in (1, 2)
    ),
]

# Coincident paths (both angles shared) whose gains sum to 0: the core is zero.
CANCELLING_GAINS = [
    pytest.param((1.0, -0.5, -0.5), id="L3"),
    pytest.param((1.0, -1.0, 0.3, 0.3, -0.6), id="L5"),
]


def path_list(gains, aod, aoa):
    return [PathComponent(g, AngleSpec(d), AngleSpec(a)) for g, d, a in zip(gains, aod, aoa)]


def engine_losses(paths, nt, monkeypatch):
    """Bi-directional losses of the Monte Carlo engine fed one channel, with warnings as errors."""
    gains = np.array([[complex(p.gain) for p in paths]])
    aod = np.array([[p.aod.azimuth_rad for p in paths]])
    aoa = np.array([[p.aoa.azimuth_rad for p in paths]])

    def draw_chunk(cfg, trials):
        return gains, aod, aoa, 0

    monkeypatch.setattr(montecarlo, "_draw_chunk", draw_chunk)
    cfg = montecarlo.McConfig(num_paths=len(paths), trials=1, seed=0, nt=nt, nr=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return montecarlo._trial_losses(cfg)[0].tolist()


def pivot_order(factor):
    """Rows of a factor in its pivot order, read off the factor alone.

    Column k's root is a row, not yet taken, with no nonzero entry after
    column k.  Where several rows qualify (at the last live column, every
    row left does), a real nonnegative entry marks the root, the largest if
    several have one.  A column no row fits leaves the order short.
    """
    order = []
    for k in range(factor.shape[1]):
        rows = [r for r in range(factor.shape[0])
                if r not in order and not np.any(factor[r, k + 1:])]
        if rows:
            entry = {r: factor[r, k] for r in rows}
            order.append(max(rows, key=lambda r: (
                entry[r].imag == 0.0 and entry[r].real >= 0.0, abs(entry[r]))))
    return order


class TestFactorDegenerateInputs:
    @pytest.mark.parametrize("nt", (1, 2, 16))
    @pytest.mark.parametrize("num_paths", (3, 5))
    @pytest.mark.parametrize("spacing", (1e-6, 0.5))
    def test_factor_is_triangular_in_pivot_order(self, spacing, num_paths, nt):
        cfg = montecarlo.McConfig(num_paths=num_paths, trials=64, seed=5, nt=nt,
                                  spacing_wavelengths=spacing)
        gram_t = engine_inputs(cfg)[1]
        factor = beamformer._gram_factor(gram_t)
        np.testing.assert_allclose(factor @ np.conj(np.swapaxes(factor, 1, 2)), gram_t,
                                   rtol=0.0, atol=16 * np.finfo(float).eps)
        for f in factor:
            order = pivot_order(f)
            assert sorted(order) == list(range(num_paths))
            ordered = f[order]
            # exactly lower triangular in pivot order, with a nonnegative real diagonal
            assert np.all(np.triu(ordered, 1) == 0.0)
            assert np.all(np.diag(ordered).imag == 0.0) and np.all(np.diag(ordered).real >= 0.0)

    def test_optimum_calls_lapack_save_for_the_closed_forms_at_two_and_three_paths(
            self, monkeypatch):
        # at L = 2 the factor and the top eigenvalue are in closed form; at every other L
        # the factor is one stacked Cholesky call, and at L = 3 eigvalsh is left for
        # near-double tops, which these draws do not have
        calls = []

        def spy(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        for name in ("eigh", "eigvalsh", "svd", "cholesky", "solve", "lstsq", "pinv"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        monkeypatch.setattr(_umath_linalg, "cholesky_lo",
                            spy("cholesky", _umath_linalg.cholesky_lo))
        expected = {1: ["cholesky", "eigvalsh"], 2: [], 3: ["cholesky"],
                    5: ["cholesky", "eigvalsh"]}
        for num_paths, route in expected.items():
            inputs = engine_inputs(montecarlo.McConfig(num_paths=num_paths, trials=16, seed=1))
            calls.clear()
            beamformer._optimal_snr(*inputs)
            assert calls == route

    @pytest.mark.parametrize("nt,gains,aod,aoa", SINGULAR_GRAMS)
    def test_reduced_route_matches_dense_svd(self, nt, gains, aod, aoa):
        tx_geom, rx_geom = geometry_pair(nt=nt, nr=4)
        paths = path_list(gains, aod, aoa)
        ch = assemble_channel(paths, tx_geom, rx_geom)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = reduced_optimal_beamformer(paths, tx_geom, rx_geom, channel=ch)
        dense = optimal_beamformer(ch).normalized_snr
        assert pair.normalized_snr == pytest.approx(dense, rel=1e-12)
        # the beam mapped through the channel attains the optimum
        assert abs(np.linalg.norm(pair.tx) - 1.0) < 1e-12
        assert received_snr(ch, pair.tx, pair.rx) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("nt,gains,aod,aoa", SINGULAR_GRAMS)
    def test_engine_gives_the_public_loss(self, nt, gains, aod, aoa, monkeypatch):
        tx_geom, rx_geom = geometry_pair(nt=nt, nr=4)
        paths = path_list(gains, aod, aoa)
        optimal = reduced_optimal_beamformer(paths, tx_geom, rx_geom).normalized_snr
        scheme = bidirectional_beamformer(paths, tx_geom, rx_geom).normalized_snr
        losses = engine_losses(paths, nt, monkeypatch)
        assert losses == [_loss_db(optimal, scheme)]
        assert math.isfinite(losses[0])

    @pytest.mark.parametrize("gains", CANCELLING_GAINS)
    def test_cancelling_coincident_gains_give_a_unit_beam(self, gains, monkeypatch):
        tx_geom, rx_geom = geometry_pair()
        paths = path_list(gains, (0.5,) * len(gains), (0.7,) * len(gains))
        ch = assemble_channel(paths, tx_geom, rx_geom)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = reduced_optimal_beamformer(paths, tx_geom, rx_geom, channel=ch)
            args = kernel_args(paths, tx_geom, rx_geom)
            weights = beamformer._optimal_snr(*args, beam=True)[1]
        assert 0.0 <= pair.normalized_snr < 1e-20
        assert optimal_beamformer(ch).normalized_snr < 1e-20
        assert np.all(np.isfinite(pair.tx)) and abs(np.linalg.norm(pair.tx) - 1.0) < 1e-12
        # V w has unit norm: w^H G_t w = 1, with G_t all ones here
        assert abs(np.sum(weights)) == pytest.approx(1.0, rel=1e-12)
        scheme = bidirectional_beamformer(paths, tx_geom, rx_geom).normalized_snr
        assert engine_losses(paths, 8, monkeypatch) == [_loss_db(pair.normalized_snr, scheme)]


def singular_inputs(num_paths):
    """Gains (B, L) and Grams (B, L, L) of the ``SINGULAR_GRAMS`` cases with L paths, Nr = 4."""
    cases = [case.values for case in SINGULAR_GRAMS if len(case.values[1]) == num_paths]
    gains = np.array([case[1] for case in cases])
    gram_t = np.stack([gram_stack(ArrayGeometry(nt), spatial_frequencies(np.array(aod)))
                       for nt, _, aod, _ in cases])
    gram_r = gram_stack(ArrayGeometry(4), spatial_frequencies(np.array([c[3] for c in cases])))
    return gains, gram_t, gram_r


def mixed_inputs(num_paths):
    """``singular_inputs`` and engine draws at Nt = 4 and 64, interleaved in one stack."""
    parts = [singular_inputs(num_paths)] + [
        engine_inputs(montecarlo.McConfig(num_paths=num_paths, trials=24, seed=11, nt=nt))
        for nt in (4, 64)
    ]
    order = np.random.default_rng(num_paths).permutation(sum(len(part[0]) for part in parts))
    return [np.concatenate(arrays)[order] for arrays in zip(*parts)]


def refused_by_cholesky(gram):
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return True
    return False


class TestFactorRoute:
    @pytest.mark.parametrize("num_paths", (3, 5))
    def test_each_row_of_a_mixed_stack_has_the_bits_of_its_own_factor(self, num_paths):
        # rows that zpotrf refuses take the pivoted factor; the others LAPACK's, and no row
        # depends on the rows around it
        gram_t = mixed_inputs(num_paths)[1]
        refused = [refused_by_cholesky(gram) for gram in gram_t]
        assert 0 < sum(refused) < len(gram_t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = beamformer._gram_factor(gram_t)
        for gram, row, pivoted in zip(gram_t, factor, refused):
            assert row.tobytes() == beamformer._gram_factor(gram[None])[0].tobytes()
            expected = beamformer._pivoted_factor(gram[None])[0] if pivoted else (
                np.linalg.cholesky(gram))
            assert row.tobytes() == expected.tobytes()

    def test_the_cholesky_gufunc_gives_nan_for_a_refused_row(self):
        # the factor route reads refusals off this behaviour of numpy's gufunc: a refused
        # matrix comes back all NaN, an accepted one with np.linalg.cholesky's bits
        rng = np.random.default_rng(4)
        draws = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
        definite = draws @ np.conj(np.swapaxes(draws, 1, 2)) + 0.1 * np.eye(4)
        vec = draws[0, :, :1]
        refused = np.stack([np.ones((4, 4)), vec @ np.conj(vec.T),
                            np.diag([1.0, -1.0, 1.0, 1.0]), np.zeros((4, 4))]) + 0j
        stack = np.stack([definite[0], refused[0], definite[1], refused[1], refused[2],
                          definite[2], refused[3], definite[3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                out = _umath_linalg.cholesky_lo(stack, signature="D->D")
        for gram, row in zip(stack, out):
            if refused_by_cholesky(gram):
                assert np.all(np.isnan(row.real)) and np.all(np.isnan(row.imag))
            else:
                assert row.tobytes() == np.linalg.cholesky(gram).tobytes()
        assert [refused_by_cholesky(gram) for gram in stack] == [
            False, True, False, True, True, False, True, False]

    @pytest.mark.parametrize("num_paths", (3, 4, 5, 6))
    @pytest.mark.parametrize("nt", (2, 4, 64))
    @pytest.mark.parametrize("gap", (None, 1e-3, 1e-6, 1e-9, 1e-12))
    def test_optimum_matches_the_pivoted_core_and_the_dense_svd(self, gap, nt, num_paths):
        # zpotrf accepts some rank-deficient Grams: their factor must still give the optimum
        rng = np.random.default_rng(num_paths * 1000 + nt)
        batch = 16
        gains = rng.standard_normal((batch, num_paths)) + 1j * rng.standard_normal(
            (batch, num_paths))
        freq_t, freq_r = rng.uniform(-1.0, 1.0, (2, batch, num_paths))
        if gap is not None:
            # departures a gap apart: all of them in the first half of the rows, two after
            apart = gap * np.arange(num_paths)
            freq_t[: batch // 2] = freq_t[: batch // 2, :1] + apart
            freq_t[batch // 2 :, 1] = freq_t[batch // 2 :, 0] + gap
        tx_geom, rx_geom = geometry_pair(nt=nt, nr=4)
        gram_t, gram_r = gram_stack(tx_geom, freq_t), gram_stack(rx_geom, freq_r)
        channels = (steering_stack(rx_geom, freq_r) * gains[:, None, :]) @ np.conj(
            np.swapaxes(steering_stack(tx_geom, freq_t), 1, 2))
        dense = np.linalg.svd(channels, compute_uv=False)[:, 0] ** 2 / num_paths
        for power in (-500, 0, 500):
            scaled = gains * 2.0**power
            optimal = beamformer._optimal_snr(scaled, gram_t, gram_r)[0]
            core = beamformer._hermitian_form(scaled, beamformer._pivoted_factor(gram_t), gram_r)
            pivoted = np.linalg.eigvalsh(core)[:, -1] / num_paths
            assert np.all(np.abs(optimal - pivoted) <= 1e-13 * pivoted)
            assert np.all(np.abs(optimal - dense * 4.0**power) <= 1e-13 * dense * 4.0**power)


def stacked_one_hot_snrs(gains, gram_t, gram_r):
    """Dominant-path and bi-directional SNRs (B,) with the one-hot weights applied by ``@``."""
    size = gains.shape[-1]
    weights = np.eye(size)[np.argmax(np.abs(gains), axis=-1)]
    tx_couplings = gram_t @ weights[..., None]
    rx_couplings = (weights[:, None, :] @ gram_r)[:, 0]
    dominant = beamformer._hermitian_form(gains, tx_couplings, gram_r)[:, 0, 0].real / size
    amp = np.sum(gains * rx_couplings * tx_couplings[..., 0], axis=-1)
    return dominant, (amp.real**2 + amp.imag**2) / size, weights


class TestOneHotReads:
    # at L = 2 the two-path kernels read the couplings instead (see TestTwoPathKernels)
    @pytest.mark.parametrize("num_paths", (1, 3, 5))
    @pytest.mark.parametrize("nt", (4, 64))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_column_reads_give_the_bits_of_the_stacked_product_on_engine_draws(
            self, seed, nt, num_paths):
        cfg = montecarlo.McConfig(num_paths=num_paths, trials=200, seed=seed, nt=nt)
        self.assert_same_bits(*engine_inputs(cfg))

    @pytest.mark.parametrize("num_paths", (3, 5))
    def test_column_reads_give_the_bits_of_the_stacked_product_on_singular_grams(
            self, num_paths):
        self.assert_same_bits(*singular_inputs(num_paths))

    @staticmethod
    def assert_same_bits(gains, gram_t, gram_r):
        dominant, bidirectional, weights = stacked_one_hot_snrs(gains, gram_t, gram_r)
        for kernel, expected in ((beamformer._dominant_snr, dominant),
                                 (beamformer._bidirectional_snr, bidirectional)):
            snr, read_weights = kernel(gains, gram_t, gram_r)
            assert snr.tobytes() == expected.tobytes()
            assert read_weights.tobytes() == weights.tobytes()


class TestTopEigenvalue:
    # spectra whose top two eigenvalues are apart, and (at odd rows) ones where they
    # coincide or nearly do, so that 1 + r falls below NEAR_DOUBLE_TOP
    SPECTRA = [(3.0, 1.0, 0.5), (1.0, 1.0, 0.2), (1.0, 0.9, 0.0), (1.0, 1.0 - 1e-6, 0.0),
               (1.0, 0.0, 0.0), (5.0, 5.0, 5.0 - 1e-3), (2.0, 1.0, 1.0)]
    FLAGGED = [1, 3, 5]

    def test_eigvalsh_runs_on_the_near_double_tops_alone(self, monkeypatch):
        cores = rotated_cores(np.random.default_rng(0), self.SPECTRA)
        expected = np.linalg.eigvalsh(cores)[:, -1]
        seen, eigvalsh = [], np.linalg.eigvalsh

        def spy(stack):
            seen.append(stack.copy())
            return eigvalsh(stack)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        top = beamformer._top_eigenvalues(cores)
        assert len(seen) == 1 and np.array_equal(seen[0], cores[self.FLAGGED])
        # the flagged rows read eigvalsh's bits; the others the closed form's, within a few eps
        assert np.array_equal(top[self.FLAGGED], expected[self.FLAGGED])
        np.testing.assert_allclose(top, expected, rtol=1e-14, atol=0.0)

    def test_scaled_cores_give_the_scaled_top(self):
        # the closed form runs on the core scaled by a power of two, so a power of two
        # moves no bit, down to gains at the engine's floor and up past 2^500
        apart = [spectrum for k, spectrum in enumerate(self.SPECTRA) if k not in self.FLAGGED]
        cores = rotated_cores(np.random.default_rng(0), apart)
        top = beamformer._top_eigenvalues(cores)
        for power in (-1000, -600, 600, 1000):
            assert np.array_equal(beamformer._top_eigenvalues(cores * 2.0**power),
                                  top * 2.0**power)

    def test_lapack_gives_a_one_path_core_and_gram_back_as_they_are(self):
        # at L = 1 the factor of G_t = [[1]] is [[1]] and the top eigenvalue the core's real
        # entry: zpotrf and zheevd return them bit for bit, from subnormal entries to 2^1000
        rng = np.random.default_rng(1)
        exponents = np.concatenate([np.arange(-1074, 1001), rng.integers(-1074, 1001, 1000)])
        entries = np.ldexp(rng.uniform(0.5, 1.0, (2, len(exponents))), exponents)
        cores = (entries[0] + 1j * entries[1])[:, None, None]
        top = beamformer._top_eigenvalues(cores)
        assert top.tobytes() == cores[:, 0, 0].real.tobytes()
        grams = np.ones((len(cores), 1, 1), dtype=complex)
        assert beamformer._gram_factor(grams).tobytes() == grams.tobytes()


def entrywise_form(gains, factor, gram_r):
    """``M^H G_r M`` (B, K, K) of ``M = diag(gain) Y``, factors Y (B, L, K), entry by entry.

    The matrix route of the two-path kernels, kept as their oracle: each 2 x 2 product
    is ``beamformer._product``'s, with the batch axis last, products with the Grams'
    ones and zeros included.
    """
    mapped = np.multiply(gains.T[:, None], factor.transpose(1, 2, 0), order="C")
    rx = np.ascontiguousarray(gram_r.transpose(1, 2, 0))
    inner = beamformer._product(rx, mapped)
    return beamformer._product(np.conj(mapped).transpose(1, 0, 2), inner).transpose(2, 0, 1)


def matrix_route_snrs(gains, gram_t, gram_r):
    """SNRs (B,) of the optimum and of each scheme, and the weights of each scheme, on the
    2 x 2 Grams: the forms of ``entrywise_form``, the factor written out."""
    rows, size = np.arange(len(gains)), gains.shape[-1]
    factor = np.zeros_like(gram_t)
    factor[:, :, 0] = gram_t[:, :, 0]
    rest = 1.0 - (factor[:, 1, 0].real ** 2 + factor[:, 1, 0].imag ** 2)
    factor[:, 1, 1] = np.sqrt(np.where(rest > beamformer.PIVOT_FLOOR, rest, 0.0))
    core = entrywise_form(gains, factor, gram_r)
    c00, c11 = core[:, 0, 0].real, core[:, 1, 1].real
    optimal = (0.5 * (c00 + c11) + np.hypot(0.5 * (c00 - c11), np.abs(core[:, 0, 1]))) / size
    strongest = np.argmax(np.abs(gains), axis=-1)
    one_hot = np.eye(size)[strongest]
    column = gram_t[rows, :, strongest, None]
    dominant = entrywise_form(gains, column, gram_r)[:, 0, 0].real / size
    amp = np.sum(gains * gram_r[rows, strongest] * gram_t[rows, :, strongest], axis=-1)
    bidirectional = (amp.real**2 + amp.imag**2) / size
    # the equal-power scheme of the quadratic forms Q = (diag(gain) G_t)^H G_r (diag(gain) G_t)
    quad = entrywise_form(gains, gram_t, gram_r)
    rho = gram_t[:, 0, 1]
    delta, turn = np.abs(rho), np.angle(rho)
    alpha = 0.5 * (quad[:, 0, 0].real + quad[:, 1, 1].real)
    unit = np.where(alpha > 0.0, alpha, 1.0)
    cross = quad[:, 0, 1] * np.exp(-1j * turn) / unit
    phi = beamformer._phase_peak(alpha / unit, cross.real, -cross.imag, delta)[1]
    norm_sq = 2.0 + 2.0 * delta * np.cos(phi)
    live = norm_sq > beamformer.MIN_BEAM_NORM_SQ
    theta = np.where(live, phi, 0.0) - turn
    weights = np.empty((len(theta), 2), dtype=complex)
    weights[:, 0] = 1.0
    weights[:, 1] = np.exp(1j * theta)
    weights /= np.sqrt(np.where(live, norm_sq, 2.0 + 2.0 * delta))[:, None]
    w0, w1 = weights[:, 0], weights[:, 1]
    couplings = np.stack([w0 + rho * w1, np.conj(rho) * w0 + w1], axis=-1)[..., None]
    equal = entrywise_form(gains, couplings, gram_r)[:, 0, 0].real / size
    return optimal, {"dominant_tx_mf_rx": (dominant, one_hot),
                     "bidirectional": (bidirectional, one_hot), "equal_power": (equal, weights)}


def two_path_inputs(nt, nr, spacing, seed):
    """Engine draws of two-path channels with the degenerate rows of ``DEGENERATE_EQUAL_POWER``
    and coincident arrivals appended: gains (B, 2) and both Grams (B, 2, 2)."""
    cfg = montecarlo.McConfig(num_paths=2, trials=64, seed=seed, nt=nt, nr=nr,
                              spacing_wavelengths=spacing)
    gains, aod, aoa, _ = montecarlo._draw_chunk(cfg, range(cfg.trials))
    cases = [case[2:] for case in DEGENERATE_EQUAL_POWER]
    extra = [(g, d, (a[0], a[0])) for g, d, a in cases]
    gains = np.concatenate([gains, [case[0] for case in cases + extra]])
    aod = np.concatenate([aod, [case[1] for case in cases + extra]])
    aoa = np.concatenate([aoa, [case[2] for case in cases + extra]])
    gram_t = gram_stack(ArrayGeometry(nt, spacing), spatial_frequencies(aod))
    gram_r = gram_stack(ArrayGeometry(nr, spacing), spatial_frequencies(aoa))
    return gains, gram_t, gram_r


class TestTwoPathKernels:
    @pytest.mark.parametrize("power", (-500, 0, 500))
    @pytest.mark.parametrize("nt,nr,spacing", [(64, 4, 0.5), (256, 16, 0.5), (1, 4, 0.5),
                                               (8, 1, 1.7), (16, 16, 1e-4)])
    def test_each_kernel_keeps_the_bits_of_the_matrix_route(self, nt, nr, spacing, power):
        # leaving out the exact products with the Grams' and the factor's ones and zeros
        # moves no bit: on engine draws and on coincident, cancelling and one-element cases
        gains, gram_t, gram_r = two_path_inputs(nt, nr, spacing, seed=nt + nr)
        gains = gains * 2.0**power
        rho_t, rho_r = gram_t[:, 0, 1], gram_r[:, 0, 1]
        optimal, schemes = matrix_route_snrs(gains, gram_t, gram_r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert beamformer._two_path_optimal(gains, rho_t, rho_r)[0].tobytes() == (
                optimal.tobytes())
            for scheme, (snr, weights) in schemes.items():
                got = montecarlo._TWO_PATH_SNR[scheme](gains, rho_t, rho_r)
                assert got[0].tobytes() == snr.tobytes(), scheme
                assert got[1].tobytes() == weights.tobytes(), scheme

    def test_the_engine_forms_no_matrix_at_two_paths(self, monkeypatch):
        # at L = 2 a chunk's Gram data is its two couplings: no Gram, factor, core or top
        # eigenvalue routine runs, and no LAPACK call
        calls = []

        def spy(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        for owner, names in ((beamformer, ("_gram_factor", "_pivoted_factor", "_hermitian_form",
                                           "_top_eigenvalues", "_matched_snr", "_product",
                                           "_optimal_weights", "_matrices")),
                             (montecarlo, ("_grams", "_optimal_snr")),
                             (np.linalg, ("eigh", "eigvalsh", "svd", "cholesky", "solve"))):
            for name in names:
                monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
        monkeypatch.setattr(_umath_linalg, "cholesky_lo",
                            spy("cholesky_lo", _umath_linalg.cholesky_lo))
        for scheme in montecarlo.SCHEMES:
            for sampling in montecarlo.ANGLE_SAMPLING:
                montecarlo.run_ccdf(montecarlo.McConfig(
                    num_paths=2, trials=50, seed=1, scheme=scheme, angle_sampling=sampling))
        assert calls == []
        montecarlo.run_ccdf(montecarlo.McConfig(num_paths=3, trials=50, seed=1))
        assert "_grams" in calls and "cholesky_lo" in calls
