import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from mmwbeam import closedform
from mmwbeam.beamformer import optimal_beamformer, received_snr
from mmwbeam.channel import assemble_channel
from mmwbeam.cli import EXIT_USAGE, main
from mmwbeam.closedform import (
    REGIMES,
    AllocationPoint,
    RegimeError,
    TwoPathParams,
    allocation_grid_search,
    beta_opt_u_orth,
    beta_opt_u_parallel,
    beta_opt_v_orth,
    delta_snr_u_orth,
    delta_snr_u_orth_equal_gains,
    delta_snr_u_parallel,
    delta_snr_v_orth,
    delta_snr_v_parallel,
    objective_grid,
    snr_dominant_path,
    snr_optimal,
    two_path_objective,
)
from mmwbeam.steering import steering_vector
from mmwbeam.verify import _SUITE_CASES, _draw_params
from verify_reference import scan_bounds, two_path_fixture

SQRT2 = math.sqrt(2.0)
EPS = np.finfo(float).eps


def random_params(rng, **overrides):
    base = dict(
        mag_a1=float(rng.rayleigh(math.sqrt(0.5))) + 1e-3,
        mag_a2=float(rng.rayleigh(math.sqrt(0.5))) + 1e-3,
        phase_diff=float(rng.uniform(0.0, 2.0 * math.pi)),
        uu_mag=float(rng.uniform(0.0, 1.0)),
        uu_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
        vv_mag=float(rng.uniform(0.0, 1.0)),
        vv_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
    )
    base.update(overrides)
    return TwoPathParams(**base)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwoPathParams(mag_a1=-1.0, mag_a2=1.0)
        with pytest.raises(ValueError):
            TwoPathParams(mag_a1=1.0, mag_a2=1.0, uu_mag=1.5)
        # a gain whose square overflows would make every closed form raise OverflowError
        for mag in (1e160, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite square"):
                TwoPathParams(mag_a1=1.0, mag_a2=mag)

    @pytest.mark.parametrize("name", ["phase_diff", "uu_phase", "vv_phase"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, name, value):
        # a NaN transmit phase made every grid entry a masked -inf, a NaN receive phase
        # every entry NaN
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TwoPathParams(0.6, 0.9, uu_mag=0.3, vv_mag=0.4, **{name: value})

    def test_misalignment_wraps_to_half_open_interval(self):
        p = TwoPathParams(1.0, 1.0, phase_diff=3.0, uu_phase=-3.0, vv_phase=3.0)
        assert -math.pi < p.misalignment <= math.pi
        q = TwoPathParams(1.0, 1.0, phase_diff=math.pi)
        assert q.misalignment == pytest.approx(math.pi)

    def test_from_paths_measures_channel(self, rng):
        paths, tx_geom, rx_geom = two_path_fixture(
            "v-orth", (2.0, 1.0), (0.3, -0.4), 0.6
        )
        p = TwoPathParams.from_paths(paths, tx_geom, rx_geom)
        assert p.mag_a1 == pytest.approx(2.0)
        assert p.vv_mag < 1e-12
        assert p.uu_mag == pytest.approx(0.6, abs=1e-12)
        assert p.phase_diff == pytest.approx(0.7)

    @pytest.mark.parametrize("count", [1, 3])
    def test_from_paths_needs_two_paths(self, count):
        paths, tx_geom, rx_geom = two_path_fixture("v-orth", (2.0, 1.0), (0.3, -0.4), 0.6)
        paths = (paths * 2)[:count]
        with pytest.raises(ValueError, match="exactly two paths"):
            TwoPathParams.from_paths(paths, tx_geom, rx_geom)

    def test_allocation_theta_normalized(self):
        a = AllocationPoint(beta=0.5, theta=-1.0)
        assert 0.0 <= a.theta < 2.0 * math.pi
        with pytest.raises(ValueError):
            AllocationPoint(beta=1.5, theta=0.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        # theta = inf was stored as nan, and the objective then read a zero-norm beam
        with pytest.raises(ValueError, match="theta must be finite"):
            AllocationPoint(beta=0.5, theta=theta)


class TestObjective:
    def test_full_power_reduces_to_dominant_path_term(self, rng):
        for _ in range(50):
            p = random_params(rng)
            a, b = p.mag_a1 * p.mag_a1, p.mag_a2 * p.mag_a2
            expected = (
                a
                + b * p.vv_mag**2
                + 2.0 * p.mag_a1 * p.mag_a2 * p.vv_mag * p.uu_mag * math.cos(p.misalignment)
            ) / 2.0
            value = two_path_objective(p, AllocationPoint(beta=1.0, theta=0.0))
            assert value == pytest.approx(expected, rel=1e-12)

    def test_coherent_equal_split_doubles(self):
        p = TwoPathParams(1.0, 1.0, uu_mag=1.0, vv_mag=1.0)
        # theta = 0 gives beam phase 0 here since vv_phase = 0
        value = two_path_objective(p, AllocationPoint(beta=1.0 / SQRT2, theta=0.0))
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_matches_matrix_evaluation(self, rng):
        for _ in range(25):
            coupling_rx = float(rng.uniform(0.0, 0.98))
            coupling_tx = float(rng.uniform(0.02, 0.98))
            mags = (float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
            phases = (float(rng.uniform(0.0, 6.28)), float(rng.uniform(0.0, 6.28)))
            paths, tx_geom, rx_geom = two_path_fixture("v-orth", mags, phases, coupling_rx)
            # replace the transmit side with a generic main-lobe separation
            from mmwbeam.steering import mainlobe_freq_delta
            from mmwbeam.channel import PathComponent
            from mmwbeam.steering import AngleSpec

            d = mainlobe_freq_delta(tx_geom, coupling_tx)
            paths = [
                PathComponent(paths[0].gain, AngleSpec(math.acos(-d / 2)), paths[0].aoa),
                PathComponent(paths[1].gain, AngleSpec(math.acos(d / 2)), paths[1].aoa),
            ]
            params = TwoPathParams.from_paths(paths, tx_geom, rx_geom)
            alloc = AllocationPoint(
                beta=float(rng.uniform(0.0, 1.0)), theta=float(rng.uniform(0.0, 6.28))
            )
            ch = assemble_channel(paths, tx_geom, rx_geom)
            v1 = steering_vector(tx_geom, paths[0].aod)
            v2 = steering_vector(tx_geom, paths[1].aod)
            beam = alloc.beta * v1 + math.sqrt(1 - alloc.beta**2) * np.exp(1j * alloc.theta) * v2
            beam /= np.linalg.norm(beam)
            snr = received_snr(ch, beam, ch.entries @ beam)
            assert two_path_objective(params, alloc) == pytest.approx(snr, abs=1e-10, rel=1e-10)

    def test_degenerate_beam_rejected(self):
        # parallel transmit vectors with opposite phase cancel at beta = 1/sqrt(2)
        p = TwoPathParams(1.0, 1.0, vv_mag=1.0, vv_phase=0.0)
        with pytest.raises(ValueError, match="zero norm"):
            two_path_objective(p, AllocationPoint(beta=1.0 / SQRT2, theta=math.pi))


class TestGridSearch:
    def test_peak_memory_is_below_one_full_grid(self):
        params = random_params(np.random.default_rng(3))
        allocation_grid_search(params)  # let the allocator reach its steady state
        tracemalloc.start()
        try:
            allocation_grid_search(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 201 * 360 * 8

    @pytest.mark.parametrize("params", [
        TwoPathParams(1.3, 1.2, 0.3, uu_mag=0.5, vv_mag=0.5),
        TwoPathParams(0.6, 1.7, 2.1, uu_mag=0.9, uu_phase=1.0, vv_mag=0.2, vv_phase=-0.4),
        TwoPathParams(1.0, 1.0, uu_mag=1.0, vv_mag=1.0),
    ])
    def test_extreme_gains_keep_the_scale_free_point(self, params):
        # unscaled, a + b overflowed at 1e154 (a NaN value at beta = 0) and every square
        # underflowed at 1e-170 (the search read (0, 0) and the objective raised)
        point, value = allocation_grid_search(params)
        for k in range(-560, 501, 10):
            scaled = TwoPathParams(
                math.ldexp(params.mag_a1, k), math.ldexp(params.mag_a2, k), params.phase_diff,
                params.uu_mag, params.uu_phase, params.vv_mag, params.vv_phase,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled_point, scaled_value = allocation_grid_search(scaled)
                objective = two_path_objective(scaled, point)
            assert scaled_point == point
            expected = math.ldexp(value, 2 * k)
            if math.isfinite(expected) and expected >= sys.float_info.min:
                assert scaled_value == expected
                assert objective == math.ldexp(two_path_objective(params, point), 2 * k)

    @staticmethod
    def verify_scans(seed, suite, count):
        """The coarse and refined scans of a suite's first ``count`` draws, as verify runs them."""
        regime = REGIMES[_SUITE_CASES[suite]]
        params = _draw_params(seed, range(count), regime)
        terms = closedform._grid_terms(params)
        coarse = closedform._scans(terms, np.linspace(0.0, 1.0, 201).reshape(1, -1), 360)
        starts = np.array([point.beta - 0.005 for point, _ in coarse])
        stops = np.array([point.beta + 0.005 for point, _ in coarse])
        windows = np.clip(np.linspace(starts, stops, 201, axis=1), 0.0, 1.0)
        return params, coarse, windows, closedform._scans(terms, windows, 360)

    def test_scans_of_the_verify_draws_evaluate_no_phase_grid(self, monkeypatch):
        # no row of verify's draws is near singular, so no scan builds the theta grid's
        # phase rows or evaluates a block of it (964 800 rows over seeds 0-19)
        calls = []

        def counted(name):
            full = getattr(closedform, name)
            return lambda *args: calls.append(name) or full(*args)

        for name in ("_grid_rows", "_grid_block"):
            monkeypatch.setattr(closedform, name, counted(name))
        for seed in range(20):
            for suite in ("prop2", "prop3", "prop4"):
                self.verify_scans(seed, suite, 40)
        assert calls == []

    @pytest.mark.parametrize("suite", ["prop2", "prop3", "prop4"])
    def test_scans_of_the_verify_draws_hold_the_grid_maximum(self, suite):
        # each pass's value is at least the 360-phase grid's maximum over its beta axis and
        # at most the optimum, within the rounding bounds, and its beta is within one step
        # of the closed form's
        thetas = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        params, coarse, windows, refined = self.verify_scans(0, suite, 100)
        regime = REGIMES[_SUITE_CASES[suite]]
        for p, (point, value), window, (_, refined_value) in zip(params, coarse, windows, refined):
            for betas, found in ((np.linspace(0.0, 1.0, 201), value), (window, refined_value)):
                scan, grid, optimum = scan_bounds(p, betas)
                assert found >= objective_grid(p, betas, thetas).max() - float(np.max(scan + grid))
                assert found <= snr_optimal(p) + float(np.max(scan)) + optimum
            assert abs(point.beta - regime.beta_opt(p).beta) <= 0.005 + 1e-12

    def test_scan_at_huge_gains_holds_the_grid_maximum(self):
        # on the unscaled squared gains a + b overflowed: NaN and inf entries, with a warning
        params = TwoPathParams(1.3e154, 1e154, uu_mag=0.3, vv_mag=0.4)
        betas = np.linspace(0.0, 1.0, 201)
        thetas = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = objective_grid(params, betas, thetas)
        assert not np.isnan(grid).any()
        _, value = allocation_grid_search(params)
        scan, grid_bound, optimum = scan_bounds(params, betas)
        assert grid.max() - float(np.max(scan + grid_bound)) <= value
        assert value <= snr_optimal(params) + float(np.max(scan)) + optimum

    def test_objective_beyond_the_float_range_reads_infinite(self):
        params = TwoPathParams(1.3e154, 1.2e154, uu_mag=1.0, vv_mag=1.0)
        point, value = allocation_grid_search(params)
        assert value == two_path_objective(params, point) == math.inf

    @pytest.mark.parametrize("num_beta, num_theta", [(1, 360), (201, 1), (0, 0)])
    def test_resolution_below_two_rejected(self, num_beta, num_theta):
        with pytest.raises(ValueError, match="at least 2"):
            allocation_grid_search(TwoPathParams(1.0, 0.5), num_beta, num_theta)

    def test_cancelling_set_reads_its_theta_grid_row(self):
        # equal gains, uu = vv = 1 and nu = pi: the two paths cancel and the channel is 0.
        # At beta = 1/sqrt(2) the beam vanishes at theta = pi (|delta| = 1), so that row is
        # searched on the theta grid, masked entry included, and reads the grid's maximum
        params = TwoPathParams(1.0, 1.0, phase_diff=math.pi, uu_mag=1.0, vv_mag=1.0)
        assert params.misalignment == math.pi
        thetas = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        row = objective_grid(params, [2**-0.5], thetas)[0]
        assert np.isneginf(row).sum() == 1 and np.isfinite(row.max())
        point, value = allocation_grid_search(params, 201, 360, (2**-0.5, 2**-0.5))
        assert point.beta == 2**-0.5
        assert np.float64(value).tobytes() == row.max().tobytes()
        assert point.theta == thetas[int(np.argmax(row))]
        # beside rows scanned by their root the result stays finite, and the exact 0 within
        # the bound of the rows the root decides
        point, value = allocation_grid_search(params, 201, 360, (2**-0.5, 0.8))
        scan = scan_bounds(params, np.linspace(2**-0.5, 0.8, 201))[0]
        assert math.isfinite(value) and abs(value) <= scan[np.isfinite(scan)].max()

    def test_conjugate_root_keeps_rows_where_p_is_negative(self):
        # a channel row has alpha >= hypot(B, C), so p = alpha - B delta >= 0 unless rounding
        # takes it below; there the root (p + sqrt(D)) / g would cancel (by 3e5 ulps at
        # delta = 1 - 2^-20), while the one form of _phase_peak reads the maximum (alpha + B)
        # / (1 + delta) of a row with C = 0 and B > alpha delta, at phi = 0, to a few ulps
        delta = np.array([[1.0 - 2.0**-20, 1.0 - 1e-5, 0.5, 0.0, 0.3]])
        alpha = np.array([[0.0, 0.01, 0.1, -0.25, 0.2]])
        b = np.array([[0.7, 0.9, 1.3, 1.0, 0.77]])
        assert np.all(alpha - b * delta < 0.0)
        zero = np.zeros((1, 1))
        columns = (alpha, b, np.zeros_like(b), delta)
        peaks, phases = closedform._row_peaks({"cos_factor": zero, "sin_factor": zero}, columns)
        exact = (alpha + b) / (1.0 + delta)
        assert np.all(np.abs(peaks - exact) <= 8 * EPS * exact)
        assert np.all(phases == 0.0)

    @pytest.mark.parametrize("vv_mag", [1.0 - 1e-9, 0.9999])
    def test_row_peaks_keep_their_ulps_as_delta_nears_one(self, vv_mag):
        # nu = 0, so C = 0 and each row's maximum is its value at phi = 0, (alpha + B) / (1 +
        # delta); a root through the differences p = alpha - B delta and B - alpha delta lost
        # up to 5.7e6 ulps of it here, as delta nears 1
        params = TwoPathParams(0.8, 0.6, uu_mag=0.5, vv_mag=vv_mag)
        assert params.misalignment == 0.0
        betas = np.linspace(0.6, 0.8, 201)
        terms = closedform._grid_terms([params])
        peaks, phases = closedform._row_peaks(terms, closedform._grid_columns(terms, betas[None]))
        rows = np.ldexp(0.5 * peaks[0], -int(terms["shift"][0, 0]))
        at_zero = objective_grid(params, betas, [0.0])[:, 0]
        assert np.all(np.abs(rows - at_zero) <= 4 * np.spacing(at_zero))
        assert np.all(phases == 0.0)

    @pytest.mark.parametrize("case", list(REGIMES))
    @pytest.mark.parametrize("weak_first", [False, True])
    def test_extreme_gain_ratios_agree_with_the_closed_forms(self, case, weak_first):
        # at squared-gain ratios of 2^1000-2^1100 the weaker path's scaled squared gain is
        # subnormal, or 0 beyond 2^1074; the scan reads no NaN, and its beta and value agree
        # with the closed form's split and snr_optimal within the bounds
        regime = REGIMES[case]
        betas = np.linspace(0.0, 1.0, 201)
        for exponent in range(1000, 1101, 10):
            weak = math.ldexp(1.0, -exponent // 2)
            gains = (weak, 0.75) if weak_first else (0.75, weak)
            couplings = {"uu_mag": 0.6, "vv_mag": 0.3, f"{regime.constrained}_mag": regime.forced}
            params = TwoPathParams(*gains, 0.4, uu_phase=1.1, vv_phase=-0.7, **couplings)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                point, value = allocation_grid_search(params)
            assert not math.isnan(value)
            scan, _, optimum = scan_bounds(params, betas)
            assert abs(value - snr_optimal(params)) <= float(np.max(scan)) + optimum
            loss_times_dominant = regime.delta_snr(params) * snr_dominant_path(params)
            assert abs(value - loss_times_dominant) <= float(np.max(scan)) + 2 * optimum
            alloc = regime.beta_opt(params)
            if alloc is not None:
                assert abs(point.beta - alloc.beta) <= 0.005


class TestVOrthogonal:
    def test_equal_gains_split_evenly(self):
        p = TwoPathParams(1.3, 1.3, uu_mag=0.4)
        assert beta_opt_v_orth(p).beta ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_decoupled_receivers_put_everything_on_strong_path(self):
        p = TwoPathParams(2.0, 1.0, uu_mag=0.0)
        assert beta_opt_v_orth(p).beta ** 2 == pytest.approx(1.0)

    def test_parallel_receivers_split_by_power(self):
        p = TwoPathParams(2.0, 1.0, uu_mag=1.0)
        assert beta_opt_v_orth(p).beta ** 2 == pytest.approx(0.8, rel=1e-12)

    def test_wrong_regime_rejected(self):
        with pytest.raises(RegimeError):
            beta_opt_v_orth(TwoPathParams(1.0, 1.0, vv_mag=0.5))
        with pytest.raises(RegimeError):
            delta_snr_v_orth(TwoPathParams(1.0, 1.0, vv_mag=0.5))

    def test_loss_trivial_and_worst_cases(self):
        assert delta_snr_v_orth(TwoPathParams(2.0, 1.0, uu_mag=0.0)) == pytest.approx(1.0)
        assert delta_snr_v_orth(TwoPathParams(1.0, 1.0, uu_mag=1.0)) == 2.0
        p = TwoPathParams(2.0, 1.0, uu_mag=0.5)
        assert delta_snr_v_orth(p) == pytest.approx((5.0 + math.sqrt(13.0)) / 8.0, rel=1e-12)
        assert 10.0 * math.log10(delta_snr_v_orth(p)) == pytest.approx(0.3169, abs=1e-4)

    def test_loss_monotone_in_receive_coupling(self):
        for a1 in (1.0, 2.0, 5.0):
            losses = [
                delta_snr_v_orth(TwoPathParams(a1, 1.0, uu_mag=u))
                for u in np.linspace(0.0, 1.0, 101)
            ]
            assert all(x2 >= x1 - 1e-14 for x1, x2 in zip(losses, losses[1:]))

    def test_zero_gains_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            delta_snr_v_orth(TwoPathParams(0.0, 0.0))
        # squares that underflow are not zero gains: the loss is that of equal gains
        assert delta_snr_v_orth(TwoPathParams(1e-170, 1e-170)) == 1.0

    def test_near_equal_gains_decoupled_receivers(self):
        # the radicand rounds to -4.4e-16 here; it used to raise a math domain error
        p = TwoPathParams(1.1728699829894298, 1.1728699854271236, uu_mag=0.0)
        assert delta_snr_v_orth(p) == pytest.approx(1.0, abs=1e-8)

    def test_split_is_scale_free_for_tiny_gains(self):
        # squared gains near 1e-300: unscaled, every square underflowed and the split read 0.5
        tiny = beta_opt_v_orth(TwoPathParams(1e-150, 0.9e-150, uu_mag=0.7))
        unit = beta_opt_v_orth(TwoPathParams(1.0, 0.9, uu_mag=0.7))
        assert tiny.beta**2 == unit.beta**2 == 0.5745539589027745

    def test_against_grid_oracle(self, rng):
        for _ in range(40):
            p = random_params(rng, vv_mag=0.0, vv_phase=0.0)
            alloc = beta_opt_v_orth(p)
            grid_alloc, grid_val = allocation_grid_search(p)
            assert abs(alloc.beta - grid_alloc.beta) <= 1.0 / 200 + 1e-12
            assert two_path_objective(p, alloc) >= grid_val - 1e-6


class TestUOrthogonal:
    def test_equal_gains(self):
        p = TwoPathParams(1.0, 1.0, vv_mag=0.5)
        assert beta_opt_u_orth(p).beta ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_parallel_transmitters_limit(self):
        p = TwoPathParams(2.0, 1.0, vv_mag=1.0)
        assert beta_opt_u_orth(p).beta ** 2 == pytest.approx(16.0 / 17.0, rel=1e-12)

    def test_specific_value(self):
        p = TwoPathParams(2.0, 1.0, vv_mag=0.5)
        expected = (76.0 + math.sqrt(1872.0)) / 122.0
        assert beta_opt_u_orth(p).beta ** 2 == pytest.approx(expected, rel=1e-12)

    def test_rejects_fully_orthogonal_corner(self):
        with pytest.raises(RegimeError, match="v-orthogonal"):
            beta_opt_u_orth(TwoPathParams(1.0, 1.0, vv_mag=0.0))
        with pytest.raises(RegimeError):
            beta_opt_u_orth(TwoPathParams(1.0, 1.0, uu_mag=0.5, vv_mag=0.5))

    def test_loss_values(self):
        assert delta_snr_u_orth(TwoPathParams(2.0, 1.0, vv_mag=0.0)) == 1.0
        worst = delta_snr_u_orth(TwoPathParams(1.0, 1.0, vv_mag=SQRT2 - 1.0))
        assert worst == pytest.approx((SQRT2 + 1.0) / 2.0, rel=1e-12)
        assert 10.0 * math.log10(worst) == pytest.approx(0.8175, abs=1e-3)

    def test_loss_against_grid(self, rng):
        for _ in range(30):
            p = random_params(rng, uu_mag=0.0, uu_phase=0.0, vv_mag=float(rng.uniform(0.05, 0.95)))
            loss = delta_snr_u_orth(p)
            ga, grid_val = allocation_grid_search(p)
            # refine once around the coarse argmax; a uniform beta grid
            # under-resolves optima next to the beta = 1 edge
            _, refined = allocation_grid_search(
                p, beta_window=(ga.beta - 0.005, ga.beta + 0.005)
            )
            dominant = snr_dominant_path(p)
            assert loss * dominant == pytest.approx(max(grid_val, refined), rel=1e-3)

    def test_equal_gain_curve(self):
        assert delta_snr_u_orth_equal_gains(0.0) == 1.0
        assert delta_snr_u_orth_equal_gains(1.0) == 1.0
        assert delta_snr_u_orth_equal_gains(SQRT2 - 1.0) == pytest.approx(
            (SQRT2 + 1.0) / 2.0, rel=1e-15
        )
        # matches the general formula at equal gains
        for vv in np.linspace(0.01, 0.99, 23):
            general = delta_snr_u_orth(TwoPathParams(1.0, 1.0, vv_mag=float(vv)))
            assert general == pytest.approx(delta_snr_u_orth_equal_gains(float(vv)), rel=1e-12)

    # just above ORTHOGONAL_TOL a split with 1/vv^2 terms cancelled: at equal gains and
    # vv in [1e-9, 1.05e-8] it divided by zero, and at vv = 1e-8 it read beta^2 = 0.25
    NEAR_ORTHOGONAL = np.geomspace(1e-9, 1.0, 2001)

    def test_equal_gains_near_orthogonal_transmitters(self):
        for vv in self.NEAR_ORTHOGONAL:
            p = TwoPathParams(1.0, 1.0, vv_mag=float(vv))
            assert beta_opt_u_orth(p).beta ** 2 == pytest.approx(0.5, abs=EPS)
            assert abs(delta_snr_u_orth(p) - delta_snr_u_orth_equal_gains(float(vv))) <= EPS

    @pytest.mark.parametrize("weaker", [1e-3, 0.5, 1.0 - 1e-9])
    def test_split_is_symmetric_under_path_swap(self, weaker):
        # the a < b branch against the a >= b one: swapping the paths swaps the split
        for vv in self.NEAR_ORTHOGONAL:
            one = beta_opt_u_orth(TwoPathParams(1.0, weaker, vv_mag=float(vv))).beta ** 2
            two = beta_opt_u_orth(TwoPathParams(weaker, 1.0, vv_mag=float(vv))).beta ** 2
            assert one + two == pytest.approx(1.0, abs=2 * EPS)

    def test_equal_gain_curve_on_arrays(self):
        # the bounds suite evaluates the curve on its whole grid in one call
        grid = np.linspace(0.0, 1.0, 101)
        values = delta_snr_u_orth_equal_gains(grid)
        assert values.tolist() == [delta_snr_u_orth_equal_gains(float(vv)) for vv in grid]
        # a list is read as its array; it raised TypeError after passing the range check
        assert delta_snr_u_orth_equal_gains([0.2, 0.4]).tolist() == [
            delta_snr_u_orth_equal_gains(0.2), delta_snr_u_orth_equal_gains(0.4)
        ]
        assert type(delta_snr_u_orth_equal_gains(0.2)) is float
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="vv_mag must lie in"):
                delta_snr_u_orth_equal_gains(bad)
            with pytest.raises(ValueError, match="vv_mag must lie in"):
                delta_snr_u_orth_equal_gains(np.append(grid, bad))


@pytest.mark.parametrize(
    "function, params, message",
    [
        (delta_snr_v_orth, TwoPathParams(1.0, 1.0, vv_mag=0.5),
         "requires electrically orthogonal transmit vectors, |v1^H v2| = 0.5"),
        (beta_opt_u_orth, TwoPathParams(1.0, 1.0, uu_mag=0.25, vv_mag=0.5),
         "requires electrically orthogonal receive vectors, |u1^H u2| = 0.25"),
        (delta_snr_v_parallel, TwoPathParams(1.0, 1.0, vv_mag=0.5),
         "requires parallel transmit vectors, |v1^H v2| = 0.5"),
        (delta_snr_u_parallel, TwoPathParams(1.0, 1.0, uu_mag=0.5),
         "requires parallel receive vectors, |u1^H u2| = 0.5"),
    ],
)
def test_regime_error_names_the_coupling(function, params, message):
    with pytest.raises(RegimeError) as err:
        function(params)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "function, couplings",
    [
        (lambda p: beta_opt_v_orth(p).beta, dict(uu_mag=0.7)),
        (delta_snr_v_orth, dict(uu_mag=0.7)),
        (lambda p: beta_opt_u_orth(p).beta, dict(vv_mag=0.5)),
        (delta_snr_u_orth, dict(vv_mag=0.5)),
        (lambda p: beta_opt_u_parallel(p).beta, dict(uu_mag=1.0, vv_mag=0.5)),
        (delta_snr_u_parallel, dict(uu_mag=1.0, vv_mag=0.5)),
    ],
    ids=["v-orth-split", "v-orth-loss", "u-orth-split", "u-orth-loss", "u-parallel-split",
         "u-parallel-loss"],
)
def test_closed_forms_are_scale_free(function, couplings):
    # powers of two scale exactly; unscaled, squares of squared gains under- or overflowed
    # (u-orth raised, the u-parallel loss read 1.6 for 4/3 at gains 1e-150), and at
    # 2**-600 the squared gains themselves underflow to 0
    unit = function(TwoPathParams(1.0, 0.9, **couplings))
    for scale in (2.0**-600, 2.0**-500, 2.0**500):
        assert function(TwoPathParams(scale, 0.9 * scale, **couplings)) == unit


def in_regime(case, mag_a1, mag_a2):
    """Parameters inside ``REGIMES[case]``, with the free coupling 0.5."""
    regime = REGIMES[case]
    couplings = {f"{regime.constrained}_mag": regime.forced, f"{regime.free}_mag": 0.5}
    return TwoPathParams(mag_a1, mag_a2, **couplings)


# (case, name) of every closed form of a regime
REGIME_FORMS = [
    (case, name)
    for case, regime in REGIMES.items()
    for name in (regime.allocation, regime.loss)
    if name is not None
]


@pytest.mark.parametrize("case", REGIMES)
def test_zero_gains_are_refused_in_every_regime(capsys, case):
    # the v-parallel loss read 1 (a 0 dB loss) for a channel with no power
    message = "undefined when both path gains are zero"
    for name in (REGIMES[case].allocation, REGIMES[case].loss):
        if name is not None:
            with pytest.raises(ValueError, match=message):
                getattr(closedform, name)(in_regime(case, 0.0, 0.0))
    free = REGIMES[case].free
    code = main(["closedform", "--case", case, "--a1", "0", "--a2", "0", f"--{free}", "0.5"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert json.loads(captured.err)["error"]["message"] == message


@pytest.mark.parametrize("case, name", REGIME_FORMS, ids=[name for _, name in REGIME_FORMS])
def test_each_closed_form_scales_the_gains_once(monkeypatch, case, name):
    # the u-orth and u-parallel losses scaled them twice, the v-parallel loss never
    calls = []
    scaled_terms = closedform._scaled_terms
    monkeypatch.setattr(closedform, "_scaled_terms", lambda p: calls.append(p) or scaled_terms(p))
    params = in_regime(case, 1.0, 0.9)
    getattr(closedform, name)(params)
    assert calls == [params]


class TestVParallel:
    def test_loss_is_unity(self, rng):
        for _ in range(20):
            p = random_params(rng, vv_mag=1.0)
            assert delta_snr_v_parallel(p) == 1.0

    def test_objective_independent_of_allocation(self, rng):
        p = random_params(rng, vv_mag=1.0)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        values = objective_grid(p, np.linspace(0.0, 1.0, 100), [theta])
        assert float(values.max() - values.min()) < 1e-10

    def test_full_cancellation(self):
        p = TwoPathParams(1.0, 1.0, phase_diff=math.pi, uu_mag=1.0, vv_mag=1.0)
        assert snr_optimal(p) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            delta_snr_v_parallel(TwoPathParams(1.0, 1.0, vv_mag=0.3))


class TestUParallel:
    def test_equal_gains(self):
        p = TwoPathParams(1.0, 1.0, uu_mag=1.0, vv_mag=0.4)
        assert beta_opt_u_parallel(p).beta ** 2 == pytest.approx(0.5)

    def test_gain_proportional_split(self):
        p = TwoPathParams(2.0, 1.0, uu_mag=1.0, vv_mag=0.4)
        assert beta_opt_u_parallel(p).beta ** 2 == pytest.approx(0.8, rel=1e-12)

    def test_split_achieves_closed_snr(self, rng):
        for _ in range(30):
            p = random_params(rng, uu_mag=1.0, vv_mag=float(rng.uniform(0.0, 1.0)))
            alloc = beta_opt_u_parallel(p)
            assert two_path_objective(p, alloc) == pytest.approx(
                snr_optimal(p), rel=1e-10, abs=1e-12
            )

    def test_loss_values(self):
        assert delta_snr_u_parallel(TwoPathParams(2.0, 1.0, uu_mag=1.0, vv_mag=1.0)) == 1.0
        p = TwoPathParams(1.0, 1.0, phase_diff=math.pi, uu_mag=1.0, vv_mag=0.9)
        assert delta_snr_u_parallel(p) == pytest.approx(20.0, rel=1e-9)
        assert 10.0 * math.log10(delta_snr_u_parallel(p)) == pytest.approx(13.0103, abs=1e-3)
        q = TwoPathParams(1.0, 1.0, uu_mag=1.0, vv_mag=0.5)
        assert delta_snr_u_parallel(q) == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert 10.0 * math.log10(delta_snr_u_parallel(q)) == pytest.approx(1.2494, abs=1e-4)

    def test_split_of_underflowing_squares(self):
        # both squares underflow to 0; this raised "both path gains are zero"
        tiny = beta_opt_u_parallel(TwoPathParams(1e-170, 5e-171, uu_mag=1.0, vv_mag=0.3))
        unit = beta_opt_u_parallel(TwoPathParams(1.0, 0.5, uu_mag=1.0, vv_mag=0.3))
        assert tiny == unit
        assert tiny.beta**2 == pytest.approx(0.8, rel=1e-15)

    def test_destructive_singularity_returns_infinity(self):
        p = TwoPathParams(1.0, 1.0, phase_diff=math.pi, uu_mag=1.0, vv_mag=1.0)
        assert math.isinf(delta_snr_u_parallel(p))

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            beta_opt_u_parallel(TwoPathParams(1.0, 1.0, uu_mag=0.5))


class TestBenchmarkExpressions:
    def test_dominant_path_coherent(self):
        for k in (1.0, 2.0, 7.0):
            p = TwoPathParams(k, 1.0, uu_mag=1.0, vv_mag=1.0)
            assert snr_dominant_path(p) == pytest.approx((k + 1.0) ** 2 / 2.0, rel=1e-12)

    def test_match_objective_at_their_allocations(self, rng):
        for _ in range(20):
            p = random_params(rng, phase_diff=0.0, uu_phase=0.0, vv_phase=0.0)
            dominant = two_path_objective(p, AllocationPoint(beta=1.0, theta=0.0))
            assert snr_dominant_path(p) == pytest.approx(
                max(
                    dominant,
                    two_path_objective(p, AllocationPoint(beta=0.0, theta=0.0)),
                ),
                rel=1e-12,
            )


class TestLossFloor:
    def test_loss_at_least_one_in_every_regime(self, rng):
        for _ in range(50):
            p_v = random_params(rng, vv_mag=0.0)
            assert delta_snr_v_orth(p_v) >= 1.0 - 1e-15
            p_u = random_params(rng, uu_mag=0.0, vv_mag=float(rng.uniform(0.05, 0.95)))
            assert delta_snr_u_orth(p_u) >= 1.0 - 1e-15
            p_p = random_params(rng, uu_mag=1.0)
            assert delta_snr_u_parallel(p_p) >= 1.0 - 1e-15

    def test_v_orth_loss_bounded_by_two(self, rng):
        for _ in range(200):
            p = random_params(rng, vv_mag=0.0)
            assert delta_snr_v_orth(p) <= 2.0 + 1e-12
