import cmath
import math

import numpy as np
import pytest

from mmwbeam.steering import (
    AngleSpec,
    ArrayGeometry,
    angle_frequencies,
    cpo_inner_product,
    gram_stack,
    mainlobe_freq_delta,
    spatial_frequencies,
    steering_matrix,
    steering_stack,
    steering_vector,
)


def direct_cpo_sum(n, freq_delta, spacing=0.5):
    """Independent oracle: term-by-term sum of the inner-product series."""
    step = 2.0 * math.pi * spacing * freq_delta
    return sum(cmath.exp(1j * m * step) for m in range(n)) / n


class TestTypes:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0)
        with pytest.raises(ValueError):
            ArrayGeometry(4, spacing_wavelengths=0.0)

    # a count is a non-bool integer: True, 4.0 and inf are none, and inf must not overflow
    @pytest.mark.parametrize("count", [True, 4.0, math.inf])
    def test_geometry_rejects_a_count_that_is_no_integer(self, count):
        with pytest.raises(ValueError, match="num_elements must be a positive integer"):
            ArrayGeometry(count)

    def test_geometry_accepts_numpy_integers(self):
        assert ArrayGeometry(np.int64(4)).num_elements == 4

    @pytest.mark.parametrize("spacing", [math.inf, math.nan])
    def test_geometry_rejects_a_non_finite_spacing(self, spacing):
        # an infinite spacing used to reach the kernel and overflow in round(psi / pi)
        with pytest.raises(ValueError, match="spacing_wavelengths must be finite"):
            ArrayGeometry(4, spacing)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            AngleSpec(-0.1)
        with pytest.raises(ValueError):
            AngleSpec(2.0 * math.pi)

    def test_spatial_frequency_is_the_cosine(self, rng):
        # directions give the same bits as AngleSpecs and as the engine's azimuth arrays
        azimuths = rng.uniform(0.0, 2.0 * math.pi, 1000)
        freqs = spatial_frequencies(azimuths)
        assert angle_frequencies([AngleSpec(az) for az in azimuths.tolist()]).tolist() == (
            freqs.tolist()
        )
        cosines = [math.cos(az) for az in azimuths.tolist()]
        np.testing.assert_allclose(freqs, cosines, rtol=0, atol=2e-16)


class TestSteeringVector:
    def test_single_element(self):
        v = steering_vector(ArrayGeometry(1), AngleSpec(1.234))
        assert v.shape == (1,)
        assert v[0] == pytest.approx(1.0)

    def test_broadside_two_elements(self):
        v = steering_vector(ArrayGeometry(2), AngleSpec(math.radians(90.0)))
        np.testing.assert_allclose(v, np.ones(2) / math.sqrt(2.0), atol=1e-15)

    def test_four_elements_60_degrees(self):
        # freq = cos(60 deg) = 0.5, so the per-element phase step is pi/2
        v = steering_vector(ArrayGeometry(4), AngleSpec(math.radians(60.0)))
        expected = np.array([0.5 * cmath.exp(1j * m * math.pi * 0.5) for m in range(4)])
        np.testing.assert_allclose(v, expected, atol=1e-15)

    def test_entrywise_against_definition(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 40))
            spacing = float(rng.uniform(0.1, 1.0))
            az = float(rng.uniform(0.0, 2.0 * math.pi))
            geom = ArrayGeometry(n, spacing)
            v = steering_vector(geom, AngleSpec(az))
            for m in range(n):
                phase = m * 2.0 * math.pi * spacing * math.cos(az)
                assert v[m] == pytest.approx(cmath.exp(1j * phase) / math.sqrt(n), abs=1e-14)

    def test_unit_norm_and_flat_magnitude(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 65))
            geom = ArrayGeometry(n, float(rng.uniform(0.05, 2.0)))
            v = steering_vector(geom, AngleSpec(float(rng.uniform(0.0, 2.0 * math.pi))))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            np.testing.assert_allclose(np.abs(v), 1.0 / math.sqrt(n), atol=1e-12)

    def test_steering_matrix_columns(self):
        geom = ArrayGeometry(6)
        angles = [AngleSpec(0.3), AngleSpec(1.1), AngleSpec(2.0)]
        mat = steering_matrix(geom, angles)
        assert mat.shape == (6, 3)
        for j, a in enumerate(angles):
            np.testing.assert_array_equal(mat[:, j], steering_vector(geom, a))


class TestInnerProduct:
    def test_identical_vectors(self):
        v = steering_vector(ArrayGeometry(8), AngleSpec(0.7))
        assert np.vdot(v, v) == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_null_at_two_over_n(self):
        # freq separation 2/N lands exactly on the first Dirichlet null
        geom = ArrayGeometry(4)
        a1 = AngleSpec(math.acos(-0.25))
        a2 = AngleSpec(math.acos(0.25))
        ip = np.vdot(steering_vector(geom, a1), steering_vector(geom, a2))
        assert abs(ip) < 1e-12

    def test_quarter_separation_magnitude(self):
        # |sum of the 4-term geometric series| = sin(pi/2)/(4 sin(pi/8))
        geom = ArrayGeometry(4)
        a1 = AngleSpec(math.acos(0.0))
        a2 = AngleSpec(math.acos(0.25))
        ip = np.vdot(steering_vector(geom, a1), steering_vector(geom, a2))
        assert abs(ip) == pytest.approx(abs(direct_cpo_sum(4, 0.25)), abs=1e-13)
        assert abs(ip) == pytest.approx(0.6532814824381883, abs=1e-12)

    def test_closed_form_matches_direct_sum(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            spacing = float(rng.uniform(0.1, 1.0))
            geom = ArrayGeometry(n, spacing)
            az1 = float(rng.uniform(0.0, 2.0 * math.pi))
            az2 = float(rng.uniform(0.0, 2.0 * math.pi))
            v1 = steering_vector(geom, AngleSpec(az1))
            v2 = steering_vector(geom, AngleSpec(az2))
            delta = math.cos(az2) - math.cos(az1)
            assert abs(np.vdot(v1, v2) - cpo_inner_product(geom, delta)) < 1e-10

    def test_magnitude_bounded_by_one(self, rng):
        for _ in range(300):
            geom = ArrayGeometry(int(rng.integers(1, 33)))
            delta = float(rng.uniform(-2.0, 2.0))
            assert abs(cpo_inner_product(geom, delta)) <= 1.0 + 1e-12

    def test_unity_iff_frequencies_coincide_mod_wrap(self):
        geom = ArrayGeometry(16, 0.5)
        # half-wavelength spacing wraps spatial frequencies modulo 4
        assert cpo_inner_product(geom, 4.0) == pytest.approx(1.0 + 0.0j)
        assert cpo_inner_product(geom, 0.0) == pytest.approx(1.0 + 0.0j)
        assert abs(cpo_inner_product(geom, 0.05)) < 1.0

    @pytest.mark.parametrize(
        "n, spacing, f1, f2",
        [(1024, 0.5, 0.3, 0.3 + 1e-12), (64, 1.0, -0.5, 0.5 + 1e-13)],  # the second a grating lobe
    )
    def test_near_coincident_directions_keep_their_phase(self, n, spacing, f1, f2):
        # within 1e-12 cycles of a multiple of pi these entries used to read exactly 1,
        # off by 1.6e-9 and 2.0e-11 from the steering vectors' product
        geom = ArrayGeometry(n, spacing)
        freqs = np.array([f1, f2])
        stack = steering_stack(geom, freqs)
        exact = np.vdot(stack[:, 0], stack[:, 1])
        assert abs(cpo_inner_product(geom, f2 - f1) - exact) <= 1e-13
        assert abs(gram_stack(geom, freqs)[0, 1] - exact) <= 1e-13

    def test_conjugate_symmetry(self, rng):
        geom = ArrayGeometry(12)
        for _ in range(100):
            a = AngleSpec(float(rng.uniform(0.0, 2.0 * math.pi)))
            b = AngleSpec(float(rng.uniform(0.0, 2.0 * math.pi)))
            va, vb = steering_vector(geom, a), steering_vector(geom, b)
            assert np.vdot(va, vb) == pytest.approx(
                np.vdot(vb, va).conjugate(), abs=1e-14
            )


class TestElectricalOrthogonality:
    # two directions are electrically orthogonal where the Dirichlet kernel of their
    # spatial-frequency separation vanishes: at 2n/N for half-wavelength spacing

    @staticmethod
    def separation(a1, a2):
        freq1, freq2 = angle_frequencies([a1, a2]).tolist()
        return freq2 - freq1

    def test_null_separation_is_orthogonal(self):
        geom = ArrayGeometry(8)
        a1 = AngleSpec(math.acos(-0.125))
        a2 = AngleSpec(math.acos(0.125))  # separation 0.25 = 2/8
        assert abs(cpo_inner_product(geom, self.separation(a1, a2))) < 1e-9

    def test_same_angle_gives_one(self):
        geom = ArrayGeometry(8)
        a = AngleSpec(0.9)
        assert cpo_inner_product(geom, self.separation(a, a)) == 1.0

    def test_small_separation_not_orthogonal(self):
        geom = ArrayGeometry(8)
        a1 = AngleSpec(math.acos(-0.05))
        a2 = AngleSpec(math.acos(0.05))  # separation 0.1
        # oracle: direct sum of the 8-term series
        assert abs(direct_cpo_sum(8, 0.1)) == pytest.approx(0.7599480364274, abs=1e-12)
        assert abs(cpo_inner_product(geom, self.separation(a1, a2))) == pytest.approx(
            abs(direct_cpo_sum(8, 0.1)), abs=1e-12)


class TestMainlobeInversion:
    def test_roundtrip(self, rng):
        for _ in range(50):
            geom = ArrayGeometry(int(rng.integers(2, 65)))
            target = float(rng.uniform(0.0, 1.0))
            delta = mainlobe_freq_delta(geom, target)
            assert abs(cpo_inner_product(geom, delta)) == pytest.approx(target, abs=1e-12)

    def test_endpoints(self):
        geom = ArrayGeometry(8)
        assert mainlobe_freq_delta(geom, 1.0) == pytest.approx(0.0)
        assert abs(cpo_inner_product(geom, mainlobe_freq_delta(geom, 0.0))) < 1e-12

    @pytest.mark.parametrize("magnitude", [-1e-300, 1.0 + 2**-52, math.nan, math.inf])
    def test_magnitude_outside_the_unit_interval_rejected(self, magnitude):
        with pytest.raises(ValueError, match=r"magnitude must lie in \[0, 1\]"):
            mainlobe_freq_delta(ArrayGeometry(8), magnitude)

    @pytest.mark.parametrize("magnitude", [0.0, 0.5])
    def test_single_element_array_rejected(self, magnitude):
        # its one-entry steering vectors couple with magnitude 1 at every frequency
        with pytest.raises(ValueError, match="single-element"):
            mainlobe_freq_delta(ArrayGeometry(1), magnitude)
