import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from modunfold.errors import ConfigurationError, OverloadError
from modunfold.modulo_adc import (AdcConfig, acquire, fold, quantize_uniform,
                                  triangle_dither)
from modunfold.signal_model import SampledSignal


def synthetic_signal(samples, band_fraction=0.25):
    samples = np.asarray(samples, dtype=float)
    return SampledSignal(samples=samples, sample_period=1.0,
                         band_fraction=band_fraction,
                         bandwidth=2 * np.pi * band_fraction)


class TestFold:
    def test_in_range_passthrough(self):
        assert fold(0.3, 1.0) == pytest.approx(0.3)

    def test_positive_wrap(self):
        assert fold(2.5, 1.0) == pytest.approx(0.5)
        assert 2.5 - fold(2.5, 1.0) == pytest.approx(2.0)

    def test_negative_wrap(self):
        assert fold(-1.2, 1.0) == pytest.approx(0.8)
        assert -1.2 - fold(-1.2, 1.0) == pytest.approx(-2.0)

    @given(st.floats(-1e4, 1e4), st.floats(1e-3, 1e3))
    @settings(deadline=None, max_examples=200)
    def test_idempotent_lattice_and_range(self, ratio, threshold):
        x = ratio * threshold  # inputs within a physical range of the threshold
        once = fold(x, threshold)
        assert -threshold <= once < threshold
        assert fold(once, threshold) == once
        multiples = (x - once) / (2 * threshold)
        assert abs(multiples - round(multiples)) < 1e-9

    def test_vectorized(self):
        x = np.array([0.3, 2.5, -1.2])
        assert_allclose(fold(x, 1.0), [0.3, 0.5, 0.8])


class TestTriangleDither:
    def setup_method(self):
        self.bits, self.full_scale = 4, 8.0 / 7.0
        self.step = 2 * self.full_scale / 2 ** self.bits
        self.draws = triangle_dither(10 ** 6, self.bits, self.full_scale, seed=99)

    def test_support(self):
        assert self.draws.min() > -self.step
        assert self.draws.max() <= self.step

    def test_zero_mean_within_clt_bound(self):
        bound = 3 * self.step / np.sqrt(6 * 10 ** 6)
        assert abs(self.draws.mean()) <= bound

    def test_variance_matches_triangle(self):
        expected = self.step ** 2 / 6.0
        assert self.draws.var() == pytest.approx(expected, rel=0.02)

    def test_deterministic(self):
        again = triangle_dither(10 ** 6, self.bits, self.full_scale, seed=99)
        assert_array_equal(self.draws, again)


class TestQuantizeUniform:
    def test_bin_center_positive(self):
        assert quantize_uniform(0.3, 2, 1.0) == pytest.approx(0.25)

    def test_lowest_bin_closed_edge(self):
        assert quantize_uniform(-1.0, 2, 1.0) == pytest.approx(-0.75)

    def test_top_edge_right_closed(self):
        assert quantize_uniform(1.0, 2, 1.0) == pytest.approx(0.75)

    def test_full_scale_formula(self):
        config = AdcConfig(bits=4, threshold=1.0)
        assert config.full_scale == pytest.approx(8.0 / 7.0)

    def test_half_step_error_bound(self):
        x = np.random.default_rng(0).uniform(-1, 1, 4096)
        q = quantize_uniform(x, 3, 1.0)
        assert np.abs(q - x).max() <= 2.0 / 2 ** 3 / 2 + 1e-12

    def test_overload_names_sample(self):
        with pytest.raises(OverloadError) as info:
            quantize_uniform(np.array([0.0, 1.5, 0.2]), 2, 1.0)
        assert info.value.index == 1
        assert "sample 1" in str(info.value)

    def test_bits_partition_count(self):
        levels = np.unique(quantize_uniform(
            np.linspace(-1, 1, 100001), 3, 1.0))
        assert len(levels) == 8


class TestAdcConfig:
    def test_one_bit_rejected(self):
        with pytest.raises(ConfigurationError):
            AdcConfig(bits=1, threshold=1.0)

    def test_bits_past_float_resolution_rejected(self):
        # 2000 bits used to overflow the full-scale formula.
        for bits in (54, 2000):
            with pytest.raises(ConfigurationError, match="bits"):
                AdcConfig(bits=bits, threshold=1.0)

    def test_full_scale_exceeds_threshold(self):
        config = AdcConfig(bits=4, threshold=0.5)
        assert config.full_scale > config.threshold
        assert config.full_scale == pytest.approx(config.threshold + config.step)


class TestAcquire:
    def test_quiet_signal_never_flags(self):
        sig = synthetic_signal(np.full(256, 0.4))
        out = acquire(sig, AdcConfig(bits=4, threshold=1.0, seed=1))
        assert not out.folding_bits.any()
        assert_array_equal(out.residue_truth, np.zeros(256))

    def test_ramp_crossing_flags_once(self):
        ramp = np.linspace(0.0, 1.5, 128)
        out = acquire(synthetic_signal(ramp), AdcConfig(bits=6, threshold=1.0, seed=1))
        crossings = np.flatnonzero(out.folding_bits)
        assert crossings.size == 1
        n = crossings[0]
        assert out.residue_truth[n] - out.residue_truth[n - 1] == pytest.approx(-2.0)
        # fold() per sample is the residue oracle
        assert_allclose(out.residue_truth, fold(ramp, 1.0) - ramp, atol=1e-12)

    def test_flags_mark_residue_changes(self):
        rng = np.random.default_rng(8)
        sig = synthetic_signal(np.cumsum(rng.normal(0, 0.3, 512)))
        out = acquire(sig, AdcConfig(bits=8, threshold=1.0, seed=2))
        lattice = np.round(out.residue_truth / 2.0)
        assert_array_equal(out.folding_bits,
                           np.diff(lattice, prepend=0.0) != 0)

    def test_residue_on_lattice(self):
        rng = np.random.default_rng(3)
        walk = np.concatenate([[0.0], np.cumsum(rng.normal(0, 0.5, 1023))])
        out = acquire(synthetic_signal(walk), AdcConfig(bits=4, threshold=0.7, seed=3))
        multiples = out.residue_truth / 1.4
        assert np.abs(multiples - np.round(multiples)).max() < 1e-9

    def test_high_resolution_error_bound(self):
        rng = np.random.default_rng(4)
        sig = synthetic_signal(np.cumsum(rng.normal(0, 0.2, 2048)))
        config = AdcConfig(bits=16, threshold=1.0, seed=4)
        out = acquire(sig, config)
        total_error = out.quantized - (sig.samples + out.residue_truth)
        assert np.abs(total_error).max() <= 1.5 * config.step

    def test_first_sample_beyond_threshold_rejected(self):
        sig = synthetic_signal(np.array([1.2, 0.0, 0.0]))
        with pytest.raises(ConfigurationError, match="first sample"):
            acquire(sig, AdcConfig(bits=4, threshold=1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, bad):
        samples = np.full(64, 0.2)
        samples[5] = bad
        with pytest.raises(ConfigurationError, match="sample 5 is not finite"):
            acquire(synthetic_signal(samples), AdcConfig(bits=4, threshold=1.0))

    def test_ideal_mode_bypasses_quantizer(self):
        ramp = np.linspace(0.0, 1.5, 64)
        out = acquire(synthetic_signal(ramp), AdcConfig(bits=4, threshold=1.0),
                      ideal=True)
        assert_allclose(out.quantized, fold(ramp, 1.0), atol=1e-12)

    def test_deterministic_under_seed(self):
        sig = synthetic_signal(np.sin(0.1 * np.arange(512)))
        config = AdcConfig(bits=4, threshold=0.6, seed=11)
        a, b = acquire(sig, config), acquire(sig, config)
        assert_array_equal(a.quantized, b.quantized)
        assert_array_equal(a.folding_bits, b.folding_bits)


class TestNoiseStatistics:
    """The dithered quantizer behaves as white noise of known power."""

    def _noise(self, bits, count=400_000, seed=17):
        config = AdcConfig(bits=bits, threshold=1.0, seed=seed)
        rng = np.random.default_rng(seed + 1)
        folded = rng.uniform(-1.0, 1.0, count)
        dither = triangle_dither(count, bits, config.full_scale, config.seed)
        quantized = quantize_uniform(folded + dither, bits, config.full_scale)
        return quantized - folded, config

    @pytest.mark.parametrize("bits", [4, 8])
    def test_power_matches_formula(self, bits):
        noise, config = self._noise(bits)
        expected = config.full_scale ** 2 / 2 ** (2 * bits)
        assert np.mean(noise ** 2) == pytest.approx(expected, rel=0.02)

    def test_power_independent_of_input(self):
        # Same power on a deterministic smooth input as on uniform noise.
        bits, count = 4, 400_000
        config = AdcConfig(bits=bits, threshold=1.0, seed=23)
        folded = 0.9 * np.sin(0.01 * np.arange(count))
        dither = triangle_dither(count, bits, config.full_scale, config.seed)
        noise = quantize_uniform(folded + dither, bits, config.full_scale) - folded
        expected = config.full_scale ** 2 / 2 ** (2 * bits)
        assert np.mean(noise ** 2) == pytest.approx(expected, rel=0.02)

    def test_whiteness(self):
        noise, _ = self._noise(4)
        centered = noise - noise.mean()
        lag0 = float(np.dot(centered, centered))
        for lag in range(1, 11):
            corr = float(np.dot(centered[:-lag], centered[lag:]))
            assert abs(corr) < 0.01 * lag0
