import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from modunfold import modulo_adc
from modunfold.dsp import _BLOCK as BLOCK
from modunfold.dsp import blocks
from modunfold.errors import ConfigurationError, OverloadError
from modunfold.modulo_adc import (AdcConfig, acquire, fold, quantize_uniform,
                                  triangle_dither)
from modunfold.signal_model import SampledSignal
from conftest import traced_peak


def dither_draws(count, bits, full_scale, seed):
    """Every draw of triangle_dither, whose blocks follow dsp.blocks(count)."""
    return np.concatenate(list(triangle_dither(count, bits, full_scale, seed)))


def synthetic_signal(samples, band_fraction=0.25):
    samples = np.asarray(samples, dtype=float)
    return SampledSignal(samples=samples, band_fraction=band_fraction)


class TestFold:
    def test_in_range_passthrough(self):
        assert fold(np.array([0.3]), 1.0) == pytest.approx([0.3])

    def test_positive_wrap(self):
        folded = fold(np.array([2.5]), 1.0)
        assert folded == pytest.approx([0.5])
        assert 2.5 - folded == pytest.approx([2.0])

    def test_negative_wrap(self):
        folded = fold(np.array([-1.2]), 1.0)
        assert folded == pytest.approx([0.8])
        assert -1.2 - folded == pytest.approx([-2.0])

    @given(st.floats(-1e4, 1e4), st.floats(1e-3, 1e3))
    @settings(deadline=None, max_examples=200)
    def test_idempotent_lattice_and_range(self, ratio, threshold):
        x = np.array([ratio * threshold])  # within a physical range of the threshold
        once = fold(x, threshold)
        assert -threshold <= once[0] < threshold
        assert_array_equal(fold(once, threshold), once)
        multiples = (x[0] - once[0]) / (2 * threshold)
        assert abs(multiples - round(multiples)) < 1e-9

    def test_vectorized(self):
        x = np.array([0.3, 2.5, -1.2])
        assert_allclose(fold(x, 1.0), [0.3, 0.5, 0.8])

    @pytest.mark.parametrize("threshold", [1.0, 1.5, 0.3, 7.3e-3])
    def test_in_place_gives_the_bits_of_the_expression(self, threshold):
        # fold works in place; it must return the bits of the plain expression.
        # Past -1.5 by one ulp, x + threshold is so small a negative number
        # that np.mod returns the modulus itself.
        edges = [threshold, -threshold, 0.0, -0.0, np.nextafter(-threshold, -np.inf),
                 np.nextafter(-threshold, 0.0), np.nextafter(threshold, 0.0), 3 * threshold,
                 -3 * threshold, np.nextafter(-3 * threshold, -np.inf)]
        x = np.concatenate([
            edges, np.random.default_rng(0).normal(scale=50 * threshold, size=100_000)])
        r = np.mod(x + threshold, 2.0 * threshold) - threshold
        assert_array_equal(fold(x, threshold), np.where(r >= threshold, r - 2.0 * threshold, r))
        if threshold == 1.5:
            assert (r[:len(edges)] == threshold).any()


class TestTriangleDither:
    def setup_method(self):
        self.bits, self.full_scale = 4, 8.0 / 7.0
        self.step = 2 * self.full_scale / 2 ** self.bits
        self.draws = dither_draws(10 ** 6, self.bits, self.full_scale, seed=99)

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
        again = dither_draws(10 ** 6, self.bits, self.full_scale, seed=99)
        assert_array_equal(self.draws, again)


class TestQuantizeUniform:
    def test_bin_center_positive(self):
        assert quantize_uniform(np.array([0.3]), 2, 1.0) == pytest.approx([0.25])

    def test_lowest_bin_closed_edge(self):
        assert quantize_uniform(np.array([-1.0]), 2, 1.0) == pytest.approx([-0.75])

    def test_top_edge_right_closed(self):
        assert quantize_uniform(np.array([1.0]), 2, 1.0) == pytest.approx([0.75])

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

    def test_fractional_bits_rejected(self):
        # 2.5 bits used to quantize on 2^2.5 - 2 = 3.66 steps, 6 levels.
        with pytest.raises(ConfigurationError, match="integer"):
            AdcConfig(bits=2.5, threshold=1.0)
        assert AdcConfig(bits=np.int64(4), threshold=1.0).full_scale == pytest.approx(8 / 7)

    def test_bits_past_float_resolution_rejected(self):
        # 2000 bits used to overflow the full-scale formula.
        for bits in (54, 2000):
            with pytest.raises(ConfigurationError, match="bits"):
                AdcConfig(bits=bits, threshold=1.0)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, np.inf, np.nan, 1.01e300])
    def test_threshold_outside_zero_to_inf_rejected(self, threshold):
        # NaN and inf used to pass, and acquire then ended in numpy's
        # OverflowError from the dither's uniform draw.
        with pytest.raises(ConfigurationError, match="threshold"):
            AdcConfig(bits=4, threshold=threshold)

    def test_full_scale_exceeds_threshold(self):
        config = AdcConfig(bits=4, threshold=0.5)
        assert config.full_scale > config.threshold
        step = 2.0 * config.full_scale / 2 ** config.bits
        assert config.full_scale == pytest.approx(config.threshold + step)


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
        step = 2.0 * config.full_scale / 2 ** config.bits
        assert np.abs(total_error).max() <= 1.5 * step

    def test_first_sample_beyond_threshold_rejected(self):
        sig = synthetic_signal(np.array([1.2, 0.0, 0.0]))
        with pytest.raises(ConfigurationError, match="first sample"):
            acquire(sig, AdcConfig(bits=4, threshold=1.0))

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
        dither = dither_draws(count, bits, config.full_scale, config.seed)
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
        dither = dither_draws(count, bits, config.full_scale, config.seed)
        noise = quantize_uniform(folded + dither, bits, config.full_scale) - folded
        expected = config.full_scale ** 2 / 2 ** (2 * bits)
        assert np.mean(noise ** 2) == pytest.approx(expected, rel=0.02)

    def test_matches_empirical_dithered_quantizer(self):
        bits, full_scale, count = 6, 1.25, 400_000
        step = 2.0 * full_scale / 2 ** bits
        rng = np.random.default_rng(31)
        inputs = rng.uniform(-1.0, 1.0, count)
        dither = dither_draws(count, bits, full_scale, seed=32)
        noise = quantize_uniform(inputs + dither, bits, full_scale) - inputs
        assert np.mean(noise ** 2) == pytest.approx(step ** 2 / 4, rel=0.02)

    def test_whiteness(self):
        noise, _ = self._noise(4)
        centered = noise - noise.mean()
        lag0 = float(np.dot(centered, centered))
        for lag in range(1, 11):
            corr = float(np.dot(centered[:-lag], centered[lag:]))
            assert abs(corr) < 0.01 * lag0


def whole_record_acquire(samples, config):
    """acquire in one pass over the record: (quantized, flags, residue).

    The dither is two full-length uniform draws from one generator.
    """
    lam, bits, full_scale = config.threshold, config.bits, config.full_scale
    folded = np.mod(samples + lam, 2.0 * lam) - lam
    folded = np.where(folded >= lam, folded - 2.0 * lam, folded)
    half = full_scale / 2 ** bits
    rng = np.random.default_rng(config.seed)
    dither = -(rng.uniform(-half, half, samples.size)
               + rng.uniform(-half, half, samples.size))
    step = 2.0 * full_scale / 2 ** bits
    cell = np.clip(np.floor((folded + dither + full_scale) / step), 0, 2 ** bits - 1)
    lattice = np.round((folded - samples) / (2.0 * lam)).astype(np.int64)
    return (-full_scale + (cell + 0.5) * step, np.diff(lattice, prepend=0) != 0,
            2.0 * lam * lattice)


def random_walk(count, seed):
    walk = np.cumsum(np.random.default_rng(seed).normal(0, 0.3, count))
    return walk - walk[0]


class TestBlockwiseAcquire:
    """acquire works block by block, bit-identical to the whole-record chain."""

    @pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 123])
    @pytest.mark.parametrize("seed", [5, np.random.SeedSequence(8)])
    def test_matches_whole_record(self, count, seed):
        samples = random_walk(count, count)
        config = AdcConfig(bits=4, threshold=1.0, seed=seed)
        out = acquire(synthetic_signal(samples), config)
        quantized, flags, residue = whole_record_acquire(samples, config)
        assert flags.sum() > count // 10
        assert_array_equal(out.quantized, quantized)
        assert_array_equal(out.folding_bits, flags)
        assert_array_equal(out.residue_truth, residue)

    def test_fold_on_a_block_edge(self):
        # The residue steps at the first sample of the second block and stays
        # off zero across the next edge: the flag at BLOCK compares against
        # the last lattice value of the block before, and none may appear at
        # 2 * BLOCK.
        samples = np.full(3 * BLOCK, 0.1)
        samples[BLOCK:2 * BLOCK + 5] = 1.2
        config = AdcConfig(bits=6, threshold=1.0, seed=2)
        out = acquire(synthetic_signal(samples), config)
        assert_array_equal(np.flatnonzero(out.folding_bits), [BLOCK, 2 * BLOCK + 5])
        quantized, flags, residue = whole_record_acquire(samples, config)
        assert_array_equal(out.quantized, quantized)
        assert_array_equal(out.folding_bits, flags)
        assert_array_equal(out.residue_truth, residue)

    def test_overload_in_a_later_block_names_the_global_sample(self, monkeypatch):
        # The quantizer range leaves no room for an overload from dither
        # within its support, so one draw is made far too large.
        where = 2 * BLOCK + 7

        def loud(count, bits, full_scale, seed):
            draws = np.zeros(count)
            draws[where] = 10.0 * full_scale
            return (draws[block] for block in blocks(count))
        monkeypatch.setattr(modulo_adc, "triangle_dither", loud)
        with pytest.raises(OverloadError, match=f"sample {where} ") as info:
            acquire(synthetic_signal(np.zeros(3 * BLOCK)), AdcConfig(bits=4, threshold=1.0))
        assert info.value.index == where

    def test_peak_memory_is_the_outputs_plus_blocks(self):
        # The outputs are 2.125 record lengths (quantized, residue, 1-byte
        # flags).  Measured on 202,000 samples: the rest of the peak is 6.6
        # blocks of float64 (0.13 record lengths); before blockwise
        # acquisition the peak was 6.0 record lengths.
        samples = random_walk(202_000, 1)
        signal, config = synthetic_signal(samples), AdcConfig(bits=4, threshold=1.0, seed=3)
        acquire(signal, config)
        out, peak = traced_peak(acquire, signal, config)
        outputs = out.quantized.nbytes + out.residue_truth.nbytes + out.folding_bits.nbytes
        assert peak <= outputs + 12 * BLOCK * 8
