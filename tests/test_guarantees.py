import math

import numpy as np
import pytest

from modunfold.dsp import build_oob_system, matrix_inf_norm
from modunfold.errors import ConfigurationError, InfeasibleError
from modunfold.guarantees import (estimate_interference_norm, guard_bin_count,
                                  min_oversampling, min_oversampling_for_folds,
                                  predict_mse_conventional, predict_mse_modulo,
                                  quantization_noise_power, required_bits,
                                  required_threshold, theory_report)


class TestGuardBinCount:
    def test_reference_values(self):
        assert guard_bin_count(np.pi / 32, 64) == 4
        assert guard_bin_count(np.pi / 16, 64) == 8

    def test_zero_guard(self):
        assert guard_bin_count(0.0, 64) == 0
        assert guard_bin_count(0.0, 4096) == 0

    def test_always_even(self):
        for width in np.linspace(0.001, 0.5, 23):
            assert guard_bin_count(width, 97) % 2 == 0


class TestMinOversampling:
    def test_fold_dependent_trivial(self):
        assert min_oversampling_for_folds(64, 0, 0) == pytest.approx(1.0)

    def test_fold_dependent_example(self):
        assert min_oversampling_for_folds(64, 8, 4) == pytest.approx(64 / 52)

    def test_fold_dependent_infeasible(self):
        with pytest.raises(InfeasibleError):
            min_oversampling_for_folds(64, 60, 4)

    def test_signal_free_no_guard(self):
        assert min_oversampling(64, 0) == pytest.approx(3.0)

    def test_signal_free_examples(self):
        assert min_oversampling(64, 4) == pytest.approx(3.2)
        assert min_oversampling(64, 8) == pytest.approx(3.0 / 0.875)

    def test_long_window_limit(self):
        assert min_oversampling(1 << 20, 4) == pytest.approx(3.0, abs=1e-4)

    def test_saturated_guard_infeasible(self):
        with pytest.raises(InfeasibleError):
            min_oversampling(64, 64)

    def test_fold_bound_keeps_general_below_signal_free(self):
        # With per-segment folds below 2*(N - guard)/3 (the fold-count bound
        # behind the signal-free condition), the signal-dependent requirement
        # can only be weaker.
        for length, bins in [(64, 0), (64, 4), (128, 8), (256, 16)]:
            cap = math.floor(2 * (length - bins) / 3)
            for folds in range(0, cap + 1, max(1, cap // 7)):
                assert (min_oversampling_for_folds(length, folds, bins)
                        <= min_oversampling(length, bins) + 1e-12)


class TestRequiredThreshold:
    def test_examples(self):
        assert required_threshold(1.25, 4, 0, 64) == pytest.approx(0.625)
        assert required_threshold(1.0, 4, 4, 64) == pytest.approx(1 / 1.75)

    def test_infeasible_denominator(self):
        with pytest.raises(InfeasibleError):
            required_threshold(1.0, 2, 0, 64)


class TestRequiredBits:
    def test_zero_interference(self):
        assert required_bits(0.0) == pytest.approx(3.0)

    def test_examples(self):
        assert required_bits(4.0) == pytest.approx(5.0)
        assert required_bits(20.0) == pytest.approx(7.0)


class TestPredictedMse:
    def test_no_guard_example(self):
        value = predict_mse_modulo(1.0, 4, 4, 0, 0.0, 64)
        assert value == pytest.approx(1 / (4 * 196 * 4))
        assert 10 * math.log10(value) == pytest.approx(-34.96, abs=0.05)

    def test_gap_to_conventional_at_high_rate(self):
        modulo = predict_mse_modulo(1.0, 40, 4, 8, np.pi / 16, 64)
        conventional = predict_mse_conventional(1.0, 40, 4)
        gap = 10 * math.log10(conventional / modulo)
        assert 20.0 <= gap <= 26.0  # the reported figure is roughly 23 dB

    def test_below_sufficiency_rejected(self):
        with pytest.raises(InfeasibleError):
            predict_mse_modulo(1.0, 2.5, 4, 0, 0.0, 64)

    def test_strictly_decreasing_in_rate_and_bits(self):
        grid = [4, 6, 8, 12, 16, 24, 32, 48]
        values = [predict_mse_modulo(1.0, of, 4, 4, np.pi / 32, 64) for of in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        by_bits = [predict_mse_modulo(1.0, 8, b, 4, np.pi / 32, 64)
                   for b in range(3, 12)]
        assert all(a > b for a, b in zip(by_bits, by_bits[1:]))

    def test_reduced_form_algebraic_identity(self):
        # Without a guard band, MSE * OF * (OF-2)^2 is constant in OF.
        products = [predict_mse_modulo(1.0, of, 4, 0, 0.0, 64) * of * (of - 2) ** 2
                    for of in (4, 10, 25, 100, 1000)]
        assert max(products) - min(products) < 1e-15

    def test_conventional_examples(self):
        assert predict_mse_conventional(1.0, 4, 4) == pytest.approx(1 / 784)
        assert (predict_mse_conventional(1.0, 8, 4)
                == pytest.approx(predict_mse_conventional(1.0, 4, 4) / 2))
        assert (predict_mse_conventional(2.0, 4, 4)
                == pytest.approx(4 * predict_mse_conventional(1.0, 4, 4)))


class TestQuantizationNoisePower:
    def test_example(self):
        assert quantization_noise_power(4, 1.0) == pytest.approx(1 / 256)

    def test_quadratic_in_range(self):
        assert (quantization_noise_power(6, 2.0)
                == pytest.approx(4 * quantization_noise_power(6, 1.0)))

    def test_matches_empirical_dithered_quantizer(self):
        from modunfold.modulo_adc import quantize_uniform, triangle_dither
        bits, full_scale, count = 6, 1.25, 400_000
        rng = np.random.default_rng(31)
        inputs = rng.uniform(-1.0, 1.0, count)
        dither = triangle_dither(count, bits, full_scale, seed=32)
        noise = quantize_uniform(inputs + dither, bits, full_scale) - inputs
        assert np.mean(noise ** 2) == pytest.approx(
            quantization_noise_power(bits, full_scale), rel=0.02)


class TestInterferenceNorm:
    def test_empty_set_is_zero(self):
        assert estimate_interference_norm(64, 4, 0.0, 0, 100, seed=0) == 0.0

    def test_matches_explicit_pseudoinverse(self):
        length, set_size, trials, seed = 64, 6, 50, 123
        fast = estimate_interference_norm(length, 4, 0.0, set_size, trials, seed)
        bins = build_oob_system(length, 0.25, 0.0).oob_bins
        v = np.exp(-2j * np.pi * np.outer(bins, np.arange(length)) / length) / np.sqrt(length)
        rng = np.random.default_rng(seed)
        draws = rng.random((trials, length)).argsort(axis=1)
        slow = 0.0
        for row in draws:
            inside, outside = row[:set_size], row[set_size:]
            mapped = np.linalg.pinv(v[:, inside]) @ v[:, outside]
            slow = max(slow, matrix_inf_norm(mapped))
        assert fast == pytest.approx(slow, rel=1e-9)

    def test_nondecreasing_in_trials(self):
        short = estimate_interference_norm(64, 4, 0.0, 4, 500, seed=7)
        long = estimate_interference_norm(64, 4, 0.0, 4, 2000, seed=7)
        assert long >= short

    def test_deterministic(self):
        a = estimate_interference_norm(64, 8, 0.0, 4, 300, seed=5)
        b = estimate_interference_norm(64, 8, 0.0, 4, 300, seed=5)
        assert a == b

    def test_decreases_with_oversampling(self):
        losses = 0
        for seed in range(3):
            low = estimate_interference_norm(64, 4, 0.0, 4, 2000, seed=seed)
            high = estimate_interference_norm(64, 12, 0.0, 4, 2000, seed=seed)
            losses += high > low
        assert losses == 0

    def test_grows_with_set_size(self):
        small = estimate_interference_norm(64, 4, 0.0, 2, 2000, seed=11)
        large = estimate_interference_norm(64, 4, 0.0, 8, 2000, seed=11)
        assert large >= small

    def test_oversized_set_rejected(self):
        with pytest.raises(InfeasibleError):
            estimate_interference_norm(64, 4, 0.0, 60, 10, seed=0)

    def test_zero_oversampling_rejected(self):
        # Used to end in a ZeroDivisionError from 1 / oversampling.
        with pytest.raises(ConfigurationError, match="oversampling"):
            estimate_interference_norm(16, 0.0, 0.0, 2, 10, seed=0)


class TestTheoryReport:
    def test_assembles_consistent_fields(self):
        report = theory_report(1.0, 8.0, 4, 64, np.pi / 32)
        assert report.guard_bins == 4 and report.guard_bins % 2 == 0
        assert report.bits_ok is None
        assert report.mse_modulo > 0
        assert report.mse_modulo_db == pytest.approx(
            10 * math.log10(report.mse_modulo))
        assert report.full_scale == pytest.approx(
            16 * report.threshold / 14)

    def test_one_bit_is_config_error(self):
        # The full scale comes from AdcConfig, which rejects one bit; the
        # formula used to divide by 2^1 - 2 = 0.
        with pytest.raises(ConfigurationError, match="bits"):
            theory_report(1.0, 8.0, 1, 64, np.pi / 32)

    def test_bits_verdict_with_interference_estimate(self):
        report = theory_report(1.0, 8.0, 6, 64, np.pi / 32, interference_norm=4.0)
        assert report.bits_ok is True
        report = theory_report(1.0, 8.0, 4, 64, np.pi / 32, interference_norm=4.0)
        assert report.bits_ok is False
