from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from modunfold.baselines import (HodConfig, conventional_adc,
                                 conventional_full_scale, hod_recover)
from modunfold.dsp import _BLOCK as BLOCK
from modunfold.dsp import design_lowpass, filter_zero_delay
from modunfold.errors import ConfigurationError
from modunfold.guarantees import predict_mse_conventional
from modunfold.modulo_adc import AdcConfig, acquire, fold
from modunfold.signal_model import (PulseTrainSpec, SampledSignal,
                                    estimate_inf_norm, generate_pulse_train,
                                    nominal_sample_count, sample_signal)
from conftest import traced_peak


def reference_signal(num_pulses=1000, oversampling=4.0, seed=1):
    spec = PulseTrainSpec(num_pulses=num_pulses, seed=seed)
    train = generate_pulse_train(spec)
    sig = sample_signal(train, oversampling,
                        nominal_sample_count(spec, oversampling))
    return sig, 1.001 * estimate_inf_norm(train)


def whole_record_hod(y, config):
    """hod_recover as whole-record passes, each making a new array."""
    diffed = y.copy()
    for _ in range(config.order):
        diffed = np.diff(diffed, prepend=0.0)
    estimate = diffed - fold(diffed, config.threshold)
    spacing = 2.0 * config.threshold
    for _ in range(config.order):
        estimate = spacing * np.round(np.cumsum(estimate) / spacing)
    return y - estimate


def core_mse(estimate, reference, trim=512):
    """MSE away from the filter warm-up at the record boundaries."""
    err = (estimate - reference)[trim:-trim]
    return float(np.mean(err ** 2))


def whole_record_conventional(samples, bits, peak, seed):
    """conventional_adc in one pass over the record, before the lowpass.

    The dither is two full-length uniform draws from one generator.
    """
    full_scale = conventional_full_scale(bits, peak)
    half = full_scale / 2 ** bits
    rng = np.random.default_rng(seed)
    dither = -(rng.uniform(-half, half, samples.size)
               + rng.uniform(-half, half, samples.size))
    dithered = np.clip(samples + dither, -full_scale, full_scale)
    step = 2.0 * full_scale / 2 ** bits
    cell = np.clip(np.floor((dithered + full_scale) / step), 0, 2 ** bits - 1)
    return -full_scale + (cell + 0.5) * step


class TestConventionalAdc:
    def test_full_scale_formula(self):
        assert conventional_full_scale(4, 1.0) == pytest.approx(17.0 / 16.0)

    def test_mse_tracks_prediction_at_4_bits(self):
        sig, peak = reference_signal()
        estimate = conventional_adc(sig, 4, peak, seed=3)
        mse = core_mse(estimate, sig.samples)
        predicted = predict_mse_conventional(peak, 4.0, 4)
        assert abs(10 * np.log10(mse) - 10 * np.log10(predicted)) <= 1.0

    @pytest.mark.parametrize("oversampling", [4.0, 8.0, 16.0])
    def test_mse_tracks_prediction_across_rates(self, oversampling):
        sig, peak = reference_signal(oversampling=oversampling)
        estimate = conventional_adc(sig, 6, peak, seed=4)
        mse = core_mse(estimate, sig.samples)
        predicted = predict_mse_conventional(peak, oversampling, 6)
        assert abs(10 * np.log10(mse) - 10 * np.log10(predicted)) <= 1.0

    def test_high_resolution_floor(self):
        sig, peak = reference_signal()
        estimate = conventional_adc(sig, 16, peak, seed=5)
        mse = core_mse(estimate, sig.samples)
        assert 10 * np.log10(mse) < -90.0

    def test_deterministic(self):
        sig, peak = reference_signal(num_pulses=200)
        assert_array_equal(conventional_adc(sig, 4, peak, seed=6),
                           conventional_adc(sig, 4, peak, seed=6))

    @pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 123])
    def test_blockwise_matches_whole_record(self, count):
        samples = np.sin(0.05 * np.arange(count))
        sig = SampledSignal(samples=samples, band_fraction=0.25)
        peak, seed = np.abs(samples).max(), np.random.SeedSequence(count)
        quantized = whole_record_conventional(samples, 4, peak, seed)
        lowpass = design_lowpass(0.25 * np.pi, np.pi / 64, 1025)
        assert_array_equal(conventional_adc(sig, 4, peak, seed),
                           filter_zero_delay(quantized, lowpass))

    def test_peak_memory_is_the_quantized_record_and_the_output(self):
        # Measured on 202,000 samples: 2.107 record lengths, the two
        # full-length arrays plus 5.3 blocks of float64; the whole-record
        # chain peaked at 5.1 record lengths.
        samples = np.sin(0.05 * np.arange(202_000))
        sig = SampledSignal(samples=samples, band_fraction=0.25)
        conventional_adc(sig, 4, 1.0, 3)
        _, peak = traced_peak(conventional_adc, sig, 4, 1.0, 3)
        assert peak <= 2 * samples.nbytes + 12 * BLOCK * 8

    def test_bad_args(self):
        sig, peak = reference_signal(num_pulses=200)
        with pytest.raises(ConfigurationError):
            conventional_adc(sig, 1, peak, seed=0)
        with pytest.raises(ConfigurationError, match="integer"):
            conventional_adc(sig, 4.5, peak, seed=0)  # used to run
        assert_array_equal(conventional_adc(sig, np.int64(4), peak, seed=0),
                           conventional_adc(sig, 4, peak, seed=0))
        for peak in (-1.0, np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="peak"):
                conventional_adc(sig, 4, peak, seed=0)


class TestHodRecover:
    def test_first_order_exact_when_difference_fits(self):
        # Classic unwrapping condition: with no quantization and the largest
        # first difference inside the threshold, recovery is exact.
        sig, peak = reference_signal(num_pulses=400, oversampling=40.0, seed=2)
        threshold = 1.2 * np.abs(np.diff(sig.samples, prepend=0.0)).max()
        assert threshold < peak  # the signal does fold
        adc = acquire(sig, AdcConfig(bits=4, threshold=threshold, seed=2))
        adc = replace(adc, quantized=fold(sig.samples, threshold))
        assert adc.folding_bits.any()
        recovered = hod_recover(adc.quantized,
                                HodConfig(threshold=threshold, order=1))
        assert_allclose(recovered, sig.samples, atol=1e-9)

    def test_identity_on_never_folded_input(self):
        sig, peak = reference_signal(num_pulses=300, seed=3)
        threshold = 2.0 * peak
        adc = acquire(sig, AdcConfig(bits=6, threshold=threshold, seed=3))
        recovered = hod_recover(adc.quantized,
                                HodConfig(threshold=threshold, order=1))
        assert_array_equal(recovered, adc.quantized)

    def test_third_order_collapses_at_4_bits(self):
        # The acceptance regime: third differences of 4-bit noise cross the
        # threshold somewhere in the record, so the anti-difference diverges.
        from modunfold.guarantees import guard_bin_count, required_threshold
        sig, peak = reference_signal(num_pulses=1000, oversampling=6.0, seed=4)
        threshold = required_threshold(peak, 6.0, guard_bin_count(np.pi / 32, 64), 64)
        adc = acquire(sig, AdcConfig(bits=4, threshold=threshold, seed=4))
        recovered = hod_recover(adc.quantized,
                                HodConfig(threshold=threshold, order=3))
        mse = np.mean((recovered - sig.samples) ** 2)
        assert 10 * np.log10(mse) > 0.0

    def test_third_order_survives_at_5_bits(self):
        from modunfold.guarantees import guard_bin_count, required_threshold
        sig, peak = reference_signal(num_pulses=1000, oversampling=10.0, seed=5)
        threshold = required_threshold(peak, 10.0, guard_bin_count(np.pi / 32, 64), 64)
        adc = acquire(sig, AdcConfig(bits=5, threshold=threshold, seed=5))
        recovered = hod_recover(adc.quantized,
                                HodConfig(threshold=threshold, order=3))
        # Exact unfolding leaves only quantization noise.
        residual = recovered - sig.samples
        step = 2.0 * adc.config.full_scale / 2 ** 5
        assert np.abs(residual).max() <= 1.5 * step + 1e-12

    def test_anchored_at_first_sample(self):
        sig, peak = reference_signal(num_pulses=200, seed=6)
        threshold = 0.4 * peak
        adc = acquire(sig, AdcConfig(bits=5, threshold=threshold, seed=6))
        recovered = hod_recover(adc.quantized,
                                HodConfig(threshold=threshold, order=1))
        assert recovered[0] == adc.quantized[0]

    @pytest.mark.parametrize("bits", [2, 5])
    def test_matches_whole_record_passes(self, bits):
        # Lengths around the block size, orders 1-5; at 2 bits the quantization
        # noise crosses the threshold and the estimate diverges.
        from modunfold.guarantees import guard_bin_count, required_threshold
        sig, peak = reference_signal(num_pulses=1100, oversampling=6.0, seed=7)
        threshold = required_threshold(peak, 6.0, guard_bin_count(np.pi / 32, 64), 64)
        adc = acquire(sig, AdcConfig(bits=bits, threshold=threshold, seed=7))
        for n in (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 123):
            y = adc.quantized[:n]
            for order in range(1, 6):
                config = HodConfig(threshold=threshold, order=order)
                recovered = hod_recover(y, config)
                assert_array_equal(recovered, whole_record_hod(y, config))
                if bits == 2 and order == 3:
                    assert np.abs(recovered - sig.samples[:n]).max() > 100 * peak

    def test_holds_two_record_lengths(self):
        # Measured 2.00 record lengths above the input, the differences at
        # their widest; whole-record passes peaked at 4.13.
        sig, peak = reference_signal(num_pulses=1000, oversampling=16.0, seed=8)
        adc = acquire(sig, AdcConfig(bits=4, threshold=0.4 * peak, seed=8))
        config = HodConfig(threshold=0.4 * peak, order=3)
        _, held = traced_peak(hod_recover, adc.quantized, config)
        assert held <= 2.2 * adc.quantized.nbytes

    def test_invalid_order_rejected(self):
        with pytest.raises(ConfigurationError):
            HodConfig(threshold=1.0, order=0)
        with pytest.raises(ConfigurationError):
            HodConfig(threshold=1.0, order=17)
        # 2.5 used to pass, and hod_recover then died in numpy's TypeError.
        with pytest.raises(ConfigurationError, match="integer"):
            HodConfig(threshold=1.0, order=2.5)
        assert HodConfig(threshold=1.0, order=np.int64(2)).order == 2

    @pytest.mark.parametrize("threshold", [0.0, -1.0, np.inf, np.nan, 1.01e300])
    def test_threshold_outside_zero_to_inf_rejected(self, threshold):
        # NaN used to pass and hod_recover then returned an all-NaN record.
        with pytest.raises(ConfigurationError, match="threshold"):
            HodConfig(threshold=threshold)
