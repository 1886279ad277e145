import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from modunfold.baselines import (HodConfig, conventional_adc,
                                 conventional_full_scale, hod_recover)
from modunfold.errors import ConfigurationError
from modunfold.guarantees import predict_mse_conventional
from modunfold.modulo_adc import AdcConfig, acquire, fold
from modunfold.signal_model import (PulseTrainSpec, estimate_inf_norm,
                                    generate_pulse_train, nominal_sample_count,
                                    sample_signal)


def reference_signal(num_pulses=1000, oversampling=4.0, seed=1):
    spec = PulseTrainSpec(num_pulses=num_pulses, seed=seed)
    train = generate_pulse_train(spec)
    sig = sample_signal(train, oversampling,
                        nominal_sample_count(spec, oversampling))
    return sig, 1.001 * estimate_inf_norm(train)


def core_mse(estimate, reference, trim=512):
    """MSE away from the filter warm-up at the record boundaries."""
    err = (estimate - reference)[trim:-trim]
    return float(np.mean(err ** 2))


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

    def test_bad_args(self):
        sig, peak = reference_signal(num_pulses=200)
        with pytest.raises(ConfigurationError):
            conventional_adc(sig, 1, peak, seed=0)
        with pytest.raises(ConfigurationError):
            conventional_adc(sig, 4, -1.0, seed=0)


class TestHodRecover:
    def test_first_order_exact_when_difference_fits(self):
        # Classic unwrapping condition: with no quantization and the largest
        # first difference inside the threshold, recovery is exact.
        sig, peak = reference_signal(num_pulses=400, oversampling=40.0, seed=2)
        threshold = 1.2 * np.abs(np.diff(sig.samples, prepend=0.0)).max()
        assert threshold < peak  # the signal does fold
        adc = acquire(sig, AdcConfig(bits=4, threshold=threshold, seed=2),
                      ideal=True)
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
        assert np.abs(residual).max() <= 1.5 * adc.config.step + 1e-12

    def test_anchored_at_first_sample(self):
        sig, peak = reference_signal(num_pulses=200, seed=6)
        threshold = 0.4 * peak
        adc = acquire(sig, AdcConfig(bits=5, threshold=threshold, seed=6))
        recovered = hod_recover(adc.quantized,
                                HodConfig(threshold=threshold, order=1))
        assert recovered[0] == adc.quantized[0]

    def test_invalid_order_rejected(self):
        with pytest.raises(ConfigurationError):
            HodConfig(threshold=1.0, order=0)
        with pytest.raises(ConfigurationError):
            HodConfig(threshold=1.0, order=17)
