import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from modunfold.dsp import tukey_window
from modunfold.errors import ConfigurationError
from modunfold.signal_model import (PulseTrain, PulseTrainSpec,
                                    estimate_inf_norm, generate_pulse_train,
                                    nominal_sample_count, raised_cosine,
                                    sample_signal)


def single_pulse(amplitude=1.0, **kwargs):
    spec = PulseTrainSpec(num_pulses=1, **kwargs)
    return PulseTrain(spec=spec, amplitudes=np.array([amplitude]))


def pulse_at(t, beta):
    """raised_cosine at one time, passed as the float array it takes."""
    return raised_cosine(np.array([t]), beta)[0]


class TestRaisedCosine:
    def test_unit_peak(self):
        assert pulse_at(0.0, beta=1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [-3, -1, 1, 2, 5])
    def test_symbol_spaced_zero_crossings(self, k):
        assert pulse_at(float(k), beta=1.0) == pytest.approx(0.0, abs=1e-15)

    def test_singularity_matches_numeric_limit(self):
        # Two-sided numeric limit around t = 1/(2*beta) as the oracle; the
        # symmetric average cancels the linear term of the pulse slope.
        value = pulse_at(0.5, beta=1.0)
        probe = 0.5 * (pulse_at(0.5 - 1e-6, beta=1.0) + pulse_at(0.5 + 1e-6, beta=1.0))
        assert value == pytest.approx(np.pi / 4 * np.sinc(0.5))
        assert abs(value - probe) < 1e-6

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_singularity_other_rolloffs(self, beta):
        t0 = 1.0 / (2.0 * beta)
        value = pulse_at(t0, beta=beta)
        probe = 0.5 * (pulse_at(t0 - 1e-7, beta=beta) + pulse_at(t0 + 1e-7, beta=beta))
        assert abs(value - probe) < 1e-6

    def test_zero_rolloff_is_sinc(self):
        t = np.linspace(-3, 3, 41)
        assert_allclose(raised_cosine(t, beta=0.0), np.sinc(t), atol=1e-15)
        # A subnormal roll-off puts 1/(2*beta) at inf; no NaN warning.
        assert_allclose(raised_cosine(t, beta=5e-324), np.sinc(t), atol=1e-15)


class TestPulseTrain:
    def test_single_pinned_pulse(self):
        train = single_pulse(1.0)
        assert train.evaluate(1.0)[0] == pytest.approx(1.0)
        assert train.evaluate(2.0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_paper_scale_defaults(self):
        spec = PulseTrainSpec(num_pulses=2000)
        assert (spec.amp_low, spec.amp_high) == (-0.5, 1.0)
        assert spec.beta == 1.0 and spec.span == 20

    def test_same_seed_same_amplitudes(self):
        spec = PulseTrainSpec(num_pulses=100, seed=42)
        assert_array_equal(generate_pulse_train(spec).amplitudes,
                           generate_pulse_train(spec).amplitudes)

    def test_amplitudes_within_interval(self):
        train = generate_pulse_train(PulseTrainSpec(num_pulses=500, seed=7))
        assert train.amplitudes.min() >= -0.5 and train.amplitudes.max() <= 1.0

    def test_zero_outside_support(self):
        train = generate_pulse_train(PulseTrainSpec(num_pulses=10, seed=0))
        lo, hi = train.support
        assert_array_equal(train.evaluate([lo - 0.3, hi + 0.3]), [0.0, 0.0])

    def test_truncation_at_span(self):
        # A time 10.5 symbols away from the only pulse is outside its span.
        train = single_pulse(1.0)
        assert train.evaluate(1.0 + 10.5)[0] == 0.0

    def test_evaluator_matches_direct_sum(self):
        train = generate_pulse_train(PulseTrainSpec(num_pulses=30, seed=3))
        t = np.linspace(0.0, 35.0, 97)
        direct = np.zeros_like(t)
        for m, amp in enumerate(train.amplitudes, start=1):
            tau = t - m
            direct += np.where(np.abs(tau) <= 10.0,
                               amp * raised_cosine(tau, beta=1.0), 0.0)
        assert_allclose(train.evaluate(t), direct, atol=1e-12)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            PulseTrainSpec(num_pulses=0)
        with pytest.raises(ConfigurationError):
            PulseTrainSpec(num_pulses=10, beta=1.5)
        with pytest.raises(ConfigurationError):
            PulseTrainSpec(num_pulses=10, span=7)
        PulseTrainSpec(num_pulses=10, span=1000)
        with pytest.raises(ConfigurationError, match="cap"):
            PulseTrainSpec(num_pulses=10, span=1002)
        # An empty interval, then amplitudes whose squared errors overflowed.
        for low, high in ((1.0, 0.5), (-0.5, 1.41e169), (-1e300, 1.0), (-2e100, -1.5e100)):
            with pytest.raises(ConfigurationError):
                PulseTrainSpec(num_pulses=10, amp_low=low, amp_high=high)


class TestSampleSignal:
    def test_bandwidth_and_period(self):
        train = single_pulse(1.0)
        sig = sample_signal(train, 4.0, 64)
        assert train.bandwidth == pytest.approx(4 * np.pi)
        # OF 4 over a 4*pi rad/s band samples every 1/8 s.
        assert np.array_equal(sig.samples, train.evaluate(np.arange(64) / 8))

    def test_nyquist_sampling_fills_band(self):
        sig = sample_signal(single_pulse(1.0), 1.0, 16)
        assert sig.band_fraction == pytest.approx(1.0)

    def test_unit_pulse_hits_peak(self):
        sig = sample_signal(single_pulse(1.0), 4.0, 64)
        # t = 1 s lands on sample index 8 at OF=4 (period 1/8 s).
        assert sig.samples[8] == pytest.approx(1.0)

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_signal(single_pulse(), 0.5, 16)
        with pytest.raises(ConfigurationError):
            sample_signal(single_pulse(), 4.0, 0)

    def test_nominal_count_covers_support(self):
        spec = PulseTrainSpec(num_pulses=100)
        count = nominal_sample_count(spec, 4.0)
        assert count == (100 + 20) * 2 * 4

    def test_nominal_count_capped(self):
        # The paper preset's largest count passes; 150 pulses at OF 1e6 ask
        # for 3.4e8 samples, and OF 1e300 overflows the count to inf.
        assert nominal_sample_count(PulseTrainSpec(num_pulses=50_000), 50.0) == 5_002_000
        for oversampling in (1e6, 1e12, 1e300):
            with pytest.raises(ConfigurationError, match="cap"):
                nominal_sample_count(PulseTrainSpec(num_pulses=150), oversampling)

    def test_deterministic_bit_for_bit(self):
        spec = PulseTrainSpec(num_pulses=100, seed=5)
        a = sample_signal(generate_pulse_train(spec), 8.0, 512).samples
        b = sample_signal(generate_pulse_train(spec), 8.0, 512).samples
        assert_array_equal(a, b)


class TestGridPath:
    # Integer samples per symbol, L = OF * (1 + beta), take the polyphase tap
    # sum on t = n/L; the reference is the evaluator at n * sample period.
    @staticmethod
    def _evaluated(train, oversampling, count):
        period = 2.0 * np.pi / (oversampling * train.bandwidth)
        return train.evaluate(np.arange(count) * period)

    @pytest.mark.parametrize("oversampling", [4.0, 8.0])
    def test_binary_fraction_times_match_evaluator_exactly(self, oversampling):
        train = generate_pulse_train(PulseTrainSpec(num_pulses=200, seed=4))
        count = nominal_sample_count(train.spec, oversampling)
        samples = sample_signal(train, oversampling, count).samples
        assert np.array_equal(samples, train.evaluate(np.arange(count) / (2 * oversampling)))

    @pytest.mark.parametrize("oversampling, beta", [(6.0, 1.0), (50.0, 1.0), (4.0, 0.5)])
    def test_other_integer_rates_agree_to_rounding(self, oversampling, beta):
        # L = 12, 100 and 6: n/L is not a binary fraction, so the grid and
        # n * sample period round differently.
        train = generate_pulse_train(PulseTrainSpec(num_pulses=200, beta=beta, seed=4))
        count = nominal_sample_count(train.spec, oversampling)
        samples = sample_signal(train, oversampling, count).samples
        assert np.abs(samples - self._evaluated(train, oversampling, count)).max() <= 1e-12

    @pytest.mark.parametrize("beta, oversampling, count", [(0.3, 4.0, None), (1.0, 1e6, 16)])
    def test_other_rates_go_through_evaluator(self, monkeypatch, beta, oversampling, count):
        # L = 5.2 is no integer; L = 2e6 is, but has more phases than samples.
        train = generate_pulse_train(PulseTrainSpec(num_pulses=200, beta=beta, seed=4))
        count = count or nominal_sample_count(train.spec, oversampling)
        expected = self._evaluated(train, oversampling, count)
        calls = []
        evaluate = PulseTrain.evaluate
        monkeypatch.setattr(PulseTrain, "evaluate",
                            lambda self, t: calls.append(len(t)) or evaluate(self, t))
        samples = sample_signal(train, oversampling, count).samples
        assert calls == [count]
        assert samples.tobytes() == expected.tobytes()

    def test_peak_equals_evaluator_on_the_same_grid(self):
        # At beta 1 the peak grid is lo + k/128: binary-fraction times.
        train = generate_pulse_train(PulseTrainSpec(num_pulses=200, seed=4))
        lo, hi = train.support
        grid = lo + np.arange(int(hi - lo) * 128 + 1) / 128
        assert estimate_inf_norm(train) == np.abs(train.evaluate(grid)).max()

    def test_peak_memory_stays_bounded_by_the_block(self):
        # 20,000 pulses put 2.56M points on the peak grid, 41 MB for one
        # full-grid sum and its term buffer; blocks of rows keep it to 4.3 MB.
        train = generate_pulse_train(PulseTrainSpec(num_pulses=20000, seed=1))
        tracemalloc.start()
        try:
            peak_value = estimate_inf_norm(train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak_value == 1.0240204201256768
        assert peak <= 5e6


class TestEstimateInfNorm:
    def test_desk_train_peak_unchanged(self):
        # Sets every desk threshold, so the desk CSVs depend on it bit for bit.
        train = generate_pulse_train(PulseTrainSpec(num_pulses=2000, seed=1))
        assert estimate_inf_norm(train) == 1.020965294732176

    def test_single_pulse(self):
        assert estimate_inf_norm(single_pulse(1.0)) == pytest.approx(1.0, abs=1e-4)

    def test_two_separated_pulses_take_larger(self):
        # Two live pulses a full span apart so their tails cannot interact.
        amps = np.zeros(30)
        amps[0], amps[-1] = 0.7, -0.5
        train = PulseTrain(spec=PulseTrainSpec(num_pulses=30), amplitudes=amps)
        assert estimate_inf_norm(train) == pytest.approx(0.7, abs=1e-4)


class TestBandlimitedness:
    def test_windowed_segments_have_negligible_oob_energy(self):
        # Premise behind out-of-band residue recovery: with an eighth of a
        # bandwidth of guard, windowed segments of the clean sampled train
        # leak at least 60 dB below the in-band level.
        train = generate_pulse_train(PulseTrainSpec(num_pulses=300, seed=21))
        oversampling = 8.0
        sig = sample_signal(train, oversampling,
                            nominal_sample_count(train.spec, oversampling))
        n, guard = 1024, np.pi / 16
        window = tukey_window(n, 0.5).coefficients
        omega = 2 * np.pi * np.arange(n) / n
        edge = np.pi / oversampling + guard
        oob = (omega > edge) & (omega < 2 * np.pi - edge)
        inband = ~oob
        energy_in = energy_out = 0.0
        for start in range(0, sig.samples.size - n, n // 2):
            bins = np.fft.fft(window * sig.samples[start:start + n]) / np.sqrt(n)
            energy_in += float(np.sum(np.abs(bins[inband]) ** 2))
            energy_out += float(np.sum(np.abs(bins[oob]) ** 2))
        assert 10 * np.log10(energy_in / energy_out) >= 60.0
