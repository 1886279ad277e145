import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from numpy.lib.stride_tricks import sliding_window_view

from modunfold.dsp import build_oob_system, tukey_window
from modunfold.errors import ConfigurationError, InfeasibleError
from modunfold.guarantees import (guard_bin_count, predict_mse_modulo,
                                  required_threshold)
from modunfold.modulo_adc import AdcConfig, AdcOutput, acquire
from modunfold.signal_model import (PulseTrainSpec, estimate_inf_norm,
                                    generate_pulse_train, nominal_sample_count,
                                    sample_signal)
from modunfold.unfold import (RecoveryConfig, residue_pre_estimate,
                              round_to_lattice, segment_starts, unfold)
from oob_reference import (dft_normalized, lattice_counts,
                           least_squares_apply, oob_matrix, pre_estimate,
                           scaling_correction, windowed_first_difference)

GUARD = np.pi / 32


def paper_point(num_pulses, oversampling, bits, seed, guard=GUARD, ideal=False):
    """Acquire + recover one operating point of the reference setup."""
    spec = PulseTrainSpec(num_pulses=num_pulses, seed=seed)
    train = generate_pulse_train(spec)
    peak = 1.001 * estimate_inf_norm(train)
    threshold = required_threshold(peak, oversampling, guard_bin_count(guard, 64), 64)
    sig = sample_signal(train, oversampling, nominal_sample_count(spec, oversampling))
    adc = acquire(sig, AdcConfig(bits=bits, threshold=threshold, seed=seed + 1),
                  ideal=ideal)
    config = RecoveryConfig(length=64, alpha=0.5, guard_width=guard,
                            threshold=threshold, band_fraction=1 / oversampling)
    return peak, threshold, sig, adc, unfold(adc, sig, config)


class TestSegmentStarts:
    def test_example_with_padding(self):
        starts = segment_starts(160, 64, 0.5)
        assert_array_equal(starts, [0, 48, 96, 144])
        assert starts[-1] + 64 > 160  # the caller zero-pads the last segment

    def test_every_sample_in_a_commit_region(self):
        for total, n, alpha in [(160, 64, 0.5), (64, 64, 0.5), (1000, 64, 0.25),
                                (130, 128, 1.0)]:
            starts = segment_starts(total, n, alpha)
            hop = tukey_window(n, alpha).hop
            covered = set()
            for s in starts:
                covered.update(range(s, s + hop))
            assert covered >= set(range(total))

    def test_starts_increase_and_stay_in_buffer(self):
        for total, n, alpha in [(96, 64, 0.5), (112, 64, 0.5), (64, 64, 0.5),
                                (128, 128, 1.0), (4096, 64, 0.25)]:
            starts = segment_starts(total, n, alpha)
            assert starts[0] == 0 and starts[-1] < total
            assert (np.diff(starts) == tukey_window(n, alpha).hop).all()

    def test_segment_longer_than_buffer_rejected(self):
        with pytest.raises(ConfigurationError):
            segment_starts(32, 64, 0.5)


class TestWindowedFirstDifference:
    # The reference's per-segment difference; unfold takes the same values
    # from a strided view of one whole-stream difference.
    def test_constant_segment_cancels(self):
        window = tukey_window(64, 0.5)
        out = windowed_first_difference(np.full(64, 3.3), 3.3, window)
        assert_allclose(out, np.zeros(64), atol=1e-12)

    def test_step_becomes_impulse(self):
        window = tukey_window(64, 1 / 8)  # w[5] = 1 inside the flat region
        segment = np.zeros(64)
        segment[5:] = 1.0
        out = windowed_first_difference(segment, 0.0, window)
        expected = np.zeros(64)
        expected[5] = 1.0
        assert_allclose(out, expected, atol=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        segment, prev = rng.normal(size=64), rng.normal()
        window = tukey_window(64, 0.5)
        naive = np.array([window.coefficients[i]
                          * (segment[i] - (segment[i - 1] if i else prev))
                          for i in range(64)])
        assert_allclose(windowed_first_difference(segment, prev, window),
                        naive, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            windowed_first_difference(np.zeros(32), 0.0, tukey_window(64, 0.5))


def segment_views(adc, config):
    """Windowed differences and flags per segment, segmented as unfold does."""
    n, overlap = config.length, config.overlap
    starts = segment_starts(overlap + adc.quantized.size, n, config.alpha)
    extent = starts[-1] + n
    samples = np.zeros(extent)
    samples[overlap:overlap + adc.quantized.size] = adc.quantized
    flags = np.zeros(extent, dtype=bool)
    flags[overlap:overlap + adc.quantized.size] = adc.folding_bits
    window = tukey_window(n, config.alpha)
    diffed = window.coefficients * sliding_window_view(
        np.diff(samples, prepend=0.0), n)[::config.hop]
    return diffed, sliding_window_view(flags, n)[::config.hop]


def assert_matches_reference(adc, config, result):
    """Same lattice and pre-estimates (within 1e-9 threshold) as the old solver."""
    system = build_oob_system(config.length, config.band_fraction, config.guard_width)
    window = tukey_window(config.length, config.alpha)
    assert_array_equal(result.residue,
                       2.0 * config.threshold * lattice_counts(adc, config, system, window))
    diffed, flags = segment_views(adc, config)
    batched = residue_pre_estimate(diffed, *np.nonzero(flags), system)
    reference = np.concatenate([
        pre_estimate(d, np.flatnonzero(f), system)[f] for d, f in zip(diffed, flags)])
    assert np.abs(batched - reference).max(initial=0.0) <= 1e-9 * config.threshold


class TestResiduePreEstimate:
    def setup_method(self):
        self.system = build_oob_system(64, 0.25, GUARD)
        self.window = tukey_window(64, 0.5)

    def _windowed_jumps(self, fold_set, jumps, slope=0.0):
        # Windowed first difference of (slow ramp + residue staircase).
        diff = np.full(64, slope)
        diff[fold_set] += jumps
        return self.window.coefficients * diff

    def _flags(self, fold_set):
        flags = np.zeros((1, 64), dtype=bool)
        flags[0, fold_set] = True
        return flags

    def test_empty_fold_set_skips_solve(self):
        out = residue_pre_estimate(np.ones((3, 64)), *np.nonzero(np.zeros((3, 64))),
                                   self.system)
        assert out.shape == (0,)

    def test_noiseless_recovery_matches_windowed_jumps(self):
        threshold = 1.0
        fold_set = np.array([7, 20, 37, 55])
        jumps = 2 * threshold * np.array([1.0, -1.0, 2.0, -1.0])
        diffed = self._windowed_jumps(fold_set, jumps, slope=1e-4 * threshold)
        out = residue_pre_estimate(diffed[None], *np.nonzero(self._flags(fold_set)),
                                   self.system)
        expected = self.window.coefficients[fold_set] * jumps
        assert np.abs(out - expected).max() <= 1e-6 * threshold

    def test_noiseless_solution_is_real(self):
        # The complex solve of V_S x = V d that the real normal equations
        # replace: conjugate-paired bins leave only numerical noise in the
        # imaginary part.
        threshold = 1.0
        fold_set = np.array([12, 30])
        diffed = self._windowed_jumps(fold_set, np.array([2.0, -2.0]))
        spectrum = dft_normalized(diffed)[self.system.oob_bins]
        solution = least_squares_apply(oob_matrix(self.system)[:, fold_set], spectrum)
        assert np.abs(solution.imag).max() <= 1e-8 * threshold

    def test_too_many_folds_rejected(self):
        dense = np.arange(50)  # exceeds the 45 out-of-band bins
        with pytest.raises(InfeasibleError, match="oversampling"):
            residue_pre_estimate(np.zeros((1, 64)), *np.nonzero(self._flags(dense)),
                                 self.system)

    def test_rows_solved_in_groups_match_reference(self):
        # Rows with different fold counts land in different batches; each
        # row's values must still come back in np.nonzero order.
        rng = np.random.default_rng(3)
        diffed = rng.normal(size=(5, 64))
        flags = np.zeros((5, 64), dtype=bool)
        for row, k in enumerate((3, 0, 6, 3, 1)):
            flags[row, rng.choice(64, size=k, replace=False)] = True
        reference = np.concatenate([
            pre_estimate(d, np.flatnonzero(f), self.system)[f]
            for d, f in zip(diffed, flags)])
        assert_allclose(residue_pre_estimate(diffed, *np.nonzero(flags), self.system),
                        reference, rtol=0, atol=1e-9)

    def test_singular_gram_names_segment(self):
        system = build_oob_system(64, 0.5, 0.0)
        flags = np.zeros((3, 64), dtype=bool)
        flags[0, [5, 40]] = True
        flags[2, 20:40] = True  # 20 adjacent folds: lambda_min/lambda_max ~ 2e-16
        with pytest.raises(ConfigurationError, match="segment 2: .*singular"):
            residue_pre_estimate(np.zeros((3, 64)), *np.nonzero(flags), system)


class TestScalingCorrection:
    # The reference's sequential overlap-add; unfold instead adds every
    # segment's values at their absolute samples in one bincount.
    def test_flat_region_passthrough_on_first_segment(self):
        current = np.zeros(64)
        current[30] = 2.0  # fold where the window is flat
        out, _ = scaling_correction(current, np.zeros(16), 0.5)
        assert out.size == 48
        assert out[30] == 2.0

    def test_overlap_sums_to_full_jump(self):
        # A fold in the overlap is split w[p] / w[p + hop] across segments;
        # the correction must restore the full jump exactly.
        window = tukey_window(64, 0.5)
        jump, p = -4.0, 9
        previous = np.zeros(64)
        previous[48 + p] = window.coefficients[48 + p] * jump
        current = np.zeros(64)
        current[p] = window.coefficients[p] * jump
        out, _ = scaling_correction(current, previous[48:], 0.5)
        assert abs(out[p] - jump) <= 1e-12

    def test_matches_piecewise_formula(self):
        rng = np.random.default_rng(4)
        current, tail = rng.normal(size=64), rng.normal(size=16)
        out, carried = scaling_correction(current, tail.copy(), 0.5)
        expected = current[:48].copy()
        expected[:16] += tail
        assert_allclose(out, expected, atol=1e-15)
        assert_array_equal(carried, current[48:])

    def test_wrong_tail_length_rejected(self):
        with pytest.raises(ValueError):
            scaling_correction(np.zeros(64), np.zeros(8), 0.5)


class TestRoundToLattice:
    def test_near_multiple_rounds_up(self):
        assert round_to_lattice(0.9 * 2.0, 1.0) == 1

    def test_zero(self):
        assert round_to_lattice(0.0, 1.0) == 0

    def test_negative(self):
        assert round_to_lattice(-2.4 * 2.0, 1.0) == -2

    def test_ties_away_from_zero(self):
        assert round_to_lattice(1.0, 1.0) == 1
        assert round_to_lattice(-1.0, 1.0) == -1

    @given(st.floats(-100, 100), st.floats(0.01, 10))
    @settings(deadline=None, max_examples=100)
    def test_within_half_spacing(self, x, threshold):
        index = round_to_lattice(x, threshold)
        assert isinstance(index, int)
        assert abs(2 * threshold * index - x) <= threshold * (1 + 1e-9)

    def test_array_gives_int64_counts(self):
        out = round_to_lattice(np.array([-3.1, 0.2, 5.0]), 1.0)
        assert out.dtype == np.int64
        assert_array_equal(out, [-2, 0, 3])


class TestUnfold:
    def test_no_folds_high_resolution_noise_floor(self):
        # A tiny signal against a unit threshold never folds; at 16 bits the
        # measured error is the in-band dithered-quantizer floor, far below
        # -80 dB and within 10% of the analytic value.
        spec = PulseTrainSpec(num_pulses=1000, amp_low=-0.005, amp_high=0.01,
                              seed=6)
        train = generate_pulse_train(spec)
        sig = sample_signal(train, 4.0, nominal_sample_count(spec, 4.0))
        adc = acquire(sig, AdcConfig(bits=16, threshold=1.0, seed=7))
        assert not adc.folding_bits.any()
        config = RecoveryConfig(length=64, alpha=0.5, guard_width=GUARD,
                                threshold=1.0, band_fraction=0.25)
        result = unfold(adc, sig, config)
        mse = np.mean((result.recovered - sig.samples) ** 2)
        floor = (adc.config.full_scale ** 2 / 2 ** 32) * (0.25 + GUARD / np.pi)
        assert 10 * np.log10(mse) < -80.0
        assert mse == pytest.approx(floor, rel=0.10)
        assert result.segments_skipped == result.segments_total

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ideal_acquisition_recovers_residue_exactly(self, seed):
        _, _, _, adc, result = paper_point(300, 4.0, 4, seed, ideal=True)
        assert_array_equal(result.residue, adc.residue_truth)

    @pytest.mark.parametrize("oversampling", [4.0, 8.0, 16.0, 50.0])
    def test_residue_equals_truth_without_rounding(self, oversampling):
        _, _, _, adc, result = paper_point(200, oversampling, 4, seed=3)
        assert adc.folding_bits.any()
        assert_array_equal(result.residue, adc.residue_truth)

    @given(st.integers(0, 10_000), st.sampled_from([4.0, 6.0, 8.0]),
           st.sampled_from([3, 4]))
    @settings(deadline=None, max_examples=12)
    def test_matches_per_segment_reference(self, seed, oversampling, bits):
        spec = PulseTrainSpec(num_pulses=40, seed=seed)
        train = generate_pulse_train(spec)
        peak = 1.001 * estimate_inf_norm(train)
        threshold = required_threshold(peak, oversampling,
                                       guard_bin_count(GUARD, 64), 64)
        sig = sample_signal(train, oversampling, nominal_sample_count(spec, oversampling))
        adc = acquire(sig, AdcConfig(bits=bits, threshold=threshold, seed=seed + 1))
        config = RecoveryConfig(length=64, alpha=0.5, guard_width=GUARD,
                                threshold=threshold, band_fraction=1 / oversampling,
                                lpf_length=129, lpf_transition=np.pi / 8)
        assert_matches_reference(adc, config, unfold(adc, sig, config))

    def test_slipping_two_bit_case_matches_reference(self):
        # Two bits at OF 4 is past the rounding margin: the lattice slips,
        # and must slip exactly as the per-segment solver's does.
        _, threshold, sig, adc, result = paper_point(300, 4.0, 2, seed=1)
        assert (result.residue != adc.residue_truth).any()
        config = RecoveryConfig(length=64, alpha=0.5, guard_width=GUARD,
                                threshold=threshold, band_fraction=0.25)
        assert_matches_reference(adc, config, result)

    def test_quantized_acquisition_still_exact_and_near_theory(self):
        peak, threshold, sig, adc, result = paper_point(300, 4.0, 4, seed=5)
        assert_array_equal(np.round(result.residue / (2 * threshold)),
                           np.round(adc.residue_truth / (2 * threshold)))
        mse = np.mean((result.recovered - sig.samples) ** 2)
        theory = predict_mse_modulo(peak, 4.0, 4, guard_bin_count(GUARD, 64),
                                    GUARD, 64)
        assert abs(10 * np.log10(mse) - 10 * np.log10(theory)) < 1.0

    def test_residue_stays_on_lattice(self):
        _, threshold, _, _, result = paper_point(300, 4.0, 4, seed=9)
        multiples = result.residue / (2 * threshold)
        assert np.abs(multiples - np.round(multiples)).max() < 1e-9

    def test_quiet_gap_segments_are_skipped_without_damage(self):
        # Folds early and late with a long quiet stretch in between: the
        # skipped middle segments must not disturb the running residue.
        spec = PulseTrainSpec(num_pulses=400, seed=10)
        amplitudes = generate_pulse_train(spec).amplitudes.copy()
        amplitudes[150:250] *= 0.02  # quiet middle
        from modunfold.signal_model import PulseTrain
        train = PulseTrain(spec=spec, amplitudes=amplitudes)
        peak = 1.001 * estimate_inf_norm(train)
        threshold = required_threshold(peak, 4.0, guard_bin_count(GUARD, 64), 64)
        sig = sample_signal(train, 4.0, nominal_sample_count(spec, 4.0))
        adc = acquire(sig, AdcConfig(bits=4, threshold=threshold, seed=11))
        config = RecoveryConfig(length=64, alpha=0.5, guard_width=GUARD,
                                threshold=threshold, band_fraction=0.25)
        result = unfold(adc, sig, config)
        assert result.segments_skipped > 0
        assert_array_equal(np.round(result.residue / (2 * threshold)),
                           np.round(adc.residue_truth / (2 * threshold)))

    def test_infeasible_segment_error_names_segment(self):
        config = AdcConfig(bits=4, threshold=1.0)
        flagged = np.ones(256, dtype=bool)
        adc = AdcOutput(quantized=np.zeros(256), folding_bits=flagged,
                        residue_truth=np.zeros(256), config=config)
        sig_meta = sample_signal(
            generate_pulse_train(PulseTrainSpec(num_pulses=20, seed=0)), 4.0, 256)
        recovery = RecoveryConfig(length=64, alpha=0.5, guard_width=GUARD,
                                  threshold=1.0, band_fraction=0.25,
                                  lpf_length=129)
        with pytest.raises(InfeasibleError, match="segment 0"):
            unfold(adc, sig_meta, recovery)

    def test_singular_gram_error_names_segment(self):
        # 20 adjacent folds against 31 out-of-band bins at band fraction 0.5:
        # few enough to pass the count check, yet the Gram's smallest
        # eigenvalue is ~2e-16 of its largest.
        flagged = np.zeros(256, dtype=bool)
        flagged[20:40] = True
        adc = AdcOutput(quantized=np.zeros(256), folding_bits=flagged,
                        residue_truth=np.zeros(256),
                        config=AdcConfig(bits=4, threshold=1.0))
        sig_meta = sample_signal(
            generate_pulse_train(PulseTrainSpec(num_pulses=20, seed=0)), 2.0, 256)
        recovery = RecoveryConfig(length=64, alpha=0.5, guard_width=0.0,
                                  threshold=1.0, band_fraction=0.5, lpf_length=129)
        with pytest.raises(ConfigurationError, match="segment 0: .*singular"):
            unfold(adc, sig_meta, recovery)

    def test_non_finite_samples_rejected(self):
        _, _, sig, adc, _ = paper_point(300, 4.0, 4, seed=12)
        quantized = adc.quantized.copy()
        quantized[7] = np.nan
        bad = AdcOutput(quantized=quantized, folding_bits=adc.folding_bits,
                        residue_truth=adc.residue_truth, config=adc.config)
        config = RecoveryConfig(length=64, alpha=0.5, guard_width=GUARD,
                                threshold=adc.config.threshold, band_fraction=0.25)
        with pytest.raises(ConfigurationError, match="sample 7 is not finite"):
            unfold(bad, sig, config)

    def test_threshold_mismatch_rejected(self):
        _, threshold, sig, adc, _ = paper_point(300, 4.0, 4, seed=12)
        bad = RecoveryConfig(length=64, alpha=0.5, guard_width=GUARD,
                             threshold=2 * threshold, band_fraction=0.25)
        with pytest.raises(ConfigurationError, match="threshold"):
            unfold(adc, sig, bad)

    def test_band_fraction_mismatch_rejected(self):
        _, threshold, sig, adc, _ = paper_point(300, 4.0, 4, seed=12)
        bad = RecoveryConfig(length=64, alpha=0.5, guard_width=GUARD,
                             threshold=threshold, band_fraction=0.125)
        with pytest.raises(ConfigurationError, match="band fraction"):
            unfold(adc, sig, bad)


class TestRecoveryConfig:
    def test_odd_taper_rejected(self):
        with pytest.raises(ConfigurationError):
            RecoveryConfig(length=10, alpha=0.5, guard_width=GUARD,
                           threshold=1.0, band_fraction=0.25)

    def test_saturated_guard_rejected(self):
        # No bin is left out of band, so build_oob_system refuses the config.
        with pytest.raises(InfeasibleError):
            RecoveryConfig(length=64, alpha=0.5, guard_width=np.pi,
                           threshold=1.0, band_fraction=0.25)

    def test_hop_and_overlap(self):
        config = RecoveryConfig(length=64, alpha=0.5, guard_width=GUARD,
                                threshold=1.0, band_fraction=0.25)
        assert config.overlap == 16 and config.hop == 48
        assert (config.window.edge, config.window.hop) == (16, 48)
        # Window and out-of-band system are built once, at construction.
        assert_array_equal(config.system.kernel,
                           build_oob_system(64, 0.25, GUARD).kernel)
        assert config == RecoveryConfig(length=64, alpha=0.5, guard_width=GUARD,
                                        threshold=1.0, band_fraction=0.25)

    def test_unfold_reads_the_config_system(self, monkeypatch):
        _, threshold, sig, adc, expected = paper_point(300, 4.0, 4, seed=12)
        config = RecoveryConfig(length=64, alpha=0.5, guard_width=GUARD,
                                threshold=threshold, band_fraction=0.25)

        def rebuilt(*args):
            raise AssertionError("unfold rebuilt the out-of-band system")
        monkeypatch.setattr(sys.modules["modunfold.unfold"], "build_oob_system", rebuilt)
        assert_array_equal(unfold(adc, sig, config).residue, expected.residue)
