import functools
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from numpy.lib.stride_tricks import sliding_window_view

from modunfold.dsp import build_oob_system, check_gram, oob_bin_indices, tukey_window
from modunfold.errors import ConfigurationError, InfeasibleError
from modunfold.experiments import PEAK_MARGIN, ExperimentConfig
from modunfold.guarantees import (guard_bin_count, predict_mse_modulo,
                                  required_threshold)
from modunfold.modulo_adc import AdcConfig, AdcOutput, acquire, fold
from modunfold.signal_model import (PulseTrain, PulseTrainSpec, SampledSignal,
                                    estimate_inf_norm, generate_pulse_train,
                                    nominal_sample_count, sample_signal)
from modunfold.unfold import (RecoveryConfig, residue_pre_estimate,
                              round_to_lattice, segment_starts, unfold)
from conftest import GUARD, desk_recovery, traced_peak, wrong_roundings
from oob_reference import (lattice_counts, oob_bins, oob_matrix, pre_estimate,
                           sample_bookkeeping)


@functools.lru_cache(maxsize=8)
def reference_train(num_pulses, seed):
    """The reference setup's pulse train and its peak with margin, built once."""
    train = generate_pulse_train(PulseTrainSpec(num_pulses=num_pulses, seed=seed))
    return train, 1.001 * estimate_inf_norm(train)


def paper_point(num_pulses, oversampling, bits, seed, guard=GUARD, ideal=False):
    """Acquire + recover one operating point of the reference setup.

    ideal=True recovers the exact folded samples instead of the quantized
    ones; the fold flags and residue_truth are the same either way.
    """
    train, peak = reference_train(num_pulses, seed)
    spec = train.spec
    threshold = required_threshold(peak, oversampling, guard_bin_count(guard, 64), 64)
    sig = sample_signal(train, oversampling, nominal_sample_count(spec, oversampling))
    adc = acquire(sig, AdcConfig(bits=bits, threshold=threshold, seed=seed + 1))
    if ideal:
        adc = replace(adc, quantized=fold(sig.samples, threshold))
    config = desk_recovery(threshold, 1 / oversampling, guard)
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


def segment_views(adc, config):
    """Unwindowed differences, starts and flagged samples, in unfold's padded coordinates."""
    n, overlap = config.length, config.overlap
    starts = segment_starts(overlap + adc.quantized.size, n, config.alpha)
    samples = np.zeros(starts[-1] + n)
    samples[overlap:overlap + adc.quantized.size] = adc.quantized
    diffs = sliding_window_view(np.diff(samples, prepend=0.0), n)[::config.hop]
    return diffs, starts, np.flatnonzero(adc.folding_bits) + overlap


def assert_matches_reference(adc, config, result):
    """Same lattice as the old solver, and jumps within 1e-9 threshold of its
    per-segment pre-estimates summed over the segments at each flag."""
    n = config.length
    system = build_oob_system(n, config.band_fraction, config.guard_width)
    window = tukey_window(n, config.alpha)
    assert_array_equal(result.residue,
                       2.0 * config.threshold * lattice_counts(adc, config, system, window))
    diffs, starts, flags = segment_views(adc, config)
    jumps, folds = residue_pre_estimate(diffs, window.coefficients, starts, flags, system)
    summed = np.zeros(starts[-1] + n)
    counts = []
    for start, diffed in zip(starts, diffs):
        fold_set = flags[(flags >= start) & (flags < start + n)] - start
        summed[start:start + n] += pre_estimate(window.coefficients * diffed, fold_set, system)
        counts.append(fold_set.size)
    assert_array_equal(folds, counts)
    assert np.abs(jumps - summed[flags]).max(initial=0.0) <= 1e-9 * config.threshold


def own_segments(flags):
    """Starts and flagged samples that give each row of a (segments, n) flag
    array a segment of its own, so the jumps come back in row-major order."""
    return np.arange(len(flags)) * flags.shape[1], np.flatnonzero(flags)


class TestResiduePreEstimate:
    def setup_method(self):
        self.system = build_oob_system(64, 0.25, GUARD)
        self.window = tukey_window(64, 0.5)

    def _jumps(self, fold_set, jumps, slope=0.0):
        # First difference of (slow ramp + residue staircase).
        diff = np.full(64, slope)
        diff[fold_set] += jumps
        return diff

    def _windowed_jumps(self, fold_set, jumps, slope=0.0):
        return self.window.coefficients * self._jumps(fold_set, jumps, slope)

    def _flags(self, fold_set):
        flags = np.zeros((1, 64), dtype=bool)
        flags[0, fold_set] = True
        return flags

    def test_empty_fold_set_skips_solve(self):
        jumps, folds = residue_pre_estimate(np.ones((3, 64)), self.window.coefficients,
                                            *own_segments(np.zeros((3, 64))), self.system)
        assert jumps.shape == (0,)
        assert_array_equal(folds, [0, 0, 0])

    def test_noiseless_recovery_matches_windowed_jumps(self):
        threshold = 1.0
        fold_set = np.array([7, 20, 37, 55])
        jumps = 2 * threshold * np.array([1.0, -1.0, 2.0, -1.0])
        diffs = self._jumps(fold_set, jumps, slope=1e-4 * threshold)
        out, _ = residue_pre_estimate(diffs[None], self.window.coefficients,
                                      *own_segments(self._flags(fold_set)), self.system)
        expected = self.window.coefficients[fold_set] * jumps
        assert np.abs(out - expected).max() <= 1e-6 * threshold

    def test_noiseless_solution_is_real(self):
        # The complex solve of V_S x = V d that the real normal equations
        # replace: conjugate-paired bins leave only numerical noise in the
        # imaginary part.
        threshold = 1.0
        fold_set = np.array([12, 30])
        diffed = self._windowed_jumps(fold_set, np.array([2.0, -2.0]))
        spectrum = np.fft.fft(diffed)[oob_bins(self.system)] / np.sqrt(64)
        solution = np.linalg.lstsq(oob_matrix(self.system)[:, fold_set], spectrum)[0]
        assert np.abs(solution.imag).max() <= 1e-8 * threshold

    def test_too_many_folds_rejected(self):
        dense = np.arange(50)  # exceeds the 45 out-of-band bins
        with pytest.raises(InfeasibleError, match="oversampling"):
            residue_pre_estimate(np.zeros((1, 64)), self.window.coefficients,
                                 *own_segments(self._flags(dense)), self.system)

    def test_rows_solved_in_groups_match_reference(self):
        # Rows with different fold counts land in different batches; each
        # value must still come back at its own flag.
        rng = np.random.default_rng(3)
        diffed = rng.normal(size=(5, 64))
        flags = np.zeros((5, 64), dtype=bool)
        for row, k in enumerate((3, 0, 6, 3, 1)):
            flags[row, rng.choice(64, size=k, replace=False)] = True
        reference = np.concatenate([
            pre_estimate(self.window.coefficients * d, np.flatnonzero(f), self.system)[f]
            for d, f in zip(diffed, flags)])
        jumps, folds = residue_pre_estimate(diffed, self.window.coefficients,
                                            *own_segments(flags), self.system)
        assert_allclose(jumps, reference, rtol=0, atol=1e-9)
        assert_array_equal(folds, [3, 0, 6, 3, 1])

    def test_shared_flags_sum_both_segments(self):
        # Adjacent segments with equal fold counts share flags 50 and 60 in
        # their overlap, so one batch adds two values at each of them.
        rng = np.random.default_rng(5)
        diffed = rng.normal(size=(2, 64))
        starts, flags = np.array([0, 48]), np.array([50, 60])
        jumps, folds = residue_pre_estimate(diffed, self.window.coefficients, starts, flags,
                                            self.system)
        assert_array_equal(folds, [2, 2])
        reference = sum(pre_estimate(self.window.coefficients * d, flags - start,
                                     self.system)[flags - start]
                        for d, start in zip(diffed, starts))
        assert_allclose(jumps, reference, rtol=0, atol=1e-9)

    def test_singular_gram_names_segment(self):
        system = build_oob_system(64, 0.5, 0.0)
        flags = np.zeros((3, 64), dtype=bool)
        flags[0, [5, 40]] = True
        flags[2, 20:40] = True  # 20 adjacent folds: lambda_min/lambda_max ~ 2e-16
        with pytest.raises(InfeasibleError, match="segment 2: .*singular"):
            residue_pre_estimate(np.zeros((3, 64)), self.window.coefficients,
                                 *own_segments(flags), system)


class TestComplementSolve:
    """Groups of k > 2r folds, r = n - num_bins, are solved in the in-band complement."""

    @given(oversampling=st.sampled_from([4.0, 16.0, 50.0]),
           threshold=st.sampled_from([0.05, 1.0, 20.0]), seed=st.integers(0, 2 ** 16),
           data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_matches_the_direct_solve(self, oversampling, threshold, seed, data):
        system = build_oob_system(64, 1 / oversampling, GUARD)
        rank = 64 - system.num_bins
        counts = data.draw(st.lists(st.one_of(st.integers(1, 2 * rank),
                                              st.integers(2 * rank + 1, system.num_bins)),
                                    min_size=1, max_size=4))
        rng = np.random.default_rng(seed)
        sets = [np.sort(rng.choice(64, k, replace=False)) for k in counts]
        grams = [np.asarray(system.projector)[np.ix_(s, s)] for s in sets]
        lowest = min(np.linalg.eigvalsh(g)[0] for g in grams)
        # Both solves err by about eps / lambda_min of the jumps' size:
        # random sets of most of the window can be all but singular.
        assume(lowest > 1e-8)
        # Lattice jumps on small white noise, one segment per set.
        diffs = 0.1 * threshold * rng.normal(size=(len(sets), 64))
        for d, s in zip(diffs, sets):
            d[s] += 2 * threshold * rng.integers(-3, 4, s.size)
        window = tukey_window(64, 0.5).coefficients
        starts = 64 * np.arange(len(sets))
        flags = np.concatenate([s + start for s, start in zip(sets, starts)])
        jumps, folds = residue_pre_estimate(diffs, window, starts, flags, system)
        direct = np.concatenate([
            np.linalg.solve(g, np.asarray(system.projector)[s] @ (window * d))
            for g, s, d in zip(grams, sets, diffs)])
        assert_array_equal(folds, counts)
        assert np.abs(jumps - direct).max() <= 1e-12 * 2 * threshold / lowest

    @pytest.mark.parametrize("oversampling, built", [(4.0, 0), (50.0, 1)])
    def test_basis_built_once_and_only_when_used(self, oversampling, built, monkeypatch):
        # Desk folds stay below 2r = 38 at OF 4, and pass 2r = 6 in many
        # groups at OF 50.
        calls = []
        module = sys.modules["modunfold.unfold"]
        basis = module.inband_basis
        monkeypatch.setattr(module, "inband_basis",
                            lambda system: calls.append(system) or basis(system))
        _, _, _, adc, result = paper_point(2000, oversampling, 4, seed=1)
        assert len(calls) == built
        assert_array_equal(result.residue, adc.residue_truth)

    def test_singular_complement_names_segment(self):
        # At OF 6, r = 13: a window flagged but at these 13 samples holds 51
        # folds, a complement group.  Its M has lambda_min about 50 eps and
        # lambda_max 0.69, so M's own rule (44 eps) would pass it; against
        # the Gram's lambda_max, 1, it is singular, as the Gram itself is.
        flags = np.ones((2, 64), dtype=bool)
        flags[0] = False
        flags[1, [1, 2, 3, 5, 45, 47, 48, 49, 53, 55, 56, 58, 59]] = False
        system = build_oob_system(64, 1 / 6, GUARD)
        with pytest.raises(InfeasibleError,
                           match=r"segment 1: .*singular \(eigenvalues .* to 1\.000e\+00\)"):
            residue_pre_estimate(np.zeros((2, 64)), tukey_window(64, 0.5).coefficients,
                                 *own_segments(flags), system)
        fold_set = np.flatnonzero(flags[1])
        gram = np.asarray(system.projector)[np.ix_(fold_set, fold_set)]
        assert [i for i, _, _ in check_gram(gram[None], 64)[2]] == [0]


class TestRoundToLattice:
    def test_near_multiple_rounds_up(self):
        assert_array_equal(round_to_lattice(np.array([0.9 * 2.0]), 1.0), [1])

    def test_zero(self):
        assert_array_equal(round_to_lattice(np.array([0.0]), 1.0), [0])

    def test_negative(self):
        assert_array_equal(round_to_lattice(np.array([-2.4 * 2.0]), 1.0), [-2])

    def test_ties_away_from_zero(self):
        assert_array_equal(round_to_lattice(np.array([1.0]), 1.0), [1])
        assert_array_equal(round_to_lattice(np.array([-1.0]), 1.0), [-1])

    @given(st.floats(-100, 100), st.floats(0.01, 10))
    @settings(deadline=None, max_examples=100)
    def test_within_half_spacing(self, x, threshold):
        index = round_to_lattice(np.array([x]), threshold)
        assert index.dtype == np.int64
        assert abs(2 * threshold * index[0] - x) <= threshold * (1 + 1e-9)

    def test_array_gives_int64_counts(self):
        out = round_to_lattice(np.array([-3.1, 0.2, 5.0]), 1.0)
        assert out.dtype == np.int64
        assert_array_equal(out, [-2, 0, 3])


class TestUnfold:
    def test_peak_memory_above_inputs(self):
        # Desk train at OF 50 and 4 bits: 202,000 samples, 11 % flagged.
        # Measured 3.10 record lengths above the inputs, while the lowpass
        # runs: the residue, the quantized-minus-residue record it reads and
        # its output.  The solve peaks at 2.12: the difference buffer, the
        # per-flag books and the largest direct fold-count group's projector
        # rows (2.26 while the groups of more than 2r = 6 folds gathered
        # theirs too, before they were solved in the in-band complement).
        # Per-sample books with a record-length flag buffer read 3.29, and a
        # dense windowed difference with full-length lattice temporaries 9.0.
        _, threshold, sig, adc, _ = paper_point(2000, 50.0, 4, seed=1)
        _, peak = traced_peak(unfold, adc, sig, desk_recovery(threshold, 1 / 50.0))
        assert peak <= 3.5 * sig.samples.nbytes

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
        result = unfold(adc, sig, desk_recovery(1.0, 0.25))
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

    # OF 16, 24 and 50 hold fold-count groups of more than twice the r
    # in-band bins, which residue_pre_estimate solves in the complement.
    @given(st.integers(0, 10_000), st.sampled_from([4.0, 6.0, 8.0, 16.0, 24.0, 50.0]),
           st.sampled_from([3, 4]))
    @settings(deadline=None, max_examples=18)
    def test_matches_per_segment_reference(self, seed, oversampling, bits):
        spec = PulseTrainSpec(num_pulses=40, seed=seed)
        train = generate_pulse_train(spec)
        peak = 1.001 * estimate_inf_norm(train)
        threshold = required_threshold(peak, oversampling,
                                       guard_bin_count(GUARD, 64), 64)
        sig = sample_signal(train, oversampling, nominal_sample_count(spec, oversampling))
        adc = acquire(sig, AdcConfig(bits=bits, threshold=threshold, seed=seed + 1))
        config = desk_recovery(threshold, 1 / oversampling, lpf_length=129,
                               lpf_transition=np.pi / 8)
        assert_matches_reference(adc, config, unfold(adc, sig, config))

    def test_slipping_two_bit_case_matches_reference(self):
        # Two bits at OF 4 is past the rounding margin: the lattice slips,
        # and must slip exactly as the per-segment solver's does.
        _, threshold, sig, adc, result = paper_point(300, 4.0, 2, seed=1)
        assert (result.residue != adc.residue_truth).any()
        assert_matches_reference(adc, desk_recovery(threshold, 0.25), result)

    def test_quantized_acquisition_still_exact_and_near_theory(self):
        peak, _, sig, adc, result = paper_point(300, 4.0, 4, seed=5)
        assert_array_equal(result.residue, adc.residue_truth)
        mse = np.mean((result.recovered - sig.samples) ** 2)
        theory = predict_mse_modulo(peak, 4.0, 4, guard_bin_count(GUARD, 64),
                                    GUARD, 64)
        assert abs(10 * np.log10(mse) - 10 * np.log10(theory)) < 1.0

    def test_solves_without_an_explicit_inverse(self, monkeypatch):
        # unfold solves its fold-position systems (np.linalg.solve); only the
        # interference-norm Monte Carlo needs the Gram inverse itself.
        def no_inverse(*args, **kwargs):
            raise AssertionError("unfold formed an explicit Gram inverse")
        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        _, _, _, adc, result = paper_point(2000, 4.0, 4, seed=1)
        assert adc.folding_bits.any()
        assert_array_equal(result.residue, adc.residue_truth)

    def test_residue_stays_on_lattice(self):
        _, threshold, _, _, result = paper_point(300, 4.0, 4, seed=9)
        spacing = 2 * threshold
        assert_array_equal(result.residue, spacing * np.round(result.residue / spacing))

    def test_quiet_gap_segments_are_skipped_without_damage(self):
        # Folds early and late with a long quiet stretch in between: the
        # skipped middle segments must not disturb the running residue.
        spec = PulseTrainSpec(num_pulses=400, seed=10)
        amplitudes = generate_pulse_train(spec).amplitudes.copy()
        amplitudes[150:250] *= 0.02  # quiet middle
        train = PulseTrain(spec=spec, amplitudes=amplitudes)
        peak = 1.001 * estimate_inf_norm(train)
        threshold = required_threshold(peak, 4.0, guard_bin_count(GUARD, 64), 64)
        sig = sample_signal(train, 4.0, nominal_sample_count(spec, 4.0))
        adc = acquire(sig, AdcConfig(bits=4, threshold=threshold, seed=11))
        result = unfold(adc, sig, desk_recovery(threshold, 0.25))
        assert result.segments_skipped > 0
        assert_array_equal(result.residue, adc.residue_truth)

    def test_infeasible_segment_error_names_segment(self):
        config = AdcConfig(bits=4, threshold=1.0)
        flagged = np.ones(256, dtype=bool)
        adc = AdcOutput(quantized=np.zeros(256), folding_bits=flagged,
                        residue_truth=np.zeros(256), config=config)
        sig_meta = sample_signal(
            generate_pulse_train(PulseTrainSpec(num_pulses=20, seed=0)), 4.0, 256)
        recovery = desk_recovery(1.0, 0.25, lpf_length=129, lpf_transition=np.pi / 8)
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
        recovery = desk_recovery(1.0, 0.5, 0.0, lpf_length=129, lpf_transition=np.pi / 8)
        with pytest.raises(InfeasibleError, match="segment 0: .*singular"):
            unfold(adc, sig_meta, recovery)

    # Non-finite, 2-D and empty records: test_public_api.test_bad_record_rejected.
    @pytest.mark.parametrize("quantized, flags", [
        (np.zeros(256), np.zeros(255, dtype=bool))], ids=["flags-one-short"])
    def test_malformed_buffers_rejected(self, quantized, flags):
        # Flags shorter than the samples used to end in numpy's broadcast error.
        _, threshold, sig, adc, _ = paper_point(300, 4.0, 4, seed=12)
        bad = AdcOutput(quantized=quantized, folding_bits=flags,
                        residue_truth=np.zeros(quantized.shape), config=adc.config)
        with pytest.raises(ConfigurationError, match="shape"):
            unfold(bad, sig, desk_recovery(threshold, 0.25))

    def test_list_record_unfolds_as_its_array(self):
        # The checked record is the one unfolded: a list used to pass the
        # check and then fail on the list itself.
        _, threshold, sig, adc, result = paper_point(300, 4.0, 4, seed=12)
        listed = unfold(replace(adc, quantized=adc.quantized.tolist()), sig,
                        desk_recovery(threshold, 0.25))
        assert_array_equal(listed.residue, result.residue)
        assert_array_equal(listed.recovered, result.recovered)

    def test_threshold_mismatch_rejected(self):
        _, threshold, sig, adc, _ = paper_point(300, 4.0, 4, seed=12)
        with pytest.raises(ConfigurationError, match="threshold"):
            unfold(adc, sig, desk_recovery(2 * threshold, 0.25))

    def test_band_fraction_mismatch_rejected(self):
        _, threshold, sig, adc, _ = paper_point(300, 4.0, 4, seed=12)
        with pytest.raises(ConfigurationError, match="band fraction"):
            unfold(adc, sig, desk_recovery(threshold, 0.125))


def assert_books_match(adc, sig, config):
    """unfold's residue and segment counts equal the per-sample books', or both
    raise the same InfeasibleError.  Returns unfold's result, if any."""
    try:
        residue, total, skipped = sample_bookkeeping(adc, config)
    except InfeasibleError as err:
        with pytest.raises(InfeasibleError) as raised:
            unfold(adc, sig, config)
        assert str(raised.value) == str(err)
        return None
    result = unfold(adc, sig, config)
    assert_array_equal(result.residue, residue)
    assert (result.segments_total, result.segments_skipped) == (total, skipped)
    return result


# A 33-tap lowpass, so that records shorter than one 64-sample window unfold.
SHORT_LOWPASS = {"lpf_length": 33, "lpf_transition": np.pi / 3}


class TestFlagBookkeeping:
    """unfold keeps its books per flagged sample; per sample they read the same."""

    @pytest.mark.parametrize("seed", range(4))
    def test_recover_legs(self, seed):
        # The legs of perfbench's recover workload, built as it builds them.
        # The 2-bit leg at OF 4 slips at every seed.
        spec = ExperimentConfig(experiment="mse-sweep", seed=seed).signal_spec(seed)
        train = generate_pulse_train(spec)
        peak = PEAK_MARGIN * estimate_inf_norm(train)
        legs = ((4, 4.0), (4, 16.0), (4, 50.0), (2, 4.0), (3, 6.0))
        slipped = []
        for (bits, of), dither in zip(legs, np.random.SeedSequence(seed).spawn(len(legs))):
            sig = sample_signal(train, of, nominal_sample_count(spec, of))
            threshold = required_threshold(peak, of, guard_bin_count(GUARD, 64), 64)
            adc = acquire(sig, AdcConfig(bits=bits, threshold=threshold, seed=dither))
            result = assert_books_match(adc, sig, desk_recovery(threshold, 1 / of))
            slipped.append(bool((result.residue != adc.residue_truth).any()))
        assert slipped[3]

    @given(size=st.integers(33, 300), picks=st.lists(st.integers(0, 299), max_size=12),
           ends=st.sampled_from([(), (0,), (-1,), (0, -1)]), tapers_only=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @example(size=40, picks=[], ends=(0, -1), tapers_only=False, seed=0)  # under a window
    @example(size=300, picks=[], ends=(), tapers_only=False, seed=1)  # no flags
    @example(size=300, picks=[32, 33, 47, 80, 95, 130], ends=(), tapers_only=True, seed=2)
    @example(size=33, picks=[5, 6, 7], ends=(-1,), tapers_only=False, seed=3)
    @settings(deadline=None, max_examples=40)
    def test_hand_built_flags(self, size, picks, ends, tapers_only, seed):
        # tapers_only keeps the samples two segments share, padded index
        # p = i + 16 with p % 48 < 16, whose jumps sum two segments' values.
        indices = np.array(picks, dtype=int) % size
        if tapers_only:
            indices = indices[(indices + 16) % 48 < 16]
        flagged = np.zeros(size, dtype=bool)
        flagged[indices] = True
        flagged[list(ends)] = True
        # Samples 20 lattice steps wide, so that a changed value anywhere in
        # the books changes some rounded count.
        rng = np.random.default_rng(seed)
        adc = AdcOutput(quantized=rng.uniform(-1.0, 1.0, size), folding_bits=flagged,
                        residue_truth=np.zeros(size), config=AdcConfig(bits=4, threshold=0.05))
        sig = SampledSignal(samples=np.zeros(size), band_fraction=0.25)
        assert_books_match(adc, sig, desk_recovery(0.05, 0.25, **SHORT_LOWPASS))

    @pytest.mark.parametrize("band_fraction, guard, first, count, message", [
        (0.25, GUARD, 180, 101, "segment 4: 60 folds exceed"),
        (0.5, 0.0, 150, 20, "segment 3: fold-position Gram is singular")],
        ids=["too-many-folds", "singular-gram"])
    def test_infeasible_segment_named_as_before(self, band_fraction, guard, first, count,
                                                message):
        flagged = np.zeros(400, dtype=bool)
        flagged[first:first + count] = True
        adc = AdcOutput(quantized=np.zeros(400), folding_bits=flagged,
                        residue_truth=np.zeros(400), config=AdcConfig(bits=4, threshold=1.0))
        sig = SampledSignal(samples=np.zeros(400), band_fraction=band_fraction)
        config = desk_recovery(1.0, band_fraction, guard, **SHORT_LOWPASS)
        with pytest.raises(InfeasibleError, match=message):
            unfold(adc, sig, config)
        assert_books_match(adc, sig, config)


class TestRecoveryConfig:
    def test_odd_taper_rejected(self):
        with pytest.raises(ConfigurationError):
            RecoveryConfig(length=10, alpha=0.5, guard_width=GUARD,
                           threshold=1.0, band_fraction=0.25)

    def test_saturated_guard_rejected(self):
        # No bin is left out of band, so build_oob_system refuses the config.
        with pytest.raises(InfeasibleError):
            desk_recovery(1.0, 0.25, np.pi)

    def test_hop_and_overlap(self):
        config = desk_recovery(1.0, 0.25)
        assert config.overlap == 16 and config.hop == 48
        assert (config.window.edge, config.window.hop) == (16, 48)
        # Window, out-of-band system and lowpass are built once, at construction.
        assert_array_equal(config.system.projector,
                           build_oob_system(64, 0.25, GUARD).projector)
        assert config.lowpass.size == config.lpf_length
        assert config == desk_recovery(1.0, 0.25)

    def test_unfold_reads_the_config_system(self, monkeypatch):
        _, threshold, sig, adc, expected = paper_point(300, 4.0, 4, seed=12)
        config = desk_recovery(threshold, 0.25)

        def rebuilt(*args):
            raise AssertionError("unfold rebuilt the out-of-band system or lowpass")
        module = sys.modules["modunfold.unfold"]
        monkeypatch.setattr(module, "build_oob_system", rebuilt)
        monkeypatch.setattr(module, "design_lowpass", rebuilt)
        result = unfold(adc, sig, config)
        assert_array_equal(result.residue, expected.residue)
        assert_array_equal(result.recovered, expected.recovered)

    def test_unrealizable_lowpass_rejected_at_construction(self):
        # 129 taps cannot realize the default pi/64 transition; this used to
        # surface only after the solve, inside unfold.
        with pytest.raises(ConfigurationError, match="need at least"):
            desk_recovery(1.0, 0.25, lpf_length=129)


class TestWindowTrade:
    # The premise of the paper's window-length trade (OF towards 1 as the
    # window N grows): a finite-energy signal keeps its largest fold count
    # per window bounded while the out-of-band equations grow with N, and a
    # stationary train's count grows with N.  Counted from the fold flags
    # alone, cut at segment_starts as unfold cuts them, at OF 2 and guard 0.
    # Exact recovery is not pinned: at 8 bits the burst below slipped
    # 1,290, 0 and 0 samples at N 64 over dither seeds 0-2, and 1,289, 1,289
    # and 0 at N 1,024.
    @pytest.mark.parametrize("num_pulses, live, divisor, largest", [
        (600, slice(297, 303), 8, [15, 15, 15]),  # a burst of 6 pulses
        (2000, slice(None), 4, [25, 84, 278])])
    def test_largest_fold_count_per_window(self, num_pulses, live, divisor, largest):
        spec = PulseTrainSpec(num_pulses=num_pulses, seed=1)
        amplitudes = np.zeros(num_pulses)
        amplitudes[live] = generate_pulse_train(spec).amplitudes[live]
        train = PulseTrain(spec=spec, amplitudes=amplitudes)
        threshold = 1.001 * estimate_inf_norm(train) / divisor
        sig = sample_signal(train, 2.0, nominal_sample_count(spec, 2.0))
        flags = acquire(sig, AdcConfig(bits=8, threshold=threshold)).folding_bits
        counts = []
        for n in (64, 256, 1024):
            edge = tukey_window(n, 0.5).edge
            starts = segment_starts(max(edge + flags.size, n), n, 0.5)
            padded = np.zeros(starts[-1] + n, dtype=bool)
            padded[edge:edge + flags.size] = flags
            counts.append(int(sliding_window_view(padded, n)[starts].sum(axis=1).max()))
        assert counts == largest
        assert [oob_bin_indices(n, 0.5, 0.0).size for n in (64, 256, 1024)] == [31, 127, 511]


class TestBitBoundary:
    # The (bits, OF) boundary of the desk train, counted in wrong roundings
    # on seeds held out from the bounds.  On seeds 0-19, 2 bits rounded
    # wrongly in every run at OF 4-50, 4 and 5 bits never did, and 3 bits
    # did in 19 of 160 runs: 17 once and 2 twice.  On seeds 25-29, 3 bits
    # did in 12 of 40 runs, 10 once and 2 twice.
    # The same runs pin what a check of the residue's end level sees: the
    # record starts and ends at rest, so right roundings end it at 0, and
    # an odd count of wrong ones, each one step off here, cannot.  An even
    # pair that cancels (seeds 20-29: three, at seed 24 OF 6, seed 25 OF 6
    # and seed 29 OF 4, all 3 bits) ends at 0 and passes such a check unseen.
    @pytest.mark.parametrize("seed", range(20, 30))
    def test_wrong_roundings_by_bits(self, seed):
        wrong = {bits: [] for bits in (2, 3, 4, 5)}
        ends = {bits: [] for bits in wrong}
        for oversampling in (4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 50.0):
            for bits in wrong:
                _, _, _, adc, result = paper_point(2000, oversampling, bits, seed)
                wrong[bits].append(wrong_roundings(result.residue, adc.residue_truth,
                                                   adc.folding_bits))
                ends[bits].append(result.residue[-1])
        assert min(wrong[2]) >= 1
        assert max(wrong[3]) <= 2
        assert wrong[4] == wrong[5] == [0] * 8
        assert ends[4] == ends[5] == [0.0] * 8
        assert all(end != 0.0 for count, end in zip(wrong[3], ends[3]) if count % 2)
