import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modunfold import guarantees
from modunfold.baselines import conventional_adc
from modunfold.dsp import build_oob_system, check_gram, fold_gram
from modunfold.errors import ConfigurationError, InfeasibleError
from modunfold.guarantees import (estimate_interference_norm, guard_bin_count,
                                  min_oversampling, predict_mse_conventional,
                                  predict_mse_modulo, required_bits,
                                  required_threshold)
from modunfold.signal_model import PulseTrainSpec, generate_pulse_train, sample_signal
from conftest import traced_peak
from oob_reference import oob_bins


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

    @pytest.mark.parametrize("width", [-0.1, np.nan, 1e308])
    def test_negative_or_unbounded_width_rejected(self, width):
        # NaN and 1e308 (whose bin count overflows) used to end in math.ceil's
        # ValueError and OverflowError.
        with pytest.raises(ConfigurationError, match="guard_width"):
            guard_bin_count(width, 64)

    @pytest.mark.parametrize("width, length", [(np.pi / 32, 0), (0.0, -5)])
    def test_window_below_one_sample_rejected(self, width, length):
        # Both returned 0.
        with pytest.raises(ConfigurationError, match="length >= 1") as info:
            guard_bin_count(width, length)
        assert info.type is ConfigurationError


class TestMinOversampling:
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

    @pytest.mark.parametrize("call", [lambda: min_oversampling(-5, 0),
                                      lambda: required_threshold(1.0, 8.0, 0, -5)])
    def test_window_below_one_sample_rejected(self, call):
        # A bad window is a parameter fault, not an infeasible point: both
        # raised InfeasibleError ("0 guard bins exhaust a -5-sample window").
        with pytest.raises(ConfigurationError, match="length >= 1") as info:
            call()
        assert info.type is ConfigurationError


class TestRequiredThreshold:
    def test_examples(self):
        assert required_threshold(1.25, 4, 0, 64) == pytest.approx(0.625)
        assert required_threshold(1.0, 4, 4, 64) == pytest.approx(1 / 1.75)

    def test_infeasible_denominator(self):
        with pytest.raises(InfeasibleError):
            required_threshold(1.0, 2, 0, 64)

    def test_overflowing_threshold_rejected(self):
        # A capped peak over a denominator of 4.4e-16 used to return inf.
        with pytest.raises(ConfigurationError, match="threshold overflows"):
            required_threshold(1e300, math.nextafter(2.0, 3.0), 0, 64)

    def test_peak_above_the_range_cap_rejected(self):
        # The threshold and the predictions took any finite peak, while
        # conventional_adc capped it: required_threshold(1e308, ...) gave inf.
        signal = sample_signal(generate_pulse_train(PulseTrainSpec(num_pulses=20)), 4.0, 400)
        for call in (lambda: required_threshold(1e308, 2.2, 0, 64),
                     lambda: predict_mse_modulo(1e301, 8.0, 4, 4, np.pi / 32, 64),
                     lambda: predict_mse_conventional(1e301, 8.0, 4),
                     lambda: conventional_adc(signal, 4, 1e301, 0)):
            with pytest.raises(ConfigurationError, match=r"peak > 0 and at most 1e\+300"):
                call()


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

    @pytest.mark.parametrize("call", [lambda: predict_mse_modulo(1.0, 8.0, 4, 4, -1.0, 64),
                                      lambda: predict_mse_modulo(1.0, 8.0, 4, -1, 0.1, 64),
                                      lambda: required_threshold(1.0, 8.0, -1, 64),
                                      lambda: min_oversampling(64, -1)])
    def test_negative_guard_rejected(self, call):
        # A guard width of -1 used to predict a negative MSE (-3.3e-5), and
        # -1 guard bins an oversampling floor of 2.95, below the guard-free 3.
        with pytest.raises(ConfigurationError, match="guard"):
            call()

    @pytest.mark.parametrize("peak", [0.0, -1.0])
    def test_nonpositive_peak_rejected(self, peak):
        # A peak of -1 used to predict 2.64e-5 and 6.38e-4, and 0 to predict 0.0.
        with pytest.raises(ConfigurationError, match="peak > 0"):
            predict_mse_modulo(peak, 8.0, 4, 4, np.pi / 32, 64)
        with pytest.raises(ConfigurationError, match="peak > 0"):
            predict_mse_conventional(peak, 8.0, 4)

    def test_one_bit_is_config_error(self):
        # Used to end in a ZeroDivisionError from (2^1 - 2)^2.
        with pytest.raises(ConfigurationError, match="bits"):
            predict_mse_modulo(1.0, 8.0, 1, 4, np.pi / 32, 64)

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

    @pytest.mark.parametrize("guard_width", [0.0, np.pi / 32], ids=["no-guard", "guard-pi-32"])
    def test_conventional_law_at_the_threshold_widened_by_the_guard(self, guard_width):
        # The folded MSE is the conventional one at full scale lambda in
        # place of the peak, times the guard band's share of the passband,
        # and agrees with the law's closed form to rounding.
        guard_bins = guard_bin_count(guard_width, 64)
        for peak, oversampling, bits in itertools.product(
                (0.3, 1.0, 1.7, 250.0), (4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0, 50.0),
                range(3, 7)):
            value = predict_mse_modulo(peak, oversampling, bits, guard_bins, guard_width, 64)
            widening = 1.0 + guard_width / np.pi * oversampling
            threshold = required_threshold(peak, oversampling, guard_bins, 64)
            assert value == predict_mse_conventional(threshold, oversampling, bits) * widening
            closed = peak ** 2 * widening / (
                oversampling * (2 ** bits - 2) ** 2
                * (oversampling * (1.0 - guard_bins / 64) - 2.0) ** 2)
            assert value == pytest.approx(closed, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("call", [
        lambda: required_threshold(np.float64(1e300), np.nextafter(2.0, 3.0), 0, 64),
        lambda: predict_mse_conventional(np.float64(1e300), np.float64(1.0), 53),
        lambda: predict_mse_modulo(np.float64(1e300), np.float64(3.0), 2, 0,
                                   np.float64(1e300), 64),
    ], ids=["required_threshold", "predict_mse_conventional", "predict_mse_modulo"])
    def test_numpy_scalar_overflow_rejected(self, call):
        # numpy scalars warned before overflowing to inf, so under the
        # suite's error::RuntimeWarning filter these raised the warning.
        with pytest.raises(ConfigurationError, match="overflows"):
            call()

    def test_conventional_examples(self):
        assert predict_mse_conventional(1.0, 4, 4) == pytest.approx(1 / 784)
        assert (predict_mse_conventional(1.0, 8, 4)
                == pytest.approx(predict_mse_conventional(1.0, 4, 4) / 2))
        assert (predict_mse_conventional(2.0, 4, 4)
                == pytest.approx(4 * predict_mse_conventional(1.0, 4, 4)))


class TestInterferenceNorm:
    def test_empty_set_is_zero(self):
        assert estimate_interference_norm(64, 4, 0.0, 0, 100, seed=0) == 0.0

    @given(st.integers(8, 64), st.floats(2.0, 12.0), st.sampled_from([0.0, np.pi / 32]),
           st.integers(1, 40), st.integers(0, 2 ** 64 - 1), st.data())
    @settings(deadline=None, max_examples=60)
    def test_matches_explicit_pseudoinverse(self, length, oversampling, guard, trials,
                                            seed, data):
        system = build_oob_system(length, 1.0 / oversampling, guard)
        set_size = data.draw(st.integers(1, system.num_bins))
        bins = oob_bins(system)
        v = np.exp(-2j * np.pi * np.outer(bins, np.arange(length)) / length) / np.sqrt(length)
        draws = np.random.default_rng(seed).random((trials, length)).argsort(axis=1)
        # Both maps lose about cond(Gram) * eps; past 1e6 they drift apart
        # by more than the tolerance (1e7 already gives 2e-9).
        assume(max(np.linalg.cond(system.projector[np.ix_(row[:set_size], row[:set_size])])
                   for row in draws) < 1e6)
        slow = 0.0
        for row in draws:
            inside, outside = row[:set_size], row[set_size:]
            mapped = np.linalg.pinv(v[:, inside]) @ v[:, outside]
            slow = max(slow, np.abs(mapped).sum(axis=1).max())
        fast = estimate_interference_norm(length, oversampling, guard, set_size, trials, seed)
        assert fast == pytest.approx(slow, rel=1e-9)

    @pytest.mark.parametrize("length, oversampling, set_size, trials",
                             [(64, 4, None, 400), (128, 8, 16, 777)])
    def test_bit_identical_across_batch_sizes(self, monkeypatch, length, oversampling,
                                              set_size, trials):
        # None: as many folds as out-of-band bins.  The default budget splits
        # both cases into batches with a shorter last one (1 and 95 trials).
        set_size = set_size or build_oob_system(length, 1.0 / oversampling, 0.0).num_bins
        default = estimate_interference_norm(length, oversampling, 0.0, set_size, trials, 3)
        for per_batch in (1, trials):
            monkeypatch.setattr(guarantees, "_BATCH_ELEMENTS",
                                per_batch * (set_size ** 2 + length))
            assert estimate_interference_norm(
                length, oversampling, 0.0, set_size, trials, 3) == default

    @pytest.mark.parametrize("per_batch", [1, 48])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_bit_identical_across_worker_counts(self, monkeypatch, workers, per_batch):
        # 400 trials: one set per batch, or eight batches of 48 and one of 16
        # mapped in chunks of 9.
        # A short switch interval interleaves the workers as often as it can,
        # so a worker that read another's chunk or floor update in the wrong
        # order would show here.
        default = estimate_interference_norm(128, 8, 0.0, 16, 400, 3)
        monkeypatch.setattr(guarantees, "_WORKERS", workers)
        monkeypatch.setattr(guarantees, "_BATCH_ELEMENTS", per_batch * (16 ** 2 + 128))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert estimate_interference_norm(128, 8, 0.0, 16, 400, 3) == default
        finally:
            sys.setswitchinterval(interval)

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

    def test_singular_draw_names_its_trial(self):
        # Draw 15 of seed 0 puts 31 folds against 31 out-of-band bins at
        # lambda_min/lambda_max below 64*eps; it used to enter the norm as 2.08e7.
        system = build_oob_system(64, 0.5, 0.0)
        draws = np.random.default_rng(0).random((16, 64)).argsort(axis=1)[:, :31]
        eig = np.linalg.eigvalsh(system.projector[draws[:, :, None], draws[:, None, :]])
        singular = eig[:, 0] <= 64 * np.finfo(float).eps * eig[:, -1]
        assert list(np.flatnonzero(singular)) == [15]
        with pytest.raises(InfeasibleError, match="trial 15: .*singular"):
            estimate_interference_norm(64, 2.0, 0.0, 31, 16, 0)
        assert math.isfinite(estimate_interference_norm(64, 2.0, 0.0, 31, 15, 0))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_singular_draw_named_in_draw_order(self, monkeypatch, workers):
        # Draw 15 is the only singular one of the first 40 of seed 0; one
        # set per batch puts it in flight next to its neighbours.
        monkeypatch.setattr(guarantees, "_WORKERS", workers)
        monkeypatch.setattr(guarantees, "_BATCH_ELEMENTS", 31 ** 2 + 64)
        with pytest.raises(InfeasibleError, match="^trial 15: .*singular"):
            estimate_interference_norm(64, 2.0, 0.0, 31, 40, 0)
        assert estimate_interference_norm(64, 2.0, 0.0, 31, 15, 0) == pytest.approx(
            91457.0, rel=1e-6)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_earlier_singular_draw_wins_when_a_later_one_fails_first(self, monkeypatch,
                                                                     workers):
        # Seed 87 draws singular sets at trials 5 and 7 of 40.  Trial 5's
        # batch is held until trial 7's has been checked, so 7 fails first.
        system = build_oob_system(64, 0.5, 0.0)
        draws = np.random.default_rng(87).random((40, 64)).argsort(axis=1)[:, :31]
        later_checked = threading.Event()
        checked = guarantees.check_gram

        def check_gram(gram, n):
            if np.array_equal(gram[0], fold_gram(system, draws[5:6])[0]):
                later_checked.wait(timeout=10)
            result = checked(gram, n)
            if np.array_equal(gram[0], fold_gram(system, draws[7:8])[0]):
                assert result[2]
                later_checked.set()
            return result
        monkeypatch.setattr(guarantees, "check_gram", check_gram)
        monkeypatch.setattr(guarantees, "_WORKERS", workers)
        monkeypatch.setattr(guarantees, "_BATCH_ELEMENTS", 31 ** 2 + 64)
        with pytest.raises(InfeasibleError, match="^trial 5: .*singular"):
            estimate_interference_norm(64, 2.0, 0.0, 31, 40, 87)
        assert later_checked.is_set()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("length, oversampling, set_size, trials",
                             [(64, 8.0, 8, 2000), (256, 12.0, 32, 200), (64, 2.0, 8, 400),
                              (256, 3.0, 32, 200)])
    def test_pruned_max_equals_the_unpruned_max(self, monkeypatch, workers, length,
                                                oversampling, set_size, trials):
        # Pruning skips most sets of the first cell and few of the second.
        # The last two hold uncertified blocks (121 of 400 and 63 of 200).
        # Batches of 16 are mapped in chunks of 4 or 2; stopping at a chunk
        # whose first bound is below the max misses it in the first, third
        # and fourth cells unless the sets are sorted by bound.  The
        # reference maps every draw, in one batch, with nothing skipped.
        system = build_oob_system(length, 1.0 / oversampling, 0.0)
        sets = np.random.default_rng(9).random((trials, length)).argsort(axis=1)[:, :set_size]
        gram = fold_gram(system, sets)
        mapped = np.matmul(np.linalg.inv(gram), system.projector[sets])
        np.put_along_axis(mapped, sets[:, None, :], 0.0, axis=2)
        assert check_gram(gram, length)[2] == []
        monkeypatch.setattr(guarantees, "_WORKERS", workers)
        monkeypatch.setattr(guarantees, "_BATCH_ELEMENTS", 16 * (set_size ** 2 + length))
        assert estimate_interference_norm(length, oversampling, 0.0, set_size, trials,
                                          9) == np.abs(mapped).sum(axis=2).max()

    def test_pruning_skips_sets(self, monkeypatch):
        # One worker and 16 sets per batch fix which sets are skipped.
        seen = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: seen.append(len(a)) or inv(a))
        monkeypatch.setattr(guarantees, "_WORKERS", 1)
        monkeypatch.setattr(guarantees, "_BATCH_ELEMENTS", 16 * (8 ** 2 + 64))
        estimate_interference_norm(64, 8.0, 0.0, 8, 2000, 9)
        assert sum(seen) < 2000 // 4

    def test_sets_inverted_at_the_default_budget(self, monkeypatch):
        # One worker, batches of 1,024 sets in chunks of 256.  The batch starts
        # with no norm known, so its top set is mapped alone; 122 of the next
        # 256 sets and 102 after them have a margin bound at or above the
        # max as it then stands, and the bound from their inverse leaves 72
        # and 65 of those for the k x n product.
        inverted, multiplied = [], []
        inv, put = np.linalg.inv, np.put_along_axis
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(len(a)) or inv(a))
        monkeypatch.setattr(np, "put_along_axis", lambda a, *args, **kwargs: (
            multiplied.append(len(a)) or put(a, *args, **kwargs)))
        monkeypatch.setattr(guarantees, "_WORKERS", 1)
        estimate_interference_norm(64, 8.0, 0.0, 8, 2000, 9)
        assert inverted == [1, 122, 102]
        assert multiplied == [1, 72, 65]

    def test_each_batch_checked_once_and_whole(self, monkeypatch):
        # Sets skipped by their bound are checked too, with the rest of
        # their batch, and no batch is checked twice.
        seen = []
        checked = guarantees.check_gram
        monkeypatch.setattr(guarantees, "check_gram",
                            lambda gram, n: seen.append(len(gram)) or checked(gram, n))
        monkeypatch.setattr(guarantees, "_WORKERS", 1)
        monkeypatch.setattr(guarantees, "_BATCH_ELEMENTS", 16 * (8 ** 2 + 64))
        estimate_interference_norm(64, 8.0, 0.0, 8, 2000, 9)
        assert seen == [16] * 125

    @given(st.integers(16, 128), st.floats(3.0, 12.0), st.sampled_from([0.0, np.pi / 32]),
           st.integers(0, 2 ** 32 - 1), st.data())
    @settings(deadline=None, max_examples=60)
    def test_bound_covers_the_computed_norm(self, length, oversampling, guard, seed, data):
        # Sets whose Varah bound is below the floor keep it unrefined.
        system = build_oob_system(length, 1.0 / oversampling, guard)
        set_size = data.draw(st.integers(1, min(32, system.num_bins)))
        floor = data.draw(st.sampled_from([0.0, 1.0, 2.0, 4.0, np.inf]))
        sets = np.random.default_rng(seed).random((64, length)).argsort(axis=1)[:, :set_size]
        gram = fold_gram(system, sets)
        margins, certified, _ = check_gram(gram, length)
        bounds = guarantees._norm_bounds(system, gram, margins, certified, floor)
        dominant = np.isfinite(bounds)
        np.testing.assert_array_equal(dominant, certified)
        assume(dominant.any())
        mapped = np.matmul(np.linalg.inv(gram[dominant]), system.projector[sets[dominant]])
        np.put_along_axis(mapped, sets[dominant, None, :], 0.0, axis=2)
        assert (bounds[dominant] >= np.abs(mapped).sum(axis=2).max(axis=1)).all()

    @given(st.integers(16, 128), st.floats(2.0, 12.0), st.sampled_from([0.0, np.pi / 32]),
           st.booleans(), st.integers(0, 2 ** 32 - 1), st.data())
    @settings(deadline=None, max_examples=60)
    def test_inverse_bound_covers_the_computed_norm(self, length, oversampling, guard,
                                                    clustered, seed, data):
        # Clustered sets lie within twice their size, so many of their Gram
        # blocks are uncertified and some are near singular.
        system = build_oob_system(length, 1.0 / oversampling, guard)
        set_size = data.draw(st.integers(1, min(32, system.num_bins)))
        width = min(length, 2 * set_size) if clustered else length
        rng = np.random.default_rng(seed)
        sets = (rng.random((64, width)).argsort(axis=1)[:, :set_size]
                + rng.integers(0, length - width + 1, (64, 1)))
        gram = fold_gram(system, sets)
        margins, _, singular = check_gram(gram, length)
        regular = np.setdiff1d(np.arange(64), [trial for trial, *_ in singular])
        assume(regular.size)
        inverse = np.linalg.inv(gram[regular])
        mapped = np.matmul(inverse, system.projector[sets[regular]])
        np.put_along_axis(mapped, sets[regular, None, :], 0.0, axis=2)
        norms = np.abs(mapped).sum(axis=2).max(axis=1)
        assert (guarantees._inverse_bounds(system, inverse, margins[regular]) >= norms).all()

    def test_inverse_bound_is_tight_for_one_fold(self):
        # With one fold the inverse is 1/g and the norm b/g, so the bound
        # exceeds it by no more than its rounding allowance.
        system = build_oob_system(64, 0.25, 0.0)
        sets = np.arange(64)[:, None]
        gram = fold_gram(system, sets)
        inverse = np.linalg.inv(gram)
        mapped = np.matmul(inverse, system.projector[sets])
        np.put_along_axis(mapped, sets[:, None, :], 0.0, axis=2)
        bounds = guarantees._inverse_bounds(system, inverse, check_gram(gram, 64)[0])
        ratio = np.abs(mapped).sum(axis=2).max(axis=1) / bounds
        assert ((1.0 - 1e-13 < ratio) & (ratio <= 1.0)).all()

    @pytest.mark.parametrize("clustered", [False, True])
    def test_stacked_inverse_is_each_block_inverted_alone(self, clustered):
        # A chunk inverts the sets it keeps as one stack, so each norm keeps
        # its bits whichever sets share the stack only if every block's
        # inverse does.  Clustered sets give uncertified blocks.
        system = build_oob_system(256, 0.25, 0.0)
        rng = np.random.default_rng(5)
        kinds = set()
        for k in range(1, 33):
            width = 2 * k if clustered else 256
            sets = rng.random((16, width)).argsort(axis=1)[:, :k] + rng.integers(
                0, 257 - width, (16, 1))
            gram = fold_gram(system, sets)
            _, certified, singular = check_gram(gram, 256)
            regular = np.setdiff1d(np.arange(16), [trial for trial, *_ in singular])
            kinds.update(certified[regular])
            stacked = np.linalg.inv(gram[regular])
            for block, inverse in zip(gram[regular], stacked):
                np.testing.assert_array_equal(np.linalg.inv(block), inverse)
                np.testing.assert_array_equal(np.linalg.inv(block[None])[0], inverse)
        assert kinds == {False, True}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_singular_draw_after_skipped_sets_names_its_trial(self, monkeypatch, workers):
        # At (256, OF 2, 20 folds) most random sets are diagonally dominant,
        # and 20 adjacent folds are singular (lambda_min about 1e-14).  Draw
        # 61 is made adjacent: it sits at position 13 of the last batch of
        # 16, which is checked whole, the sets its bound skips included.
        class Scripted(np.random.Generator):
            drawn = 0

            def random(self, size=None):
                rows = super().random(size)
                if self.drawn <= 61 < self.drawn + len(rows):
                    rows[61 - self.drawn, :20] = np.arange(20) - 20.0
                self.drawn += len(rows)
                return rows
        seen = []
        checked = guarantees.check_gram
        monkeypatch.setattr(guarantees, "check_gram",
                            lambda gram, n: seen.append(gram) or checked(gram, n))
        monkeypatch.setattr(guarantees, "_WORKERS", workers)
        monkeypatch.setattr(guarantees, "_BATCH_ELEMENTS", 16 * (20 ** 2 + 256))
        # The seed must be an integer or a SeedSequence, so the script goes in
        # through the generator the estimate makes from it.
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Scripted(np.random.PCG64(seed)))
        with pytest.raises(InfeasibleError, match="^trial 61: .*singular"):
            estimate_interference_norm(256, 2.0, 0.0, 20, 64, 4)
        adjacent = fold_gram(build_oob_system(256, 0.5, 0.0), np.arange(20)[None])
        last = next(gram for gram in seen if (gram == adjacent).all(axis=(1, 2)).any())
        assert len(last) == 16
        assert list(np.flatnonzero((last == adjacent).all(axis=(1, 2)))) == [13]

    def test_peak_memory_bounded_in_trials(self, monkeypatch):
        # 102 sets per batch, mapped in chunks of 16: 1 batch or 41.  Two
        # workers hold a batch's Gram blocks and their abs copy, 0.8 MB each,
        # and a chunk's 1 MiB gather and its 1 MiB product, freed after the
        # chunk; the keys and argsort of all 4096 draws at once would take
        # 16.8 MB.
        monkeypatch.setattr(guarantees, "_WORKERS", 2)
        for trials in (64, 4096):
            _, peak = traced_peak(estimate_interference_norm, 256, 4.0, 0.0, 32, trials, 0)
            assert peak <= 12e6

    def test_peak_memory_stays_linear_in_length(self):
        # Rows are gathered from the O(n) projector view; an n x n projector
        # alone would be 33.5 MB at n 2048.
        norm, peak = traced_peak(estimate_interference_norm, 2048, 4.0, 0.0, 4, 8, 0)
        assert norm == pytest.approx(4.298511905544368, rel=1e-12)
        assert peak <= 4e6

    def test_adjacent_set_exceeds_the_random_max(self):
        # The random max is no worst case: the adjacent set {0, ..., 7}
        # reads 24.2 against 8.10 over 10,000 draws.
        projector = build_oob_system(64, 0.25, 0.0).projector
        adjacent = np.arange(8)
        leak = np.linalg.solve(projector[np.ix_(adjacent, adjacent)], projector[adjacent])
        leak[:, adjacent] = 0.0
        random_max = estimate_interference_norm(64, 4.0, 0.0, 8, 10_000, 1)
        assert np.abs(leak).sum(axis=1).max() > random_max

    def test_oversized_set_rejected(self):
        with pytest.raises(InfeasibleError):
            estimate_interference_norm(64, 4, 0.0, 60, 10, seed=0)

    @pytest.mark.parametrize("length, set_size", [(2 ** 22, 2), (4194304, 524288)])
    def test_unallocatable_set_rejected_before_allocation(self, length, set_size):
        # 524288 folds over 4194304 samples: 16 TiB of rows for one set.
        raised, peak = traced_peak(pytest.raises, ConfigurationError,
                                   estimate_interference_norm, length, 4.0, 0.0, set_size, 1, 0)
        raised.match("cap")
        assert peak < 1e6
        guarantees.check_fold_set(2 ** 21, 2)

    @pytest.mark.parametrize("args", [(64, -1.0, 0.0, 0, 0, None), (64, 4, -5.0, 0, 1, 0)],
                             ids=["oversampling--1.0", "guard_width--5.0"])
    def test_bad_args_rejected_before_empty_set(self, args):
        # Both used to return 0.0 from the empty-set shortcut.
        with pytest.raises(ConfigurationError):
            estimate_interference_norm(*args)

    def test_zero_oversampling_rejected(self):
        # Used to end in a ZeroDivisionError from 1 / oversampling.
        with pytest.raises(ConfigurationError, match="oversampling"):
            estimate_interference_norm(16, 0.0, 0.0, 2, 10, seed=0)
