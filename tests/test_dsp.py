import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from modunfold.dsp import _BLOCK as BLOCK
from modunfold.dsp import (blocks, build_oob_system, check_gram, design_lowpass,
                           filter_zero_delay, fold_gram, inband_basis, oob_bin_indices,
                           tukey_window)
from modunfold.errors import ConfigurationError, InfeasibleError
from conftest import traced_peak
from oob_reference import oob_bins, oob_matrix


class TestOobSystem:
    def test_example_64_quarter_band(self):
        sys = build_oob_system(64, 0.25, np.pi / 32)
        assert_array_equal(oob_bins(sys), np.arange(10, 55))
        assert sys.num_bins == 45 == oob_bin_indices(64, 0.25, np.pi / 32).size

    def test_example_8_half_band(self):
        sys = build_oob_system(8, 0.5, 0.0)
        assert_array_equal(oob_bins(sys), [3, 4, 5])
        assert sys.num_bins == 3 == oob_bin_indices(8, 0.5, 0.0).size

    def test_near_nyquist_single_bin(self):
        sys = build_oob_system(8, 7 / 8, 0.0)
        assert_array_equal(oob_bins(sys), [4])
        assert sys.num_bins == 1 == oob_bin_indices(8, 7 / 8, 0.0).size

    def test_bin_count_matches_direct_inequality(self):
        for n, rho, guard in [(64, 0.25, np.pi / 32), (128, 0.125, np.pi / 16),
                              (96, 1 / 3, 0.0)]:
            sys = build_oob_system(n, rho, guard)
            lo = n * (rho + guard / np.pi) / 2
            hi = n * (2 - rho - guard / np.pi) / 2
            expected = [k for k in range(n) if lo < k < hi]
            assert_array_equal(oob_bins(sys), expected)
            assert sys.num_bins == len(expected) == oob_bin_indices(n, rho, guard).size

    def test_rows_are_unit_norm(self):
        sys = build_oob_system(64, 0.25, np.pi / 32)
        assert_allclose(np.linalg.norm(oob_matrix(sys), axis=1), 1.0, atol=1e-12)

    def test_entries_match_formula(self):
        sys = build_oob_system(16, 0.5, 0.0)
        v = oob_matrix(sys)
        for row, k in enumerate(oob_bins(sys)):
            for m in range(16):
                expected = np.exp(-2j * np.pi * m * k / 16) / 4.0
                assert abs(v[row, m] - expected) < 1e-14

    @pytest.mark.parametrize("n,rho,guard", [(64, 0.25, np.pi / 32),
                                             (63, 0.25, 0.1), (16, 0.5, 0.0)])
    def test_kernel_is_gram_of_oob_rows(self, n, rho, guard):
        sys = build_oob_system(n, rho, guard)
        v = oob_matrix(sys)
        assert sys.n == n
        assert_allclose(sys.projector, (v.conj().T @ v).real, atol=1e-14)
        assert np.abs((v.conj().T @ v).imag).max() < 1e-14

    def test_kernel_is_a_projector(self):
        sys = build_oob_system(64, 0.25, np.pi / 32)
        p = sys.projector
        assert_allclose(p @ p, p, atol=1e-13)
        assert_allclose(np.diag(p), sys.num_bins / 64, rtol=1e-14)
        # A read-only view whose rows share one buffer of 2n floats.
        assert not p.flags.writeable
        base = p
        while base.base is not None:
            base = base.base
        assert base.size == 2 * 64 and base.dtype == np.float64

    # The last two put an edge bin on the band edge up to rounding, which
    # once kept bin 2 of 8 but not bin 6.
    @pytest.mark.parametrize("n,rho,guard", [(64, 0.25, np.pi / 32),
                                             (63, 0.25, 0.1),
                                             (128, 0.125, np.pi / 16),
                                             (8, 1 / 2.0000000000000004, 0.0),
                                             (13, 1 / 3.25, 0.0)])
    def test_bins_conjugate_symmetric(self, n, rho, guard):
        bins = set(oob_bins(build_oob_system(n, rho, guard)).tolist())
        assert {(n - k) % n for k in bins} == bins

    def test_empty_interval_rejected(self):
        with pytest.raises(InfeasibleError):
            build_oob_system(7, 0.9, 0.0)
        with pytest.raises(InfeasibleError):
            build_oob_system(64, 0.25, np.pi)
        with pytest.raises(ConfigurationError):
            build_oob_system(64, 0.25, -0.1)


def fold_sets(data, n, k):
    """One to six fold sets of size k over n samples, some of them adjacent folds."""
    sets = []
    for _ in range(data.draw(st.integers(1, 6))):
        start = data.draw(st.integers(0, n - 1))
        if data.draw(st.booleans()):  # adjacent folds are the worst conditioned
            sets.append((start + np.arange(k)) % n)
        else:
            sets.append(np.random.default_rng(start).permutation(n)[:k])
    return np.array(sets)


class TestDominance:
    EPS = np.finfo(float).eps

    @given(st.integers(8, 64), st.floats(1.05, 12.0),
           st.sampled_from([0.0, np.pi / 32, np.pi / 8]), st.data())
    @settings(deadline=None, max_examples=100)
    def test_margins_bound_the_least_eigenvalue(self, n, oversampling, guard, data):
        try:
            system = build_oob_system(n, 1.0 / oversampling, guard)
        except InfeasibleError:
            assume(False)
        k = data.draw(st.integers(1, system.num_bins))
        sets = fold_sets(data, n, k)
        gram = fold_gram(system, sets)
        assert_array_equal(gram, system.projector[sets[:, :, None], sets[:, None, :]])
        margins, certified, _ = check_gram(gram, n)
        diagonal = np.diagonal(gram, axis1=1, axis2=2)
        off = np.abs(gram).sum(axis=2) - np.abs(diagonal)
        assert_allclose(margins, diagonal - off, rtol=0, atol=(k + 1) * self.EPS)
        eig = np.linalg.eigvalsh(gram)
        assert (eig[:, 0] >= margins.min(axis=1) - 2 * (k + 1) * self.EPS).all()
        # Certified blocks are not singular by the eigenvalue rule.
        assert (eig[certified, 0] > n * self.EPS * eig[certified, -1]).all()


class TestCheckGram:
    EPS = np.finfo(float).eps

    @given(st.integers(8, 64), st.floats(1.05, 12.0),
           st.sampled_from([0.0, np.pi / 32, np.pi / 8]), st.data())
    @settings(deadline=None, max_examples=200)
    def test_singular_sets_follow_the_eigenvalue_rule(self, n, oversampling, guard, data):
        try:
            system = build_oob_system(n, 1.0 / oversampling, guard)
        except InfeasibleError:
            assume(False)
        sets = fold_sets(data, n, data.draw(st.integers(1, system.num_bins)))
        gram = system.projector[sets[:, :, None], sets[:, None, :]]
        singular = check_gram(fold_gram(system, sets), n)[2]
        eig = np.linalg.eigvalsh(gram)
        rule = np.flatnonzero(eig[:, 0] <= n * self.EPS * eig[:, -1])
        assert [i for i, _, _ in singular] == list(rule)
        for i, low, high in singular:
            assert (low, high) == (eig[i, 0], eig[i, -1])

    def test_dominant_blocks_skip_eigvalsh(self, monkeypatch):
        # 49 of these 50 random sets are diagonally dominant, so one block
        # is left to eigvalsh, and none once that one is dropped.
        system = build_oob_system(64, 0.25, np.pi / 32)
        rng = np.random.default_rng(7)
        gram = fold_gram(system, np.array([rng.permutation(64)[:8] for _ in range(50)]))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
        _, certified, singular = check_gram(gram, 64)
        assert np.count_nonzero(~certified) == 1
        assert calls == [1] and singular == []
        calls.clear()
        assert check_gram(gram[certified], 64)[2] == [] and calls == []

    def test_eigenvalue_fallback_clears_the_block(self, monkeypatch):
        # 18 adjacent folds against 31 out-of-band bins: lambda_min is about
        # 122 eps, above 64 eps but below what the margins can certify, so
        # eigvalsh clears the block.
        system = build_oob_system(64, 0.5, 0.0)
        gram = fold_gram(system, np.arange(18)[None])
        low = np.linalg.eigvalsh(gram)[0, 0]
        assert 64 * self.EPS < low < (64 + 18 * 20) * self.EPS
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        margins, certified, singular = check_gram(gram, 64)
        assert len(calls) == 1 and singular == []
        assert margins.min() < low and not certified[0]

    def test_singular_block_named_past_the_first(self):
        # Two random sets of 20 folds, then 20 adjacent ones, whose Gram has
        # lambda_min/lambda_max ~ 2e-16 against 31 out-of-band bins.
        system = build_oob_system(64, 0.5, 0.0)
        rng = np.random.default_rng(1)
        sets = np.array([rng.permutation(64)[:20], rng.permutation(64)[:20],
                         np.arange(20, 40)])
        singular = check_gram(fold_gram(system, sets), 64)[2]
        assert [i for i, _, _ in singular] == [2]

    def test_top_stands_for_the_gram_largest(self):
        # lambda_min 48 eps against lambda_max 0.5 passes the block's own
        # rule (48 eps > 64 eps * 0.5), not the rule at top 1, which is the
        # Gram's largest when the block is a complement M = I - W_S^T W_S.
        block = np.diag([48 * self.EPS, 0.5, 0.5])[None]
        assert check_gram(block, 64)[2] == []
        assert check_gram(block, 64, top=1.0)[2] == [(0, 48 * self.EPS, 1.0)]


class TestInbandBasis:
    @pytest.mark.parametrize("guard", [0.0, np.pi / 32])
    @pytest.mark.parametrize("n", [64, 128, 256, 63])
    def test_complements_the_projector(self, n, guard):
        for oversampling in (4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0, 50.0):
            system = build_oob_system(n, 1 / oversampling, guard)
            basis = inband_basis(system)
            assert basis.shape == (n, n - system.num_bins)
            assert_allclose(np.eye(n) - basis @ basis.T, system.projector, rtol=0, atol=1e-14)
            assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), rtol=0, atol=1e-14)

    def test_desk_ranks(self):
        # r = n - num_bins at the desk window and guard: 3 at OF 40-50 and
        # 5 at OF 24-32, against up to 27 folds in a desk OF-50 segment.
        ranks = [inband_basis(build_oob_system(64, 1 / of, np.pi / 32)).shape[1]
                 for of in (4.0, 16.0, 24.0, 32.0, 40.0, 50.0)]
        assert ranks == [19, 7, 5, 5, 3, 3]


class TestTukeyWindow:
    def test_left_edge_is_zero(self):
        assert tukey_window(64, 0.5).coefficients[0] == pytest.approx(0.0, abs=1e-15)

    def test_flat_midsection(self):
        w = tukey_window(64, 0.5).coefficients
        assert_array_equal(w[16:48], np.ones(32))

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
    @pytest.mark.parametrize("alpha", [1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0])
    def test_edge_symmetry(self, n, alpha):
        win = tukey_window(n, alpha)
        w, edge, hop = win.coefficients, win.edge, win.hop
        assert edge == alpha * n / 2 and hop == n - edge
        sums = w[:edge] + w[hop:]
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_values_in_unit_interval(self):
        w = tukey_window(48, 0.75).coefficients
        assert w.min() >= 0.0 and w.max() <= 1.0

    def test_odd_taper_rejected(self):
        with pytest.raises(ConfigurationError):
            tukey_window(10, 0.5)  # alpha*n = 5

    # 1e-12 * 64 rounds to the even integer 0: an untapered window.
    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, 1e-12])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ConfigurationError):
            tukey_window(64, alpha)


def dtft(taps, omega):
    """Direct DTFT evaluation, independent of the FFT used in the designer."""
    n = np.arange(len(taps))
    return np.array([np.sum(taps * np.exp(-1j * w * n)) for w in omega])


class TestDesignLowpass:
    def test_degenerate_cutoff_rejected(self):
        with pytest.raises(ConfigurationError):
            design_lowpass(np.pi, np.pi / 16, 257)

    def test_stopband_attenuation(self):
        taps = design_lowpass(np.pi / 4, np.pi / 16, 257)
        omega = np.linspace(np.pi / 4 + np.pi / 16, np.pi, 400)
        assert np.abs(dtft(taps, omega)).max() <= 10 ** (-60 / 20)

    def test_passband_ripple(self):
        taps = design_lowpass(np.pi / 4, np.pi / 16, 257)
        omega = np.linspace(0, np.pi / 4, 400)
        ripple_db = 20 * np.log10(np.abs(dtft(taps, omega)))
        assert np.abs(ripple_db).max() <= 0.01

    def test_dc_gain_unity(self):
        taps = design_lowpass(np.pi / 4, np.pi / 16, 257)
        assert abs(taps.sum() - 1.0) <= 1e-6

    def test_taps_exactly_symmetric(self):
        taps = design_lowpass(np.pi / 3, np.pi / 8, 129)
        assert_array_equal(taps, taps[::-1])

    def test_unmeetable_length_names_requirement(self):
        with pytest.raises(ConfigurationError, match="need at least"):
            design_lowpass(np.pi / 4, np.pi / 64, 257)

    def test_even_length_rejected(self):
        with pytest.raises(ConfigurationError):
            design_lowpass(np.pi / 4, np.pi / 16, 256)

    @pytest.mark.parametrize("cutoff, transition, length, hint", [
        (0.45, 2.66, 13, 21), (1.1, 2.04, 17, 27)])
    def test_missed_spec_hints_an_odd_count_that_designs(self, cutoff, transition, length,
                                                         hint):
        # The hint read 20 and 26 taps, which the odd-count rule rejects.
        with pytest.raises(ConfigurationError, match=f"try at least {hint} taps"):
            design_lowpass(cutoff, transition, length)
        taps = design_lowpass(cutoff, transition, hint)
        assert taps.size == hint

    @pytest.mark.parametrize("transition", [np.nan, 0.0, -0.1])
    def test_nonpositive_transition_rejected(self, transition):
        # NaN fails the number rule, the others the range.
        with pytest.raises(ConfigurationError, match="transition must be (> 0|a finite)"):
            design_lowpass(np.pi / 4, transition, 257)


class TestFilterZeroDelay:
    def setup_method(self):
        self.lowpass = design_lowpass(np.pi / 4, np.pi / 16, 257)

    def test_inband_sinusoid_amplitude_preserved(self):
        n = np.arange(8192)
        x = np.sin(np.pi / 8 * n)  # half the cutoff
        y = filter_zero_delay(x, self.lowpass)
        core = slice(1024, -1024)
        ratio = np.sqrt(np.mean(y[core] ** 2) / np.mean(x[core] ** 2))
        assert abs(ratio - 1.0) < 0.002

    def test_out_of_band_sinusoid_attenuated(self):
        n = np.arange(8192)
        x = np.sin((np.pi / 4 + 2 * np.pi / 16) * n)
        y = filter_zero_delay(x, self.lowpass)
        core = slice(1024, -1024)
        gain = np.sqrt(np.mean(y[core] ** 2) / np.mean(x[core] ** 2))
        assert 20 * np.log10(gain) <= -60

    def test_zero_signal(self):
        assert_allclose(filter_zero_delay(np.zeros(300), self.lowpass),
                        np.zeros(300), atol=1e-15)

    def test_group_delay_compensated(self):
        # A slow in-band ramp should come back aligned, not shifted.
        n = np.arange(4096)
        x = np.sin(0.01 * n)
        y = filter_zero_delay(x, self.lowpass)
        assert np.abs((y - x)[512:-512]).max() < 5e-3

    def test_short_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            filter_zero_delay(np.zeros(100), self.lowpass)

    # Even taps used to run and return the output shifted by half a sample,
    # NaN taps an all-NaN record, and 2-D or empty taps a raw ValueError.
    @pytest.mark.parametrize("taps, message", [
        (np.full(256, 1 / 256), "odd tap count"),
        (np.where(np.arange(257) == 128, np.nan, 1 / 257), "taps sample 128 is not finite"),
        (np.full((3, 257), 1 / 257), "1-D, nonempty taps"),
        (np.zeros(0), "1-D, nonempty taps")], ids=["even", "nan", "2-D", "empty"])
    def test_bad_taps_rejected(self, taps, message):
        with pytest.raises(ConfigurationError, match=message):
            filter_zero_delay(np.zeros(4096), taps)

    # Overlap-save blocks: the smallest power of two of at least 4096 and
    # twice the tap count, each yielding block - taps + 1 outputs.  The
    # lengths cover a signal as long as the filter, one block's output give
    # or take a sample, one block, and several blocks plus a remainder.
    # 2501 and 4501 taps are past half of the smallest block, so the rule
    # must grow it; 4501 taps would not even fit in it.
    @pytest.mark.parametrize("taps, block", [
        (257, 4096), (1025, 4096), (2501, 8192), (4501, 16384)])
    def test_matches_direct_convolution(self, taps, block):
        lowpass = design_lowpass(np.pi / 8, np.pi / 16, taps)
        step = block - taps + 1
        rng = np.random.default_rng(taps)
        for n in (taps, taps + 1, step - 1, step, step + 1, block, 3 * step + 123):
            x = rng.normal(size=n)
            want = np.convolve(np.pad(x, taps // 2, mode="reflect"), lowpass, "valid")
            got = filter_zero_delay(x, lowpass)
            assert got.shape == x.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), n

    @pytest.mark.parametrize("n", [257, 258, 3839, 3840, 3841, 4096, 3 * 3840 + 123])
    def test_same_bytes_as_blocks_of_a_padded_copy(self, n):
        # The blocks read the reflect padding in place; they must hold the
        # samples that blocks cut from a padded copy would, in the same
        # layout, so every output byte is unchanged.  257 taps: blocks of
        # 4096 points and steps of 3840 outputs.
        taps = self.lowpass
        block, head = 4096, taps.size - 1
        x = np.random.default_rng(n).normal(size=n)
        padded = np.pad(x, taps.size // 2, mode="reflect")
        spectrum = np.fft.rfft(taps, block)
        want = np.concatenate([
            np.fft.irfft(np.fft.rfft(padded[start:start + block], block) * spectrum,
                         block)[head:]
            for start in range(0, n, block - head)])[:n]
        assert_array_equal(filter_zero_delay(x, self.lowpass), want)

    def test_peak_memory_holds_no_padded_copy(self):
        # Measured on 202,000 samples with 1025 taps: the output plus 0.08
        # record lengths (4 blocks of float64); with the padded copy the
        # peak was 2.09 record lengths.
        x = np.random.default_rng(4).normal(size=202_000)
        lowpass = design_lowpass(np.pi / 4, np.pi / 64, 1025)
        filter_zero_delay(x, lowpass)
        _, peak = traced_peak(filter_zero_delay, x, lowpass)
        assert peak <= x.nbytes + 8 * BLOCK * 8

    def test_blocks_cover_the_record_in_order(self):
        for count in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 123):
            cover = blocks(count)
            assert cover[0].start == 0 and cover[-1].stop == count
            assert all(a.stop == b.start for a, b in zip(cover, cover[1:]))
            assert max(s.stop - s.start for s in cover) == min(BLOCK, count)

    def test_returns_a_new_array(self):
        x = np.random.default_rng(3).normal(size=5000)
        before = x.copy()
        y = filter_zero_delay(x, self.lowpass)
        assert not np.shares_memory(x, y)
        assert_array_equal(x, before)
