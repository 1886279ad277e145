import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from modunfold.dsp import (build_oob_system, design_lowpass, filter_zero_delay,
                           kernel_block, matrix_inf_norm, tukey_window)
from modunfold.errors import ConfigurationError, InfeasibleError
from oob_reference import (dft_normalized, least_squares_apply,
                           min_singular_value, oob_matrix, select_columns)


def brute_force_dft(x):
    """O(N^2) reference DFT with the 1/sqrt(N) scaling."""
    n = len(x)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for m in range(n):
            out[k] += x[m] * np.exp(-2j * np.pi * k * m / n)
    return out / np.sqrt(n)


class TestDftNormalized:
    # The reference solver's DFT; the library applies the same projection
    # through the circulant kernel.
    def test_constant_signal_is_dc_only(self):
        assert_allclose(dft_normalized([1, 1, 1, 1]), [2, 0, 0, 0], atol=1e-15)

    def test_impulse_is_flat(self):
        assert_allclose(dft_normalized([1, 0, 0, 0]), [0.5] * 4, atol=1e-15)

    def test_matches_brute_force(self):
        x = np.random.default_rng(11).normal(size=16)
        assert_allclose(dft_normalized(x), brute_force_dft(x), atol=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_matches_brute_force_up_to_32(self, n):
        x = np.random.default_rng(n).normal(size=n)
        assert_allclose(dft_normalized(x), brute_force_dft(x), atol=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            dft_normalized([])

    @given(arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(-100, 100)))
    @settings(deadline=None, max_examples=50)
    def test_parseval(self, x):
        spec = dft_normalized(x)
        time_energy = float(np.sum(x ** 2))
        freq_energy = float(np.sum(np.abs(spec) ** 2))
        assert abs(freq_energy - time_energy) <= 1e-10 * max(time_energy, 1.0)

    @given(arrays(np.float64, 24, elements=st.floats(-10, 10)),
           arrays(np.float64, 24, elements=st.floats(-10, 10)),
           st.floats(-5, 5), st.floats(-5, 5))
    @settings(deadline=None, max_examples=50)
    def test_linearity(self, x, y, a, b):
        lhs = dft_normalized(a * x + b * y)
        rhs = a * dft_normalized(x) + b * dft_normalized(y)
        assert np.abs(lhs - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())


class TestOobSystem:
    def test_example_64_quarter_band(self):
        sys = build_oob_system(64, 0.25, np.pi / 32)
        assert_array_equal(sys.oob_bins, np.arange(10, 55))
        assert sys.num_bins == 45

    def test_example_8_half_band(self):
        sys = build_oob_system(8, 0.5, 0.0)
        assert_array_equal(sys.oob_bins, [3, 4, 5])

    def test_near_nyquist_single_bin(self):
        sys = build_oob_system(8, 7 / 8, 0.0)
        assert_array_equal(sys.oob_bins, [4])

    def test_bin_count_matches_direct_inequality(self):
        for n, rho, guard in [(64, 0.25, np.pi / 32), (128, 0.125, np.pi / 16),
                              (96, 1 / 3, 0.0)]:
            sys = build_oob_system(n, rho, guard)
            lo = n * (rho + guard / np.pi) / 2
            hi = n * (2 - rho - guard / np.pi) / 2
            expected = [k for k in range(n) if lo < k < hi]
            assert_array_equal(sys.oob_bins, expected)

    def test_rows_are_unit_norm(self):
        sys = build_oob_system(64, 0.25, np.pi / 32)
        assert_allclose(np.linalg.norm(oob_matrix(sys), axis=1), 1.0, atol=1e-12)

    def test_entries_match_formula(self):
        sys = build_oob_system(16, 0.5, 0.0)
        v = oob_matrix(sys)
        for row, k in enumerate(sys.oob_bins):
            for m in range(16):
                expected = np.exp(-2j * np.pi * m * k / 16) / 4.0
                assert abs(v[row, m] - expected) < 1e-14

    @pytest.mark.parametrize("n,rho,guard", [(64, 0.25, np.pi / 32),
                                             (63, 0.25, 0.1), (16, 0.5, 0.0)])
    def test_kernel_is_gram_of_oob_rows(self, n, rho, guard):
        sys = build_oob_system(n, rho, guard)
        v = oob_matrix(sys)
        positions = np.arange(n)
        assert_allclose(kernel_block(sys, positions, positions),
                        (v.conj().T @ v).real, atol=1e-14)
        assert np.abs((v.conj().T @ v).imag).max() < 1e-14

    def test_kernel_is_a_projector(self):
        sys = build_oob_system(64, 0.25, np.pi / 32)
        p = kernel_block(sys, np.arange(64), np.arange(64))
        assert_allclose(p @ p, p, atol=1e-13)
        assert sys.kernel[0] == pytest.approx(sys.num_bins / 64)

    def test_kernel_block_batches_over_leading_axes(self):
        sys = build_oob_system(64, 0.25, np.pi / 32)
        full = kernel_block(sys, np.arange(64), np.arange(64))
        rows = np.array([[3, 17, 40], [0, 1, 63]])
        cols = np.array([[5, 9], [62, 2]])
        block = kernel_block(sys, rows, cols)
        assert block.shape == (2, 3, 2)
        for b in range(2):
            assert_array_equal(block[b], full[np.ix_(rows[b], cols[b])])

    @pytest.mark.parametrize("n,rho,guard", [(64, 0.25, np.pi / 32),
                                             (63, 0.25, 0.1),
                                             (128, 0.125, np.pi / 16)])
    def test_bins_conjugate_symmetric(self, n, rho, guard):
        bins = set(build_oob_system(n, rho, guard).oob_bins.tolist())
        assert {(n - k) % n for k in bins} == bins

    def test_empty_interval_rejected(self):
        with pytest.raises(InfeasibleError):
            build_oob_system(7, 0.9, 0.0)
        with pytest.raises(InfeasibleError):
            build_oob_system(64, 0.25, np.pi)
        with pytest.raises(ConfigurationError):
            build_oob_system(64, 0.25, -0.1)


class TestSelectColumns:
    # Column selection of the reference solver's explicit V.
    def test_empty_selection(self):
        sys = build_oob_system(16, 0.5, 0.0)
        assert select_columns(oob_matrix(sys), []).shape == (sys.num_bins, 0)

    def test_full_selection_returns_matrix(self):
        v = oob_matrix(build_oob_system(16, 0.5, 0.0))
        assert_array_equal(select_columns(v, range(16)), v)

    def test_columns_match_entry_formula(self):
        sys = build_oob_system(64, 0.25, 0.0)
        cols = select_columns(oob_matrix(sys), [3, 17])
        for j, m in enumerate((3, 17)):
            expected = np.exp(-2j * np.pi * m * sys.oob_bins / 64) / 8.0
            assert_allclose(cols[:, j], expected, atol=1e-14)

    def test_out_of_range_rejected(self):
        v = oob_matrix(build_oob_system(16, 0.5, 0.0))
        with pytest.raises(ValueError):
            select_columns(v, [16])
        with pytest.raises(ValueError):
            select_columns(v, [3, 3])


class TestLeastSquares:
    # The reference solver's complex least squares.
    def test_orthonormal_columns_invert_exactly(self):
        a = np.eye(4)[:, :2]
        rhs = a @ np.array([1.0, -2.0])
        assert_allclose(least_squares_apply(a, rhs), [1.0, -2.0], atol=1e-12)

    def test_round_trip_random_complex(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(45, 6)) + 1j * rng.normal(size=(45, 6))
        x0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert_allclose(least_squares_apply(a, a @ x0), x0, atol=1e-9)

    @given(st.integers(1, 8), st.integers(0, 100))
    @settings(deadline=None, max_examples=40)
    def test_round_trip_property(self, cols, seed):
        rng = np.random.default_rng(seed)
        rows = cols + int(rng.integers(0, 20))
        a = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        if np.linalg.svd(a, compute_uv=False)[-1] < 1e-6:
            return  # skip accidental near-singular draws
        x0 = rng.normal(size=cols)
        assert np.abs(least_squares_apply(a, a @ x0) - x0).max() < 1e-9

    def test_orthogonal_rhs_gives_zero(self):
        a = np.array([[1.0], [0.0]])
        rhs = np.array([0.0, 3.0])  # orthogonal to range(a)
        assert_allclose(least_squares_apply(a, rhs), [0.0], atol=1e-12)

    def test_rank_deficient_still_returns_min_norm(self, caplog):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with caplog.at_level("WARNING"):
            x = least_squares_apply(a, np.array([2.0, 2.0]))
        assert "rank-deficient" in caplog.text
        assert_allclose(x, [1.0, 1.0], atol=1e-12)  # min-norm split

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            least_squares_apply(np.ones((2, 3)), np.ones(2))

    def test_oob_round_trip_at_recovery_scale(self):
        sys = build_oob_system(64, 0.25, np.pi / 32)
        rng = np.random.default_rng(9)
        cols = select_columns(oob_matrix(sys), rng.choice(64, size=6, replace=False))
        x0 = rng.normal(size=6)
        assert np.abs(least_squares_apply(cols, cols @ x0) - x0).max() < 1e-9


class TestMinSingularValue:
    def test_identity(self):
        assert min_singular_value(np.eye(4)) == pytest.approx(1.0)

    def test_duplicated_column_is_singular(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert min_singular_value(a) < 1e-12

    def test_fold_columns_well_conditioned_under_sufficiency(self):
        # Four fold columns at OF=4 satisfy the full-rank sufficiency bound;
        # the Gram eigenvalues the library checks are their squares.
        sys = build_oob_system(64, 0.25, 0.0)
        folds = [5, 19, 33, 60]
        sigma = min_singular_value(select_columns(oob_matrix(sys), folds))
        assert sigma > 1e-8
        gram = kernel_block(sys, folds, folds)
        assert np.linalg.eigvalsh(gram)[0] == pytest.approx(sigma ** 2, rel=1e-9)


class TestMatrixInfNorm:
    def test_small_example(self):
        assert matrix_inf_norm([[1.0, -2.0], [0.0, 0.5]]) == pytest.approx(3.0)

    def test_zero_matrix(self):
        assert matrix_inf_norm(np.zeros((3, 3))) == 0.0

    def test_matches_double_loop(self):
        a = np.random.default_rng(3).normal(size=(5, 7))
        expected = max(sum(abs(a[i, j]) for j in range(7)) for i in range(5))
        assert matrix_inf_norm(a) == pytest.approx(expected)


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
        if edge == 0:
            return
        sums = w[:edge] + w[hop:]
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_values_in_unit_interval(self):
        w = tukey_window(48, 0.75).coefficients
        assert w.min() >= 0.0 and w.max() <= 1.0

    def test_odd_taper_rejected(self):
        with pytest.raises(ConfigurationError):
            tukey_window(10, 0.5)  # alpha*n = 5

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
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
        f = design_lowpass(np.pi / 4, np.pi / 16, 257)
        omega = np.linspace(np.pi / 4 + np.pi / 16, np.pi, 400)
        assert np.abs(dtft(f.taps, omega)).max() <= 10 ** (-60 / 20)

    def test_passband_ripple(self):
        f = design_lowpass(np.pi / 4, np.pi / 16, 257)
        omega = np.linspace(0, np.pi / 4, 400)
        ripple_db = 20 * np.log10(np.abs(dtft(f.taps, omega)))
        assert np.abs(ripple_db).max() <= 0.01

    def test_dc_gain_unity(self):
        f = design_lowpass(np.pi / 4, np.pi / 16, 257)
        assert abs(f.taps.sum() - 1.0) <= 1e-6

    def test_taps_exactly_symmetric(self):
        taps = design_lowpass(np.pi / 3, np.pi / 8, 129).taps
        assert_array_equal(taps, taps[::-1])

    def test_unmeetable_length_names_requirement(self):
        with pytest.raises(ConfigurationError, match="need at least"):
            design_lowpass(np.pi / 4, np.pi / 64, 257)

    def test_even_length_rejected(self):
        with pytest.raises(ConfigurationError):
            design_lowpass(np.pi / 4, np.pi / 16, 256)


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
