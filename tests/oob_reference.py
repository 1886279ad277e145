"""Earlier forms of unfolding, kept as test references.

`lattice_counts` is the recovery `unfold` used before the batched Gram-kernel
solve: an explicit normalized out-of-band DFT matrix V, one complex
minimum-norm least-squares solve of V_S x = V d per segment, and a sequential
overlap-add that hands each segment's windowed tail to the next.  Tests check
the batched path against it.  `sample_bookkeeping` is the batched solve with
the per-sample rounding and integration `unfold` kept before it indexed its
books by flagged sample.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from modunfold.unfold import residue_pre_estimate, round_to_lattice, segment_starts

_EPS = np.finfo(float).eps


def oob_bins(system) -> np.ndarray:
    """The out-of-band bins, read from the projector, not from dsp's bin rule.

    P[m, 0] is the inverse DFT of the bins' indicator, so the DFT of the
    first column is that indicator up to rounding.
    """
    return np.flatnonzero(np.fft.fft(system.projector[:, 0]).real > 0.5)


def oob_matrix(system) -> np.ndarray:
    """V[k', m] = exp(-2j*pi*m*bins[k']/n) / sqrt(n)."""
    n = system.n
    return np.exp(-2j * np.pi * np.outer(oob_bins(system), np.arange(n)) / n) / np.sqrt(n)


def pre_estimate(diffed, fold_indices, system) -> np.ndarray:
    """Real part of the complex least-squares solve, scattered to length n."""
    idx = np.asarray(fold_indices, dtype=int)
    out = np.zeros(system.n)
    if idx.size == 0:
        return out
    columns = oob_matrix(system)[:, idx]
    rows = columns.shape[0]
    if np.linalg.svd(columns, compute_uv=False)[-1] <= rows * _EPS * np.linalg.norm(columns, 2):
        raise ValueError("fold-position columns are rank deficient")
    spectrum = (np.fft.fft(diffed) / np.sqrt(diffed.size))[oob_bins(system)]
    out[idx] = np.linalg.lstsq(columns, spectrum, rcond=rows * _EPS)[0].real
    return out


def lattice_counts(adc, config, system, window) -> np.ndarray:
    """Residue lattice index per sample, by the sequential per-segment loop."""
    n, hop, overlap = config.length, config.hop, config.overlap
    samples = np.concatenate([np.zeros(overlap), adc.quantized])
    flags = np.concatenate([np.zeros(overlap, dtype=bool), adc.folding_bits])
    starts = list(range(0, max(samples.size, n), hop))
    extent = starts[-1] + n
    samples = np.concatenate([samples, np.zeros(extent - samples.size)])
    flags = np.concatenate([flags, np.zeros(extent - flags.size, dtype=bool)])
    spacing = 2.0 * config.threshold
    jumps = np.zeros(extent)
    tail = np.zeros(overlap)
    for start in starts:
        segment = samples[start:start + n]
        prev = samples[start - 1] if start else 0.0
        diffed = window.coefficients * np.diff(segment, prepend=prev)
        current = pre_estimate(diffed, np.flatnonzero(flags[start:start + n]), system)
        # Overlap-add: the previous tail joins this segment's first overlap samples.
        corrected = current[:hop].copy()
        corrected[:overlap] += tail
        tail = current[hop:].copy()
        jumps[start:start + hop] = np.sign(corrected) * np.floor(
            np.abs(corrected) / spacing + 0.5)
    return np.cumsum(jumps)[overlap:overlap + adc.quantized.size].astype(np.int64)


def sample_bookkeeping(adc, config):
    """(residue, segments_total, segments_skipped) with per-sample books.

    The solve is unfold's own residue_pre_estimate.  Its per-flag jumps are
    scattered onto a record-length array, then rounded and integrated in
    blocks of 4,096 samples with the running count carried from block to
    block; the skipped segments are read from a record-length flag buffer.
    """
    n, overlap, hop = config.length, config.overlap, config.hop
    num_real = adc.quantized.size
    end = overlap + num_real
    starts = segment_starts(max(end, n), n, config.alpha)
    extent = starts[-1] + n
    diff = np.zeros(extent + 1)
    diff[overlap:end] = adc.quantized
    diff[overlap + 1:end + 1] -= adc.quantized
    flagged = np.flatnonzero(adc.folding_bits)
    values, _ = residue_pre_estimate(sliding_window_view(diff[:extent], n)[::hop],
                                     config.window.coefficients, starts, flagged + overlap,
                                     config.system)
    jumps = np.zeros(num_real)
    jumps[flagged] = values
    residue = np.empty(num_real)
    carry = 0
    for start in range(0, num_real, 4096):
        block = slice(start, start + 4096)
        counts = np.cumsum(round_to_lattice(jumps[block], config.threshold)) + carry
        carry = counts[-1]
        residue[block] = 2.0 * config.threshold * counts
    flags = np.zeros(extent, dtype=bool)
    flags[overlap:end] = adc.folding_bits
    skipped = ~sliding_window_view(flags, n)[::hop].any(axis=1)
    return residue, starts.size, int(np.count_nonzero(skipped))
