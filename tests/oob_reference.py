"""Per-segment complex least-squares unfolding, kept as a test reference.

This is the recovery `unfold` used before the batched Gram-kernel solve: an
explicit normalized out-of-band DFT matrix V, one complex minimum-norm
least-squares solve of V_S x = V d per segment, and a sequential overlap-add
that hands each segment's windowed tail to the next.  Tests check the
batched path against it, and check its pieces against brute force.
"""

import logging

import numpy as np

log = logging.getLogger(__name__)

_EPS = np.finfo(float).eps


def dft_normalized(x) -> np.ndarray:
    """Length-N DFT with 1/sqrt(N) scaling: X[k] = sum x[m] e^{-j2πkm/N} / sqrt(N)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("dft_normalized expects a nonempty 1-D real sequence")
    return np.fft.fft(x) / np.sqrt(x.size)


def oob_matrix(system) -> np.ndarray:
    """V[k', m] = exp(-2j*pi*m*oob_bins[k']/n) / sqrt(n)."""
    n = system.n
    return np.exp(-2j * np.pi * np.outer(system.oob_bins, np.arange(n)) / n) / np.sqrt(n)


def select_columns(v, indices) -> np.ndarray:
    """Columns of an out-of-band matrix at distinct in-range sample indices."""
    idx = np.asarray(indices, dtype=int)
    if idx.size == 0:
        return np.empty((v.shape[0], 0), dtype=complex)
    if idx.min() < 0 or idx.max() >= v.shape[1]:
        raise ValueError(f"column index out of range 0..{v.shape[1] - 1}")
    if len(np.unique(idx)) != idx.size:
        raise ValueError("duplicate column indices")
    return v[:, idx]


def least_squares_apply(a, rhs) -> np.ndarray:
    """Minimum-norm least-squares solution of a @ x ~ rhs, tolerance rows*eps."""
    a = np.asarray(a)
    rhs = np.asarray(rhs)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty matrix")
    rows, cols = a.shape
    if cols > rows:
        raise ValueError(f"system has more unknowns ({cols}) than equations ({rows})")
    x, _, rank, sv = np.linalg.lstsq(a, rhs, rcond=rows * _EPS)
    if rank < cols:
        log.warning("rank-deficient least-squares system: rank %d < %d columns "
                    "(min singular value %.3e)", rank, cols, sv[-1])
    return x


def min_singular_value(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        raise ValueError("expected a nonempty matrix")
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def windowed_first_difference(segment, prev_last: float, window) -> np.ndarray:
    """window * (segment[n] - segment[n-1]) with segment[-1] = prev_last."""
    segment = np.asarray(segment, dtype=float)
    if segment.size != window.n:
        raise ValueError(f"segment length {segment.size} != window length {window.n}")
    return window.coefficients * np.diff(segment, prepend=prev_last)


def scaling_correction(current, prev_tail, alpha: float):
    """Overlap-add one segment: returns its committed [0, hop) and its tail.

    The previous segment's windowed tail is added over the first overlap
    samples, where the paired window edges sum to one.
    """
    current = np.asarray(current, dtype=float)
    n = current.size
    overlap = int(round(alpha * n / 2))
    if np.size(prev_tail) != overlap:
        raise ValueError(f"carry tail has {np.size(prev_tail)} samples, expected {overlap}")
    hop = n - overlap
    corrected = current[:hop].copy()
    corrected[:overlap] += prev_tail
    return corrected, current[hop:].copy()


def pre_estimate(diffed, fold_indices, system) -> np.ndarray:
    """Real part of the complex least-squares solve, scattered to length n."""
    idx = np.asarray(fold_indices, dtype=int)
    out = np.zeros(system.n)
    if idx.size == 0:
        return out
    columns = select_columns(oob_matrix(system), idx)
    if min_singular_value(columns) <= columns.shape[0] * _EPS * np.linalg.norm(columns, 2):
        raise ValueError("fold-position columns are rank deficient")
    spectrum = dft_normalized(diffed)[system.oob_bins]
    out[idx] = least_squares_apply(columns, spectrum).real
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
        diffed = windowed_first_difference(
            segment, samples[start - 1] if start else 0.0, window)
        current = pre_estimate(diffed, np.flatnonzero(flags[start:start + n]), system)
        corrected, tail = scaling_correction(current, tail, config.alpha)
        jumps[start:start + hop] = np.sign(corrected) * np.floor(
            np.abs(corrected) / spacing + 0.5)
    return np.cumsum(jumps)[overlap:overlap + adc.quantized.size].astype(np.int64)
