"""Sliding-DFT unfolding of modulo-sampled signals.

The quantized stream is cut into overlapping segments of one window length.
In a segment, the windowed first difference d of the folded samples is the
windowed difference of the signal, which is in band, plus the windowed
residue jumps at the flagged fold positions S.  Only the jumps survive the
out-of-band projector P = V^H V of the window (see `dsp.OobSystem`), so they
solve the real normal equations P[S, S] x = (P d)[S] of the out-of-band
least-squares system.  Segments with the same fold count share one batched
solve.  A value solved at position p of the segment that starts at `start`
belongs to sample start + p; the two window tapers covering an overlapped
sample sum to one, so adding every segment's values at their samples
restores the unwindowed jumps.  Those are rounded to integer counts of the
2*threshold lattice and integrated into the residue, and the unfolded
signal is the quantized stream minus the residue, lowpassed back to the
signal band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import (FirLowpass, OobSystem, TukeyWindow, build_oob_system,
                  design_lowpass, filter_zero_delay, kernel_block, tukey_window)
from .errors import ConfigurationError, InfeasibleError
from .modulo_adc import AdcOutput
from .signal_model import SampledSignal


@dataclass(frozen=True)
class RecoveryConfig:
    """Window, guard-band, threshold and lowpass parameters for unfolding.

    The window and out-of-band system are built once, here, by the functions
    that check their parameters (no out-of-band bin is an InfeasibleError).
    """

    length: int
    alpha: float
    guard_width: float
    threshold: float
    band_fraction: float
    lpf_length: int = 1025
    lpf_transition: float = np.pi / 64
    window: TukeyWindow = field(init=False, repr=False, compare=False)
    system: OobSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "window", tukey_window(self.length, self.alpha))
        object.__setattr__(self, "system", build_oob_system(
            self.length, self.band_fraction, self.guard_width))

    @property
    def overlap(self) -> int:
        """Samples shared by consecutive segments (one window taper)."""
        return self.window.edge

    @property
    def hop(self) -> int:
        return self.window.hop


@dataclass(frozen=True)
class UnfoldResult:
    """Recovered signal plus the residue estimate used to unfold it.

    segments_skipped counts the segments without a flagged sample, which
    need no solve.
    """

    recovered: np.ndarray
    residue: np.ndarray
    segments_total: int
    segments_skipped: int


def segment_starts(num_samples: int, length: int, alpha: float) -> np.ndarray:
    """Start indices of the overlapping segments covering a buffer.

    Starts advance by hop = length * (1 - alpha/2) while they stay below
    num_samples, so every sample index lands in some [start, start + hop);
    the caller zero-pads the buffer to the end of the last segment.
    """
    if length > num_samples:
        raise ConfigurationError(f"segment length {length} exceeds buffer {num_samples}")
    return np.arange(0, num_samples, tukey_window(length, alpha).hop)


def residue_pre_estimate(diffed, rows, cols, system: OobSystem) -> np.ndarray:
    """Windowed residue jumps at the flagged samples of a batch of segments.

    diffed[i] is the windowed first difference of segment i, shape
    (segments, n); (rows, cols) = np.nonzero(flags) locate its flagged
    samples in row-major order.  The values at the flagged positions S of a
    segment solve P[S, S] x = (P d)[S]; segments with equal fold counts are
    solved together.  Returns one value per flagged sample, in that order.

    A segment with more folds than out-of-band equations raises
    InfeasibleError; one whose Gram has smallest eigenvalue at most
    n*eps times its largest raises ConfigurationError.  Both name the first
    such segment by its row.
    """
    diffed = np.asarray(diffed, dtype=float)
    folds = np.bincount(rows, minlength=diffed.shape[0])
    values = np.zeros(cols.size)
    if folds.max(initial=0) > system.num_bins:
        row = int(np.argmax(folds > system.num_bins))
        raise InfeasibleError(
            f"segment {row}: {folds[row]} folds exceed the {system.num_bins} "
            "out-of-band equations; the oversampling factor is too low for "
            "this fold density")
    n = system.n
    oob_mask = np.zeros(n // 2 + 1)
    oob_mask[system.oob_bins[system.oob_bins <= n // 2]] = 1.0
    first = np.cumsum(folds) - folds
    singular = []
    for k in np.unique(folds[folds > 0]):
        segs = np.flatnonzero(folds == k)
        entries = first[segs, None] + np.arange(k)
        positions = cols[entries]
        projected = np.fft.irfft(np.fft.rfft(diffed[segs]) * oob_mask, n)
        rhs = np.take_along_axis(projected, positions, axis=1)
        gram = kernel_block(system, positions, positions)
        eig = np.linalg.eigvalsh(gram)
        bad = eig[:, 0] <= n * np.finfo(float).eps * eig[:, -1]
        if bad.any():
            singular.append((segs[bad][0], eig[bad][0]))
            continue
        values[entries] = np.linalg.solve(gram, rhs[..., None])[..., 0]
    if singular:
        row, eig = min(singular, key=lambda item: item[0])
        raise ConfigurationError(
            f"segment {row}: fold-position Gram is singular (eigenvalues "
            f"{eig[0]:.3e} to {eig[-1]:.3e}); residues are not identifiable")
    return values


def round_to_lattice(x, threshold: float):
    """Index of the nearest multiple of 2*threshold, ties away from zero.

    Returns int64 counts (a Python int for a scalar), so a residue built as
    2*threshold*counts sits exactly on the lattice.
    """
    if threshold <= 0.0:
        raise ConfigurationError("modulo threshold must be positive")
    x = np.asarray(x, dtype=float)
    out = (np.sign(x) * np.floor(np.abs(x) / (2.0 * threshold) + 0.5)).astype(np.int64)
    return int(out) if out.ndim == 0 else out


def recovery_lowpass(config: RecoveryConfig) -> FirLowpass:
    """Reconstruction lowpass for the unfolded stream.

    The quantization-noise power that survives filtering should match a
    brickwall at band_fraction*pi + guard_width, so the ideal edge is
    centered there whenever the guard band leaves room for the transition;
    with a narrow guard the flat region is pinned to the passband edge
    instead so the signal band stays untouched.
    """
    edge = config.band_fraction * np.pi + config.guard_width
    transition = config.lpf_transition
    if config.guard_width >= transition / 2.0:
        cutoff = edge - transition / 2.0
    else:
        cutoff = edge
    return design_lowpass(cutoff, transition, config.lpf_length)


def unfold(adc: AdcOutput, signal_meta: SampledSignal, config: RecoveryConfig) -> UnfoldResult:
    """Recover the unfolded signal from quantized modulo samples + fold flags.

    The stream is left-padded by one overlap of zeros before segmentation:
    the input is assumed to start from rest, and the padding guarantees the
    first real samples enter at full window weight so early folds get the
    same overlap-add as any other (the untapered head of the first window
    would otherwise attenuate them below the rounding threshold).  The
    residue is 2*threshold times the running sum of the rounded lattice
    counts, so where every rounding is right it equals residue_truth
    exactly.
    """
    if not math.isclose(config.threshold, adc.config.threshold, rel_tol=1e-12):
        raise ConfigurationError(
            f"recovery threshold {config.threshold:.6g} != "
            f"acquisition threshold {adc.config.threshold:.6g}")
    if not math.isclose(config.band_fraction, signal_meta.band_fraction, rel_tol=1e-9):
        raise ConfigurationError(
            f"recovery band fraction {config.band_fraction:.6g} != "
            f"signal band fraction {signal_meta.band_fraction:.6g}")
    if not np.isfinite(adc.quantized).all():
        raise ConfigurationError(
            f"quantized sample {int(np.argmin(np.isfinite(adc.quantized)))} is not finite")

    n, overlap, hop = config.length, config.overlap, config.hop
    num_real = adc.quantized.size
    starts = segment_starts(max(overlap + num_real, n), n, config.alpha)
    extent = starts[-1] + n
    samples = np.zeros(extent)
    samples[overlap:overlap + num_real] = adc.quantized
    flags = np.zeros(extent, dtype=bool)
    flags[overlap:overlap + num_real] = adc.folding_bits

    flag_view = sliding_window_view(flags, n)[::hop]
    diffed = config.window.coefficients * sliding_window_view(
        np.diff(samples, prepend=0.0), n)[::hop]
    rows, cols = np.nonzero(flag_view)
    values = residue_pre_estimate(diffed, rows, cols, config.system)
    jumps = np.bincount(starts[rows] + cols, weights=values, minlength=extent)
    counts = np.cumsum(round_to_lattice(jumps[overlap:overlap + num_real], config.threshold))
    residue = 2.0 * config.threshold * counts
    recovered = filter_zero_delay(adc.quantized - residue, recovery_lowpass(config))
    return UnfoldResult(recovered=recovered, residue=residue,
                        segments_total=starts.size,
                        segments_skipped=int(np.count_nonzero(~flag_view.any(axis=1))))
