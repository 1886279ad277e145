"""Sliding-DFT unfolding of modulo-sampled signals.

The quantized stream is cut into overlapping segments of one window length.
In a segment, the windowed first difference d of the folded samples is the
windowed difference of the signal, which is in band, plus the windowed
residue jumps at the flagged fold positions S.  Only the jumps survive the
out-of-band projector P = V^H V of the window (see `dsp.OobSystem`), so they
solve the real normal equations P[S, S] x = (P d)[S] of the out-of-band
least-squares system.  Segments with the same fold count k form one group,
checked as one batch by `dsp.check_gram`, which finds the segments whose
jumps are not identifiable, and solved as one batch by np.linalg.solve,
which forms no inverse.  A group takes one of two solves:

- direct: both sides come from the projector rows P[S, :], gathered from
  the O(n) projector view; the Gram block is their S columns and
  (P d)[S] = P[S, :] d, so no transform of d is taken, and the k x k Gram
  is solved;
- complement: with W the n x r orthonormal basis of the r = n - num_bins
  bins not out of band (`dsp.inband_basis`), P = I - W W^T, so P[S, S] =
  I - W_S W_S^T is a rank-r update of the identity.  (P d)[S] is
  d[S] - W_S (W^T d), and by Woodbury x = y + W_S M^-1 W_S^T y with
  y = (P d)[S] and M = I_r - W_S^T W_S, an r x r solve.

At high oversampling r is small (3 at desk OF 40-50, 5 at OF 24-32) while
a segment holds up to 27 folds, so the complement turns the densest
groups' k x k systems into r x r ones and gathers no projector rows.  It
has more steps, so small groups lose by it: a group takes it when
k > 2r, where it was measured faster (see _COMPLEMENT).  The
identifiability rule is the same on both: for k > r, M has the Gram's
eigenvalues but for the Gram's k - r unit ones, so the Gram's largest is
1, M's margins certify by the same floor, and an uncertified block is
singular at lambda_min(M) <= n*eps.

A value solved at position p of the segment that starts at `start`
belongs to the flag at sample start + p; the two window tapers covering
an overlapped sample sum to one, so adding the one or two segments'
values at each flag restores its unwindowed jump.  Those are rounded to
integer counts of the 2*threshold lattice and integrated into the
residue, and the unfolded signal is the quantized stream minus the
residue, lowpassed back to the signal band.

Besides its two outputs, a call holds one more record-length float array
at a time: the first difference while the solve runs, then the quantized
stream minus the residue that the lowpass reads.  The books are kept per
flagged sample, not per sample: the sorted flag positions give each
segment's fold count and fold set, the solve returns one jump per flag,
and only those are rounded and integrated before the running counts are
spread over the samples into the residue.  Other temporaries are per flag,
per segment, per fold-count group or per filter block.  The windowed
difference is never stored: each fold-count group windows its own rows as
it gathers them, the same products a windowed copy of every segment would
hold.  The solve batches stay whole, one per fold count over the whole
record: cutting the record into blocks of segments would split them and
multiply the checks and solves (26 groups in a desk OF-50 call), and the
largest direct group's projector rows there take 0.74 of a record length
(seed 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import (_LPF_LENGTH, _LPF_TRANSITION, _MAX_LENGTH, OobSystem, TukeyWindow,
                  build_oob_system, check_gram, design_lowpass, filter_zero_delay, fold_gram,
                  inband_basis, tukey_edge, tukey_window)
from .errors import ConfigurationError, InfeasibleError, check_number, check_record
from .modulo_adc import AdcOutput
from .signal_model import _MAX_SAMPLES, SampledSignal


@dataclass(frozen=True)
class RecoveryConfig:
    """Window, guard-band, threshold and lowpass parameters for unfolding.

    The window, out-of-band system and reconstruction lowpass taps are built
    once, here, by the functions that check their parameters (no out-of-band
    bin is an InfeasibleError; an unrealizable lowpass a ConfigurationError).

    The lowpass should pass as much quantization noise as a brickwall at
    band_fraction*pi + guard_width, so its ideal edge is centered there
    whenever the guard band leaves room for the transition; with a narrow
    guard the flat region is pinned to the passband edge instead so the
    signal band stays untouched.
    """

    length: int
    alpha: float
    guard_width: float
    threshold: float
    band_fraction: float
    lpf_length: int = _LPF_LENGTH
    lpf_transition: float = _LPF_TRANSITION
    window: TukeyWindow = field(init=False, repr=False, compare=False)
    system: OobSystem = field(init=False, repr=False, compare=False)
    lowpass: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_number("threshold", self.threshold)  # its range: unfold's match
        object.__setattr__(self, "window", tukey_window(self.length, self.alpha))
        object.__setattr__(self, "system", build_oob_system(
            self.length, self.band_fraction, self.guard_width))
        edge = self.band_fraction * np.pi + self.guard_width
        transition = check_number("lpf_transition", self.lpf_transition)
        cutoff = edge - transition / 2.0 if self.guard_width >= transition / 2.0 else edge
        object.__setattr__(self, "lowpass", design_lowpass(
            cutoff, transition, self.lpf_length))

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
    num_samples must be an integer from 1 to the longest record
    signal_model.sample_signal makes plus the longest window
    (dsp._MAX_LENGTH), so any such record passes after unfold's padding.
    """
    cap = _MAX_SAMPLES + _MAX_LENGTH
    if not 1 <= check_number("num_samples", num_samples, integer=True) <= cap:
        raise ConfigurationError(f"need 1 <= num_samples <= {cap}, got {num_samples}")
    return np.arange(0, num_samples, length - tukey_edge(length, alpha))


# A fold-count group of k folds is solved in the r-dimensional complement
# when k > _COMPLEMENT * r.  Complement time over direct time, per group at
# n 64 (random fold sets, median of 40, r 3 to 19, 10 to 1,000 segments):
# 1.07-1.60 at k = r; at k = 2r + 1, 0.33-0.85 from 100 segments up and
# 0.43-1.29 at 10.  Whole desk calls at OF 50 took 0.65 of the direct-only
# time at k > r and k > 2r, 0.70 at k > 3r (seed 1), and 0.70 at k > 2r
# (seed 11); at OF 4-16 k > 2r was within 3 % of it.
_COMPLEMENT = 2


def residue_pre_estimate(differences, window, starts, flags,
                         system: OobSystem) -> tuple[np.ndarray, np.ndarray]:
    """Residue jumps at the flagged samples and fold counts of a batch of segments.

    differences[i] is the (unwindowed) first difference of the segment that
    starts at sample starts[i], shape (segments, n), and may be a strided
    view; window holds the n taper coefficients; flags holds the sorted
    flagged samples, in the coordinates of starts.  With d the windowed
    difference of a segment, the values at its flagged positions S solve
    P[S, S] x = (P d)[S].  Segments with equal fold counts k are solved as
    one batch, found by one stable sort of the counts, and each group's rows
    are windowed as they are gathered, so no windowed copy of the batch is
    made.  A group with k <= 2r, r = n - num_bins, gathers the projector
    rows P[S, :] and solves the k x k Gram; one with k > 2r builds the
    in-band basis W (dsp.inband_basis, once per call, only if some group
    needs it) and solves the r x r system M = I_r - W_S^T W_S by Woodbury,
    as the module docstring derives.  Returns (jumps, folds): jumps[j] sums
    the values solved at flags[j] by the one or two segments that hold it,
    which is its unwindowed jump, and folds[i] counts the flags of segment i.

    A segment with more folds than out-of-band equations, or one whose Gram
    has smallest eigenvalue at most n*eps times its largest
    (dsp.check_gram), raises InfeasibleError: its jumps are not
    identifiable at this oversampling.  Both name the first such segment by
    its row.  A complement group is checked on M, whose smallest eigenvalue
    is the Gram's, against the Gram's largest, 1, and the message names
    those two.
    """
    lo = np.searchsorted(flags, starts)
    folds = np.searchsorted(flags, starts + system.n) - lo
    jumps = np.zeros(flags.size)
    most = folds.max(initial=0)
    if most > system.num_bins:
        row = int(np.argmax(folds > system.num_bins))
        raise InfeasibleError(
            f"segment {row}: {folds[row]} folds exceed the {system.num_bins} "
            "out-of-band equations; the oversampling factor is too low for "
            "this fold density")
    # The segments in increasing fold count, each count's run in increasing
    # row order (a stable sort); order[bounds[k - 1]:bounds[k]] has count k.
    order = np.argsort(folds, kind="stable")
    bounds = np.searchsorted(folds[order], np.arange(1, most + 2))
    rank = system.n - system.num_bins
    basis = None
    singular = []
    for k in np.flatnonzero(np.diff(bounds)) + 1:
        segs = order[bounds[k - 1]:bounds[k]]
        ids = lo[segs, None] + np.arange(k)
        positions = flags[ids] - starts[segs, None]
        diffed = differences[segs]
        diffed *= window
        # The arrays of either solve are built and dropped here, not returned
        # by a helper: such a helper kept the previous group's arrays alive
        # through the next gather, which raised minor page faults tenfold and
        # cost about 20 % at n 256.  Each group is checked before its solve:
        # solving first raised the median peak resident set of perfbench sweep
        # by 1.4 and 3.1 MB in two sets of 10 pairs (2 cores).
        if k > _COMPLEMENT * rank:
            if basis is None:
                basis = inband_basis(system)
            cols = basis[positions]  # W_S, (b, k, r)
            cols_t = cols.transpose(0, 2, 1)
            # (P d)[S] = d[S] - W_S (W^T d), then Woodbury's r x r solve.
            rhs = np.take_along_axis(diffed, positions, 1)[..., None]
            rhs -= cols @ (diffed @ basis)[..., None]
            gram = np.eye(rank) - cols_t @ cols
            bad = check_gram(gram, system.n, top=1.0)[2]
            values = rhs + cols @ np.linalg.solve(gram, cols_t @ rhs)
        else:
            rhs = system.projector[positions] @ diffed[..., None]
            gram = fold_gram(system, positions)
            bad = check_gram(gram, system.n)[2]
            values = np.linalg.solve(gram, rhs)
        singular += [(segs[i], low, high) for i, low, high in bad]
        # Two segments of one group can share a flag, so the sum is unbuffered;
        # flat indices take numpy's fast path, 2-D ones were 6 times slower.
        np.add.at(jumps, ids.ravel(), values.ravel())
    if singular:
        row, low, high = min(singular)
        raise InfeasibleError(
            f"segment {row}: fold-position Gram is singular (eigenvalues "
            f"{low:.3e} to {high:.3e}); residues are not identifiable")
    return jumps, folds


def round_to_lattice(x: np.ndarray, threshold: float) -> np.ndarray:
    """Index of the nearest multiple of 2*threshold, ties away from zero.

    Returns int64 counts of a float array, so a residue built as
    2*threshold*counts sits exactly on the lattice.  The threshold must be
    positive and finite: unfold passes the recovery threshold once it has
    matched it to the acquisition's, which AdcConfig checks.
    """
    return (np.sign(x) * np.floor(np.abs(x) / (2.0 * threshold) + 0.5)).astype(np.int64)


def unfold(adc: AdcOutput, signal_meta: SampledSignal, config: RecoveryConfig) -> UnfoldResult:
    """Recover the unfolded signal from quantized modulo samples + fold flags.

    The stream is left-padded by one overlap of zeros before segmentation:
    the input is assumed to start from rest, and the padding guarantees the
    first real samples enter at full window weight so early folds get the
    same overlap-add as any other (the untapered head of the first window
    would otherwise attenuate them below the rounding threshold).  The
    residue is 2*threshold times the running sum of the rounded lattice
    counts, so where every rounding is right it equals residue_truth
    exactly.  The record is at rest at both ends: its first sample lies
    within the threshold (acquire checks this), and a sample_signal record
    ends at 0, so the true counts sum to 0.  A residue[-1] != 0 thus means
    wrong roundings, an odd number of them where each is one step off; an
    even number can cancel, and end at 0 unseen.  A segment whose jumps
    are not identifiable (too many folds, or a singular Gram; see
    residue_pre_estimate) raises InfeasibleError, so an experiment grid
    marks its point skipped.  A record too long for segment_starts once
    padded, longer than any sample_signal makes, raises ConfigurationError.
    """
    quantized = check_record("quantized", adc.quantized)
    if np.shape(adc.folding_bits) != quantized.shape:
        raise ConfigurationError(f"need fold flags of the samples' shape {quantized.shape}, "
                                 f"got {np.shape(adc.folding_bits)}")
    if not math.isclose(config.threshold, adc.config.threshold, rel_tol=1e-12):
        raise ConfigurationError(
            f"recovery threshold {config.threshold:.6g} != "
            f"acquisition threshold {adc.config.threshold:.6g}")
    if not math.isclose(config.band_fraction, signal_meta.band_fraction, rel_tol=1e-9):
        raise ConfigurationError(
            f"recovery band fraction {config.band_fraction:.6g} != "
            f"signal band fraction {signal_meta.band_fraction:.6g}")

    residue, segments, skipped = _residue(quantized, adc.folding_bits, config)
    recovered = filter_zero_delay(quantized - residue, config.lowpass)
    return UnfoldResult(recovered=recovered, residue=residue,
                        segments_total=segments, segments_skipped=skipped)


def _residue(quantized: np.ndarray, flags, config: RecoveryConfig) -> tuple[np.ndarray, int, int]:
    """unfold's residue, segment count and skipped-segment count, from the checked record.

    The books are kept over the flagged samples alone, in padded
    coordinates: residue_pre_estimate returns one summed jump per flag and
    one fold count per segment, the rounded counts are integrated over the
    flags, and the residue holds each running count from its flag up to the
    next.  A function of its own so that its temporaries are freed before
    the lowpass runs.
    """
    n, overlap = config.length, config.overlap
    end = overlap + quantized.size
    starts = segment_starts(max(end, n), n, config.alpha)
    extent = starts[-1] + n
    # First difference of the zero-padded stream; the step back to zero at
    # `end` lies inside the last segment.
    diff = np.empty(extent)
    diff[:overlap] = 0.0
    diff[overlap] = quantized[0]
    np.subtract(quantized[1:], quantized[:-1], out=diff[overlap + 1:end])
    diff[end:] = 0.0
    diff[end] -= quantized[-1]
    padded = np.flatnonzero(flags)
    padded += overlap
    jumps, folds = residue_pre_estimate(sliding_window_view(diff, n)[::config.hop],
                                        config.window.coefficients, starts, padded,
                                        config.system)
    del diff  # freed before the residue is allocated
    counts = np.cumsum(round_to_lattice(jumps, config.threshold))
    levels = 2.0 * config.threshold * np.concatenate(([0], counts))
    residue = np.repeat(levels, np.diff(padded, prepend=overlap, append=end))
    return residue, starts.size, int(np.count_nonzero(folds == 0))
