"""Shared numeric primitives.

The out-of-band system of an N-point window is held as its projector
P = V^H V, where V holds the normalized DFT rows of the out-of-band bins.
P is real and circulant, so it is stored as a read-only (N, N) strided view
over 2N floats: O(N) memory at any window length.  Every least-squares map
over fold positions S is then built from the projector rows P[S, :]: the
Gram block P[S, S], read from the first row as P is circulant, and the
right-hand side (P d)[S] = P[S, :] d.  One check, check_gram, finds the
fold sets that are not identifiable: the blocks whose diagonal-dominance
margins certify them pass, and eigvalsh decides the rest by the eigenvalue
rule.  It returns the margins too.  Each caller does its own linear
algebra on the blocks: recovery solves its Gram systems, and the
interference-norm estimate, which needs the whole map inv(P[S, S]) P[S, :],
inverts them after bounding each set's norm by those margins.
Also here: tapered-cosine (Tukey) windows and linear-phase FIR lowpass design
with zero-delay filtering.  The filter convolves by overlap-save in FFT blocks
whose size follows from the tap count alone, so its cost is linear in the
record; it reads its reflect-padded edges in place rather than from a padded
copy, so its temporaries stay block-sized however long the record grows.
`blocks` is the one block rule of the package's record-length loops
(acquisition, the conventional baseline, the lattice integration of
unfolding).  The module needs numpy only.  Everything is a pure function of
its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, InfeasibleError, check_number, check_record

# Longest window or lowpass accepted (tukey_window, build_oob_system,
# design_lowpass).  Their memory is linear in the length: traced peaks of
# 3.5 MB for a window and its system and 13.7 MB for a lowpass at 2^16, so
# about 60 and 220 MB at the cap.  Both presets' windows are 64 to 256
# samples and their lowpass 1,025 taps.
_MAX_LENGTH = 2 ** 20


@dataclass(frozen=True)
class TukeyWindow:
    """Tapered-cosine window whose overlapped edge samples sum to one.

    `alpha * n` must be an even integer so that the taper pairs up exactly:
    coefficients[i] + coefficients[i + n*(1 - alpha/2)] == 1 for every i in
    the leading taper.
    """

    n: int
    alpha: float
    coefficients: np.ndarray

    @property
    def edge(self) -> int:
        """Samples shared by consecutive segments (one window taper)."""
        return int(round(self.alpha * self.n / 2))

    @property
    def hop(self) -> int:
        """Segment advance that keeps exactly one taper of overlap."""
        return self.n - self.edge


@dataclass(frozen=True)
class OobSystem:
    """Out-of-band projector of an n-point window.

    oob_bins are the bins k whose frequency 2*pi*k/n lies strictly inside
    (band_fraction*pi + guard_width, 2*pi - band_fraction*pi - guard_width)
    for the band and guard passed to build_oob_system.  With V the
    normalized DFT rows of those bins,
    V[k', m] = exp(-2j*pi*m*oob_bins[k']/n)/sqrt(n), `projector` is V^H V.
    It is real because the bin set is conjugate-symmetric, and circulant, so
    it is held as a read-only (n, n) view whose rows are windows of one
    buffer of 2n floats: O(n) memory.  Callers gather the rows they need,
    projector[S], themselves; see unfold.residue_pre_estimate for why.
    """

    oob_bins: np.ndarray
    projector: np.ndarray

    @property
    def n(self) -> int:
        return self.projector.shape[0]

    @property
    def num_bins(self) -> int:
        return len(self.oob_bins)


def oob_bin_indices(n: int, band_fraction: float, guard_width: float) -> np.ndarray:
    """Sorted DFT bin indices strictly inside the out-of-band interval.

    Each bin is tested by its distance from DC, min(k, n - k), so k and n - k
    are kept or dropped together even where rounding lands on an edge.  The
    window length n must be an integer in [1, _MAX_LENGTH], band_fraction
    > 0 and guard_width >= 0.
    """
    if not 1 <= check_number("n", n, integer=True) <= _MAX_LENGTH:
        raise ConfigurationError(f"window length must be in [1, {_MAX_LENGTH}], got {n}")
    if not (check_number("band_fraction", band_fraction) > 0.0
            and check_number("guard_width", guard_width) >= 0.0):
        raise ConfigurationError(
            f"need band_fraction > 0 and guard_width >= 0, got "
            f"{band_fraction:.6g} and {guard_width:.6g}")
    k = np.arange(n)
    return k[2.0 * np.pi * np.minimum(k, n - k) / n > band_fraction * np.pi + guard_width]


def build_oob_system(n: int, band_fraction: float, guard_width: float) -> OobSystem:
    """Build the out-of-band projector for an n-point window.

    band_fraction is the occupied fraction of the sampling bandwidth
    (1/oversampling); guard_width widens the excluded band on both sides to
    absorb spectral leakage.  oob_bin_indices checks the three; no bin left
    out of band is an InfeasibleError.
    """
    bins = oob_bin_indices(n, band_fraction, guard_width)
    if bins.size == 0:
        raise InfeasibleError(
            f"no DFT bins fall in the out-of-band interval for n={n}, "
            f"band_fraction={band_fraction:.6g}, guard_width={guard_width:.6g}"
        )
    indicator = np.zeros(n)
    indicator[bins] = 1.0
    # P[m, m'] = kernel[(m - m') mod n].  Row 0 is r = kernel[(-j) mod n]
    # and row s is r rolled right by s: the window of [r, r] at offset n - s.
    kernel = np.fft.ifft(indicator).real
    row = kernel[-np.arange(n)]
    projector = sliding_window_view(np.concatenate([row, row]), n)[n:0:-1]
    return OobSystem(oob_bins=bins, projector=projector)


def fold_gram(system: OobSystem, positions) -> np.ndarray:
    """Gram blocks P[S, S], shape (b, k, k), for fold positions of shape (b, k).

    P is circulant, so P[S_a, S_b] = projector[0][(S_b - S_a) % n]: the same
    floats as the S columns of the rows P[S, :].  The differences lie in
    (-n, n), and a negative index counts from the end, which is the modulo.
    """
    return system.projector[0][positions[:, None, :] - positions[:, :, None]]


def check_gram(gram, n: int):
    """(margins, certified, singular) of Gram blocks of shape (b, k, k) over an n-point window.

    margins[a, i] = g - s_i is the diagonal of row i of block a less its
    off-diagonal abs row sum.  By Gershgorin, lambda_min >= min_i margins[a, i].
    singular lists (index, lambda_min, lambda_max), by index, for the blocks
    with lambda_min <= n*eps * lambda_max, both eigenvalues from eigvalsh:
    their fold values are not identifiable.  A caller's solve or inverse of
    a singular block means nothing.

    certified marks the blocks whose least margin exceeds (n + k(k+2))*eps
    plus the rounding of the margin itself, (k+1)*eps: an abs row sum of k
    terms, at most 2 where the margin is positive, then one subtraction.
    Such a block has lambda_min > (n + k(k+2))*eps, and lambda_max <= 1 as P
    is an orthogonal projector, so the rule cannot name it; the k(k+2)*eps
    above n*eps is slack for the rounding of eigvalsh, so the eigenvalues it
    would compute pass the rule too.  Certified blocks pass unchecked, and
    eigvalsh, which applies the rule, runs only on the rest, if any.
    """
    k = gram.shape[-1]
    # einsum sums short rows several times faster than sum(axis=2).
    margins = 2.0 * np.diagonal(gram, axis1=1, axis2=2) - np.einsum("bij->bi", np.abs(gram))
    floor = (n + k * (k + 3) + 1) * np.finfo(float).eps
    certified = margins.min(axis=1) > floor
    unsure = np.flatnonzero(~certified)
    if unsure.size == 0:
        return margins, certified, []
    eig = np.linalg.eigvalsh(gram[unsure])
    bad = eig[:, 0] <= n * np.finfo(float).eps * eig[:, -1]
    return margins, certified, [(int(i), e[0], e[-1]) for i, e in zip(unsure[bad], eig[bad])]


def tukey_window(n: int, alpha: float) -> TukeyWindow:
    """Tapered-cosine window of length n with roll-off alpha in (0, 1].

    Rejects (n, alpha) pairs where alpha*n is not an even integer >= 2, since
    the overlap-add correction relies on exact pairing of the two tapers.
    """
    if not 2 <= check_number("n", n, integer=True) <= _MAX_LENGTH:
        raise ConfigurationError(f"window length must be in [2, {_MAX_LENGTH}], got {n}")
    if not 0.0 < check_number("alpha", alpha) <= 1.0:
        raise ConfigurationError(f"roll-off alpha must be in (0, 1], got {alpha}")
    prod = alpha * n
    if abs(prod - round(prod)) > 1e-9 or round(prod) % 2 != 0 or round(prod) < 2:
        raise ConfigurationError(f"alpha*n must be an even integer >= 2, got {prod!r}")
    edge = int(round(prod / 2))
    i = np.arange(n)
    w = np.ones(n)
    head = i < edge
    tail = i >= n - edge
    w[head] = (1.0 + np.cos(2.0 * np.pi / alpha * (i[head] / n - alpha / 2.0))) / 2.0
    w[tail] = (1.0 + np.cos(2.0 * np.pi / alpha * (i[tail] / n - 1.0 + alpha / 2.0))) / 2.0
    return TukeyWindow(n=n, alpha=alpha, coefficients=w)


# Empirical transition width of the Blackman window, radians * taps.
_TAPER_TRANSITION = 11.0 * np.pi

# Default tap count and transition width (radians) of the band-limiting
# lowpass after recovery and after the conventional ADC.
_LPF_LENGTH = 1025
_LPF_TRANSITION = np.pi / 64


def design_lowpass(cutoff: float, transition: float, length: int) -> np.ndarray:
    """Windowed-sinc lowpass: flat to `cutoff`, >= 60 dB down past `cutoff + transition`.

    Returns the `length` taps, exactly symmetric (linear phase) with unit DC
    gain.  The ideal edge is placed mid-transition; the response is
    validated on a dense frequency grid (passband ripple <= 0.01 dB,
    stopband >= 60 dB).
    """
    if not 0.0 < check_number("cutoff", cutoff) < np.pi:
        raise ConfigurationError(f"cutoff must be in (0, pi), got {cutoff}")
    if not check_number("transition", transition) > 0.0:
        raise ConfigurationError(f"transition must be > 0, got {transition}")
    if cutoff + transition > np.pi:
        raise ConfigurationError(
            f"transition band ({cutoff:.4g}, {cutoff + transition:.4g}) must stay below pi"
        )
    if not 3 <= check_number("length", length, integer=True) <= _MAX_LENGTH or length % 2 == 0:
        raise ConfigurationError(f"tap count must be odd and in [3, {_MAX_LENGTH}], got {length}")
    # Compared as a product: the tap count a tiny transition needs overflows.
    if length * transition < _TAPER_TRANSITION:
        raise ConfigurationError(
            f"{length} taps cannot realize a {transition:.4g} rad transition; "
            f"need at least {_TAPER_TRANSITION / transition:.6g}"
        )
    ideal = cutoff + transition / 2.0
    m = np.arange(length) - (length - 1) // 2
    # A Blackman-windowed sinc attenuates about 74 dB, past the 60 dB asked.
    taps = (ideal / np.pi) * np.sinc(ideal * m / np.pi) * np.blackman(length)
    taps = taps / taps.sum()

    grid = max(8192, 8 * length)
    response = np.abs(np.fft.rfft(taps, 2 * grid))
    omega = np.pi * np.arange(grid + 1) / grid
    ripple = np.abs(response[omega <= cutoff] - 1.0).max()
    stop = response[omega >= cutoff + transition].max()
    if ripple > 10 ** (0.01 / 20.0) - 1.0 or stop > 1e-3:
        required = int(np.ceil(_TAPER_TRANSITION / transition)) | 1
        raise ConfigurationError(
            f"design misses spec (ripple {ripple:.2e}, stopband {stop:.2e}); "
            f"try at least {required + (required - 1) // 2 + 1} taps"
        )
    return taps


# Samples per block of every record-length loop, and the smallest
# overlap-save FFT block.  32 KiB of float64: a block and its spectrum stay
# below glibc's 128 KiB mmap threshold and inside L2.
_BLOCK = 4096


def blocks(count: int) -> list[slice]:
    """Consecutive slices of at most _BLOCK samples that cover range(count)."""
    return [slice(start, min(start + _BLOCK, count)) for start in range(0, count, _BLOCK)]


def filter_zero_delay(x, taps: np.ndarray) -> np.ndarray:
    """Filter `x` by symmetric lowpass `taps`, delay-compensated (output aligned to input).

    Edges are reflect-padded by half the filter length, so boundary
    transients do not leak into the output, and the padded signal is
    convolved by overlap-save: each FFT block of `block` points yields
    block - taps.size + 1 outputs.  The block is the smallest power of two
    of at least _BLOCK and twice the tap count, so at least half of every
    block is output.  The padded signal is never built: an inner block is a view
    of `x`, and only the first and last blocks, which reach into the
    padding, gather their reflected samples.  So every temporary but the
    output is block-sized, whatever the signal length, and a long record
    holds no full-length copies or spectra; every block reuses one spectrum
    and one output buffer.
    """
    x = check_record("filtered", x)
    if x.size < taps.size:
        raise ConfigurationError(
            f"signal ({x.size} samples) shorter than filter ({taps.size} taps)"
        )
    half = taps.size // 2
    block = max(_BLOCK, 1 << (2 * taps.size - 1).bit_length())
    spectrum = np.fft.rfft(taps, block)
    head = taps.size - 1  # leading outputs of a block that wrap around
    step = block - head
    last = x.size - 1
    out = np.empty(x.size)
    product, filtered = np.empty_like(spectrum), np.empty(block)  # reused by every block
    for start in range(0, x.size, step):
        # Padded samples start .. start + block are x[lo:hi], with indices
        # outside [0, last] reflected about 0 and last.
        lo, hi = start - half, min(start - half + block, x.size + half)
        if lo >= 0 and hi <= x.size:
            piece = x[lo:hi]
        else:
            piece = x[last - np.abs(last - np.abs(np.arange(lo, hi)))]
        np.fft.rfft(piece, block, out=product)
        product *= spectrum
        np.fft.irfft(product, block, out=filtered)
        out[start:start + step] = filtered[head:head + x.size - start]
    return out
