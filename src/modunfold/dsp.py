"""Shared numeric primitives.

The out-of-band system of an N-point window is held as one real vector: the
circulant kernel of P = V^H V, where V holds the normalized DFT rows of the
out-of-band bins.  P[m, n] = kernel[(m - n) mod N] projects onto those bins,
so every least-squares map over fold positions S is a Gram block of it,
P[S, S], and its right-hand side a projection, (P d)[S].  Recovery and the
interference-norm estimate both read the same kernel.  Also here:
tapered-cosine (Tukey) windows and linear-phase FIR lowpass design with
zero-delay filtering.  Everything is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .errors import ConfigurationError, InfeasibleError


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
        """Number of samples in one taper (half the overlap region)."""
        return int(round(self.alpha * self.n / 2))

    @property
    def hop(self) -> int:
        """Segment advance that keeps exactly one taper of overlap."""
        return self.n - self.edge


@dataclass(frozen=True)
class OobSystem:
    """Out-of-band projector of an n-point window, as its circulant kernel.

    oob_bins are the bins k whose frequency 2*pi*k/n lies strictly inside
    (band_fraction*pi + guard_width, 2*pi - band_fraction*pi - guard_width)
    for the band and guard passed to build_oob_system.  With V the
    normalized DFT rows of those bins,
    V[k', m] = exp(-2j*pi*m*oob_bins[k']/n)/sqrt(n), the projector V^H V has
    entry (m, m') = kernel[(m - m') mod n]; the kernel is real because the
    bin set is conjugate-symmetric.
    """

    n: int
    oob_bins: np.ndarray
    kernel: np.ndarray

    @property
    def num_bins(self) -> int:
        return len(self.oob_bins)


@dataclass(frozen=True)
class FirLowpass:
    """Symmetric (linear-phase) FIR lowpass with unit DC gain."""

    taps: np.ndarray
    length: int


def oob_bin_indices(n: int, band_fraction: float, guard_width: float) -> np.ndarray:
    """Sorted DFT bin indices strictly inside the out-of-band interval."""
    k = np.arange(n)
    omega = 2.0 * np.pi * k / n
    lo = band_fraction * np.pi + guard_width
    hi = 2.0 * np.pi - band_fraction * np.pi - guard_width
    return k[(omega > lo) & (omega < hi)]


def build_oob_system(n: int, band_fraction: float, guard_width: float) -> OobSystem:
    """Build the out-of-band projector kernel for an n-point window.

    band_fraction is the occupied fraction of the sampling bandwidth
    (1/oversampling); guard_width widens the excluded band on both sides to
    absorb spectral leakage.  No bin left out of band is an InfeasibleError.
    """
    if band_fraction <= 0.0 or guard_width < 0.0:
        raise ConfigurationError(
            f"need band_fraction > 0 and guard_width >= 0, got "
            f"{band_fraction:.6g} and {guard_width:.6g}")
    bins = oob_bin_indices(n, band_fraction, guard_width)
    if bins.size == 0:
        raise InfeasibleError(
            f"no DFT bins fall in the out-of-band interval for n={n}, "
            f"band_fraction={band_fraction:.6g}, guard_width={guard_width:.6g}"
        )
    indicator = np.zeros(n)
    indicator[bins] = 1.0
    return OobSystem(n=n, oob_bins=bins, kernel=np.fft.ifft(indicator).real)


def kernel_block(system: OobSystem, rows, cols) -> np.ndarray:
    """P[rows, cols] of the out-of-band projector, batched over leading axes.

    rows (..., r) and cols (..., c) are window positions; the result has
    shape (..., r, c).  With rows == cols it is the Gram matrix of the fold
    columns V[:, rows].
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    return system.kernel[(rows[..., :, None] - cols[..., None, :]) % system.n]


def matrix_inf_norm(a) -> float:
    """Induced infinity norm: max over rows of the absolute row sum."""
    a = np.atleast_2d(np.asarray(a))
    if a.size == 0:
        raise ConfigurationError("expected a nonempty matrix")
    return float(np.abs(a).sum(axis=1).max())


def tukey_window(n: int, alpha: float) -> TukeyWindow:
    """Tapered-cosine window of length n with roll-off alpha in (0, 1].

    Rejects (n, alpha) pairs where alpha*n is not an even integer, since the
    overlap-add correction relies on exact pairing of the two tapers.
    """
    if n < 2:
        raise ConfigurationError("window length must be at least 2")
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(f"roll-off alpha must be in (0, 1], got {alpha}")
    prod = alpha * n
    if abs(prod - round(prod)) > 1e-9 or round(prod) % 2 != 0:
        raise ConfigurationError(f"alpha*n must be an even integer, got {prod!r}")
    edge = int(round(prod / 2))
    i = np.arange(n)
    w = np.ones(n)
    head = i < edge
    tail = i >= n - edge
    w[head] = (1.0 + np.cos(2.0 * np.pi / alpha * (i[head] / n - alpha / 2.0))) / 2.0
    w[tail] = (1.0 + np.cos(2.0 * np.pi / alpha * (i[tail] / n - 1.0 + alpha / 2.0))) / 2.0
    return TukeyWindow(n=n, alpha=alpha, coefficients=w)


def _cosine_taper(length: int) -> np.ndarray:
    # Three-term cosine-sum taper (0.42, 0.5, 0.08): ~74 dB sidelobes, enough
    # for the 60 dB stopband contract.  Built from a symmetric argument so the
    # taps come out exactly symmetric in floating point.
    m = np.arange(length) - (length - 1) / 2.0
    return (0.42
            + 0.50 * np.cos(2.0 * np.pi * m / (length - 1))
            + 0.08 * np.cos(4.0 * np.pi * m / (length - 1)))


# Empirical transition width of the cosine-sum taper, radians * taps.
_TAPER_TRANSITION = 11.0 * np.pi


def design_lowpass(cutoff: float, transition: float, length: int) -> FirLowpass:
    """Windowed-sinc lowpass: flat to `cutoff`, >= 60 dB down past `cutoff + transition`.

    The ideal edge is placed mid-transition; the response is validated on a
    dense frequency grid (passband ripple <= 0.01 dB, stopband >= 60 dB).
    """
    if not 0.0 < cutoff < np.pi:
        raise ConfigurationError(f"cutoff must be in (0, pi), got {cutoff}")
    if transition <= 0.0 or cutoff + transition > np.pi:
        raise ConfigurationError(
            f"transition band ({cutoff:.4g}, {cutoff + transition:.4g}) must stay below pi"
        )
    if length < 3 or length % 2 == 0:
        raise ConfigurationError(f"tap count must be odd and >= 3, got {length}")
    # Compared as a product: the tap count a tiny transition needs overflows.
    if length * transition < _TAPER_TRANSITION:
        raise ConfigurationError(
            f"{length} taps cannot realize a {transition:.4g} rad transition; "
            f"need at least {_TAPER_TRANSITION / transition:.6g}"
        )
    ideal = cutoff + transition / 2.0
    m = np.arange(length) - (length - 1) // 2
    taps = (ideal / np.pi) * np.sinc(ideal * m / np.pi) * _cosine_taper(length)
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
    return FirLowpass(taps=taps, length=length)


def filter_zero_delay(x, lowpass: FirLowpass) -> np.ndarray:
    """Lowpass `x` with group-delay compensation (output aligned to input).

    Edges are reflect-padded by half the filter length before convolving so
    boundary transients do not leak into the output.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError("expected a 1-D signal")
    if x.size < lowpass.length:
        raise ConfigurationError(
            f"signal ({x.size} samples) shorter than filter ({lowpass.length} taps)"
        )
    half = lowpass.length // 2
    padded = np.pad(x, half, mode="reflect")
    return fftconvolve(padded, lowpass.taps, mode="valid")
