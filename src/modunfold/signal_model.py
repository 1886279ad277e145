"""Bandlimited test-signal generation.

A random-amplitude raised-cosine pulse train is the workhorse input: pulses
sit on a regular symbol grid, amplitudes are drawn i.i.d. from a seeded RNG,
and each pulse is truncated to a finite span.  The train can be sampled at
any oversampling factor relative to its two-sided bandwidth and its peak
amplitude estimated on a dense grid.  Time is measured in symbols: pulse m
peaks at t = m.  Every time in the model (support, sample period, peak
grid) would scale with a symbol period, so one would change only rounding.

Every value of the train comes from one tap sum, _tap_sum, at times
t = row + phase with an integer row: pulse m meets the time at tap offset
j = row - m, so each value sums span+1 products of a tap h(j + phase) and
the amplitude of pulse row - j.  The sampler at an integer L samples per
symbol and the peak estimate pass rows of symbols and the L phases r/L, so
one tap table serves every row; PulseTrain.evaluate splits arbitrary times
into their nearest integer and the exact remainder, one phase per row.  One
np.einsum contraction sums the products in offset order, from j = span/2
down, rounding each product and then each partial sum once, as a direct sum
over the pulses in index order does; _tap_sum says why einsum keeps that
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_number, check_seed

# Elements in any one temporary of a tap sum (the tap table, the gathered
# amplitudes, a block of outputs) and times per chunk of PulseTrain.evaluate.
# A per-time tap table holds span + 1 taps a time, so this sets the peak of a
# non-integer rate: at 2^14 the desk train at OF 4.3 (17,372 times) peaks at
# 1.9 MB; 2^16 synthesized the desk sweep about 14 % faster but peaked at
# 4.6 MB (2-core x86-64, numpy 2.4).
_CHUNK = 1 << 14

# Least points per Nyquist sample period of the dense grid estimate_inf_norm
# scans; it rounds the points per symbol up to an integer.
_GRID_OVERSAMPLE = 64

# Largest accepted |amplitude|; an interval's largest |amplitude| must also
# reach its inverse, 1e-100.  Squared errors must stay finite, and a failed
# recovery errs by far more than the peak: HoD at 2 bits on a 150-pulse
# train erred by about 1e9 amplitudes (an MSE near 1e217 at this bound),
# which still leaves some 90 orders below the float maximum 1.8e308.  They
# must stay normal floats too: at amplitudes near 1e-160 the MSE underflowed
# to 0, whose dB value log10 cannot take.  At 1e-100 the desk MSEs at 4 bits
# read 1e-203 to 1e-207, and 53 bits (modulo_adc._MAX_BITS) would lower them
# by some 2^98 to near 1e-237, still above the least normal float 2.2e-308.
_MAX_AMPLITUDE = 1e100

# Largest sample count nominal_sample_count grants and sample_signal takes:
# 256 MiB per float64 buffer.  The paper preset's largest, 50,000 pulses at
# OF 50, is 5,002,000 samples, 6.7 times below it, and its mse-sweep peaks
# near 345 MB, so a count at the cap asks for over 2 GB.  It caps the pulse
# count too, as a train sampled at OF >= 1 has a sample per pulse or more.
_MAX_SAMPLES = 2 ** 25

# Longest pulse span accepted, in symbols: 50 times the presets' 20.
# Each value sums span + 1 products, and the peak grid of estimate_inf_norm
# covers the train plus the span, so a span costs about its square even on a
# short train: a 20-pulse train took 0.17 s to bound at span 1,000 against
# 0.3 ms at 20 (2-core x86-64, numpy 2.4).
_MAX_SPAN = 1000


@dataclass(frozen=True)
class PulseTrainSpec:
    """Parameters of a random raised-cosine pulse train."""

    num_pulses: int
    beta: float = 1.0
    span: int = 20
    amp_low: float = -0.5
    amp_high: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= check_number("num_pulses", self.num_pulses, integer=True) <= _MAX_SAMPLES:
            raise ConfigurationError(f"need 1 to {_MAX_SAMPLES} pulses, got {self.num_pulses}")
        if not 0.0 <= check_number("beta", self.beta) <= 1.0:
            raise ConfigurationError(f"roll-off beta must be in [0, 1], got {self.beta}")
        if not 0 < check_number("span", self.span, integer=True) <= _MAX_SPAN or self.span % 2:
            raise ConfigurationError(
                f"span must be an even symbol count from 2 to the cap of {_MAX_SPAN}, "
                f"got {self.span}")
        if not check_number("amp_low", self.amp_low) < check_number("amp_high", self.amp_high):
            raise ConfigurationError("amplitude interval must be nonempty")
        if not 1 / _MAX_AMPLITUDE <= max(abs(self.amp_low), abs(self.amp_high)) <= _MAX_AMPLITUDE:
            raise ConfigurationError(
                f"the largest |amplitude| must lie within [{1 / _MAX_AMPLITUDE:g}, "
                f"{_MAX_AMPLITUDE:g}], got [{self.amp_low}, {self.amp_high}]")
        check_seed("seed", self.seed)


@dataclass(frozen=True)
class SampledSignal:
    """Real sample buffer plus the acquisition metadata needed for recovery."""

    samples: np.ndarray
    band_fraction: float  # occupied fraction of the sampling band; 1/oversampling


def raised_cosine(t: np.ndarray, beta: float) -> np.ndarray:
    """Unit-peak raised-cosine pulse values at a float array of times t, in symbols.

    The removable singularities at t = 0 and |t| = 1/(2*beta) are evaluated
    through their limits (1 and (pi/4)*sinc(1/(2*beta)) respectively).
    """
    if beta == 0.0:
        return np.sinc(t)
    singular = np.isclose(np.abs(t), 1.0 / (2.0 * beta), rtol=0.0, atol=1e-12)
    denom = np.where(singular, 1.0, 1.0 - (2.0 * beta * t) ** 2)
    out = np.sinc(t) * np.cos(np.pi * beta * t) / denom
    if singular.any():  # a subnormal beta puts the singularity at inf
        out[singular] = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * beta))
    return out


@dataclass(frozen=True)
class PulseTrain:
    """Realized pulse train: drawn amplitudes plus a closed-form evaluator."""

    spec: PulseTrainSpec
    amplitudes: np.ndarray

    @property
    def bandwidth(self) -> float:
        """Two-sided bandwidth: the pulse spectrum ends at pi*(1+beta)."""
        return 2.0 * np.pi * (1.0 + self.spec.beta)

    @property
    def support(self) -> tuple[float, float]:
        """Time interval outside which the truncated train is identically zero."""
        half = self.spec.span / 2.0
        return (1.0 - half, self.spec.num_pulses + half)

    def evaluate(self, t) -> np.ndarray:
        """Sum of truncated pulses at time(s) t; zero outside the support.

        Times must be finite reals, else ConfigurationError.  A time past the
        support is evaluated one symbol outside it, where no pulse reaches,
        so no time is cast to an integer out of range.
        """
        t = np.atleast_1d(np.asarray(t))
        if t.dtype.kind not in "iuf" or not np.isfinite(t).all():
            raise ConfigurationError("times must be finite real numbers")
        lo, hi = self.support
        t = np.clip(t, lo - 1.0, hi + 1.0, dtype=float)
        out = np.empty_like(t)
        for lo in range(0, t.size, _CHUNK):
            chunk = t[lo:lo + _CHUNK, None]
            rows = np.rint(chunk)  # chunk - rows is exact, and within [-1/2, 1/2]
            out[lo:lo + _CHUNK] = _tap_sum(self, rows.astype(int), chunk - rows).ravel()
        return out


def generate_pulse_train(spec: PulseTrainSpec) -> PulseTrain:
    """Draw the pulse amplitudes (i.i.d. uniform on [amp_low, amp_high])."""
    rng = np.random.default_rng(spec.seed)
    amps = rng.uniform(spec.amp_low, spec.amp_high, spec.num_pulses)
    return PulseTrain(spec=spec, amplitudes=amps)


def _tap_sum(train: PulseTrain, rows: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The train at t = rows + phases, as (R, P), for integer rows (R, 1).

    Phases are (1, P), shared by every row, or (R, 1), one per row.  Offsets
    j run from span/2 down, in increasing pulse index, the order of a direct
    sum.  Each phase must be exactly t - row, so that j + phase rounds t - m
    once, as t - m does.  Phases in [-1/2, 1 - 1e-12] keep the offsets
    +-(span/2 + 1) from rounding onto the span's edge, so the span + 1 offsets
    hold every tap a direct sum takes.

    A block takes one tap table h(j + phase), zero past |j + phase| > span/2,
    and one gather of the amplitudes of pulses row - j, and np.einsum sums
    their products over j.  Without optimize, on two or more outputs einsum
    loops over j outermost and adds each rounded product to each output's
    rounded partial sum, the order of a direct sum.  A lone output would run
    einsum's dot-product loop, which sums in another order, so it is padded
    to two.  A numpy build whose einsum fuses the multiply and add would move
    last bits; tests/test_signal_model.py's per-offset oracle names that.
    Blocks keep every temporary to about _CHUNK elements at any span.
    """
    spec = train.spec
    half = spec.span // 2
    offsets = np.arange(half, -half - 1, -1)[:, None, None]
    # padded[m] is pulse m's amplitude; take's clip sends off-train pulses to a 0.
    padded = np.concatenate(([0.0], train.amplitudes, [0.0]))
    out = np.empty(np.broadcast_shapes(rows.shape, phases.shape))
    count, width = out.shape
    cols = min(width, max(1, _CHUNK // offsets.size))
    step = max(1, _CHUNK // max(offsets.size, cols))
    for c in range(0, width, cols):
        for r in range(0, count, step):
            if r == 0 or phases.shape[0] > 1:  # shared phases: one table a column block
                tau = offsets + phases[r:r + step, c:c + cols]
                taps = raised_cosine(tau, spec.beta)
                taps[np.abs(tau) > half] = 0.0
            amps = padded.take(rows[r:r + step] - offsets, mode="clip")
            block = out[r:r + step, c:c + cols]
            if block.size == 1:  # not einsum's dot-product loop
                amps = np.repeat(amps, 2, axis=-1)
            block[...] = np.einsum("i...,i...->...", amps, taps)[:, :block.shape[1]]
    return out


def sample_signal(train: PulseTrain, oversampling: float, num_samples: int) -> SampledSignal:
    """Sample the train at `oversampling` times its Nyquist rate, from t = 0.

    At an integer number of samples per symbol, oversampling * (1 + beta),
    no greater than num_samples, the samples are the polyphase tap sum at
    exactly t = n/L; any other rate evaluates the train at n * sample period.
    """
    if not 1.0 <= check_number("oversampling", oversampling):
        raise ConfigurationError(f"oversampling factor must be >= 1, got {oversampling}")
    if not 1 <= check_number("num_samples", num_samples, integer=True) <= _MAX_SAMPLES:
        raise ConfigurationError(f"need 1 <= num_samples <= {_MAX_SAMPLES}, got {num_samples}")
    rate = oversampling * (1.0 + train.spec.beta)
    if rate.is_integer() and rate <= num_samples:
        rate = int(rate)
        rows = np.arange(-(-num_samples // rate))[:, None]
        samples = _tap_sum(train, rows, np.arange(rate)[None] / rate).ravel()[:num_samples]
    else:
        sample_period = 2.0 * np.pi / (oversampling * train.bandwidth)
        samples = train.evaluate(np.arange(num_samples) * sample_period)
    return SampledSignal(samples=samples, band_fraction=1.0 / oversampling)


def nominal_sample_count(spec: PulseTrainSpec, oversampling: float) -> int:
    """Samples needed to cover t in [0, num_pulses + span], at most _MAX_SAMPLES."""
    if not check_number("oversampling", oversampling) > 0.0:
        raise ConfigurationError(f"oversampling must be positive, got {oversampling}")
    duration = spec.num_pulses + spec.span
    nyquist_period = 2.0 * np.pi / (2.0 * np.pi * (1.0 + spec.beta))
    count = duration / (nyquist_period / oversampling)
    if not count <= _MAX_SAMPLES:
        raise ConfigurationError(
            f"oversampling {oversampling:g} over {spec.num_pulses} pulses asks for "
            f"{count:.4g} samples, above the cap of {_MAX_SAMPLES}")
    return int(math.ceil(count))


def estimate_inf_norm(train: PulseTrain) -> float:
    """Peak amplitude max|f(t)| over a dense grid covering the support.

    The grid holds L = ceil(64 * (1 + beta)) points per symbol, at least 64
    per Nyquist sample period, and is summed by _tap_sum in blocks of about
    _CHUNK points.
    """
    lo, hi = train.support
    rate = math.ceil(_GRID_OVERSAMPLE * (1.0 + train.spec.beta))
    rows = np.arange(int(lo), int(hi) + 1)[:, None]
    phases = np.arange(rate)[None] / rate
    step = max(1, _CHUNK // rate)
    return max(float(np.abs(_tap_sum(train, rows[q:q + step], phases)).max())
               for q in range(0, rows.size, step))
