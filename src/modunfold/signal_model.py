"""Bandlimited test-signal generation.

A random-amplitude raised-cosine pulse train is the workhorse input: pulses
sit on a regular symbol grid, amplitudes are drawn i.i.d. from a seeded RNG,
and each pulse is truncated to a finite span.  The train can be sampled at
any oversampling factor relative to its two-sided bandwidth and its peak
amplitude estimated on a dense grid.  Time is measured in symbols: pulse m
peaks at t = m.  Every time in the model (support, sample period, peak
grid) would scale with a symbol period, so one would change only rounding.

Both the sampler and the peak estimate read the train on a grid of L points
per symbol, t = first + n/L.  When L is an integer, sample n = qL + r sums
taps h(j + r/L) of the pulse over the span+1 offsets j, which are shared by
every row q: the train is a polyphase tap sum, not a per-sample evaluation.
Other rates go through PulseTrain.evaluate, the evaluator at arbitrary t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_number, check_seed

_CHUNK = 1 << 18

# Least points per Nyquist sample period of the dense grid estimate_inf_norm
# scans; it rounds the points per symbol up to an integer.
_GRID_OVERSAMPLE = 64

# Largest accepted |amplitude|.  Squared errors must stay finite, and a
# failed recovery errs by far more than the peak: HoD at 2 bits on a
# 150-pulse train erred by about 1e9 amplitudes (an MSE near 1e217 at this
# bound), which still leaves some 90 orders below the float maximum 1.8e308.
_MAX_AMPLITUDE = 1e100

# Largest sample count nominal_sample_count grants and sample_signal takes:
# 256 MiB per float64 buffer.  The paper preset's largest, 50,000 pulses at
# OF 50, is 5,002,000 samples, 6.7 times below it, and its mse-sweep peaks
# near 345 MB, so a count at the cap asks for over 2 GB.  It caps the pulse
# count too, as a train sampled at OF >= 1 has a sample per pulse or more.
_MAX_SAMPLES = 2 ** 25

# Longest pulse span accepted, in symbols: 50 times the presets' 20.
# estimate_inf_norm and sample_signal loop in Python over the span + 1 tap
# offsets, each over the whole train plus the span, so a span costs about
# its square even on a short train: a 20-pulse train took 0.37 s to bound
# at span 1,000 against 1 ms at 20, and at 2,000,000 ran past 20 s.
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
        if max(abs(self.amp_low), abs(self.amp_high)) > _MAX_AMPLITUDE:
            raise ConfigurationError(
                f"amplitudes must lie within +-{_MAX_AMPLITUDE:g}, "
                f"got [{self.amp_low}, {self.amp_high}]")
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
        """Sum of truncated pulses at time(s) t; zero outside the support."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        for lo in range(0, t.size, _CHUNK):
            out[lo:lo + _CHUNK] = self._evaluate_chunk(t[lo:lo + _CHUNK])
        return out

    def _evaluate_chunk(self, t: np.ndarray) -> np.ndarray:
        spec = self.spec
        half = spec.span / 2.0
        acc = np.zeros_like(t)
        first = np.ceil(t - half).astype(int)
        for off in range(spec.span + 1):
            m = first + off
            live = (m >= 1) & (m <= spec.num_pulses) & (np.abs(t - m) <= half)
            if not live.any():
                continue
            acc[live] += self.amplitudes[m[live] - 1] * raised_cosine(
                t[live] - m[live], spec.beta)
        return acc


def generate_pulse_train(spec: PulseTrainSpec) -> PulseTrain:
    """Draw the pulse amplitudes (i.i.d. uniform on [amp_low, amp_high])."""
    rng = np.random.default_rng(spec.seed)
    amps = rng.uniform(spec.amp_low, spec.amp_high, spec.num_pulses)
    return PulseTrain(spec=spec, amplitudes=amps)


def _grid_rows(train: PulseTrain, rate: int, first_row: int, rows: int) -> np.ndarray:
    """The train at t = first_row + q + r/rate, as a (rows, rate) array [q, r].

    Pulse m meets row q at tap offset j = first_row + q - m, so one tap row
    h(j + r/rate) times the amplitudes shifted by j covers every row.  Offsets
    run in increasing pulse index, the order PulseTrain.evaluate sums in, so a
    time that is a binary fraction gives the evaluator's value bit for bit.
    """
    spec = train.spec
    half = spec.span // 2
    # shifted[i] is the amplitude of pulse first_row - half + i, zero off the train.
    shifted = np.zeros(rows + spec.span)
    lo = max(first_row - half, 1)
    hi = min(first_row + rows + half, spec.num_pulses + 1)
    if lo < hi:
        shifted[lo - first_row + half:hi - first_row + half] = train.amplitudes[lo - 1:hi - 1]
    phases = np.arange(rate) / rate
    out = np.zeros((rows, rate))
    term = np.empty_like(out)
    for j in range(half, -half - 1, -1):
        tau = j + phases
        taps = raised_cosine(tau, spec.beta)
        taps[np.abs(tau) > half] = 0.0
        np.multiply(shifted[half - j:half - j + rows, None], taps, out=term)
        out += term
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
        samples = _grid_rows(train, rate, 0, -(-num_samples // rate)).ravel()[:num_samples]
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
    per Nyquist sample period, and is summed by the polyphase path in blocks
    of about _CHUNK points.
    """
    lo, hi = train.support
    rate = math.ceil(_GRID_OVERSAMPLE * (1.0 + train.spec.beta))
    first, rows = int(lo), int(hi - lo) + 1
    step = max(1, _CHUNK // rate)
    return max(float(np.abs(_grid_rows(train, rate, q, min(step, first + rows - q))).max())
               for q in range(first, first + rows, step))
