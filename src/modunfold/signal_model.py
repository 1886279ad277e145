"""Bandlimited test-signal generation.

A random-amplitude raised-cosine pulse train is the workhorse input: pulses
sit on a regular symbol grid, amplitudes are drawn i.i.d. from a seeded RNG,
and each pulse is truncated to a finite span.  The train can be sampled at
any oversampling factor relative to its two-sided bandwidth and its peak
amplitude estimated on a dense grid.  Time is measured in symbols: pulse m
peaks at t = m.  Every time in the model (support, sample period, peak
grid) would scale with a symbol period, so one would change only rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_CHUNK = 1 << 18

# Points per Nyquist sample period of the dense grid estimate_inf_norm scans.
_GRID_OVERSAMPLE = 64

# Largest accepted |amplitude|.  Squared errors must stay finite, and a
# failed recovery errs by far more than the peak: HoD at 2 bits on a
# 150-pulse train erred by about 1e9 amplitudes (an MSE near 1e217 at this
# bound), which still leaves some 90 orders below the float maximum 1.8e308.
_MAX_AMPLITUDE = 1e100


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
        if self.num_pulses < 1:
            raise ConfigurationError("num_pulses must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigurationError(f"roll-off beta must be in [0, 1], got {self.beta}")
        if self.span <= 0 or self.span % 2 != 0:
            raise ConfigurationError(f"span must be a positive even symbol count, got {self.span}")
        if not self.amp_low < self.amp_high:
            raise ConfigurationError("amplitude interval must be nonempty")
        if max(abs(self.amp_low), abs(self.amp_high)) > _MAX_AMPLITUDE:
            raise ConfigurationError(
                f"amplitudes must lie within +-{_MAX_AMPLITUDE:g}, "
                f"got [{self.amp_low}, {self.amp_high}]")


@dataclass(frozen=True)
class SampledSignal:
    """Real sample buffer plus the acquisition metadata needed for recovery."""

    samples: np.ndarray
    band_fraction: float  # occupied fraction of the sampling band; 1/oversampling


def raised_cosine(t, beta: float):
    """Unit-peak raised-cosine pulse value(s) at time(s) t, in symbols.

    The removable singularities at t = 0 and |t| = 1/(2*beta) are evaluated
    through their limits (1 and (pi/4)*sinc(1/(2*beta)) respectively).
    """
    tau = np.asarray(t, dtype=float)
    scalar = tau.ndim == 0
    tau = np.atleast_1d(tau)
    if beta == 0.0:
        out = np.sinc(tau)
    else:
        singular = np.isclose(np.abs(tau), 1.0 / (2.0 * beta), rtol=0.0, atol=1e-12)
        denom = np.where(singular, 1.0, 1.0 - (2.0 * beta * tau) ** 2)
        out = np.sinc(tau) * np.cos(np.pi * beta * tau) / denom
        if singular.any():  # a subnormal beta puts the singularity at inf
            out[singular] = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * beta))
    return float(out[0]) if scalar else out


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


def sample_signal(train: PulseTrain, oversampling: float, num_samples: int) -> SampledSignal:
    """Sample the train at `oversampling` times its Nyquist rate, from t = 0."""
    if oversampling < 1.0:
        raise ConfigurationError(f"oversampling factor must be >= 1, got {oversampling}")
    if num_samples <= 0:
        raise ConfigurationError("num_samples must be positive")
    sample_period = 2.0 * np.pi / (oversampling * train.bandwidth)
    return SampledSignal(samples=train.evaluate(np.arange(num_samples) * sample_period),
                         band_fraction=1.0 / oversampling)


def nominal_sample_count(spec: PulseTrainSpec, oversampling: float) -> int:
    """Samples needed to cover t in [0, num_pulses + span]."""
    duration = spec.num_pulses + spec.span
    nyquist_period = 2.0 * np.pi / (2.0 * np.pi * (1.0 + spec.beta))
    return int(math.ceil(duration / (nyquist_period / oversampling)))


def estimate_inf_norm(train: PulseTrain) -> float:
    """Peak amplitude max|f(t)| over a dense grid covering the support.

    The grid spacing is the Nyquist sample period divided by 64.
    """
    lo, hi = train.support
    step = (2.0 * np.pi / train.bandwidth) / _GRID_OVERSAMPLE
    total = int(math.ceil((hi - lo) / step)) + 1
    peak = 0.0
    for k0 in range(0, total, _CHUNK):
        grid = lo + step * np.arange(k0, min(k0 + _CHUNK, total))
        peak = max(peak, float(np.abs(train.evaluate(grid)).max()))
    return peak
