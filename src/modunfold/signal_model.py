"""Bandlimited test-signal generation.

A random-amplitude raised-cosine pulse train is the workhorse input: pulses
sit on a regular symbol grid, amplitudes are drawn i.i.d. from a seeded RNG,
and each pulse is truncated to a finite span.  The train can be sampled at
any oversampling factor relative to its two-sided bandwidth and its peak
amplitude estimated on a dense grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_CHUNK = 1 << 18


@dataclass(frozen=True)
class PulseTrainSpec:
    """Parameters of a random raised-cosine pulse train."""

    num_pulses: int
    beta: float = 1.0
    span: int = 20
    symbol_period: float = 1.0
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
        if self.symbol_period <= 0.0:
            raise ConfigurationError("symbol_period must be positive")
        if not self.amp_low < self.amp_high:
            raise ConfigurationError("amplitude interval must be nonempty")


@dataclass(frozen=True)
class SampledSignal:
    """Real sample buffer plus the acquisition metadata needed for recovery."""

    samples: np.ndarray
    sample_period: float
    band_fraction: float  # bandwidth * sample_period / (2 pi); 1/oversampling
    bandwidth: float      # two-sided signal bandwidth, rad/s


def raised_cosine(t, beta: float, symbol_period: float = 1.0):
    """Unit-peak raised-cosine pulse value(s) at time(s) t.

    The removable singularities at t = 0 and |t| = T/(2*beta) are evaluated
    through their limits (1 and (pi/4)*sinc(1/(2*beta)) respectively).
    """
    tau = np.asarray(t, dtype=float) / symbol_period
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
        """Two-sided bandwidth: the pulse spectrum ends at pi*(1+beta)/T."""
        return 2.0 * np.pi * (1.0 + self.spec.beta) / self.spec.symbol_period

    @property
    def support(self) -> tuple[float, float]:
        """Time interval outside which the truncated train is identically zero."""
        half = self.spec.span / 2.0 * self.spec.symbol_period
        return (self.spec.symbol_period - half,
                self.spec.num_pulses * self.spec.symbol_period + half)

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
        tau = t / spec.symbol_period
        acc = np.zeros_like(t)
        first = np.ceil(tau - half).astype(int)
        for off in range(spec.span + 1):
            m = first + off
            live = (m >= 1) & (m <= spec.num_pulses) & (np.abs(tau - m) <= half)
            if not live.any():
                continue
            acc[live] += self.amplitudes[m[live] - 1] * raised_cosine(
                t[live] - m[live] * spec.symbol_period, spec.beta, spec.symbol_period)
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
    omega_m = train.bandwidth
    sample_period = 2.0 * np.pi / (oversampling * omega_m)
    t = np.arange(num_samples) * sample_period
    return SampledSignal(samples=train.evaluate(t),
                         sample_period=sample_period,
                         band_fraction=1.0 / oversampling,
                         bandwidth=omega_m)


def nominal_sample_count(spec: PulseTrainSpec, oversampling: float) -> int:
    """Samples needed to cover t in [0, (num_pulses + span) * T]."""
    duration = (spec.num_pulses + spec.span) * spec.symbol_period
    nyquist_period = 2.0 * np.pi / (2.0 * np.pi * (1.0 + spec.beta) / spec.symbol_period)
    return int(math.ceil(duration / (nyquist_period / oversampling)))


def estimate_inf_norm(train: PulseTrain, grid_oversample: int = 64) -> float:
    """Peak amplitude max|f(t)| over a dense grid covering the support.

    The grid spacing is the Nyquist sample period divided by
    `grid_oversample`; grids at multiples of a factor nest inside each other,
    so the estimate is nondecreasing when the factor is scaled up.
    """
    if grid_oversample < 8:
        raise ConfigurationError("grid_oversample must be at least 8")
    lo, hi = train.support
    step = (2.0 * np.pi / train.bandwidth) / grid_oversample
    total = int(math.ceil((hi - lo) / step)) + 1
    peak = 0.0
    for k0 in range(0, total, _CHUNK):
        grid = lo + step * np.arange(k0, min(k0 + _CHUNK, total))
        peak = max(peak, float(np.abs(train.evaluate(grid)).max()))
    return peak
