"""Modulo ADC acquisition chain.

Ideal centered modulo folding into [-threshold, threshold), non-subtractive
triangular dither, a b-bit mid-rise uniform quantizer whose full scale is
sized so dithered folded samples can never overload, and a 1-bit flag stream
marking the samples where the folding residue changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OverloadError
from .signal_model import SampledSignal

# Relative slack on the overload test; the no-overload margin is exact in
# real arithmetic and only float rounding can nudge a sample past full scale.
_OVERLOAD_SLACK = 1e-12


@dataclass(frozen=True)
class AdcConfig:
    """Quantizer resolution, modulo threshold and dither seed."""

    bits: int
    threshold: float
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        # Two bits give a positive full scale; past 53 the step is below float64.
        if not 2 <= self.bits <= 53:
            raise ConfigurationError(f"need 2 <= bits <= 53, got {self.bits}")
        if self.threshold <= 0.0:
            raise ConfigurationError("modulo threshold must be positive")

    @property
    def full_scale(self) -> float:
        """Quantizer range: 2^b * threshold / (2^b - 2), i.e. threshold + step."""
        return 2 ** self.bits * self.threshold / (2 ** self.bits - 2)

    @property
    def step(self) -> float:
        """Quantization bin width, 2 * full_scale / 2^b."""
        return 2.0 * self.full_scale / 2 ** self.bits


@dataclass(frozen=True)
class AdcOutput:
    """Quantized folded samples, 1-bit fold flags, and ground-truth residue.

    folding_bits[n] is True exactly when residue_truth[n] differs from
    residue_truth[n-1] (with residue_truth[-1] taken as 0), so the flagged
    indices are the nonzero entries of the first-differenced residue.
    residue_truth is carried for testing; a real converter emits only the
    first two streams.
    """

    quantized: np.ndarray
    folding_bits: np.ndarray
    residue_truth: np.ndarray
    config: AdcConfig


def fold(x, threshold: float):
    """Centered modulo: ((x + threshold) mod 2*threshold) - threshold.

    The result lies in [-threshold, threshold) and x - fold(x) is an integer
    multiple of 2*threshold.
    """
    if threshold <= 0.0:
        raise ConfigurationError("modulo threshold must be positive")
    x = np.asarray(x, dtype=float)
    r = np.mod(x + threshold, 2.0 * threshold) - threshold
    # np.mod can return the modulus itself for tiny negative inputs.
    r = np.where(r >= threshold, r - 2.0 * threshold, r)
    return float(r) if r.ndim == 0 else r


def triangle_dither(count: int, bits: int, full_scale: float, seed) -> np.ndarray:
    """i.i.d. symmetric triangular dither with support (-step, step].

    step = 2 * full_scale / 2^bits; each draw is the sum of two independent
    uniforms on (-step/2, step/2].
    """
    if bits < 1:
        raise ConfigurationError("bits must be positive")
    if full_scale <= 0.0:
        raise ConfigurationError("full_scale must be positive")
    half = full_scale / 2 ** bits
    rng = np.random.default_rng(seed)
    # uniform() is closed on the left; negating flips the interval to (-h, h].
    return -(rng.uniform(-half, half, count) + rng.uniform(-half, half, count))


def quantize_uniform(x, bits: int, full_scale: float):
    """Mid-rise b-bit quantization on [-full_scale, full_scale].

    2^bits equal bins, left-closed with the last bin right-closed;
    reconstruction at bin centers, so |result - x| <= step/2.  Inputs beyond
    full scale raise OverloadError naming the first offending sample.
    """
    if bits < 1:
        raise ConfigurationError("bits must be positive")
    if full_scale <= 0.0:
        raise ConfigurationError("full_scale must be positive")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    limit = full_scale * (1.0 + _OVERLOAD_SLACK)
    bad = np.abs(x) > limit
    if bad.any():
        i = int(np.argmax(bad))
        raise OverloadError(index=i, value=float(x[i]), full_scale=full_scale)
    step = 2.0 * full_scale / 2 ** bits
    cell = np.clip(np.floor((x + full_scale) / step), 0, 2 ** bits - 1)
    out = -full_scale + (cell + 0.5) * step
    return float(out[0]) if scalar else out


def acquire(signal: SampledSignal, config: AdcConfig, ideal: bool = False) -> AdcOutput:
    """Fold, dither and quantize a sampled signal; emit the 1-bit fold flags.

    The first sample must already lie within [-threshold, threshold] so the
    residue stream starts from zero and no constant offset survives recovery.
    With ideal=True the dither and quantizer are bypassed (the output is the
    exact folded signal), which isolates fold-recovery behaviour in tests.
    """
    f = np.asarray(signal.samples, dtype=float)
    if not np.isfinite(f).all():
        raise ConfigurationError(
            f"signal sample {int(np.argmin(np.isfinite(f)))} is not finite")
    lam_p = config.threshold
    if abs(f[0]) > lam_p:
        raise ConfigurationError(
            f"first sample {f[0]:.6g} exceeds the modulo threshold {lam_p:.6g}; "
            "recovery would be off by an unknown residue offset"
        )
    folded = fold(f, lam_p)
    if ideal:
        quantized = folded.copy()
    else:
        dither = triangle_dither(f.size, config.bits, config.full_scale, config.seed)
        quantized = quantize_uniform(folded + dither, config.bits, config.full_scale)
    # The residue is a multiple of 2*threshold by definition; snap away the
    # float dust of fold(f) - f so ground-truth comparisons can be exact.
    lattice = np.round((folded - f) / (2.0 * lam_p)).astype(np.int64)
    flags = np.diff(lattice, prepend=np.int64(0)) != 0
    return AdcOutput(quantized=quantized, folding_bits=flags,
                     residue_truth=2.0 * lam_p * lattice, config=config)
