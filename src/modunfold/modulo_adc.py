"""Modulo ADC acquisition chain.

Ideal centered modulo folding into [-threshold, threshold), non-subtractive
triangular dither, a b-bit mid-rise uniform quantizer whose full scale is
sized so dithered folded samples can never overload, and a 1-bit flag stream
marking the samples where the folding residue changes.

`acquire` folds, dithers, quantizes and finds the residue lattice block by
block (`dsp.blocks`), writing into its preallocated outputs, so it holds the
three output streams plus block-sized temporaries at any record length.  A
block's first fold flag compares its lattice against the last value of the
block before.  The dither is the sum of two uniform streams; the second is
drawn from a copy of the first generator advanced by the record length, so
the draws are those of one generator asked for two full-length streams, and
do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import blocks
from .errors import (ConfigurationError, OverloadError, check_number, check_record,
                     check_seed)
from .signal_model import SampledSignal

# Relative slack on the overload test; the no-overload margin is exact in
# real arithmetic and only float rounding can nudge a sample past full scale.
_OVERLOAD_SLACK = 1e-12

# Largest bit depth of a quantizer or a prediction: past 53 bits the step is
# below float64's resolution, and 2^bits sizes the integers formed from it.
_MAX_BITS = 53

# Largest scale, a modulo threshold or a signal peak, that check_scale
# accepts: the quantizer's full scale, its step 2 * full_scale / 2^bits and
# the sums of the lowpass's FFT blocks (up to 2^21 samples) stay finite
# below about 1e302.
_MAX_RANGE = 1e300


def check_scale(name: str, value: float) -> None:
    """The one range rule for a scale, a finite real in (0, _MAX_RANGE]:

    the modulo threshold of AdcConfig and baselines.HodConfig, and the peak
    of the threshold law, the conventional prediction and the conventional
    ADC.
    """
    if not 0.0 < check_number(name, value) <= _MAX_RANGE:
        raise ConfigurationError(f"need {name} > 0 and at most {_MAX_RANGE:g}, got {value}")


@dataclass(frozen=True)
class AdcConfig:
    """Quantizer resolution, modulo threshold and dither seed."""

    bits: int
    threshold: float
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        # Two bits give a positive full scale.
        if not 2 <= check_number("bits", self.bits, integer=True) <= _MAX_BITS:
            raise ConfigurationError(f"need 2 <= bits <= {_MAX_BITS}, got {self.bits}")
        check_scale("threshold", self.threshold)
        check_seed("seed", self.seed)

    @property
    def full_scale(self) -> float:
        """Quantizer range: 2^b * threshold / (2^b - 2), i.e. threshold + step."""
        return 2 ** self.bits * self.threshold / (2 ** self.bits - 2)


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


def fold(x: np.ndarray, threshold: float) -> np.ndarray:
    """Centered modulo of a float array: ((x + threshold) mod 2*threshold) - threshold.

    The result lies in [-threshold, threshold) and x - fold(x) is an integer
    multiple of 2*threshold.  The threshold must be positive and finite, as
    AdcConfig and baselines.HodConfig check.
    """
    r = np.add(x, threshold)
    np.mod(r, 2.0 * threshold, out=r)
    r -= threshold
    # np.mod can return the modulus itself for tiny negative inputs.
    np.subtract(r, 2.0 * threshold, out=r, where=r >= threshold)
    return r


def triangle_dither(count: int, bits: int, full_scale: float, seed):
    """i.i.d. symmetric triangular dither with support (-step, step], in blocks.

    step = 2 * full_scale / 2^bits; each draw is the sum of two independent
    uniforms on (-step/2, step/2].  Returns an iterator over arrays of
    `count` draws in total, one per slice of dsp.blocks(count).  The n-th
    draw sums the n-th uniforms of a PCG64 seeded by `seed` and of a second
    one advanced by `count`: the two streams that one generator drawing
    `count` uniforms twice returns.  bits and full_scale are those of an
    AdcConfig or of baselines.conventional_adc, which check them: bits >= 2
    and a positive, finite full_scale.
    """
    half = full_scale / 2 ** bits
    first = np.random.Generator(np.random.PCG64(seed))
    second = np.random.Generator(np.random.PCG64(seed).advance(count))
    # uniform() is closed on the left; negating flips the interval to (-h, h].
    return (-(first.uniform(-half, half, size) + second.uniform(-half, half, size))
            for size in (block.stop - block.start for block in blocks(count)))


def quantize_uniform(x: np.ndarray, bits: int, full_scale: float) -> np.ndarray:
    """Mid-rise b-bit quantization of a float array on [-full_scale, full_scale].

    2^bits equal bins, left-closed with the last bin right-closed;
    reconstruction at bin centers, so |result - x| <= step/2.  Inputs beyond
    full scale raise OverloadError naming the first offending sample.  bits
    and full_scale are checked by the callers, as for triangle_dither.
    """
    limit = full_scale * (1.0 + _OVERLOAD_SLACK)
    bad = np.abs(x) > limit
    if bad.any():
        i = int(np.argmax(bad))
        raise OverloadError(index=i, value=float(x[i]), full_scale=full_scale)
    step = 2.0 * full_scale / 2 ** bits
    cell = np.clip(np.floor((x + full_scale) / step), 0, 2 ** bits - 1)
    return -full_scale + (cell + 0.5) * step


def acquire(signal: SampledSignal, config: AdcConfig) -> AdcOutput:
    """Fold, dither and quantize a sampled signal; emit the 1-bit fold flags.

    The first sample must already lie within [-threshold, threshold] so the
    residue stream starts from zero and no constant offset survives recovery.
    The fold flags and residue_truth do not depend on the dither, so the
    exact folded stream is this output with quantized = fold(samples).
    An OverloadError names its sample by the index in the whole record.
    """
    f = check_record("signal", signal.samples)
    lam_p = config.threshold
    if abs(f[0]) > lam_p:
        raise ConfigurationError(
            f"first sample {f[0]:.6g} exceeds the modulo threshold {lam_p:.6g}; "
            "recovery would be off by an unknown residue offset"
        )
    count = f.size
    quantized, residue = np.empty(count), np.empty(count)
    flags = np.empty(count, dtype=bool)
    dither = triangle_dither(count, config.bits, config.full_scale, config.seed)
    spacing = 2.0 * lam_p
    previous = 0
    for block in blocks(count):
        folded = fold(f[block], lam_p)
        try:
            quantized[block] = quantize_uniform(
                folded + next(dither), config.bits, config.full_scale)
        except OverloadError as err:
            raise OverloadError(index=block.start + err.index, value=err.value,
                                full_scale=err.full_scale) from None
        # The residue is a multiple of 2*threshold by definition; snap away
        # the float dust of fold(f) - f so ground-truth comparisons can be exact.
        lattice = np.round((folded - f[block]) / spacing).astype(np.int64)
        flags[block.start] = lattice[0] != previous
        np.not_equal(lattice[1:], lattice[:-1], out=flags[block.start + 1:block.stop])
        previous = lattice[-1]
        np.multiply(spacing, lattice, out=residue[block])
    return AdcOutput(quantized=quantized, folding_bits=flags,
                     residue_truth=residue, config=config)
