"""Reference recoveries the sliding-DFT method is compared against.

A conventional (non-folding) dithered ADC pipeline, and an Itoh-style
higher-order-difference unfolding that needs no fold flags: difference,
centered modulo, rounded anti-difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import _LPF_LENGTH, _LPF_TRANSITION, blocks, design_lowpass, filter_zero_delay
from .errors import ConfigurationError, check_number, check_record
from .modulo_adc import AdcConfig, check_scale, fold, quantize_uniform, triangle_dither
from .signal_model import SampledSignal


@dataclass(frozen=True)
class HodConfig:
    """Difference order and modulo threshold for the HoD baseline.

    Order 3 reproduces the expected regime split at desk scale: the
    third-difference quantization noise reliably crosses the threshold at
    4 bits (recovery collapses) while staying provably below it at 5 bits.
    """

    threshold: float
    order: int = 3

    def __post_init__(self):
        # A diverging order-K estimate grows like n^K/K!; its square can
        # overflow float64 past order 16 on a billion samples.
        if not 1 <= check_number("order", self.order, integer=True) <= 16:
            raise ConfigurationError(f"difference order must be in [1, 16], got {self.order}")
        check_scale("threshold", self.threshold)


def conventional_full_scale(bits: int, peak: float) -> float:
    """Range of the non-folding ADC: (1 + 2^-bits) * peak."""
    return (1.0 + 2.0 ** -bits) * peak


def conventional_adc(signal: SampledSignal, bits: int, peak: float, seed,
                     lpf_length: int = _LPF_LENGTH,
                     lpf_transition: float = _LPF_TRANSITION) -> np.ndarray:
    """Dithered b-bit quantization without folding, lowpassed to the signal band.

    The range leaves the dither a sliver of overload room at the very peak
    of the input, so dithered samples are saturated to the range before
    quantizing; the event is rare and costs at most half a bin of extra
    error on the affected samples.  Dither and quantizer run block by block
    (dsp.blocks), so the quantized record and the filtered output are the
    only full-length arrays.
    """
    AdcConfig(bits=bits, threshold=1.0, seed=seed)  # the bit and seed rules
    check_scale("peak", peak)
    lowpass = design_lowpass(signal.band_fraction * np.pi, lpf_transition, lpf_length)
    f = check_record("signal", signal.samples)
    full_scale = conventional_full_scale(bits, peak)
    quantized = np.empty(f.size)
    dither = triangle_dither(f.size, bits, full_scale, seed)
    for block, noise in zip(blocks(f.size), dither):
        dithered = np.clip(f[block] + noise, -full_scale, full_scale)
        quantized[block] = quantize_uniform(dithered, bits, full_scale)
    return filter_zero_delay(quantized, lowpass)


def hod_recover(quantized_modulo, config: HodConfig) -> np.ndarray:
    """Unfold modulo samples by K-th differences and centered re-folding.

    The K-th (config.order) first-difference of the samples is re-folded
    into [-threshold, threshold), threshold = config.threshold: when the
    differenced clean signal plus noise stays inside that interval, the
    fold removes exactly the residue jumps.  The implied residue differences
    are anti-differenced K times, re-snapped to the 2*threshold lattice after
    each integration.  All differences take the sample before the record to
    be zero, which anchors the result to f_hat[0] = quantized_modulo[0];
    that removes the usual unknown constant because the first sample is
    within the threshold by assumption.  The fold runs in blocks
    (dsp.blocks) and the integrations in place, so the output is the only
    full-length array left beside the input.
    """
    y = check_record("quantized", quantized_modulo)
    estimate = np.diff(y, n=config.order, prepend=np.zeros(config.order))
    for block in blocks(estimate.size):
        estimate[block] -= fold(estimate[block], config.threshold)
    # Lattice units stay floats: a diverging estimate outgrows int64 counts.
    spacing = 2.0 * config.threshold
    for _ in range(config.order):
        np.cumsum(estimate, out=estimate)
        estimate /= spacing
        np.round(estimate, out=estimate)
        estimate *= spacing
    return np.subtract(y, estimate, out=estimate)
