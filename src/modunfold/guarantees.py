"""Closed-form performance predictions and sufficiency checks.

Calculators for the guard-bin count, the minimal oversampling factor that
keeps the fold-position least-squares systems full rank, the modulo
threshold that realizes it, the bit-depth margin driven by the worst-case
off-support interference norm (estimated by Monte Carlo on the same
out-of-band kernel recovery solves with), and the predicted mean-squared
error of the folded and conventional pipelines.
"""

from __future__ import annotations

import math

import numpy as np

from .dsp import build_oob_system, kernel_block
from .errors import ConfigurationError, InfeasibleError

# Fold sets solved per batched Gram solve in estimate_interference_norm.
_TRIAL_BATCH = 512


def guard_bin_count(guard_width: float, length: int) -> int:
    """DFT bins excluded by the leakage guard: 2 * ceil(guard_width * N / pi)."""
    if guard_width < 0.0:
        raise ConfigurationError("guard_width must be nonnegative")
    return 2 * math.ceil(guard_width * length / np.pi)


def min_oversampling_for_folds(length: int, max_folds: int, guard_bins: int) -> float:
    """Minimal oversampling keeping every fold system full rank: N/(N - max_folds - guard_bins).

    max_folds is the largest per-segment fold count the recovery must solve
    for; the bound is signal-dependent through it.
    """
    denom = length - max_folds - guard_bins
    if denom <= 0:
        raise InfeasibleError(
            f"{max_folds} folds plus {guard_bins} guard bins exhaust a "
            f"{length}-sample window")
    return length / denom


def min_oversampling(length: int, guard_bins: int) -> float:
    """Signal-independent sufficient oversampling: 3 / (1 - guard_bins/N)."""
    if guard_bins >= length:
        raise InfeasibleError(f"{guard_bins} guard bins exhaust a {length}-sample window")
    return 3.0 / (1.0 - guard_bins / length)


def required_threshold(peak: float, oversampling: float, guard_bins: int,
                       length: int) -> float:
    """Modulo threshold realizing the sufficiency condition:

    peak / (oversampling * (1 - guard_bins/N) - 2).
    """
    if peak <= 0.0:
        raise ConfigurationError("peak amplitude must be positive")
    denom = oversampling * (1.0 - guard_bins / length) - 2.0
    if denom <= 0.0:
        raise InfeasibleError(
            f"oversampling {oversampling:g} with {guard_bins} guard bins over "
            f"{length} samples cannot support any positive threshold")
    return peak / denom


def required_bits(interference_norm: float) -> float:
    """Bit depth beyond which lattice rounding is guaranteed exact:

    bits > 3 + log2(1 + 0.75 * interference_norm).
    """
    if interference_norm < 0.0:
        raise ConfigurationError("interference norm must be nonnegative")
    return 3.0 + math.log2(1.0 + 0.75 * interference_norm)


def estimate_interference_norm(length: int, oversampling: float, guard_width: float,
                               set_size: int, trials: int, seed) -> float:
    """Monte-Carlo max of ||pinv(V_S) V_Sc||_inf over random fold sets S.

    Bounds how strongly quantization noise at unflagged samples can leak
    into the solved residue values.  Deterministic under the seed, and
    nondecreasing in `trials` because draws are consumed sequentially.
    The least-squares map is applied through the Gram system of the
    circulant kernel V^H V, which agrees with the explicit pseudoinverse
    whenever the fold columns are full rank.
    """
    if set_size < 0:
        raise ConfigurationError("set_size must be nonnegative")
    if set_size == 0:
        return 0.0
    if trials < 1:
        raise ConfigurationError("trials must be positive")
    if oversampling <= 0.0:
        raise ConfigurationError(f"oversampling must be positive, got {oversampling}")
    system = build_oob_system(length, 1.0 / oversampling, guard_width)
    if set_size > system.num_bins:
        raise InfeasibleError(
            f"fold sets of {set_size} exceed the {system.num_bins} out-of-band "
            "equations; the least-squares systems cannot be full rank")
    rng = np.random.default_rng(seed)
    draws = rng.random((trials, length)).argsort(axis=1)
    worst = 0.0
    for lo in range(0, trials, _TRIAL_BATCH):
        chunk = draws[lo:lo + _TRIAL_BATCH]
        inside = chunk[:, :set_size]
        outside = chunk[:, set_size:]
        gram = kernel_block(system, inside, inside)
        cross = kernel_block(system, inside, outside)
        solved = np.linalg.solve(gram, cross)
        worst = max(worst, float(np.abs(solved).sum(axis=2).max()))
    return worst


def predict_mse_modulo(peak: float, oversampling: float, bits: int,
                       guard_bins: int, guard_width: float, length: int) -> float:
    """Predicted MSE of the folded pipeline at its matched threshold.

    peak^2 * (1 + guard_width/pi * OF)
    / (OF * (2^b - 2)^2 * (OF * (1 - guard_bins/N) - 2)^2),
    valid once the oversampling sufficiency condition holds.
    """
    if bits < 2:
        raise ConfigurationError("need bits >= 2")
    floor_of = min_oversampling(length, guard_bins)
    if oversampling < floor_of:
        raise InfeasibleError(
            f"oversampling {oversampling:g} is below the sufficiency bound "
            f"{floor_of:.4g} for {guard_bins} guard bins over {length} samples")
    threshold_denom = oversampling * (1.0 - guard_bins / length) - 2.0
    return (peak ** 2 * (1.0 + guard_width / np.pi * oversampling)
            / (oversampling * (2 ** bits - 2) ** 2 * threshold_denom ** 2))


def predict_mse_conventional(peak: float, oversampling: float, bits: int) -> float:
    """Predicted MSE of the conventional pipeline: peak^2 / (OF * (2^b - 2)^2)."""
    if bits < 2:
        raise ConfigurationError("need bits >= 2")
    if oversampling < 1.0:
        raise ConfigurationError("oversampling factor must be >= 1")
    return peak ** 2 / (oversampling * (2 ** bits - 2) ** 2)


def quantization_noise_power(bits: int, full_scale: float) -> float:
    """Noise power of the triangular-dithered quantizer: full_scale^2 / 2^(2b)."""
    if bits < 1:
        raise ConfigurationError("bits must be positive")
    return full_scale ** 2 / 2 ** (2 * bits)
