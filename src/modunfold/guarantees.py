"""Closed-form performance predictions and sufficiency checks.

Calculators for the guard-bin count, the minimal oversampling factor that
keeps the fold-position least-squares systems full rank, the modulo
threshold that realizes it, the bit-depth margin driven by the worst-case
off-support interference norm, and the predicted mean-squared error of the
folded and conventional pipelines.  The norm is estimated by Monte Carlo on
the out-of-band projector P = V^H V that recovery solves with: for each
random fold set S, inv(P[S, S]) @ P[S, :] is pinv(V_S) V, and its rows
with the S columns zeroed are pinv(V_S) V_Sc.  The rows P[S, :] are
gathered from the projector's O(n) view, so no n x n matrix is built, and
`dsp.fold_inverse` inverts and checks P[S, S] as it does for recovery.
"""

from __future__ import annotations

import math

import numpy as np

from .dsp import build_oob_system, fold_inverse
from .errors import ConfigurationError, InfeasibleError

# Matrix elements (fold sets x set size x length) per batch of fold sets in
# estimate_interference_norm.  It bounds the batch's gathered rows and their
# mapped copy to 4 MiB of float64 each, whatever the trial count; at least
# one fold set runs per batch, so a larger set times length goes past it.
_BATCH_ELEMENTS = 2 ** 19


def guard_bin_count(guard_width: float, length: int) -> int:
    """DFT bins excluded by the leakage guard: 2 * ceil(guard_width * N / pi)."""
    if guard_width < 0.0:
        raise ConfigurationError("guard_width must be nonnegative")
    return 2 * math.ceil(guard_width * length / np.pi)


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
    into the solved residue values.  Each fold set is the first `set_size`
    entries of a random permutation, drawn batch by batch from one stream,
    so the result is deterministic under the seed, independent of the batch
    size, and nondecreasing in `trials`.  With P the out-of-band projector,
    the map is inv(P[S, S]) @ P[S, :] with the S columns zeroed; it agrees
    with the explicit pseudoinverse whenever the fold columns are full rank.

    A draw whose Gram recovery would reject as singular (dsp.fold_inverse)
    raises InfeasibleError naming its trial, as an oversized set does, so an
    experiment grid marks the cell skipped.  A draw that passes with Gram
    condition number cond carries about cond*eps relative error: negligible
    below cond 1e6, up to about 1/length near the limit 1/(length*eps).
    """
    if set_size < 0:
        raise ConfigurationError("set_size must be nonnegative")
    if trials < 1:
        raise ConfigurationError("trials must be positive")
    if oversampling <= 0.0:
        raise ConfigurationError(f"oversampling must be positive, got {oversampling}")
    system = build_oob_system(length, 1.0 / oversampling, guard_width)
    if set_size == 0:
        return 0.0
    if set_size > system.num_bins:
        raise InfeasibleError(
            f"fold sets of {set_size} exceed the {system.num_bins} out-of-band "
            "equations; the least-squares systems cannot be full rank")
    batch = max(1, _BATCH_ELEMENTS // (set_size * length))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for done in range(0, trials, batch):
        folds = rng.random((min(batch, trials - done), length)).argsort(axis=1)
        sets = folds[:, :set_size]
        # Gathered here, not by a helper: see unfold.residue_pre_estimate.
        rows = system.projector[sets]
        inverse, singular = fold_inverse(rows, sets)
        if singular:
            trial, low, high = singular[0]
            raise InfeasibleError(
                f"trial {done + trial}: fold-set Gram is singular (eigenvalues "
                f"{low:.3e} to {high:.3e}); fold values are not identifiable")
        mapped = inverse @ rows
        np.put_along_axis(mapped, sets[:, None, :], 0.0, axis=2)
        worst = max(worst, float(np.abs(mapped).sum(axis=2).max()))
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
