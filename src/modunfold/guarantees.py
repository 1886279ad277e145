"""Closed-form performance predictions and sufficiency checks.

Calculators for the guard-bin count, the minimal oversampling factor that
keeps the fold-position least-squares systems full rank, the modulo
threshold that realizes it, the bit-depth margin driven by the off-support
interference norm, and the predicted mean-squared error of the folded and
conventional pipelines.  The norm is a max over random fold sets, not a
worst case (see required_bits), computed by Monte Carlo on the out-of-band
projector P = V^H V that recovery solves with, with no n x n matrix built.
Its Gram blocks go through `dsp.check_gram`, the singularity check that
recovery runs too.  The sets are drawn on the calling thread in stream
order and mapped batch by batch on a thread pool, and a set is mapped only
while an upper bound on its computed norm reaches the largest norm mapped
so far, so the sets skipped could not have changed a bit of the result:
estimate_interference_norm gives the account.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .dsp import build_oob_system, check_gram, fold_gram
from .errors import ConfigurationError, InfeasibleError, check_number, check_seed
from .modulo_adc import AdcConfig, check_scale

# Matrix elements per batch and per chunk of fold sets in
# estimate_interference_norm.  A batch is drawn and checked whole, and its
# Gram blocks and draws hold set size^2 + length elements per set.  Its sets
# are mapped chunk by chunk, set size x length elements per set: 1 MiB of
# float64 for a chunk's gathered rows and as much for their product.  At
# least one set runs per batch and per chunk, so a larger set goes past it.
# perfbench mgrid on 2 cores (seeds 1 and 2, 8 s runs, sizes alternated):
# 2**16 read 0.84-0.93 s wall and a 55.6-56.2 MB peak, 2**17 0.74-0.90 s
# (median 0.78 s) and 60.2-60.9 MB, 2**18 0.68-0.91 s (median 0.76 s) and
# 67.6-68.0 MB, as every worker holds a batch's blocks and a chunk's rows
# and product.  Mapping each batch as one chunk peaked at 83.7-90.8 MB.
_BATCH_ELEMENTS = 2 ** 17

# Largest fold set accepted, as elements of its rows P[S, :] (set size x
# length): 32 MiB of float64, which one chunk always holds.  The paper
# preset's largest set, 32 x 256, is 512 times below it.
_MAX_SET_ELEMENTS = 2 ** 22

# Most fold sets one estimate draws: 100 times the paper preset's 100,000.
# A paper m-grid cell takes about half a second, so one at the cap about a
# minute, where 10^12 trials would run for days in some 10^9 batches.
_MAX_TRIALS = 10 ** 7

# Steps refining the bound on each fold set's norm in _norm_bounds, each one
# k x k product per set against the k x k inverse it may save.  On the desk
# m-grid at seed 1 with one worker, 0 / 2 / 4 / 6 steps inverted 21,839 /
# 15,620 / 11,665 / 10,489 of its 270,000 sets: at N 256, k 32, 37 / 28 /
# 18 / 13 % of the sets at OF 4 and 53 / 40 / 34 / 33 % at OF 12.
_BOUND_STEPS = 4

# Threads running batches in estimate_interference_norm: the CPUs this
# process may run on.  A serial loop ran perfbench mgrid at a median 0.92 s
# against 0.82 s on 2 cores, slower in 4 of 4 pairs.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def guard_bin_count(guard_width: float, length: int) -> int:
    """DFT bins excluded by the leakage guard: 2 * ceil(guard_width * N / pi)."""
    if check_number("length", length, integer=True) < 1:
        raise ConfigurationError(f"need length >= 1, got {length}")
    half = check_number("guard_width", guard_width) * length / np.pi
    if not 0.0 <= half < math.inf:
        raise ConfigurationError(
            f"need 0 <= guard_width * N / pi < inf, got guard_width {guard_width} at N {length}")
    return 2 * math.ceil(half)


def min_oversampling(length: int, guard_bins: int) -> float:
    """Signal-independent sufficient oversampling: 3 / (1 - guard_bins/N)."""
    if check_number("guard_bins", guard_bins, integer=True) < 0:
        raise ConfigurationError(f"need guard_bins >= 0, got {guard_bins}")
    if check_number("length", length, integer=True) < 1:
        raise ConfigurationError(f"need length >= 1, got {length}")
    if guard_bins >= length:
        raise InfeasibleError(f"{guard_bins} guard bins exhaust a {length}-sample window")
    return 3.0 / (1.0 - guard_bins / length)


def required_threshold(peak: float, oversampling: float, guard_bins: int,
                       length: int) -> float:
    """Modulo threshold realizing the sufficiency condition:

    peak / (oversampling * (1 - guard_bins/N) - 2).  A threshold that
    overflows float64 is a ConfigurationError.
    """
    check_scale("peak", peak)
    check_number("oversampling", oversampling)
    min_oversampling(length, guard_bins)  # the window's rules
    denom = oversampling * (1.0 - guard_bins / length) - 2.0
    if denom <= 0.0:
        raise InfeasibleError(
            f"oversampling {oversampling:g} with {guard_bins} guard bins over "
            f"{length} samples cannot support any positive threshold")
    return _finite("the threshold", lambda: peak / denom)


def extra_bits(interference_norm: float) -> float:
    """Bits the interference adds to required_bits: log2(1 + 0.75 * norm)."""
    if check_number("interference_norm", interference_norm) < 0.0:
        raise ConfigurationError("interference norm must be nonnegative")
    return math.log2(1.0 + 0.75 * interference_norm)


def required_bits(interference_norm: float) -> float:
    """Bit depth beyond which lattice rounding is exact for fold sets of norm <= the given one:

    bits > 3 + extra_bits(interference_norm) = 3 + log2(1 + 0.75 * norm).

    The m-grid passes estimate_interference_norm's max over random draws,
    which is no worst case over fold sets: a set of adjacent folds leaks
    far more than the draws find.  At N 64, OF 4, guard 0 and 8 folds the
    set {0, ..., 7} reads 24.2 against 8.10 over 10,000 draws (seed 1),
    and at N 256 with 32 folds 4.04e5 against 20.7, or 21.2 against 7.0
    bits.  Nor is it the norm of the fold sets a run holds.  At OF 4 the
    desk m-grid norms (seed 1; N 64 to 256, N/32 to N/8 folds) ask for 4.7
    to 6.9 bits, and the desk window (N 64, guard pi/32) with the 8 to 19
    folds its segments hold asks for 6.1 to 8.3 bits.  Yet desk recovery
    there slipped at 3 bits in 6 of seeds 0-9 and at 4 in none.
    """
    return 3.0 + extra_bits(interference_norm)


def check_fold_set(length: int, set_size: int) -> None:
    """Reject fold sets whose rows P[S, :] exceed _MAX_SET_ELEMENTS elements."""
    if set_size * length > _MAX_SET_ELEMENTS:
        raise ConfigurationError(
            f"fold sets of {set_size} over {length} samples hold {set_size * length} "
            f"row elements each, above the cap of {_MAX_SET_ELEMENTS}")


def _norm_bounds(system, gram, margins, certified, floor) -> np.ndarray:
    """Upper bounds on the computed ||inv(G) P[S, Sc]||_inf of Gram blocks G = P[S, S].

    margins and certified are dsp.check_gram's for gram.  Blocks it does not
    certify get +inf.  For the others, with g the diagonal, s_i the
    off-diagonal abs row sums and m_i = g - s_i their margins,
    L = sum |projector[0]| and b_i = L - g - s_i the abs sum of row i of
    P[S, Sc]:
    - ||inv(G) P[S, Sc]||_inf <= max_i (|inv(G)| b)_i <= max_i w_i, where
      (g I - A) w = b and A is |G| with its diagonal zeroed, as G = g I - C
      with |C| = A gives |inv(G)| <= sum_p A^p / g^(p+1) = inv(g I - A);
    - w <= Y, with Y = max_i b_i / m_i the row-wise form of Varah's bound
      (Linear Algebra Appl. 11, 1975), and w -> (b + A w) / g maps any
      upper bound on w to a tighter one, so the bound is max_i of
      _BOUND_STEPS such steps from the constant Y.
    The steps run only for the blocks whose Y plus the slack below reaches
    `floor`, a norm already computed; the others keep Y, as valid a bound
    and already below the floor, so the caller skips them either way.
    The bound returned adds a slack of 8 (k^2/m + n) eps L/m, m = min_i
    m_i, which covers with room to spare the rounding of both the bound and
    the norm it is compared with:
    - every bound above is at most L/m, and the computed one is off by
      about ((k+1)/m + _BOUND_STEPS (k+2) + n) eps times that: each margin
      carries (k+1) eps, each step k + 2 roundings of nonnegative terms,
      and L n eps relative;
    - the computed norm is off by about (k^2 kappa + n) eps L/m: G has
      condition number kappa <= (g + s_max)/m <= 2/m (Gershgorin), its
      inverse by LU carries about k kappa eps ||inv(G)||_inf in each of
      the k entries of a row, ||inv(G)||_inf <= 1/m (Varah), and the
      product and the row sums add k eps and n eps of ||inv(G)||_inf
      ||P[S, Sc]||_inf <= L/m.
    """
    sure = np.flatnonzero(certified)
    # Held as (k, blocks), so the min and max over each block's k margins
    # run across blocks: 2 to 20 times faster at k 2 to 32 than along rows
    # of k (numpy 2.4, one thread).
    margins = margins.T.take(sure, axis=1)
    k, g, eps = gram.shape[1], system.projector[0, 0], np.finfo(float).eps
    total = np.abs(system.projector[0]).sum()
    b = total - 2.0 * g + margins
    low = margins.min(axis=0)
    slack = 8.0 * (k * k / low + system.n) * eps * total / low
    bound = (b / margins).max(axis=0)  # Varah's Y
    near = bound + slack >= floor
    off = np.abs(gram[sure[near]])
    off[:, np.arange(k), np.arange(k)] = 0.0
    w = np.repeat(bound[near, None], k, axis=1)
    for _ in range(_BOUND_STEPS):
        w = (b[:, near].T + np.matmul(off, w[..., None])[..., 0]) / g
    bound[near] = w.max(axis=1)
    bounds = np.full(len(gram), np.inf)
    bounds[sure] = bound + slack
    return bounds


def _inverse_bounds(system, inverse, margins) -> np.ndarray:
    """Upper bounds on the computed norms of the sets whose Gram inverses are given.

    inverse is np.linalg.inv's X of Gram blocks G = P[S, S], shape
    (c, k, k), and margins are dsp.check_gram's margins m of the same
    blocks, certified or not.  The estimate computes a set's norm as the
    largest fl(sum_j |fl(X P[S, :])_ij|) over the columns j not in S.  By
    Higham, Accuracy and Stability of Numerical Algorithms (2002), section
    3.1, with u = eps/2 and gamma_p = p u / (1 - p u), whatever X is:
    - each entry of the product is within gamma_k (|X| |P[S, :]|)_ij of
      the exact product of the same floats, and the sum of n nonnegative
      terms adds a factor 1 + gamma_n, so row i of the computed norm is at
      most (1 + gamma_n)(1 + gamma_k) (|X| b)_i, with b_l the exact abs
      sum of row l of P[S, Sc];
    - b_l = L - 2g + m_l, with L = sum |projector[0]| (every row of the
      circulant P holds the same floats) and g the diagonal.  The
      computed L - 2g + m_l is within (n + k + 3) u L of b_l: L sums n
      terms and each margin k, and the two subtractions and the addition
      round by at most 2uL, 2uL and uL.  So b^ = fl(L - 2g + m) +
      (n + k + 6) eps L, about twice that, is >= b after its own rounding;
    - fl(|X| b^) >= (1 - gamma_k) |X| b^, as its terms are nonnegative.
    So the norm is at most max_i fl(|X| b^)_i times (1 + gamma_n)(1 +
    gamma_k) / (1 - gamma_k).  The bound returned multiplies by
    1 + (n + 2k + 2) eps, twice the first-order term (n + 2k + 2) u of
    that ratio, of the product's rounding and of the factor's own; with
    n <= dsp._MAX_LENGTH = 2^20 and k <= n, (n + 2k) u < 4e-10, so the
    higher-order terms fit in the other half many times over.  At k = 1
    the norm is b/g, and the bound exceeds it by these allowances alone.
    """
    k, n, eps = inverse.shape[1], system.n, np.finfo(float).eps
    total = np.abs(system.projector[0]).sum()
    rows = total - 2.0 * system.projector[0, 0] + margins + (n + k + 6) * eps * total
    sums = np.matmul(np.abs(inverse), rows[..., None])
    return sums.max(axis=(1, 2)) * (1.0 + (n + 2 * k + 2) * eps)


def estimate_interference_norm(length: int, oversampling: float, guard_width: float,
                               set_size: int, trials: int, seed) -> float:
    """Monte-Carlo max of ||pinv(V_S) V_Sc||_inf over random fold sets S.

    The largest leak, over the sets drawn, of quantization noise at
    unflagged samples into the solved residue values.  It is no bound over
    all fold sets: adjacent folds, which the draws seldom hit, leak far
    more (see required_bits).  With P the out-of-band projector, the map
    inv(P[S, S]) @ P[S, :] is pinv(V_S) V, and its rows with the S columns
    zeroed are pinv(V_S) V_Sc, whenever the fold columns are full rank.  The
    rows P[S, :] are gathered from the projector's O(n) view.

    Each fold set is the first `set_size` entries of a random permutation,
    drawn batch by batch from one stream on the calling thread, so the
    result is deterministic under the seed, independent of the batch size,
    and nondecreasing in `trials`.  A batch is _BATCH_ELEMENTS //
    (set_size**2 + length) sets, sized by the Gram blocks and draws its
    check holds.  Batches are mapped on _WORKERS threads, at most
    _WORKERS + 1 of them in flight, so memory is O(batch) whatever
    `trials`; their results are read in draw order and max is exact, so
    neither the result nor the trial an error names depends on the thread
    count or on timing.

    Each batch's Gram blocks P[S, S] are gathered once and checked whole by
    dsp.check_gram before any set is skipped.  A set is then skipped once
    an upper bound on its computed norm, in floating point and not only
    exact, is below the floor, the largest norm the workers have computed
    so far: as the floor only grows, such a set cannot raise the max.  Two
    bounds apply in turn:
    - before any inverse, the bound read from the margins of the set's
      Gram block (_norm_bounds): Varah's bound for every certified block,
      refined only where it reaches the floor, and +inf for the others;
    - after the inverse X of the block, max_i (|X| b)_i, with b the abs row
      sums of P[S, Sc] read from the margins too, times allowances for the
      rounding of b, of the product and of its row sums (_inverse_bounds,
      by Higham's bounds, for any X): a set below the floor skips the
      gather, the k x n product and its row sums.
    A batch is mapped in chunks of _BATCH_ELEMENTS // (set_size * length)
    sets, sized by the rows the map gathers, in decreasing order of their
    margin bounds, uncertified sets first.  A batch that starts with no
    norm known maps its top set alone, so the rest is pruned against that
    set's norm.  Each chunk drops the sets whose bound is below the floor
    as it then stands, and the first chunk whose largest bound is below it
    ends the batch, as no set after it can raise the max.  So every set
    that could raise the max is computed as it would be without skipping,
    each by its own LAPACK inverse and matrix product, and the result is
    bit-identical whichever sets are skipped.  Each chunk's product is a
    fresh array, so a worker keeps nothing from one batch to the next.  The
    floor is shared by the workers without a lock: a stale or lost update
    leaves it lower, which only skips fewer sets.

    A draw whose Gram dsp.check_gram finds singular, by the check recovery
    also runs, raises InfeasibleError naming the earliest such trial, as an
    oversized set does, so an experiment grid marks the cell skipped.  A
    draw that passes with Gram condition number cond carries about cond*eps
    relative error: negligible below cond 1e6, up to about 1/length near
    the limit 1/(length*eps).  Sets whose rows exceed _MAX_SET_ELEMENTS,
    and more than _MAX_TRIALS trials, raise ConfigurationError before
    anything is built.
    """
    if check_number("set_size", set_size, integer=True) < 0:
        raise ConfigurationError("set_size must be nonnegative")
    check_fold_set(check_number("length", length, integer=True), set_size)
    if not 1 <= check_number("trials", trials, integer=True) <= _MAX_TRIALS:
        raise ConfigurationError(f"need 1 <= trials <= {_MAX_TRIALS}, got {trials}")
    if not 0.0 < check_number("oversampling", oversampling):
        raise ConfigurationError(f"oversampling must be positive, got {oversampling}")
    check_seed("seed", seed)
    system = build_oob_system(length, 1.0 / oversampling, guard_width)
    if set_size == 0:
        return 0.0
    if set_size > system.num_bins:
        raise InfeasibleError(
            f"fold sets of {set_size} exceed the {system.num_bins} out-of-band "
            "equations; the least-squares systems cannot be full rank")
    batch = min(trials, max(1, _BATCH_ELEMENTS // (set_size ** 2 + length)))
    chunk = max(1, _BATCH_ELEMENTS // (set_size * length))
    running = [0.0]  # the floor: the largest norm any worker has computed

    def batch_norm(done, sets):
        gram = fold_gram(system, sets)
        margins, certified, singular = check_gram(gram, system.n)
        if singular:
            trial, low, high = singular[0]
            raise InfeasibleError(
                f"trial {done + trial}: fold-set Gram is singular (eigenvalues "
                f"{low:.3e} to {high:.3e}); fold values are not identifiable")
        floor = running[0]
        bounds = _norm_bounds(system, gram, margins, certified, floor)
        # Largest bound first, uncertified (+inf) sets before all others.
        # Reversing an ascending argsort would put a NaN bound first too.
        order = np.argsort(bounds)[::-1]
        bounds = bounds[order]
        # With no norm known yet, the top set goes alone, to set the floor:
        # this halves the k x n products of the one-worker desk m-grid at
        # seed 1, 5,333 against 11,264.
        prime = int(floor == 0.0)
        edges = [0] * prime + list(range(prime, len(order), chunk)) + [len(order)]
        largest = 0.0
        for start, stop in zip(edges, edges[1:]):
            # The sets left are sorted, so none can raise the max once the
            # largest bound among them is below it.
            floor = running[0]
            if bounds[start] < floor:
                break
            keep = order[start:stop][~(bounds[start:stop] < floor)]
            inverse = np.linalg.inv(gram[keep])
            live = ~(_inverse_bounds(system, inverse, margins[keep]) < floor)
            if not live.any():
                continue
            keep, inverse = keep[live], inverse[live]
            kept = sets[keep]
            # Gathered here, not by a helper: see unfold.residue_pre_estimate.
            rows = system.projector[kept]
            mapped = np.matmul(inverse, rows)
            np.put_along_axis(mapped, kept[:, None, :], 0.0, axis=2)
            norm = float(np.abs(mapped, out=mapped).sum(axis=2).max())
            running[0] = max(running[0], norm)
            largest = max(largest, norm)
        return largest

    rng = np.random.default_rng(seed)
    worst = 0.0
    pending = deque()
    with ThreadPoolExecutor(_WORKERS) as pool:
        for done in range(0, trials, batch):
            folds = rng.random((min(batch, trials - done), length)).argsort(axis=1)
            # A copy, so a pending batch does not hold its whole argsort.
            pending.append(pool.submit(batch_norm, done, folds[:, :set_size].copy()))
            if len(pending) > _WORKERS:
                worst = max(worst, pending.popleft().result())
        for future in pending:
            worst = max(worst, future.result())
    return worst


def predict_mse_modulo(peak: float, oversampling: float, bits: int,
                       guard_bins: int, guard_width: float, length: int) -> float:
    """Predicted MSE of the folded pipeline at its matched threshold.

    The conventional MSE at full scale required_threshold(peak, OF, G, N)
    in place of the peak, widened by the guard band's share of the
    passband: predict_mse_conventional(threshold, OF, b) * (1 + guard_width
    / pi * OF), that is peak^2 * (1 + guard_width/pi * OF) / (OF * (2^b -
    2)^2 * (OF * (1 - G/N) - 2)^2).  Valid once the oversampling
    sufficiency condition holds, below which it raises InfeasibleError; the
    two laws it calls apply the peak, bit and oversampling rules.  A
    prediction that overflows float64 is a ConfigurationError.
    """
    if not check_number("guard_width", guard_width) >= 0.0:
        raise ConfigurationError(f"need guard_width >= 0, got {guard_width}")
    floor_of = min_oversampling(length, guard_bins)
    if check_number("oversampling", oversampling) < floor_of:
        raise InfeasibleError(
            f"oversampling {oversampling:g} is below the sufficiency bound "
            f"{floor_of:.4g} for {guard_bins} guard bins over {length} samples")
    conventional = predict_mse_conventional(
        required_threshold(peak, oversampling, guard_bins, length), oversampling, bits)
    return _finite("the predicted MSE",
                   lambda: conventional * (1.0 + guard_width / np.pi * oversampling))


def predict_mse_conventional(peak: float, oversampling: float, bits: int) -> float:
    """Predicted MSE of the conventional pipeline: peak^2 / (OF * (2^b - 2)^2).

    A prediction that overflows float64 is a ConfigurationError.
    """
    AdcConfig(bits=bits, threshold=1.0)  # the bit rule
    check_scale("peak", peak)
    if not 1.0 <= check_number("oversampling", oversampling):
        raise ConfigurationError(f"need an oversampling factor >= 1, got {oversampling}")
    return _finite("the predicted MSE",
                   lambda: peak ** 2 / (oversampling * (2 ** bits - 2) ** 2))


def _finite(name: str, formula) -> float:
    """formula(), or a ConfigurationError naming it where it overflows float64.

    A float ** raises OverflowError; * and / return inf or NaN, as numpy
    scalars do too, with their warnings silenced here.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = formula()
    except OverflowError:
        value = math.inf
    if not value < math.inf:
        raise ConfigurationError(f"{name} overflows float64 ({value})")
    return value
