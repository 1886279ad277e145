"""Reproducible experiment harness.

Four experiments over a parameter grid: theory-vs-simulation MSE sweeps of
the sliding-DFT recovery (with the conventional pipeline alongside), the
sliding-DFT vs higher-order-difference comparison, the interference-norm
Monte-Carlo grid, and a pure-formula theory table.  Each yields one row per
grid point, and a point whose measurement is infeasible (InfeasibleError)
becomes a row marked skipped that holds only the point's own fields.  The
two MSE experiments average each point's MSE columns over trials (signal
realizations) and keep the last trial's threshold and sample count,
looping trial, then oversampling factor, then the factor's points, so one
trial's pulse train and one realization's record are alive at a time.
Every experiment is a deterministic function of (config, seed); rows
serialize to CSV that hashes identically across reruns.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, guarantees
from .errors import ConfigurationError, InfeasibleError, check_number
from .modulo_adc import AdcConfig, acquire
from .signal_model import (PulseTrainSpec, estimate_inf_norm,
                           generate_pulse_train, nominal_sample_count,
                           sample_signal)
from .unfold import RecoveryConfig, unfold
from .dsp import (_LPF_LENGTH, _LPF_TRANSITION, check_filter_length, check_lowpass,
                  filter_zero_delay, tukey_edge)

# Safety margin on the grid-based peak estimate before sizing the threshold;
# grid maxima slightly undershoot the continuous maximum.
PEAK_MARGIN = 1.001

# Most trials one MSE experiment averages: about 100 times compare-hod's 12.
# A paper-preset trial takes about 1.5 s of compare-hod (five factors) and
# 6.4 s of mse-sweep (nine factors, with the conventional pipeline) on a
# 2-core VM, so a run at the cap about 25 minutes and 2 hours.
_MAX_TRIALS = 1_000


@dataclass
class ExperimentConfig:
    """Parameter surface of one experiment run, resolved when it is built.

    Defaults are desk scale (2,000 pulses, 10,000 interference trials); the
    "paper" preset restores the full-scale figures.  `oversampling_list` and
    `trials` (the Monte-Carlo realizations averaged per grid point) left
    None take the experiment's defaults from _TABLE, at the end of this
    module: mse-sweep runs the nine factors 4-50 once, compare-hod OF 4, 6,
    10, 12, 16 over 12 realizations and m-grid OF 4, 8, 12; a given list is
    run as given, and a repeated value is measured again as its own point,
    a repeated factor with its own record and its own conventional
    baseline.  `trials` is at most _MAX_TRIALS.  Every experiment but
    theory-only needs a seed >= 0; theory-only draws nothing and records
    seed 0 when given none.

    The fields are checked here, whichever experiment reads them, so
    runners read them as they are and a bad value fails before any work.
    Each is checked once, by the owner of its rule: the signal spec
    (PulseTrainSpec) and each factor's sample count, the window
    (dsp.tukey_edge), the lowpass tap count and transition
    (dsp.check_lowpass), each bit depth (AdcConfig), each guard width
    (guarantees.guard_bin_count), the HoD order (HodConfig) and, in the
    experiments that sample, the length of each record they will sample,
    those of the factors with a threshold at some guard width, against
    the lowpass (dsp.check_filter_length).  This config applies
    errors.check_number to the fields no owner reads here, and checks the
    list shapes, the m-grid fold sets and factors, the trial count, the
    seed and `out`, which must name a file in an existing directory.  Only
    the lowpass rules that depend on a point's cutoff wait until that
    point's lowpass is designed (dsp.design_lowpass).
    """

    experiment: str = "mse-sweep"
    # test signal
    num_pulses: int = 2000
    beta: float = 1.0
    span: int = 20
    amp_low: float = -0.5
    amp_high: float = 1.0
    # acquisition grid
    bits_list: tuple = (4,)
    oversampling_list: tuple | None = None
    # recovery
    window_length: int = 64
    window_alpha: float = 0.5
    guard_width_list: tuple = (np.pi / 32,)
    lpf_length: int = _LPF_LENGTH
    lpf_transition: float = _LPF_TRANSITION
    hod_order: int = 3
    # monte carlo
    trials: int | None = None
    m_trials: int = 10_000
    m_lengths: tuple = (64, 128, 256)
    m_set_fractions: tuple = (32, 16, 8)  # set sizes N/32, N/16, N/8
    # bookkeeping
    seed: int | None = None
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        _, grid, trials, sampled, seeded = _TABLE[self.experiment]
        if self.oversampling_list is None:
            self.oversampling_list = grid
        if self.trials is None:
            self.trials = trials
        if self.seed is None and not seeded:
            self.seed = 0
        for name in ("bits_list", "m_lengths", "m_set_fractions", "oversampling_list",
                     "guard_width_list"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigurationError(f"{name} must be a nonempty list")
            setattr(self, name, tuple(value))
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigurationError(f"out must be a path, got {self.out!r}")
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ConfigurationError(f"cannot write {self.out}: no such directory")
        if self.out and os.path.isdir(self.out):
            raise ConfigurationError(f"cannot write {self.out}: it is a directory")
        # The fields no owner reads at construction.
        check_number("m_trials", self.m_trials, integer=True)
        if not 1 <= check_number("trials", self.trials, integer=True) <= _MAX_TRIALS:
            raise ConfigurationError(f"trials must be in [1, the cap {_MAX_TRIALS}]")
        for n, f in itertools.product(self.m_lengths, self.m_set_fractions):
            if (check_number("m_set_fractions", f, integer=True) < 1
                    or check_number("m_lengths", n, integer=True) // f < 1):
                raise ConfigurationError("every m_length // m_set_fraction must be at least 1")
            guarantees.check_fold_set(n, n // f)
        tukey_edge(self.window_length, self.window_alpha)
        check_lowpass(self.lpf_length, self.lpf_transition)
        bins = min(guarantees.guard_bin_count(guard_width, self.window_length)
                   for guard_width in self.guard_width_list)
        spec = self.signal_spec(0)
        for oversampling in self.oversampling_list:
            # A factor <= 0 is an infeasible point of the other experiments
            # (required_threshold), but no m-grid cell can take it.
            if (check_number("oversampling_list", oversampling) <= 0.0
                    and self.experiment == "m-grid"):
                raise ConfigurationError(f"oversampling must be positive, got {oversampling}")
            if sampled and oversampling > 0.0:
                count = nominal_sample_count(spec, oversampling)
                try:
                    guarantees.required_threshold(1.0, oversampling, bins, self.window_length)
                except InfeasibleError:
                    continue  # no guard width has a threshold, so no record is sampled
                check_filter_length(count, self.lpf_length)
        for bits in self.bits_list:
            AdcConfig(bits=bits, threshold=1.0)
        baselines.HodConfig(threshold=1.0, order=self.hod_order)
        if self.seed is None or check_number("seed", self.seed, integer=True) < 0:
            raise ConfigurationError(
                f"{self.experiment} needs --seed N >= 0 (or a seed in the config)")

    def signal_spec(self, seed: int) -> PulseTrainSpec:
        return PulseTrainSpec(num_pulses=self.num_pulses, beta=self.beta,
                              span=self.span, amp_low=self.amp_low,
                              amp_high=self.amp_high, seed=seed)


_PRESETS = {
    "desk": {},
    "paper": {"num_pulses": 50_000, "m_trials": 100_000},
}


def load_config(path: str, experiment: str, preset: str = "desk",
                seed: int | None = None, out: str | None = None) -> ExperimentConfig:
    """Build a config from a JSON document, preset, and CLI overrides.

    File values override preset values; explicit seed/out arguments override
    the file.  Unknown keys are rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigurationError("config document must be a JSON object")
    if preset not in _PRESETS:
        raise ConfigurationError(f"unknown preset {preset!r}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    merged: dict = {**_PRESETS[preset], **raw, "experiment": experiment}
    if seed is not None:
        merged["seed"] = seed
    if out is not None:
        merged["out"] = out
    return ExperimentConfig(**merged)


@dataclass(frozen=True, kw_only=True)
class ResultRow:
    """One grid point of an MSE experiment (measured fields empty when skipped).

    The fields are the CSV columns.  The `mse_*` columns average over all
    trials of the point, while `threshold` and `samples_used` are the last
    trial's: each trial sizes its threshold from its own signal peak, so
    the threshold column describes one realization.
    """

    experiment: str
    oversampling: float
    bits: int
    guard_width: float
    guard_bins: int
    threshold: float | None = None
    mse_simulated_db: float | None = None
    mse_theory_db: float | None = None
    mse_conventional_db: float | None = None
    mse_hod_db: float | None = None
    samples_used: int = 0
    seed: int
    status: str = "ok"
    reason: str = ""


@dataclass(frozen=True, kw_only=True)
class MGridRow:
    """One cell of the interference-norm grid."""

    experiment: str
    length: int
    oversampling: float
    set_size: int
    interference_norm: float | None = None
    extra_bits: float | None = None
    trials: int
    seed: int
    status: str = "ok"
    reason: str = ""


@dataclass(frozen=True, kw_only=True)
class TheoryRow:
    """Pure-formula predictions for one operating point, at unit peak.

    `status` is "ok" where the point's factor meets the sufficiency bound
    (min_oversampling) and so supports a threshold; a point below it is a
    skipped row with the point's fields and its reason alone.
    """

    experiment: str
    oversampling: float
    bits: int
    guard_width: float
    guard_bins: int
    threshold: float | None = None
    full_scale: float | None = None
    min_oversampling: float | None = None
    mse_theory_db: float | None = None
    mse_conventional_db: float | None = None
    seed: int
    status: str = "ok"
    reason: str = ""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(rows, path: str) -> None:
    """Write nonempty dataclass rows as CSV with >= 12 significant digits.

    Header from the row fields, whose meaning each row type's docstring
    gives (run_experiment returns at least one row); floats use repr-exact
    formatting so the file round-trips losslessly and byte-identically
    across reruns.  A field holding a comma or quote, as a skip reason may,
    is quoted, so every row keeps the header's column count.
    """
    names = [f.name for f in dataclasses.fields(rows[0])]
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(names)
            writer.writerows([_fmt(getattr(row, n)) for n in names] for row in rows)
    except OSError as err:
        raise ConfigurationError(f"cannot write {path}: {err}") from err


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


def _grid(row_type, points: list[dict], measure) -> list:
    """One row per point: the point's fields plus those `measure(**point)` returns.

    A point whose measurement raises InfeasibleError becomes a skipped row
    built from the point's fields alone.
    """
    rows = []
    for point in points:
        try:
            rows.append(row_type(**point, **measure(**point)))
        except InfeasibleError as err:
            rows.append(row_type(**point, status="skipped", reason=str(err)))
    return rows


def _adc_points(cfg: ExperimentConfig) -> list[dict]:
    """The (oversampling, bits, guard width) grid in row order."""
    return [dict(experiment=cfg.experiment, oversampling=oversampling, bits=bits,
                 guard_width=guard_width,
                 guard_bins=guarantees.guard_bin_count(guard_width, cfg.window_length),
                 seed=cfg.seed)
            for oversampling in cfg.oversampling_list
            for bits in cfg.bits_list
            for guard_width in cfg.guard_width_list]


def _trial_grid(cfg: ExperimentConfig, measure) -> list[ResultRow]:
    """Rows of the (oversampling, bits, guard width) grid, averaged over trials.

    Trial t (at most _MAX_TRIALS) spawns its entropy from the seed's
    SeedSequence as it starts, the child spawn(trials)[t] would be, draws
    its signal with seed `seed + 1000 t`, and walks the points of
    `_adc_points` in row order, spawning dither seeds from its entropy as
    it measures them, so that order, not the order of the trials against
    the points, fixes the CSV bytes.  The grid's structure, not its values,
    scopes what a trial holds.  Each entry of `oversampling_list` samples
    its own record, which ExperimentConfig has checked is no shorter than
    the lowpass, after its first feasible threshold, and frees it where
    the next entry starts; it builds one RecoveryConfig per guard width at
    its first bit depth, as the threshold does not depend on the bits.
    Each point's realization is acquired and unfolded, which sets
    `threshold`, `mse_simulated_db` and `samples_used`; `measure(peak,
    entropy, sampled, adc, recovery, shared, **point)` returns the
    experiment's own columns, where `shared` is one dict per entry and bit
    depth, empty when the first of its guard widths reaches `measure`.  The
    `mse_*` fields are averaged, the others kept from the last trial.  A
    repeated grid value is measured as given, each point with its own
    dither.  A point infeasible in one trial is skipped by later trials
    and becomes a skipped row holding the point's fields alone.
    """
    points = _adc_points(cfg)
    runs = [[] for _ in points]  # each point's per-trial fields, or its InfeasibleError
    root = np.random.SeedSequence(cfg.seed)
    for t, entropy in enumerate(root.spawn(1)[0] for _ in range(cfg.trials)):
        train = generate_pulse_train(cfg.signal_spec(cfg.seed + 1000 * t))
        peak = PEAK_MARGIN * estimate_inf_norm(train)
        for i, point in enumerate(points):
            if i % (len(cfg.bits_list) * len(cfg.guard_width_list)) == 0:
                # A new factor entry: the last record is freed before the next is sampled.
                sampled = None
                recoveries = {}  # guard width -> its RecoveryConfig, shared by the bit depths
            if i % len(cfg.guard_width_list) == 0:
                shared = {}  # a new bit depth of the entry
            if isinstance(runs[i], InfeasibleError):
                continue
            oversampling, guard_width = point["oversampling"], point["guard_width"]
            try:
                threshold = guarantees.required_threshold(
                    peak, oversampling, point["guard_bins"], cfg.window_length)
                if sampled is None:
                    count = nominal_sample_count(train.spec, oversampling)
                    sampled = sample_signal(train, oversampling, count)
                adc = acquire(sampled, AdcConfig(bits=point["bits"], threshold=threshold,
                                                 seed=entropy.spawn(1)[0]))
                if guard_width not in recoveries:
                    recoveries[guard_width] = RecoveryConfig(
                        length=cfg.window_length, alpha=cfg.window_alpha,
                        guard_width=guard_width, threshold=threshold,
                        band_fraction=1.0 / oversampling, lpf_length=cfg.lpf_length,
                        lpf_transition=cfg.lpf_transition)
                recovery = recoveries[guard_width]
                mse, used = _mse(unfold(adc, sampled, recovery).recovered, sampled, cfg)
                runs[i].append(dict(threshold=threshold, mse_simulated_db=mse,
                                    samples_used=used,
                                    **measure(peak=peak, entropy=entropy, sampled=sampled,
                                              adc=adc, recovery=recovery, shared=shared,
                                              **point)))
            except InfeasibleError as err:
                runs[i] = err
    return [ResultRow(**point, status="skipped", reason=str(run))
            if isinstance(run, InfeasibleError) else
            ResultRow(**point, **{name: _db(sum(fields[name] for fields in run) / len(run))
                                  if name.startswith("mse_") else value
                                  for name, value in run[-1].items()})
            for point, run in zip(points, runs)]


def _mse(estimate: np.ndarray, sampled, cfg: ExperimentConfig) -> tuple[float, int]:
    """MSE of `estimate` against the sampled signal, and its sample count.

    The zero-delay lowpass fills its first and last half-window from
    synthetic padding, so those outputs measure the boundary extension
    rather than the recovery and are left out.
    """
    reference = sampled.samples
    trim = cfg.lpf_length // 2
    core = slice(trim, reference.size - trim)
    err = estimate[core] - reference[core]
    return float(np.mean(np.square(err, out=err))), err.size


def run_mse_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Theory-vs-simulation sweep with the conventional pipeline alongside.

    The conventional pipeline runs once per trial, factor entry and bit
    depth, on the entry's record, at the first guard width that reaches it,
    and that entry's guard widths share its MSE.
    """
    def measure(peak, entropy, sampled, shared, oversampling, bits, guard_width,
                guard_bins, **_):
        if not shared:
            estimate = baselines.conventional_adc(
                sampled, bits, peak, entropy.spawn(1)[0], lpf_length=cfg.lpf_length,
                lpf_transition=cfg.lpf_transition)
            shared["mse_conventional_db"] = _mse(estimate, sampled, cfg)[0]
        theory = guarantees.predict_mse_modulo(peak, oversampling, bits, guard_bins,
                                               guard_width, cfg.window_length)
        return dict(mse_theory_db=theory, **shared)

    return _trial_grid(cfg, measure)


def run_compare_hod(cfg: ExperimentConfig) -> list[ResultRow]:
    """Sliding-DFT vs higher-order-difference recovery at shared settings.

    Both recoveries see the identical quantized modulo stream and threshold;
    only the sliding method uses the fold flags.  Reported MSEs average over
    the configured number of signal+dither realizations, at every guard
    width.
    """
    def measure(sampled, adc, recovery, **_):
        unfolded = baselines.hod_recover(adc.quantized, baselines.HodConfig(
            threshold=adc.config.threshold, order=cfg.hod_order))
        return dict(mse_hod_db=_mse(filter_zero_delay(unfolded, recovery.lowpass),
                                    sampled, cfg)[0])

    return _trial_grid(cfg, measure)


def run_m_grid(cfg: ExperimentConfig) -> list[MGridRow]:
    """Interference-norm Monte Carlo over (length, oversampling, set size)."""
    entropy = np.random.SeedSequence(cfg.seed)

    def measure(length, oversampling, set_size, **_):
        # One child seed per cell, spawned in row order.
        norm = guarantees.estimate_interference_norm(
            length, oversampling, 0.0, set_size, cfg.m_trials, entropy.spawn(1)[0])
        return dict(interference_norm=norm, extra_bits=guarantees.extra_bits(norm))

    points = [dict(experiment=cfg.experiment, length=length, oversampling=oversampling,
                   set_size=length // fraction, trials=cfg.m_trials, seed=cfg.seed)
              for length in cfg.m_lengths
              for oversampling in cfg.oversampling_list
              for fraction in cfg.m_set_fractions]
    return _grid(MGridRow, points, measure)


def run_theory_only(cfg: ExperimentConfig) -> list[TheoryRow]:
    """Closed-form table over the configured grid at unit peak; no simulation, no RNG."""
    length = cfg.window_length

    def measure(oversampling, bits, guard_width, guard_bins, **_):
        threshold = guarantees.required_threshold(1.0, oversampling, guard_bins, length)
        return dict(
            threshold=threshold,
            full_scale=AdcConfig(bits=bits, threshold=threshold).full_scale,
            min_oversampling=guarantees.min_oversampling(length, guard_bins),
            mse_theory_db=_db(guarantees.predict_mse_modulo(
                1.0, oversampling, bits, guard_bins, guard_width, length)),
            mse_conventional_db=_db(guarantees.predict_mse_conventional(
                1.0, oversampling, bits)))

    return _grid(TheoryRow, _adc_points(cfg), measure)


_DESK_OF_GRID = (4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0, 50.0)
# One row per experiment: its runner; the oversampling_list and trials that
# ExperimentConfig fills in when given none; whether it samples a signal at
# every factor of its grid; whether it draws random numbers, so needs a seed.
_TABLE = {
    "mse-sweep": (run_mse_sweep, _DESK_OF_GRID, 1, True, True),
    "compare-hod": (run_compare_hod, (4.0, 6.0, 10.0, 12.0, 16.0), 12, True, True),
    "m-grid": (run_m_grid, (4.0, 8.0, 12.0), 1, False, True),
    "theory-only": (run_theory_only, _DESK_OF_GRID, 1, False, False),
}
EXPERIMENTS = tuple(_TABLE)


def run_experiment(cfg: ExperimentConfig):
    """Dispatch to the configured experiment; returns (rows, elapsed_ms)."""
    started = time.perf_counter()
    rows = _TABLE[cfg.experiment][0](cfg)
    return rows, (time.perf_counter() - started) * 1e3
