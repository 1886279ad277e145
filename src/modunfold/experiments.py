"""Reproducible experiment harness.

Four experiments over a parameter grid: theory-vs-simulation MSE sweeps of
the sliding-DFT recovery (with the conventional pipeline alongside), the
sliding-DFT vs higher-order-difference comparison, the interference-norm
Monte-Carlo grid, and a pure-formula theory table.  Every experiment is a
deterministic function of (config, seed); rows serialize to CSV that hashes
identically across reruns.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import baselines, guarantees
from .errors import ConfigurationError, InfeasibleError
from .modulo_adc import AdcConfig, acquire
from .signal_model import (PulseTrainSpec, estimate_inf_norm,
                           generate_pulse_train, nominal_sample_count,
                           sample_signal)
from .unfold import RecoveryConfig, recovery_lowpass, unfold
from .dsp import filter_zero_delay, tukey_window

EXPERIMENTS = ("mse-sweep", "compare-hod", "m-grid", "theory-only")

# JSON types of the numeric fields (trials and seed may be null); each range
# is checked by the code that uses the value.
_INTS = ("num_pulses", "span", "window_length", "lpf_length", "hod_order",
         "m_trials", "trials", "seed")
_REALS = ("beta", "symbol_period", "amp_low", "amp_high", "window_alpha",
          "lpf_transition")
_INT_LISTS = ("bits_list", "m_lengths", "m_set_fractions")
_REAL_LISTS = ("oversampling_list", "guard_width_list")

# Safety margin on the grid-based peak estimate before sizing the threshold;
# grid maxima slightly undershoot the continuous maximum.
PEAK_MARGIN = 1.001

_DESK_OF_GRID = (4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0, 50.0)
_COMPARE_OF_GRID = (4.0, 6.0, 10.0, 12.0, 16.0)


@dataclass
class ExperimentConfig:
    """Parameter surface of one experiment run.

    Defaults are desk scale (2,000 pulses, 10,000 interference trials); the
    "paper" preset restores the full-scale figures.  `trials` is the number
    of Monte-Carlo realizations averaged per grid point; None picks a
    per-experiment default (1 for the sweep, 12 for the comparison).
    """

    experiment: str = "mse-sweep"
    # test signal
    num_pulses: int = 2000
    beta: float = 1.0
    span: int = 20
    symbol_period: float = 1.0
    amp_low: float = -0.5
    amp_high: float = 1.0
    # acquisition grid
    bits_list: tuple = (4,)
    oversampling_list: tuple = _DESK_OF_GRID
    # recovery
    window_length: int = 64
    window_alpha: float = 0.5
    guard_width_list: tuple = (np.pi / 32,)
    lpf_length: int = 1025
    lpf_transition: float = np.pi / 64
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
        for name in _INTS + _REALS:
            if getattr(self, name) is not None or name not in ("trials", "seed"):
                _check_number(name, getattr(self, name), integer=name in _INTS)
        for name in _INT_LISTS + _REAL_LISTS:
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigurationError(f"{name} must be a nonempty list")
            setattr(self, name, tuple(value))
            for item in value:
                _check_number(name, item, integer=name in _INT_LISTS)
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigurationError(f"out must be a path, got {self.out!r}")
        if self.trials is not None and self.trials < 1:
            raise ConfigurationError("trials must be positive")
        if any(f < 1 or n // f < 1 for n in self.m_lengths for f in self.m_set_fractions):
            raise ConfigurationError("every m_length // m_set_fraction must be at least 1")
        self.signal_spec(0)
        tukey_window(self.window_length, self.window_alpha)

    @property
    def effective_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        return 12 if self.experiment == "compare-hod" else 1

    def signal_spec(self, seed: int) -> PulseTrainSpec:
        return PulseTrainSpec(num_pulses=self.num_pulses, beta=self.beta,
                              span=self.span, symbol_period=self.symbol_period,
                              amp_low=self.amp_low, amp_high=self.amp_high,
                              seed=seed)


def _check_number(name: str, value, integer: bool) -> None:
    """Reject a bool, a non-number, a fraction for an integer, NaN or inf."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind) or not abs(value) < math.inf:
        wanted = "an integer" if integer else "a finite number"
        raise ConfigurationError(f"{name} must be {wanted}, got {value!r}")


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


@dataclass(frozen=True)
class ResultRow:
    """One grid point of an MSE experiment (dB fields empty when skipped)."""

    experiment: str
    oversampling: float
    bits: int
    guard_width: float
    guard_bins: int
    threshold: float | None
    mse_simulated_db: float | None
    mse_theory_db: float | None
    mse_conventional_db: float | None
    mse_hod_db: float | None
    samples_used: int
    seed: int
    status: str = "ok"
    reason: str = ""


@dataclass(frozen=True)
class MGridRow:
    """One cell of the interference-norm grid."""

    experiment: str
    length: int
    oversampling: float
    set_size: int
    interference_norm: float | None
    extra_bits: float | None
    trials: int
    seed: int
    status: str = "ok"
    reason: str = ""


@dataclass(frozen=True)
class TheoryRow:
    """Pure-formula predictions for one operating point."""

    experiment: str
    oversampling: float
    bits: int
    guard_width: float
    guard_bins: int
    threshold: float | None
    full_scale: float | None
    min_oversampling: float | None
    oversampling_ok: bool | None
    mse_theory_db: float | None
    mse_conventional_db: float | None
    seed: int
    status: str = "ok"
    reason: str = ""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(rows, path: str) -> str:
    """Write dataclass rows as CSV with >= 12 significant digits.

    Header from the row fields; floats use repr-exact formatting so the file
    round-trips losslessly and byte-identically across reruns.
    """
    if rows:
        names = [f.name for f in dataclasses.fields(rows[0])]
    else:
        names = [f.name for f in dataclasses.fields(ResultRow)]
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(names) + "\n")
            for row in rows:
                handle.write(",".join(_fmt(getattr(row, n)) for n in names) + "\n")
    except OSError as err:
        raise ConfigurationError(f"cannot write {path}: {err}") from err
    return path


def _require_seed(cfg: ExperimentConfig) -> int:
    if cfg.seed is None or cfg.seed < 0:
        raise ConfigurationError(
            f"{cfg.experiment} needs --seed N >= 0 (or a seed in the config)")
    return cfg.seed


def _trial_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(count)


def _measure_mse(recovered: np.ndarray, reference: np.ndarray,
                 trim: int = 0) -> tuple[float, int]:
    """Mean squared error and the sample count it was taken over.

    `trim` drops that many samples at each end: the zero-delay lowpass fills
    its first and last half-window from synthetic padding, so those outputs
    measure the boundary extension rather than the recovery.
    """
    total = recovered.size
    if 2 * trim >= total:
        trim = 0
    core = slice(trim, total - trim)
    err = recovered[core] - reference[core]
    return float(np.mean(err ** 2)), total - 2 * trim


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


@dataclass
class _TrialContext:
    """One signal realization, sampled lazily per oversampling factor."""

    cfg: ExperimentConfig
    signal_seed: int
    adc_entropy: np.random.SeedSequence

    def __post_init__(self):
        self.train = generate_pulse_train(self.cfg.signal_spec(self.signal_seed))
        self.peak = PEAK_MARGIN * estimate_inf_norm(self.train)
        self._sampled = {}
        self._adc_seeds = {}

    def sampled(self, oversampling: float):
        if oversampling not in self._sampled:
            count = nominal_sample_count(self.train.spec, oversampling)
            self._sampled[oversampling] = sample_signal(
                self.train, oversampling, count)
        return self._sampled[oversampling]

    def adc_seed(self, key) -> np.random.SeedSequence:
        if key not in self._adc_seeds:
            self._adc_seeds[key] = self.adc_entropy.spawn(1)[0]
        return self._adc_seeds[key]


def _modulo_point(ctx: _TrialContext, oversampling: float, bits: int,
                  guard_width: float, want_hod: bool):
    """Run acquisition + sliding recovery (and optionally HoD) at one point."""
    cfg = ctx.cfg
    bins = guarantees.guard_bin_count(guard_width, cfg.window_length)
    threshold = guarantees.required_threshold(
        ctx.peak, oversampling, bins, cfg.window_length)
    sampled = ctx.sampled(oversampling)
    adc_cfg = AdcConfig(bits=bits, threshold=threshold,
                        seed=ctx.adc_seed(("mod", oversampling, bits, guard_width)))
    adc = acquire(sampled, adc_cfg)
    recovery = RecoveryConfig(length=cfg.window_length, alpha=cfg.window_alpha,
                              guard_width=guard_width, threshold=threshold,
                              band_fraction=1.0 / oversampling,
                              lpf_length=cfg.lpf_length,
                              lpf_transition=cfg.lpf_transition)
    result = unfold(adc, sampled, recovery)
    trim = cfg.lpf_length // 2
    mse_mod, used = _measure_mse(result.recovered, sampled.samples, trim)
    mse_hod = None
    if want_hod:
        hod = baselines.hod_recover(
            adc.quantized, baselines.HodConfig(threshold=threshold, order=cfg.hod_order))
        hod_filtered = filter_zero_delay(hod, recovery_lowpass(recovery))
        mse_hod, _ = _measure_mse(hod_filtered, sampled.samples, trim)
    return threshold, bins, mse_mod, mse_hod, used


def run_mse_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Theory-vs-simulation sweep with the conventional pipeline alongside."""
    seed = _require_seed(cfg)
    trials = cfg.effective_trials
    contexts = [
        _TrialContext(cfg, signal_seed=seed + 1000 * t, adc_entropy=entropy)
        for t, entropy in enumerate(_trial_seeds(seed, trials))
    ]
    rows = []
    for oversampling in cfg.oversampling_list:
        for bits in cfg.bits_list:
            conventional = {}
            for guard_width in cfg.guard_width_list:
                try:
                    acc_mod, acc_conv, acc_theory, used = 0.0, 0.0, 0.0, 0
                    threshold = bins = None
                    for ctx in contexts:
                        threshold, bins, mse_mod, _, used = _modulo_point(
                            ctx, oversampling, bits, guard_width, want_hod=False)
                        if ctx.signal_seed not in conventional:
                            sampled = ctx.sampled(oversampling)
                            estimate = baselines.conventional_adc(
                                sampled, bits, ctx.peak,
                                ctx.adc_seed(("conv", oversampling, bits)),
                                lpf_length=cfg.lpf_length,
                                lpf_transition=cfg.lpf_transition)
                            conventional[ctx.signal_seed], _ = _measure_mse(
                                estimate, sampled.samples, cfg.lpf_length // 2)
                        acc_mod += mse_mod
                        acc_conv += conventional[ctx.signal_seed]
                        acc_theory += guarantees.predict_mse_modulo(
                            ctx.peak, oversampling, bits, bins,
                            guard_width, cfg.window_length)
                    rows.append(ResultRow(
                        experiment=cfg.experiment, oversampling=oversampling,
                        bits=bits, guard_width=guard_width, guard_bins=bins,
                        threshold=threshold,
                        mse_simulated_db=_db(acc_mod / trials),
                        mse_theory_db=_db(acc_theory / trials),
                        mse_conventional_db=_db(acc_conv / trials),
                        mse_hod_db=None, samples_used=used, seed=seed))
                except InfeasibleError as err:
                    rows.append(_skipped_row(cfg, oversampling, bits,
                                             guard_width, seed, str(err)))
    return rows


def run_compare_hod(cfg: ExperimentConfig) -> list[ResultRow]:
    """Sliding-DFT vs higher-order-difference recovery at shared settings.

    Both recoveries see the identical quantized modulo stream and threshold;
    only the sliding method uses the fold flags.  Reported MSEs average over
    the configured number of signal+dither realizations.  When the
    oversampling grid is left at the sweep default it is replaced by the
    narrower comparison grid (the regimes of interest sit below OF = 16).
    """
    seed = _require_seed(cfg)
    trials = cfg.effective_trials
    guard_width = cfg.guard_width_list[0]
    grid = cfg.oversampling_list
    if cfg.oversampling_list == _DESK_OF_GRID:
        grid = _COMPARE_OF_GRID
    contexts = [
        _TrialContext(cfg, signal_seed=seed + 1000 * t, adc_entropy=entropy)
        for t, entropy in enumerate(_trial_seeds(seed, trials))
    ]
    rows = []
    for oversampling in grid:
        for bits in cfg.bits_list:
            try:
                acc_mod, acc_hod, used = 0.0, 0.0, 0
                threshold = bins = None
                for ctx in contexts:
                    threshold, bins, mse_mod, mse_hod, used = _modulo_point(
                        ctx, oversampling, bits, guard_width, want_hod=True)
                    acc_mod += mse_mod
                    acc_hod += mse_hod
                rows.append(ResultRow(
                    experiment=cfg.experiment, oversampling=oversampling,
                    bits=bits, guard_width=guard_width, guard_bins=bins,
                    threshold=threshold,
                    mse_simulated_db=_db(acc_mod / trials),
                    mse_theory_db=None, mse_conventional_db=None,
                    mse_hod_db=_db(acc_hod / trials),
                    samples_used=used, seed=seed))
            except InfeasibleError as err:
                rows.append(_skipped_row(cfg, oversampling, bits,
                                         guard_width, seed, str(err)))
    return rows


def _skipped_row(cfg, oversampling, bits, guard_width, seed, reason) -> ResultRow:
    return ResultRow(
        experiment=cfg.experiment, oversampling=oversampling, bits=bits,
        guard_width=guard_width,
        guard_bins=guarantees.guard_bin_count(guard_width, cfg.window_length),
        threshold=None, mse_simulated_db=None, mse_theory_db=None,
        mse_conventional_db=None, mse_hod_db=None, samples_used=0,
        seed=seed, status="skipped", reason=reason)


def run_m_grid(cfg: ExperimentConfig) -> list[MGridRow]:
    """Interference-norm Monte Carlo over (length, oversampling, set size)."""
    seed = _require_seed(cfg)
    grid_of = cfg.oversampling_list
    if grid_of == _DESK_OF_GRID:
        grid_of = (4.0, 8.0, 12.0)
    entropy = _trial_seeds(seed, len(cfg.m_lengths) * len(grid_of)
                           * len(cfg.m_set_fractions))
    rows = []
    point = 0
    for length in cfg.m_lengths:
        for oversampling in grid_of:
            for fraction in cfg.m_set_fractions:
                set_size = length // fraction
                child = entropy[point]
                point += 1
                try:
                    norm = guarantees.estimate_interference_norm(
                        length, oversampling, 0.0, set_size, cfg.m_trials, child)
                    rows.append(MGridRow(
                        experiment=cfg.experiment, length=length,
                        oversampling=oversampling, set_size=set_size,
                        interference_norm=norm,
                        extra_bits=math.log2(1.0 + 0.75 * norm),
                        trials=cfg.m_trials, seed=seed))
                except InfeasibleError as err:
                    rows.append(MGridRow(
                        experiment=cfg.experiment, length=length,
                        oversampling=oversampling, set_size=set_size,
                        interference_norm=None, extra_bits=None,
                        trials=cfg.m_trials, seed=seed,
                        status="skipped", reason=str(err)))
    return rows


def run_theory_only(cfg: ExperimentConfig) -> list[TheoryRow]:
    """Closed-form table over the configured grid; no simulation, no RNG."""
    seed = cfg.seed if cfg.seed is not None else 0
    peak = 1.0
    rows = []
    for oversampling in cfg.oversampling_list:
        for bits in cfg.bits_list:
            for guard_width in cfg.guard_width_list:
                bins = guarantees.guard_bin_count(guard_width, cfg.window_length)
                try:
                    report = guarantees.theory_report(
                        peak, oversampling, bits, cfg.window_length, guard_width)
                    rows.append(TheoryRow(
                        experiment=cfg.experiment, oversampling=oversampling,
                        bits=bits, guard_width=guard_width, guard_bins=bins,
                        threshold=report.threshold, full_scale=report.full_scale,
                        min_oversampling=guarantees.min_oversampling(
                            cfg.window_length, bins),
                        oversampling_ok=True,
                        mse_theory_db=report.mse_modulo_db,
                        mse_conventional_db=report.mse_conventional_db,
                        seed=seed))
                except InfeasibleError as err:
                    rows.append(TheoryRow(
                        experiment=cfg.experiment, oversampling=oversampling,
                        bits=bits, guard_width=guard_width, guard_bins=bins,
                        threshold=None, full_scale=None, min_oversampling=None,
                        oversampling_ok=False, mse_theory_db=None,
                        mse_conventional_db=None, seed=seed,
                        status="skipped", reason=str(err)))
    return rows


_RUNNERS = {
    "mse-sweep": run_mse_sweep,
    "compare-hod": run_compare_hod,
    "m-grid": run_m_grid,
    "theory-only": run_theory_only,
}


def run_experiment(cfg: ExperimentConfig):
    """Dispatch to the configured experiment; returns (rows, elapsed_ms)."""
    started = time.perf_counter()
    rows = _RUNNERS[cfg.experiment](cfg)
    return rows, (time.perf_counter() - started) * 1e3
