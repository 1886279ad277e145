"""Reproducible experiment harness.

Four experiments over a parameter grid: theory-vs-simulation MSE sweeps of
the sliding-DFT recovery (with the conventional pipeline alongside), the
sliding-DFT vs higher-order-difference comparison, the interference-norm
Monte-Carlo grid, and a pure-formula theory table.  Each runs one grid
loop: one row per grid point, and a point whose measurement is infeasible
(InfeasibleError) becomes a row marked skipped that holds only the point's
own fields.  Every experiment is a deterministic function of (config,
seed); rows serialize to CSV that hashes identically across reruns.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, guarantees
from .errors import ConfigurationError, InfeasibleError
from .modulo_adc import AdcConfig, acquire
from .signal_model import (PulseTrainSpec, estimate_inf_norm,
                           generate_pulse_train, nominal_sample_count,
                           sample_signal)
from .unfold import RecoveryConfig, unfold
from .dsp import filter_zero_delay, tukey_window

EXPERIMENTS = ("mse-sweep", "compare-hod", "m-grid", "theory-only")

# JSON types of the numeric fields (trials and seed may be null); each range
# is checked by the code that uses the value.
_INTS = ("num_pulses", "span", "window_length", "lpf_length", "hod_order",
         "m_trials", "trials", "seed")
_REALS = ("beta", "amp_low", "amp_high", "window_alpha", "lpf_transition")
_INT_LISTS = ("bits_list", "m_lengths", "m_set_fractions")
_REAL_LISTS = ("oversampling_list", "guard_width_list")

# Safety margin on the grid-based peak estimate before sizing the threshold;
# grid maxima slightly undershoot the continuous maximum.
PEAK_MARGIN = 1.001

_DESK_OF_GRID = (4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0, 50.0)
# Grids that stand in for the desk default (see ExperimentConfig).
_OWN_OF_GRIDS = {"compare-hod": (4.0, 6.0, 10.0, 12.0, 16.0),
                 "m-grid": (4.0, 8.0, 12.0)}
# Experiments that sample a signal at every oversampling factor of their grid.
_SAMPLED = ("mse-sweep", "compare-hod")


@dataclass
class ExperimentConfig:
    """Parameter surface of one experiment run.

    Defaults are desk scale (2,000 pulses, 10,000 interference trials); the
    "paper" preset restores the full-scale figures.  `trials` is the number
    of Monte-Carlo realizations averaged per grid point; None picks a
    per-experiment default (1 for the sweep, 12 for the comparison).
    An `oversampling_list` equal to the desk default, given or not, stands
    for each experiment's own grid: compare-hod runs OF 4, 6, 10, 12, 16 and
    m-grid OF 4, 8, 12; any other list is run as given.
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
        for n in self.m_lengths:
            for f in self.m_set_fractions:
                guarantees.check_fold_set(n, n // f)
        spec = self.signal_spec(0)
        if self.experiment in _SAMPLED:
            # A factor <= 0 is an infeasible point (required_threshold), not a size.
            for oversampling in self.oversampling_grid:
                if oversampling > 0.0:
                    nominal_sample_count(spec, oversampling)
        tukey_window(self.window_length, self.window_alpha)

    @property
    def oversampling_grid(self) -> tuple:
        """The oversampling factors this experiment runs."""
        if self.oversampling_list == _DESK_OF_GRID:
            return _OWN_OF_GRIDS.get(self.experiment, _DESK_OF_GRID)
        return self.oversampling_list

    @property
    def effective_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        return 12 if self.experiment == "compare-hod" else 1

    def signal_spec(self, seed: int) -> PulseTrainSpec:
        return PulseTrainSpec(num_pulses=self.num_pulses, beta=self.beta,
                              span=self.span, amp_low=self.amp_low,
                              amp_high=self.amp_high, seed=seed)


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


@dataclass(frozen=True, kw_only=True)
class ResultRow:
    """One grid point of an MSE experiment (measured fields empty when skipped)."""

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
    """Pure-formula predictions for one operating point."""

    experiment: str
    oversampling: float
    bits: int
    guard_width: float
    guard_bins: int
    threshold: float | None = None
    full_scale: float | None = None
    min_oversampling: float | None = None
    oversampling_ok: bool = False
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
    """The (oversampling, bits, guard width) grid in row order.

    Theory-only needs no seed; its rows record 0 when none is given.
    """
    return [dict(experiment=cfg.experiment, oversampling=oversampling, bits=bits,
                 guard_width=guard_width,
                 guard_bins=guarantees.guard_bin_count(guard_width, cfg.window_length),
                 seed=cfg.seed if cfg.seed is not None else 0)
            for oversampling in cfg.oversampling_grid
            for bits in cfg.bits_list
            for guard_width in cfg.guard_width_list]


@dataclass
class _TrialContext:
    """One signal realization, sampled lazily at one oversampling factor at a time.

    Oversampling is the outer loop of `_adc_points`, so every point of a
    factor follows its first; only that factor's samples are kept.
    """

    cfg: ExperimentConfig
    signal_seed: int
    adc_entropy: np.random.SeedSequence

    def __post_init__(self):
        self.train = generate_pulse_train(self.cfg.signal_spec(self.signal_seed))
        self.peak = PEAK_MARGIN * estimate_inf_norm(self.train)
        self._oversampling = self._sampled = None
        self._adc_seeds = {}
        self._conventional = {}

    def sampled(self, oversampling: float):
        if oversampling != self._oversampling:
            self._sampled = None  # freed before the next factor is sampled
            count = nominal_sample_count(self.train.spec, oversampling)
            self._sampled = sample_signal(self.train, oversampling, count)
            self._oversampling = oversampling
        return self._sampled

    def adc_seed(self, key) -> np.random.SeedSequence:
        # Seeds are spawned in first-request order, so the point order, and
        # "mod" before "conv" within a point, must not change: either would
        # hand later points other dither and change the CSV bytes.
        if key not in self._adc_seeds:
            self._adc_seeds[key] = self.adc_entropy.spawn(1)[0]
        return self._adc_seeds[key]

    def mse(self, estimate: np.ndarray, oversampling: float) -> tuple[float, int]:
        """MSE of `estimate` against the sampled signal, and its sample count.

        The zero-delay lowpass fills its first and last half-window from
        synthetic padding, so those outputs measure the boundary extension
        rather than the recovery and are left out.
        """
        reference = self.sampled(oversampling).samples
        trim = self.cfg.lpf_length // 2
        core = slice(trim, reference.size - trim)
        err = estimate[core] - reference[core]
        return float(np.mean(np.square(err, out=err))), err.size

    def conventional_mse(self, oversampling: float, bits: int) -> float:
        """MSE of the conventional pipeline, computed once per (oversampling, bits)."""
        key = (oversampling, bits)
        if key not in self._conventional:
            estimate = baselines.conventional_adc(
                self.sampled(oversampling), bits, self.peak,
                self.adc_seed(("conv",) + key), lpf_length=self.cfg.lpf_length,
                lpf_transition=self.cfg.lpf_transition)
            self._conventional[key], _ = self.mse(estimate, oversampling)
        return self._conventional[key]


def _contexts(cfg: ExperimentConfig) -> list[_TrialContext]:
    """One realization per trial t: signal seed `seed + 1000 t`, its own dither."""
    seed = _require_seed(cfg)
    entropy = np.random.SeedSequence(seed).spawn(cfg.effective_trials)
    return [_TrialContext(cfg, signal_seed=seed + 1000 * t, adc_entropy=child)
            for t, child in enumerate(entropy)]


def _modulo_point(ctx: _TrialContext, oversampling: float, bits: int,
                  guard_width: float, guard_bins: int):
    """Acquire and unfold one realization: (adc, recovery, mse, samples used)."""
    cfg = ctx.cfg
    threshold = guarantees.required_threshold(
        ctx.peak, oversampling, guard_bins, cfg.window_length)
    sampled = ctx.sampled(oversampling)
    adc_cfg = AdcConfig(bits=bits, threshold=threshold,
                        seed=ctx.adc_seed(("mod", oversampling, bits, guard_width)))
    adc = acquire(sampled, adc_cfg)
    recovery = RecoveryConfig(length=cfg.window_length, alpha=cfg.window_alpha,
                              guard_width=guard_width, threshold=threshold,
                              band_fraction=1.0 / oversampling,
                              lpf_length=cfg.lpf_length,
                              lpf_transition=cfg.lpf_transition)
    mse, used = ctx.mse(unfold(adc, sampled, recovery).recovered, oversampling)
    return adc, recovery, mse, used


def run_mse_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Theory-vs-simulation sweep with the conventional pipeline alongside."""
    contexts = _contexts(cfg)

    def measure(oversampling, bits, guard_width, guard_bins, **_):
        acc_mod = acc_conv = acc_theory = 0.0
        for ctx in contexts:
            _, recovery, mse_mod, used = _modulo_point(
                ctx, oversampling, bits, guard_width, guard_bins)
            acc_mod += mse_mod
            acc_conv += ctx.conventional_mse(oversampling, bits)
            acc_theory += guarantees.predict_mse_modulo(
                ctx.peak, oversampling, bits, guard_bins, guard_width, cfg.window_length)
        return dict(threshold=recovery.threshold,
                    mse_simulated_db=_db(acc_mod / len(contexts)),
                    mse_theory_db=_db(acc_theory / len(contexts)),
                    mse_conventional_db=_db(acc_conv / len(contexts)),
                    samples_used=used)

    points = _adc_points(cfg)
    return _grid(ResultRow, points, measure)


def run_compare_hod(cfg: ExperimentConfig) -> list[ResultRow]:
    """Sliding-DFT vs higher-order-difference recovery at shared settings.

    Both recoveries see the identical quantized modulo stream and threshold;
    only the sliding method uses the fold flags.  Reported MSEs average over
    the configured number of signal+dither realizations, at every guard
    width; the regimes of interest sit below OF = 16 (see ExperimentConfig).
    """
    contexts = _contexts(cfg)

    def measure(oversampling, bits, guard_width, guard_bins, **_):
        acc_mod = acc_hod = 0.0
        for ctx in contexts:
            adc, recovery, mse_mod, used = _modulo_point(
                ctx, oversampling, bits, guard_width, guard_bins)
            unfolded = baselines.hod_recover(adc.quantized, baselines.HodConfig(
                threshold=recovery.threshold, order=cfg.hod_order))
            mse_hod, _ = ctx.mse(
                filter_zero_delay(unfolded, recovery.lowpass), oversampling)
            acc_mod += mse_mod
            acc_hod += mse_hod
        return dict(threshold=recovery.threshold,
                    mse_simulated_db=_db(acc_mod / len(contexts)),
                    mse_hod_db=_db(acc_hod / len(contexts)), samples_used=used)

    points = _adc_points(cfg)
    return _grid(ResultRow, points, measure)


def run_m_grid(cfg: ExperimentConfig) -> list[MGridRow]:
    """Interference-norm Monte Carlo over (length, oversampling, set size)."""
    seed = _require_seed(cfg)
    entropy = np.random.SeedSequence(seed)

    def measure(length, oversampling, set_size, **_):
        # One child seed per cell, spawned in row order.
        norm = guarantees.estimate_interference_norm(
            length, oversampling, 0.0, set_size, cfg.m_trials, entropy.spawn(1)[0])
        return dict(interference_norm=norm, extra_bits=math.log2(1.0 + 0.75 * norm))

    points = [dict(experiment=cfg.experiment, length=length, oversampling=oversampling,
                   set_size=length // fraction, trials=cfg.m_trials, seed=seed)
              for length in cfg.m_lengths
              for oversampling in cfg.oversampling_grid
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
            oversampling_ok=True,
            mse_theory_db=_db(guarantees.predict_mse_modulo(
                1.0, oversampling, bits, guard_bins, guard_width, length)),
            mse_conventional_db=_db(guarantees.predict_mse_conventional(
                1.0, oversampling, bits)))

    points = _adc_points(cfg)
    return _grid(TheoryRow, points, measure)


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
