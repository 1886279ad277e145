"""The benchmark's workloads: inputs made from a seed, one operation, its check.

A workload is a fixed list of operations, its *pass*.  `setup` builds the
inputs from the seed, `run(i)` performs operation i (the only timed call) and
`record(i, result)` turns its result into plain dicts, one per attempted unit
of work, which `check` holds against the invariants, the stored reference and
the first repetition of the same operation.

All calls go through `modunfold`'s public names.  `modunfold.experiments` is
not imported by the package, so it is resolved through importlib.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from spans import package_module

# Simulated MSE must stay this close to the closed-form prediction (dB).  One
# realization scatters by about 0.1 dB around a small negative bias; a broken
# recovery or lowpass misses by whole decibels.
GAP_TOL_DB = 1.0
# Floats match a reference when |got - ref| <= REL_TOL * max(1, |ref|).
REL_TOL = 1e-6


def mse_db(estimate, reference, trim: int) -> float:
    """MSE in dB over the core that the zero-delay lowpass fills from data."""
    err = np.asarray(estimate)[trim:-trim] - np.asarray(reference)[trim:-trim]
    return 10.0 * math.log10(float(np.mean(err ** 2)))


def lattice_slips(residue, truth, threshold: float) -> int:
    """Samples whose residue sits on another 2*threshold lattice point."""
    spacing = 2.0 * threshold
    return int(np.count_nonzero(
        np.round(np.asarray(residue) / spacing) != np.round(np.asarray(truth) / spacing)))


def mismatch(ref: dict, got: dict, skip=()) -> str | None:
    """First field of `ref` that `got` does not reproduce, or None.

    Fields absent from `ref` are ignored, so columns a later version adds do
    not count.  Floats compare within REL_TOL; everything else exactly.
    """
    for key, want in ref.items():
        if key in skip:
            continue
        if key not in got:
            return f"{key} missing"
        have = got[key]
        if isinstance(want, float) and isinstance(have, (int, float)) \
                and not isinstance(have, bool):
            if not abs(have - want) <= REL_TOL * max(1.0, abs(want)):
                return f"{key}={have!r}, reference {want!r}"
        elif have != want:
            return f"{key}={have!r}, reference {want!r}"
    return None


def _plain(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def row_dict(row) -> dict:
    return {f.name: _plain(getattr(row, f.name)) for f in dataclasses.fields(row)}


class Workload:
    """Shared bookkeeping; subclasses define the inputs and the operations."""

    name = ""
    ops: list = []
    # Reference fields never gated (ROADMAP item 3 replaces mse_hod_db).
    ungated = ("mse_hod_db",)

    def __init__(self, package, seed: int):
        self.m = package
        self.experiments = package_module("experiments")
        self.seed = seed

    def expected(self, i: int) -> bool:
        """Whether operation i must succeed (False for by-design probes)."""
        return True

    def units(self, i: int) -> int:
        return 1

    def warm_up(self) -> None:
        self.run(0)

    def report_units(self) -> list[tuple[str, str]]:
        """Names and units of the figures `summary` adds to the report."""
        return [("ops_failed_frac", "ratio")]

    def summary(self, medians: list[float], first: dict) -> dict:
        """Workload figures from per-op median times and first-run records."""
        return {}


@dataclasses.dataclass
class Leg:
    bits: int
    oversampling: float
    sampled: object
    adc: object
    config: object
    theory_db: float
    edge: bool


class Recover(Workload):
    """One `unfold` call per leg; synthesis and acquisition run in set-up."""

    name = "recover"
    # 4-bit legs at sparse, medium and dense folds, then the two edge legs
    # that slip by design (too few bits for the fold density).
    LEGS = ((4, 4.0), (4, 16.0), (4, 50.0), (2, 4.0), (3, 6.0))
    EDGE = ((2, 4.0), (3, 6.0))

    @property
    def ops(self):
        return [f"bits{b}_of{of:g}" for b, of in self.LEGS]

    def setup(self) -> None:
        m, seed = self.m, self.seed
        cfg = self.experiments.ExperimentConfig(experiment="mse-sweep", seed=seed)
        spec = cfg.signal_spec(seed)
        train = m.generate_pulse_train(spec)
        peak = self.experiments.PEAK_MARGIN * m.estimate_inf_norm(train)
        guard, length = cfg.guard_width_list[0], cfg.window_length
        bins = m.guard_bin_count(guard, length)
        self.trim = cfg.lpf_length // 2
        sampled = {}
        dither = np.random.SeedSequence(seed).spawn(len(self.LEGS))
        self.legs = []
        for (bits, of), entropy in zip(self.LEGS, dither):
            if of not in sampled:
                sampled[of] = m.sample_signal(train, of, m.nominal_sample_count(spec, of))
            threshold = m.required_threshold(peak, of, bins, length)
            adc = m.acquire(sampled[of], m.AdcConfig(bits=bits, threshold=threshold,
                                                     seed=entropy))
            config = m.RecoveryConfig(
                length=length, alpha=cfg.window_alpha, guard_width=guard,
                threshold=threshold, band_fraction=1.0 / of,
                lpf_length=cfg.lpf_length, lpf_transition=cfg.lpf_transition)
            theory = m.predict_mse_modulo(peak, of, bits, bins, guard, length)
            self.legs.append(Leg(bits, of, sampled[of], adc, config,
                                 10.0 * math.log10(theory), (bits, of) in self.EDGE))

    def samples(self, i: int) -> int:
        return int(self.legs[i].adc.quantized.size)

    def expected(self, i: int) -> bool:
        return not self.legs[i].edge

    def run(self, i: int):
        leg = self.legs[i]
        return self.m.unfold(leg.adc, leg.sampled, leg.config)

    def record(self, i: int, result) -> list[dict]:
        leg = self.legs[i]
        slips = lattice_slips(result.residue, leg.adc.residue_truth, leg.config.threshold)
        return [{
            "status": "slipped" if slips else "ok",
            "bits": leg.bits, "oversampling": leg.oversampling,
            "samples": self.samples(i),
            "folds": int(np.count_nonzero(leg.adc.folding_bits)),
            "slips": slips,
            "mse_db": mse_db(result.recovered, leg.sampled.samples, self.trim),
        }]

    def invariant(self, i: int, unit: dict) -> str | None:
        if unit["status"] != "ok":
            return f"{unit['status']}: {unit.get('slips', unit.get('error'))}"
        gap = unit["mse_db"] - self.legs[i].theory_db
        return None if abs(gap) <= GAP_TOL_DB else f"MSE {gap:+.3f} dB from theory"

    def report_units(self):
        legs = [(f"msps_of{of:g}", "Msamples/s") for bits, of in self.LEGS
                if (bits, of) not in self.EDGE]
        return legs + [("lattice_slips", "samples")] + super().report_units()

    def summary(self, medians, first):
        out = {f"msps_of{leg.oversampling:g}": self.samples(i) / medians[i] / 1e6
               for i, leg in enumerate(self.legs) if not leg.edge}
        out["lattice_slips"] = sum(unit.get("slips", 0)
                                   for units in first.values() for unit in units)
        return out


class Sweep(Workload):
    """`run_experiment(mse-sweep)` at the desk preset; a pass is the whole grid."""

    name = "sweep"
    ops = ["mse-sweep"]

    def setup(self) -> None:
        self.cfg = self.experiments.ExperimentConfig(experiment="mse-sweep", seed=self.seed)

    def units(self, i: int) -> int:
        return len(self.cfg.oversampling_list) * len(self.cfg.bits_list) \
            * len(self.cfg.guard_width_list)

    def warm_up(self) -> None:
        # One grid point: every layer the sweep touches, at a fraction of a pass.
        one = dataclasses.replace(self.cfg, oversampling_list=self.cfg.oversampling_list[:1])
        self.experiments.run_experiment(one)

    def run(self, i: int):
        rows, _ = self.experiments.run_experiment(self.cfg)
        return rows

    def record(self, i: int, rows) -> list[dict]:
        return [row_dict(row) for row in rows]

    def invariant(self, i: int, unit: dict) -> str | None:
        if unit["status"] != "ok":
            return f"{unit['status']}: {unit.get('reason', '')}"
        gap = unit["mse_simulated_db"] - unit["mse_theory_db"]
        return None if abs(gap) <= GAP_TOL_DB else f"MSE {gap:+.3f} dB from theory"

    def report_units(self):
        return [("mse_gap_db", "dB")] + super().report_units()

    def summary(self, medians, first):
        gaps = [abs(u["mse_simulated_db"] - u["mse_theory_db"])
                for u in first[0] if u["status"] == "ok"]
        return {"mse_gap_db": max(gaps) if gaps else float("nan")}


class MGrid(Workload):
    """One cell of `run_experiment(m-grid)` per operation, desk preset."""

    name = "mgrid"
    # The desk m-grid replaces the sweep's oversampling grid by these three.
    OVERSAMPLING = (4.0, 8.0, 12.0)

    def setup(self) -> None:
        base = self.experiments.ExperimentConfig(experiment="m-grid", seed=self.seed)
        grid = [(length, of, fraction) for length in base.m_lengths
                for of in self.OVERSAMPLING for fraction in base.m_set_fractions]
        # Each cell gets its own seed, so cells draw independent fold sets.
        self.cells = [
            dataclasses.replace(base, m_lengths=(length,), oversampling_list=(of,),
                                m_set_fractions=(fraction,),
                                seed=self.seed * len(grid) + index)
            for index, (length, of, fraction) in enumerate(grid)]

    @property
    def ops(self):
        return [f"n{c.m_lengths[0]}_of{c.oversampling_list[0]:g}"
                f"_k{c.m_lengths[0] // c.m_set_fractions[0]}" for c in self.cells]

    def run(self, i: int):
        rows, _ = self.experiments.run_experiment(self.cells[i])
        return rows

    def record(self, i: int, rows) -> list[dict]:
        return [row_dict(row) for row in rows]

    def invariant(self, i: int, unit: dict) -> str | None:
        if unit["status"] != "ok":
            return f"{unit['status']}: {unit.get('reason', '')}"
        norm = unit["interference_norm"]
        return None if math.isfinite(norm) and norm > 0.0 else f"norm {norm!r}"


class Tally:
    """Attempted and failed units of work, checked as they complete."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first = {}
        self.attempted = 0
        self.failed = 0    # units that missed a result they must produce
        self.not_ok = 0    # units that raised, slipped or were skipped
        self.problems = []

    def judge(self, i: int, result) -> None:
        wl = self.workload
        if isinstance(result, Exception):
            units = [{"status": "raised", "error": repr(result)}] * wl.units(i)
        else:
            units = wl.record(i, result)
        first = self.first.setdefault(i, units)
        ref = self.reference[i] if self.reference else None
        if ref is not None and len(ref) != len(units):
            ref = [{"units": len(ref)}] * len(units)
        for k, unit in enumerate(units):
            self.attempted += 1
            self.not_ok += unit["status"] != "ok"
            problem = None
            if wl.expected(i):
                problem = wl.invariant(i, unit)
                if problem is None and ref is not None:
                    problem = mismatch(ref[k], unit, skip=wl.ungated)
            if problem is None and first is not units:
                problem = mismatch(first[k], unit)
                problem = problem and f"differs from its first run: {problem}"
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{wl.ops[i]}[{k}]: {problem}")


WORKLOADS = {cls.name: cls for cls in (Recover, Sweep, MGrid)}
