"""Per-layer figures: counters attached to spans, and the final per-layer table.

Counts named "computed" are derived from the call's inputs (fold flags,
segment starts, out-of-band bins, trial counts), not measured inside the
package; they give the operation counts an optimisation should change.
"""

from __future__ import annotations

import math

import numpy as np

from spans import SETUP, TARGETS, package_module
from workloads import lattice_slips

# The 4-bit recovery legs whose unfold throughput is reported separately.
LEG_OVERSAMPLING = (4, 16, 50)

# Stages of one unfold call: spans whose parent span is unfold.unfold.
UNFOLD_STAGES = ("unfold.residue_pre_estimate", "unfold.windowed_first_difference",
                 "unfold.round_to_lattice", "unfold.scaling_correction",
                 "dsp.filter_zero_delay", "unfold.recovery_lowpass")


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _inf_norm(t, args, kwargs, result, seconds):
    # Computed: the dense-grid size estimate_inf_norm evaluates the train on.
    train = _arg(args, kwargs, 0, "train")
    oversample = _arg(args, kwargs, 1, "grid_oversample", 64)
    lo, hi = train.support
    step = (2.0 * math.pi / train.bandwidth) / oversample
    t.add("signal_model.estimate_inf_norm.points", math.ceil((hi - lo) / step) + 1)


def _sample_signal(t, args, kwargs, result, seconds):
    t.add("signal_model.sample_signal.samples", result.samples.size)


def _acquire(t, args, kwargs, result, seconds):
    t.add("modulo_adc.acquire.samples", result.quantized.size)
    t.add("modulo_adc.acquire.folds", int(np.count_nonzero(result.folding_bits)))


def fold_counts(flags, config) -> tuple[np.ndarray, int]:
    """Computed fold count k of every segment, and the out-of-band bin count.

    Mirrors unfold's segmentation: the flag stream is left-padded by one
    window overlap, then cut at the public `segment_starts`.
    """
    length = config.length
    overlap = int(round(config.alpha * length / 2))
    padded = np.concatenate([np.zeros(overlap, dtype=bool), np.asarray(flags, dtype=bool)])
    starts = package_module("unfold").segment_starts(
        max(padded.size, length), length, config.alpha)
    if isinstance(starts, tuple):  # (starts, overrun flag) in older versions
        starts = starts[0]
    starts = np.asarray(starts, dtype=int)
    running = np.concatenate([[0], np.cumsum(padded)])
    k = running[np.minimum(starts + length, padded.size)] - running[starts]
    bins = package_module("dsp").oob_bin_indices(
        length, config.band_fraction, config.guard_width).size
    return k, int(bins)


def _unfold(t, args, kwargs, result, seconds):
    adc = _arg(args, kwargs, 0, "adc")
    config = _arg(args, kwargs, 2, "config")
    samples = adc.quantized.size
    t.add("unfold.unfold.samples", samples)
    t.add("unfold.lattice_slips",
          lattice_slips(result.residue, adc.residue_truth, config.threshold))
    of = 1.0 / config.band_fraction
    if adc.config.bits == 4 and round(of) in LEG_OVERSAMPLING and abs(of - round(of)) < 1e-9:
        t.add(f"unfold.of{round(of)}.samples", samples)
        t.add(f"unfold.of{round(of)}.s", seconds)
    total = getattr(result, "segments_total", None)
    if total is not None:
        t.add("unfold.segments", total)
        t.add("unfold.segments_skipped", result.segments_skipped)
    k, bins = fold_counts(adc.folding_bits, config)
    t.add("unfold.gram_k3_sum", float(np.sum(k.astype(float) ** 3)))
    t.keep_max("unfold.folds_per_segment_max", int(k.max()))
    t.keep_min("unfold.fold_headroom_min", bins - int(k.max()))


def _design_lowpass(t, args, kwargs, result, seconds):
    t.note_distinct("dsp.design_lowpass", tuple(args) + tuple(sorted(kwargs.items())))


def _interference_norm(t, args, kwargs, result, seconds):
    set_size = _arg(args, kwargs, 3, "set_size")
    trials = _arg(args, kwargs, 4, "trials")
    t.add("guarantees.estimate_interference_norm.trials", trials)
    # Computed: one set_size^3 Gram solve per trial.
    t.add("guarantees.trials_k3_sum", float(trials) * set_size ** 3)


def _run_experiment(t, args, kwargs, result, seconds):
    gaps = [abs(r.mse_simulated_db - r.mse_theory_db) for r in result[0]
            if getattr(r, "status", "ok") == "ok"
            and getattr(r, "mse_simulated_db", None) is not None
            and getattr(r, "mse_theory_db", None) is not None]
    if gaps:
        t.keep_max("experiments.mse_gap_db", max(gaps))


# Counter sums, zero on a workload that never reaches their layer.
SUMMED = ("signal_model.estimate_inf_norm.points", "signal_model.sample_signal.samples",
          "modulo_adc.acquire.samples", "modulo_adc.acquire.folds",
          "unfold.unfold.samples", "unfold.lattice_slips", "unfold.segments",
          "unfold.segments_skipped", "unfold.gram_k3_sum",
          "guarantees.estimate_interference_norm.trials", "guarantees.trials_k3_sum",
          "trace.overhead_s")

COUNTERS = {
    "signal_model.estimate_inf_norm": _inf_norm,
    "signal_model.sample_signal": _sample_signal,
    "modulo_adc.acquire": _acquire,
    "unfold.unfold": _unfold,
    "dsp.design_lowpass": _design_lowpass,
    "guarantees.estimate_interference_norm": _interference_norm,
    "experiments.run_experiment": _run_experiment,
}


def per_layer(tracer) -> dict:
    """Every per-layer figure for one set-up plus one average pass."""
    buckets = [SETUP] + sorted(tracer.visits)
    span = tracer.per_pass(tracer.span_s, buckets)
    child = tracer.per_pass(tracer.child_s, buckets)
    calls = tracer.per_pass(tracer.calls, buckets)
    values = dict.fromkeys(SUMMED, 0.0)
    values.update(tracer.per_pass(tracer.sums, buckets))
    for module, func in TARGETS:
        name = f"{module}.{func}"
        values[f"{name}.s"] = span.get(name, 0.0)
        values[f"{name}.calls"] = calls.get(name, 0.0)
    for stage in UNFOLD_STAGES:
        values[f"unfold.{stage.split('.')[1]}.s"] = span.get(("unfold.unfold", stage), 0.0)
    for layer, name in (("unfold", "unfold.unfold"), ("experiments", "experiments.run_experiment")):
        values[f"{layer}.self_s"] = span.get(name, 0.0) - child.get(name, 0.0)

    segments = values["unfold.segments"]
    values["unfold.segments_skipped_frac"] = (
        values["unfold.segments_skipped"] / segments if segments else 0.0)
    for of in LEG_OVERSAMPLING:
        seconds = values.get(f"unfold.of{of}.s", 0.0)
        values[f"unfold.msps_of{of}"] = (
            values.get(f"unfold.of{of}.samples", 0.0) / seconds / 1e6 if seconds else 0.0)
    seconds = values["guarantees.estimate_interference_norm.s"]
    values["guarantees.fold_sets_per_s"] = (
        values["guarantees.estimate_interference_norm.trials"] / seconds
        if seconds else 0.0)
    values["dsp.design_lowpass.distinct"] = len(tracer.distinct["dsp.design_lowpass"])
    values["unfold.folds_per_segment_max"] = tracer.extreme(
        tracer.maxima, "unfold.folds_per_segment_max", max)
    values["unfold.fold_headroom_min"] = tracer.extreme(
        tracer.minima, "unfold.fold_headroom_min", min)
    values["experiments.mse_gap_db"] = tracer.extreme(
        tracer.maxima, "experiments.mse_gap_db", max)
    return values
