"""Checks of the benchmark's own machinery: run with

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import modunfold  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from workloads import lattice_slips, mismatch  # noqa: E402


def test_mismatch_ignores_new_fields_and_tolerates_float_dust():
    ref = {"status": "ok", "samples": 10, "mse_db": -40.0}
    got = {"status": "ok", "samples": 10, "mse_db": -40.0 + 1e-9, "worst_margin": 0.3}
    assert mismatch(ref, got) is None
    assert "mse_db" in mismatch(ref, {**got, "mse_db": -40.1})
    assert "samples" in mismatch(ref, {**got, "samples": 11})
    assert mismatch(ref, {"status": "ok", "samples": 10}) == "mse_db missing"
    assert mismatch({"mse_hod_db": 1.0}, {}, skip=("mse_hod_db",)) is None


def test_lattice_slips_compares_lattice_indices_not_floats():
    truth = np.array([0.0, 0.2, 0.4, -0.2])
    dusty = truth + 1e-13
    assert lattice_slips(dusty, truth, 0.1) == 0
    assert lattice_slips(truth + np.array([0, 0.2, 0, 0]), truth, 0.1) == 1


def test_tracer_wraps_every_namespace_and_restores():
    experiments = spans.package_module("experiments")
    unfold_module = sys.modules["modunfold.unfold"]
    originals = (modunfold.unfold, experiments.unfold, unfold_module.unfold,
                 unfold_module.residue_pre_estimate)
    with spans.Tracer():
        assert modunfold.unfold is not originals[0]
        assert experiments.unfold is modunfold.unfold
        assert unfold_module.unfold is modunfold.unfold
        assert unfold_module.residue_pre_estimate.__wrapped__ is originals[3]
    assert (modunfold.unfold, experiments.unfold, unfold_module.unfold,
            unfold_module.residue_pre_estimate) == originals


def test_tracer_skips_missing_functions(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("unfold", "gone"),
                                                           ("no_module", "f")))
    with spans.Tracer() as tracer:
        pass
    assert {"unfold.gone", "no_module.f"} <= tracer.skipped


@pytest.fixture(scope="module")
def small_case():
    spec = modunfold.PulseTrainSpec(num_pulses=200, seed=3)
    train = modunfold.generate_pulse_train(spec)
    peak = 1.001 * modunfold.estimate_inf_norm(train)
    of, length, guard = 8.0, 64, np.pi / 32
    sampled = modunfold.sample_signal(train, of, modunfold.nominal_sample_count(spec, of))
    threshold = modunfold.required_threshold(
        peak, of, modunfold.guard_bin_count(guard, length), length)
    adc = modunfold.acquire(sampled, modunfold.AdcConfig(bits=4, threshold=threshold, seed=1))
    config = modunfold.RecoveryConfig(length=length, alpha=0.5, guard_width=guard,
                                      threshold=threshold, band_fraction=1.0 / of)
    return adc, sampled, config


def test_traced_unfold_counts_match_the_result(small_case):
    adc, sampled, config = small_case
    with spans.Tracer(layers.COUNTERS) as tracer:
        tracer.start_op(0)
        result = modunfold.unfold(adc, sampled, config)
    figures = layers.per_layer(tracer)
    assert figures["unfold.unfold.calls"] == 1
    assert figures["unfold.segments"] == result.segments_total
    assert figures["unfold.segments_skipped"] == result.segments_skipped
    assert figures["unfold.lattice_slips"] == 0
    assert figures["unfold.unfold.samples"] == adc.quantized.size
    stages = sum(figures[f"unfold.{stage.split('.')[1]}.s"] for stage in layers.UNFOLD_STAGES)
    assert 0.0 < stages <= figures["unfold.unfold.s"]
    assert figures["unfold.self_s"] > 0.0
    assert figures["guarantees.estimate_interference_norm.calls"] == 0


def test_fold_counts_match_a_plain_loop(small_case):
    adc, _, config = small_case
    k, bins = layers.fold_counts(adc.folding_bits, config)
    overlap = config.overlap
    flags = np.concatenate([np.zeros(overlap, dtype=bool), adc.folding_bits])
    starts = range(0, max(flags.size, config.length), config.hop)
    assert list(k) == [int(flags[s:s + config.length].sum()) for s in starts]
    assert bins == modunfold.build_oob_system(
        config.length, config.band_fraction, config.guard_width).num_bins
