import csv
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modunfold
from modunfold import baselines, experiments
from modunfold.cli import main
from modunfold.errors import ConfigurationError, InfeasibleError
from modunfold.experiments import (EXPERIMENTS, PEAK_MARGIN, ExperimentConfig,
                                   MGridRow, ResultRow, emit_csv, load_config,
                                   run_compare_hod, run_experiment, run_m_grid,
                                   run_mse_sweep, run_theory_only)
from modunfold.guarantees import (predict_mse_conventional, predict_mse_modulo,
                                  required_threshold)
from modunfold.signal_model import (estimate_inf_norm, generate_pulse_train,
                                    nominal_sample_count)
from modunfold.unfold import RecoveryConfig
from conftest import traced_peak

FAST_SWEEP = dict(num_pulses=150, oversampling_list=(4.0, 6.0), bits_list=(4,),
                  guard_width_list=(np.pi / 32,), lpf_length=257,
                  lpf_transition=np.pi / 16, seed=5)

DESK_GRID = [4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0, 50.0]


def fast_config(**overrides):
    merged = {**FAST_SWEEP, **overrides}
    return ExperimentConfig(**merged)


class TestConfig:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(experiment="nope")

    def test_rejects_bad_signal_spec(self):
        with pytest.raises(ConfigurationError, match="beta"):
            ExperimentConfig(beta=1.5)

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(oversampling_list=())

    def test_effective_trials_defaults(self):
        assert fast_config().trials == 1
        assert fast_config(experiment="compare-hod").trials == 12
        assert fast_config(trials=3).trials == 3

    def test_load_config_merges_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"num_pulses": 123, "seed": 9}))
        cfg = load_config(str(path), "mse-sweep", seed=77, out="x.csv")
        assert cfg.num_pulses == 123
        assert cfg.seed == 77  # CLI beats file
        assert cfg.out == "x.csv"

    def test_load_config_paper_preset(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = load_config(str(path), "mse-sweep", preset="paper", seed=1)
        assert cfg.num_pulses == 50_000
        assert cfg.m_trials == 100_000

    def test_file_beats_preset(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"num_pulses": 42}))
        cfg = load_config(str(path), "mse-sweep", preset="paper", seed=1)
        assert cfg.num_pulses == 42

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ConfigurationError, match="bogus"):
            load_config(str(path), "mse-sweep")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(str(path), "mse-sweep")

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="must be a JSON object"):
            load_config(str(path), "mse-sweep")

    def test_unknown_preset_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        with pytest.raises(ConfigurationError, match="unknown preset 'huge'"):
            load_config(str(path), "mse-sweep", preset="huge", seed=1)


class TestEmitCsv:
    def test_round_trips_through_csv_reader(self, tmp_path):
        row = ResultRow(experiment="mse-sweep", oversampling=4.0, bits=4,
                        guard_width=float(np.pi / 32), guard_bins=4,
                        threshold=0.5714285714285714,
                        mse_simulated_db=-33.123456789012345,
                        mse_theory_db=-33.2, mse_conventional_db=None,
                        mse_hod_db=None, samples_used=16160, seed=5)
        path = str(tmp_path / "row.csv")
        emit_csv([row], path)
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))[0]
        assert float(parsed["mse_simulated_db"]) == row.mse_simulated_db
        assert float(parsed["threshold"]) == row.threshold
        assert parsed["mse_conventional_db"] == ""

    def test_reason_with_commas_round_trips(self, tmp_path):
        # No bin is out of band at OF 1, and the skip reason names the
        # window as "n=64, band_fraction=1, guard_width=0".
        cfg = ExperimentConfig(experiment="m-grid", m_trials=10, m_lengths=(64,),
                               m_set_fractions=(32,), oversampling_list=(1.0, 4.0),
                               seed=1)
        rows = run_m_grid(cfg)
        assert rows[0].status == "skipped" and "," in rows[0].reason
        path = tmp_path / "rows.csv"
        emit_csv(rows, str(path))
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert [p["reason"] for p in parsed] == [r.reason for r in rows]
        assert all(None not in p for p in parsed)

    def test_unopenable_path_is_config_error(self, tmp_path):
        # A path under a regular file names no directory that can be opened.
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ConfigurationError, match="cannot write"):
            emit_csv([MGridRow(experiment="m-grid", length=64, oversampling=4.0,
                               set_size=2, trials=10, seed=1)], str(blocker / "rows.csv"))

    def test_newline_terminated(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        emit_csv([MGridRow(experiment="m-grid", length=64, oversampling=4.0,
                           set_size=2, trials=10, seed=1)], path)
        assert Path(path).read_bytes().endswith(b"\n")


class TestRunners:
    def test_sweep_rows_and_determinism(self, tmp_path):
        cfg = fast_config()
        rows = run_mse_sweep(cfg)
        assert len(rows) == 2
        for row in rows:
            assert row.status == "ok"
            assert np.isfinite(row.mse_simulated_db)
            assert np.isfinite(row.mse_theory_db)
            assert np.isfinite(row.mse_conventional_db)
            assert row.samples_used <= 170 * 2 * row.oversampling
        again = run_mse_sweep(fast_config())
        assert rows == again
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        emit_csv(rows, a), emit_csv(again, b)
        digest = lambda p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        assert digest(a) == digest(b)

    def test_sweep_records_skipped_points(self):
        cfg = fast_config(oversampling_list=(2.0, 4.0))
        rows = run_mse_sweep(cfg)
        assert len(rows) == 2  # emitted + skipped covers the grid
        skipped = [r for r in rows if r.status == "skipped"]
        assert len(skipped) == 1
        assert skipped[0].oversampling == 2.0
        assert skipped[0].reason

    def test_repeated_factor_is_measured_as_its_own_point(self):
        # Rows 0-1 are the unrepeated grid's; row 2 repeats row 0's factor,
        # so its threshold, with a dither of its own, so its MSE.
        rows = run_mse_sweep(fast_config(oversampling_list=(4.0, 6.0, 4.0)))
        assert rows[:2] == run_mse_sweep(fast_config())
        assert rows[2].threshold == rows[0].threshold
        assert rows[2].mse_simulated_db != rows[0].mse_simulated_db

    def test_compare_rows_have_both_mses(self):
        cfg = fast_config(experiment="compare-hod", trials=2,
                          oversampling_list=(6.0,), bits_list=(4, 5))
        rows = run_compare_hod(cfg)
        assert len(rows) == 2
        for row in rows:
            assert np.isfinite(row.mse_simulated_db)
            assert np.isfinite(row.mse_hod_db)

    def test_compare_hod_recoveries_see_one_stream(self, monkeypatch):
        # HoD unfolds the very stream the sliding DFT unfolded, at its
        # threshold, and shares its lowpass.
        unfolded, hod, filtered = [], [], []
        hod_recover, filter_zero_delay = baselines.hod_recover, experiments.filter_zero_delay

        def unfold(adc, sampled, recovery):
            unfolded.append((adc, recovery))
            return modunfold.unfold(adc, sampled, recovery)

        def recover(quantized, config):
            hod.append((quantized, config))
            return hod_recover(quantized, config)

        def lowpass(signal, taps):
            filtered.append(taps)
            return filter_zero_delay(signal, taps)

        monkeypatch.setattr(experiments, "unfold", unfold)
        monkeypatch.setattr(baselines, "hod_recover", recover)
        monkeypatch.setattr(experiments, "filter_zero_delay", lowpass)
        run_compare_hod(fast_config(experiment="compare-hod", trials=2))
        assert len(unfolded) == len(hod) == len(filtered) == 4
        for (adc, recovery), (quantized, config), taps in zip(unfolded, hod, filtered):
            assert quantized is adc.quantized
            assert config.threshold == adc.config.threshold
            assert taps is recovery.lowpass

    def test_m_grid_rows(self):
        cfg = ExperimentConfig(experiment="m-grid", m_trials=200,
                               m_lengths=(16, 32), m_set_fractions=(8,),
                               oversampling_list=(4.0, 8.0), seed=3)
        rows = run_m_grid(cfg)
        assert len(rows) == 4
        for row in rows:
            assert isinstance(row, MGridRow)
            assert row.interference_norm > 0
            assert row.extra_bits == pytest.approx(
                np.log2(1 + 0.75 * row.interference_norm))
        assert rows == run_m_grid(cfg)

    def test_theory_only_marks_infeasible(self):
        cfg = ExperimentConfig(experiment="theory-only",
                               oversampling_list=(2.0, 8.0), seed=0)
        rows = run_theory_only(cfg)
        assert [r.status for r in rows] == ["skipped", "ok"]
        assert rows[1].mse_theory_db < 0

    def test_seed_required(self):
        with pytest.raises(ConfigurationError, match="seed"):
            run_mse_sweep(fast_config(seed=None))

    # A given list runs as given, the desk grid too; null runs the
    # experiment's own grid.
    @pytest.mark.parametrize("experiment, grid, rows", [
        ("compare-hod", DESK_GRID, 9), ("m-grid", DESK_GRID, 9),
        ("compare-hod", None, 5), ("m-grid", None, 3)],
        ids=["compare-hod-desk", "m-grid-desk", "compare-hod-None-5", "m-grid-None-3"])
    def test_grid_runs_as_given_or_the_experiments_own(self, tmp_path, experiment,
                                                        grid, rows):
        out = tmp_path / "rows.csv"
        payload = {**TINY, "oversampling_list": grid}
        assert run_cli(tmp_path, experiment, payload, "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 1 + rows

    def test_compare_hod_peak_does_not_grow_with_trials(self):
        # Trials run one after another at a factor, so a realization's
        # record is freed before the next one is sampled: six trials peak
        # within one record of one trial (measured: 0.17 records).  Keeping
        # every trial's record alive peaked 7.0 records higher.
        def peak(trials):
            cfg = fast_config(experiment="compare-hod", num_pulses=2000,
                              oversampling_list=(16.0,), trials=trials)
            return traced_peak(run_compare_hod, cfg)[1]

        peak(1)  # a first run also allocates what numpy keeps for later calls
        record = 8 * nominal_sample_count(fast_config(num_pulses=2000).signal_spec(0), 16.0)
        assert peak(6) - peak(1) < record

    def test_each_trial_is_synthesized_once_in_trial_order(self, monkeypatch):
        # Trial by trial, then factor by factor: synthesis inside the factor
        # loop would draw each train once per factor.
        calls = []

        def generate(spec):
            calls.append(("train", spec.seed))
            return generate_pulse_train(spec)

        def peak(train):
            calls.append(("peak", train.spec.seed))
            return estimate_inf_norm(train)

        monkeypatch.setattr(experiments, "generate_pulse_train", generate)
        monkeypatch.setattr(experiments, "estimate_inf_norm", peak)
        run_mse_sweep(fast_config(oversampling_list=(4.0, 6.0), bits_list=(3, 4), trials=3))
        assert calls == [(kind, 5 + 1000 * t) for t in range(3) for kind in ("train", "peak")]

    @pytest.mark.parametrize("experiment, builds", [("mse-sweep", 5), ("compare-hod", 6)])
    def test_one_recovery_config_per_trial_factor_and_guard(self, monkeypatch, experiment,
                                                            builds):
        # A trial's bit depths share each (factor, guard)'s threshold, so its
        # config too; one per bit depth made 10 and 12 on this grid.
        built = []

        def build(**fields):
            built.append((fields["threshold"], fields["band_fraction"], fields["guard_width"]))
            return RecoveryConfig(**fields)

        monkeypatch.setattr(experiments, "RecoveryConfig", build)
        run_experiment(ExperimentConfig(experiment=experiment, **GOLDEN))
        assert len(built) == len(set(built)) == builds

    # CSV digests from the loop that ran each point over every trial before
    # the next point: the per-trial dither seed order must not change.
    @pytest.mark.parametrize("experiment, digest", [
        ("mse-sweep", "58d604fc63dc7f2f8c27477fdd18088926d48d3b77bfd4083f2d13397ae7fc29"),
        ("compare-hod", "73f5bf8fe2388fadb790120d2ef74ea662b332bff363bb2ae25b5a6b03974015")])
    def test_point_infeasible_in_one_trial_is_skipped_by_later_trials(
            self, tmp_path, monkeypatch, experiment, digest):
        # Trial 1 of three spawns the dither seed of (OF 4, 3 bits, guard 0)
        # and then fails it; trial 2 must not measure that point, and trial
        # 1 runs its conventional pipeline at the next guard width instead.
        cfg = fast_config(experiment=experiment, oversampling_list=(4.0, 6.0),
                          bits_list=(3, 4), guard_width_list=(0.0, np.pi / 32),
                          trials=3, seed=2)
        train = generate_pulse_train(cfg.signal_spec(cfg.seed + 1000))
        failing = required_threshold(PEAK_MARGIN * estimate_inf_norm(train), 4.0, 0, 64)
        calls = []

        def unfold(adc, sampled, recovery):
            if (recovery.band_fraction, adc.config.bits, recovery.guard_width) == (0.25, 3, 0.0):
                calls.append(recovery.threshold)
                if recovery.threshold == failing:
                    raise InfeasibleError("fails in trial 1 only")
            return modunfold.unfold(adc, sampled, recovery)

        monkeypatch.setattr(experiments, "unfold", unfold)
        rows = run_experiment(cfg)[0]
        assert len(calls) == 2 and calls[1] == failing
        assert [(r.status, r.reason) for r in rows if r.status != "ok"] == [
            ("skipped", "fails in trial 1 only")]
        out = tmp_path / "rows.csv"
        emit_csv(rows, str(out))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestTheoryOnly:
    def test_rows_match_the_calculators(self):
        cfg = ExperimentConfig(experiment="theory-only", oversampling_list=(4.0, 8.0, 16.0),
                               bits_list=(3, 4, 6), guard_width_list=(np.pi / 32, 0.0))
        rows = run_theory_only(cfg)
        assert len(rows) == 18 and all(row.status == "ok" for row in rows)
        for row in rows:
            assert row.guard_bins == (4 if row.guard_width else 0)
            assert row.full_scale == pytest.approx(
                2 ** row.bits * row.threshold / (2 ** row.bits - 2))
            assert row.mse_theory_db == 10 * math.log10(predict_mse_modulo(
                1.0, row.oversampling, row.bits, row.guard_bins, row.guard_width, 64))
            assert row.mse_conventional_db == 10 * math.log10(
                predict_mse_conventional(1.0, row.oversampling, row.bits))

    def test_one_bit_is_config_error(self):
        with pytest.raises(ConfigurationError, match="bits"):
            run_theory_only(ExperimentConfig(experiment="theory-only", bits_list=(1,)))


# Every experiment on a small grid with skipped points in each: 8 of 12
# sweep and theory rows, 4 of 6 comparison rows and 2 of 12 m-grid cells.
GOLDEN = dict(num_pulses=150, oversampling_list=(2.0, 4.0, 6.0), bits_list=(3, 4),
              guard_width_list=(0.9, np.pi / 32), trials=2, lpf_length=257,
              lpf_transition=np.pi / 16, m_trials=200, m_lengths=(16, 32),
              m_set_fractions=(2, 8), seed=2)


class TestMseLaw:
    # Claim 1: the desk sweep's simulated MSE follows predict_mse_modulo.
    # Over seeds 0-19 (180 rows) simulated - theory had mean -0.049 dB,
    # standard deviation 0.084 dB and extremes -0.322 and +0.200 dB; the
    # per-seed means ran from -0.088 to -0.021 dB.  The bounds are set from
    # that spread and checked on the next seeds, which did not set them.
    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_desk_sweep_follows_the_prediction(self, seed):
        rows, _ = run_experiment(ExperimentConfig(experiment="mse-sweep", seed=seed))
        assert [r.status for r in rows] == ["ok"] * 9
        gaps = np.array([r.mse_simulated_db - r.mse_theory_db for r in rows])
        assert np.abs(gaps).max() <= 0.5
        assert abs(gaps.mean()) <= 0.15


class TestGoldenCsv:
    # The files in tests/golden pin the CSV bytes of the four experiments.
    # They change if a dither seed is spawned in another order, a skipped
    # row gains or loses a value, or a grid point is added or dropped.
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_bytes_unchanged(self, tmp_path, experiment):
        rows, _ = run_experiment(ExperimentConfig(experiment=experiment, **GOLDEN))
        out = tmp_path / "rows.csv"
        emit_csv(rows, str(out))
        golden = Path(__file__).parent / "golden" / f"{experiment}.csv"
        assert out.read_bytes() == golden.read_bytes()


class TestCli:
    def _write(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_theory_only_runs_without_seed(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {"oversampling_list": [4, 8]})
        out = str(tmp_path / "theory.csv")
        assert main(["theory-only", "--config", cfg, "--out", out]) == 0
        assert "wrote" in capsys.readouterr().out
        with open(out, newline="") as handle:
            assert [row["seed"] for row in csv.DictReader(handle)] == ["0", "0"]

    def test_sweep_through_cli(self, tmp_path, capsys):
        cfg = self._write(tmp_path, dict(
            num_pulses=150, oversampling_list=[4.0], bits_list=[4],
            guard_width_list=[np.pi / 32], lpf_length=257,
            lpf_transition=np.pi / 16))
        out = str(tmp_path / "rows.csv")
        code = main(["mse-sweep", "--config", cfg, "--seed", "5", "--out", out])
        assert code == 0
        body = Path(out).read_text()
        assert body.count("\n") == 2
        assert "mse_simulated_db" in body

    def test_summary_lists_every_set_field(self, tmp_path, capsys):
        # The summary named its own columns and left out interference_norm.
        assert run_cli(tmp_path, "m-grid", TINY) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("  length=16, oversampling=6.0, set_size=2, interference_norm=")
        assert ", extra_bits=" in line and line.endswith(", trials=10")

    def test_package_loads_no_scipy(self):
        # A fresh interpreter: this one may have imported scipy already.
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import modunfold, modunfold.cli, modunfold.experiments; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = str(Path(modunfold.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code, src], check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.strip() == "[]"

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {})
        assert main(["mse-sweep", "--config", cfg]) == 2
        assert "needs --seed" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path):
        assert main(["mse-sweep", "--config", str(tmp_path / "missing.json"),
                     "--seed", "1"]) == 2

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = self._write(tmp_path, {"wat": 1})
        assert main(["mse-sweep", "--config", cfg, "--seed", "1"]) == 2

    def test_bad_signal_spec_is_config_error(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {"span": 3})
        assert main(["mse-sweep", "--config", cfg, "--seed", "1"]) == 2
        assert "span" in capsys.readouterr().err

    def test_infeasible_everywhere_is_exit_3(self, tmp_path):
        cfg = self._write(tmp_path, {"oversampling_list": [2.0, 2.5]})
        assert main(["theory-only", "--config", cfg]) == 3
        for experiment in EXPERIMENTS:
            assert run_cli(tmp_path, experiment,
                           {**TINY, "oversampling_list": [0.5]}) == 3
        for experiment in SIMULATED + ("theory-only",):
            assert run_cli(tmp_path, experiment,
                           {**TINY, "oversampling_list": [0.0]}) == 3


# A config whose every experiment runs in tens of milliseconds.
TINY = dict(num_pulses=150, oversampling_list=[6.0], lpf_length=257,
            lpf_transition=np.pi / 16, trials=1, m_trials=10, m_lengths=[16],
            m_set_fractions=[8], seed=1)
SIMULATED = ("mse-sweep", "compare-hod")


# Candidate values for one field: valid, out of range or of the wrong JSON
# type.  `span` and `trials` stay small because each unit of them costs a
# whole synthesis.
SMALL_INTS = st.integers(-2, 24)
INTS = st.one_of(SMALL_INTS, st.sampled_from([64, 257]))
REALS = st.floats(-4.0, 64.0)
WRONG_TYPES = st.sampled_from(["4", True, None, [], {}, 2.5, [[1]],
                               float("nan"), float("inf")])
CANDIDATES = {
    **{name: st.one_of(INTS, WRONG_TYPES)
       for name in ("num_pulses", "window_length", "lpf_length", "hod_order",
                    "m_trials", "seed")},
    **{name: st.one_of(st.integers(-2, 4), WRONG_TYPES) for name in ("span", "trials")},
    **{name: st.one_of(REALS, WRONG_TYPES)
       for name in ("beta", "amp_low", "amp_high", "window_alpha",
                    "lpf_transition")},
    **{name: st.lists(st.one_of(ints, WRONG_TYPES), max_size=2)
       for name, ints in (("bits_list", SMALL_INTS), ("m_lengths", INTS),
                          ("m_set_fractions", SMALL_INTS))},
    **{name: st.lists(st.one_of(REALS, WRONG_TYPES), max_size=2)
       for name in ("oversampling_list", "guard_width_list")},
}


def run_cli(tmp_path, experiment, payload, *args):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return main([experiment, "--config", str(path), *args])


class TestBadInput:
    # One bad field each, run through every experiment that reads it (all
    # four for the checks made at load).  beta, span, trials, m_trials and
    # window_length 10 exited 2 before; the rest ended in a traceback, or in
    # rows marked ok with a set size of 0, a fractional bit count or an
    # infinite MSE.
    @pytest.mark.parametrize("field, value, experiments", [
        ("window_alpha", 0, EXPERIMENTS),
        ("window_alpha", 2, EXPERIMENTS),
        ("num_pulses", 1, SIMULATED),
        ("m_set_fractions", [0], EXPERIMENTS),
        ("oversampling_list", ["4"], EXPERIMENTS),
        ("window_length", 64.0, EXPERIMENTS),
        ("num_pulses", 2.5, EXPERIMENTS),
        ("oversampling_list", [0.0], ("m-grid",)),
        ("m_lengths", [0], EXPERIMENTS),
        ("m_set_fractions", [32], EXPERIMENTS),
        ("bits_list", [2.5], EXPERIMENTS),
        ("beta", 1.5, EXPERIMENTS),
        ("span", 3, EXPERIMENTS),
        ("trials", 0, EXPERIMENTS),
        ("m_trials", 0, ("m-grid",)),
        ("window_length", 10, EXPERIMENTS),
        ("seed", -1, EXPERIMENTS),
        ("amp_high", 1.41e169, EXPERIMENTS),
        ("amp_low", -1e300, EXPERIMENTS),
    ], ids=["window_alpha-0", "window_alpha-2", "num_pulses-1", "m_set_fractions-0",
            "oversampling_list-string", "window_length-64.0", "num_pulses-2.5",
            "oversampling_list-0.0", "m_lengths-0", "m_set_fractions-32", "bits_list-2.5",
            "beta-1.5", "span-3", "trials-0", "m_trials-0", "window_length-10", "seed--1",
            "amp_high-1.41e169", "amp_low--1e300"])
    def test_probe_exits_2(self, tmp_path, capsys, field, value, experiments):
        for experiment in experiments:
            assert run_cli(tmp_path, experiment, {**TINY, field: value}) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_tiny_amplitudes_exit_2_before_any_work(self, tmp_path, capsys, no_work):
        # The MSE underflowed to 0 and its dB value ended in a traceback.
        payload = {**TINY, "amp_low": -1e-160, "amp_high": 1e-160}
        for experiment in EXPERIMENTS:
            assert run_cli(tmp_path, experiment, payload) == 2
            assert "amplitude" in capsys.readouterr().err

    def test_huge_span_rejected_at_construction(self):
        # It used to construct, and bounding its train's peak ran past 20 s.
        with pytest.raises(ConfigurationError, match="span"):
            ExperimentConfig(experiment="mse-sweep", span=2_000_000, num_pulses=20,
                             oversampling_list=[4.0], seed=1)

    @pytest.mark.parametrize("field, value, experiments", [
        ("oversampling_list", [1e6], SIMULATED),
        ("oversampling_list", [1e12], SIMULATED),
        ("oversampling_list", [1e300], SIMULATED),
        ("m_lengths", [4194304], EXPERIMENTS),
    ], ids=["oversampling_list-1e6", "oversampling_list-1e12", "oversampling_list-1e300",
            "m_lengths-4194304"])
    def test_unallocatable_size_exits_2_before_allocation(self, tmp_path, capsys, field,
                                                          value, experiments):
        # These used to need 5.4 GB, 14.6 TiB, an overflowing sample count
        # and 16 TiB for one fold set's rows, and ended in a kill, a
        # MemoryError or numpy's ValueError.
        for experiment in experiments:
            code, peak = traced_peak(run_cli, tmp_path, experiment, {**TINY, field: value})
            assert code == 2
            assert peak < 1e6
            assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"bits_list": [True]}, {"bits_list": 4}, {"seed": "1"}, {"num_pulses": None},
        {"out": 5}, {"beta": float("nan")},
        {"oversampling_list": [float("inf")]}, {"trials": 1.0},
    ], ids=["bits_list-bool", "bits_list-not-a-list", "seed-string", "num_pulses-null",
            "out-number", "beta-nan", "oversampling_list-inf", "trials-float"])
    def test_wrong_json_types_rejected_at_load(self, payload):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**{**TINY, **payload})

    def test_bad_window_fails_before_synthesis(self, tmp_path, no_work):
        assert run_cli(tmp_path, "mse-sweep", {**TINY, "window_alpha": 0.3}) == 2

    @pytest.mark.parametrize("field, value", [
        ("bits_list", [1]), ("bits_list", [54]), ("guard_width_list", [-0.1]),
        ("guard_width_list", [1e308]), ("hod_order", 0), ("hod_order", 17),
        ("lpf_length", 4), ("lpf_length", 101), ("lpf_transition", 1e-4)],
        ids=["bits_list-1", "bits_list-54", "guard_width_list--0.1", "guard_width_list-1e308",
             "hod_order-0", "hod_order-17", "lpf_length-4", "lpf_length-101",
             "lpf_transition-0.0001"])
    def test_bad_value_fails_before_any_work(self, tmp_path, capsys, no_work, field, value):
        # Each used to fail only where a runner first used it, after every
        # trial's synthesis, or never where no runner reads it (m-grid).
        for experiment in EXPERIMENTS:
            assert run_cli(tmp_path, experiment, {**TINY, field: value}) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_missing_seed_fails_before_any_work(self, tmp_path, capsys, no_work):
        seedless = {k: v for k, v in TINY.items() if k != "seed"}
        for experiment in SIMULATED + ("m-grid",):
            with pytest.raises(ConfigurationError, match="needs --seed"):
                ExperimentConfig(experiment=experiment, **seedless)
            assert run_cli(tmp_path, experiment, seedless) == 2
            assert "needs --seed" in capsys.readouterr().err

    def test_missing_out_directory_fails_before_any_work(self, tmp_path, capsys, no_work):
        # It used to fail only on writing, after the whole run.
        for out, reason in [(tmp_path / "missing" / "rows.csv", "no such directory"),
                            (tmp_path, "is a directory")]:
            for experiment in EXPERIMENTS:
                assert run_cli(tmp_path, experiment, TINY, "--out", str(out)) == 2
                assert reason in capsys.readouterr().err

    def test_nonpositive_m_grid_factor_fails_before_any_work(self, tmp_path, capsys,
                                                              no_work):
        # It used to fail only when its cell ran, after the cells before it.
        for value in ([4.0, 0.0], [-8.0]):
            payload = {**TINY, "oversampling_list": value}
            assert run_cli(tmp_path, "m-grid", payload) == 2
            assert "oversampling must be positive" in capsys.readouterr().err

    @given(st.sampled_from(sorted(CANDIDATES)).flatmap(
        lambda name: st.tuples(st.just(name), CANDIDATES[name])))
    @settings(deadline=None, max_examples=50)
    def test_one_changed_field_exits_0_2_or_3(self, tmp_path_factory, change):
        name, value = change
        tmp_path = tmp_path_factory.mktemp("cfg")
        for experiment in EXPERIMENTS:
            assert run_cli(tmp_path, experiment, {**TINY, name: value}) in (0, 2, 3)
