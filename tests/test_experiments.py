import csv
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modunfold.cli import main
from modunfold.errors import ConfigurationError
from modunfold.experiments import (EXPERIMENTS, ExperimentConfig, MGridRow,
                                   ResultRow, emit_csv, load_config,
                                   run_compare_hod, run_m_grid, run_mse_sweep,
                                   run_theory_only)

FAST_SWEEP = dict(num_pulses=150, oversampling_list=(4.0, 6.0), bits_list=(4,),
                  guard_width_list=(np.pi / 32,), lpf_length=257,
                  lpf_transition=np.pi / 16, seed=5)


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
        assert fast_config().effective_trials == 1
        assert fast_config(experiment="compare-hod").effective_trials == 12
        assert fast_config(trials=3).effective_trials == 3

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
        cfg = load_config(str(path), "mse-sweep", preset="paper")
        assert cfg.num_pulses == 50_000
        assert cfg.m_trials == 100_000

    def test_file_beats_preset(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"num_pulses": 42}))
        cfg = load_config(str(path), "mse-sweep", preset="paper")
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


class TestEmitCsv:
    def test_empty_rows_give_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        emit_csv([], path)
        lines = open(path).read().splitlines()
        assert len(lines) == 1 and lines[0].startswith("experiment,")

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

    def test_newline_terminated(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        emit_csv([], path)
        assert open(path, "rb").read().endswith(b"\n")


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
        digest = lambda p: hashlib.sha256(open(p, "rb").read()).hexdigest()
        assert digest(a) == digest(b)

    def test_sweep_records_skipped_points(self):
        cfg = fast_config(oversampling_list=(2.0, 4.0))
        rows = run_mse_sweep(cfg)
        assert len(rows) == 2  # emitted + skipped covers the grid
        skipped = [r for r in rows if r.status == "skipped"]
        assert len(skipped) == 1
        assert skipped[0].oversampling == 2.0
        assert skipped[0].reason

    def test_compare_rows_have_both_mses(self):
        cfg = fast_config(experiment="compare-hod", trials=2,
                          oversampling_list=(6.0,), bits_list=(4, 5))
        rows = run_compare_hod(cfg)
        assert len(rows) == 2
        for row in rows:
            assert np.isfinite(row.mse_simulated_db)
            assert np.isfinite(row.mse_hod_db)

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
        assert len(open(out).read().splitlines()) == 3

    def test_sweep_through_cli(self, tmp_path, capsys):
        cfg = self._write(tmp_path, dict(
            num_pulses=150, oversampling_list=[4.0], bits_list=[4],
            guard_width_list=[np.pi / 32], lpf_length=257,
            lpf_transition=np.pi / 16))
        out = str(tmp_path / "rows.csv")
        code = main(["mse-sweep", "--config", cfg, "--seed", "5", "--out", out])
        assert code == 0
        body = open(out).read()
        assert body.count("\n") == 2
        assert "mse_simulated_db" in body

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
       for name in ("beta", "symbol_period", "amp_low", "amp_high",
                    "window_alpha", "lpf_transition")},
    **{name: st.lists(st.one_of(ints, WRONG_TYPES), max_size=2)
       for name, ints in (("bits_list", SMALL_INTS), ("m_lengths", INTS),
                          ("m_set_fractions", SMALL_INTS))},
    **{name: st.lists(st.one_of(REALS, WRONG_TYPES), max_size=2)
       for name in ("oversampling_list", "guard_width_list")},
}


def run_cli(tmp_path, experiment, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return main([experiment, "--config", str(path)])


class TestBadInput:
    # One bad field each, run through every experiment that reads it (all
    # four for the checks made at load).  beta, span, trials, m_trials and
    # window_length 10 exited 2 before; the rest ended in a traceback, or in
    # rows marked ok with a set size of 0 or a fractional bit count.
    @pytest.mark.parametrize("field, value, experiments", [
        ("window_alpha", 0, EXPERIMENTS),
        ("window_alpha", 2, EXPERIMENTS),
        ("bits_list", [1], SIMULATED + ("theory-only",)),
        ("num_pulses", 1, SIMULATED),
        ("guard_width_list", [-0.1], SIMULATED + ("theory-only",)),
        ("hod_order", 0, ("compare-hod",)),
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
        ("seed", -1, SIMULATED + ("m-grid",)),
    ])
    def test_probe_exits_2(self, tmp_path, capsys, field, value, experiments):
        for experiment in experiments:
            assert run_cli(tmp_path, experiment, {**TINY, field: value}) == 2
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("payload", [
        {"bits_list": [True]}, {"bits_list": 4}, {"seed": "1"}, {"num_pulses": None},
        {"out": 5}, {"symbol_period": float("nan")},
        {"oversampling_list": [float("inf")]}, {"trials": 1.0},
    ])
    def test_wrong_json_types_rejected_at_load(self, payload):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**{**TINY, **payload})

    def test_bad_window_fails_before_synthesis(self, tmp_path, monkeypatch):
        import modunfold.experiments as experiments

        def synthesis(*args):
            raise AssertionError("synthesis ran")
        monkeypatch.setattr(experiments, "generate_pulse_train", synthesis)
        assert run_cli(tmp_path, "mse-sweep", {**TINY, "window_alpha": 0.3}) == 2

    @given(st.sampled_from(sorted(CANDIDATES)).flatmap(
        lambda name: st.tuples(st.just(name), CANDIDATES[name])))
    @settings(deadline=None, max_examples=50)
    def test_one_changed_field_exits_0_2_or_3(self, tmp_path_factory, change):
        name, value = change
        tmp_path = tmp_path_factory.mktemp("cfg")
        for experiment in EXPERIMENTS:
            assert run_cli(tmp_path, experiment, {**TINY, name: value}) in (0, 2, 3)
