import pytest

from conftest import load_tool

desk_hashes = load_tool("desk_hashes")

# The desk theory-only CSV, the one experiment that runs no simulation.
THEORY_ONLY = "6e68d11649246662d111f054aa4ca17df2ef72dbe20a70cfe871972539c1fbcf"


def test_desk_theory_only_hash():
    assert desk_hashes.csv_hash("theory-only") == THEORY_ONLY


def test_named_experiments_run_alone(capsys):
    assert desk_hashes.main(["--preset", "desk", "theory-only"]) == 0
    assert capsys.readouterr().out == f"{THEORY_ONLY}  theory-only\n"


def test_unknown_experiment_rejected_before_any_run(monkeypatch):
    monkeypatch.setattr(desk_hashes, "csv_hash", lambda *args: pytest.fail("ran an experiment"))
    with pytest.raises(SystemExit) as exited:
        desk_hashes.main(["theory-only", "m-grids"])
    assert exited.value.code == 2
