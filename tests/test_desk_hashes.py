import pytest

from conftest import load_tool

desk_hashes = load_tool("desk_hashes")

# The SHA-256 of each experiment's desk CSV at seed 1.
DESK = {
    "mse-sweep": "aae249f345422f55136d66a87802fa370d84ae3376bfdbb1cd5e70a25b6cafd3",
    "compare-hod": "534a73f4b0dd969f429825994b03e14acf1648ff53a405c672b26bdc04c69f9f",
    "m-grid": "b8aa468a638196ae07a0c8b20a6b6d3140ac02788b09fb4157ba5384ad1fa1b2",
    "theory-only": "c9cd4cc351077685df80130a88ac9409787f4f387f382f36eaaedc8e8845b006",
}


@pytest.mark.parametrize("experiment", DESK)
def test_desk_hash(experiment):
    assert desk_hashes.csv_hash(experiment) == DESK[experiment]


def test_named_experiments_run_alone(capsys):
    assert desk_hashes.main(["--preset", "desk", "theory-only"]) == 0
    assert capsys.readouterr().out == f"{DESK['theory-only']}  theory-only\n"


def test_unknown_experiment_rejected_before_any_run(monkeypatch):
    monkeypatch.setattr(desk_hashes, "csv_hash", lambda *args: pytest.fail("ran an experiment"))
    with pytest.raises(SystemExit) as exited:
        desk_hashes.main(["theory-only", "m-grids"])
    assert exited.value.code == 2
