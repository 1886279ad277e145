import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).parent.parent / "tools" / "desk_hashes.py"

# The desk theory-only CSV, the one experiment that runs no simulation.
THEORY_ONLY = "6e68d11649246662d111f054aa4ca17df2ef72dbe20a70cfe871972539c1fbcf"


def load_tool():
    spec = importlib.util.spec_from_file_location("desk_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_theory_only_hash():
    assert load_tool().csv_hash("theory-only") == THEORY_ONLY


def test_named_experiments_run_alone(capsys):
    assert load_tool().main(["--preset", "desk", "theory-only"]) == 0
    assert capsys.readouterr().out == f"{THEORY_ONLY}  theory-only\n"


def test_unknown_experiment_rejected_before_any_run(monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "csv_hash", lambda *args: pytest.fail("ran an experiment"))
    with pytest.raises(SystemExit) as exited:
        tool.main(["theory-only", "m-grids"])
    assert exited.value.code == 2
