import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "desk_hashes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("desk_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_theory_only_hash():
    # The desk theory-only CSV, the one experiment that runs no simulation.
    assert load_tool().csv_hash("theory-only") == (
        "6e68d11649246662d111f054aa4ca17df2ef72dbe20a70cfe871972539c1fbcf")
