"""Helpers the test modules share: peak memory, the desk recovery config, a
fixture that forbids the expensive work, and a loader for tools/*.py."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modunfold import experiments
from modunfold.unfold import RecoveryConfig

# The desk leakage guard.
GUARD = np.pi / 32

TOOLS = Path(__file__).parent.parent / "tools"


def traced_peak(call, *args):
    """call(*args), and the peak bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def desk_recovery(threshold, band_fraction, guard=GUARD, **lowpass):
    """RecoveryConfig of the desk window, N 64 and alpha 0.5."""
    return RecoveryConfig(length=64, alpha=0.5, guard_width=guard, threshold=threshold,
                          band_fraction=band_fraction, **lowpass)


def load_tool(name):
    """tools/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def no_work(monkeypatch):
    """Pulse-train synthesis and the interference-norm Monte Carlo fail if called."""
    def work(*args):
        raise AssertionError("work ran")
    monkeypatch.setattr(experiments, "generate_pulse_train", work)
    monkeypatch.setattr(experiments.guarantees, "estimate_interference_norm", work)
