"""Every public entry point fails cleanly on a bad number or record.

Each exported function and config that takes a number is called with one
numeric argument replaced, in turn, by each value of BAD, the others held at
a working base call (CALLS).  A call passes if it returns, or raises
ConfigurationError (InfeasibleError included), with two stricter rules:
- NaN, +-inf, a bool, a str or None is a parameter fault, so it must raise a
  ConfigurationError that is not an InfeasibleError;
- so must a fraction where the base value is an integer.
The huge values, +-10**12 for an integer and +-1e308 for a real, run in one
child process under an address-space limit and a timeout, so a value that
sizes unbounded work fails the test instead of exhausting memory or hanging.
Run as a script, this module is that child: it prints the bad huge calls as
JSON.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modunfold
from modunfold.baselines import HodConfig, conventional_adc, hod_recover
from modunfold.dsp import (build_oob_system, check_lowpass, design_lowpass,
                           filter_zero_delay, oob_bin_indices, tukey_window)
from modunfold.errors import ConfigurationError, InfeasibleError
from modunfold.guarantees import (estimate_interference_norm, extra_bits,
                                  guard_bin_count, min_oversampling,
                                  predict_mse_conventional, predict_mse_modulo,
                                  required_bits, required_threshold)
from modunfold.modulo_adc import AdcConfig, AdcOutput, acquire
from modunfold.signal_model import (PulseTrainSpec, SampledSignal,
                                    generate_pulse_train, nominal_sample_count,
                                    sample_signal)
from modunfold.unfold import RecoveryConfig, segment_starts, unfold

SPEC = PulseTrainSpec(num_pulses=20)
TRAIN = generate_pulse_train(SPEC)
SIGNAL = sample_signal(TRAIN, 4.0, 400)
LPF = dict(lpf_length=257, lpf_transition=np.pi / 16)

# Name -> (callable, keyword arguments of a call that works).  Arguments that
# are not int or float (train, spec, signal) are held fixed.
CALLS = {
    "PulseTrainSpec": (PulseTrainSpec, dict(num_pulses=20, beta=1.0, span=20, amp_low=-0.5,
                                            amp_high=1.0, seed=0)),
    "PulseTrain.evaluate": (TRAIN.evaluate, dict(t=5.0)),
    "sample_signal": (sample_signal, dict(train=TRAIN, oversampling=4.0, num_samples=400)),
    "nominal_sample_count": (nominal_sample_count, dict(spec=SPEC, oversampling=4.0)),
    "AdcConfig": (AdcConfig, dict(bits=4, threshold=0.5, seed=0)),
    "HodConfig": (HodConfig, dict(threshold=0.5, order=3)),
    "conventional_adc": (conventional_adc, dict(signal=SIGNAL, bits=4, peak=1.0, seed=0, **LPF)),
    "build_oob_system": (build_oob_system, dict(n=64, band_fraction=0.25,
                                                guard_width=np.pi / 32)),
    "oob_bin_indices": (oob_bin_indices, dict(n=64, band_fraction=0.25,
                                              guard_width=np.pi / 32)),
    "tukey_window": (tukey_window, dict(n=64, alpha=0.5)),
    "design_lowpass": (design_lowpass, dict(cutoff=np.pi / 4, transition=np.pi / 16,
                                            length=257)),
    "check_lowpass": (check_lowpass, dict(length=257, transition=np.pi / 16)),
    "guard_bin_count": (guard_bin_count, dict(guard_width=np.pi / 32, length=64)),
    "min_oversampling": (min_oversampling, dict(length=64, guard_bins=4)),
    "required_threshold": (required_threshold, dict(peak=1.0, oversampling=8.0,
                                                    guard_bins=4, length=64)),
    "required_bits": (required_bits, dict(interference_norm=1.0)),
    "extra_bits": (extra_bits, dict(interference_norm=1.0)),
    "predict_mse_modulo": (predict_mse_modulo, dict(peak=1.0, oversampling=8.0, bits=4,
                                                    guard_bins=4, guard_width=np.pi / 32,
                                                    length=64)),
    "predict_mse_conventional": (predict_mse_conventional, dict(peak=1.0, oversampling=8.0,
                                                                bits=4)),
    "estimate_interference_norm": (estimate_interference_norm, dict(
        length=32, oversampling=4.0, guard_width=0.0, set_size=2, trials=10, seed=0)),
    # The empty fold set returns 0.0 early, so its arguments are checked first.
    "estimate_interference_norm-empty": (estimate_interference_norm, dict(
        length=32, oversampling=4.0, guard_width=0.0, set_size=0, trials=10, seed=0)),
    "segment_starts": (segment_starts, dict(num_samples=400, length=64, alpha=0.5)),
    "RecoveryConfig": (RecoveryConfig, dict(length=64, alpha=0.5, guard_width=np.pi / 32,
                                            threshold=0.5, band_fraction=0.25, **LPF)),
}

NOT_NUMBERS = (math.nan, math.inf, -math.inf, True, "4", None)
BAD = (2.5, -1, 0) + NOT_NUMBERS


def huge(base):
    return (10 ** 12, -10 ** 12) if isinstance(base, int) else (1e308, -1e308)


def bad_calls(values_of) -> list[str]:
    """Every call of the product that breaks the rules, as 'name(arg=value): outcome'."""
    bad = []
    for name, (call, base) in CALLS.items():
        for arg, value in ((arg, value) for arg, default in base.items()
                           if type(default) in (int, float) for value in values_of(default)):
            must_raise = any(value is v for v in NOT_NUMBERS) or (
                isinstance(base[arg], int) and isinstance(value, float))
            try:
                call(**{**base, arg: value})
                outcome = "returned" if must_raise else None
            except InfeasibleError as err:
                outcome = f"InfeasibleError: {err}" if must_raise else None
            except ConfigurationError:
                outcome = None
            except Exception as err:  # MemoryError and warnings made errors too
                outcome = f"{type(err).__name__}: {err}"
            if outcome:
                bad.append(f"{name}({arg}={value!r}): {outcome}")
    return bad


def test_bad_numbers_fail_cleanly():
    bad = bad_calls(lambda _: BAD)
    assert not bad, "\n".join(bad)


# Address space of the child: a cap missing from the code makes the huge
# values ask for terabytes, which fail at once under it.
CHILD_BYTES = 2 << 30


def test_huge_numbers_fail_cleanly():
    try:
        child = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", __file__],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(Path(modunfold.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])})
    except subprocess.TimeoutExpired:
        pytest.fail("a huge value ran for over 60 s")
    assert child.returncode == 0, child.stderr
    bad = json.loads(child.stdout)
    assert not bad, "\n".join(bad)


RECORDS = {"nan": np.where(np.arange(400) == 5, np.nan, 0.2),
           "inf": np.where(np.arange(400) == 5, np.inf, 0.2),
           "2-D": np.full((2, 200), 0.2),
           "empty": np.zeros(0)}


def adc_output(samples):
    return AdcOutput(quantized=samples, folding_bits=np.zeros(samples.shape, dtype=bool),
                     residue_truth=np.zeros(samples.shape), config=AdcConfig(4, 0.5))


RECORD_CALLS = {
    "acquire": lambda x: acquire(SampledSignal(x, 0.25), AdcConfig(4, 0.5)),
    "unfold": lambda x: unfold(adc_output(x), SampledSignal(x, 0.25),
                               RecoveryConfig(64, 0.5, np.pi / 32, 0.5, 0.25, **LPF)),
    "conventional_adc": lambda x: conventional_adc(SampledSignal(x, 0.25), 4, 1.0, 0, **LPF),
    "hod_recover": lambda x: hod_recover(x, HodConfig(0.5)),
    "filter_zero_delay": lambda x: filter_zero_delay(
        x, design_lowpass(np.pi / 4, np.pi / 16, 257)),
}


@pytest.mark.parametrize("record", RECORDS)
@pytest.mark.parametrize("call", RECORD_CALLS)
def test_bad_record_rejected(call, record):
    # At 400 samples, conventional_adc returned NaNs for a NaN sample and
    # clipped an inf one, hod_recover returned NaNs or warned, and
    # filter_zero_delay turned one NaN into NaN outputs.
    reason = "sample 5 is not finite" if record in ("nan", "inf") else "1-D, nonempty.*shape"
    with pytest.raises(ConfigurationError, match=reason):
        RECORD_CALLS[call](RECORDS[record])


# Records whose dtype is not a real number.  A float cast used to drop the
# complex record's imaginary part (with a ComplexWarning) and read the
# others as numbers: False as 0, "0.2" as 0.2.
NOT_REAL = {"complex": np.full(400, 0.2 + 0.1j),
            "bool": np.zeros(400, dtype=bool),
            "str": np.full(400, "0.2"),
            "object": np.full(400, 0.2, dtype=object),
            "timedelta": np.zeros(400, dtype="m8[s]")}


@pytest.mark.parametrize("record", NOT_REAL)
@pytest.mark.parametrize("call", RECORD_CALLS)
def test_record_of_non_numbers_rejected(call, record):
    with pytest.raises(ConfigurationError, match="must be real numbers, got dtype"):
        RECORD_CALLS[call](NOT_REAL[record])


if __name__ == "__main__":
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_BYTES, CHILD_BYTES))
    print(json.dumps(bad_calls(huge)))
