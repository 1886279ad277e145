"""Modulo-ADC simulation with sliding-DFT unfolding.

Simulates a self-reset (modulo) analog-to-digital converter that emits
quantized folded samples plus a 1-bit fold-location stream, recovers the
unfolded signal with an overlapped windowed-DFT least-squares scheme, and
checks the measured error against closed-form performance predictions.
"""

from .baselines import HodConfig, conventional_adc, hod_recover
from .dsp import (OobSystem, TukeyWindow, build_oob_system, design_lowpass,
                  filter_zero_delay, tukey_window)
from .errors import ConfigurationError, InfeasibleError, OverloadError
from .guarantees import (estimate_interference_norm, guard_bin_count,
                         min_oversampling, predict_mse_conventional,
                         predict_mse_modulo, required_bits, required_threshold)
from .modulo_adc import AdcConfig, AdcOutput, acquire
from .signal_model import (PulseTrain, PulseTrainSpec, SampledSignal,
                           estimate_inf_norm, generate_pulse_train,
                           nominal_sample_count, sample_signal)
from .unfold import RecoveryConfig, UnfoldResult, unfold

__version__ = "0.1.0"
