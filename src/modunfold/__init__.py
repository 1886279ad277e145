"""Modulo-ADC simulation with sliding-DFT unfolding.

Simulates a self-reset (modulo) analog-to-digital converter that emits
quantized folded samples plus a 1-bit fold-location stream, recovers the
unfolded signal with an overlapped windowed-DFT least-squares scheme, and
checks the measured error against closed-form performance predictions.
"""

from .baselines import HodConfig, conventional_adc, hod_recover
from .dsp import (FirLowpass, OobSystem, TukeyWindow, build_oob_system,
                  design_lowpass, filter_zero_delay, kernel_block,
                  matrix_inf_norm, tukey_window)
from .errors import ConfigurationError, InfeasibleError, OverloadError
from .guarantees import (TheoryReport, estimate_interference_norm, guard_bin_count,
                         min_oversampling, min_oversampling_for_folds,
                         predict_mse_conventional, predict_mse_modulo,
                         quantization_noise_power, required_bits,
                         required_threshold, theory_report)
from .modulo_adc import (AdcConfig, AdcOutput, acquire, fold, quantize_uniform,
                         triangle_dither)
from .signal_model import (PulseTrain, PulseTrainSpec, SampledSignal,
                           estimate_inf_norm, generate_pulse_train,
                           nominal_sample_count, raised_cosine, sample_signal)
from .unfold import (RecoveryConfig, UnfoldResult, residue_pre_estimate,
                     round_to_lattice, segment_starts, unfold)

__version__ = "0.1.0"
