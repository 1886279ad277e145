"""Exception types shared across the package, and its three input rules.

Every parameter check raises ConfigurationError (a ValueError), so the CLI's
one handler turns any bad value into exit 2.  OverloadError is a data fault.

The rules are applied once, by the public function or config that owns a
parameter, which then checks only its own range:
- check_number: a finite real, or an integer where one is asked for;
- check_record: a 1-D, nonempty, finite record of real numbers;
- check_seed: an integer >= 0 or a np.random.SeedSequence.
"""

import numbers

import numpy as np


class ConfigurationError(ValueError):
    """A parameter combination that cannot produce a working pipeline."""


class InfeasibleError(ConfigurationError):
    """A sufficient condition (oversampling, threshold, bits) cannot be met."""


class OverloadError(RuntimeError):
    """A sample landed outside the quantizer range."""

    def __init__(self, index: int, value: float, full_scale: float):
        self.index = index
        self.value = value
        self.full_scale = full_scale
        super().__init__(
            f"sample {index} overloads the quantizer: |{value:.6g}| > {full_scale:.6g}"
        )


def check_number(name: str, value, integer: bool = False):
    """value, if it is a finite real (an integer when `integer` is set).

    A bool, a str, None, NaN or +-inf, or a fraction (4.0 included) where an
    integer is asked for, raises ConfigurationError.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind) or not abs(value) < np.inf:
        wanted = "an integer" if integer else "a finite number"
        raise ConfigurationError(f"{name} must be {wanted}, got {value!r}")
    return value


def check_record(name: str, samples) -> np.ndarray:
    """samples as a float array, if it is 1-D, nonempty and finite.

    Only integer and float dtypes are numbers here (numpy kinds i, u, f):
    a bool, complex, str, object or timedelta record raises
    ConfigurationError rather than being cast, which would drop a complex
    record's imaginary part or parse strings.
    """
    x = np.asarray(samples)
    if x.dtype.kind not in "iuf":
        raise ConfigurationError(f"{name} samples must be real numbers, got dtype {x.dtype}")
    x = x.astype(float, copy=False)
    if x.ndim != 1 or x.size == 0:
        raise ConfigurationError(f"need 1-D, nonempty {name} samples, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ConfigurationError(f"{name} sample {int(np.argmin(np.isfinite(x)))} is not finite")
    return x


def check_seed(name: str, seed) -> None:
    """Reject a seed that is not an integer >= 0 or a np.random.SeedSequence.

    None, numpy's fresh-entropy seed, is rejected too: every result of the
    package is a function of its arguments.
    """
    if not isinstance(seed, np.random.SeedSequence) and check_number(name, seed, True) < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {seed}")
