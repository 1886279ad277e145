"""Exception types shared across the package.

Every parameter check raises ConfigurationError (a ValueError), so the CLI's
one handler turns any bad value into exit 2.  OverloadError is a data fault.
"""


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
