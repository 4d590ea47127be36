"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all mfgibbs errors."""


class CapacityError(ToolkitError):
    """An enumeration or table would exceed the configured size cap."""


class PrecisionError(ToolkitError):
    """A computation hit the binary64 resolution floor before converging."""


class DomainError(ToolkitError):
    """A point lies outside the system's base interval beyond tolerance."""


class NonConvergenceError(ToolkitError):
    """An iterative solve exhausted its budget."""


class NormalizationError(ToolkitError):
    """A potential required to have zero pressure does not."""

    def __init__(self, value: float, bound: float):
        super().__init__(f"potential has pressure {value:.3e}, not zero "
                         f"within {bound:.3e}; normalize it first")
        self.value = value
        self.bound = bound


class BlockSearchError(ToolkitError):
    """No perturbation block with the required properties exists."""


class SeparatorError(ToolkitError):
    """No separator cylinder is available at the requested depth."""


class ScaleError(ToolkitError):
    """Too few usable scales survive the error filter to run an estimate."""


class ConfigError(ToolkitError):
    """A run configuration failed validation.  Message is field-addressed."""
