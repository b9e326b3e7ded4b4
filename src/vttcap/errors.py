"""Exception types shared across the package."""


class VttError(Exception):
    """Base class for all package errors."""


class DimensionError(VttError):
    """Tensor or matrix shapes are incompatible for the requested operation."""


class ContractError(VttError):
    """A caller violated an operation's precondition."""


class FormatError(VttError):
    """A file or byte stream does not match its declared format."""


class TrainingError(VttError):
    """Numeric failure during optimization (non-finite gradients etc.)."""
