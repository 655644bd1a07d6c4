"""Exception types shared across the package."""


class MeanforgeError(Exception):
    """Base class for all package errors."""


class NotHermitianError(MeanforgeError):
    """Input matrix fails the Hermitian symmetry check."""


class DimMismatchError(MeanforgeError):
    """Operands have incompatible dimensions."""


class BadOrderError(MeanforgeError):
    """Ky Fan order k outside [1, dim]."""


class BadIntervalError(MeanforgeError):
    """Integration interval with lo >= hi."""


class PoleError(MeanforgeError):
    """Kernel denominator vanishes at a non-removable point."""


class RangeViolationError(MeanforgeError):
    """Inequality parameters outside the registered validity ranges."""


class UnknownCaseError(MeanforgeError):
    """Inequality case id not present in the registry."""


class UnknownParameterError(MeanforgeError):
    """Parameter name that a case or kernel does not take, or a kernel
    parameter left out."""


class NumericalFailureError(MeanforgeError):
    """A result that cannot be reported: a verdict that came out NaN or
    infinite or compared nothing, or a LAPACK eigensolver or QR that
    failed."""
