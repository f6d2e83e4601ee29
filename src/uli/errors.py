"""Exception types shared across the toolkit."""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ConvergenceFailure(ToolkitError):
    """An iterative kernel (SVD) failed to converge."""


class DimensionMismatch(ToolkitError):
    """Operands have incompatible shapes."""


class NotNormalized(ToolkitError):
    """State norm differs from one beyond tolerance; carries the measured norm."""

    def __init__(self, norm: float, message: str | None = None):
        self.norm = float(norm)
        super().__init__(message or f"state is not normalized: measured norm {norm!r}")


class NotSorted(ToolkitError):
    """A spectrum that must be sorted descending is not."""


class BadSpectrum(ToolkitError):
    """A requested singular spectrum is unusable."""


class NotUnitary(ToolkitError):
    """A matrix expected to be unitary deviates beyond tolerance."""
