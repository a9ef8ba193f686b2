"""Exception types shared across the package."""


class TwoPointError(Exception):
    """Base class for all package-specific errors."""


class InvalidMap(TwoPointError):
    """Map is not a symmetry of the periodic box, or does not fit the grid it is applied to."""


class GridMismatch(TwoPointError):
    """Two fields that must share a grid do not."""


class StepTooLarge(TwoPointError):
    """Requested time step exceeds the stability limit of the chosen stepper."""


class HistoryUnderflow(TwoPointError):
    """Not enough stored states to evaluate a time-shifted quantity."""


class InsufficientData(TwoPointError):
    """Ensemble too small or sampling too rank-deficient for law discovery."""


class Diverged(TwoPointError):
    """Numerical blow-up detected during time integration."""


class NonFiniteField(TwoPointError, ValueError):
    """Field data contains NaN or infinity."""


class NotARotation(TwoPointError):
    """Map given to the rotation law is improper (det = -1) or shifted (beta != 0)."""


class InvalidWavenumber(TwoPointError):
    """Wavenumber is not an integer multiple of 2*pi/L on the given grid."""
