"""Exception types shared across the package."""


class GaussvoxError(Exception):
    """Base class for all library errors."""


class InvalidGaussianError(GaussvoxError):
    """A gaussian parameter no scene may hold; ``gaussian`` is its index, when known.

    ``detail`` is the message without the index, so that the error can be
    raised again for the same gaussian under another index.
    """

    def __init__(self, message: str, gaussian: int | None = None):
        super().__init__(message if gaussian is None else f"gaussian {gaussian}: {message}")
        self.gaussian = gaussian
        self.detail = message


class DegenerateRotationError(InvalidGaussianError):
    """Quaternion that is non-finite or too close to zero to define a rotation."""


class InvalidScaleError(InvalidGaussianError):
    """Gaussian scale with a non-positive, non-finite or out-of-range component."""


class NonFiniteValueError(InvalidGaussianError):
    """Gaussian mean or semantic value that is NaN or infinite."""


class GridMismatchError(GaussvoxError):
    """Two grids with incompatible GridSpec or class count."""


class UndefinedMetricError(GaussvoxError):
    """Metric requested on a confusion matrix with no eligible class."""


class UndefinedLossError(GaussvoxError):
    """Loss requested on a grid where every voxel is ignored."""


class CapacityError(GaussvoxError):
    """A pair count, score array or payload would exceed its capacity limit."""


class FormatError(GaussvoxError):
    """Malformed scene or grid file.

    ``offset`` is the byte offset at which the fault was detected.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class DivergenceError(GaussvoxError):
    """Fitting aborted because the loss, or a parameter after a step, left its range."""

    def __init__(self, iteration: int, what: str = "loss became non-finite"):
        super().__init__(f"{what} at iteration {iteration}")
        self.iteration = iteration
