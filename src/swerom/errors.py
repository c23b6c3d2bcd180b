"""Exception types shared across the package."""


class FileFormatError(Exception):
    """A binary artifact file has a bad magic, header, or payload size."""


class NonConvergenceError(RuntimeError):
    """The quasi-Newton iteration failed to reach its residual tolerance.

    ``iterations`` are the failed half-step's. When a whole run fails,
    ``timings`` holds its phase timings up to the failure (``newton_iters``
    counts the accepted half-steps only); it is None for a single step.
    """

    def __init__(self, message: str, residual: float, iterations: int, timings=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.timings = timings

