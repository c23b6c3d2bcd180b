"""Exception types shared across the package."""


class FileFormatError(Exception):
    """A binary artifact file has a bad magic, header, or payload size."""


class NonConvergenceError(RuntimeError):
    """The quasi-Newton iteration failed to reach its residual tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations

