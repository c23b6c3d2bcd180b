"""Exception types shared across the package, and the checked file read."""

import io
import os


class FileFormatError(Exception):
    """A binary artifact file has a bad magic, header, or payload size."""


class NonConvergenceError(RuntimeError):
    """The quasi-Newton iteration failed to reach its residual tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def read_exact(fh, nbytes: int, what: str, kind: str) -> bytes:
    """Read ``nbytes`` from a ``kind`` file. Sizes come from file headers, so
    a negative one fails, and one larger than the read buffer is checked
    against the end of the file before the read allocates it."""
    if nbytes < 0:
        raise FileFormatError(f"negative size {nbytes} of {what} in {kind} file")
    fits = nbytes <= io.DEFAULT_BUFFER_SIZE or nbytes <= os.fstat(fh.fileno()).st_size - fh.tell()
    data = fh.read(nbytes) if fits else b""
    if len(data) != nbytes:
        raise FileFormatError(f"truncated {kind} file while reading {what}")
    return data
