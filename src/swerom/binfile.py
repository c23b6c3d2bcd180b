"""The byte layout of the four artifact files, read and written in one place.

Each file starts with its kind's 8-byte :data:`MAGIC`, then little-endian
``struct`` fields, NUL-padded 8-byte tags, and int64 or float64 arrays in C
or F element order. :func:`reading` checks the magic; each counted read is
checked against the bytes left before it allocates, so a corrupt size fails
as a truncation, not an allocation.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from swerom.errors import FileFormatError

MAGIC = {"snapshot": b"SWESNAP1", "basis": b"PODBAS1\0", "operator": b"DEIMOP2\0",
         "tensor": b"TPODCF2\0"}


class Writer:
    def __init__(self, fh, kind: str):
        self._fh = fh
        fh.write(MAGIC[kind])

    def fields(self, fmt: str, *values) -> None:
        self._fh.write(struct.pack("<" + fmt, *values))

    def tag(self, name: str) -> None:
        if len(name.encode()) > 8:
            raise ValueError(f"tag {name!r} is longer than 8 bytes")
        self._fh.write(name.encode().ljust(8, b"\0"))

    def array(self, arr, dtype: str = "<f8", order: str = "C") -> None:
        self._fh.write(np.asarray(arr, dtype=dtype).tobytes(order=order))


@functools.cache
def _struct(fmt: str) -> struct.Struct:
    return struct.Struct("<" + fmt)


_dtype = functools.cache(np.dtype)


class Reader:
    """Checked reads; a failure message is a ``str.format`` template, filled
    in only when the check fails."""

    def __init__(self, fh, kind: str):
        self._fh = fh
        self._left = os.fstat(fh.fileno()).st_size
        self._kind = kind
        got = self._read(8, "magic")
        self.require(got == MAGIC[kind], "bad {} magic {!r}", kind, got)

    def require(self, ok: bool, message: str, *args) -> None:
        if not ok:
            raise FileFormatError(message.format(*args))

    def _take(self, nbytes: int, what: str) -> None:
        if nbytes > self._left:
            raise FileFormatError(f"truncated {self._kind} file while reading {what}")
        self._left -= nbytes

    def _read(self, nbytes: int, what: str) -> bytes:
        self._take(nbytes, what)
        return self._fh.read(nbytes)

    def fields(self, fmt: str, what: str) -> tuple:
        s = _struct(fmt)
        return s.unpack(self._read(s.size, what))

    def tag(self, what: str, known=None) -> str:
        """An 8-byte UTF-8 tag; with ``known``, it must be one of those names."""
        raw = self._read(8, what).rstrip(b"\0")
        name = raw.decode(errors="replace")
        self.require(name.encode() == raw and (known is None or name in known),
                     "bad {} {!r} in {} file", what, name, self._kind)
        return name

    def array(self, shape: tuple, what: str, dtype: str = "<f8", order: str = "C",
              layout: str = "C") -> np.ndarray:
        """An array, in memory order ``layout``, of one stored in ``order``."""
        self.require(min(shape) >= 0, "negative size of {} in {} file", what, self._kind)
        dt = _dtype(dtype)
        size = math.prod(shape)
        self._take(dt.itemsize * size, what)
        flat = np.empty(size, dt)
        self.require(self._fh.readinto(flat) == flat.nbytes, "short read of {} in {} file",
                     what, self._kind)
        arr = flat.reshape(shape, order=order)
        return arr if order == layout else arr.copy(order=layout)

    def skip(self, nbytes: int, what: str) -> None:
        self.require(0 <= nbytes <= self._left, "truncated {} file in {}", self._kind, what)
        self._left -= nbytes
        self._fh.seek(nbytes, os.SEEK_CUR)

    def end(self) -> None:
        self.require(self._left == 0, "trailing bytes after {} payload", self._kind)


@contextmanager
def writing(path, kind: str):
    with open(path, "wb") as fh:
        yield Writer(fh, kind)


@contextmanager
def reading(path, kind: str):
    with open(path, "rb") as fh:
        yield Reader(fh, kind)
