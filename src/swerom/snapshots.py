"""Snapshot storage and its binary file format.

Layout of a snapshot file (all little-endian):

    bytes 0..8    magic ``b"SWESNAP1"``
    int64         nx, ny, nt, n            (n is stored redundantly)
    float64       dt
    uint64        flags (bit 0: state matrices, bit 1: nonlinear matrices)
    float64       L, D
    float64[nt]   times
    then, if bit 0 is set: u, v, phi as n-by-nt float64, column-major
    then, if bit 1 is set: F11, F12, F21, F22, F31, F32, same layout

Column t of every matrix belongs to the same time instant ``times[t]``.
Round-trips are bit exact.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from swerom.errors import FileFormatError, read_exact
from swerom.model import Grid, PhysicalConstants, TERM_NAMES, VARIABLES, build_grid

__all__ = ["SnapshotSet", "save_snapshots", "load_snapshots"]

_MAGIC = b"SWESNAP1"
_HEADER = struct.Struct("<8sqqqqdQdd")
_FLAG_STATES = 1
_FLAG_NONLINEAR = 2


@dataclass
class SnapshotSet:
    """Recorded trajectory: per-variable and per-term n-by-nt matrices."""

    grid: Grid
    dt: float
    times: np.ndarray
    states: dict[str, np.ndarray] | None = None
    nonlinear: dict[str, np.ndarray] | None = None

    @property
    def nt(self) -> int:
        return self.times.shape[0]


def _write_matrix(fh, m: np.ndarray) -> None:
    fh.write(np.asarray(m, dtype="<f8").tobytes(order="F"))


def _read_matrix(fh, n: int, nt: int, what: str) -> np.ndarray:
    data = read_exact(fh, 8 * n * nt, what, "snapshot")
    return np.frombuffer(data, dtype="<f8").reshape((n, nt), order="F").copy()


def save_snapshots(snaps: SnapshotSet, path) -> None:
    grid = snaps.grid
    flags = 0
    if snaps.states is not None:
        flags |= _FLAG_STATES
    if snaps.nonlinear is not None:
        flags |= _FLAG_NONLINEAR
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, grid.nx, grid.ny, snaps.nt, grid.n,
                              snaps.dt, flags, grid.L, grid.D))
        fh.write(np.asarray(snaps.times, dtype="<f8").tobytes())
        if snaps.states is not None:
            for var in VARIABLES:
                _write_matrix(fh, snaps.states[var])
        if snaps.nonlinear is not None:
            for term in TERM_NAMES:
                _write_matrix(fh, snaps.nonlinear[term])


def load_snapshots(path, nonlinear: bool = True) -> SnapshotSet:
    """Read a snapshot file; ``nonlinear=False`` skips the term matrices."""
    with open(path, "rb") as fh:
        magic, nx, ny, nt, n, dt, flags, L, D = _HEADER.unpack(
            read_exact(fh, _HEADER.size, "header", "snapshot"))
        if magic != _MAGIC:
            raise FileFormatError(f"bad snapshot magic {magic!r}")
        if n != nx * ny:
            raise FileFormatError(f"stored n={n} does not match {nx}x{ny}")
        grid = build_grid(nx, ny, PhysicalConstants(L=L, D=D))
        times = np.frombuffer(read_exact(fh, 8 * nt, "times", "snapshot"), dtype="<f8").copy()
        states = None
        if flags & _FLAG_STATES:
            states = {var: _read_matrix(fh, n, nt, var) for var in VARIABLES}
        terms = None
        if flags & _FLAG_NONLINEAR:
            if nonlinear:
                terms = {term: _read_matrix(fh, n, nt, term) for term in TERM_NAMES}
            elif fh.seek(8 * n * nt * len(TERM_NAMES), 1) > os.fstat(fh.fileno()).st_size:
                raise FileFormatError("truncated snapshot file while skipping nonlinear terms")
        if fh.read(1):
            raise FileFormatError("trailing bytes after snapshot payload")
    return SnapshotSet(grid=grid, dt=dt, times=times, states=states, nonlinear=terms)
