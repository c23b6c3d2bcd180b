"""Snapshot storage and its binary file format.

Layout of a snapshot file (all little-endian):

    bytes 0..8    magic ``b"SWESNAP1"``
    int64         nx, ny, nt, n            (n is stored redundantly)
    float64       dt
    uint64        flags (bit 0: state matrices, required; bit 1: nonlinear matrices)
    float64       L, D
    float64[nt]   times
    u, v, phi     n-by-nt float64, column-major
    then, if bit 1 is set: F11, F12, F21, F22, F31, F32, same layout

Column t of every matrix belongs to the same time instant ``times[t]``.
Round-trips are bit exact. A load rejects ``n != nx*ny``, a non-finite or
nonpositive ``dt``, a clear bit 0, unknown flag bits and trailing bytes; a
save refuses a set without states. Only L and D of the physical constants
travel: a grid with other constants is not saved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swerom import binfile
from swerom.model import Grid, PhysicalConstants, TERM_NAMES, VARIABLES, build_grid

__all__ = ["SnapshotSet", "save_snapshots", "load_snapshots"]

_FLAG_STATES = 1
_FLAG_NONLINEAR = 2


@dataclass
class SnapshotSet:
    """Recorded trajectory: per-variable and per-term n-by-nt matrices."""

    grid: Grid
    dt: float
    times: np.ndarray
    states: dict[str, np.ndarray]
    nonlinear: dict[str, np.ndarray] | None = None

    @property
    def nt(self) -> int:
        return self.times.shape[0]


def save_snapshots(snaps: SnapshotSet, path) -> None:
    grid = snaps.grid
    if grid.consts != PhysicalConstants(L=grid.L, D=grid.D):
        raise ValueError(f"a snapshot file keeps only L and D of the constants {grid.consts}")
    if not snaps.states:
        raise ValueError("a snapshot file holds the state matrices; this set has none")
    flags = _FLAG_STATES | (_FLAG_NONLINEAR if snaps.nonlinear is not None else 0)
    with binfile.writing(path, "snapshot") as w:
        w.fields("qqqqdQdd", grid.nx, grid.ny, snaps.nt, grid.n, snaps.dt, flags, grid.L, grid.D)
        w.array(snaps.times)
        for group, names in ((snaps.states, VARIABLES), (snaps.nonlinear, TERM_NAMES)):
            if group is not None:
                for name in names:
                    w.array(group[name], order="F")


def load_snapshots(path, nonlinear: bool = True) -> SnapshotSet:
    """Read a snapshot file; ``nonlinear=False`` skips the term matrices."""
    with binfile.reading(path, "snapshot") as r:
        nx, ny, nt, n, dt, flags, L, D = r.fields("qqqqdQdd", "header")
        r.require(n == nx * ny, "stored n={} does not match {}x{}", n, nx, ny)
        r.require(0.0 < dt < np.inf, "snapshot dt={} is not finite and positive", dt)
        r.require(flags <= _FLAG_STATES | _FLAG_NONLINEAR, "unknown snapshot flags {:#x}", flags)
        r.require(flags & _FLAG_STATES, "snapshot file holds no state matrices")
        grid = build_grid(nx, ny, PhysicalConstants(L=L, D=D))
        times = r.array((nt,), "times")
        states = {var: r.array((n, nt), var, order="F") for var in VARIABLES}
        terms = None
        if flags & _FLAG_NONLINEAR:
            if nonlinear:
                terms = {term: r.array((n, nt), term, order="F") for term in TERM_NAMES}
            else:
                r.skip(8 * n * nt * len(TERM_NAMES), "nonlinear terms")
        r.end()
    return SnapshotSet(grid=grid, dt=dt, times=times, states=states, nonlinear=terms)
