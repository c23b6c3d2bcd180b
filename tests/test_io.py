import struct

import numpy as np
import pytest

from swerom.deim import (
    build_deim_term_operator,
    deim_select_points,
    load_deim_operator,
    save_deim_operator,
)
from swerom.errors import FileFormatError
from swerom.model import TERM_NAMES, PhysicalConstants, build_grid
from swerom.pod import load_basis, save_basis
from swerom.rom import build_tensor_coefficients, load_tensors, save_tensors
from swerom.snapshots import SnapshotSet, load_snapshots, save_snapshots

from test_rom import make_space, orthonormal_basis


def make_snapshots(rng, nx=5, ny=4, nt=3, with_nonlinear=True):
    grid = build_grid(nx, ny)
    states = {var: rng.standard_normal((grid.n, nt)) for var in ("u", "v", "phi")}
    nonlinear = None
    if with_nonlinear:
        nonlinear = {term: rng.standard_normal((grid.n, nt)) for term in TERM_NAMES}
    times = 120.0 * np.arange(1, nt + 1)
    return SnapshotSet(grid=grid, dt=120.0, times=times, states=states, nonlinear=nonlinear)


def test_snapshot_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    snaps = make_snapshots(rng)
    path = tmp_path / "t.snap"
    save_snapshots(snaps, path)
    back = load_snapshots(path)
    assert back.grid == snaps.grid
    assert back.dt == snaps.dt
    assert np.array_equal(back.times, snaps.times)
    for var in ("u", "v", "phi"):
        assert np.array_equal(back.states[var], snaps.states[var])
    for term in TERM_NAMES:
        assert np.array_equal(back.nonlinear[term], snaps.nonlinear[term])
    # saving the loaded set reproduces the file byte for byte
    path2 = tmp_path / "t2.snap"
    save_snapshots(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_states_only(tmp_path):
    rng = np.random.default_rng(2)
    snaps = make_snapshots(rng, with_nonlinear=False)
    path = tmp_path / "s.snap"
    save_snapshots(snaps, path)
    back = load_snapshots(path)
    assert back.nonlinear is None
    assert np.array_equal(back.states["phi"], snaps.states["phi"])


@pytest.mark.parametrize("flags", [0, 2])
def test_snapshot_file_without_states_is_refused(tmp_path, flags):
    # every route needs the state matrices: a file cannot leave them out,
    # and a set without them is not saved, so no file claims states it lacks
    snaps = make_snapshots(np.random.default_rng(3))
    path = tmp_path / "s.snap"
    save_snapshots(snaps, path)
    data = path.read_bytes()
    path.write_bytes(data[:48] + struct.pack("<Q", flags) + data[56:])
    with pytest.raises(FileFormatError, match="holds no state matrices"):
        load_snapshots(path)
    snaps.states = None
    with pytest.raises(ValueError, match="this set has none"):
        save_snapshots(snaps, tmp_path / "none.snap")
    assert not (tmp_path / "none.snap").exists()


def test_snapshot_refuses_constants_it_cannot_store(tmp_path):
    # the header keeps only L and D; any other constant would load as its default
    snaps = make_snapshots(np.random.default_rng(8))
    snaps.grid = build_grid(5, 4, PhysicalConstants(beta=0.0))
    with pytest.raises(ValueError, match="only L and D"):
        save_snapshots(snaps, tmp_path / "c.snap")
    assert not (tmp_path / "c.snap").exists()
    snaps.grid = build_grid(5, 4, PhysicalConstants(L=1.0e6, D=2.0e6))
    save_snapshots(snaps, tmp_path / "d.snap")
    assert load_snapshots(tmp_path / "d.snap").grid == snaps.grid


def test_snapshot_bad_magic(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "bad.snap"
    save_snapshots(make_snapshots(rng), path)
    data = bytearray(path.read_bytes())
    data[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="magic"):
        load_snapshots(path)


def test_snapshot_dimension_mismatch(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "dim.snap"
    save_snapshots(make_snapshots(rng), path)
    data = bytearray(path.read_bytes())
    # int64 n lives at bytes 32..40 of the header; corrupt it
    data[32:40] = (999).to_bytes(8, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="n=999"):
        load_snapshots(path)


def test_snapshot_truncated(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "tr.snap"
    save_snapshots(make_snapshots(rng), path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(FileFormatError, match="truncated"):
        load_snapshots(path)


def test_snapshot_load_without_nonlinear_terms(tmp_path):
    rng = np.random.default_rng(7)
    snaps = make_snapshots(rng)
    path = tmp_path / "s.snap"
    save_snapshots(snaps, path)
    back = load_snapshots(path, nonlinear=False)
    assert back.nonlinear is None
    for var in ("u", "v", "phi"):
        assert np.array_equal(back.states[var], snaps.states[var])
    # the skipped block is still checked: cut inside it, or padded after it
    data = path.read_bytes()
    path.write_bytes(data[:-1])
    with pytest.raises(FileFormatError, match="truncated"):
        load_snapshots(path, nonlinear=False)
    path.write_bytes(data + b"\0")
    with pytest.raises(FileFormatError, match="trailing"):
        load_snapshots(path, nonlinear=False)


LOADERS = {"s.snap": load_snapshots, "b.pod": load_basis,
           "op.deim": load_deim_operator, "t.tpod": load_tensors}
SAVERS = {"s.snap": save_snapshots, "b.pod": save_basis,
          "op.deim": save_deim_operator, "t.tpod": save_tensors}
# offsets of the 8-byte header fields after the magic: snap nx, ny, nt, n, dt,
# flags, L, D; pod n, k, nsigma, tag; deim n, m, k, tag; tpod k_u, k_v, k_phi,
# degree, terms
HEADER_FIELDS = {"s.snap": range(8, 72, 8), "b.pod": range(8, 40, 8),
                 "op.deim": range(8, 40, 8), "t.tpod": range(8, 48, 8)}


def write_every_format(tmp_path, rng):
    """One small file of each format, named as in LOADERS."""
    save_snapshots(make_snapshots(rng, nt=2), tmp_path / "s.snap")
    grid = build_grid(4, 3)
    space = make_space(grid, rng, k=2)
    save_basis(space.bases["u"], tmp_path / "b.pod")
    V = orthonormal_basis(grid.n, 3, rng)
    save_deim_operator(build_deim_term_operator(space, "F22", V, deim_select_points(V)),
                       tmp_path / "op.deim")
    save_tensors(build_tensor_coefficients(space), tmp_path / "t.tpod")


def test_files_truncated_at_every_offset(tmp_path):
    write_every_format(tmp_path, np.random.default_rng(6))
    cut = tmp_path / "cut"
    for name, load in LOADERS.items():
        data = (tmp_path / name).read_bytes()
        load(tmp_path / name)
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(FileFormatError, match="truncated"):
                load(cut)
    cut.write_bytes((tmp_path / "op.deim").read_bytes() + b"\0")
    with pytest.raises(FileFormatError, match="trailing"):
        load_deim_operator(cut)


HUGE = 2 ** 40


@pytest.mark.parametrize("name, offset, code, value, error", [
    ("s.snap", 24, "<q", HUGE, FileFormatError),            # nt
    ("s.snap", 24, "<q", -1, FileFormatError),
    ("s.snap", 56, "<d", 0.0, ValueError),                  # L
    ("s.snap", 64, "<d", 0.0, ValueError),                  # D
    ("s.snap", 56, "<d", float("nan"), ValueError),
    ("s.snap", 64, "<d", float("inf"), ValueError),
    ("b.pod", 8, "<q", HUGE, FileFormatError),              # n
    ("b.pod", 16, "<q", HUGE, FileFormatError),             # k
    ("b.pod", 24, "<q", HUGE, FileFormatError),             # nsigma
    ("b.pod", 16, "<q", -1, FileFormatError),
    ("op.deim", 16, "<q", HUGE, FileFormatError),           # m
    ("op.deim", 16, "<q", 5, FileFormatError),              # m: later counts shift
    ("op.deim", 24, "<q", HUGE, FileFormatError),           # k
    ("t.tpod", 8, "<q", 2 ** 21, FileFormatError),          # k_u: k**3 wraps in int64
    ("t.tpod", 8, "<q", -2, FileFormatError),
    ("t.tpod", 16, "<q", HUGE, FileFormatError),            # k_v
    ("t.tpod", 24, "<q", -1, FileFormatError),              # k_phi: the arrays shift
    ("t.tpod", 24, "<q", 0, FileFormatError),
    ("t.tpod", 24, "<q", 1, FileFormatError),
    ("t.tpod", 32, "<q", 3, FileFormatError),               # degree
    ("s.snap", 48, "<q", 7, FileFormatError),               # flags: unknown bit 2
    ("s.snap", 40, "<d", float("nan"), FileFormatError),    # dt
    ("s.snap", 40, "<d", float("inf"), FileFormatError),
    ("s.snap", 40, "<d", 0.0, FileFormatError),
    ("s.snap", 40, "<d", -5.0, FileFormatError),
    ("t.tpod", 40, "<q", 0, FileFormatError),               # term count
    ("t.tpod", 40, "<q", 1, FileFormatError),
    ("t.tpod", 40, "<q", -1, FileFormatError),
    ("op.deim", 32, "<8s", b"u", FileFormatError),          # term tag
    ("t.tpod", 144, "<8s", b"F12", FileFormatError),        # first term tag, out of order
])
def test_malformed_header_rejected_before_reading(tmp_path, name, offset, code, value,
                                                  error):
    # header counts are checked against the bytes left before anything is
    # allocated, the domain size against the stencils' needs, and dt, the
    # flags and the term count against the values a saved file can hold
    write_every_format(tmp_path, np.random.default_rng(9))
    path = tmp_path / name
    data = bytearray(path.read_bytes())
    data[offset:offset + 8] = struct.pack(code, value)
    path.write_bytes(bytes(data))
    with pytest.raises(error):
        LOADERS[name](path)


def test_deim_operator_points_distinct_and_below_n(tmp_path):
    # n sizes no read, so the loader holds the points to the builder's rule
    write_every_format(tmp_path, np.random.default_rng(11))
    path = tmp_path / "op.deim"
    data = path.read_bytes()
    points = np.frombuffer(data, dtype="<i8", count=3, offset=40)
    top = int(points.max())
    bad = [data[:8] + struct.pack("<q", n) + data[16:] for n in (top, top - 1)]
    bad.append(data[:48] + data[40:48] + data[56:])  # second point repeats the first
    for payload in bad:
        path.write_bytes(payload)
        with pytest.raises(FileFormatError, match="bad sample points"):
            load_deim_operator(path)


def test_header_field_sweep_loads_only_what_it_saves(tmp_path):
    # every 8-byte header field set to each value: the load fails, or saving
    # what it loaded gives back the mutated bytes (nothing changes meaning
    # silently); dt has no byte-level witness and is covered above
    write_every_format(tmp_path, np.random.default_rng(10))
    values = [struct.pack("<q", v) for v in (0, 1, -1, 7, HUGE)]
    values += [struct.pack("<d", v) for v in (float("nan"), float("inf"), 0.0, -5.0)]
    path, resaved = tmp_path / "mutated", tmp_path / "resaved"
    for name, offsets in HEADER_FIELDS.items():
        data = (tmp_path / name).read_bytes()
        for offset in offsets:
            for value in values:
                path.write_bytes(data[:offset] + value + data[offset + 8:])
                try:
                    loaded = LOADERS[name](path)
                except (FileFormatError, ValueError):
                    continue
                SAVERS[name](loaded, resaved)
                assert resaved.read_bytes() == path.read_bytes(), (name, offset, value)
