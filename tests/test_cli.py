import csv
import json
import shutil
import struct
import warnings

import numpy as np
import pytest

from swerom import bench
from swerom.cli import main
from swerom.deim import (
    deim_operators,
    deim_operators_from_snapshots,
    deim_tensor_coefficients,
    load_deim_operator,
    save_deim_operator,
)
from swerom.metrics import trajectory_errors
from swerom.model import (
    TERM_NAMES,
    VARIABLES,
    PhysicalConstants,
    build_grid,
    build_operators,
    coriolis_field,
    initial_state,
)
from swerom.pod import build_state_bases, load_basis, save_basis
from swerom.rom import (
    PackedDirection,
    ReducedModel,
    ReducedSpace,
    build_tensor_coefficients,
    load_tensors,
    project_initial,
    save_tensors,
)
from swerom.snapshots import load_snapshots, save_snapshots
from swerom.solver import SolverConfig, run_full


def test_flops_table(capsys):
    assert main(["flops"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("n,k,m,p")
    assert len(out) == 9
    assert out[1] == "1000,10,10,2,31000,310,2990"
    assert out[8] == "100000,50,100,4,25300000,25300,937499950"


def test_flops_single_value(capsys):
    assert main(["flops", "--method", "tensorial-pod", "--k", "30", "--p", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2429970"


def test_flops_bad_args_exit_2(capsys):
    assert main(["flops", "--method", "standard-pod", "--k", "10"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-verb"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def full_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("full")
    code = main(["run-full", "--grid", "11x9", "--dt", "300", "--nt", "8",
                 "--out", str(out)])
    assert code == 0
    return out


def test_run_full_outputs(full_run_dir):
    snaps = load_snapshots(full_run_dir / "snapshots.snap")
    assert snaps.nt == 8
    assert snaps.grid.nx == 11
    meta = json.loads((full_run_dir / "run_meta.json").read_text())
    assert meta["nt"] == 8 and meta["wall_s"] > 0
    # one explicit part in the run, then per half-step one residual per iterate
    assert meta["rhs_evals"] >= meta["newton_iters"] + 2 * 8 + 1
    assert meta["pivoted_factorizations"] == 0


def test_run_full_rejects_partial_window(capsys):
    assert main(["run-full", "--grid", "9x7", "--dt", "300"]) == 2
    assert "custom windows need both dt and nt" in capsys.readouterr().err


def test_run_full_bad_grid_exit_2(capsys):
    assert main(["run-full", "--grid", "11by9"]) == 2


def test_run_full_numerical_failure_exit_3(tmp_path, capsys):
    with pytest.warns(RuntimeWarning):
        code = main(["run-full", "--grid", "9x7", "--dt", "50000", "--nt", "2",
                     "--newton-max-iters", "2", "--newton-tol", "1e-14",
                     "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.fixture(scope="module")
def rom_dir(full_run_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("rom")
    code = main(["build-rom", "--snapshots", str(full_run_dir / "snapshots.snap"),
                 "--k", "4", "--mode", "pod-deim", "--m", "6", "--out", str(out)])
    assert code == 0
    return out


def test_build_rom_artifacts(rom_dir, full_run_dir, tmp_path):
    for name in ("u.pod", "v.pod", "phi.pod", "rom_meta.json", "F11.deim", "F32.deim"):
        assert (rom_dir / name).exists(), name
    # pod-deim runs from sampled tensors, so it writes no full-sum ones
    assert not (rom_dir / "tensors.tpod").exists()
    meta = json.loads((rom_dir / "rom_meta.json").read_text())
    assert meta["k"] == 4 and meta["m"] == 6
    # the largest cond(P^T V) of the six written operators
    assert meta["deim_cond_max"] == max(load_deim_operator(rom_dir / f"{t}.deim").cond
                                        for t in TERM_NAMES) >= 1.0
    code = main(["build-rom", "--snapshots", str(full_run_dir / "snapshots.snap"),
                 "--k", "4", "--mode", "tensorial-pod", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "tensors.tpod").exists()
    assert not (tmp_path / "F11.deim").exists()
    assert "deim_cond_max" not in json.loads((tmp_path / "rom_meta.json").read_text())


@pytest.mark.parametrize("mode", ["standard-pod", "tensorial-pod", "pod-deim"])
def test_build_rom_takes_the_offline_pass(full_run_dir, tmp_path, monkeypatch, mode):
    # bench's pass for one mode: 3 state SVDs, and for pod-deim 6 term SVDs and
    # one point selection per term; its files are those of the pass and the
    # DEIM step, byte for byte
    svd, select = np.linalg.svd, bench.deim_select_points
    svds, selections = [], []

    def counting_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    def counting_select(V):
        selections.append(V.shape)
        return select(V)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(bench, "deim_select_points", counting_select)
    snap, out = full_run_dir / "snapshots.snap", tmp_path / "rom"
    assert main(["build-rom", "--snapshots", str(snap), "--k", "4", "--mode", mode,
                 "--m", "6", "--out", str(out)]) == 0
    monkeypatch.undo()
    deim = mode == "pod-deim"
    assert len(svds) == (9 if deim else 3)
    assert selections == ([(99, 6)] * 6 if deim else [])

    snaps = load_snapshots(snap)
    shared = bench.offline_pass(snaps, build_operators(snaps.grid), coriolis_field(snaps.grid),
                                4, None, True, [mode], [6])
    want = tmp_path / "want"
    want.mkdir()
    for var in VARIABLES:
        save_basis(shared["bases"][var], want / f"{var}.pod")
    if deim:
        for term, op in deim_operators(shared["space"], shared["term_svds"],
                                       shared["points"], 6).items():
            save_deim_operator(op, want / f"{term}.deim")
    else:
        save_tensors(shared["tensors"], want / "tensors.tpod")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [p.name for p in want.iterdir()] + ["rom_meta.json"])
    for path in want.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_build_rom_needs_one_selector(full_run_dir, tmp_path, capsys):
    code = main(["build-rom", "--snapshots", str(full_run_dir / "snapshots.snap"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_build_rom_m_above_snapshot_count_exit_2(full_run_dir, tmp_path, capsys):
    # 8 snapshots admit at most 8 points per term, as in bench
    code = main(["build-rom", "--snapshots", str(full_run_dir / "snapshots.snap"),
                 "--k", "4", "--mode", "pod-deim", "--m", "50", "--out", str(tmp_path)])
    assert code == 2
    assert "m=50 exceeds" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # every artifact is built before the first is written


def test_build_rom_pod_deim_without_m_exit_2(full_run_dir, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["build-rom", "--snapshots", str(full_run_dir / "snapshots.snap"),
                 "--k", "4", "--mode", "pod-deim", "--out", str(out)])
    assert code == 2
    assert "pod-deim needs --m" in capsys.readouterr().err
    assert not out.exists()


def test_build_rom_pod_deim_from_states_only_exit_2(rom_dir, tmp_path, capsys):
    # a run-rom trajectory holds states only, not the term snapshots DEIM needs
    run = tmp_path / "run"
    assert main(["run-rom", "--rom", str(rom_dir), "--out", str(run)]) == 0
    out = tmp_path / "o"
    code = main(["build-rom", "--snapshots", str(run / "rom_trajectory.snap"),
                 "--k", "4", "--mode", "pod-deim", "--m", "2", "--out", str(out)])
    assert code == 2
    assert "no nonlinear-term matrices" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["build-rom", "--k", "-1"], "k must be at least 1"),
    (["build-rom", "--k", "0"], "k must be at least 1"),
    (["build-rom", "--k", "4", "--mode", "pod-deim", "--m", "0"], "m must be at least 1"),
    (["build-rom", "--k", "4", "--mode", "tensorial-pod", "--m", "-1"],
     "m must be at least 1"),
    (["bench", "--k", "-1"], "k must be at least 1"),
    (["bench", "--k", "5", "--m", "-1"], "every m must be at least 1"),
    (["bench", "--gamma", "1.5"], "gamma must lie in [0, 1]"),
    (["bench", "--gamma", "nan"], "gamma must lie in [0, 1]"),
    (["run-full", "--newton-max-iters", "-1"], "newton_max_iters"),
], ids=["build-rom-k-1", "build-rom-k0", "build-rom-m0", "build-rom-tpod-m-1", "bench-k-1",
        "bench-m-1", "bench-gamma1.5", "bench-gamma-nan", "run-full-newton-max-iters-1"])
def test_nonpositive_counts_exit_2(full_run_dir, tmp_path, capsys, argv, message):
    # each count (or energy fraction) is rejected before any file is written
    argv = argv + {"build-rom": ["--snapshots", str(full_run_dir / "snapshots.snap")],
                   "bench": ["--grid", "9x7", "--dt", "300", "--nt", "5"],
                   "run-full": ["--grid", "9x7", "--dt", "300", "--nt", "2"]}[argv[0]]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


def test_linalg_failure_exit_3(full_run_dir, tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, so it must be caught ahead of exit 2
    def singular(*args):
        raise np.linalg.LinAlgError("sampled basis P^T V is singular")

    monkeypatch.setattr("swerom.cli.deim_operators", singular)
    code = main(["build-rom", "--snapshots", str(full_run_dir / "snapshots.snap"),
                 "--k", "4", "--mode", "pod-deim", "--m", "6", "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["standard-pod", "tensorial-pod", "pod-deim"])
def test_run_rom_all_modes(rom_dir, full_run_dir, tmp_path, mode, capsys):
    out = tmp_path / mode
    code = main(["run-rom", "--rom", str(rom_dir), "--mode", mode,
                 "--snapshots", str(full_run_dir / "snapshots.snap"),
                 "--out", str(out)])
    assert code == 0
    traj = load_snapshots(out / "rom_trajectory.snap")
    assert traj.nt == 8
    text = (out / "metrics.csv").read_text().splitlines()
    assert text[0] == "variable,relative_error,rmse_final"
    assert len(text) == 4
    stdout = capsys.readouterr().out
    assert "relative error" in stdout and "right-hand sides" in stdout


@pytest.mark.parametrize("matrix", ["inf", "singular"])
@pytest.mark.parametrize("mode", ["standard-pod", "tensorial-pod", "pod-deim"])
def test_run_rom_bad_newton_matrix_exit_3(rom_dir, tmp_path, capsys, monkeypatch, mode,
                                          matrix):
    # the snapshots' dt = 300 s gives dt2 = 150, and 150 * (1/150) is exactly 1,
    # so J = I/dt2 makes I - dt2*J exactly zero
    def jacobian(self, z):
        return (np.full((z.size, z.size), np.inf) if matrix == "inf"
                else np.eye(z.size) / 150.0)

    monkeypatch.setattr(PackedDirection, "jacobian", jacobian)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run-rom", "--rom", str(rom_dir), "--mode", mode,
                     "--out", str(tmp_path / "o")])
    assert code == 3
    reason = "not finite" if matrix == "inf" else "singular"
    assert capsys.readouterr().err.startswith(f"numerical failure: Newton matrix is {reason}")


def test_run_rom_truncated_operator_exit_2(rom_dir, tmp_path, capsys):
    romdir = tmp_path / "rom"
    shutil.copytree(rom_dir, romdir)
    data = (romdir / "F21.deim").read_bytes()
    # cut inside the condition number that follows the 40-byte header and
    # the m=6 points
    (romdir / "F21.deim").write_bytes(data[:40 + 8 * 6 + 4])
    assert main(["run-rom", "--rom", str(romdir), "--mode", "pod-deim",
                 "--out", str(tmp_path / "o")]) == 2
    assert "truncated operator file" in capsys.readouterr().err


@pytest.mark.parametrize("name, offset, code, value", [
    ("F21.deim", 16, "<q", 8),          # m: every later count shifts
    ("u.pod", 16, "<q", 2 ** 40),       # k
    ("snapshots.snap", 56, "<d", 0.0),  # L
    ("snapshots.snap", 40, "<d", float("nan")),  # dt
    ("snapshots.snap", 48, "<q", 7),    # flags: bit 2 is unknown
])
def test_malformed_header_exit_2(rom_dir, full_run_dir, tmp_path, capsys, name, offset,
                                 code, value):
    src = full_run_dir if name.endswith(".snap") else rom_dir
    shutil.copytree(src, tmp_path / "in")
    path = tmp_path / "in" / name
    data = bytearray(path.read_bytes())
    data[offset:offset + 8] = struct.pack(code, value)
    path.write_bytes(bytes(data))
    if name.endswith(".snap"):
        argv = ["build-rom", "--snapshots", str(path), "--k", "4"]
    else:
        argv = ["run-rom", "--rom", str(tmp_path / "in"), "--mode", "pod-deim"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_rom_old_operator_magic_exit_2(rom_dir, tmp_path, capsys):
    # a DEIMOP1 file (which stored V and the spectrum) is refused, not misread
    romdir = tmp_path / "rom"
    shutil.copytree(rom_dir, romdir)
    data = (romdir / "F21.deim").read_bytes()
    (romdir / "F21.deim").write_bytes(b"DEIMOP1\0" + data[8:])
    assert main(["run-rom", "--rom", str(romdir), "--mode", "pod-deim",
                 "--out", str(tmp_path / "o")]) == 2
    assert "bad operator magic" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tpod_dir(full_run_dir, tmp_path_factory):
    """Tensorial-POD artifacts at --k 50: the 8 snapshots give ranks 7/7/8."""
    out = tmp_path_factory.mktemp("tpod")
    assert main(["build-rom", "--snapshots", str(full_run_dir / "snapshots.snap"),
                 "--k", "50", "--out", str(out)]) == 0
    return out


def test_tensor_file_holds_per_variable_basis_sizes(tpod_dir, full_run_dir, tmp_path):
    ks = {var: load_basis(tpod_dir / f"{var}.pod").k for var in VARIABLES}
    assert len(set(ks.values())) > 1
    assert load_tensors(tpod_dir / "tensors.tpod").k == ks
    # the tensors run-rom loads give the bits of those it builds without the file
    romdir = tmp_path / "rom"
    shutil.copytree(tpod_dir, romdir)
    snap = str(full_run_dir / "snapshots.snap")
    written = {}
    for source in ("file", "memory"):
        if source == "memory":
            (romdir / "tensors.tpod").unlink()
        for mode in ("tensorial-pod", "standard-pod"):
            out = tmp_path / source / mode
            assert main(["run-rom", "--rom", str(romdir), "--mode", mode,
                         "--snapshots", snap, "--out", str(out)]) == 0
            written[source, mode] = [(out / name).read_bytes()
                                     for name in ("rom_trajectory.snap", "metrics.csv")]
    for mode in ("tensorial-pod", "standard-pod"):
        assert written["file", mode] == written["memory", mode]


def test_run_rom_old_tensor_magic_exit_2(tpod_dir, tmp_path, capsys):
    # a TPODCF1 file (one shared k) is refused, not misread
    romdir = tmp_path / "rom"
    shutil.copytree(tpod_dir, romdir)
    data = (romdir / "tensors.tpod").read_bytes()
    (romdir / "tensors.tpod").write_bytes(b"TPODCF1\0" + data[8:])
    assert main(["run-rom", "--rom", str(romdir), "--out", str(tmp_path / "o")]) == 2
    assert "bad tensor magic" in capsys.readouterr().err


def test_run_rom_mode_defaults_to_meta(rom_dir, full_run_dir, tmp_path):
    snap = str(full_run_dir / "snapshots.snap")
    written = []
    for flags in ([], ["--mode", "pod-deim"]):
        out = tmp_path / str(len(flags))
        assert main(["run-rom", "--rom", str(rom_dir), *flags, "--snapshots", snap,
                     "--out", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]


@pytest.mark.parametrize("mode", ["pod", None, ["pod-deim"]])
def test_run_rom_bad_meta_mode_exit_2(rom_dir, tmp_path, capsys, mode):
    romdir = tmp_path / "rom"
    shutil.copytree(rom_dir, romdir)
    meta = json.loads((romdir / "rom_meta.json").read_text())
    meta["mode"] = mode
    (romdir / "rom_meta.json").write_text(json.dumps(meta))
    assert main(["run-rom", "--rom", str(romdir), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {romdir / 'rom_meta.json'} key 'mode'")
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def foreign_dir(full_run_dir, rom_dir, tmp_path_factory):
    """Artifacts that do not fit rom_dir: k=3 ones from the same snapshots
    (k3/), k=4 ones from a 9x7 run (n63/, whose snapshots are in full63/)
    and rom_dir's F12 operator under the name F11.deim (swapped/)."""
    out = tmp_path_factory.mktemp("foreign")
    snap = str(full_run_dir / "snapshots.snap")
    assert main(["run-full", "--grid", "9x7", "--dt", "300", "--nt", "8",
                 "--out", str(out / "full63")]) == 0
    for argv in (["--snapshots", snap, "--k", "3", "--mode", "pod-deim", "--m", "6"],
                 ["--snapshots", snap, "--k", "3", "--mode", "tensorial-pod"],
                 ["--snapshots", str(out / "full63" / "snapshots.snap"), "--k", "4",
                  "--mode", "pod-deim", "--m", "6"]):
        d = out / ("n63" if "full63" in argv[1] else "k3")
        assert main(["build-rom", *argv, "--out", str(d)]) == 0
    (out / "swapped").mkdir()
    shutil.copy(rom_dir / "F12.deim", out / "swapped" / "F11.deim")
    return out


@pytest.mark.parametrize("source, name, message", [
    ("n63", "F11.deim", "it samples n=63 nodes, the grid has n=99"),
    ("k3", "F21.deim", "E has 3 rows, the v basis k=4"),
    ("swapped", "F11.deim", "it holds F12"),
    ("k3", "tensors.tpod", "holds k=3/3/3, the bases k=4/4/4"),
    ("n63", "v.pod", "holds a v basis of n=63, not a v basis on the 11x9 grid (n=99)"),
], ids=["deim-n", "deim-k", "deim-term", "tpod-k", "basis-n"])
def test_run_rom_artifact_that_does_not_fit_exit_2(rom_dir, foreign_dir, tmp_path, capsys,
                                                   source, name, message):
    romdir = tmp_path / "rom"
    shutil.copytree(rom_dir, romdir)
    shutil.copy(foreign_dir / source / name, romdir / name)
    mode = "pod-deim" if name.endswith(".deim") else "tensorial-pod"
    assert main(["run-rom", "--rom", str(romdir), "--mode", mode,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {romdir / name} ") and message in err
    assert not (tmp_path / "o").exists()


def write_without_states(src, dst):
    """Copy a snapshot file with states and terms (flags 3) as one holding the
    terms only (flags 2), which no save writes."""
    data = src.read_bytes()
    nt, n = struct.unpack_from("<qq", data, 24)
    assert struct.unpack_from("<Q", data, 48) == (3,)
    states = 72 + 8 * nt  # header, then the times
    dst.write_bytes(data[:48] + struct.pack("<Q", 2) + data[56:states]
                    + data[states + 3 * 8 * n * nt:])


@pytest.mark.parametrize("mode", ["tensorial-pod", "pod-deim"])
def test_build_rom_snapshots_without_states_exit_2(full_run_dir, tmp_path, capsys, mode):
    snap = tmp_path / "terms.snap"
    write_without_states(full_run_dir / "snapshots.snap", snap)
    out = tmp_path / "o"
    assert main(["build-rom", "--snapshots", str(snap), "--k", "4", "--mode", mode,
                 "--m", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: snapshot file holds no state matrices\n"
    assert not out.exists()


@pytest.mark.parametrize("snapshots, nt, message", [
    ("own", "9", "holds 8 snapshots, fewer than the 9 steps of --nt"),
    ("9x7", "8", "is on a 9x7 grid, the reduced model on 11x9"),
    ("dt600", "8", "has dt=600, the reduced model dt=300"),
    ("no-states", "8", "holds no state matrices"),
])
def test_run_rom_snapshots_that_do_not_fit_exit_2(rom_dir, full_run_dir, foreign_dir,
                                                  tmp_path, capsys, snapshots, nt, message):
    # the scoring snapshots are checked before the integration, so no file is written
    path = {"own": full_run_dir, "9x7": foreign_dir / "full63"}.get(snapshots, tmp_path)
    path = path / "snapshots.snap"
    if snapshots == "dt600":
        snaps = load_snapshots(full_run_dir / "snapshots.snap", nonlinear=False)
        snaps.dt, snaps.times = 600.0, 2 * snaps.times
        save_snapshots(snaps, path)
    elif snapshots == "no-states":  # the loader's message, which names no path
        write_without_states(full_run_dir / "snapshots.snap", path)
    assert main(["run-rom", "--rom", str(rom_dir), "--mode", "tensorial-pod", "--nt", nt,
                 "--snapshots", str(path), "--out", str(tmp_path / "o")]) == 2
    where = "snapshot file" if snapshots == "no-states" else path
    assert capsys.readouterr().err == f"error: {where} {message}\n"
    assert not (tmp_path / "o").exists()


def test_run_rom_nt_below_snapshot_count_scores_leading_columns(rom_dir, full_run_dir,
                                                                tmp_path):
    snap = str(full_run_dir / "snapshots.snap")
    assert main(["run-rom", "--rom", str(rom_dir), "--mode", "tensorial-pod", "--nt", "5",
                 "--snapshots", snap, "--out", str(tmp_path)]) == 0
    short = load_snapshots(tmp_path / "rom_trajectory.snap")
    full = load_snapshots(snap, nonlinear=False)
    rows = list(csv.reader((tmp_path / "metrics.csv").read_text().splitlines()))[1:]
    want = trajectory_errors({v: full.states[v][:, :5] for v in VARIABLES}, short.states)
    assert rows == [[v, repr(want[v]["relerr"]), repr(want[v]["rmse"])] for v in VARIABLES]


def test_run_rom_missing_dir_exit_2(tmp_path):
    assert main(["run-rom", "--rom", str(tmp_path / "nope"), "--out",
                 str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("mode", ["tensorial-pod", "pod-deim"])
def test_rom_verbs_use_the_snapshot_domain(tmp_path, mode):
    # a snapshot on a non-default domain: build-rom (whose Coriolis field the
    # tensor file keeps) and run-rom (whose Coriolis field the sampled
    # tensors use) must take the grid, f and the initial state from its L, D
    consts = PhysicalConstants(D=3.0e6)
    grid = build_grid(11, 9, consts)
    ops = build_operators(grid)
    f = coriolis_field(grid)
    ic = initial_state(grid, ops)
    cfg = SolverConfig(dt=300.0, nt=6)
    _, snaps, _ = run_full(ic, cfg, ops, f, grid)
    save_snapshots(snaps, tmp_path / "s.snap")
    rom, out = tmp_path / "rom", tmp_path / "run"
    assert main(["build-rom", "--snapshots", str(tmp_path / "s.snap"), "--k", "4",
                 "--mode", mode, "--m", "4", "--out", str(rom)]) == 0
    meta = json.loads((rom / "rom_meta.json").read_text())
    assert (meta["L"], meta["D"]) == (consts.L, consts.D)
    assert main(["run-rom", "--rom", str(rom), "--mode", mode, "--out", str(out)]) == 0
    got = load_snapshots(out / "rom_trajectory.snap")
    assert (got.grid.L, got.grid.D) == (consts.L, consts.D)

    bases = build_state_bases(snaps.states, k=4)
    space = ReducedSpace(bases, ops, f)
    if mode == "pod-deim":
        deim_ops = deim_operators_from_snapshots(space, snaps.nonlinear, 4)
        tensors = deim_tensor_coefficients(deim_ops, space)
    else:
        tensors = build_tensor_coefficients(space)
    model = ReducedModel(space, tensors, mode, cfg)
    _, traj, _ = model.run(project_initial(ic, space))
    for var, b in bases.items():
        want = b.xbar[:, None] + b.U @ traj[var]
        assert np.linalg.norm(got.states[var] - want) <= 1e-10 * np.linalg.norm(want)


def test_run_rom_meta_without_domain_exit_2(rom_dir, tmp_path, capsys):
    romdir = tmp_path / "rom"
    shutil.copytree(rom_dir, romdir)
    meta = json.loads((romdir / "rom_meta.json").read_text())
    del meta["L"], meta["D"]
    (romdir / "rom_meta.json").write_text(json.dumps(meta))
    assert main(["run-rom", "--rom", str(romdir), "--mode", "pod-deim",
                 "--out", str(tmp_path / "o")]) == 2
    assert "no domain size" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", '["L", "D"]'], ids=["number", "list"])
def test_run_rom_meta_not_an_object_exit_2(rom_dir, tmp_path, capsys, text):
    romdir = tmp_path / "rom"
    shutil.copytree(rom_dir, romdir)
    (romdir / "rom_meta.json").write_text(text)
    assert main(["run-rom", "--rom", str(romdir), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {romdir / 'rom_meta.json'} holds no JSON object\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("nx", "11"), ("nx", 11.5), ("ny", True), ("nt", "8"), ("nt", 8.0), ("dt", [300]),
    ("L", "6e6"),
])
def test_run_rom_bad_meta_type_exit_2(rom_dir, tmp_path, capsys, key, value):
    romdir = tmp_path / "rom"
    shutil.copytree(rom_dir, romdir)
    meta = json.loads((romdir / "rom_meta.json").read_text())
    meta[key] = value
    (romdir / "rom_meta.json").write_text(json.dumps(meta))
    assert main(["run-rom", "--rom", str(romdir), "--mode", "tensorial-pod",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {romdir / 'rom_meta.json'} ") and repr(key) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0])
def test_run_rom_bad_meta_step_exit_2(rom_dir, tmp_path, capsys, dt):
    romdir = tmp_path / "rom"
    shutil.copytree(rom_dir, romdir)
    meta = json.loads((romdir / "rom_meta.json").read_text())
    meta["dt"] = dt
    (romdir / "rom_meta.json").write_text(json.dumps(meta))
    assert main(["run-rom", "--rom", str(romdir), "--mode", "tensorial-pod",
                 "--out", str(tmp_path / "o")]) == 2
    assert "finite and positive" in capsys.readouterr().err


def test_run_rom_nan_newton_tol_exit_2(rom_dir, tmp_path, capsys):
    assert main(["run-rom", "--rom", str(rom_dir), "--mode", "tensorial-pod",
                 "--newton-tol", "nan", "--out", str(tmp_path / "o")]) == 2
    assert "newton_tol" in capsys.readouterr().err


def test_bench_with_config_and_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "grids": [[11, 9]], "window": "custom", "dt": 300.0, "nt": 6,
        "k": 4, "m_values": [5], "modes": ["full", "tensorial-pod", "pod-deim"],
    }))
    out = tmp_path / "bench"
    code = main(["bench", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "run_report.csv").exists()
    stdout = capsys.readouterr().out
    assert "tensorial-pod" in stdout and "relerr" in stdout


def test_bench_bad_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"grids": [[11, 9]], "modes": ["magic"]}')
    assert main(["bench", "--config", str(cfg_path)]) == 2
    # a wrongly typed key is named; pod-deim rows need an m; each case fails
    # before the output directory is made
    for text, message in [('{"k": "3"}', "config key 'k' must be int | None, got '3'"),
                          ('{"m_values": 5}', "config key 'm_values' must be list[int]"),
                          ('{"grids": [[11, 9.5]]}', "config key 'grids'"),
                          ('{"center": 1}', "config key 'center' must be bool"),
                          ('{"nt": true}', "config key 'nt'"),
                          ('[1]', "holds no JSON object"),
                          ('{"m_values": []}', "pod-deim needs at least one m"),
                          ('{"newton_max_iters": 0}', "newton_max_iters must be at least 1")]:
        cfg_path.write_text(text)
        assert main(["bench", "--config", str(cfg_path), "--grid", "9x7",
                     "--out", str(tmp_path / "o")]) == 2, text
        assert message in capsys.readouterr().err, text
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["--grid", "9x7", "--grid", "2x5"], {}, "grid needs nx >= 3 and ny >= 3, got 2x5"),
    (["--grid", "9x7", "--domain-km", "0x100"], {},
     "domain needs finite L > 0 and D > 0, got 0.0 x 100000.0"),
    (["--grid", "9x7"], {"modes": []}, "at least one mode is required"),
], ids=["second-grid-too-small", "zero-length-domain", "no-modes"])
def test_bench_checks_every_grid_and_mode_before_it_runs(tmp_path, capsys, monkeypatch,
                                                         argv, config, message):
    # a bad grid, domain or mode list exits 2 before any grid runs or any file is made
    def run_full(*args):
        raise AssertionError("run_full was called")

    monkeypatch.setattr(bench, "run_full", run_full)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["bench", "--config", str(cfg_path), *argv, "--dt", "300", "--nt", "3",
                 "--k", "3", "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, config", [
    (["--nt", "3"], {}),
    (["--dt", "300"], {}),
    (["--window", "24h", "--nt", "3"], {}),
    ([], {"window": "3h", "nt": 3}),
    ([], {"window": "24h", "dt": 300.0}),
    ([], {"dt": 300.0, "nt": 3}),
], ids=["nt-only", "dt-only", "24h-and-nt", "config-3h-nt", "config-24h-dt",
        "config-default-window-dt-nt"])
def test_bench_partial_or_mixed_window_exit_2(tmp_path, capsys, argv, config):
    # a window is either named or custom with both dt and nt
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["bench", "--config", str(cfg_path), "--grid", "9x7", "--k", "3",
                 "--mode", "full", *argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert ("custom windows need both dt and nt" in err
            or "window sets dt and nt; a custom window needs both" in err)
    assert not (tmp_path / "o").exists()


def test_bench_domain_km(tmp_path, capsys):
    argv = ["bench", "--grid", "9x7", "--dt", "300", "--nt", "5", "--k", "3",
            "--mode", "full"]
    assert main(argv + ["--out", str(tmp_path / "default")]) == 0
    assert main(argv + ["--domain-km", "3000x2200", "--out", str(tmp_path / "half")]) == 0
    spectra = [(tmp_path / name / "spectra.csv").read_bytes() for name in ("default", "half")]
    assert spectra[0] != spectra[1]


@pytest.mark.parametrize("domain", ["3000", "0x2200"])
def test_bench_bad_domain_km_exit_2(tmp_path, capsys, domain):
    assert main(["bench", "--grid", "9x7", "--dt", "300", "--nt", "5", "--k", "3",
                 "--mode", "full", "--domain-km", domain, "--out", str(tmp_path)]) == 2
    assert "domain" in capsys.readouterr().err


def test_export_plots_csv_and_svg(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "grids": [[9, 7]], "window": "custom", "dt": 300.0, "nt": 5,
        "k": 3, "modes": ["full", "tensorial-pod"],
    }))
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["export-plots", "--reports", str(out)]) == 0
    assert (out / "online_time_vs_n.svg").exists()
    assert main(["export-plots", "--reports", str(tmp_path / "missing")]) == 2


@pytest.mark.parametrize("row", ["9x7,9,7", "9x7,9,7,63,custom,300,3,full,4"],
                         ids=["short", "long"])
def test_export_plots_report_row_not_matching_header_exit_2(tmp_path, capsys, row):
    report = tmp_path / "run_report.csv"
    report.write_text(f"grid,nx,ny,n,window,dt,nt,mode\n9x7,9,7,63,custom,300,3,full\n{row}\n")
    assert main(["export-plots", "--reports", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: {report} line 3 does not have the 8 cells "
                                       "of its header\n")
    assert list(tmp_path.iterdir()) == [report]


def test_export_plots_report_without_required_columns_exit_2(tmp_path, capsys):
    (tmp_path / "run_report.csv").write_text("n,mode\n63,full\n")
    assert main(["export-plots", "--reports", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {tmp_path / 'run_report.csv'} lacks the required columns "
                   "grid, nx, ny, window, dt, nt\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "run_report.csv"]
