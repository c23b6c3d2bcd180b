"""Workloads and the two routes that run them.

Every workload runs the same operations: one full solve, the tensorial and
the DEIM off-line builds, one on-line run of each reduced mode, writing and
reading back every binary artifact, and one ``bench`` sweep of the same
configuration. The library route calls swerom's functions the way a script
would; the CLI route calls ``swerom.cli.main`` in-process with the verbs a
user types, so its times include argument parsing, file I/O and the work the
verbs redo. Each operation returns what the correctness checks need.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Called through their modules, so the tracer's attribute patches see them.
import swerom.bench
import swerom.cli
import swerom.deim
import swerom.metrics
import swerom.model
import swerom.pod
import swerom.rom
import swerom.snapshots
import swerom.solver
from swerom.model import TERM_NAMES, VARIABLES

from oracles import (
    CheckFailed,
    check_error_floor,
    check_errors_equal,
    check_full_run,
    check_pod_equals_tpod,
    check_report_status,
    check_same_arrays,
    check_sampled_contraction,
    check_spectra,
    check_tensor_slices,
    read_snapshot_file,
)

MODES = {"pod": "standard-pod", "tpod": "tensorial-pod", "deim": "pod-deim"}

# operation -> end-to-end metric it is timed into (``outputs`` feeds only the
# per-layer I/O and error-metric figures)
OP_METRIC = {
    "full": "full_solve_s",
    "offline_tpod": "offline_tpod_s",
    "offline_deim": "offline_deim_s",
    "online_pod": "online_pod_s",
    "online_tpod": "online_tpod_s",
    "online_deim": "online_deim_s",
    "outputs": None,
    "sweep": "bench_s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    route: str            # "library" or "cli"
    nx: int
    ny: int
    dt: float             # time step [s]
    nt: int               # steps; also the snapshot count, which bounds k and m
    k: int
    m: int                # sample points of the DEIM pipeline
    sweep_modes: tuple    # modes of the bench sweep
    sweep_m: tuple        # m values of the bench sweep
    online_repeats: int   # on-line runs of each mode per round
    why: str

    @property
    def grid_arg(self) -> str:
        return f"{self.nx}x{self.ny}"

    @property
    def window_args(self) -> list[str]:
        return ["--dt", repr(self.dt), "--nt", str(self.nt)]

    def round_ops(self) -> list[str]:
        online = [f"online_{mode}" for mode in MODES] * self.online_repeats
        # the CLI verbs write and read their artifacts themselves
        outputs = ["outputs"] if self.route == "library" else []
        return ["full", "offline_tpod", "offline_deim", *outputs, "sweep"] + online


ALL_SWEEP_MODES = ("full", "standard-pod", "tensorial-pod", "pod-deim")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper-121x89-nt12-k8-m12", route="library", nx=121, ny=89,
        dt=960.0, nt=12, k=8, m=12, sweep_modes=("full", "pod-deim"), sweep_m=(12,),
        online_repeats=2,
        why="large n (10769 nodes): the full solver, the lift-project route and "
            "the sweep's per-node work grow with n"),
    Workload(
        name="online-61x45-nt30-k20-m25", route="library", nx=61, ny=45,
        dt=120.0, nt=30, k=20, m=25, sweep_modes=("full", "pod-deim"), sweep_m=(25,),
        online_repeats=5,
        why="small n, k=20: interleaved on-line runs, where the Python interpreter "
            "(12-22 us per term call) sets the cost"),
    Workload(
        name="cli-61x45-nt30-k12-m24", route="cli", nx=61, ny=45,
        dt=960.0, nt=30, k=12, m=24, sweep_modes=ALL_SWEEP_MODES, sweep_m=(16, 24),
        online_repeats=2,
        why="the CLI verbs a user waits for: files written and read, build-rom and "
            "run-rom redoing off-line work, the sweep's repeated SVDs"),
)}


class OpFailed(RuntimeError):
    """An operation raised or a CLI verb returned a non-zero exit code."""


def _sweep_config(wl: Workload, out_dir: Path) -> swerom.bench.ExperimentConfig:
    return swerom.bench.ExperimentConfig(
        grids=[(wl.nx, wl.ny)], window="custom", dt=wl.dt, nt=wl.nt, k=wl.k,
        m_values=list(wl.sweep_m), modes=list(wl.sweep_modes), out_dir=str(out_dir))


def lift(bases, traj) -> dict[str, np.ndarray]:
    return {v: bases[v].xbar[:, None] + bases[v].U @ traj[v] for v in VARIABLES}


class Route:
    """Runs a workload's operations; ``ref`` holds the warm-up outputs."""

    def __init__(self, wl: Workload, workdir: Path):
        self.wl = wl
        self.dir = workdir
        self.ref: dict = {}

    def run(self, op: str):
        if op.startswith("online_"):
            return self.online(op.removeprefix("online_"))
        return getattr(self, op)()


class LibraryRoute(Route):
    """Calls the library directly; later stages read their inputs from ``ref``."""

    def __init__(self, wl: Workload, workdir: Path):
        super().__init__(wl, workdir)
        self.grid = swerom.model.build_grid(wl.nx, wl.ny)
        self.ops = swerom.model.build_operators(self.grid)
        self.f = swerom.model.coriolis_field(self.grid)
        self.ic = swerom.model.initial_state(self.grid, self.ops)
        self.cfg = swerom.solver.SolverConfig(dt=wl.dt, nt=wl.nt)

    def full(self):
        _, snaps, timings = swerom.solver.run_full(self.ic, self.cfg, self.ops, self.f,
                                                   self.grid)
        return {"snaps": snaps, "newton_iters": timings.newton_iters}

    def offline_tpod(self):
        bases = swerom.bench.build_state_bases(self.ref["full"]["snaps"].states,
                                               k=self.wl.k)
        space = swerom.rom.ReducedSpace(bases, self.ops, self.f)
        return {"bases": bases, "space": space,
                "tensors": swerom.rom.build_tensor_coefficients(space)}

    def offline_deim(self):
        snaps = self.ref["full"]["snaps"]
        bases = swerom.bench.build_state_bases(snaps.states, k=self.wl.k)
        space = swerom.rom.ReducedSpace(bases, self.ops, self.f)
        deim_ops = swerom.deim.deim_operators_from_snapshots(space, snaps.nonlinear,
                                                             self.wl.m)
        return {"bases": bases, "space": space, "deim_ops": deim_ops,
                "tensors": swerom.deim.deim_tensor_coefficients(deim_ops, space)}

    def online(self, mode: str):
        built = self.ref["offline_deim" if mode == "deim" else "offline_tpod"]
        model = swerom.rom.ReducedModel(built["space"], built["tensors"], MODES[mode],
                                        self.cfg, deim_ops=built.get("deim_ops"))
        _, traj, timings = model.run(swerom.rom.project_initial(self.ic, built["space"]))
        return {"traj": traj, "newton_iters": timings.newton_iters}

    def outputs(self):
        """Write every binary artifact, read it back, and score the runs."""
        snaps = self.ref["full"]["snaps"]
        tpod, deim = self.ref["offline_tpod"], self.ref["offline_deim"]
        d = self.dir / "outputs"
        d.mkdir(parents=True, exist_ok=True)
        swerom.snapshots.save_snapshots(snaps, d / "snapshots.snap")
        for var in VARIABLES:
            swerom.pod.save_basis(tpod["bases"][var], d / f"{var}.pod")
        swerom.rom.save_tensors(tpod["tensors"], d / "tensors.tpod")
        for term in TERM_NAMES:
            swerom.deim.save_deim_operator(deim["deim_ops"][term], d / f"{term}.deim")
        loaded = {
            "snaps": swerom.snapshots.load_snapshots(d / "snapshots.snap"),
            "bases": {var: swerom.pod.load_basis(d / f"{var}.pod") for var in VARIABLES},
            "tensors": swerom.rom.load_tensors(d / "tensors.tpod"),
            "deim_ops": {t: swerom.deim.load_deim_operator(d / f"{t}.deim")
                         for t in TERM_NAMES},
        }
        errors = {}
        for mode in MODES:
            bases = (deim if mode == "deim" else tpod)["bases"]
            errors[mode] = swerom.metrics.trajectory_errors(
                snaps.states, lift(bases, self.ref[f"online_{mode}"]["traj"]))
        return {"loaded": loaded, "errors": errors, "dir": d}

    def sweep(self):
        out = self.dir / "sweep"
        reports, _ = swerom.bench.run_experiment(_sweep_config(self.wl, out))
        return {"reports": reports, "dir": out}

    def fingerprint(self, op: str, out):
        """The part of an operation's output that must repeat exactly."""
        if op == "full":
            return {"snaps": out["snaps"], "iters": out["newton_iters"]}
        if op.startswith("offline_"):
            return {k: v for k, v in out.items() if k != "space"}
        if op == "outputs":
            return out["errors"]
        if op == "sweep":
            return [{k: v for k, v in vars(r).items() if k not in TIMING_COLUMNS}
                    for r in out["reports"]]
        return out

    def sweep_timed_columns(self, out) -> float:
        return timed_columns([vars(r) for r in out["reports"]])

    def tensor_bytes(self) -> int:
        return tensor_nbytes(self.ref["offline_tpod"]["tensors"])

    def snapshot_file_bytes(self) -> int:
        return (self.ref["outputs"]["dir"] / "snapshots.snap").stat().st_size

    def sweep_csv_bytes(self) -> int:
        return diagnostic_csv_bytes(self.dir / "sweep")

    def verify(self) -> None:
        ref, g, wl = self.ref, self.grid, self.wl
        snaps = ref["full"]["snaps"]
        check_full_run(snaps.states, g.nx, wl.dt, g.dx)
        tpod, deim, out = ref["offline_tpod"], ref["offline_deim"], ref["outputs"]
        for mode in MODES:
            bases = (deim if mode == "deim" else tpod)["bases"]
            lifted = lift(bases, ref[f"online_{mode}"]["traj"])
            check_error_floor(mode, snaps.states, lifted, bases, out["errors"][mode])
        check_pod_equals_tpod(lift(tpod["bases"], ref["online_pod"]["traj"]),
                              lift(tpod["bases"], ref["online_tpod"]["traj"]))
        check_sampled_contraction(deim["deim_ops"], deim["tensors"],
                                  ref["online_deim"]["traj"])
        check_tensor_slices(tpod["tensors"], tpod["bases"], g.nx, g.ny, g.dx, g.dy)
        loaded = out["loaded"]
        check_same_arrays("snapshots", snaps, loaded["snaps"])
        check_same_arrays("bases", tpod["bases"], loaded["bases"])
        check_same_arrays("tensors", tpod["tensors"], loaded["tensors"])
        check_same_arrays("deim operators", deim["deim_ops"], loaded["deim_ops"])
        on_disk = read_snapshot_file(out["dir"] / "snapshots.snap")
        check_same_arrays("snapshot file",
                          {"states": snaps.states, "nonlinear": snaps.nonlinear},
                          {"states": on_disk["states"], "nonlinear": on_disk["nonlinear"]})
        check_spectra(ref["sweep"]["dir"] / "spectra.csv", on_disk["states"],
                      on_disk["nonlinear"])
        rows = [vars(r) for r in ref["sweep"]["reports"]]
        check_report_status(rows)
        check_sweep_errors(rows, out["errors"], wl.m)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# run_report.csv columns that hold wall-clock times (they differ run to run)
TIMING_COLUMNS = ("snapshots_s", "svd_state_s", "svd_nonlinear_s", "deim_points_s",
                  "deim_projector_s", "tensors_s", "offline_total_s", "online_s",
                  "online_nonlinear_s", "end_to_end_s")


def timed_columns(rows) -> float:
    """Seconds a bench report accounts for: the full run plus each row's
    end-to-end column."""
    total = 0.0
    for row in rows:
        column = "snapshots_s" if row["mode"] == "full" else "end_to_end_s"
        if row[column] not in (None, ""):
            total += float(row[column])
    return total


def diagnostic_csv_bytes(sweep_dir: Path) -> int:
    """Size of the sweep's spectra and DEIM-point tables, which hold no
    wall-clock columns and so repeat byte for byte."""
    return sum((sweep_dir / name).stat().st_size
               for name in ("spectra.csv", "deim_points.csv"))


def tensor_nbytes(tensors) -> int:
    arrays = [tensors.coriolis_uv, tensors.coriolis_vu, tensors.coriolis_u0,
              tensors.coriolis_v0]
    for tt in tensors.terms.values():
        for p in tt.products:
            arrays += [p.quad, p.lin_a, p.lin_b, p.const]
    return sum(a.nbytes for a in arrays)


def row_errors(row) -> dict:
    return {v: {"relerr": row[f"relerr_{v}"], "rmse": row[f"rmse_{v}"]} for v in VARIABLES}


def check_sweep_errors(rows, errors: dict, m: int) -> None:
    """The sweep's errors equal the pipeline's for the same k (and m)."""
    for row in rows:
        mode = {v: k for k, v in MODES.items()}.get(row["mode"])
        if mode is None or (mode == "deim" and int(row["m"]) != m):
            continue
        check_errors_equal(f"bench {row['mode']}", row_errors(row), errors[mode])


class CliRoute(Route):
    """Runs the verbs through ``swerom.cli.main`` in this process.

    Each operation returns digests of the files it wrote (minus wall-clock
    columns), so a timed repeat can be compared with the warm-up pass.
    """

    def __init__(self, wl: Workload, workdir: Path):
        super().__init__(wl, workdir)
        self.snap_path = self.dir / "full" / "snapshots.snap"

    def main(self, argv: list[str]) -> None:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = swerom.cli.main([str(a) for a in argv])
        if code != 0:
            raise OpFailed(f"swerom {argv[0]} exited {code}: {err.getvalue().strip()}")

    def full(self):
        self.main(["run-full", "--grid", self.wl.grid_arg, *self.wl.window_args,
                   "--out", self.dir / "full"])
        return {"snapshots": file_digest(self.snap_path)}

    def _build_rom(self, mode: str, out: Path):
        extra = ["--m", self.wl.m] if mode == "pod-deim" else []
        self.main(["build-rom", "--snapshots", self.snap_path, "--k", self.wl.k,
                   "--mode", mode, *extra, "--out", out])
        return {p.name: file_digest(p) for p in sorted(out.iterdir())}

    def offline_tpod(self):
        return self._build_rom("tensorial-pod", self.dir / "rom_tpod")

    def offline_deim(self):
        return self._build_rom("pod-deim", self.dir / "rom_deim")

    def online(self, mode: str):
        out = self.dir / f"run_{mode}"
        rom = self.dir / ("rom_deim" if mode == "deim" else "rom_tpod")
        self.main(["run-rom", "--rom", rom, "--mode", MODES[mode],
                   "--snapshots", self.snap_path, "--out", out])
        return {p.name: file_digest(p) for p in sorted(out.iterdir())}

    def sweep(self):
        out = self.dir / "bench"
        argv = ["bench", "--grid", self.wl.grid_arg, *self.wl.window_args,
                "--k", self.wl.k]
        for m in self.wl.sweep_m:
            argv += ["--m", m]
        for mode in self.wl.sweep_modes:
            argv += ["--mode", mode]
        self.main(argv + ["--out", out])
        rows = [{k: v for k, v in row.items() if k not in TIMING_COLUMNS}
                for row in report_rows(out / "run_report.csv")]
        return {"rows": rows, "spectra": file_digest(out / "spectra.csv"),
                "deim_points": file_digest(out / "deim_points.csv")}

    def fingerprint(self, op: str, out):
        return out

    def sweep_timed_columns(self, out) -> float:
        return timed_columns(report_rows(self.dir / "bench" / "run_report.csv"))

    def tensor_bytes(self) -> int:
        return tensor_nbytes(swerom.rom.load_tensors(self.dir / "rom_tpod" / "tensors.tpod"))

    def snapshot_file_bytes(self) -> int:
        return self.snap_path.stat().st_size

    def sweep_csv_bytes(self) -> int:
        return diagnostic_csv_bytes(self.dir / "bench")

    def reload(self, path: Path, load, save):
        """Load a file the verbs wrote, save it again, and require the same bytes."""
        obj = load(path)
        again = self.dir / "resaved" / path.name
        again.parent.mkdir(exist_ok=True)
        save(obj, again)
        if path.read_bytes() != again.read_bytes():
            raise CheckFailed(f"{path}: saving the loaded file gives other bytes")
        return obj

    def verify(self) -> None:
        """Check the files the verbs wrote against the library route."""
        wl = self.wl
        disk = read_snapshot_file(self.snap_path)
        dx, dy = disk["L"] / (disk["nx"] - 1), disk["D"] / (disk["ny"] - 1)
        check_full_run(disk["states"], disk["nx"], disk["dt"], dx)
        lib = LibraryRoute(wl, self.dir / "library")
        lib.ref["full"] = {"snaps": swerom.snapshots.load_snapshots(self.snap_path)}
        for op in ("offline_tpod", "offline_deim", "online_pod", "online_tpod", "online_deim"):
            lib.ref[op] = lib.run(op)
        lib_bases = lib.ref["offline_tpod"]["bases"]
        rom_t, rom_d = self.dir / "rom_tpod", self.dir / "rom_deim"
        bases = {}
        for rom in (rom_t, rom_d):
            bases[rom] = {v: self.reload(rom / f"{v}.pod", swerom.pod.load_basis,
                                         swerom.pod.save_basis) for v in VARIABLES}
            check_same_arrays(f"{rom.name} bases", lib_bases, bases[rom], tol=1e-12)
        tensors = self.reload(rom_t / "tensors.tpod", swerom.rom.load_tensors,
                              swerom.rom.save_tensors)
        check_same_arrays("tensors", lib.ref["offline_tpod"]["tensors"], tensors, tol=1e-12)
        deim_ops = {t: self.reload(rom_d / f"{t}.deim", swerom.deim.load_deim_operator,
                                   swerom.deim.save_deim_operator) for t in TERM_NAMES}
        check_same_arrays("deim operators", lib.ref["offline_deim"]["deim_ops"], deim_ops,
                          tol=1e-12)
        self.reload(self.snap_path, swerom.snapshots.load_snapshots,
                    swerom.snapshots.save_snapshots)
        check_tensor_slices(tensors, bases[rom_t], disk["nx"], disk["ny"], dx, dy)
        space = lib.ref["offline_deim"]["space"]
        sampled = swerom.deim.deim_tensor_coefficients(deim_ops, space)
        check_sampled_contraction(deim_ops, sampled, lib.ref["online_deim"]["traj"])
        lifted, lib_errors = {}, {}
        for mode in MODES:
            run_dir = self.dir / f"run_{mode}"
            self.reload(run_dir / "rom_trajectory.snap", swerom.snapshots.load_snapshots,
                        swerom.snapshots.save_snapshots)
            lifted[mode] = read_snapshot_file(run_dir / "rom_trajectory.snap")["states"]
            reported = {r["variable"]: {"relerr": float(r["relative_error"]),
                                        "rmse": float(r["rmse_final"])}
                        for r in report_rows(run_dir / "metrics.csv")}
            check_error_floor(f"run-rom {mode}", disk["states"], lifted[mode],
                              bases[rom_d if mode == "deim" else rom_t], reported)
            lib_errors[mode] = swerom.metrics.trajectory_errors(
                disk["states"], lift(lib_bases, lib.ref[f"online_{mode}"]["traj"]))
            check_errors_equal(f"run-rom {mode} vs library", reported, lib_errors[mode])
        check_pod_equals_tpod(lifted["pod"], lifted["tpod"])
        check_spectra(self.dir / "bench" / "spectra.csv", disk["states"], disk["nonlinear"])
        rows = report_rows(self.dir / "bench" / "run_report.csv")
        check_report_status(rows)
        check_sweep_errors(rows, lib_errors, wl.m)


def make_route(wl: Workload, workdir: Path):
    return (LibraryRoute if wl.route == "library" else CliRoute)(wl, workdir)

