"""Experiment runner: full-versus-reduced sweeps with itemized timing.

For every grid in a sweep the full model runs once and one off-line pass
(:func:`offline_pass`, which ``build-rom`` runs too) takes each snapshot
SVD once (costs shared by all reduction modes); each requested mode then
builds the rest of its off-line artifacts, integrates the reduced system,
and reports errors plus a wall-clock decomposition. Rows
that fail (for example sampled runs whose quasi-Newton does not converge
at small m) are recorded with a status string and the sweep continues.

CSV outputs (written into the configured directory):

    run_report.csv    one row per (grid, mode, m) with timings and errors
    spectra.csv       state-variable and nonlinear-term singular values
    deim_points.csv   each term's greedy DEIM points with their max-over-time magnitude
    timing_vs_n.csv   condensed cost-versus-size view of run_report
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from swerom.deim import deim_operators, deim_select_points, deim_tensor_coefficients
from swerom.errors import NonConvergenceError
from swerom.flops import flop_count
from swerom.metrics import trajectory_errors
from swerom.model import (
    DEFAULT_CONSTANTS,
    PhysicalConstants,
    TERM_NAMES,
    VARIABLES,
    build_grid,
    build_operators,
    coriolis_field,
    initial_state,
)
from swerom.pod import build_state_bases, center_snapshots
from swerom.rom import MODES, ReducedModel, ReducedSpace, build_tensor_coefficients, project_initial
from swerom.solver import SolverConfig, run_full

__all__ = [
    "WINDOWS",
    "resolve_window",
    "ExperimentConfig",
    "RunReport",
    "offline_pass",
    "run_experiment",
    "write_run_report",
    "read_run_report",
    "read_spectra",
]

WINDOWS = {"24h": (960.0, 91), "3h": (120.0, 91)}

ALL_MODES = ("full",) + MODES


def resolve_window(window: str, dt: float | None, nt: int | None) -> tuple[float, int]:
    """(dt, nt) of a named window, which takes neither, or of ``custom``, which takes both."""
    if window in WINDOWS and dt is None and nt is None:
        return WINDOWS[window]
    if window in WINDOWS:
        raise ValueError(f"the {window} window sets dt and nt; a custom window needs both")
    if window != "custom":
        raise ValueError(f"unknown window {window!r}")
    if dt is None or nt is None:
        raise ValueError("custom windows need both dt and nt")
    return float(dt), int(nt)


def _json_fits(value, annotation: str) -> bool:
    """Whether a JSON value has the type a config field's annotation names."""
    kind = annotation.removesuffix(" | None")
    if value is None:
        return kind != annotation
    if kind.startswith("list["):
        return isinstance(value, list) and all(_json_fits(v, kind[5:-1]) for v in value)
    if kind.startswith("tuple["):
        items = kind[6:-1].split(", ")
        return (isinstance(value, list) and len(value) == len(items)
                and all(map(_json_fits, value, items)))
    types = {"int": int, "float": (int, float), "str": str, "bool": bool}
    # bool subclasses int, so it fits only a bool field
    return isinstance(value, types[kind]) and isinstance(value, bool) == (kind == "bool")


@dataclass
class ExperimentConfig:
    """One benchmark sweep over grids and reduction modes."""

    grids: list[tuple[int, int]] = field(default_factory=lambda: [(31, 23)])
    window: str = "3h"
    dt: float | None = None   # custom window only
    nt: int | None = None
    k: int | None = 20
    gamma: float | None = None
    m_values: list[int] = field(default_factory=lambda: [30])
    modes: list[str] = field(default_factory=lambda: list(ALL_MODES))
    out_dir: str = "bench_out"
    center: bool = True
    newton_tol: float = SolverConfig.newton_tol
    newton_max_iters: int = SolverConfig.newton_max_iters
    lu_refresh_every: int = SolverConfig.lu_refresh_every
    domain_km: tuple[float, float] | None = None  # (L, D); SI internally

    def validate(self) -> None:
        if not self.modes:
            raise ValueError(f"at least one mode is required; expected subset of {ALL_MODES}")
        for mode in self.modes:
            if mode not in ALL_MODES:
                raise ValueError(f"unknown mode {mode!r}; expected subset of {ALL_MODES}")
        self.solver_config()  # checks the window and the solver settings
        if (self.k is None) == (self.gamma is None):
            raise ValueError("pass exactly one of k or gamma")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if any(m < 1 for m in self.m_values):
            raise ValueError(f"every m must be at least 1, got {self.m_values}")
        if "pod-deim" in self.modes and not self.m_values:
            raise ValueError("pod-deim needs at least one m")
        if not self.grids:
            raise ValueError("at least one grid is required")
        for nx, ny in self.grids:  # checks each mesh size and the domain
            build_grid(nx, ny, self.constants())

    def solver_config(self) -> SolverConfig:
        dt, nt = resolve_window(self.window, self.dt, self.nt)
        return SolverConfig(dt=dt, nt=nt, newton_tol=self.newton_tol,
                            newton_max_iters=self.newton_max_iters,
                            lu_refresh_every=self.lu_refresh_every)

    def constants(self) -> PhysicalConstants:
        if self.domain_km is None:
            return DEFAULT_CONSTANTS
        L_km, D_km = self.domain_km
        return PhysicalConstants(L=1000.0 * L_km, D=1000.0 * D_km)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path} holds no JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for f in fields(cls):
            if f.name in raw and not _json_fits(raw[f.name], f.type):
                raise ValueError(f"config key {f.name!r} must be {f.type}, "
                                 f"got {raw[f.name]!r}")
        if "grids" in raw:
            raw["grids"] = [tuple(g) for g in raw["grids"]]
        if "domain_km" in raw and raw["domain_km"] is not None:
            raw["domain_km"] = tuple(raw["domain_km"])
        return cls(**raw)


@dataclass
class RunReport:
    """One row of the benchmark report."""

    grid: str
    nx: int
    ny: int
    n: int
    window: str
    dt: float
    nt: int
    mode: str
    k: int | None = None
    m: int | None = None
    status: str = "ok"
    snapshots_s: float | None = None
    svd_state_s: float | None = None
    svd_nonlinear_s: float | None = None
    deim_points_s: float | None = None
    deim_projector_s: float | None = None
    tensors_s: float | None = None
    offline_total_s: float | None = None
    online_s: float | None = None
    online_nonlinear_s: float | None = None
    end_to_end_s: float | None = None
    newton_iters: int | None = None
    worst_residual: float | None = None
    deim_cond_max: float | None = None  # largest cond(P^T V) of the six terms
    relerr_u: float | None = None
    relerr_v: float | None = None
    relerr_phi: float | None = None
    rmse_u: float | None = None
    rmse_v: float | None = None
    rmse_phi: float | None = None
    flops_model: int | None = None


REPORT_COLUMNS = [f.name for f in fields(RunReport)]


def _base_report(cfg: ExperimentConfig, grid, dt: float, nt: int, mode: str) -> RunReport:
    return RunReport(grid=f"{grid.nx}x{grid.ny}", nx=grid.nx, ny=grid.ny, n=grid.n,
                     window=cfg.window, dt=dt, nt=nt, mode=mode)


def offline_pass(snaps, ops, f, k, gamma, center, modes, m_values) -> dict:
    """A grid's off-line work for ``modes``, done once for all of its rows
    (and for ``build-rom``): one SVD per state matrix (``bases``, ``space``);
    with pod-deim one per term matrix (``term_svds``, each term's ``(U, s)``)
    and each term's DEIM ``points`` at max(m_values); with standard-pod or
    tensorial-pod the full-sum ``tensors``; the seconds of each. A failed
    state stage's exception is kept as ``error``."""
    shared = {}
    t0 = time.perf_counter()
    try:
        shared["bases"] = build_state_bases(snaps.states, k=k, gamma=gamma, center=center)
        if any(mode != "full" for mode in modes):
            shared["space"] = ReducedSpace(shared["bases"], ops, f)
    except (np.linalg.LinAlgError, ValueError) as err:
        shared["error"] = err
    shared["state_s"] = time.perf_counter() - t0
    if "pod-deim" in modes:
        t0 = time.perf_counter()
        shared["term_svds"] = {t: np.linalg.svd(snaps.nonlinear[t], full_matrices=False)[:2]
                               for t in TERM_NAMES}
        shared["term_s"] = time.perf_counter() - t0
        # greedy points are nested: the first m at max(m) are the points at m, since
        # the pivot of each LU stage depends only on the columns up to its own; on
        # orthonormal columns each pivot is at least 1/sqrt(n), so none degenerates
        t0 = time.perf_counter()
        shared["points"] = {t: deim_select_points(U[:, :max(m_values)])
                            for t, (U, _) in shared["term_svds"].items()}
        shared["points_s"] = time.perf_counter() - t0
    if "space" in shared and {"standard-pod", "tensorial-pod"} & set(modes):
        t0 = time.perf_counter()
        shared["tensors"] = build_tensor_coefficients(shared["space"])
        shared["tensors_s"] = time.perf_counter() - t0
    return shared


def _rom_pipeline(grid, ic, snaps, scfg, shared, mode, m, report) -> None:
    """Off-line build plus on-line run for one mode; fills the report in place.

    The shared stages ran before this row's clock starts. Like
    ``snapshots_s``, each one the row uses is reported in its own column and
    counted in ``offline_total_s`` and ``end_to_end_s``.
    """
    if "error" in shared:
        raise shared["error"]
    space = shared["space"]
    report.svd_state_s = shared["state_s"]
    report.k = max(b.k for b in space.bases.values())
    t_start = time.perf_counter()

    if mode == "pod-deim":
        t0 = time.perf_counter()
        deim_ops = deim_operators(space, shared["term_svds"], shared["points"], m)
        # set only now: a row whose operators fail (m above the bound) leaves them empty
        report.deim_projector_s = time.perf_counter() - t0
        report.deim_cond_max = max(op.cond for op in deim_ops.values())
        report.svd_nonlinear_s, report.deim_points_s = shared["term_s"], shared["points_s"]
        shared_s = report.svd_state_s + report.svd_nonlinear_s + report.deim_points_s
        t0 = time.perf_counter()
        tensors = deim_tensor_coefficients(deim_ops, space)
        report.tensors_s = time.perf_counter() - t0
    else:
        tensors = shared["tensors"]
        report.tensors_s = shared["tensors_s"]
        shared_s = report.svd_state_s + report.tensors_s

    model = ReducedModel(space, tensors, mode, scfg)
    _, traj, rom_tm = model.run(project_initial(ic, space), scfg.nt)
    report.end_to_end_s = time.perf_counter() - t_start + shared_s

    report.online_s = rom_tm.total_s
    report.online_nonlinear_s = rom_tm.nonlinear_s
    report.newton_iters = rom_tm.newton_iters
    report.worst_residual = rom_tm.worst_residual
    report.offline_total_s = (report.snapshots_s or 0.0) + sum(
        t for t in (report.svd_state_s, report.svd_nonlinear_s, report.deim_points_s,
                    report.deim_projector_s, report.tensors_s) if t is not None)

    errors = trajectory_errors(snaps.states, {
        var: b.lift(traj[var]) for var, b in space.bases.items()})
    for var in VARIABLES:
        setattr(report, f"relerr_{var}", errors[var]["relerr"])
        setattr(report, f"rmse_{var}", errors[var]["rmse"])
    report.flops_model = flop_count(mode, n=grid.n, k=report.k, m=m)


SPECTRA_COLUMNS = ["grid", "window", "kind", "name", "index", "sigma", "lambda"]
DEIM_POINT_COLUMNS = ["grid", "window", "term", "deim_order", "index", "ix", "iy",
                      "x_m", "y_m", "max_abs_over_time"]


def _spectra_rows(cfg, grid_name, snaps, shared) -> list[tuple]:
    """Singular values and their squares per snapshot matrix, from the
    shared SVDs; the states need their own only when the state stage failed,
    and the terms only when the pass took none (no pod-deim rows)."""
    spectra = []
    for var in VARIABLES:
        if "bases" in shared:
            lam = shared["bases"][var].sigma
            spectra.append(("state", var, np.sqrt(lam), lam))
        else:
            X = snaps.states[var]
            s = np.linalg.svd(center_snapshots(X)[0] if cfg.center else X,
                              compute_uv=False)
            spectra.append(("state", var, s, s ** 2))
    for term in TERM_NAMES:
        s = (shared["term_svds"][term][1] if "term_svds" in shared
             else np.linalg.svd(snaps.nonlinear[term], compute_uv=False))
        spectra.append(("nonlinear", term, s, s ** 2))
    return [(grid_name, cfg.window, kind, name, i, s, sq)
            for kind, name, sigma, lam in spectra
            for i, (s, sq) in enumerate(zip(sigma.tolist(), lam.tolist()), start=1)]


def _deim_point_rows(cfg, grid_name, grid, snaps, shared) -> list[tuple]:
    """Each term's shared greedy points at the largest m, in selection order,
    with the term's maximum magnitude over the trajectory there. The points
    at a smaller m are a term's first m rows.
    """
    x, y = grid.x_coords(), grid.y_coords()
    rows = []
    for term, points in shared.get("points", {}).items():
        stat = np.max(np.abs(snaps.nonlinear[term][points]), axis=1)
        per_point = zip(points.tolist(), x[points].tolist(), y[points].tolist(), stat.tolist())
        rows += [(grid_name, cfg.window, term, order, i, i % grid.nx, i // grid.nx, xi, yi, st)
                 for order, (i, xi, yi, st) in enumerate(per_point, start=1)]
    return rows


def _record_nonconvergence(rep: RunReport, err: NonConvergenceError) -> None:
    """The status of a run whose quasi-Newton failed, and the Newton work of
    its accepted half-steps."""
    rep.status = (f"nonconverged: residual {err.residual:.3e} "
                  f"after {err.iterations} iterations")
    rep.newton_iters = err.timings.newton_iters
    rep.worst_residual = err.timings.worst_residual


def _run_grid(cfg: ExperimentConfig, nx: int, ny: int):
    scfg = cfg.solver_config()
    dt, nt = scfg.dt, scfg.nt
    grid = build_grid(nx, ny, cfg.constants())
    ops = build_operators(grid)
    f = coriolis_field(grid)
    ic = initial_state(grid, ops)

    t0 = time.perf_counter()
    try:
        _, snaps, full_tm = run_full(ic, scfg, ops, f, grid)
    except NonConvergenceError as err:
        rep = _base_report(cfg, grid, dt, nt, "full")
        _record_nonconvergence(rep, err)
        rep.snapshots_s = time.perf_counter() - t0
        return [rep], [], []
    snapshots_s = time.perf_counter() - t0

    shared = offline_pass(snaps, ops, f, cfg.k, cfg.gamma, cfg.center, cfg.modes,
                          cfg.m_values)
    reports = []
    if "full" in cfg.modes:
        rep = _base_report(cfg, grid, dt, nt, "full")
        rep.snapshots_s = rep.offline_total_s = rep.end_to_end_s = snapshots_s
        rep.newton_iters = full_tm.newton_iters
        rep.worst_residual = full_tm.worst_residual
        reports.append(rep)

    for mode in cfg.modes:
        if mode == "full":
            continue
        for m in (cfg.m_values if mode == "pod-deim" else [None]):
            rep = _base_report(cfg, grid, dt, nt, mode)
            rep.m = m
            rep.snapshots_s = snapshots_s
            try:
                _rom_pipeline(grid, ic, snaps, scfg, shared, mode, m, rep)
            except NonConvergenceError as err:
                _record_nonconvergence(rep, err)
                rep.online_s = err.timings.total_s
                rep.online_nonlinear_s = err.timings.nonlinear_s
            except (np.linalg.LinAlgError, ValueError) as err:
                rep.status = f"failed: {type(err).__name__}: {err}"
            reports.append(rep)

    # diagnostics for plots (untimed): spectra and sampled-point statistics
    grid_name = f"{grid.nx}x{grid.ny}"
    spectra = _spectra_rows(cfg, grid_name, snaps, shared)
    return reports, spectra, _deim_point_rows(cfg, grid_name, grid, snaps, shared)


def run_experiment(cfg: ExperimentConfig):
    """Run the sweep and write all CSV outputs; returns (reports, extras)."""
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    per_grid = [_run_grid(cfg, nx, ny) for nx, ny in cfg.grids]
    reports = [rep for grid_out in per_grid for rep in grid_out[0]]
    spectra = [row for grid_out in per_grid for row in grid_out[1]]
    deim_points = [row for grid_out in per_grid for row in grid_out[2]]

    write_run_report(reports, out / "run_report.csv")
    _write_csv(spectra, SPECTRA_COLUMNS, out / "spectra.csv")
    if "pod-deim" in cfg.modes:
        _write_csv(deim_points, DEIM_POINT_COLUMNS, out / "deim_points.csv")
    write_timing_vs_n(reports, out / "timing_vs_n.csv")
    return reports, {"spectra": [dict(zip(SPECTRA_COLUMNS, row)) for row in spectra]}


# --- CSV plumbing -------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 too, whose repr names its type
        return repr(float(value))
    return str(value)


def _write_csv(rows, columns: list[str], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def _write_reports(reports: list[RunReport], columns: list[str], path) -> None:
    _write_csv(([getattr(rep, c) for c in columns] for rep in reports), columns, path)


def write_run_report(reports: list[RunReport], path) -> None:
    _write_reports(reports, REPORT_COLUMNS, path)


def write_timing_vs_n(reports: list[RunReport], path) -> None:
    columns = ["n", "grid", "window", "mode", "k", "m",
               "offline_total_s", "online_s", "online_nonlinear_s"]
    _write_reports(sorted((rep for rep in reports if rep.status == "ok"),
                          key=lambda r: (r.n, r.mode, r.m or 0)), columns, path)


def _read_csv(path, parse: dict, required: list[str]) -> list[dict]:
    """Rows of a CSV file as dicts of the columns in ``parse``, which parses each
    cell (an optional column's empty cell reads None); missing required columns,
    or a row whose cells do not match the header, raise ValueError naming them."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in required if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks the required columns {', '.join(missing)}")
        rows = []
        for raw in reader:  # DictReader fills a short row with None, files a long one under None
            if None in raw or None in raw.values():
                raise ValueError(f"{path} line {reader.line_num} does not have the "
                                 f"{len(reader.fieldnames)} cells of its header")
            rows.append({key: None if text == "" and key not in required else parse[key](text)
                         for key, text in raw.items() if key in parse})
        return rows


def read_run_report(path) -> list[RunReport]:
    """Parse run_report.csv back into report rows (for plot export)."""
    types = {"int": int, "int | None": int, "float": float, "float | None": float}
    parse = {f.name: types.get(f.type, str) for f in fields(RunReport)}
    required = [f.name for f in fields(RunReport) if f.default is MISSING]
    return [RunReport(**row) for row in _read_csv(path, parse, required)]


def read_spectra(path) -> list[dict]:
    """Parse spectra.csv back into rows (for plot export)."""
    parse = dict(zip(SPECTRA_COLUMNS, (str, str, str, str, int, float, float)))
    return _read_csv(path, parse, SPECTRA_COLUMNS)
