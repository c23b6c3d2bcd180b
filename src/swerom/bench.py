"""Experiment runner: full-versus-reduced sweeps with itemized timing.

For every grid in a sweep the full model runs once (that is the snapshot
generation cost, shared by all reduction modes) and each requested mode
then builds its off-line artifacts, integrates the reduced system, lifts
the trajectory, and reports errors plus a wall-clock decomposition. Rows
that fail (for example sampled runs whose quasi-Newton does not converge
at small m) are recorded with a status string and the sweep continues.

CSV outputs (written into the configured directory):

    run_report.csv    one row per (grid, mode, m) with timings and errors
    spectra.csv       state-variable and nonlinear-term singular values
    deim_points.csv   per-node max-over-time term magnitude and selection order
    timing_vs_n.csv   condensed cost-versus-size view of run_report
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from swerom.deim import (
    build_deim_term_operator,
    deim_select_points,
    deim_tensor_coefficients,
)
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
from swerom.pod import PodBasis, center_snapshots, fix_mode_signs, numerical_rank, select_mode_count
from swerom.rom import MODES, ReducedModel, ReducedSpace, build_tensor_coefficients, project_initial
from swerom.solver import RecordFlags, SolverConfig, run_full

__all__ = [
    "WINDOWS",
    "ExperimentConfig",
    "RunReport",
    "build_state_bases",
    "run_experiment",
    "write_run_report",
    "read_run_report",
]

WINDOWS = {"24h": (960.0, 91), "3h": (120.0, 91)}

ALL_MODES = ("full",) + MODES


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
    seed: int = 0
    center: bool = True
    grammeltvedt_literal: bool = False
    timed_serial: bool = True
    workers: int = 1
    newton_tol: float = 1e-10
    newton_max_iters: int = 25
    lu_refresh_every: int = 6
    domain_km: tuple[float, float] | None = None  # (L, D); SI internally

    def validate(self) -> None:
        for mode in self.modes:
            if mode not in ALL_MODES:
                raise ValueError(f"unknown mode {mode!r}; expected subset of {ALL_MODES}")
        if self.window not in WINDOWS and self.window != "custom":
            raise ValueError(f"unknown window {self.window!r}")
        if self.window == "custom" and (self.dt is None or self.nt is None):
            raise ValueError("custom window needs dt and nt")
        if (self.k is None) == (self.gamma is None):
            raise ValueError("pass exactly one of k or gamma")
        if not self.grids:
            raise ValueError("at least one grid is required")

    def resolve_window(self) -> tuple[float, int]:
        if self.window in WINDOWS:
            return WINDOWS[self.window]
        return float(self.dt), int(self.nt)

    def constants(self) -> PhysicalConstants:
        if self.domain_km is None:
            return DEFAULT_CONSTANTS
        L_km, D_km = self.domain_km
        return PhysicalConstants(L=1000.0 * L_km, D=1000.0 * D_km)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
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
    seed: int
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
    relerr_u: float | None = None
    relerr_v: float | None = None
    relerr_phi: float | None = None
    rmse_u: float | None = None
    rmse_v: float | None = None
    rmse_phi: float | None = None
    flops_model: int | None = None


REPORT_COLUMNS = [f.name for f in fields(RunReport)]


def build_state_bases(states: dict[str, np.ndarray], k: int | None = None,
                      gamma: float | None = None, center: bool = True
                      ) -> dict[str, PodBasis]:
    """Per-variable bases with a shared mode count.

    With ``gamma`` the count is the largest of the per-variable energy
    selections; either way each variable is clamped to its numerical rank.
    """
    if (k is None) == (gamma is None):
        raise ValueError("pass exactly one of k or gamma")
    decomposed = {}
    for var in VARIABLES:
        X = states[var]
        if center:
            Xc, xbar = center_snapshots(X)
        else:
            Xc, xbar = X, np.zeros(X.shape[0])
        U, s, _ = np.linalg.svd(Xc, full_matrices=False)
        decomposed[var] = (U, s, xbar, numerical_rank(s, Xc.shape))
    if gamma is not None:
        k = max(select_mode_count(s ** 2, gamma) for (_, s, _, _) in decomposed.values())
    bases = {}
    for var, (U, s, xbar, rank) in decomposed.items():
        k_var = min(int(k), rank)
        Uk = fix_mode_signs(U[:, :k_var].copy())
        bases[var] = PodBasis(var=var, U=Uk, W=Uk, xbar=xbar, sigma=s ** 2,
                              k=k_var, gamma=gamma)
    return bases


def _base_report(cfg: ExperimentConfig, grid, dt: float, nt: int, mode: str) -> RunReport:
    return RunReport(grid=f"{grid.nx}x{grid.ny}", nx=grid.nx, ny=grid.ny, n=grid.n,
                     window=cfg.window, dt=dt, nt=nt, mode=mode, seed=cfg.seed)


def _rom_pipeline(cfg, grid, ops, f, ic, snaps, scfg, mode, m, report) -> None:
    """Off-line build plus on-line run for one mode; fills the report in place."""
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    bases = build_state_bases(snaps.states, k=cfg.k, gamma=cfg.gamma, center=cfg.center)
    space = ReducedSpace(bases, ops, f)
    report.svd_state_s = time.perf_counter() - t0
    report.k = max(b.k for b in bases.values())

    deim_ops = None
    if mode == "pod-deim":
        bound = min(min(snaps.nonlinear[t].shape) for t in TERM_NAMES)
        if m > bound:
            raise ValueError(f"m={m} exceeds snapshot count/rank bound {bound}")
        t0 = time.perf_counter()
        svds = {term: np.linalg.svd(snaps.nonlinear[term], full_matrices=False)[:2]
                for term in TERM_NAMES}
        report.svd_nonlinear_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        points = {term: deim_select_points(svds[term][0][:, :m]) for term in TERM_NAMES}
        report.deim_points_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        deim_ops = {term: build_deim_term_operator(space, term, svds[term][0][:, :m],
                                                   points[term], sigma=svds[term][1])
                    for term in TERM_NAMES}
        report.deim_projector_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        tensors = deim_tensor_coefficients(deim_ops, space)
        report.tensors_s = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        tensors = build_tensor_coefficients(space)
        report.tensors_s = time.perf_counter() - t0

    model = ReducedModel(space, tensors, mode, scfg, deim_ops=deim_ops)
    x0 = project_initial(ic, space)
    _, traj, rom_tm = model.run(x0, scfg.nt)
    report.end_to_end_s = time.perf_counter() - t_start

    report.online_s = rom_tm.total_s
    report.online_nonlinear_s = rom_tm.nonlinear_s
    report.newton_iters = rom_tm.newton_iters
    report.offline_total_s = (report.snapshots_s or 0.0) + sum(
        t for t in (report.svd_state_s, report.svd_nonlinear_s, report.deim_points_s,
                    report.deim_projector_s, report.tensors_s) if t is not None)

    lifted = {var: bases[var].xbar[:, None] + bases[var].U @ traj[var]
              for var in VARIABLES}
    errors = trajectory_errors(snaps.states, lifted)
    for var in VARIABLES:
        setattr(report, f"relerr_{var}", errors[var]["relerr"])
        setattr(report, f"rmse_{var}", errors[var]["rmse"])
    report.flops_model = flop_count(mode, n=grid.n, k=report.k, m=m)


def _spectra_rows(cfg, grid, snaps) -> list[dict]:
    rows = []
    for var in VARIABLES:
        X = snaps.states[var]
        Xc = center_snapshots(X)[0] if cfg.center else X
        s = np.linalg.svd(Xc, compute_uv=False)
        rows += [{"grid": f"{grid.nx}x{grid.ny}", "window": cfg.window,
                  "kind": "state", "name": var, "index": i + 1,
                  "sigma": float(si), "lambda": float(si ** 2)}
                 for i, si in enumerate(s)]
    if snaps.nonlinear is not None:
        for term in TERM_NAMES:
            s = np.linalg.svd(snaps.nonlinear[term], compute_uv=False)
            rows += [{"grid": f"{grid.nx}x{grid.ny}", "window": cfg.window,
                      "kind": "nonlinear", "name": term, "index": i + 1,
                      "sigma": float(si), "lambda": float(si ** 2)}
                     for i, si in enumerate(s)]
    return rows


def _deim_point_rows(cfg, grid, snaps, deim_ops) -> list[dict]:
    """Per-node max-over-time statistic with greedy selection order.

    Points for smaller m are prefixes of the exported ordering, so one
    export covers the whole m sweep.
    """
    rows = []
    x = grid.x_coords()
    y = grid.y_coords()
    for term in TERM_NAMES:
        stat = np.max(np.abs(snaps.nonlinear[term]), axis=1)
        order = np.zeros(grid.n, dtype=int)
        if deim_ops is not None:
            for rank_idx, node in enumerate(deim_ops[term].points, start=1):
                order[node] = rank_idx
        for node in range(grid.n):
            rows.append({"grid": f"{grid.nx}x{grid.ny}", "window": cfg.window,
                         "term": term, "index": node,
                         "ix": node % grid.nx, "iy": node // grid.nx,
                         "x_m": float(x[node]), "y_m": float(y[node]),
                         "max_abs_over_time": float(stat[node]),
                         "deim_order": int(order[node])})
    return rows


def _run_grid(cfg: ExperimentConfig, nx: int, ny: int):
    dt, nt = cfg.resolve_window()
    consts = cfg.constants()
    grid = build_grid(nx, ny, consts)
    ops = build_operators(grid)
    f = coriolis_field(grid, consts)
    ic = initial_state(grid, ops, consts, literal=cfg.grammeltvedt_literal)
    scfg = SolverConfig(dt=dt, nt=nt, newton_tol=cfg.newton_tol,
                        newton_max_iters=cfg.newton_max_iters,
                        lu_refresh_every=cfg.lu_refresh_every)

    t0 = time.perf_counter()
    try:
        _, snaps, full_tm = run_full(ic, scfg, ops, f, grid,
                                     RecordFlags(states=True, nonlinear=True))
    except NonConvergenceError as err:
        rep = _base_report(cfg, grid, dt, nt, "full")
        rep.status = (f"nonconverged: residual {err.residual:.3e} "
                      f"after {err.iterations} iterations")
        rep.snapshots_s = time.perf_counter() - t0
        return [rep], [], []
    snapshots_s = time.perf_counter() - t0

    reports = []
    if "full" in cfg.modes:
        rep = _base_report(cfg, grid, dt, nt, "full")
        rep.snapshots_s = snapshots_s
        rep.offline_total_s = snapshots_s
        rep.end_to_end_s = snapshots_s
        rep.newton_iters = full_tm.newton_iters
        reports.append(rep)

    for mode in cfg.modes:
        if mode == "full":
            continue
        for m in (cfg.m_values if mode == "pod-deim" else [None]):
            rep = _base_report(cfg, grid, dt, nt, mode)
            rep.m = m
            rep.snapshots_s = snapshots_s
            try:
                _rom_pipeline(cfg, grid, ops, f, ic, snaps, scfg, mode, m, rep)
            except NonConvergenceError as err:
                rep.status = (f"nonconverged: residual {err.residual:.3e} "
                              f"after {err.iterations} iterations")
            except (np.linalg.LinAlgError, ValueError) as err:
                rep.status = f"failed: {type(err).__name__}: {err}"
            reports.append(rep)

    # diagnostics for plots (untimed): spectra and sampled-point statistics
    spectra = _spectra_rows(cfg, grid, snaps)
    deim_rows = []
    if "pod-deim" in cfg.modes:
        m_max = max(cfg.m_values)
        try:
            ops_for_export = {}
            bases = build_state_bases(snaps.states, k=cfg.k, gamma=cfg.gamma,
                                      center=cfg.center)
            space = ReducedSpace(bases, ops, f)
            for term in TERM_NAMES:
                V = np.linalg.svd(snaps.nonlinear[term],
                                  full_matrices=False)[0][:, :m_max]
                ops_for_export[term] = build_deim_term_operator(
                    space, term, V, deim_select_points(V))
            deim_rows = _deim_point_rows(cfg, grid, snaps, ops_for_export)
        except (np.linalg.LinAlgError, ValueError):
            deim_rows = _deim_point_rows(cfg, grid, snaps, None)
    return reports, spectra, deim_rows


def run_experiment(cfg: ExperimentConfig):
    """Run the sweep and write all CSV outputs; returns (reports, extras)."""
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.timed_serial or cfg.workers <= 1:
        per_grid = [_run_grid(cfg, nx, ny) for nx, ny in cfg.grids]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            per_grid = list(pool.map(lambda g: _run_grid(cfg, *g), cfg.grids))

    reports = [rep for grid_out in per_grid for rep in grid_out[0]]
    spectra = [row for grid_out in per_grid for row in grid_out[1]]
    deim_rows = [row for grid_out in per_grid for row in grid_out[2]]

    write_run_report(reports, out / "run_report.csv")
    _write_rows(spectra, ["grid", "window", "kind", "name", "index", "sigma", "lambda"],
                out / "spectra.csv")
    if deim_rows:
        _write_rows(deim_rows, ["grid", "window", "term", "index", "ix", "iy",
                                "x_m", "y_m", "max_abs_over_time", "deim_order"],
                    out / "deim_points.csv")
    write_timing_vs_n(reports, out / "timing_vs_n.csv")
    return reports, {"spectra": spectra, "deim_points": deim_rows}


# --- CSV plumbing -------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(rows: list[dict], columns: list[str], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def write_run_report(reports: list[RunReport], path) -> None:
    rows = [{c: getattr(rep, c) for c in REPORT_COLUMNS} for rep in reports]
    _write_rows(rows, REPORT_COLUMNS, path)


def write_timing_vs_n(reports: list[RunReport], path) -> None:
    columns = ["n", "grid", "window", "mode", "k", "m",
               "offline_total_s", "online_s", "online_nonlinear_s"]
    rows = [{c: getattr(rep, c) for c in columns}
            for rep in sorted(reports, key=lambda r: (r.n, r.mode, r.m or 0))
            if rep.status == "ok"]
    _write_rows(rows, columns, path)


def read_run_report(path) -> list[RunReport]:
    """Parse run_report.csv back into report rows (for plot export)."""
    converters = {f.name: f.type for f in fields(RunReport)}
    reports = []
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            kwargs = {}
            for key, text in raw.items():
                if key not in converters:
                    continue
                if text == "":
                    kwargs[key] = None
                elif converters[key] in ("int", "int | None"):
                    kwargs[key] = int(text)
                elif converters[key] in ("float", "float | None"):
                    kwargs[key] = float(text)
                else:
                    kwargs[key] = text
            reports.append(RunReport(**kwargs))
    return reports
