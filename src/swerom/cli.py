"""Command-line interface.

Verbs: ``run-full`` (reference solve, snapshot recording), ``build-rom``
(off-line artifacts from a snapshot file), ``run-rom`` (reduced
integration from stored artifacts), ``bench`` (full sweep with CSV
reports), ``flops`` (operation-count model), ``export-plots`` (SVG charts
from a report directory).

Exit codes: 0 success, 2 configuration or input-file problem, 3 numerical
failure (non-convergence or singular systems). Mesh sizes are point counts
(``NXxNY``); times are seconds except the named windows (24h, 3h) and the
``--domain-km`` override, which are converted at the boundary.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from swerom.bench import (
    ALL_MODES,
    WINDOWS,
    ExperimentConfig,
    _json_fits,
    offline_pass,
    read_run_report,
    read_spectra,
    resolve_window,
    run_experiment,
)
from swerom.deim import (
    deim_operators,
    deim_tensor_coefficients,
    load_deim_operator,
    save_deim_operator,
)
from swerom.errors import FileFormatError, NonConvergenceError
from swerom.flops import METHODS, flop_count, reference_table
from swerom.metrics import trajectory_errors
from swerom.model import (
    TERM_EQUATION,
    TERM_NAMES,
    VARIABLES,
    PhysicalConstants,
    build_grid,
    build_operators,
    cfl_indicator,
    coriolis_field,
    initial_state,
)
from swerom.plots import emit_plot_data
from swerom.pod import load_basis, save_basis
from swerom.rom import (
    MODES,
    ReducedModel,
    ReducedSpace,
    build_tensor_coefficients,
    load_tensors,
    project_initial,
    save_tensors,
)
from swerom.snapshots import SnapshotSet, load_snapshots, save_snapshots
from swerom.solver import SolverConfig, run_full


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nx, ny = text.lower().split("x")
        return int(nx), int(ny)
    except Exception:
        raise ValueError(f"grid must look like 31x23, got {text!r}")


def _parse_domain_km(text: str) -> tuple[float, float]:
    try:
        L, D = text.lower().split("x")
        return float(L), float(D)
    except Exception:
        raise ValueError(f"domain must look like 6000x4400 (km), got {text!r}")


def _flag_window(args) -> str | None:
    """The window the flags name: --window, else custom when --dt or --nt is given."""
    if args.window is None and (args.dt is not None or args.nt is not None):
        return "custom"
    return args.window


def _solver_config(args, dt: float, nt: int) -> SolverConfig:
    return SolverConfig(dt=dt, nt=nt, newton_tol=args.newton_tol,
                        newton_max_iters=args.newton_max_iters,
                        lu_refresh_every=args.lu_refresh_every)


def _add_solver_flags(p):
    p.add_argument("--newton-tol", type=float, default=SolverConfig.newton_tol)
    p.add_argument("--newton-max-iters", type=int, default=SolverConfig.newton_max_iters)
    p.add_argument("--lu-refresh-every", type=int, default=SolverConfig.lu_refresh_every)


def _add_window_flags(p):
    p.add_argument("--window", choices=sorted(WINDOWS), help="24h or 3h (the default)")
    p.add_argument("--dt", type=float, help="custom step [s] (with --nt)")
    p.add_argument("--nt", type=int, help="custom step count (with --dt)")


# --- verbs ---------------------------------------------------------------------

def cmd_flops(args) -> int:
    if args.method is not None:
        count = flop_count(args.method, n=args.n, k=args.k, m=args.m, p=args.p)
        print(count)
        return 0
    writer = csv.writer(sys.stdout)
    header = ["n", "k", "m", "p", *METHODS]
    writer.writerow(header)
    for row in reference_table():
        writer.writerow([row[key] for key in header])
    return 0


def cmd_run_full(args) -> int:
    nx, ny = _parse_grid(args.grid)
    dt, nt = resolve_window(_flag_window(args) or "3h", args.dt, args.nt)
    grid = build_grid(nx, ny)
    ops = build_operators(grid)
    f = coriolis_field(grid)
    ic = initial_state(grid, ops)
    cfg = _solver_config(args, dt, nt)
    print(f"grid {nx}x{ny} (n={grid.n}), dt={dt:g}s, nt={nt}, "
          f"CFL indicator {cfl_indicator(ic, grid, dt):.4f}")
    final, snaps, tm = run_full(ic, cfg, ops, f, grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_snapshots(snaps, out / "snapshots.snap")
    meta = {"nx": nx, "ny": ny, "dt": dt, "nt": nt,
            "newton_tol": cfg.newton_tol, "newton_iters": tm.newton_iters,
            "rhs_evals": tm.rhs_evals, "pivoted_factorizations": tm.pivoted_factorizations,
            "wall_s": tm.total_s, "assembly_s": tm.assembly_s,
            "factorization_s": tm.factorization_s, "solve_s": tm.solve_s,
            "recording_s": tm.recording_s}
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    print(f"completed {nt} steps to t={final.time:g}s in {tm.total_s:.3f}s "
          f"({tm.newton_iters} Newton iterations, {tm.rhs_evals} right-hand sides, "
          f"{tm.pivoted_factorizations} pivoted factorizations)")
    print(f"wrote {out / 'snapshots.snap'}")
    return 0


def cmd_build_rom(args) -> int:
    if args.m is not None and args.m < 1:
        raise ValueError(f"m must be at least 1, got {args.m}")
    deim = args.mode == "pod-deim"
    snaps = load_snapshots(args.snapshots, nonlinear=deim)
    if deim:
        if snaps.nonlinear is None:
            raise ValueError("snapshot file has no nonlinear-term matrices; "
                             "pod-deim needs the snapshots of run-full")
        if args.m is None:
            raise ValueError("pod-deim needs --m")
    grid = snaps.grid
    # bench's off-line pass for this one mode: no full-sum tensors for
    # pod-deim, whose run-rom uses sampled ones
    shared = offline_pass(snaps, build_operators(grid), coriolis_field(grid), args.k,
                          args.gamma, not args.no_center, [args.mode], [args.m])
    if "error" in shared:
        raise shared["error"]
    bases = shared["bases"]
    # everything is built before anything is written, so a failure leaves no file
    artifacts = {f"{var}.pod": (save_basis, bases[var]) for var in VARIABLES}
    k_max = max(b.k for b in bases.values())
    if deim:
        deim_ops = deim_operators(shared["space"], shared["term_svds"], shared["points"], args.m)
        for term, op in deim_ops.items():
            artifacts[f"{term}.deim"] = (save_deim_operator, op)
    else:
        artifacts["tensors.tpod"] = (save_tensors, shared["tensors"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (save, obj) in artifacts.items():
        save(obj, out / name)
    meta = {"nx": grid.nx, "ny": grid.ny, "L": grid.L, "D": grid.D,
            "dt": snaps.dt, "nt": snaps.nt, "k": k_max, "m": args.m,
            "center": not args.no_center, "mode": args.mode}
    if deim:
        meta["deim_cond_max"] = max(op.cond for op in deim_ops.values())
    (out / "rom_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    print(f"wrote reduced artifacts (k={k_max}) to {out}")
    return 0


def _check_deim_operator(op, term: str, bases: dict, n: int, path) -> None:
    """A loaded operator must sample the grid's n nodes and project onto
    the bases it runs with."""
    eq = TERM_EQUATION[term]
    problems = []
    if op.term != term:
        problems.append(f"it holds {op.term}")
    if op.n != n:
        problems.append(f"it samples n={op.n} nodes, the grid has n={n}")
    if op.E.shape[0] != bases[eq].k:
        problems.append(f"E has {op.E.shape[0]} rows, the {eq} basis k={bases[eq].k}")
    for p in op.products:
        for name, var, U in (("Uam", p.a_var, p.Uam), ("Ubxm", p.b_var, p.Ubxm)):
            if U.shape[1] != bases[var].k:
                problems.append(f"{name} of {p.a_var}*{p.b_var} has {U.shape[1]} columns, "
                                f"the {var} basis k={bases[var].k}")
    if problems:
        raise ValueError(f"{path} does not fit the reduced model: " + "; ".join(problems))


def cmd_run_rom(args) -> int:
    romdir = Path(args.rom)
    meta_path = romdir / "rom_meta.json"
    meta = json.loads(meta_path.read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path} holds no JSON object")
    if "L" not in meta or "D" not in meta:
        raise ValueError(f"{meta_path} has no domain size L, D; rerun build-rom")
    for key, kind in [("nx", "int"), ("ny", "int"), ("nt", "int"), ("dt", "float"),
                      ("L", "float"), ("D", "float")]:
        if not _json_fits(meta.get(key), kind):
            raise ValueError(f"{meta_path} key {key!r} must be {kind}, got {meta.get(key)!r}")
    mode = args.mode or meta.get("mode")
    if mode not in MODES:
        raise ValueError(f"{meta_path} key 'mode' must be one of {MODES}, got {mode!r}")
    grid = build_grid(meta["nx"], meta["ny"],
                      PhysicalConstants(L=float(meta["L"]), D=float(meta["D"])))
    ops = build_operators(grid)
    f = coriolis_field(grid)
    bases = {}
    for var in VARIABLES:
        path = romdir / f"{var}.pod"
        bases[var] = basis = load_basis(path)
        if basis.var != var or basis.n != grid.n:
            raise ValueError(f"{path} holds a {basis.var} basis of n={basis.n}, not a {var} "
                             f"basis on the {grid.nx}x{grid.ny} grid (n={grid.n})")
    space = ReducedSpace(bases, ops, f)
    if mode == "pod-deim":
        deim_ops = {}
        for term in TERM_NAMES:
            path = romdir / f"{term}.deim"
            deim_ops[term] = op = load_deim_operator(path)
            _check_deim_operator(op, term, bases, grid.n, path)
        tensors = deim_tensor_coefficients(deim_ops, space)
    else:
        tensors_path = romdir / "tensors.tpod"
        if tensors_path.exists():
            tensors = load_tensors(tensors_path)
            if tensors.k != {var: b.k for var, b in bases.items()}:
                raise ValueError(f"{tensors_path} holds k={'/'.join(map(str, tensors.k.values()))}"
                                 f", the bases k={'/'.join(str(b.k) for b in bases.values())}")
        else:
            tensors = build_tensor_coefficients(space)
    nt = args.nt if args.nt is not None else int(meta["nt"])
    cfg = _solver_config(args, float(meta["dt"]), nt)
    full = None
    if args.snapshots:  # the run is scored against these, so check them before it
        full = load_snapshots(args.snapshots, nonlinear=False)
        if (full.grid.nx, full.grid.ny) != (grid.nx, grid.ny):
            raise ValueError(f"{args.snapshots} is on a {full.grid.nx}x{full.grid.ny} grid, "
                             f"the reduced model on {grid.nx}x{grid.ny}")
        if full.dt != cfg.dt:
            raise ValueError(f"{args.snapshots} has dt={full.dt:g}, "
                             f"the reduced model dt={cfg.dt:g}")
        if full.nt < nt:
            raise ValueError(f"{args.snapshots} holds {full.nt} snapshots, "
                             f"fewer than the {nt} steps of --nt")
    ic = initial_state(grid, ops)
    model = ReducedModel(space, tensors, mode, cfg)
    x0 = project_initial(ic, space)
    _, traj, tm = model.run(x0, nt)
    lifted = {var: bases[var].lift(traj[var]) for var in VARIABLES}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    times = float(meta["dt"]) * np.arange(1, nt + 1)
    save_snapshots(SnapshotSet(grid=grid, dt=float(meta["dt"]), times=times,
                               states=lifted), out / "rom_trajectory.snap")
    print(f"{mode}: {nt} steps in {tm.total_s:.3f}s "
          f"(nonlinear phase {tm.nonlinear_s:.3f}s, {tm.newton_iters} Newton iterations, "
          f"{tm.rhs_evals} right-hand sides)")
    if full is not None:
        # snapshot column t and trajectory column t are both at time (t+1)*dt
        errors = trajectory_errors({var: full.states[var][:, :nt] for var in VARIABLES},
                                   lifted)
        with open(out / "metrics.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["variable", "relative_error", "rmse_final"])
            for var in VARIABLES:
                writer.writerow([var, repr(errors[var]["relerr"]),
                                 repr(errors[var]["rmse"])])
        for var in VARIABLES:
            print(f"  {var}: relative error {errors[var]['relerr']:.3e}, "
                  f"final RMSE {errors[var]['rmse']:.3e}")
    print(f"wrote {out / 'rom_trajectory.snap'}")
    return 0


def cmd_bench(args) -> int:
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig()
    if args.grid:
        cfg.grids = [_parse_grid(g) for g in args.grid]
    if window := _flag_window(args):  # the flags replace the file's whole window
        cfg.window, cfg.dt, cfg.nt = window, args.dt, args.nt
    if args.k is not None:
        cfg.k, cfg.gamma = args.k, None
    if args.gamma is not None:
        cfg.gamma, cfg.k = args.gamma, None
    if args.m:
        cfg.m_values = args.m
    if args.mode:
        cfg.modes = args.mode
    if args.out:
        cfg.out_dir = args.out
    if args.domain_km:
        cfg.domain_km = _parse_domain_km(args.domain_km)

    reports, _ = run_experiment(cfg)
    for rep in reports:
        if rep.mode == "full":
            print(f"{rep.grid} full: {rep.snapshots_s:.3f}s")
        elif rep.status != "ok":
            print(f"{rep.grid} {rep.mode}" + (f" m={rep.m}" if rep.m else "")
                  + f": {rep.status}")
        else:
            tag = f" m={rep.m}" if rep.m else ""
            print(f"{rep.grid} {rep.mode}{tag}: k={rep.k} "
                  f"offline {rep.offline_total_s:.3f}s online {rep.online_s:.3f}s "
                  f"relerr(u,v,phi)=({rep.relerr_u:.2e},{rep.relerr_v:.2e},"
                  f"{rep.relerr_phi:.2e})")
    print(f"wrote CSV reports to {cfg.out_dir}")
    return 0


def cmd_export_plots(args) -> int:
    reports_dir = Path(args.reports)
    report_path = reports_dir / "run_report.csv"
    if not report_path.exists():
        raise FileNotFoundError(f"no run_report.csv in {reports_dir}")
    reports = read_run_report(report_path)
    spectra_path = reports_dir / "spectra.csv"
    spectra = read_spectra(spectra_path) if spectra_path.exists() else None
    written = emit_plot_data(reports, args.out or reports_dir, spectra=spectra)
    for path in written:
        print(f"wrote {path}")
    return 0


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swerom",
        description="Reduced-order modeling benchmarks for the 2D shallow "
                    "water equations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flops", help="operation-count model (no args: full table)")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int, default=2)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("run-full", help="integrate the full model, record snapshots")
    p.add_argument("--grid", default="31x23")
    _add_window_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", default="full_out")
    p.set_defaults(func=cmd_run_full)

    p = sub.add_parser("build-rom", help="build reduced artifacts from snapshots")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--mode", default="tensorial-pod", choices=MODES)
    p.add_argument("--no-center", action="store_true")
    p.add_argument("--out", default="rom_out")
    p.set_defaults(func=cmd_build_rom)

    p = sub.add_parser("run-rom", help="integrate a reduced model from artifacts")
    p.add_argument("--rom", required=True, help="directory from build-rom")
    p.add_argument("--mode", choices=MODES, help="default: the mode in rom_meta.json")
    p.add_argument("--nt", type=int)
    p.add_argument("--snapshots", help="full snapshots for error metrics")
    _add_solver_flags(p)
    p.add_argument("--out", default="romrun_out")
    p.set_defaults(func=cmd_run_rom)

    p = sub.add_parser("bench", help="full sweep with CSV reports")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--grid", action="append",
                   help="NXxNY; repeat for sweeps")
    _add_window_flags(p)
    p.add_argument("--k", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--m", action="append", type=int)
    p.add_argument("--mode", action="append", choices=list(ALL_MODES))
    p.add_argument("--out")
    p.add_argument("--domain-km", help="LxD in kilometers, e.g. 6000x4400")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-plots", help="SVG charts from a bench directory")
    p.add_argument("--reports", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_plots)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # first: LinAlgError subclasses ValueError in recent NumPy
    except (NonConvergenceError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, FileFormatError, FileNotFoundError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
