#!/usr/bin/env python3
"""Record a ``BENCH_<label>.json``: benchmark metrics over repeated runs, and
digests of every output.

Usage (from the repository root):

    python3 tools/bench_record.py --label <label> [--runs 5] [--seconds 30]
                                  [--workload <name> ...] [--out <path>]

For each workload (default: all three of ``BENCHMARK.json``) the script runs
``perfbench/run.py --trace 0`` ``--runs`` times, with seeds 1, 2, ..., and
reads ``.perfbench_out/last-<workload>-trace0.json`` after each run. The
file it writes holds, per workload:

* ``metrics``: the median, min and interquartile range (numpy's linear
  percentiles) over runs of each end-to-end metric, with the run values;
* ``env``: the benchmark's environment record (``src_lines`` included),
  without the per-run operation counts;
* ``correct``: whether every run reported ``correct: true`` with 0 failed
  operations.

The ``digests`` block holds SHA-256 values of what the program computes on
each workload configuration, computed in a child interpreter with one BLAS
thread. The library route gives the full model's snapshots and counts and,
per reduced mode, its trajectory and counts. The CLI route gives every file
that ``run-full``, ``build-rom`` (tensorial-pod and pod-deim), ``run-rom``
(three modes) and ``bench`` (all modes) write, with the timing fields (JSON
keys and CSV columns ending in ``_s``) blanked. Two commits whose digest
blocks are equal computed the same trajectories, counts and files, bit for
bit, on this machine and BLAS. Only numpy and the standard library are used.

``--digests-only <workload> ... [--src <checkout>]`` prints the digest block
alone, as JSON. With ``--src`` it hashes the ``src/`` of another checkout
with this recorder and this checkout's workload configurations, so two
commits are hashed by the same code (``tools/digest_gate.py`` does this).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("paper-121x89-nt12-k8-m12", "online-61x45-nt30-k20-m25",
             "cli-61x45-nt30-k12-m24")
SPAN_NOTE = ("The on-line per-layer spans of a traced run (rom.lift_project, rom.contract, "
             "rom.jacobian, deim.evaluate, rom.step) read 0 until [perfbench-debt] lands: they "
             "wrap reference evaluators, or the per-step method, that ReducedModel.run no "
             "longer calls.")
BLANK = "T"  # what a non-empty timing field becomes


def summarize(values) -> dict:
    """Median, min and interquartile range of one metric's run values."""
    v = np.asarray(values, dtype=float)
    q1, q3 = np.percentile(v, [25, 75])
    return {"median": float(np.median(v)), "min": float(v.min()), "iqr": float(q3 - q1),
            "values": [float(x) for x in v]}


def is_timing(name: str) -> bool:
    return name.endswith("_s")


def blank_timing_fields(name: str, data: bytes) -> bytes:
    """A written file with every timing field blanked: non-empty JSON values
    and CSV cells under a key ending in ``_s`` become ``"T"``, so which
    fields are empty is still compared. Other files are returned as is."""
    if name.endswith(".json"):
        obj = json.loads(data)
        obj = {k: (BLANK if is_timing(k) and v is not None else v) for k, v in obj.items()}
        return json.dumps(obj, sort_keys=True, indent=1).encode()
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(data.decode())))
        if not rows:
            return data
        timed = [is_timing(col) for col in rows[0]]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows[1:]:
            writer.writerow([BLANK if t and cell else cell for t, cell in zip(timed, row)])
        return out.getvalue().encode()
    return data


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def counts_digest(timings) -> str:
    return sha(f"newton_iters={timings.newton_iters};rhs_evals={timings.rhs_evals};"
               f"worst_residual={timings.worst_residual!r}".encode())


# --- metrics -----------------------------------------------------------------

def run_perfbench(workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its summary line and record."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py {workload} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"last-{workload}-trace0.json").read_text())
    return {"summary": summary, "record": record}


def record_workload(workload: str, runs: int, seconds: float) -> dict:
    results = []
    for seed in range(1, runs + 1):
        res = run_perfbench(workload, seed, seconds)
        s = res["summary"]
        print(f"{workload} seed {seed}: correct {s['correct']}, failed {s['failed']}",
              file=sys.stderr)
        results.append(res)
    names = list(results[0]["record"]["metrics"])
    env = {k: v for k, v in results[0]["record"]["env"].items()
           if k not in ("attempted", "failed")}
    return {
        "env": env,
        "correct": all(r["summary"]["correct"] is True and r["summary"]["failed"] == 0
                       for r in results),
        "attempted": [r["summary"]["attempted"] for r in results],
        "failed": [r["summary"]["failed"] for r in results],
        "failures": sorted({f for r in results for f in r["record"]["failures"]}),
        "metrics": {name: summarize([r["record"]["metrics"][name] for r in results])
                    for name in names},
    }


# --- digests -----------------------------------------------------------------

def library_digests(wl) -> dict:
    import swerom.bench
    import swerom.deim
    import swerom.model
    import swerom.rom
    import swerom.solver

    grid = swerom.model.build_grid(wl.nx, wl.ny)
    ops = swerom.model.build_operators(grid)
    f = swerom.model.coriolis_field(grid)
    ic = swerom.model.initial_state(grid, ops)
    cfg = swerom.solver.SolverConfig(dt=wl.dt, nt=wl.nt)
    _, snaps, timings = swerom.solver.run_full(ic, cfg, ops, f, grid)
    out = {"full.times": array_digest(snaps.times), "full.counts": counts_digest(timings)}
    for name, X in {**snaps.states, **snaps.nonlinear}.items():
        out[f"full.{name}"] = array_digest(X)
    bases = swerom.bench.build_state_bases(snaps.states, k=wl.k)
    space = swerom.rom.ReducedSpace(bases, ops, f)
    tensors = swerom.rom.build_tensor_coefficients(space)
    deim_ops = swerom.deim.deim_operators_from_snapshots(space, snaps.nonlinear, wl.m)
    sampled = swerom.deim.deim_tensor_coefficients(deim_ops, space)
    for mode in swerom.rom.MODES:
        model = swerom.rom.ReducedModel(
            space, sampled if mode == "pod-deim" else tensors, mode, cfg)
        _, traj, tm = model.run(swerom.rom.project_initial(ic, space))
        out[f"{mode}.trajectory"] = array_digest(*(traj[var] for var in swerom.model.VARIABLES))
        out[f"{mode}.counts"] = counts_digest(tm)
    return out


def cli_digests(wl, workdir: Path) -> dict:
    import swerom.cli

    def main(*argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = swerom.cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"swerom {argv[0]} exited {code}: {err.getvalue().strip()}")

    window = ["--dt", repr(wl.dt), "--nt", wl.nt]
    snap = workdir / "full" / "snapshots.snap"
    main("run-full", "--grid", f"{wl.nx}x{wl.ny}", *window, "--out", workdir / "full")
    main("build-rom", "--snapshots", snap, "--k", wl.k, "--mode", "tensorial-pod",
         "--out", workdir / "rom_tpod")
    main("build-rom", "--snapshots", snap, "--k", wl.k, "--mode", "pod-deim", "--m", wl.m,
         "--out", workdir / "rom_deim")
    for mode in ("standard-pod", "tensorial-pod", "pod-deim"):
        rom = workdir / ("rom_deim" if mode == "pod-deim" else "rom_tpod")
        main("run-rom", "--rom", rom, "--mode", mode, "--snapshots", snap,
             "--out", workdir / f"run_{mode}")
    sweep = [a for m in wl.sweep_m for a in ("--m", m)]
    main("bench", "--grid", f"{wl.nx}x{wl.ny}", *window, "--k", wl.k, *sweep,
         "--out", workdir / "bench")
    return {path.relative_to(workdir).as_posix():
            sha(blank_timing_fields(path.name, path.read_bytes()))
            for path in sorted(workdir.rglob("*")) if path.is_file()}


def compute_digests(names, src: Path) -> dict:
    """Digests of ``src``'s swerom (``<src>/src``) on the named workloads."""
    sys.path[:0] = [str(src / "src"), str(PERFBENCH)]
    from workloads import WORKLOADS as CONFIGS

    out = {}
    for name in names:
        wl = CONFIGS[name]
        with tempfile.TemporaryDirectory() as tmp:
            out[name] = {"library": library_digests(wl), "cli": cli_digests(wl, Path(tmp))}
    return out


def digests(names, src: Path | None = None, recorder: Path | None = None) -> dict:
    """Digests computed in a fresh interpreter with one BLAS thread, by this
    recorder or by another checkout's ``recorder`` (which may predate
    ``--src``), of ``src``'s swerom or, without ``src``, of the recorder's own."""
    recorder = recorder or Path(__file__).resolve()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src_args = [] if src is None else ["--src", str(src)]
    proc = subprocess.run([sys.executable, str(recorder), "--digests-only", *names, *src_args],
                          cwd=recorder.parent.parent, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"digest run exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


# --- main --------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", help="names the output BENCH_<label>.json")
    p.add_argument("--runs", type=int, default=5, help="perfbench runs per workload")
    p.add_argument("--seconds", type=float, default=30.0, help="length of each run")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="a workload to record (repeatable; default all)")
    p.add_argument("--out", type=Path, help="output path (default BENCH_<label>.json)")
    p.add_argument("--digests-only", nargs="+", metavar="WORKLOAD", choices=WORKLOADS,
                   help="print the digest block of these workloads as JSON, and nothing else")
    p.add_argument("--src", type=Path,
                   help="with --digests-only: the checkout whose src/ is hashed "
                        "(default this one)")
    args = p.parse_args(argv)
    if args.src is not None:
        if args.digests_only is None:
            p.error("--src needs --digests-only")
        if not (args.src / "src" / "swerom" / "__init__.py").is_file():
            p.error(f"--src {args.src}: no src/swerom/__init__.py there")
    if args.digests_only is None:
        if not args.label:
            p.error("--label is required")
        if args.runs < 1 or args.seconds <= 0:
            p.error("--runs must be at least 1 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.digests_only is not None:
        print(json.dumps(compute_digests(args.digests_only, (args.src or ROOT).resolve())))
        return 0
    names = args.workload or list(WORKLOADS)
    record = {"label": args.label, "runs": args.runs, "seconds": args.seconds,
              "note": SPAN_NOTE, "workloads": {}}
    for name in names:
        record["workloads"][name] = record_workload(name, args.runs, args.seconds)
    record["correct"] = all(w["correct"] for w in record["workloads"].values())
    record["digests"] = digests(names)
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
