#!/usr/bin/env python3
"""Benchmark for swerom: full solve, off-line builds, on-line runs, CLI verbs.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is imported from ``src/`` of the checkout the script sits in.
A run measures ``set-up`` in fresh interpreters, makes one untimed warm-up
pass that every correctness check reads, then repeats rounds of the
workload's operations, in an order shuffled by the seed, until ``--seconds``
have passed. Each end-to-end time is the 90th percentile of the run's
samples; ``setup_s`` is the median of its interpreters.
With ``--trace 1`` every other round runs with spans on and the per-layer
figures come from those rounds; the rounds without spans give the tracing
overhead. The last line of standard output is one JSON object.
"""

import os

# One BLAS thread, set before NumPy loads: threaded OpenBLAS on a small
# shared machine makes the same call vary several-fold between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5

END_TO_END = ("setup_s", "full_solve_s", "offline_tpod_s", "offline_deim_s",
              "online_pod_s", "online_tpod_s", "online_deim_s", "bench_s", "peak_rss_mb")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_code(wl) -> str:
    """What a fresh process does before its first timed call."""
    entry = "import swerom.cli" if wl.route == "cli" else (
        "import swerom.bench, swerom.deim, swerom.rom, swerom.solver")
    return (f"{entry}\nimport swerom.model as M\n"
            f"g = M.build_grid({wl.nx}, {wl.ny})\nops = M.build_operators(g)\n"
            "f = M.coriolis_field(g)\nic = M.initial_state(g, ops)\n")


def measure_setup(wl) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", setup_code(wl)], env=env, check=True,
                       cwd=ROOT, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def environment_record(wl, attempted: int, failed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"workload": wl.name, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "src_lines": src_lines, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "swerom" / "__init__.py").is_file():
        print(f"error: no swerom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        setup = measure_setup(wl)
        result = harness.run_workload(wl, workdir, args.seed, args.seconds,
                                      bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result.layer_metrics if args.trace else dict(
        result.end_to_end,
        setup_s=(statistics.median(setup), "s"),
        peak_rss_mb=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"))
    if args.trace:
        result.tracer.dump(OUT / f"spans-{wl.name}.jsonl.gz")
    env = environment_record(wl, result.attempted, result.failed)
    samples = dict(result.samples, setup_s=setup)
    record = {"env": env, "failures": result.failures, "samples_s": samples,
              "metrics": {k: v[0] for k, v in metrics.items()}}
    (OUT / f"last-{wl.name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("# env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        count = len(samples.get(name, ())) if not args.trace else 0
        how = "median" if name == "setup_s" else "90th percentile"
        print(f"# {name} = {value:.6g} {unit}" + (f"  ({how} of {count})" if count else ""))
    for failure in result.failures:
        print(f"# failed: {failure}")
    order = END_TO_END if not args.trace else list(metrics)
    print(json.dumps({
        "correct": result.correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in order}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
