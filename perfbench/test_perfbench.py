"""Tests of the benchmark itself on a small 31x23 configuration.

Every check passes on the program's real outputs, and each one fails when
its input is corrupted: a perturbed tensor, a swapped trajectory, a
truncated file, a wrong report value.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import oracles  # noqa: E402
import swerom.rom  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from workloads import CliRoute, LibraryRoute, Workload, lift  # noqa: E402

SMALL = Workload(name="small-31x23", route="library", nx=31, ny=23, dt=120.0, nt=16,
                 k=6, m=10, sweep_modes=("full", "pod-deim"), sweep_m=(10,),
                 online_repeats=1, why="tests")


def warm(route):
    for op in harness.WARMUP_ORDER:
        if op in route.wl.round_ops():
            route.ref[op] = route.run(op)
    return route


@pytest.fixture(scope="module")
def lib(tmp_path_factory):
    return warm(LibraryRoute(SMALL, tmp_path_factory.mktemp("lib")))


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    wl = dataclasses.replace(SMALL, route="cli",
                             sweep_modes=("full", "standard-pod", "tensorial-pod", "pod-deim"))
    return warm(CliRoute(wl, tmp_path_factory.mktemp("cli")))


def test_library_route_passes_every_check(lib):
    lib.verify()


def test_cli_route_passes_every_check(cli):
    cli.verify()


def test_full_run_check_catches_wall_velocity_nan_and_cfl(lib):
    snaps = lib.ref["full"]["snaps"]
    g = lib.grid
    bad = {k: v.copy() for k, v in snaps.states.items()}
    bad["v"][0, 3] = 1e-3
    with pytest.raises(CheckFailed, match="walls"):
        oracles.check_full_run(bad, g.nx, SMALL.dt, g.dx)
    bad = {k: v.copy() for k, v in snaps.states.items()}
    bad["u"][5, 5] = np.nan
    with pytest.raises(CheckFailed, match="non-finite"):
        oracles.check_full_run(bad, g.nx, SMALL.dt, g.dx)
    with pytest.raises(CheckFailed, match="CFL"):
        oracles.check_full_run(snaps.states, g.nx, 100 * SMALL.dt, g.dx)


def test_swapped_trajectory_fails_pod_tpod_agreement(lib):
    bases = lib.ref["offline_tpod"]["bases"]
    pod = lift(bases, lib.ref["online_pod"]["traj"])
    deim = lift(bases, lib.ref["online_deim"]["traj"])
    with pytest.raises(CheckFailed, match="trajectories differ"):
        oracles.check_pod_equals_tpod(pod, deim)


def test_error_floor_check_catches_wrong_and_impossible_errors(lib):
    snaps = lib.ref["full"]["snaps"]
    bases = lib.ref["offline_tpod"]["bases"]
    lifted = lift(bases, lib.ref["online_tpod"]["traj"])
    errors = copy.deepcopy(lib.ref["outputs"]["errors"]["tpod"])
    errors["phi"]["relerr"] *= 1.001
    with pytest.raises(CheckFailed, match="reported error"):
        oracles.check_error_floor("tpod", snaps.states, lifted, bases, errors)
    # a "reduced" trajectory equal to the full one beats projection: impossible
    exact = {v: {"relerr": 0.0, "rmse": 0.0} for v in snaps.states}
    with pytest.raises(CheckFailed, match="below the projection floor"):
        oracles.check_error_floor("tpod", snaps.states, snaps.states, bases, exact)


def test_perturbed_sampled_tensor_fails_contraction(lib):
    built = lib.ref["offline_deim"]
    tensors = copy.deepcopy(built["tensors"])
    tensors.terms["F21"].products[0].quad[0, 0, 0] += 1e-6
    with pytest.raises(CheckFailed, match="F21"):
        oracles.check_sampled_contraction(built["deim_ops"], tensors,
                                          lib.ref["online_deim"]["traj"])


def test_perturbed_full_tensor_fails_slice_check(lib):
    built = lib.ref["offline_tpod"]
    tensors = copy.deepcopy(built["tensors"])
    tensors.terms["F22"].products[1].quad[SMALL.k // 2, 1, 2] *= 1.0 + 1e-6
    g = lib.grid
    with pytest.raises(CheckFailed, match="F22"):
        oracles.check_tensor_slices(tensors, built["bases"], g.nx, g.ny, g.dx, g.dy)


def test_truncated_or_altered_files_fail(lib, tmp_path):
    path = lib.ref["outputs"]["dir"] / "snapshots.snap"
    truncated = tmp_path / "cut.snap"
    truncated.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckFailed, match="expected"):
        oracles.read_snapshot_file(truncated)
    loaded = copy.deepcopy(lib.ref["outputs"]["loaded"]["deim_ops"])
    loaded["F32"].E[0, 0] = np.nextafter(loaded["F32"].E[0, 0], np.inf)
    with pytest.raises(CheckFailed, match="F32"):
        oracles.check_same_arrays("deim operators", lib.ref["offline_deim"]["deim_ops"],
                                  loaded)


def test_padded_file_fails_reload(cli, tmp_path):
    # load_tensors accepts trailing bytes, so only the re-save comparison sees them
    padded = tmp_path / "tensors.tpod"
    padded.write_bytes((cli.dir / "rom_tpod" / "tensors.tpod").read_bytes() + b"\0" * 8)
    with pytest.raises(CheckFailed, match="other bytes"):
        cli.reload(padded, swerom.rom.load_tensors, swerom.rom.save_tensors)


def test_wrong_errors_fail_route_agreement(lib):
    a = lib.ref["outputs"]["errors"]["pod"]
    b = copy.deepcopy(a)
    b["u"]["rmse"] *= 1.0 + 1e-9
    with pytest.raises(CheckFailed, match="rmse"):
        oracles.check_errors_equal("pod", a, b)


def test_altered_spectrum_fails(lib, tmp_path):
    src = lib.ref["sweep"]["dir"] / "spectra.csv"
    lines = src.read_text().splitlines()
    cells = lines[1].split(",")
    cells[5] = repr(float(cells[5]) * 1.01)
    lines[1] = ",".join(cells)
    bad = tmp_path / "spectra.csv"
    bad.write_text("\n".join(lines) + "\n")
    snaps = lib.ref["full"]["snaps"]
    oracles.check_spectra(src, snaps.states, snaps.nonlinear)
    with pytest.raises(CheckFailed, match="singular values"):
        oracles.check_spectra(bad, snaps.states, snaps.nonlinear)


def test_failed_bench_row_fails(lib):
    rows = [dict(vars(r)) for r in lib.ref["sweep"]["reports"]]
    rows[-1]["status"] = "nonconverged: residual 1e-3 after 25 iterations"
    with pytest.raises(CheckFailed, match="not ok"):
        oracles.check_report_status(rows)


# Repeats are compared bit for bit, which holds with one BLAS thread; the
# pin must precede NumPy's import, so the run happens in a fresh interpreter.
RUN_SMALL = """
import os
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
import dataclasses, json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import harness
from test_perfbench import SMALL
wl = dataclasses.replace(SMALL, route=sys.argv[3])
out = {}
for trace in (False, True):
    res = harness.run_workload(wl, Path(sys.argv[4]) / str(trace), seed=3, seconds=0,
                               trace=trace)
    out[str(trace)] = {"correct": res.correct, "failed": res.failed,
                       "attempted": res.attempted, "failures": res.failures,
                       "end_to_end": sorted(res.end_to_end),
                       "layers": {k: v[0] for k, v in res.layer_metrics.items()}}
print(json.dumps(out))
"""


@pytest.mark.parametrize("route", ["library", "cli"])
def test_run_reports_every_declared_metric(route, tmp_path):
    """A traced and an untraced run emit exactly the metrics BENCHMARK.json lists."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "-c", RUN_SMALL, str(HERE.parent / "src"),
                           str(HERE), route, str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    for res in runs.values():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res["failures"]
    declared = {m["name"] for m in spec["end_to_end"]} - {"setup_s", "peak_rss_mb"}
    assert set(runs["False"]["end_to_end"]) == declared
    layers = runs["True"]["layers"]
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert layers["solver.newton_iters"] > 0 and layers["pod.svd_calls"] > 0
