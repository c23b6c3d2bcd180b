import csv
import io
from dataclasses import fields, replace

import numpy as np
import pytest

from swerom import bench
from swerom.bench import (
    ExperimentConfig,
    RunReport,
    read_run_report,
    resolve_window,
    run_experiment,
)
from swerom.cli import main
from swerom.errors import NonConvergenceError
from swerom.model import TERM_NAMES
from swerom.plots import emit_plot_data, svg_line_plot
from swerom.pod import build_state_bases
from swerom.rom import ReducedModel
from swerom.solver import AdiNewton, FullSolver


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = ExperimentConfig(grids=[(13, 11)], window="custom", dt=300.0, nt=10,
                           k=5, m_values=[8], out_dir=str(out))
    reports, extras = run_experiment(cfg)
    return cfg, reports, extras, out


def test_config_validation():
    with pytest.raises(ValueError, match="unknown mode"):
        ExperimentConfig(modes=["full", "magic"]).validate()
    with pytest.raises(ValueError, match="window"):
        ExperimentConfig(window="12h").validate()
    with pytest.raises(ValueError, match="dt and nt"):
        ExperimentConfig(window="custom").validate()
    with pytest.raises(ValueError, match="the 3h window sets dt and nt"):
        ExperimentConfig(window="3h", nt=5).validate()
    with pytest.raises(ValueError, match="pod-deim needs at least one m"):
        ExperimentConfig(m_values=[]).validate()
    ExperimentConfig(m_values=[], modes=["full", "tensorial-pod"]).validate()
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(k=5, gamma=0.99).validate()
    for gamma in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="gamma must lie in"):
            ExperimentConfig(k=None, gamma=gamma).validate()
    ExperimentConfig(k=None, gamma=1.0).validate()
    ExperimentConfig().validate()


def test_window_table():
    assert resolve_window("24h", None, None) == (960.0, 91)
    assert resolve_window("3h", None, None) == (120.0, 91)
    assert resolve_window("custom", 300, 5) == (300.0, 5)


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"grids": [[9, 7]], "k": 4, "window": "3h", "m_values": [5]}')
    cfg = ExperimentConfig.from_json(path)
    assert cfg.grids == [(9, 7)]
    assert cfg.k == 4
    with pytest.raises(ValueError, match="unknown config keys"):
        path.write_text('{"bogus": 1}')
        ExperimentConfig.from_json(path)


def test_build_state_bases_shared_k():
    rng = np.random.default_rng(0)
    states = {var: rng.standard_normal((30, 8)) for var in ("u", "v", "phi")}
    bases = build_state_bases(states, k=4)
    assert all(bases[v].k == 4 for v in ("u", "v", "phi"))
    bases_g = build_state_bases(states, gamma=0.999)
    ks = {bases_g[v].k for v in ("u", "v", "phi")}
    assert len(ks) == 1  # shared count: the largest per-variable selection


def test_full_only_mode(tmp_path):
    cfg = ExperimentConfig(grids=[(9, 7)], window="custom", dt=200.0, nt=4,
                           k=3, modes=["full"], out_dir=str(tmp_path))
    reports, _ = run_experiment(cfg)
    assert len(reports) == 1
    assert reports[0].mode == "full"
    assert reports[0].relerr_u is None
    assert reports[0].snapshots_s > 0.0


def test_sweep_report_rows(small_sweep):
    cfg, reports, extras, out = small_sweep
    modes = [r.mode for r in reports]
    assert modes == ["full", "standard-pod", "tensorial-pod", "pod-deim"]
    for rep in reports[1:]:
        assert rep.status == "ok"
        assert rep.relerr_u is not None and rep.relerr_u >= 0.0
        assert rep.online_s > 0.0
        assert rep.offline_total_s > rep.snapshots_s
        assert rep.flops_model > 0


def test_standard_vs_tensorial_rows_agree(small_sweep):
    _, reports, _, _ = small_sweep
    std = next(r for r in reports if r.mode == "standard-pod")
    tns = next(r for r in reports if r.mode == "tensorial-pod")
    for var in ("u", "v", "phi"):
        a = getattr(std, f"relerr_{var}")
        b = getattr(tns, f"relerr_{var}")
        assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


def test_timing_decomposition_accounts_for_run(small_sweep):
    _, reports, _, _ = small_sweep
    for rep in reports:
        if rep.mode == "full" or rep.status != "ok":
            continue
        accounted = (rep.offline_total_s - rep.snapshots_s) + rep.online_s
        assert accounted == pytest.approx(rep.end_to_end_s, rel=0.05)


def test_csv_outputs_exist_and_parse(small_sweep):
    cfg, reports, extras, out = small_sweep
    assert (out / "run_report.csv").exists()
    assert (out / "spectra.csv").exists()
    assert (out / "deim_points.csv").exists()
    assert (out / "timing_vs_n.csv").exists()
    back = read_run_report(out / "run_report.csv")
    assert len(back) == len(reports)
    assert back[0].mode == "full"
    assert back[1].relerr_u == pytest.approx(reports[1].relerr_u)
    assert [r.worst_residual for r in back] == [r.worst_residual for r in reports]
    assert all(0.0 < r.worst_residual <= cfg.newton_tol for r in back if r.status == "ok")
    # header plus one row per successful report
    lines = (out / "timing_vs_n.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + sum(1 for r in reports if r.status == "ok")


def test_deim_cond_max_column(tmp_path, monkeypatch):
    # the largest cond(P^T V) of a pod-deim row's six operators; empty in the
    # other rows and in a pod-deim row whose operators fail (m above nt)
    built = []
    deim_operators = bench.deim_operators

    def recording(*args):
        built.append(deim_operators(*args))
        return built[-1]

    monkeypatch.setattr(bench, "deim_operators", recording)
    cfg = ExperimentConfig(grids=[(9, 7)], window="custom", dt=200.0, nt=6, k=3,
                           m_values=[4, 8], out_dir=str(tmp_path))
    reports, _ = run_experiment(cfg)
    assert [(r.mode, r.m, r.status[:6]) for r in reports[-2:]] == [
        ("pod-deim", 4, "ok"), ("pod-deim", 8, "failed")]
    assert len(built) == 1
    cond = max(op.cond for op in built[0].values())
    assert cond >= 1.0
    assert [r.deim_cond_max for r in reports] == [None] * (len(reports) - 2) + [cond, None]
    back = read_run_report(tmp_path / "run_report.csv")
    assert [r.deim_cond_max for r in back] == [r.deim_cond_max for r in reports]


def test_deim_points_rows_complete(small_sweep):
    # one row per selected point: m_max = 8 per term, in selection order
    cfg, reports, extras, out = small_sweep
    with open(out / "deim_points.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    nx, n = 13, 13 * 11
    assert len(rows) == 6 * 8
    assert [r["term"] for r in rows] == [t for t in TERM_NAMES for _ in range(8)]
    for term in TERM_NAMES:
        own = [r for r in rows if r["term"] == term]
        assert [int(r["deim_order"]) for r in own] == list(range(1, 9))
        index = [int(r["index"]) for r in own]
        assert len(set(index)) == 8 and all(0 <= i < n for i in index)
        assert [(int(r["ix"]), int(r["iy"])) for r in own] == [(i % nx, i // nx)
                                                               for i in index]


@pytest.mark.parametrize("name", ["deim_points.csv", "spectra.csv"])
def test_diagnostic_tables_match_csv_writer(small_sweep, name):
    # csv.writer with repr floats gives the same bytes (header, CRLF line
    # ends, shortest-repr floats), so the tables read back exactly
    _, _, _, out = small_sweep
    raw = (out / name).read_bytes()
    with open(out / name, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    float_columns = {"x_m", "y_m", "max_abs_over_time", "sigma", "lambda"}
    for row in rows:
        writer.writerow([repr(float(v)) if c in float_columns else v
                         for c, v in zip(header, row)])
    assert len(rows) > 0
    assert buf.getvalue().encode() == raw


def test_one_svd_per_snapshot_matrix(tmp_path, monkeypatch):
    # 3 state + 6 term matrices per grid and one point selection per term,
    # shared by every row, the spectra and the DEIM-point export
    svd, select = np.linalg.svd, bench.deim_select_points
    calls, selections = [], []

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    def counting_select(V):
        selections.append(V.shape)
        return select(V)

    grid = dict(grids=[(13, 11)], window="custom", dt=300.0, nt=10, k=5)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(bench, "deim_select_points", counting_select)
    reports, _ = run_experiment(ExperimentConfig(**grid, m_values=[6, 8],
                                                 out_dir=str(tmp_path / "all")))
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(bench, "deim_select_points", select)
    assert len(calls) == 9
    assert selections == [(13 * 11, 8)] * 6
    assert [(r.mode, r.m) for r in reports] == [
        ("full", None), ("standard-pod", None), ("tensorial-pod", None),
        ("pod-deim", 6), ("pod-deim", 8)]
    # each row equals a sweep of its mode (and m) alone, so no row sees a
    # shared object another row changed
    for i, rep in enumerate(reports):
        alone, _ = run_experiment(ExperimentConfig(
            **grid, modes=[rep.mode], m_values=[rep.m or 6],
            out_dir=str(tmp_path / f"alone{i}")))
        assert len(alone) == 1
        for f in fields(RunReport):
            if not f.name.endswith("_s"):  # wall-clock columns
                assert getattr(alone[0], f.name) == getattr(rep, f.name), (rep.mode, f.name)


def test_failed_point_selection_exits_3(tmp_path, capsys, monkeypatch):
    # a sweep has one point selection per grid and no fallback: a selection
    # that raises ends the sweep as a numerical failure
    def degenerate(V):
        raise np.linalg.LinAlgError("degenerate interpolation residual at selection stage 0")

    monkeypatch.setattr(bench, "deim_select_points", degenerate)
    assert main(["bench", "--grid", "13x11", "--dt", "300", "--nt", "10", "--k", "5",
                 "--mode", "pod-deim", "--m", "6", "--m", "8",
                 "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure: degenerate interpolation residual" in capsys.readouterr().err


def test_failed_rows_recorded_and_sweep_continues(tmp_path):
    # m larger than the snapshot count cannot build a sampled operator; the
    # row is recorded as failed while the other modes still complete
    cfg = ExperimentConfig(grids=[(9, 7)], window="custom", dt=200.0, nt=4,
                           k=3, modes=["full", "tensorial-pod", "pod-deim"],
                           m_values=[50], out_dir=str(tmp_path))
    reports, _ = run_experiment(cfg)
    deim_row = next(r for r in reports if r.mode == "pod-deim")
    assert deim_row.status != "ok"
    assert deim_row.relerr_u is None
    assert next(r for r in reports if r.mode == "tensorial-pod").status == "ok"


def test_full_run_failure_is_structured(tmp_path):
    cfg = ExperimentConfig(grids=[(9, 7)], window="custom", dt=200.0, nt=2,
                           k=3, modes=["full", "tensorial-pod"],
                           newton_max_iters=1, newton_tol=1e-300,
                           out_dir=str(tmp_path))
    reports, _ = run_experiment(cfg)
    assert len(reports) == 1
    assert reports[0].mode == "full"
    assert reports[0].status.startswith("nonconverged")


def test_failed_state_stage_fails_each_reduced_row(tmp_path):
    # one step gives one snapshot, which centring zeroes: the shared state
    # stage fails once, every reduced row records its error, the full row
    # stands, and the state spectra come from their own SVDs
    out = tmp_path / "b"
    assert main(["bench", "--grid", "9x7", "--dt", "120", "--nt", "1", "--gamma", "0.9",
                 "--m", "1", "--out", str(out)]) == 0
    reports = read_run_report(out / "run_report.csv")
    assert [(rep.mode, rep.m, rep.status) for rep in reports] == [("full", None, "ok")] + [
        (mode, m, "failed: ValueError: spectrum is identically zero")
        for mode, m in (("standard-pod", None), ("tensorial-pod", None), ("pod-deim", 1))]
    assert reports[0].newton_iters > 0
    assert all(rep.k is None and rep.online_s is None for rep in reports[1:])
    with open(out / "spectra.csv", newline="") as fh:
        rows = [(r["kind"], r["name"], int(r["index"]), float(r["sigma"]), float(r["lambda"]))
                for r in csv.DictReader(fh)]
    assert rows[:3] == [("state", var, 1, 0.0, 0.0) for var in ("u", "v", "phi")]
    assert [(kind, name, i) for kind, name, i, _, _ in rows[3:]] == [
        ("nonlinear", term, 1) for term in TERM_NAMES]
    assert all(sigma > 0.0 for _, _, _, sigma, _ in rows[3:])


@pytest.mark.parametrize("failing", [FullSolver, ReducedModel], ids=["full", "reduced"])
def test_nonconverged_row_keeps_its_work(tmp_path, monkeypatch, failing):
    # the run fails on its second step; the row keeps what the first step spent
    advance = AdiNewton._advance
    spent = []

    def second_step_fails(self, w, r, step_index, timings):
        if step_index == 1 and isinstance(self, failing):
            spent.append(replace(timings))
            raise NonConvergenceError("stalled", residual=0.5, iterations=25)
        return advance(self, w, r, step_index, timings)

    monkeypatch.setattr(AdiNewton, "_advance", second_step_fails)
    cfg = ExperimentConfig(grids=[(9, 7)], window="custom", dt=200.0, nt=3, k=3,
                           modes=["full", "tensorial-pod"], out_dir=str(tmp_path))
    reports, _ = run_experiment(cfg)
    rep, (first_step,) = reports[-1], spent
    assert rep.mode == ("full" if failing is FullSolver else "tensorial-pod")
    assert rep.status == "nonconverged: residual 5.000e-01 after 25 iterations"
    assert rep.newton_iters == first_step.newton_iters > 0
    assert rep.worst_residual == first_step.worst_residual > 0.0
    if failing is ReducedModel:
        assert rep.online_nonlinear_s == first_step.nonlinear_s > 0.0
        assert rep.online_s > rep.online_nonlinear_s
        assert rep.relerr_u is None
    else:
        assert rep.online_s is None


# --- plots ------------------------------------------------------------------------

def test_emit_plot_data_empty_rejected(tmp_path):
    with pytest.raises(ValueError, match="nothing to plot"):
        emit_plot_data([], tmp_path)


def test_emit_plot_data_svg(small_sweep, tmp_path):
    _, reports, extras, _ = small_sweep
    written = emit_plot_data(reports, tmp_path, spectra=extras["spectra"])
    assert any(p.name == "online_time_vs_n.svg" for p in written)
    assert any("spectra_state" in p.name for p in written)
    for path in written:
        text = path.read_text()
        assert text.startswith("<svg") and text.endswith("</svg>")
    # determinism
    again = tmp_path / "again"
    emit_plot_data(reports, again, spectra=extras["spectra"])
    for path in written:
        assert path.read_bytes() == (again / path.name).read_bytes()


def test_svg_line_plot_validation(tmp_path):
    with pytest.raises(ValueError, match="nothing to plot"):
        svg_line_plot([], tmp_path / "x.svg")
