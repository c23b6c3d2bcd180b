"""Runs one workload: warm-up pass, checks, timed rounds, metrics."""

from __future__ import annotations

import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from oracles import CheckFailed, check_same_arrays
from tracing import Tracer
from workloads import MODES, OP_METRIC, make_route

import swerom.flops

# dependency order of the warm-up pass
WARMUP_ORDER = ("full", "offline_tpod", "offline_deim", "online_pod", "online_tpod",
                "online_deim", "outputs", "sweep")


@dataclass
class Result:
    end_to_end: dict = field(default_factory=dict)     # name -> (value, unit)
    layer_metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    samples: dict = field(default_factory=dict)        # end-to-end name -> [s], in order
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    failures: list = field(default_factory=list)
    tracer: Tracer | None = None


def run_workload(wl, workdir, seed: int, seconds: float, trace: bool) -> Result:
    route = make_route(wl, workdir)
    ops = wl.round_ops()
    res = Result()
    for op in WARMUP_ORDER:
        if op in ops:
            route.ref[op] = route.run(op)
    try:
        route.verify()
    except CheckFailed as err:
        res.correct = False
        res.failures.append(f"check: {err}")

    tracer = Tracer()
    if trace:
        tracer.install()
    samples = defaultdict(list)   # op -> [(seconds, traced)]
    untimed = []                  # sweep wall minus the report's timing columns
    round_walls = []              # (seconds, traced)
    rng = random.Random(seed)
    t_start = time.perf_counter()
    rnd = 0
    try:
        # start a round only if it should end within the run's time (a traced
        # run needs one round with spans and one without)
        while (time.perf_counter() - t_start + _median([w for w, _ in round_walls])
               <= seconds or rnd < (2 if trace else 1)):
            traced = trace and rnd % 2 == 0
            order = list(ops)
            rng.shuffle(order)
            wall = 0.0
            for op in order:
                tracer.op, tracer.round, tracer.enabled = op, rnd, traced
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = route.run(op)
                except Exception as err:  # an operation of the program failed
                    res.failed += 1
                    res.failures.append(f"round {rnd} {op}: {type(err).__name__}: {err}")
                    continue
                finally:
                    elapsed = time.perf_counter() - t0
                    tracer.enabled = False
                wall += elapsed
                samples[op].append((elapsed, traced))
                try:
                    check_same_arrays(op, route.fingerprint(op, out),
                                      route.fingerprint(op, route.ref[op]))
                except CheckFailed as err:
                    res.correct = False
                    res.failures.append(f"round {rnd} {op}: not repeatable: {err}")
                if op == "sweep":
                    untimed.append((elapsed - route.sweep_timed_columns(out), traced))
            round_walls.append((wall, traced))
            rnd += 1
    finally:
        tracer.uninstall()

    for op, metric in OP_METRIC.items():
        if metric is None or op not in ops:
            continue
        plain = [s for s, traced in samples[op] if not traced]
        res.end_to_end[metric] = (ninetieth_percentile(plain), "s")
        res.samples[metric] = plain
    if trace:
        res.tracer = tracer
        res.layer_metrics = layer_metrics(tracer, wl, route, untimed, round_walls)
    return res


def ninetieth_percentile(values) -> float:
    """90th percentile of a run's samples, interpolated between order statistics.

    The host switches between a fast and a slow state within seconds. Most
    samples fall in the slow state, whose cost stays steady from run to run,
    but some runs are fast for most of their length. A high percentile
    tracks the slow state; the median follows the fast share of the run.
    Over ten 30 s runs per workload, the largest run-to-run spread of a
    timed operation was 0.06-0.12 for the 90th percentile and 0.11-0.33
    for the median, depending on the period.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(tr: Tracer, wl, route, untimed, round_walls) -> dict:
    """Per-layer figures from the traced rounds.

    Times and counts are per round over the pipeline operations (everything
    but the sweep, which the ``bench.*`` figures describe); ``_us``/``_ms``
    figures are medians per call.
    """
    durations = tr.durations()
    traced_rounds = sorted({r for r in tr.rounds})
    by_name = defaultdict(list)
    for idx, name in enumerate(tr.names):
        by_name[name].append(idx)

    def select(name, where=None):
        return [i for i in by_name[name]
                if tr.ops[i] != "sweep" and (where is None or where(i))]

    def per_round(idxs, value=lambda i: durations[i]):
        totals = {r: 0.0 for r in traced_rounds}
        for i in idxs:
            totals[tr.rounds[i]] += value(i)
        return _median(list(totals.values()))

    def total_s(name, where=None):
        return (per_round(select(name, where)), "s")

    def calls(name, where=None):
        return (per_round(select(name, where), value=lambda i: 1), "count")

    def per_call_us(name, where=None):
        return (_median([durations[i] for i in select(name, where)]) * 1e6, "us")

    def run_value(key):
        return (per_round(select("solver.run_full"), value=lambda i: tr.values[i][key]),
                "count" if key == "newton_iters" else "s")

    def mode_runs(mode):
        return select("rom.run", lambda i: tr.ops[i] == f"online_{mode}")

    m = {
        "solver.step_ms": (per_call_us("solver.step")[0] / 1e3, "ms"),
        "solver.splu_calls": calls("solver.splu"),
        "solver.splu_s": total_s("solver.splu"),
        "solver.newton_iters": run_value("newton_iters"),
        "solver.assembly_s": run_value("assembly_s"),
        "solver.factorization_s": run_value("factorization_s"),
        "solver.solve_s": run_value("solve_s"),
        "solver.recording_s": run_value("recording_s"),
        "model.all_nonlinear_s": total_s("model.all_nonlinear"),
        "pod.svd_calls": calls("pod.svd"),
        "pod.svd_s": total_s("pod.svd"),
        "pod.state_bases_s": total_s("pod.state_bases"),
        "pod.basis_load_s": total_s("pod.load_basis"),
        "rom.space_s": total_s("rom.space"),
        "rom.tensor_build_s": total_s("rom.tensor_build"),
        "rom.tensor_mb": (route.tensor_bytes() / 2**20, "MiB"),
        "rom.tensor_save_s": total_s("rom.tensor_save"),
        "rom.tensor_load_s": total_s("rom.tensor_load"),
    }
    for short, span in (("lift_project", "rom.lift_project"), ("contract", "rom.contract"),
                        ("jacobian", "rom.jacobian"), ("lu_factor", "rom.lu_factor")):
        m[f"rom.{short}_us"] = per_call_us(span)
        m[f"rom.{short}_calls"] = calls(span)
    for mode in MODES:
        runs = set(mode_runs(mode))
        m[f"rom.step_us.{mode}"] = per_call_us("rom.step", lambda i: tr.parents[i] in runs)
        m[f"rom.newton_iters.{mode}"] = (
            _median([tr.values[i]["newton_iters"] for i in runs]), "count")
        m[f"rom.nonlinear_s.{mode}"] = (
            _median([tr.values[i]["nonlinear_s"] for i in runs]), "s")
    m.update({
        "deim.svd_s": total_s("pod.svd", lambda i: tr.ops[i] == "offline_deim"
                              and "pod.state_bases" not in tr.ancestor_names(i)),
        "deim.points_s": total_s("deim.points"),
        "deim.projector_s": total_s("deim.projector"),
        "deim.sampled_tensor_s": total_s("deim.sampled_tensor"),
        "deim.evaluate_us": per_call_us("deim.evaluate"),
        "deim.evaluate_calls": calls("deim.evaluate"),
        "deim.op_save_s": total_s("deim.op_save"),
        "deim.op_load_s": total_s("deim.op_load"),
        "snapshots.save_s": total_s("snapshots.save"),
        "snapshots.load_s": total_s("snapshots.load"),
        "snapshots.file_mb": (route.snapshot_file_bytes() / 2**20, "MiB"),
        "bench.untimed_s": (_median([u for u, traced in untimed if not traced]), "s"),
        "bench.svd_calls": (per_round([i for i in by_name["pod.svd"]
                                       if tr.ops[i] == "sweep"], value=lambda i: 1), "count"),
        "bench.csv_mb": (route.sweep_csv_bytes() / 2**20, "MiB"),
        "metrics.errors_s": total_s("metrics.errors"),
    })
    n, k = wl.nx * wl.ny, wl.k
    for mode, method in MODES.items():
        m[f"flops.term.{mode}"] = (swerom.flops.flop_count(method, n=n, k=k, m=wl.m), "count")
    plain = [w for w, traced in round_walls if not traced]
    spanned = [w for w, traced in round_walls if traced]
    m["trace.overhead_pct"] = (100.0 * (_median(spanned) / _median(plain, 1.0) - 1.0), "%")
    return m
