"""In-memory span tracer that wraps swerom's public calls from outside.

A span is recorded at each wrapped call: its name, start, end, the span that
caused it (parent), the benchmark operation it ran under and the round. The
wrappers replace the module attributes that callers look the functions up
through, so ``swerom.cli`` (which binds names at import) and the library
modules are traced alike; methods are wrapped on their class. NumPy's SVD and
SciPy's sparse LU and dense LU factorization are wrapped the same way, so
their calls count at the boundary where swerom makes them.

The wrappers are installed only for a traced run; in its rounds without
spans (:attr:`Tracer.enabled` unset) a wrapper costs one attribute test per
call. Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass, field

# (span name, "module" or "module:Class" that owns the attribute, attribute)
TARGETS = (
    ("model.build_grid", "swerom.model", "build_grid"),
    ("model.build_operators", "swerom.model", "build_operators"),
    ("model.initial_state", "swerom.model", "initial_state"),
    ("model.all_nonlinear", "swerom.model", "all_nonlinear"),
    ("solver.run_full", "swerom.solver", "run_full"),
    ("solver.step", "swerom.solver:FullSolver", "step"),
    ("solver.splu", "scipy.sparse.linalg", "splu"),
    ("snapshots.save", "swerom.snapshots", "save_snapshots"),
    ("snapshots.load", "swerom.snapshots", "load_snapshots"),
    ("pod.svd", "numpy.linalg", "svd"),
    ("pod.state_bases", "swerom.bench", "build_state_bases"),
    ("pod.save_basis", "swerom.pod", "save_basis"),
    ("pod.load_basis", "swerom.pod", "load_basis"),
    ("rom.space", "swerom.rom:ReducedSpace", "__init__"),
    ("rom.tensor_build", "swerom.rom", "build_tensor_coefficients"),
    ("rom.tensor_save", "swerom.rom", "save_tensors"),
    ("rom.tensor_load", "swerom.rom", "load_tensors"),
    ("rom.project_initial", "swerom.rom", "project_initial"),
    ("rom.lift_project", "swerom.rom", "standard_pod_nonlinear"),
    ("rom.contract", "swerom.rom", "tensorial_nonlinear"),
    ("rom.jacobian", "swerom.rom", "reduced_jacobian"),
    ("rom.lu_factor", "scipy.linalg", "lu_factor"),
    ("rom.run", "swerom.rom:ReducedModel", "run"),
    ("rom.step", "swerom.rom:ReducedModel", "step"),
    ("deim.operators", "swerom.deim", "deim_operators_from_snapshots"),
    ("deim.points", "swerom.deim", "deim_select_points"),
    ("deim.projector", "swerom.deim", "build_deim_term_operator"),
    ("deim.sampled_tensor", "swerom.deim", "deim_tensor_coefficients"),
    ("deim.evaluate", "swerom.deim:DeimTermOperator", "evaluate"),
    ("deim.op_save", "swerom.deim", "save_deim_operator"),
    ("deim.op_load", "swerom.deim", "load_deim_operator"),
    ("metrics.errors", "swerom.metrics", "trajectory_errors"),
    ("flops.flop_count", "swerom.flops", "flop_count"),
    ("bench.run_experiment", "swerom.bench", "run_experiment"),
    ("cli.run_full", "swerom.cli", "cmd_run_full"),
    ("cli.build_rom", "swerom.cli", "cmd_build_rom"),
    ("cli.run_rom", "swerom.cli", "cmd_run_rom"),
    ("cli.bench", "swerom.cli", "cmd_bench"),
)

# spans whose return value (or receiver) carries numbers worth keeping
_RECORDERS = {
    "solver.run_full": lambda args, out: {
        k: getattr(out[2], k) for k in ("assembly_s", "factorization_s", "solve_s",
                                        "recording_s", "newton_iters", "steps")},
    "rom.run": lambda args, out: {"mode": args[0].mode,
                                  "newton_iters": out[2].newton_iters,
                                  "nonlinear_s": out[2].nonlinear_s},
}


@dataclass
class Tracer:
    """Span store plus the attribute patches that feed it."""

    enabled: bool = False
    op: str = ""
    round: int = -1
    names: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        recorder = _RECORDERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op)
            tracer.rounds.append(tracer.round)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()
            if recorder is not None:
                tracer.values[idx] = recorder(args, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every target where callers look it up."""
        # load every module first, so that each name imported from another is found
        import swerom.bench, swerom.cli, swerom.deim, swerom.flops  # noqa: E401,F401
        import swerom.metrics, swerom.model, swerom.pod, swerom.rom  # noqa: E401,F401
        import swerom.snapshots, swerom.solver  # noqa: E401,F401
        sw_modules = [m for n, m in sys.modules.items()
                      if n == "swerom" or n.startswith("swerom.")]
        for name, owner_path, attr in TARGETS:
            mod_name, _, cls_name = owner_path.partition(":")
            owner = sys.modules[mod_name]
            if cls_name:
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            self._patch(owner, attr, original, wrapped)
            # rebind the name in every swerom module that imported it directly
            for mod in sw_modules:
                if mod is not owner and mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Duration minus the part covered by direct children."""
        out = self.durations()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def ancestor_names(self, idx: int) -> set[str]:
        names = set()
        parent = self.parents[idx]
        while parent >= 0:
            names.add(self.names[parent])
            parent = self.parents[parent]
        return names

    def dump(self, path) -> None:
        """Write every span, one JSON object per line, gzip-compressed."""
        selfs = self.self_times()
        with gzip.open(path, "wt") as fh:
            for idx, name in enumerate(self.names):
                rec = {"id": idx, "name": name, "parent": self.parents[idx],
                       "op": self.ops[idx], "round": self.rounds[idx],
                       "start": self.starts[idx], "end": self.ends[idx],
                       "self": selfs[idx]}
                if idx in self.values:
                    rec["values"] = self.values[idx]
                fh.write(json.dumps(rec) + "\n")

