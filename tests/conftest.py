from types import SimpleNamespace

import pytest

from swerom.model import build_grid, build_operators, coriolis_field, initial_state
from swerom.solver import SolverConfig, run_full


@pytest.fixture(scope="session")
def pipeline31():
    """Reference 31x23 run over the 3 h window (dt=120 s, 91 steps),
    shared by every pipeline-level test."""
    grid = build_grid(31, 23)
    ops = build_operators(grid)
    f = coriolis_field(grid)
    ic = initial_state(grid, ops)
    cfg = SolverConfig(dt=120.0, nt=91)
    final, snaps, timings = run_full(ic, cfg, ops, f, grid)
    return SimpleNamespace(grid=grid, ops=ops, f=f, ic=ic, cfg=cfg,
                           final=final, snaps=snaps, timings=timings)
