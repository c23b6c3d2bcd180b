import warnings
import weakref

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrf, dgbtrs

from swerom.errors import NonConvergenceError
from swerom.model import (
    TERMS,
    VARIABLES,
    X_TERMS,
    Y_TERMS,
    FieldState,
    all_nonlinear,
    boundary_row_indices,
    build_grid,
    build_operators,
    coriolis_field,
    initial_state,
)
from swerom.rom import ReducedModel
from swerom.solver import (
    AdiNewton,
    FullSolver,
    PhaseTimings,
    SolverConfig,
    run_full,
)

from model_oracles import eval_nonlinear


@pytest.fixture(scope="module")
def setup():
    grid = build_grid(31, 23)
    ops = build_operators(grid)
    f = coriolis_field(grid)
    return grid, ops, f


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=-1.0, nt=10)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(dt=bad, nt=10)
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(dt=1.0, nt=10, newton_tol=bad)
    with pytest.raises(ValueError):
        SolverConfig(dt=1.0, nt=0)
    with pytest.raises(ValueError):
        SolverConfig(dt=1.0, nt=1, lu_refresh_every=0)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="newton_max_iters"):
            SolverConfig(dt=1.0, nt=1, newton_max_iters=bad)


def test_rest_state_is_fixed_point(setup):
    grid, ops, f = setup
    cfg = SolverConfig(dt=600.0, nt=1)
    rest = FieldState(u=np.zeros(grid.n), v=np.zeros(grid.n), phi=np.full(grid.n, 282.0))
    out = FullSolver(grid, ops, f, cfg).step(rest, 0)
    assert np.array_equal(out.u, rest.u)
    assert np.array_equal(out.v, rest.v)
    assert np.array_equal(out.phi, rest.phi)
    assert out.time == 600.0


def test_single_step_converges_quickly(setup):
    grid, ops, f = setup
    ic = initial_state(grid, ops)
    solver = FullSolver(grid, ops, f, SolverConfig(dt=120.0, nt=1))
    tm = PhaseTimings()
    solver.step(ic, 0, tm)
    assert tm.newton_iters <= 10  # both halves combined


def test_boundary_v_zero_after_every_step(setup):
    grid, ops, f = setup
    ic = initial_state(grid, ops)
    solver = FullSolver(grid, ops, f, SolverConfig(dt=120.0, nt=1))
    state = ic
    rows = boundary_row_indices(grid)
    for k in range(5):
        state = solver.step(state, k)
        assert np.all(state.v[rows] == 0.0)


def test_boundary_v_exactly_zero_at_121x89():
    grid = build_grid(121, 89)
    ops = build_operators(grid)
    solver = FullSolver(grid, ops, coriolis_field(grid), SolverConfig(dt=960.0, nt=12))
    state = initial_state(grid, ops)
    rows = boundary_row_indices(grid)
    for k in range(12):
        state = solver.step(state, k)
        assert np.all(state.v[rows] == 0.0), f"step {k}"


def _half_step_residual(w, grid, ops, f, axis, dt2):
    """G(w) = w - dt2*(implicit terms + half Coriolis), v pinned on the walls,
    from the model's term evaluator alone (the explicit part cancels in
    differences)."""
    n = grid.n
    state = FieldState(u=w[:n], v=w[n:2 * n], phi=w[2 * n:])
    du = -eval_nonlinear("F11" if axis == "x" else "F12", state, ops) + 0.5 * f * state.v
    dv = -eval_nonlinear("F21" if axis == "x" else "F22", state, ops) - 0.5 * f * state.u
    dphi = -eval_nonlinear("F31" if axis == "x" else "F32", state, ops)
    G = w - dt2 * np.concatenate([du, dv, dphi])
    walls = n + boundary_row_indices(grid)
    G[walls] = w[walls]
    return G


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("shape", [(31, 23), (8, 7)])
def test_newton_solve_inverts_residual_derivative(shape, axis):
    # G is quadratic in w, so the central difference is its exact derivative
    # along d up to rounding; solving with the Newton matrix must return d
    grid = build_grid(*shape)
    ops = build_operators(grid)
    f = coriolis_field(grid)
    rng = np.random.default_rng(5)
    ic = initial_state(grid, ops)
    n = grid.n
    walls = n + boundary_row_indices(grid)
    w = np.concatenate([ic.u, ic.v, ic.phi])
    w += 0.1 * np.abs(w).max() * rng.standard_normal(3 * n)
    w[walls] = 0.0
    d = rng.standard_normal(3 * n)
    d[walls] = 0.0
    dt2, h = 480.0, 1e-3
    solver = FullSolver(grid, ops, f, SolverConfig(dt=2 * dt2, nt=1))
    # the line order keeps the band narrow whatever the grid size
    band = solver._bands[axis]
    assert (band.kl, band.ku) == ((8, 11) if axis == "x" else (4, 4))
    solve = solver._factor(axis, w, dt2, PhaseTimings())
    jd = (_half_step_residual(w + h * d, grid, ops, f, axis, dt2)
          - _half_step_residual(w - h * d, grid, ops, f, axis, dt2)) / (2 * h)
    got = solve(jd)
    assert np.linalg.norm(got - d) <= 1e-9 * np.linalg.norm(d)


def test_singular_newton_matrix_raises_nonconvergence(setup):
    grid, ops, f = setup
    band = FullSolver(grid, ops, f, SolverConfig(dt=120.0, nt=1))._bands["x"]
    with pytest.raises(NonConvergenceError, match="singular"):
        band.factorize(np.zeros((band.ldab, 3 * grid.n), order="F"))


def _newton_matrices(grid, ops, f, cfg):
    """Run cfg.nt steps from the initial state; returns a copy of every
    Newton matrix assembled, with its band, and the run's timings."""
    solver = FullSolver(grid, ops, f, cfg)
    captured = []
    for band in solver._bands.values():
        def capturing(fields, dt2, band=band, assemble=band.assemble):
            ab = assemble(fields, dt2)
            captured.append((band, ab.copy(order="F")))
            return ab
        band.assemble = capturing
    tm = PhaseTimings()
    state = initial_state(grid, ops)
    for k in range(cfg.nt):
        state = solver.step(state, k, tm)
    assert np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.phi))
    return captured, tm


@pytest.mark.parametrize("dt, nt, pivoted", [(960.0, 8, False), (6000.0, 4, True)])
def test_band_solve_equals_dgbtrs_on_same_factors(setup, dt, nt, pivoted):
    # at dt=960 s dgbtrf interchanges no row and the triangular route runs;
    # at dt=6000 s (wave CFL 4.5) every factorization interchanges rows and
    # keeps dgbtrs. Either way the solve returns dgbtrs's bits.
    grid, ops, f = setup
    captured, tm = _newton_matrices(grid, ops, f,
                                    SolverConfig(dt=dt, nt=nt, newton_max_iters=60))
    assert (tm.pivoted_factorizations > 0) == pivoted
    rng = np.random.default_rng(7)
    routes = []
    for band, ab in captured:
        rhs = rng.standard_normal(3 * grid.n)
        lu, piv, info = dgbtrf(ab.copy(order="F"), band.kl, band.ku)
        assert info == 0
        expected = dgbtrs(lu, band.kl, band.ku, rhs[band.order], piv)[0][band.band]
        solve, used_dgbtrs = band.factorize(ab)
        assert used_dgbtrs == (not np.array_equal(piv, np.arange(3 * grid.n)))
        assert solve(rhs).tobytes() == expected.tobytes()
        routes.append(used_dgbtrs)
    assert sum(routes) == tm.pivoted_factorizations
    assert routes == [pivoted] * len(captured)


@pytest.mark.parametrize("dt, nt, pivoted", [(960.0, 8, False), (6000.0, 4, True)],
                         ids=["unpivoted", "pivoted"])
def test_band_solve_of_negated_rhs_is_negated_solve(setup, dt, nt, pivoted):
    # the Newton step is w - solve(G), not w + solve(-G): the same bits,
    # because triangular solves and row interchanges commute exactly with
    # negation and IEEE x - y is x + (-y)
    grid, ops, f = setup
    captured, _ = _newton_matrices(grid, ops, f, SolverConfig(dt=dt, nt=nt, newton_max_iters=60))
    rng = np.random.default_rng(8)
    for band, ab in captured:
        solve, used_dgbtrs = band.factorize(ab)
        assert used_dgbtrs == pivoted
        for _ in range(3):
            g = rng.standard_normal(3 * grid.n)
            assert solve(-g).tobytes() == (-solve(g)).tobytes()


def test_cfl_warning_emitted(setup):
    grid, ops, f = setup
    ic = initial_state(grid, ops)
    cfg = SolverConfig(dt=2.0e4, nt=1, newton_max_iters=60)
    with pytest.warns(RuntimeWarning, match="CFL indicator"):
        try:
            run_full(ic, cfg, ops, f, grid)
        except NonConvergenceError:
            pass  # only the warning is under test here


def test_run_full_single_step_snapshot(setup):
    grid, ops, f = setup
    ic = initial_state(grid, ops)
    _, snaps, _ = run_full(ic, SolverConfig(dt=120.0, nt=1), ops, f, grid)
    assert snaps.nt == 1
    assert snaps.states["u"].shape == (grid.n, 1)
    assert snaps.nonlinear["F11"].shape == (grid.n, 1)
    assert snaps.times[0] == 120.0


def test_run_full_time_spans(setup):
    grid, ops, f = setup
    ic = initial_state(grid, ops)
    _, snaps, _ = run_full(ic, SolverConfig(dt=960.0, nt=91), ops, f, grid)
    assert snaps.times[0] == 960.0
    assert snaps.times[-1] == 87360.0
    _, snaps3, _ = run_full(ic, SolverConfig(dt=120.0, nt=91), ops, f, grid)
    assert snaps3.times[-1] == 10920.0


def test_run_full_deterministic(setup, tmp_path):
    from swerom.snapshots import save_snapshots

    grid, ops, f = setup
    ic = initial_state(grid, ops)
    cfg = SolverConfig(dt=120.0, nt=8)
    _, a, _ = run_full(ic, cfg, ops, f, grid)
    _, b, _ = run_full(ic, cfg, ops, f, grid)
    pa, pb = tmp_path / "a.snap", tmp_path / "b.snap"
    save_snapshots(a, pa)
    save_snapshots(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_factorization_cadence(setup):
    grid, ops, f = setup
    ic = initial_state(grid, ops)
    cfg = SolverConfig(dt=120.0, nt=1, lu_refresh_every=6)
    solver = FullSolver(grid, ops, f, cfg)
    count = 0
    orig = solver._factor

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return orig(*args, **kwargs)

    solver._factor = counting
    state = ic
    for k in range(12):
        state = solver.step(state, k)
    assert count == 4  # steps 0 and 6 refresh, two factorizations each


def test_refresh_frees_stale_factorization_first(setup):
    # at a refresh step the axis's old band LU is dropped, and freed, before
    # _factor assembles and factorizes the new one, so two are never alive
    grid, ops, f = setup
    cfg = SolverConfig(dt=120.0, nt=1, lu_refresh_every=3)
    solver = FullSolver(grid, ops, f, cfg)
    orig = solver._factor
    step, old, first = 0, {}, {}

    def recording(axis, *args):
        first.setdefault((step, axis), (axis in solver._solves, old[axis]() is None))
        return orig(axis, *args)

    solver._factor = recording
    state = initial_state(grid, ops)
    for step in range(7):
        old = {axis: weakref.ref(solver._solves[axis]) if axis in solver._solves
               else (lambda: None) for axis in ("x", "y")}
        state = solver.step(state, step)
    refreshes = [key for key in first if key[0] % 3 == 0]
    assert refreshes == [(0, "x"), (0, "y"), (3, "x"), (3, "y"), (6, "x"), (6, "y")]
    assert all(first[key] == (False, True) for key in refreshes)


def test_newton_residual_below_tol_each_step(setup):
    grid, ops, f = setup
    ic = initial_state(grid, ops)
    cfg = SolverConfig(dt=120.0, nt=1, newton_tol=1e-10)
    solver = FullSolver(grid, ops, f, cfg)
    # re-evaluate the half-step residual at the accepted states by stepping
    # with a tighter wrapper: residual is checked inside _half_step, so a
    # completed step implies it fell below tol; sanity the state stays finite
    state = ic
    for k in range(4):
        state = solver.step(state, k)
        assert np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.phi))


def test_nonconvergence_carries_residual(setup):
    grid, ops, f = setup
    ic = initial_state(grid, ops)
    cfg = SolverConfig(dt=5.0e4, nt=1, newton_max_iters=2, newton_tol=1e-14)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NonConvergenceError) as err:
            run_full(ic, cfg, ops, f, grid)
    assert err.value.residual > 0.0
    assert err.value.iterations == 2


def test_assembly_is_right_hand_sides_plus_newton_matrices(setup):
    # both models time right-hand sides in nonlinear_s and Newton matrices in
    # jacobian_s; a full run's assembly_s, which run_meta.json records, is their sum
    grid, ops, f = setup
    _, _, tm = run_full(initial_state(grid, ops), SolverConfig(dt=120.0, nt=3), ops, f, grid)
    assert tm.nonlinear_s > 0.0 and tm.jacobian_s > 0.0
    assert tm.assembly_s == tm.nonlinear_s + tm.jacobian_s
    with pytest.raises(AttributeError):
        tm.assembly_s = 0.0


def test_accepted_residuals_below_tolerance(setup):
    from swerom.solver import PhaseTimings

    grid, ops, f = setup
    ic = initial_state(grid, ops)
    cfg = SolverConfig(dt=120.0, nt=1, newton_tol=1e-10)
    solver = FullSolver(grid, ops, f, cfg)
    tm = PhaseTimings()
    state = ic
    for k in range(6):
        state = solver.step(state, k, tm)
    assert 0.0 < tm.worst_residual <= cfg.newton_tol


def test_one_rhs_per_accepted_iterate(setup, monkeypatch):
    # each half-step returns the right-hand side its last residual took at
    # the accepted iterate, and the next half-step's explicit part uses it;
    # only the first step evaluates its explicit part
    grid, ops, f = setup
    cfg = SolverConfig(dt=120.0, nt=7)  # spans the refresh at step 6
    rhs, half_step = FullSolver._rhs, FullSolver._half_step
    calls = {"all": 0, "residual": 0}
    inside = False
    half_steps = []

    def counting_rhs(self, axis, w, timings):
        calls["all"] += 1
        calls["residual"] += inside
        return rhs(self, axis, w, timings)

    def recording_half_step(self, w0, explicit_part, axis, *args):
        nonlocal inside
        inside = True
        try:
            w, solve, r = half_step(self, w0, explicit_part, axis, *args)
        finally:
            inside = False
        half_steps.append((w0.copy(), explicit_part.copy(), axis, w.copy(), r.copy()))
        return w, solve, r

    monkeypatch.setattr(FullSolver, "_rhs", counting_rhs)
    monkeypatch.setattr(FullSolver, "_half_step", recording_half_step)
    _, _, tm = run_full(initial_state(grid, ops), cfg, ops, f, grid)
    assert tm.rhs_evals == calls["all"] == calls["residual"] + 1
    solver = FullSolver(grid, ops, f, cfg)

    def fresh(axis, w):
        return rhs(solver, axis, w, PhaseTimings())

    assert len(half_steps) == 2 * cfg.nt
    for _, _, axis, w, r in half_steps:
        assert np.array_equal(r, fresh(axis, w))
    dt2 = 0.5 * cfg.dt
    for (_, _, axis, w, _), (w0, b, next_axis, _, _) in zip(half_steps[::2], half_steps[1::2]):
        assert (axis, next_axis) == ("x", "y") and np.array_equal(w0, w)
        assert np.array_equal(b, w + dt2 * fresh("x", w))
    for (_, _, _, w, r), (w0, b, _, _, _) in zip(half_steps[1::2], half_steps[2::2]):
        assert np.array_equal(w0, w) and np.array_equal(b, w + dt2 * r)


def test_state_changed_in_place_is_evaluated_afresh(setup):
    # each step evaluates its own starting right-hand side, so a reused
    # solver steps any state, one changed in place too, as a fresh one does
    grid, ops, f = setup
    cfg = SolverConfig(dt=120.0, nt=3)
    solver = FullSolver(grid, ops, f, cfg)
    state = solver.step(initial_state(grid, ops), 0)

    def step_both(state):
        reused, fresh = PhaseTimings(), PhaseTimings()
        got = solver.step(state, 0, reused)
        want = FullSolver(grid, ops, f, cfg).step(state, 0, fresh)
        for var in VARIABLES:
            assert got[var].tobytes() == want[var].tobytes()
        assert (reused.rhs_evals, reused.newton_iters) == (fresh.rhs_evals, fresh.newton_iters)
        return got

    state = step_both(state)
    state.u[5] += 1e-3
    state.phi[7] -= 1e-3
    step_both(state)


def test_run_full_records_each_stepped_state_and_its_terms(setup):
    # run_full against a FullSolver.step loop, bit for bit, on the default
    # configuration, at dt = 6000 s, where the factorizations interchange rows
    # (the dgbtrs route, which no benchmark workload takes), and with a
    # refresh at every step
    grid, ops, f = setup
    ic = initial_state(grid, ops)
    for dt, nt, options in ((120.0, 7, {}), (6000.0, 4, {"newton_max_iters": 60}),
                            (120.0, 7, {"lu_refresh_every": 1})):
        cfg = SolverConfig(dt=dt, nt=nt, **options)
        _, snaps, ran = run_full(ic, cfg, ops, f, grid)
        want = {name: np.empty((grid.n, cfg.nt)) for name in (*VARIABLES, *TERMS)}
        times = np.empty(cfg.nt)
        looped = PhaseTimings()
        solver = FullSolver(grid, ops, f, cfg)
        state = ic
        for k in range(cfg.nt):
            state = solver.step(state, k, looped)
            times[k] = state.time
            for var in VARIABLES:
                want[var][:, k] = state[var]
            for term, value in all_nonlinear(state, ops).items():
                want[term][:, k] = value
        assert (ran.pivoted_factorizations > 0) == (dt == 6000.0), cfg
        for name in ("newton_iters", "steps", "worst_residual", "pivoted_factorizations"):
            assert getattr(ran, name) == getattr(looped, name), (cfg, name)
        assert snaps.times.tobytes() == times.tobytes(), cfg
        assert list(snaps.states) == list(VARIABLES) and list(snaps.nonlinear) == list(TERMS)
        for name, got in {**snaps.states, **snaps.nonlinear}.items():
            assert got.shape == (grid.n, cfg.nt) and got.flags.c_contiguous
            assert got.tobytes() == want[name].tobytes(), (cfg, name)


def test_rhs_is_zero_minus_recorded_terms_plus_half_coriolis(setup):
    # the solver and the snapshot recorder evaluate the terms in one function:
    # bit for bit, a direction's right-hand side is 0 - its recorded terms plus
    # half the Coriolis term, and no recorded term holds -0
    grid, ops, f = setup
    rng = np.random.default_rng(21)
    v = rng.standard_normal(grid.n)
    v[boundary_row_indices(grid)] = 0.0
    random = FieldState(u=rng.standard_normal(grid.n), v=v,
                        phi=282.0 + rng.standard_normal(grid.n))
    cfg = SolverConfig(dt=960.0, nt=6)
    stepped, snaps, _ = run_full(initial_state(grid, ops), cfg, ops, f, grid)
    # at rest every term is +0, which a plain negation would turn into -0
    rest = FieldState(u=np.zeros(grid.n), v=np.zeros(grid.n), phi=np.full(grid.n, 282.0))
    solver = FullSolver(grid, ops, f, cfg)
    for state in (random, stepped, rest):
        terms = all_nonlinear(state, ops)
        w = np.concatenate([state.u, state.v, state.phi])
        for axis, names in (("x", X_TERMS), ("y", Y_TERMS)):
            du, dv, dphi = (0.0 - terms[name] for name in names)
            du += 0.5 * f * state.v
            dv -= 0.5 * f * state.u
            want = np.concatenate([du, dv, dphi])
            assert solver._rhs(axis, w, PhaseTimings()).tobytes() == want.tobytes()
    for state in (random, stepped):
        # the bare wall-row products u * v_x and v * u_y do hold -0
        terms = all_nonlinear(state, ops)
        for a, b, name in ((state.u, ops.Ax @ state.v, "F21"),
                           (state.v, ops.Ay @ state.u, "F12")):
            assert np.any(np.signbit(a * b) & (a * b == 0.0))
            assert not np.any(np.signbit(terms[name]) & (terms[name] == 0.0))
    for name in ("F21", "F12"):
        recorded = snaps.nonlinear[name]
        assert not np.any(np.signbit(recorded) & (recorded == 0.0))
        assert recorded[:, -1].tobytes() == all_nonlinear(stepped, ops)[name].tobytes()


def test_full_and_reduced_models_share_one_newton_loop():
    assert FullSolver._half_step is ReducedModel._half_step
    assert FullSolver._integrate is ReducedModel._integrate
    assert FullSolver._advance is ReducedModel._advance


def test_non_finite_state_raises_before_factorization():
    grid = build_grid(9, 7)
    ops = build_operators(grid)
    ic = initial_state(grid, ops)
    solver = FullSolver(grid, ops, coriolis_field(grid), SolverConfig(dt=120.0, nt=1))
    factored = []
    factor = solver._factor

    def counting(*args):
        factored.append(args)
        return factor(*args)

    solver._factor = counting
    blown_up = FieldState(u=1e160 * ic.u, v=1e160 * ic.v, phi=1e160 * ic.phi)
    tm = PhaseTimings()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonConvergenceError, match="not finite") as err:
            solver.step(blown_up, 0, tm)
    assert [str(w.message) for w in caught] == []
    assert err.value.iterations == 0
    assert factored == [] and tm.newton_iters == 0 and tm.solve_s == 0.0


class _Cubic(AdiNewton):
    """A one-unknown-per-block model for the quasi-Newton loop: dw/dt = -w**3
    in both directions, with a chosen slope in its Newton matrix. It counts
    its factorizations and right-hand sides and keeps each half-step's
    equation and accepted w."""

    _sizes = (1, 1, 1)

    def __init__(self, cfg, slope):
        self.cfg, self.slope = cfg, slope
        self._solves = {}
        self.factors = self.rhs_calls = 0
        self.half_steps = []

    def _rhs(self, axis, w, timings):
        self.rhs_calls += 1
        return -w ** 3

    def _factor(self, axis, w, dt2, timings):
        self.factors += 1
        d = 1.0 - dt2 * self.slope(w)
        return lambda rhs: rhs / d

    def _half_step(self, w0, explicit_part, axis, dt2, solve, timings):
        w, solve, r = super()._half_step(w0, explicit_part, axis, dt2, solve, timings)
        self.half_steps.append((w0, explicit_part, dt2, w))
        return w, solve, r


def _cubic_start():
    return FieldState(u=np.array([3.0]), v=np.array([2.0]), phi=np.array([1.0]))


def test_backtracking_and_safeguard_refactorization():
    # from (3, 2, 1) at dt = 2 the full quasi-Newton step overshoots, so the
    # loop backtracks; with the slope of a stale factorization the residual
    # then falls by less than 4x on two iterations in a row, so the safeguard
    # refactorizes
    cfg = SolverConfig(dt=2.0, nt=1)
    model = _Cubic(cfg, lambda w: -3.0 * w ** 2)
    tm = PhaseTimings()
    model._integrate(_cubic_start(), 1, tm)
    # a refresh step factorizes once per direction
    assert model.factors > 2
    # one right-hand side for the explicit part and one per residual; each
    # half-step's first residual and one per iteration leave the backtracks
    assert model.rhs_calls > 1 + 2 + tm.newton_iters
    assert len(model.half_steps) == 2
    for w0, explicit_part, dt2, w in model.half_steps:
        residual = w - explicit_part - dt2 * -w ** 3
        assert np.linalg.norm(residual) <= cfg.newton_tol * np.linalg.norm(w0)


def test_stalled_iteration_names_max_iterations():
    # a zero slope makes every Newton step the fixed-point step, which stalls
    cfg = SolverConfig(dt=2.0, nt=1, newton_max_iters=7)
    model = _Cubic(cfg, lambda w: 0.0 * w)
    with pytest.raises(NonConvergenceError, match="after 7 iterations") as err:
        model._integrate(_cubic_start(), 1, PhaseTimings())
    assert err.value.iterations == cfg.newton_max_iters
    assert "stalled" in str(err.value)
