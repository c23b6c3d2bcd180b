"""Implicit alternating-direction time stepping for the full model.

Each step splits into two half-steps of length dt/2. The first treats the
x-derivative terms (F11, F21, F31) implicitly and the y-derivative terms
explicitly; the second reverses the roles. The Coriolis coupling is split
evenly: each half-step integrates it trapezoidally (half at the old state,
half at the new). The pairing matters for stability: every skew piece of
the dynamics must enter once explicitly and once implicitly across the two
factors of a step, which keeps the amplification factor of the linearized
scheme at unit modulus for any dt. The model equations stay coupled: every
half-step solves one nonlinear system in all 3n unknowns by quasi-Newton,
where the Newton matrix is assembled and LU-factorized only every
``lu_refresh_every`` steps and reused (stale) in between. That loop,
:class:`AdiNewton`, also steps the reduced model (:mod:`swerom.rom`) and
packs the states of both; each model supplies only its block sizes, its
right-hand side (the full model's is 0 minus
:func:`swerom.model.direction_terms` plus half the Coriolis term) and its
factorization; both fill one :class:`PhaseTimings`. One integration loop,
:meth:`AdiNewton._integrate`, steps the packed state of either model:
:func:`run_full`, the reduced model's ``run`` and both models' ``step``
call it. Its step core, :meth:`AdiNewton._advance`, holds the refresh
cadence and the two half-steps. A half-step hands its accepted right-hand
side on: the x half-step's is the y half-step's explicit part, and the y
half-step's starts the next step, so an integration of any length
evaluates one explicit right-hand side, at its first step, besides one per
residual.

A half-step's implicit terms couple nodes only along grid lines. With the
unknowns interleaved by node (u, v, phi) and laid out line by line (y-rows
in the folded x order 0, nx-1, 1, nx-2, ... for x, x-columns for y), the
Newton matrix is banded and is factorized by LAPACK ``dgbtrf``. When the
factorization interchanges no row, which holds up to a wave-CFL indicator
near 3, each solve applies L and U with one BLAS ``dtbsv`` each; otherwise
it calls ``dgbtrs``. Both routes give the same bits on unpivoted factors.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg  # noqa: F401  perfbench/tracing.py wraps its splu from the loaded module
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from swerom.errors import NonConvergenceError
from swerom.model import (
    DifferenceOperators,
    FieldState,
    Grid,
    TERMS,
    TERM_EQUATION,
    VARIABLES,
    X_TERMS,
    Y_TERMS,
    all_nonlinear,
    boundary_row_indices,
    cfl_indicator,
    direction_terms,
)
from swerom.snapshots import SnapshotSet

__all__ = ["SolverConfig", "PhaseTimings", "AdiNewton", "FullSolver", "run_full"]

CFL_LIMIT = 8.9301

_VAR_SLOT = {"u": 0, "v": 1, "phi": 2}


@dataclass
class SolverConfig:
    """Time-stepping and inner-solver parameters."""

    dt: float
    nt: int
    newton_tol: float = 1e-10
    newton_max_iters: int = 25
    lu_refresh_every: int = 6

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if self.nt < 1:
            raise ValueError("nt must be at least 1")
        if not 0.0 < self.newton_tol < np.inf:
            raise ValueError(f"newton_tol must be finite and positive, got {self.newton_tol}")
        if self.newton_max_iters < 1:
            raise ValueError("newton_max_iters must be at least 1")
        if self.lu_refresh_every < 1:
            raise ValueError("lu_refresh_every must be at least 1")


@dataclass
class PhaseTimings:
    """Wall-clock decomposition of a run of either model (seconds, monotonic clock)."""

    nonlinear_s: float = 0.0    # right-hand sides, Coriolis part included
    jacobian_s: float = 0.0     # Newton-matrix assembly
    factorization_s: float = 0.0
    solve_s: float = 0.0
    recording_s: float = 0.0    # full model: snapshot rows and terms, and their transposition
    total_s: float = 0.0        # the whole run; a reduced model's tensors were packed before it
    newton_iters: int = 0
    rhs_evals: int = 0          # right-hand sides evaluated: one per residual, plus the
                                # first step's explicit part (later steps carry theirs)
    steps: int = 0
    worst_residual: float = 0.0  # largest accepted relative residual
    pivoted_factorizations: int = 0  # full model: band LUs that interchanged rows (dgbtrs)

    @property
    def assembly_s(self) -> float:
        """Right-hand sides plus Newton matrices, as run_meta.json records it."""
        return self.nonlinear_s + self.jacobian_s


class _BandedNewton:
    """One direction's Newton matrix I - dt2*J in LAPACK band storage.

    Fixed at construction: ``terms``, the direction's implicit terms,
    ``band[q]``, the band row of packed unknown q,
    ``A``, the derivative along the direction's axis, and ``index``, the
    flat position in column-major band storage of every Jacobian entry in
    the order :meth:`assemble` evaluates them. The wall-row v unknowns keep
    a unit row and column: their entries go to a spare slot past the end,
    so a solve returns the right-hand side there.

    :meth:`factorize` solves with two triangular ``dtbsv`` calls when
    ``dgbtrf`` interchanged no row and with ``dgbtrs`` otherwise. At a wave
    CFL indicator up to 2.86 no grid tried (31x23 to 241x177) interchanges
    a row; at 2.98 the y direction of 61x45 does, and at 241x177 with
    dt = 960 s (5.7) every factorization does, up to 1,062 rows.
    """

    def __init__(self, grid: Grid, ops: DifferenceOperators, f: np.ndarray, axis: str):
        n, nx = grid.n, grid.nx
        self.terms = terms = X_TERMS if axis == "x" else Y_TERMS
        nodes = np.arange(n)
        j, i = np.divmod(nodes, nx)
        line_pos = (j * nx + np.minimum(2 * i, 2 * (nx - 1 - i) + 1) if axis == "x"
                    else i * grid.ny + j)
        self.band = (3 * line_pos + np.arange(3)[:, None]).ravel()
        self.order = np.empty_like(self.band)  # the inverse permutation
        self.order[self.band] = np.arange(3 * n)
        # every product of a direction's terms differentiates along its axis
        self.A, self.A3 = (ops.Ax, ops.Ax3) if axis == "x" else (ops.Ay, ops.Ay3)
        coo = self.A.tocoo()
        self._row, self._data = coo.row, coo.data
        self._products = []
        rows, cols = [], []
        for name in terms:
            eq = _VAR_SLOT[TERM_EQUATION[name]] * n
            for coef, avar, bvar, _ in TERMS[name]:
                rows += [eq + nodes, eq + coo.row]
                cols += [_VAR_SLOT[avar] * n + nodes, _VAR_SLOT[bvar] * n + coo.col]
                self._products.append((coef, avar, bvar))
        # trapezoidal Coriolis: each half-step carries half of it implicitly
        rows += [nodes, n + nodes]
        cols += [n + nodes, nodes]
        self._coriolis = np.concatenate([0.5 * f, -0.5 * f])

        rows = self.band[np.concatenate(rows)]
        cols = self.band[np.concatenate(cols)]
        wall = np.zeros(3 * n, dtype=bool)
        wall[self.band[n + boundary_row_indices(grid)]] = True
        keep = ~(wall[rows] | wall[cols])
        self.kl = int(np.max(rows - cols, where=keep, initial=0))
        self.ku = int(np.max(cols - rows, where=keep, initial=0))
        self.ldab = 2 * self.kl + self.ku + 1
        self.size = self.ldab * 3 * n
        self.index = np.where(keep, self.kl + self.ku + rows - cols + self.ldab * cols, self.size)
        self.diagonal = self.kl + self.ku + self.ldab * np.arange(3 * n)
        self._unpivoted = np.arange(3 * n, dtype=np.int32)

    def assemble(self, fields: dict[str, np.ndarray], dt2: float) -> np.ndarray:
        """I - dt2*J at the given fields, as a Fortran-ordered band array; J
        is d/dw of the direction's terms plus half the Coriolis term."""
        deriv = {var: self.A @ fields[var] for var in _VAR_SLOT}
        values = []
        for coef, avar, bvar in self._products:
            values += [-coef * deriv[bvar], (-coef * fields[avar])[self._row] * self._data]
        J = np.bincount(self.index, weights=np.concatenate(values + [self._coriolis]),
                        minlength=self.size + 1)
        ab = J[:self.size]
        ab *= -dt2
        ab[self.diagonal] += 1.0
        return ab.reshape(-1, self.ldab).T

    def factorize(self, ab: np.ndarray):
        """LU-factorize ``ab`` in place; returns the solve in packed order and
        whether ``dgbtrf`` interchanged a row.

        Without interchanges L is a unit lower band triangle: one ``dtbsv``
        applies it from a (kl+1)-row copy of its rows, and one applies U in
        place, the call ``dgbtrs`` makes for U. ``dgbtrs``, whose one
        ``dger`` per column of L costs more than its arithmetic, is kept
        for pivoted factors.
        """
        kl, ku, order, band = self.kl, self.ku, self.order, self.band
        lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
        if info > 0:
            raise NonConvergenceError(
                f"Newton matrix is singular (zero pivot in band row {info - 1})",
                residual=float("nan"), iterations=0)
        if not np.array_equal(piv, self._unpivoted):
            def solve(rhs):
                x, _ = dgbtrs(lu, kl, ku, rhs[order], piv, overwrite_b=True)
                return x[band]
            return solve, True

        L = np.asfortranarray(lu[kl + ku:])  # unit diagonal row, then the multipliers

        def solve(rhs):
            y = dtbsv(kl, L, rhs[order], lower=1, diag=1, overwrite_x=1)
            return dtbsv(kl + ku, lu, y, overwrite_x=1)[band]
        return solve, False


class AdiNewton:
    """Quasi-Newton stepping of the ADI split, shared by the full and the
    reduced model.

    The driver owns the state layout: a :class:`FieldState` of either model
    is packed into one vector w of its u, v and phi blocks, whose lengths the
    model gives as ``_sizes``. A model also supplies ``cfg`` (a
    :class:`SolverConfig`), ``_solves`` (axis -> the cached solve),
    ``_fixed`` (the rows whose residual is the unknown itself, or None) and
    two hooks, each keyed by the implicit axis "x" or "y": ``_rhs(axis, w,
    timings)``, that direction's part of dw/dt plus half the Coriolis term,
    and ``_factor(axis, w, dt2, timings)``, which factorizes I - dt2*J at w
    and returns the solve. Each hook times and counts its own work in
    ``timings``, a :class:`PhaseTimings`: ``_rhs`` in ``nonlinear_s``,
    ``_factor`` in ``jacobian_s`` and ``factorization_s``.

    :meth:`_integrate` is the one integration loop: it packs the initial
    state, steps the packed w nt times and unpacks the result. Its step
    core, :meth:`_advance`, is one full dt on w, with the refresh cadence
    and the two half-steps written only there.
    """

    _fixed = None

    def _fields(self, w: np.ndarray) -> dict[str, np.ndarray]:
        """Views of the u, v and phi blocks of the packed ``w``."""
        ku, kv, _ = self._sizes
        return {"u": w[:ku], "v": w[ku:ku + kv], "phi": w[ku + kv:]}

    def _half_step(self, w0: np.ndarray, explicit_part: np.ndarray, axis: str,
                   dt2: float, solve, timings):
        """Solve w = explicit_part + dt2*_rhs(axis, w) by quasi-Newton from w0.

        ``solve`` applies the current (possibly stale) factorization, or is
        None to factorize at w0 once the first residual is known to be
        finite. Refactoring mid-iteration happens only as a safeguard when
        the stale iteration stops contracting, which stays dormant at the
        CFL numbers of normal runs.

        Returns (solution, solve, rhs): ``solve`` reflects any safeguard
        refactorization so the caller can keep reusing it, and ``rhs`` is
        _rhs(axis, solution), which the last residual evaluated.
        """
        cfg, fixed = self.cfg, self._fixed

        def residual(wk):
            r = self._rhs(axis, wk, timings)
            G = wk - explicit_part - dt2 * r
            if fixed is not None:
                G[fixed] = wk[fixed]
            return G, r

        # each norm is np.linalg.norm's value for a 1-D float vector, without its dispatch
        w = w0
        scale = math.sqrt(w0.dot(w0))
        if scale == 0.0:
            scale = 1.0
        G, r = residual(w)
        res = math.sqrt(G.dot(G))
        if not math.isfinite(res):
            raise NonConvergenceError("quasi-Newton residual is not finite",
                                      residual=float("inf"), iterations=0)
        if solve is None:
            solve = self._factor(axis, w0, dt2, timings)
        slow = 0
        for it in range(cfg.newton_max_iters + 1):
            if res <= cfg.newton_tol * scale:
                timings.newton_iters += it
                timings.worst_residual = max(timings.worst_residual, res / scale)
                return w, solve, r
            if it == cfg.newton_max_iters:
                break
            t0 = time.perf_counter()
            # the Newton step is w - solve(G), which needs no negated copy of G.
            # The reduced model's dense solve overwrites G with the step; the
            # loop does not read G again before it reassigns G.
            delta = solve(G)
            timings.solve_s += time.perf_counter() - t0
            # backtracking keeps the iteration from overshooting at large dt
            alpha = 1.0
            w_try = w - delta
            G_try, r_try = residual(w_try)
            res_try = math.sqrt(G_try.dot(G_try))
            while alpha > 0.015 and (not math.isfinite(res_try) or res_try >= res):
                alpha *= 0.5
                w_try = w - alpha * delta
                G_try, r_try = residual(w_try)
                res_try = math.sqrt(G_try.dot(G_try))
            if not math.isfinite(res_try):
                raise NonConvergenceError(
                    "quasi-Newton residual is not finite", residual=float("inf"),
                    iterations=it + 1)
            slow = slow + 1 if res_try > 0.25 * res else 0
            w, G, res, r = w_try, G_try, res_try, r_try
            if slow >= 2:
                solve = self._factor(axis, w, dt2, timings)
                slow = 0
        raise NonConvergenceError(
            f"quasi-Newton stalled at relative residual {res / scale:.3e} "
            f"after {cfg.newton_max_iters} iterations",
            residual=float(res), iterations=cfg.newton_max_iters)

    def _advance(self, w: np.ndarray, r: np.ndarray, step_index: int, timings):
        """Advance the packed ``w``, whose ``_rhs("y", w)`` is ``r``, one full
        dt (two half-steps); returns the new w and its ``_rhs("y", w)``.
        Factorizations refresh when ``step_index % lu_refresh_every == 0``
        and are reused otherwise. :meth:`_integrate` is the only caller."""
        cfg = self.cfg
        dt2 = 0.5 * cfg.dt
        refresh = (step_index % cfg.lu_refresh_every == 0)
        # x implicit with the y terms explicit, then the reverse; the x
        # half-step's accepted _rhs("x", w) is the second one's explicit part,
        # and the y half-step's accepted _rhs("y", w) the next step's first.
        for axis in ("x", "y"):
            if refresh:  # free the stale factorization before the new one is built
                self._solves.pop(axis, None)
            solve = self._solves.get(axis)
            w, self._solves[axis], r = self._half_step(w, w + dt2 * r, axis, dt2,
                                                       solve, timings)
        timings.steps += 1
        return w, r

    def _integrate(self, x0: FieldState, nt: int, timings, first_step: int = 0,
                   record=None) -> FieldState:
        """Advance ``x0`` nt full dt steps, numbered from ``first_step`` for
        the refresh cadence; returns copies of the final blocks as the state
        at x0.time plus nt times dt, accumulated one dt per step.

        x0 is packed once and its ``_rhs("y", w)`` evaluated once; each step
        then hands its accepted one to the next. After step i, ``record(i,
        w, t)``, if given, gets the packed result w, which it copies to keep,
        and its time t. A :class:`NonConvergenceError` carries ``timings``
        up to the failure; a blown-up state ends in it, without overflow
        warnings."""
        dt = self.cfg.dt
        w, t = np.concatenate([x0.u, x0.v, x0.phi]), x0.time
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                r = self._rhs("y", w, timings)
                for i in range(nt):
                    w, r = self._advance(w, r, first_step + i, timings)
                    t += dt
                    if record is not None:
                        record(i, w, t)
        except NonConvergenceError as err:
            err.timings = timings
            raise
        u, v, phi = self._fields(w).values()
        return FieldState(u=u.copy(), v=v.copy(), phi=phi.copy(), time=t)


class FullSolver(AdiNewton):
    """Stateful stepper holding band Newton layouts and cached LU factorizations."""

    def __init__(self, grid: Grid, ops: DifferenceOperators, f: np.ndarray, cfg: SolverConfig):
        self.cfg = cfg
        self.n = grid.n
        self._half_f = 0.5 * f  # exact: a power-of-two scaling
        self._sizes = (grid.n, grid.n, grid.n)
        self._fixed = self.n + boundary_row_indices(grid)  # wall-row v, v block offset
        self._bands = {axis: _BandedNewton(grid, ops, f, axis) for axis in ("x", "y")}
        self._solves = {}  # axis -> solve with the current factorization

    # -- the two hooks of the quasi-Newton loop ------------------------------

    def _rhs(self, axis: str, w: np.ndarray, timings: PhaseTimings) -> np.ndarray:
        """The direction's F-terms' part of (u', v', phi') plus half the
        Coriolis term, packed: 0 - :func:`~swerom.model.direction_terms`,
        with the Coriolis half added last."""
        t0 = time.perf_counter()
        band = self._bands[axis]
        fields = w.reshape(3, self.n)
        out = direction_terms(fields, band.A3, band.terms)
        np.subtract(0.0, out, out=out)
        out[0] += self._half_f * fields[1]
        out[1] -= self._half_f * fields[0]
        timings.nonlinear_s += time.perf_counter() - t0
        timings.rhs_evals += 1
        return out.reshape(-1)

    def _factor(self, axis: str, w: np.ndarray, dt2: float, timings: PhaseTimings):
        """Assemble and LU-factorize I - dt2*J at ``w``; returns the solve."""
        band = self._bands[axis]
        t0 = time.perf_counter()
        ab = band.assemble(self._fields(w), dt2)
        timings.jacobian_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        solve, pivoted = band.factorize(ab)
        timings.factorization_s += time.perf_counter() - t0
        timings.pivoted_factorizations += pivoted
        return solve

    def step(self, state: FieldState, step_index: int,
             timings: PhaseTimings | None = None) -> FieldState:
        """Advance one full dt: :meth:`AdiNewton._integrate` with nt = 1."""
        timings = timings if timings is not None else PhaseTimings()
        return self._integrate(state, 1, timings, first_step=step_index)


def run_full(
    ic: FieldState,
    cfg: SolverConfig,
    ops: DifferenceOperators,
    f: np.ndarray,
    grid: Grid,
) -> tuple[FieldState, SnapshotSet, PhaseTimings]:
    """Integrate nt steps from the initial condition, recording state and term snapshots.

    Snapshot column t holds the state after step t+1, i.e. at time (t+1)*dt;
    the initial condition itself is not a snapshot column. The run is one
    :meth:`AdiNewton._integrate` call, whose recorder writes each step's
    state and its terms (by :func:`~swerom.model.all_nonlinear`) as one
    contiguous row of an nt-by-n buffer per name, straight from the packed
    state; every buffer is transposed once at the end into its C-ordered
    n-by-nt matrix. A :class:`NonConvergenceError` carries the timings up to
    the failure.
    """
    timings = PhaseTimings()
    t_start = time.perf_counter()

    ind = cfl_indicator(ic, grid, cfg.dt)
    if ind > CFL_LIMIT:
        warnings.warn(f"CFL indicator {ind:.4f} exceeds stability limit {CFL_LIMIT}",
                      RuntimeWarning, stacklevel=2)

    rows = {name: np.empty((cfg.nt, grid.n)) for name in (*VARIABLES, *TERMS)}
    times = np.empty(cfg.nt)
    solver = FullSolver(grid, ops, f, cfg)

    def record(k, w, t):
        times[k] = t
        t0 = time.perf_counter()
        fields = solver._fields(w)
        for var in VARIABLES:
            rows[var][k] = fields[var]
        for term, value in all_nonlinear(FieldState(**fields, time=t), ops).items():
            rows[term][k] = value
        timings.recording_s += time.perf_counter() - t0

    try:
        state = solver._integrate(ic, cfg.nt, timings, record=record)
    finally:
        timings.total_s = time.perf_counter() - t_start

    t0 = time.perf_counter()
    # each buffer is freed as soon as its transpose exists: one extra matrix at most
    matrices = {name: np.ascontiguousarray(rows.pop(name).T) for name in list(rows)}
    states = {var: matrices[var] for var in VARIABLES}
    nonlinear = {term: matrices[term] for term in TERMS}
    timings.recording_s += time.perf_counter() - t0

    timings.total_s = time.perf_counter() - t_start
    return state, SnapshotSet(grid=grid, dt=cfg.dt, times=times, states=states,
                              nonlinear=nonlinear), timings
