import math

import numpy as np
import pytest

from swerom import model
from swerom.model import (
    DEFAULT_CONSTANTS,
    FieldState,
    PhysicalConstants,
    build_grid,
    build_operators,
    boundary_row_indices,
    coriolis_field,
    geopotential_from_height,
    geostrophic_wind,
    grammeltvedt_height,
)

from model_oracles import eval_nonlinear, full_rhs

C = DEFAULT_CONSTANTS


# --- independent scalar/loop oracles -----------------------------------------

def scalar_height(x, y, consts=C):
    """One-line Grammeltvedt No. 1 formula, evaluated pointwise."""
    th = 9.0 * (consts.D / 2.0 - y) / (2.0 * consts.D)
    return (
        consts.H0
        + consts.H1 * math.tanh(th)
        + consts.H2 / math.cosh(th) ** 2 * math.sin(2.0 * math.pi * x / consts.L)
    )


def loop_derivative_x(field2d, dx):
    """Apply the periodic central x-stencil node by node (2d array [j][i])."""
    ny, nx = field2d.shape
    out = np.zeros_like(field2d)
    for j in range(ny):
        for i in range(nx):
            right = i + 1 if i + 1 < nx else 1
            left = i - 1 if i - 1 >= 0 else nx - 2
            out[j, i] = (field2d[j, right] - field2d[j, left]) / (2.0 * dx)
    return out


def loop_derivative_y(field2d, dy):
    """Central interior rows, one-sided wall rows, node by node."""
    ny, nx = field2d.shape
    out = np.zeros_like(field2d)
    for j in range(ny):
        for i in range(nx):
            if j == 0:
                out[j, i] = (field2d[1, i] - field2d[0, i]) / dy
            elif j == ny - 1:
                out[j, i] = (field2d[ny - 1, i] - field2d[ny - 2, i]) / dy
            else:
                out[j, i] = (field2d[j + 1, i] - field2d[j - 1, i]) / (2.0 * dy)
    return out


def loop_nonlinear(term, state, grid):
    """Brute-force per-node evaluation of a nonlinear term."""
    shape = (grid.ny, grid.nx)
    fields = {v: state[v].reshape(shape) for v in ("u", "v", "phi")}
    out = np.zeros(shape)
    for coef, avar, bvar, axis in model.TERMS[term]:
        if axis == "x":
            d = loop_derivative_x(fields[bvar], grid.dx)
        else:
            d = loop_derivative_y(fields[bvar], grid.dy)
        out += coef * fields[avar] * d
    return out.ravel()


def random_state(grid, rng, scale=1.0):
    return FieldState(
        u=scale * rng.standard_normal(grid.n),
        v=scale * rng.standard_normal(grid.n),
        phi=100.0 + scale * rng.standard_normal(grid.n),
    )


# --- grid ---------------------------------------------------------------------

def test_grid_paper_mesh():
    grid = build_grid(376, 276)
    assert grid.dx == pytest.approx(16000.0)
    assert grid.dy == pytest.approx(16000.0)
    assert grid.n == 103776


def test_grid_desk_mesh():
    assert build_grid(31, 23).n == 713


def test_grid_trivial_spacing():
    consts = PhysicalConstants(L=2.0, D=2.0)
    grid = build_grid(3, 3, consts)
    assert grid.dx == 1.0 and grid.dy == 1.0 and grid.n == 9


def test_grid_extent_identity():
    grid = build_grid(31, 23)
    assert grid.dx * (grid.nx - 1) == pytest.approx(C.L, rel=1e-15)
    assert grid.dy * (grid.ny - 1) == pytest.approx(C.D, rel=1e-15)


@pytest.mark.parametrize("nx,ny", [(2, 5), (5, 2), (1, 1)])
def test_grid_rejects_tiny(nx, ny):
    with pytest.raises(ValueError):
        build_grid(nx, ny)


# --- coriolis -----------------------------------------------------------------

def test_coriolis_mid_channel():
    grid = build_grid(5, 5)
    f = coriolis_field(grid)
    mid = grid.node_index(2, 2)  # y = D/2 on this grid
    assert f[mid] == C.f_hat


def test_coriolis_replicated_in_x():
    grid = build_grid(7, 5)
    f = coriolis_field(grid).reshape(grid.ny, grid.nx)
    assert np.all(f == f[:, :1])


# --- initial condition ---------------------------------------------------------

def test_height_symmetry_points():
    grid = build_grid(5, 5)  # x = L/4 and y = D/2 are nodes
    h = grammeltvedt_height(grid).reshape(grid.ny, grid.nx)
    assert h[2, 0] == pytest.approx(2000.0)
    assert h[2, 1] == pytest.approx(C.H0 + C.H2)  # 2133 m


def test_height_against_scalar_oracle():
    grid = build_grid(5, 5)
    h = grammeltvedt_height(grid).reshape(grid.ny, grid.nx)
    # oracle at (x=L/4, y=0), frozen from the scalar formula
    assert scalar_height(C.L / 4.0, 0.0) == pytest.approx(2220.9465794547627, rel=1e-14)
    assert h[0, 1] == pytest.approx(2220.9465794547627, rel=1e-13)
    # and everywhere
    for j in range(grid.ny):
        for i in range(grid.nx):
            assert h[j, i] == pytest.approx(scalar_height(i * grid.dx, j * grid.dy), rel=1e-13)


def test_geopotential_values():
    assert geopotential_from_height(np.array([2000.0]))[0] == pytest.approx(2 * math.sqrt(20000.0))
    assert geopotential_from_height(np.array([0.025]))[0] == pytest.approx(1.0)


def test_geopotential_range_follows_height():
    grid = build_grid(15, 11)
    h = grammeltvedt_height(grid)
    phi = geopotential_from_height(h)
    assert np.all(phi >= 2 * math.sqrt(C.g * h.min()) - 1e-12)
    assert np.all(phi <= 2 * math.sqrt(C.g * h.max()) + 1e-12)


def test_geopotential_rejects_nonpositive():
    with pytest.raises(ValueError):
        geopotential_from_height(np.array([1.0, -2.0]))


# --- operators ------------------------------------------------------------------

def test_operators_annihilate_constants():
    grid = build_grid(9, 7)
    ops = build_operators(grid)
    ones = np.ones(grid.n)
    assert np.max(np.abs(ops.Ax @ ones)) == 0.0
    assert np.max(np.abs(ops.Ay @ ones)) == 0.0


def test_x_derivative_periodic_wrap():
    grid = build_grid(13, 5)
    ops = build_operators(grid)
    field = np.sin(2.0 * np.pi * grid.x_coords() / C.L)
    d = (ops.Ax @ field).reshape(grid.ny, grid.nx)
    # columns 0 and nx-1 share the stencil by wrap
    assert np.array_equal(d[:, 0], d[:, -1])


def test_x_derivative_converges_second_order():
    errs = []
    for nx in (17, 33, 65):
        grid = build_grid(nx, 5)
        ops = build_operators(grid)
        x = grid.x_coords()
        field = np.sin(2.0 * np.pi * x / C.L)
        exact = (2.0 * np.pi / C.L) * np.cos(2.0 * np.pi * x / C.L)
        errs.append(np.max(np.abs(ops.Ax @ field - exact)))
    assert errs[0] / errs[1] > 3.5  # ~4x per halving of dx
    assert errs[1] / errs[2] > 3.5


def test_y_derivative_exact_on_linear():
    grid = build_grid(5, 9)
    ops = build_operators(grid)
    field = 3.0e-4 * grid.y_coords()
    d = ops.Ay @ field
    assert np.allclose(d, 3.0e-4, rtol=1e-12)


def test_operators_match_loop_oracle():
    rng = np.random.default_rng(7)
    grid = build_grid(6, 5)
    ops = build_operators(grid)
    field = rng.standard_normal(grid.n)
    f2d = field.reshape(grid.ny, grid.nx)
    assert np.allclose(ops.Ax @ field, loop_derivative_x(f2d, grid.dx).ravel(), rtol=1e-13)
    assert np.allclose(ops.Ay @ field, loop_derivative_y(f2d, grid.dy).ravel(), rtol=1e-13)


# --- geostrophic wind -------------------------------------------------------------

def test_wind_constant_height_is_calm():
    grid = build_grid(7, 7)
    ops = build_operators(grid)
    f = coriolis_field(grid)
    u, v = geostrophic_wind(np.full(grid.n, 2000.0), ops, f, grid)
    assert np.max(np.abs(u)) == 0.0 and np.max(np.abs(v)) == 0.0


def test_wind_matches_analytic_derivative():
    # v(0, D/2) = (g/f_hat) * H2 * 2 pi / L; discrete error is O(dx^2)
    analytic = (C.g / C.f_hat) * C.H2 * 2.0 * np.pi / C.L
    errs = []
    for nx in (21, 41):
        grid = build_grid(nx, 5)
        ops = build_operators(grid)
        f = coriolis_field(grid)
        h = grammeltvedt_height(grid)
        _, v = geostrophic_wind(h, ops, f, grid)
        errs.append(abs(v[grid.node_index(0, 2)] - analytic))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] < 0.01 * abs(analytic)


def test_wind_boundary_rows_zero():
    grid = build_grid(9, 7)
    ops = build_operators(grid)
    f = coriolis_field(grid)
    h = grammeltvedt_height(grid)
    _, v = geostrophic_wind(h, ops, f, grid)
    assert np.all(v[boundary_row_indices(grid)] == 0.0)


def test_wind_rejects_vanishing_coriolis():
    grid = build_grid(5, 5)
    ops = build_operators(grid)
    f = np.zeros(grid.n)
    with pytest.raises(ValueError):
        geostrophic_wind(np.ones(grid.n), ops, f, grid)


# --- nonlinear terms ----------------------------------------------------------------

def test_nonlinear_zero_on_constants():
    grid = build_grid(6, 6)
    ops = build_operators(grid)
    state = FieldState(u=np.full(grid.n, 3.0), v=np.full(grid.n, -1.0), phi=np.full(grid.n, 280.0))
    for term in model.TERM_NAMES:
        assert np.max(np.abs(eval_nonlinear(term, state, ops))) == 0.0


def test_nonlinear_zero_velocity_terms():
    rng = np.random.default_rng(11)
    grid = build_grid(5, 5)
    ops = build_operators(grid)
    state = random_state(grid, rng)
    state.v[:] = 0.0
    assert np.max(np.abs(eval_nonlinear("F12", state, ops))) == 0.0
    assert np.max(np.abs(eval_nonlinear("F21", state, ops))) == 0.0


@pytest.mark.parametrize("term", model.TERM_NAMES)
def test_nonlinear_matches_loop_oracle(term):
    rng = np.random.default_rng(23)
    grid = build_grid(5, 5)
    ops = build_operators(grid)
    state = random_state(grid, rng)
    got = eval_nonlinear(term, state, ops)
    want = loop_nonlinear(term, state, grid)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_nonlinear_oracle_on_7x7():
    rng = np.random.default_rng(29)
    grid = build_grid(7, 7)
    ops = build_operators(grid)
    state = random_state(grid, rng)
    for term in model.TERM_NAMES:
        got = eval_nonlinear(term, state, ops)
        want = loop_nonlinear(term, state, grid)
        denom = np.max(np.abs(want)) + 1e-300
        assert np.max(np.abs(got - want)) / denom <= 1e-13


@pytest.mark.parametrize("shape", [(31, 23), (8, 7)])
def test_all_nonlinear_equals_per_term_evaluation(shape):
    # one derivative per (axis, variable) must give each term's exact bits
    rng = np.random.default_rng(37)
    grid = build_grid(*shape)
    ops = build_operators(grid)
    state = random_state(grid, rng)
    got = model.all_nonlinear(state, ops)
    assert list(got) == list(model.TERM_NAMES)
    for term in model.TERM_NAMES:
        assert got[term].tobytes() == eval_nonlinear(term, state, ops).tobytes(), term


def test_rhs_rest_state_is_steady():
    grid = build_grid(7, 7)
    ops = build_operators(grid)
    f = coriolis_field(grid)
    state = FieldState(u=np.zeros(grid.n), v=np.zeros(grid.n), phi=np.full(grid.n, 282.0))
    for d in full_rhs(state, ops, f):
        assert np.max(np.abs(d)) == 0.0


def test_rhs_matches_composed_oracle():
    rng = np.random.default_rng(31)
    grid = build_grid(5, 5)
    ops = build_operators(grid)
    f = coriolis_field(grid)
    state = random_state(grid, rng)
    du, dv, dphi = full_rhs(state, ops, f)
    assert np.allclose(du, -loop_nonlinear("F11", state, grid) - loop_nonlinear("F12", state, grid) + f * state.v, rtol=1e-12)
    assert np.allclose(dv, -loop_nonlinear("F21", state, grid) - loop_nonlinear("F22", state, grid) - f * state.u, rtol=1e-12)
    assert np.allclose(dphi, -loop_nonlinear("F31", state, grid) - loop_nonlinear("F32", state, grid), rtol=1e-12)


def test_geostrophic_balance_residual_shrinks():
    # f-plane, x-independent height. Every x-derivative vanishes identically,
    # so u' = 0 exactly; the discretization-order imbalance lives in the
    # v equation (chain-rule commutator of phi*d_y(phi)/2 against g*d_y(h))
    # and must shrink under refinement.
    consts = PhysicalConstants(beta=0.0)
    residuals = []
    for ny in (23, 45):
        grid = build_grid(5, ny, consts)
        ops = build_operators(grid)
        f = coriolis_field(grid)
        y = grid.y_coords()
        theta = 9.0 * (consts.D / 2.0 - y) / (2.0 * consts.D)
        h = consts.H0 + consts.H1 * np.tanh(theta)  # no x-wave
        u, v = geostrophic_wind(h, ops, f, grid)
        phi = geopotential_from_height(h, consts.g)
        du, dv, _ = full_rhs(FieldState(u=u, v=v, phi=phi), ops, f)
        assert np.max(np.abs(du)) == 0.0
        # skip wall rows where the one-sided closure dominates
        interior = dv.reshape(grid.ny, grid.nx)[2:-2, :]
        residuals.append(np.max(np.abs(interior)) / np.max(np.abs(f * u)))
    assert residuals[1] < residuals[0] / 2.0


def test_cfl_indicator_paper_value():
    grid = build_grid(376, 276)
    state = FieldState(
        u=np.zeros(grid.n), v=np.zeros(grid.n),
        phi=np.full(grid.n, geopotential_from_height(np.array([2000.0]))[0]),
    )
    ind = model.cfl_indicator(state, grid, dt=960.0)
    assert ind == pytest.approx(8.48528137423857, rel=1e-10)
    assert ind <= 8.9301
