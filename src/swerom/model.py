"""Grid, constants, and the semi-discrete 2D shallow water model.

Prognostic fields are the velocities ``u``, ``v`` and the geopotential-like
variable ``phi = 2*sqrt(g*h)`` on a rectangular beta plane. Every field is a
flat length-``n`` vector in x-major order: node ``(i, j)`` maps to index
``i + j*nx`` with the x index varying fastest. Snapshot files and DEIM point
indices depend on this ordering, so it is fixed.

Boundary conditions: periodic in x (the grid carries both x = 0 and x = L,
which are the same physical point), ``v = 0`` on the y = 0 and y = D rows,
and a zero-gradient closure for ``u`` and ``phi`` in y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "PhysicalConstants",
    "DEFAULT_CONSTANTS",
    "Grid",
    "build_grid",
    "DifferenceOperators",
    "build_operators",
    "FieldState",
    "coriolis_field",
    "grammeltvedt_height",
    "geostrophic_wind",
    "geopotential_from_height",
    "initial_state",
    "direction_terms",
    "all_nonlinear",
    "boundary_row_indices",
    "cfl_indicator",
    "TERMS",
    "TERM_NAMES",
    "TERM_EQUATION",
    "X_TERMS",
    "Y_TERMS",
    "VARIABLES",
]

VARIABLES = ("u", "v", "phi")


@dataclass(frozen=True)
class PhysicalConstants:
    """Domain size and physical parameters (SI units)."""

    L: float = 6.0e6       # zonal extent [m]
    D: float = 4.4e6       # meridional extent [m]
    f_hat: float = 1.0e-4  # Coriolis parameter at mid-channel [1/s]
    beta: float = 1.5e-11  # meridional Coriolis gradient [1/(s m)]
    g: float = 10.0        # gravity [m/s^2]
    H0: float = 2000.0     # mean height [m]
    H1: float = 220.0      # shear amplitude [m]
    H2: float = 133.0      # perturbation amplitude [m]


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class Grid:
    """Equidistant nx-by-ny mesh covering [0, L] x [0, D], with that domain's constants."""

    nx: int
    ny: int
    consts: PhysicalConstants
    dx: float
    dy: float
    n: int

    @property
    def L(self) -> float:
        return self.consts.L

    @property
    def D(self) -> float:
        return self.consts.D

    def node_index(self, i: int, j: int) -> int:
        return i + j * self.nx

    def x_coords(self) -> np.ndarray:
        """Flat x coordinate of every node."""
        x = np.arange(self.nx) * self.dx
        return np.tile(x, self.ny)

    def y_coords(self) -> np.ndarray:
        """Flat y coordinate of every node."""
        y = np.arange(self.ny) * self.dy
        return np.repeat(y, self.nx)


def build_grid(nx: int, ny: int, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> Grid:
    """Build the mesh of n = nx*ny equidistant points.

    Both directions need at least 3 points for the difference stencils, and
    the domain a finite, positive length L and width D.
    """
    if nx < 3 or ny < 3:
        raise ValueError(f"grid needs nx >= 3 and ny >= 3, got {nx}x{ny}")
    if not (0.0 < consts.L < np.inf and 0.0 < consts.D < np.inf):
        raise ValueError(f"domain needs finite L > 0 and D > 0, got {consts.L} x {consts.D}")
    dx = consts.L / (nx - 1)
    dy = consts.D / (ny - 1)
    return Grid(nx=nx, ny=ny, consts=consts, dx=dx, dy=dy, n=nx * ny)


@dataclass(frozen=True)
class DifferenceOperators:
    """Sparse first-derivative operators with boundary conditions baked in.

    ``Ax``: second-order central differences with periodic wrap in x. The
    wrap identifies columns 0 and nx-1, so their stencils are identical
    (left neighbour nx-2, right neighbour 1).

    ``Ay``: central differences on interior rows, first-order one-sided
    differences on the y = 0 and y = D rows. Every row annihilates
    constants, consistent with the zero-gradient closure for u and phi.

    ``Ax3`` and ``Ay3`` apply them, block diagonally, to the flattened
    3-by-n stack of u, v and phi: one sparse product for all three.
    """

    Ax: sp.csr_matrix
    Ay: sp.csr_matrix
    Ax3: sp.csr_matrix
    Ay3: sp.csr_matrix


def _stencil_x(nx: int, dx: float) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    c = 1.0 / (2.0 * dx)
    for i in range(nx):
        # columns 0 and nx-1 are the same physical point: wrap skips the
        # duplicate so both get the (1, nx-2) stencil
        right = i + 1 if i + 1 < nx else 1
        left = i - 1 if i - 1 >= 0 else nx - 2
        rows += [i, i]
        cols += [right, left]
        vals += [c, -c]
    return sp.csr_matrix((vals, (rows, cols)), shape=(nx, nx))


def _stencil_y(ny: int, dy: float) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    c = 1.0 / (2.0 * dy)
    for j in range(1, ny - 1):
        rows += [j, j]
        cols += [j + 1, j - 1]
        vals += [c, -c]
    # one-sided first-order rows at both walls
    rows += [0, 0, ny - 1, ny - 1]
    cols += [1, 0, ny - 1, ny - 2]
    vals += [1.0 / dy, -1.0 / dy, 1.0 / dy, -1.0 / dy]
    return sp.csr_matrix((vals, (rows, cols)), shape=(ny, ny))


def build_operators(grid: Grid) -> DifferenceOperators:
    """Assemble the n-by-n derivative operators for the flat x-major layout."""
    Tx = _stencil_x(grid.nx, grid.dx)
    Ty = _stencil_y(grid.ny, grid.dy)
    Ax = sp.kron(sp.identity(grid.ny, format="csr"), Tx, format="csr")
    Ay = sp.kron(Ty, sp.identity(grid.nx, format="csr"), format="csr")
    return DifferenceOperators(Ax=Ax, Ay=Ay, Ax3=sp.block_diag([Ax] * 3, format="csr"),
                               Ay3=sp.block_diag([Ay] * 3, format="csr"))


def boundary_row_indices(grid: Grid) -> np.ndarray:
    """Flat indices of the y = 0 and y = D rows (where v is pinned to 0)."""
    south = np.arange(grid.nx)
    north = np.arange(grid.n - grid.nx, grid.n)
    return np.concatenate([south, north])


def coriolis_field(grid: Grid) -> np.ndarray:
    """Beta-plane Coriolis parameter f(y) = f_hat + beta*(y - D/2), flat."""
    return grid.consts.f_hat + grid.consts.beta * (grid.y_coords() - grid.D / 2.0)


def grammeltvedt_height(grid: Grid) -> np.ndarray:
    """Initial height field (Grammeltvedt No. 1 zonal flow).

    h = H0 + H1*tanh(theta) + H2*sech^2(theta)*sin(2 pi x / L) with
    theta = 9*(D/2 - y)/(2 D).
    """
    consts = grid.consts
    x = grid.x_coords()
    y = grid.y_coords()
    theta = 9.0 * (consts.D / 2.0 - y) / (2.0 * consts.D)
    sech2 = 1.0 / np.cosh(theta) ** 2
    wave = consts.H2 * sech2 * np.sin(2.0 * np.pi * x / consts.L)
    return consts.H0 + consts.H1 * np.tanh(theta) + wave


def geostrophic_wind(
    h: np.ndarray,
    ops: DifferenceOperators,
    f: np.ndarray,
    grid: Grid,
) -> tuple[np.ndarray, np.ndarray]:
    """Wind field in geostrophic balance with the height field.

    u = -(g/f) dh/dy, v = (g/f) dh/dx, with the discrete operators; v is
    forced to 0 on the y-boundary rows afterwards.
    """
    if np.any(np.abs(f) < 1e-12):
        raise ValueError("geostrophic wind undefined: |f| < 1e-12 somewhere")
    u = -(grid.consts.g / f) * (ops.Ay @ h)
    v = (grid.consts.g / f) * (ops.Ax @ h)
    v[boundary_row_indices(grid)] = 0.0
    return u, v


def geopotential_from_height(h: np.ndarray, g: float = DEFAULT_CONSTANTS.g) -> np.ndarray:
    """phi = 2*sqrt(g*h), componentwise. Rejects nonpositive depths."""
    if np.any(h <= 0.0):
        raise ValueError("height field must be strictly positive")
    return 2.0 * np.sqrt(g * h)


@dataclass
class FieldState:
    """The three prognostic fields, or their reduced coordinates, at one
    time instant; full fields are flat x-major."""

    u: np.ndarray
    v: np.ndarray
    phi: np.ndarray
    time: float = 0.0

    def __getitem__(self, var: str) -> np.ndarray:
        return getattr(self, var)

    @property
    def n(self) -> int:
        return self.u.shape[0]


def initial_state(grid: Grid, ops: DifferenceOperators) -> FieldState:
    """Grammeltvedt height with geostrophic winds, as a FieldState."""
    h = grammeltvedt_height(grid)
    f = coriolis_field(grid)
    u, v = geostrophic_wind(h, ops, f, grid)
    phi = geopotential_from_height(h, grid.consts.g)
    return FieldState(u=u, v=v, phi=phi, time=0.0)


# Each nonlinear term is a sum of products coef * a ⊙ (A_axis b). The
# equation a term feeds determines the test basis used when projecting it.
TERMS: dict[str, tuple[tuple[float, str, str, str], ...]] = {
    "F11": ((1.0, "u", "u", "x"), (0.5, "phi", "phi", "x")),
    "F12": ((1.0, "v", "u", "y"),),
    "F21": ((1.0, "u", "v", "x"),),
    "F22": ((1.0, "v", "v", "y"), (0.5, "phi", "phi", "y")),
    "F31": ((0.5, "phi", "u", "x"), (1.0, "u", "phi", "x")),
    "F32": ((0.5, "phi", "v", "y"), (1.0, "v", "phi", "y")),
}

TERM_NAMES = tuple(TERMS)
TERM_EQUATION = {"F11": "u", "F12": "u", "F21": "v", "F22": "v", "F31": "phi", "F32": "phi"}
# each direction has one term per equation, in ``VARIABLES`` order
X_TERMS = ("F11", "F21", "F31")
Y_TERMS = ("F12", "F22", "F32")


def direction_terms(fields: np.ndarray, A: sp.csr_matrix, terms: tuple[str, ...]) -> np.ndarray:
    """The terms of one ADI direction, one row each in ``terms`` order, on
    u, v and phi stacked as the rows of a C-ordered 3-by-n array, which ``A``
    (``DifferenceOperators.Ax3`` or ``Ay3``) differentiates. Each row sums the
    term's products (coef * a) * (A b) in ``TERMS`` order, in place and
    started from zero, so no row holds -0; each scaled field is made once."""
    factor = {(1.0, var): row for var, row in zip(VARIABLES, fields)}  # coef * a
    deriv = dict(zip(VARIABLES, (A @ fields.reshape(-1)).reshape(fields.shape)))
    out = np.empty((len(terms), fields.shape[1]))
    tmp = np.empty(fields.shape[1])
    for acc, name in zip(out, terms):
        total = 0.0
        for coef, avar, bvar, _ in TERMS[name]:
            if (coef, avar) not in factor:
                factor[coef, avar] = coef * factor[1.0, avar]
            total = np.add(total, np.multiply(factor[coef, avar], deriv[bvar], out=tmp), out=acc)
    return out


def all_nonlinear(state: FieldState, ops: DifferenceOperators) -> dict[str, np.ndarray]:
    """Every nonlinear term F11..F32 on the full state, by direction."""
    fields = np.stack([state[var] for var in VARIABLES])
    rows = dict(zip(X_TERMS, direction_terms(fields, ops.Ax3, X_TERMS)))
    rows.update(zip(Y_TERMS, direction_terms(fields, ops.Ay3, Y_TERMS)))
    return {name: rows[name] for name in TERM_NAMES}


def cfl_indicator(state: FieldState, grid: Grid, dt: float) -> float:
    """Wave-speed stability number sqrt(g*h_max)*dt/dx; stable up to 8.9301."""
    g = grid.consts.g
    h_max = float(np.max(state.phi)) ** 2 / (4.0 * g)
    return np.sqrt(g * h_max) * dt / grid.dx
