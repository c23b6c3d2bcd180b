"""Correctness checks built apart from the program.

Each check takes plain arrays or swerom objects and raises
:class:`CheckFailed` with a reason. The references are computed here with
NumPy from the model's equations (difference stencils, products, projection)
or are properties the methods must have, never a saved copy of an earlier
output.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

CFL_LIMIT = 8.93

# F = sum of coef * a * d(b)/d(axis); the shallow-water advection terms
EQUATION_PRODUCTS = {
    "F11": ((1.0, "u", "u", "x"), (0.5, "phi", "phi", "x")),
    "F12": ((1.0, "v", "u", "y"),),
    "F21": ((1.0, "u", "v", "x"),),
    "F22": ((1.0, "v", "v", "y"), (0.5, "phi", "phi", "y")),
    "F31": ((0.5, "phi", "u", "x"), (1.0, "u", "phi", "x")),
    "F32": ((0.5, "phi", "v", "y"), (1.0, "v", "phi", "y")),
}
TERM_EQUATION = {"F11": "u", "F12": "u", "F21": "v", "F22": "v", "F31": "phi", "F32": "phi"}


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rel_diff(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    return float(np.linalg.norm(a - b) / scale) if scale > 0.0 else 0.0


# --- snapshot file, read without swerom -----------------------------------------

def read_snapshot_file(path) -> dict:
    """Parse a ``SWESNAP1`` file: header, times, state and term matrices."""
    data = open(path, "rb").read()
    header = struct.Struct("<8sqqqqdQdd")
    _require(len(data) >= header.size, f"{path}: shorter than its header")
    magic, nx, ny, nt, n, dt, flags, L, D = header.unpack_from(data)
    _require(magic == b"SWESNAP1" and n == nx * ny, f"{path}: bad header")
    n_mats = 3 * bool(flags & 1) + 6 * bool(flags & 2)
    expected = header.size + 8 * nt + 8 * n * nt * n_mats
    _require(len(data) == expected, f"{path}: {len(data)} bytes, expected {expected}")
    body = np.frombuffer(data, dtype="<f8", offset=header.size)
    out = {"nx": nx, "ny": ny, "nt": nt, "n": n, "dt": dt, "L": L, "D": D,
           "times": body[:nt].copy(), "states": {}, "nonlinear": {}}
    mats = body[nt:].reshape(n_mats, nt, n)  # column-major n-by-nt matrices
    names = ((("u", "v", "phi") if flags & 1 else ())
             + (tuple(EQUATION_PRODUCTS) if flags & 2 else ()))
    for i, name in enumerate(names):
        group = "states" if name in ("u", "v", "phi") else "nonlinear"
        out[group][name] = mats[i].T.copy()
    return out


# --- full model ----------------------------------------------------------------

def check_full_run(states: dict, nx: int, dt: float, dx: float) -> None:
    """Finite fields, v = 0 on both wall rows, wave-CFL below the limit."""
    for var, X in states.items():
        _require(bool(np.all(np.isfinite(X))), f"full run: non-finite {var}")
    v = states["v"]
    walls = np.r_[np.arange(nx), np.arange(v.shape[0] - nx, v.shape[0])]
    # the wall rows of the Newton system are identity rows, so v stays zero up
    # to the rounding of the pivoted sparse LU solve
    worst = float(np.max(np.abs(v[walls, :])))
    _require(worst <= 1e-12 * float(np.max(np.abs(v))),
             f"full run: |v| on the walls reaches {worst:.3e}")
    # sqrt(g*h_max) with h = phi^2/(4g) is phi_max/2
    cfl = float(np.max(states["phi"])) / 2.0 * dt / dx
    _require(cfl < CFL_LIMIT, f"full run: wave-CFL indicator {cfl:.3f} >= {CFL_LIMIT}")


# --- reduced runs ----------------------------------------------------------------

def check_pod_equals_tpod(lifted_pod: dict, lifted_tpod: dict, tol: float = 1e-8) -> None:
    """Tensorial POD is standard POD evaluated in another order."""
    for var in lifted_pod:
        d = rel_diff(lifted_pod[var], lifted_tpod[var])
        _require(d <= tol, f"standard and tensorial {var} trajectories differ by {d:.2e}")


def mean_relative_error(full: np.ndarray, approx: np.ndarray) -> float:
    return float(np.mean(np.linalg.norm(full - approx, axis=0)
                         / np.linalg.norm(full, axis=0)))


def projection_floor(full: np.ndarray, U: np.ndarray, xbar: np.ndarray) -> float:
    """Mean relative error of the orthogonal projection onto xbar + span(U)."""
    centered = full - xbar[:, None]
    return mean_relative_error(full, xbar[:, None] + U @ (U.T @ centered))


def check_error_floor(label: str, full_states: dict, lifted: dict, bases: dict,
                      reported: dict) -> None:
    """Reported errors equal a recomputation and sit on or above the POD floor."""
    for var, X in full_states.items():
        own = mean_relative_error(X, lifted[var])
        rep = reported[var]["relerr"]
        _require(abs(rep - own) <= 1e-12 * own,
                 f"{label} {var}: reported error {rep!r} != recomputed {own!r}")
        floor = projection_floor(X, bases[var].U, bases[var].xbar)
        _require(own >= floor * (1.0 - 1e-12),
                 f"{label} {var}: error {own:.3e} below the projection floor {floor:.3e}")


def check_errors_equal(label: str, a: dict, b: dict, tol: float = 1e-10) -> None:
    """Same errors from two routes through the same algebra; ``tol`` covers
    only a different BLAS summation order."""
    for var in a:
        for key in ("relerr", "rmse"):
            x, y = float(a[var][key]), float(b[var][key])
            _require(abs(x - y) <= tol * max(abs(x), abs(y)),
                     f"{label} {var} {key}: {x!r} != {y!r}")


# --- coefficient tensors ---------------------------------------------------------

def d_dx(F: np.ndarray, nx: int, ny: int, dx: float) -> np.ndarray:
    """Periodic central difference in x; columns 0 and nx-1 are one point."""
    G3 = F.reshape(ny, nx, -1)
    right = np.r_[np.arange(1, nx), 1]
    left = np.r_[nx - 2, np.arange(0, nx - 1)]
    return ((G3[:, right] - G3[:, left]) / (2.0 * dx)).reshape(F.shape)


def d_dy(F: np.ndarray, nx: int, ny: int, dy: float) -> np.ndarray:
    """Central difference in y, one-sided first order on both walls."""
    G3 = F.reshape(ny, nx, -1)
    out = np.empty_like(G3)
    out[1:-1] = (G3[2:] - G3[:-2]) / (2.0 * dy)
    out[0] = (G3[1] - G3[0]) / dy
    out[-1] = (G3[-1] - G3[-2]) / dy
    return out.reshape(F.shape)


def check_tensor_slices(tensors, bases: dict, nx: int, ny: int, dx: float, dy: float,
                        slices=((0, "F11", 0), (1, "F22", 1), (2, "F31", 0)),
                        tol: float = 1e-10) -> None:
    """quad[i] of a product equals coef * sum_l W[l,i] Ua[l,:] (D Ub)[l,:]."""
    for i_frac, term, which in slices:
        coef, avar, bvar, axis = EQUATION_PRODUCTS[term][which]
        W = bases[TERM_EQUATION[term]].U
        Ua = bases[avar].U
        deriv = d_dx if axis == "x" else d_dy
        Ubx = deriv(bases[bvar].U, nx, ny, dx if axis == "x" else dy)
        i = min(i_frac * (W.shape[1] // 2), W.shape[1] - 1)
        expected = coef * (W[:, i, None] * Ua).T @ Ubx
        match = [p for p in tensors.terms[term].products
                 if p.a_var == avar and p.b_var == bvar]
        _require(len(match) == 1, f"{term}: no unique {avar}*d{bvar}/d{axis} product")
        d = rel_diff(match[0].quad[i], expected)
        _require(d <= tol, f"{term} {avar}*d{bvar}/d{axis} quad[{i}] off by {d:.2e}")


def contract(tensors, term: str, xt: dict) -> np.ndarray:
    """Quadratic, linear and constant parts of a term at reduced state xt."""
    out = 0.0
    for p in tensors.terms[term].products:
        xa, xb = xt[p.a_var], xt[p.b_var]
        out = out + (np.einsum("ipq,p,q->i", p.quad, xa, xb)
                     + p.lin_a @ xa + p.lin_b @ xb + p.const)
    return out


def check_sampled_contraction(deim_ops: dict, sampled_tensors, traj: dict,
                              columns=(0, -1), tol: float = 1e-12) -> None:
    """Sampled tensors contract to DeimTermOperator.evaluate at trajectory states."""
    for col in columns:
        xt = {var: traj[var][:, col] for var in traj}
        for term, op in deim_ops.items():
            direct = op.evaluate(xt)
            d = np.linalg.norm(contract(sampled_tensors, term, xt) - direct) / (
                1.0 + np.linalg.norm(direct))
            _require(d <= tol, f"{term}: sampled contraction off by {d:.2e} at column {col}")


# --- files and reports -------------------------------------------------------------

def check_same_arrays(label: str, saved, loaded, tol: float = 0.0) -> None:
    """Equality of every array and number reachable from two objects: bit
    for bit with ``tol=0``, else to ``tol`` relative (arrays only)."""
    if isinstance(saved, np.ndarray) or isinstance(loaded, np.ndarray):
        same = (isinstance(saved, np.ndarray) and isinstance(loaded, np.ndarray)
                and saved.shape == loaded.shape
                and (np.array_equal(saved, loaded) if tol == 0.0
                     else rel_diff(saved, loaded) <= tol))
        _require(same, f"{label}: arrays differ")
    elif isinstance(saved, dict):
        _require(set(saved) == set(loaded), f"{label}: keys differ")
        for key in saved:
            check_same_arrays(f"{label}.{key}", saved[key], loaded[key], tol)
    elif isinstance(saved, (list, tuple)):
        _require(len(saved) == len(loaded), f"{label}: lengths differ")
        for i, (a, b) in enumerate(zip(saved, loaded)):
            check_same_arrays(f"{label}[{i}]", a, b, tol)
    elif hasattr(saved, "__dict__"):
        check_same_arrays(label, vars(saved), vars(loaded), tol)
    elif isinstance(saved, float) and tol > 0.0:
        _require(abs(saved - loaded) <= tol * max(abs(saved), abs(loaded)),
                 f"{label}: {saved!r} != {loaded!r}")
    else:
        _require(saved == loaded or (saved != saved and loaded != loaded),
                 f"{label}: {saved!r} != {loaded!r}")


def check_spectra(spectra_csv, states: dict, nonlinear: dict, tol: float = 1e-10) -> None:
    """spectra.csv holds the singular values of the (centered) snapshot matrices."""
    rows: dict = {}
    with open(spectra_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault((row["kind"], row["name"]), []).append(float(row["sigma"]))
    expected = {("state", v): X - X.mean(axis=1, keepdims=True) for v, X in states.items()}
    expected.update({("nonlinear", t): X for t, X in nonlinear.items()})
    _require(set(rows) == set(expected), "spectra.csv: wrong set of matrices")
    for key, X in expected.items():
        s = np.linalg.svd(X, compute_uv=False)
        got = np.asarray(rows[key])
        _require(got.shape == s.shape and np.max(np.abs(got - s)) <= tol * s[0],
                 f"spectra.csv {key}: singular values disagree")


def check_report_status(rows) -> None:
    bad = [f"{r['mode']} m={r['m']}: {r['status']}" for r in rows if r["status"] != "ok"]
    _require(not bad, "bench rows not ok: " + "; ".join(bad))
