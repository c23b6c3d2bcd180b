"""Reduced-order engines: projected dynamics and their evaluation routes.

A :class:`ReducedSpace` bundles per-variable bases with the difference
operators and precomputes every projected array the reduced model needs.
The nonlinear right-hand side can then be evaluated three ways:

* plain lift-evaluate-project (cost grows with the full dimension n),
* contraction against precomputed coefficient tensors (cost depends only
  on the basis sizes; both builds share the GEMM routine
  :func:`product_tensors`, with P = W^T over all n rows here and the DEIM
  projector P = E over the m sampled rows in :mod:`swerom.deim`),
* sampled interpolation (built in :mod:`swerom.deim`; cost depends on the
  number of sample points).

The coefficient tensors double as the analytic reduced Jacobian in all
modes, and the reduced ADI stepper mirrors the full solver's split exactly
so that reduced-versus-full differences isolate projection error.

With centering enabled the lift is xbar + U*xt, so each quadratic product
also generates linear and constant reduced pieces; they are precomputed
alongside the quadratic tensors.

Tensor coefficient file layout (little-endian): header
``{magic b"TPODCF1\\0", k, p, term count}`` followed by the Coriolis blocks
and, per term, the tag, product count, and each product's variable tags,
scale factor, and dense float64 arrays (quadratic tensor, two linear
matrices, constant vector).
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from swerom.errors import FileFormatError, NonConvergenceError
from swerom.model import (
    DifferenceOperators,
    FieldState,
    TERMS,
    TERM_EQUATION,
    TERM_NAMES,
    VARIABLES,
    X_TERMS,
    Y_TERMS,
)
from swerom.pod import PodBasis
from swerom.solver import SolverConfig

__all__ = [
    "ReducedState",
    "ReducedSpace",
    "project_initial",
    "lift_state",
    "standard_pod_nonlinear",
    "ProductTensors",
    "TermTensors",
    "TensorCoefficients",
    "product_tensors",
    "build_tensor_coefficients",
    "tensorial_nonlinear",
    "reduced_jacobian",
    "build_power_tensor",
    "contract_power",
    "RomTimings",
    "ReducedModel",
    "MODES",
    "save_tensors",
    "load_tensors",
]

MODES = ("standard-pod", "tensorial-pod", "pod-deim")


@dataclass
class ReducedState:
    """Per-variable reduced coordinates at one time instant."""

    u: np.ndarray
    v: np.ndarray
    phi: np.ndarray
    time: float = 0.0

    def __getitem__(self, var: str) -> np.ndarray:
        return getattr(self, var)

    def as_dict(self) -> dict[str, np.ndarray]:
        return {"u": self.u, "v": self.v, "phi": self.phi}


class ReducedSpace:
    """Bases for u, v, phi plus every projected array derived from them."""

    def __init__(self, bases: dict[str, PodBasis], ops: DifferenceOperators, f: np.ndarray):
        for var in VARIABLES:
            if var not in bases:
                raise ValueError(f"missing basis for variable {var!r}")
        self.bases = bases
        self.ops = ops
        self.f = f
        self.n = bases["u"].n
        # derivative bases A_axis @ U and derivative means A_axis @ xbar
        self.dbasis: dict[tuple[str, str], np.ndarray] = {}
        self.dmean: dict[tuple[str, str], np.ndarray] = {}
        for var, basis in bases.items():
            for axis, A in (("x", ops.Ax), ("y", ops.Ay)):
                self.dbasis[var, axis] = A @ basis.U
                self.dmean[var, axis] = A @ basis.xbar
        # reduced Coriolis coupling (projected exactly; it is linear)
        Wu, Wv = bases["u"].W, bases["v"].W
        self.coriolis_uv = Wu.T @ (f[:, None] * bases["v"].U)
        self.coriolis_vu = Wv.T @ (f[:, None] * bases["u"].U)
        self.coriolis_u0 = Wu.T @ (f * bases["v"].xbar)
        self.coriolis_v0 = Wv.T @ (f * bases["u"].xbar)

    def k(self, var: str) -> int:
        return self.bases[var].k

    @property
    def k_total(self) -> int:
        return sum(self.k(var) for var in VARIABLES)


def project_initial(state: FieldState, space: ReducedSpace) -> ReducedState:
    """Reduced coordinates of a full state: per variable W^T (x - xbar)."""
    return ReducedState(
        u=space.bases["u"].project(state.u),
        v=space.bases["v"].project(state.v),
        phi=space.bases["phi"].project(state.phi),
        time=state.time,
    )


def lift_state(xt: ReducedState, space: ReducedSpace) -> FieldState:
    return FieldState(
        u=space.bases["u"].lift(xt.u),
        v=space.bases["v"].lift(xt.v),
        phi=space.bases["phi"].lift(xt.phi),
        time=xt.time,
    )


def standard_pod_nonlinear(term: str, xt, space: ReducedSpace) -> np.ndarray:
    """Lift, evaluate the term componentwise in full space, project back."""
    eq = TERM_EQUATION[term]
    W = space.bases[eq].W
    out = np.zeros(space.k(eq))
    for coef, avar, bvar, axis in TERMS[term]:
        ba = space.bases[avar]
        a_full = ba.xbar + ba.U @ xt[avar]
        bx_full = space.dmean[bvar, axis] + space.dbasis[bvar, axis] @ xt[bvar]
        out += coef * (W.T @ (a_full * bx_full))
    return out


# --- coefficient tensors -------------------------------------------------------

@dataclass
class ProductTensors:
    """Projected pieces of one product a ⊙ (A b) of a nonlinear term."""

    a_var: str
    b_var: str
    coef: float
    quad: np.ndarray    # (k_eq, k_a, k_b); includes coef
    lin_a: np.ndarray   # (k_eq, k_a); coefficient of xt_a, from the b mean
    lin_b: np.ndarray   # (k_eq, k_b); coefficient of xt_b, from the a mean
    const: np.ndarray   # (k_eq,)


@dataclass
class TermTensors:
    term: str
    products: list[ProductTensors]


@dataclass
class TensorCoefficients:
    """Everything the tensorial evaluator and reduced Jacobians need."""

    terms: dict[str, TermTensors]
    coriolis_uv: np.ndarray
    coriolis_vu: np.ndarray
    coriolis_u0: np.ndarray
    coriolis_v0: np.ndarray
    k: dict[str, int]
    built_from: str = "full"  # "full": summed over all n rows; "sampled": DEIM rows


def product_tensors(P, Ua, abar, Ubx, bxbar, coef, a_var, b_var) -> ProductTensors:
    """Projected pieces of coef * P @ ((abar + Ua x_a) ⊙ (bxbar + Ubx x_b))
    for a k_eq-by-r projector P over the r rows of Ua and Ubx. One GEMM per
    a-mode keeps the temporary r-by-k_b, not the r-by-k_a*k_b Khatri-Rao."""
    quad = np.empty((P.shape[0], Ua.shape[1], Ubx.shape[1]))
    for p in range(Ua.shape[1]):
        quad[:, p, :] = coef * (P @ (Ua[:, p, None] * Ubx))
    lin_a = coef * (P @ (bxbar[:, None] * Ua))
    lin_b = coef * (P @ (abar[:, None] * Ubx))
    const = coef * (P @ (abar * bxbar))
    return ProductTensors(a_var=a_var, b_var=b_var, coef=coef,
                          quad=quad, lin_a=lin_a, lin_b=lin_b, const=const)


def build_tensor_coefficients(space: ReducedSpace) -> TensorCoefficients:
    """Sum the projected triple products over all n mesh rows (P = W^T)."""
    terms: dict[str, TermTensors] = {}
    for name in TERM_NAMES:
        P = space.bases[TERM_EQUATION[name]].W.T
        products = []
        for coef, avar, bvar, axis in TERMS[name]:
            ba = space.bases[avar]
            products.append(product_tensors(
                P, ba.U, ba.xbar,
                space.dbasis[bvar, axis], space.dmean[bvar, axis],
                coef, avar, bvar))
        terms[name] = TermTensors(term=name, products=products)
    return TensorCoefficients(
        terms=terms,
        coriolis_uv=space.coriolis_uv, coriolis_vu=space.coriolis_vu,
        coriolis_u0=space.coriolis_u0, coriolis_v0=space.coriolis_v0,
        k={var: space.k(var) for var in VARIABLES}, built_from="full")


def tensorial_nonlinear(term: str, xt, tensors: TensorCoefficients) -> np.ndarray:
    """Frobenius contraction of the term's tensors against xt_a xt_b^T."""
    tt = tensors.terms[term]
    out = np.zeros(tensors.k[TERM_EQUATION[term]])
    for p in tt.products:
        xa, xb = xt[p.a_var], xt[p.b_var]
        out += (p.quad @ xb) @ xa + p.lin_a @ xa + p.lin_b @ xb + p.const
    return out


def reduced_jacobian(term: str, xt, tensors: TensorCoefficients) -> dict[str, np.ndarray]:
    """d(term)/d(xt_var) blocks; variables the term does not touch are absent."""
    tt = tensors.terms[term]
    k_eq = tensors.k[TERM_EQUATION[term]]
    blocks: dict[str, np.ndarray] = {}

    def add(var, mat):
        if var in blocks:
            blocks[var] = blocks[var] + mat
        else:
            blocks[var] = np.zeros((k_eq, tensors.k[var])) + mat

    for p in tt.products:
        add(p.a_var, p.quad @ xt[p.b_var] + p.lin_a)
        add(p.b_var, np.tensordot(p.quad, xt[p.a_var], axes=([1], [0])) + p.lin_b)
    return blocks


# --- generic degree-p power tensors ------------------------------------------------

_LETTERS = "pqrs"


def build_power_tensor(W: np.ndarray, U: np.ndarray, p: int) -> np.ndarray:
    """Coefficients for a componentwise power nonlinearity (U x)^p:
    M[i, i1..ip] = sum_l W[l,i] U[l,i1] ... U[l,ip]."""
    if not 2 <= p <= len(_LETTERS):
        raise ValueError(f"p must be in [2, {len(_LETTERS)}]")
    idx = _LETTERS[:p]
    subscripts = "li," + ",".join(f"l{c}" for c in idx) + "->i" + idx
    return np.einsum(subscripts, W, *([U] * p), optimize=True)


def contract_power(M: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Frobenius contraction of a degree-p tensor stack against xt ⊗ ... ⊗ xt."""
    out = M
    while out.ndim > 1:
        out = out @ xt
    return out


# --- reduced ADI stepping -------------------------------------------------------------

@dataclass
class RomTimings:
    """On-line phase decomposition (seconds)."""

    nonlinear_s: float = 0.0
    jacobian_s: float = 0.0
    factorization_s: float = 0.0
    solve_s: float = 0.0
    total_s: float = 0.0
    newton_iters: int = 0
    steps: int = 0
    worst_residual: float = 0.0  # largest accepted relative residual


class ReducedModel:
    """Reduced ADI stepper mirroring the full solver's directional split.

    The right-hand side nonlinear terms come from the selected mode
    (lift-project, tensor contraction, or a sampled evaluator); the Newton
    matrices always come from the coefficient tensors, which for sampled
    tensors are exactly the derivative of the sampled right-hand side.
    """

    def __init__(self, space: ReducedSpace, tensors: TensorCoefficients,
                 mode: str, cfg: SolverConfig, deim_ops: dict | None = None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if mode == "pod-deim" and deim_ops is None:
            raise ValueError("pod-deim mode needs the per-term sampled operators")
        self.space = space
        self.tensors = tensors
        self.mode = mode
        self.cfg = cfg
        self.deim_ops = deim_ops
        self.k = {var: space.k(var) for var in VARIABLES}
        ku, kv = self.k["u"], self.k["v"]
        self._slices = {"u": slice(0, ku), "v": slice(ku, ku + kv),
                        "phi": slice(ku + kv, ku + kv + self.k["phi"])}
        self.k_total = ku + kv + self.k["phi"]
        self._lu_x = None
        self._lu_y = None

    # -- packing -----------------------------------------------------------

    def _pack(self, state: ReducedState) -> np.ndarray:
        return np.concatenate([state.u, state.v, state.phi])

    def _unpack(self, z: np.ndarray, t: float) -> ReducedState:
        s = self._slices
        return ReducedState(u=z[s["u"]].copy(), v=z[s["v"]].copy(),
                            phi=z[s["phi"]].copy(), time=t)

    def _views(self, z: np.ndarray) -> dict[str, np.ndarray]:
        return {var: z[self._slices[var]] for var in VARIABLES}

    # -- right-hand side ----------------------------------------------------

    def _term_value(self, term: str, xt, timings: RomTimings | None) -> np.ndarray:
        t0 = time.perf_counter()
        if self.mode == "standard-pod":
            out = standard_pod_nonlinear(term, xt, self.space)
        elif self.mode == "tensorial-pod":
            out = tensorial_nonlinear(term, xt, self.tensors)
        else:
            out = self.deim_ops[term].evaluate(xt)
        if timings is not None:
            timings.nonlinear_s += time.perf_counter() - t0
        return out

    def _direction_rhs(self, z: np.ndarray, terms, timings) -> np.ndarray:
        xt = self._views(z)
        out = np.zeros(self.k_total)
        for name in terms:
            sl = self._slices[TERM_EQUATION[name]]
            out[sl] -= self._term_value(name, xt, timings)
        return out

    def _coriolis_rhs(self, z: np.ndarray) -> np.ndarray:
        T = self.tensors
        xt = self._views(z)
        out = np.zeros(self.k_total)
        out[self._slices["u"]] = T.coriolis_u0 + T.coriolis_uv @ xt["v"]
        out[self._slices["v"]] = -(T.coriolis_v0 + T.coriolis_vu @ xt["u"])
        return out

    # -- Newton matrix -------------------------------------------------------

    def _system_matrix(self, z: np.ndarray, terms, dt2: float,
                       timings: RomTimings) -> np.ndarray:
        t0 = time.perf_counter()
        xt = self._views(z)
        J = np.zeros((self.k_total, self.k_total))
        for name in terms:
            row = self._slices[TERM_EQUATION[name]]
            for var, block in reduced_jacobian(name, xt, self.tensors).items():
                J[row, self._slices[var]] -= block
        J[self._slices["u"], self._slices["v"]] += 0.5 * self.tensors.coriolis_uv
        J[self._slices["v"], self._slices["u"]] -= 0.5 * self.tensors.coriolis_vu
        A = np.eye(self.k_total) - dt2 * J
        timings.jacobian_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        lu = scipy.linalg.lu_factor(A)
        timings.factorization_s += time.perf_counter() - t0
        return lu

    # -- Newton loop -----------------------------------------------------------

    def _half_step(self, z0, explicit_part, terms, dt2, lu, refactor, timings):
        cfg = self.cfg
        z = z0.copy()
        scale = np.linalg.norm(z0)
        if scale == 0.0:
            scale = 1.0

        def residual(zk):
            return (zk - explicit_part
                    - dt2 * (self._direction_rhs(zk, terms, timings)
                             + 0.5 * self._coriolis_rhs(zk)))

        G = residual(z)
        res = np.linalg.norm(G)
        slow = 0
        for it in range(cfg.newton_max_iters):
            if res <= cfg.newton_tol * scale:
                timings.newton_iters += it
                timings.worst_residual = max(timings.worst_residual, res / scale)
                return z, lu
            t0 = time.perf_counter()
            delta = scipy.linalg.lu_solve(lu, -G)
            timings.solve_s += time.perf_counter() - t0
            alpha = 1.0
            z_try = z + delta
            G_try = residual(z_try)
            res_try = np.linalg.norm(G_try)
            while alpha > 0.015 and (not np.isfinite(res_try) or res_try >= res):
                alpha *= 0.5
                z_try = z + alpha * delta
                G_try = residual(z_try)
                res_try = np.linalg.norm(G_try)
            if not np.isfinite(res_try):
                raise NonConvergenceError(
                    "reduced quasi-Newton residual is not finite",
                    residual=float("inf"), iterations=it + 1)
            slow = slow + 1 if res_try > 0.25 * res else 0
            z, G, res = z_try, G_try, res_try
            if slow >= 2:
                lu = refactor(z)
                slow = 0
        if res <= cfg.newton_tol * scale:
            timings.newton_iters += cfg.newton_max_iters
            timings.worst_residual = max(timings.worst_residual, res / scale)
            return z, lu
        raise NonConvergenceError(
            f"reduced quasi-Newton stalled at relative residual {res / scale:.3e} "
            f"after {cfg.newton_max_iters} iterations ({self.mode})",
            residual=float(res), iterations=cfg.newton_max_iters)

    def step(self, state: ReducedState, step_index: int,
             timings: RomTimings | None = None) -> ReducedState:
        cfg = self.cfg
        timings = timings if timings is not None else RomTimings()
        dt2 = 0.5 * cfg.dt
        refresh = (step_index % cfg.lu_refresh_every == 0)

        z = self._pack(state)
        bx = z + dt2 * (self._direction_rhs(z, Y_TERMS, timings) + 0.5 * self._coriolis_rhs(z))
        if refresh or self._lu_x is None:
            self._lu_x = self._system_matrix(z, X_TERMS, dt2, timings)
        z_half, self._lu_x = self._half_step(
            z, bx, X_TERMS, dt2, self._lu_x,
            lambda zk: self._system_matrix(zk, X_TERMS, dt2, timings), timings)

        by = z_half + dt2 * (self._direction_rhs(z_half, X_TERMS, timings)
                             + 0.5 * self._coriolis_rhs(z_half))
        if refresh or self._lu_y is None:
            self._lu_y = self._system_matrix(z_half, Y_TERMS, dt2, timings)
        z_new, self._lu_y = self._half_step(
            z_half, by, Y_TERMS, dt2, self._lu_y,
            lambda zk: self._system_matrix(zk, Y_TERMS, dt2, timings), timings)

        timings.steps += 1
        return self._unpack(z_new, state.time + cfg.dt)

    def run(self, x0: ReducedState, nt: int | None = None
            ) -> tuple[ReducedState, dict[str, np.ndarray], RomTimings]:
        """Integrate nt steps; returns the reduced trajectory (k-by-nt per
        variable, column t at time (t+1)*dt, matching snapshot columns)."""
        nt = nt if nt is not None else self.cfg.nt
        timings = RomTimings()
        t_start = time.perf_counter()
        traj = {var: np.empty((self.k[var], nt)) for var in VARIABLES}
        state = x0
        for step in range(nt):
            state = self.step(state, step, timings)
            for var in VARIABLES:
                traj[var][:, step] = state[var]
        timings.total_s = time.perf_counter() - t_start
        return state, traj, timings


# --- tensor coefficient file -----------------------------------------------------

_MAGIC = b"TPODCF1\0"
_HEADER = struct.Struct("<8sqqq")


def _write_arr(fh, arr):
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_tensors(tensors: TensorCoefficients, path) -> None:
    ks = set(tensors.k.values())
    if len(ks) != 1:
        raise ValueError("only homogeneous basis sizes can be serialized")
    k = ks.pop()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, k, 2, len(tensors.terms)))
        for arr in (tensors.coriolis_uv, tensors.coriolis_vu,
                    tensors.coriolis_u0, tensors.coriolis_v0):
            _write_arr(fh, arr)
        for name in TERM_NAMES:
            tt = tensors.terms[name]
            fh.write(name.encode().ljust(8, b"\0"))
            fh.write(struct.pack("<q", len(tt.products)))
            for p in tt.products:
                fh.write(p.a_var.encode().ljust(8, b"\0"))
                fh.write(p.b_var.encode().ljust(8, b"\0"))
                fh.write(struct.pack("<d", p.coef))
                for arr in (p.quad, p.lin_a, p.lin_b, p.const):
                    _write_arr(fh, arr)


def load_tensors(path) -> TensorCoefficients:
    with open(path, "rb") as fh:
        def read_bytes(nbytes, what):
            data = fh.read(nbytes)
            if len(data) != nbytes:
                raise FileFormatError(f"truncated tensor file while reading {what}")
            return data

        def read(shape, what):
            data = read_bytes(8 * int(np.prod(shape)), what)
            return np.frombuffer(data, dtype="<f8").reshape(shape).copy()

        magic, k, p, n_terms = _HEADER.unpack(read_bytes(_HEADER.size, "header"))
        if magic != _MAGIC:
            raise FileFormatError(f"bad tensor magic {magic!r}")
        if p != 2:
            raise FileFormatError(f"unsupported tensor degree {p}")

        cor_uv = read((k, k), "coriolis")
        cor_vu = read((k, k), "coriolis")
        cor_u0 = read((k,), "coriolis")
        cor_v0 = read((k,), "coriolis")
        terms = {}
        for _ in range(n_terms):
            tag = read_bytes(8, "term tag").rstrip(b"\0").decode()
            (n_products,) = struct.unpack("<q", read_bytes(8, "product count"))
            products = []
            for _ in range(n_products):
                a_var = read_bytes(8, "variable tag").rstrip(b"\0").decode()
                b_var = read_bytes(8, "variable tag").rstrip(b"\0").decode()
                (coef,) = struct.unpack("<d", read_bytes(8, "scale factor"))
                quad = read((k, k, k), "quad")
                lin_a = read((k, k), "lin_a")
                lin_b = read((k, k), "lin_b")
                const = read((k,), "const")
                products.append(ProductTensors(a_var=a_var, b_var=b_var, coef=coef,
                                               quad=quad, lin_a=lin_a, lin_b=lin_b,
                                               const=const))
            terms[tag] = TermTensors(term=tag, products=products)
    return TensorCoefficients(terms=terms, coriolis_uv=cor_uv, coriolis_vu=cor_vu,
                              coriolis_u0=cor_u0, coriolis_v0=cor_v0,
                              k={var: k for var in VARIABLES})
