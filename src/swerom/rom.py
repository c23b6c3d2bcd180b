"""Reduced-order engines: projected dynamics and their evaluation routes.

A :class:`ReducedSpace` holds the per-variable bases, the difference
operators and the k-sized Coriolis projections. Each off-line build derives
the n-by-k derivative bases A @ U it reads (:meth:`ReducedSpace.derivative`)
and frees them when it returns, so no held object keeps them.
The nonlinear right-hand side can then be evaluated three ways:

* plain lift-evaluate-project: the full model's own evaluation
  (:func:`swerom.model.direction_terms`) on the lifted state, projected
  back per equation (cost grows with the full dimension n),
* contraction against precomputed coefficient tensors (cost depends only
  on the basis sizes; both builds share the GEMM routine
  :func:`trilinear_sum`, with P = U^T over all n rows here and the DEIM
  projector P = E over the m sampled rows in :mod:`swerom.deim`; the
  full-sum build sums each distinct trilinear form once, halving the four
  forms symmetric in (e, p) and transposing the two that repeat with
  equation and a variable swapped),
* sampled interpolation (built in :mod:`swerom.deim`; cost depends on the
  number of sample points).

The coefficient tensors double as the analytic reduced Jacobian in all
modes, and the reduced model steps through the full solver's own ADI
quasi-Newton loop (:class:`swerom.solver.AdiNewton`) so that
reduced-versus-full differences isolate projection error.

The per-term functions (:func:`standard_pod_nonlinear`,
:func:`tensorial_nonlinear`, :func:`reduced_jacobian`) are the reference
evaluation. The stepper runs on :class:`PackedDirection` instead: each ADI
direction's three terms and its Coriolis half packed over the stacked
reduced vector, so a right-hand side or a Jacobian is a few batched calls
rather than one Python call per term and product. The directions are packed
once, off-line, when a :class:`TensorCoefficients` is built (by
:func:`build_tensor_coefficients`, :func:`load_tensors` or
:func:`swerom.deim.deim_tensor_coefficients`); every on-line run on those
tensors shares them and only steps.

With centering enabled the lift is xbar + U*xt, so each quadratic product
also generates linear and constant reduced pieces; they are precomputed
alongside the quadratic tensors.

Tensor coefficient file layout (little-endian): header
``{magic b"TPODCF2\\0", k_u, k_v, k_phi, p, term count}`` followed by the
Coriolis blocks and, per term, the tag, product count, and each product's
variable tags, scale factor, and dense float64 arrays (quadratic tensor, two
linear matrices, constant vector), sized by the basis sizes they couple.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from swerom import binfile
from swerom.errors import NonConvergenceError
from swerom.model import (
    DifferenceOperators,
    FieldState,
    TERMS,
    TERM_EQUATION,
    TERM_NAMES,
    VARIABLES,
    X_TERMS,
    Y_TERMS,
    direction_terms,
)
from swerom.pod import PodBasis
from swerom.solver import AdiNewton, PhaseTimings, SolverConfig

# LAPACK's solve with an LU factorization, as lu_solve calls it
_getrs = scipy.linalg.lapack.dgetrs

__all__ = [
    "ReducedSpace",
    "project_initial",
    "standard_pod_nonlinear",
    "ProductTensors",
    "TermTensors",
    "TensorCoefficients",
    "trilinear_sum",
    "product_tensors",
    "build_tensor_coefficients",
    "tensorial_nonlinear",
    "reduced_jacobian",
    "PackedDirection",
    "ReducedModel",
    "MODES",
    "save_tensors",
    "load_tensors",
]

MODES = ("standard-pod", "tensorial-pod", "pod-deim")


class ReducedSpace:
    """Bases for u, v, phi, the difference operators, f and the k-sized
    Coriolis projections; the derivative bases come from :meth:`derivative`."""

    def __init__(self, bases: dict[str, PodBasis], ops: DifferenceOperators, f: np.ndarray):
        for var in VARIABLES:
            if var not in bases:
                raise ValueError(f"missing basis for variable {var!r}")
        self.bases = bases
        self.ops = ops
        self.f = f
        self.n = bases["u"].n
        # reduced Coriolis coupling (projected exactly; it is linear)
        Uu, Uv = bases["u"].U, bases["v"].U
        self.coriolis_uv = Uu.T @ (f[:, None] * Uv)
        self.coriolis_vu = Uv.T @ (f[:, None] * Uu)
        self.coriolis_u0 = Uu.T @ (f * bases["v"].xbar)
        self.coriolis_v0 = Uv.T @ (f * bases["u"].xbar)

    def k(self, var: str) -> int:
        return self.bases[var].k

    def derivative(self, var: str, axis: str, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """(A @ xbar, A @ U) of ``var``'s basis, A the ``axis`` difference
        operator, or only its ``rows``: a CSR row slice sums each row in the
        same order, so the rows equal those of the whole product bit for bit.
        Computed on every call and never cached."""
        A = self.ops.Ax if axis == "x" else self.ops.Ay
        A = A if rows is None else A[rows]
        return A @ self.bases[var].xbar, A @ self.bases[var].U


def project_initial(state: FieldState, space: ReducedSpace) -> FieldState:
    """Reduced coordinates of a full state: per variable U^T (x - xbar)."""
    return FieldState(
        u=space.bases["u"].project(state.u),
        v=space.bases["v"].project(state.v),
        phi=space.bases["phi"].project(state.phi),
        time=state.time,
    )


def standard_pod_nonlinear(term: str, xt, space: ReducedSpace) -> np.ndarray:
    """Lift, evaluate the term componentwise in full space, project back."""
    eq = TERM_EQUATION[term]
    U = space.bases[eq].U
    out = np.zeros(space.k(eq))
    for coef, avar, bvar, axis in TERMS[term]:
        A = space.ops.Ax if axis == "x" else space.ops.Ay
        a_full = space.bases[avar].lift(xt[avar])
        bx_full = A @ space.bases[bvar].lift(xt[bvar])
        out += coef * (U.T @ (a_full * bx_full))
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
    """Everything the tensorial evaluator and reduced Jacobians need.

    Construction packs the two ADI directions once (``directions``, axis ->
    :class:`PackedDirection`), off-line, so an on-line run only steps.
    ``deim_ops``, the per-term operators the tensors were sampled from, is
    set only by :func:`swerom.deim.deim_tensor_coefficients`; the directions
    then also pack the sampled products that POD/DEIM evaluates.
    """

    terms: dict[str, TermTensors]
    coriolis_uv: np.ndarray
    coriolis_vu: np.ndarray
    coriolis_u0: np.ndarray
    coriolis_v0: np.ndarray
    k: dict[str, int]
    deim_ops: dict | None = None
    directions: dict[str, PackedDirection] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.directions = {axis: PackedDirection(terms, self)
                           for axis, terms in (("x", X_TERMS), ("y", Y_TERMS))}


def trilinear_sum(P, Ua, Ubx, symmetric: bool = False) -> np.ndarray:
    """T[e, p, q] = sum_i P[e, i] Ua[i, p] Ubx[i, q] for a k_e-by-r projector
    P over the r rows of Ua and Ubx.

    One GEMM per a-mode keeps the temporary r-by-k_b, not the r-by-k_a*k_b
    Khatri-Rao. ``symmetric`` says that P is Ua^T, so T is symmetric in
    (e, p): each a-mode p then sums only the rows e >= p, and the rows
    e < p are copied from the a-modes already summed.
    """
    T = np.empty((P.shape[0], Ua.shape[1], Ubx.shape[1]))
    for p in range(Ua.shape[1]):
        if symmetric:
            T[p:, p, :] = P[p:] @ (Ua[:, p, None] * Ubx)
            T[p, p + 1:, :] = T[p + 1:, p, :]
        else:
            T[:, p, :] = P @ (Ua[:, p, None] * Ubx)
    return T


def product_tensors(P, Ua, abar, Ubx, bxbar, coef, a_var, b_var, T) -> ProductTensors:
    """Projected pieces of coef * P @ ((abar + Ua x_a) ⊙ (bxbar + Ubx x_b)),
    given T = trilinear_sum(P, Ua, Ubx), which is without coef."""
    lin_a = coef * (P @ (bxbar[:, None] * Ua))
    lin_b = coef * (P @ (abar[:, None] * Ubx))
    const = coef * (P @ (abar * bxbar))
    return ProductTensors(a_var=a_var, b_var=b_var, coef=coef,
                          quad=coef * T, lin_a=lin_a, lin_b=lin_b, const=const)


def build_tensor_coefficients(space: ReducedSpace) -> TensorCoefficients:
    """Sum the projected triple products over all n mesh rows (P = U^T of the
    term's equation), each distinct trilinear form once.

    A form is keyed by (equation, a variable, b variable, axis). Where a is
    the equation's own variable (u·u_x, v·v_y, phi·u_x, phi·v_y) the sum is
    symmetric in (e, p), and only its half e >= p is summed. Where the key
    with equation and a swapped was summed already, the form is that sum
    with (e, p) transposed: phi·phi_x in the u equation gives u·phi_x in
    the phi equation, and phi·phi_y gives v·phi_y. So 4 full and 4 half
    sums make the 10 quadratic tensors; the linear and constant pieces are
    summed per product.
    """
    # the six derivative pairs (A @ xbar, A @ U), each derived once and freed on return
    pairs = dict.fromkeys((b, axis) for products in TERMS.values() for _, _, b, axis in products)
    derived = {pair: space.derivative(*pair) for pair in pairs}
    sums: dict[tuple[str, str, str, str], np.ndarray] = {}
    terms: dict[str, TermTensors] = {}
    for name in TERM_NAMES:
        eq = TERM_EQUATION[name]
        P = space.bases[eq].U.T
        products = []
        for coef, avar, bvar, axis in TERMS[name]:
            ba = space.bases[avar]
            bxbar, Ubx = derived[bvar, axis]
            swapped = sums.get((avar, eq, bvar, axis))
            if swapped is None:
                T = trilinear_sum(P, ba.U, Ubx, symmetric=avar == eq)
            else:
                T = np.ascontiguousarray(swapped.transpose(1, 0, 2))
            sums[eq, avar, bvar, axis] = T
            products.append(product_tensors(
                P, ba.U, ba.xbar, Ubx, bxbar, coef, avar, bvar, T))
        terms[name] = TermTensors(term=name, products=products)
    return TensorCoefficients(
        terms=terms,
        coriolis_uv=space.coriolis_uv, coriolis_vu=space.coriolis_vu,
        coriolis_u0=space.coriolis_u0, coriolis_v0=space.coriolis_v0,
        k={var: space.k(var) for var in VARIABLES})


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


# --- packed on-line evaluation -------------------------------------------------------

def _contraction(quad, ga, gb, rows, K):
    """Per product (quad @ x_b) @ x_a in two batched calls, then one sum of
    the product rows into z's rows (row K collects the padding)."""
    P, q = ga.shape

    def quadratic(z):
        rows_b = np.matmul(quad, z[gb][:, :, None]).reshape(P, q, q)
        vals = np.matmul(rows_b, z[ga][:, :, None])
        return np.bincount(rows, weights=vals.ravel(), minlength=K + 1)[:K]
    return quadratic


def _pack_sampled(terms, deim_ops, sl, cor_lin, cor_const):
    """The Coriolis half and every product's m sample rows stacked in AB and
    ab0: first the K rows of ``cor_lin`` and ``cor_const``, then the rows of
    A and B over z and their means a0 and b0; and the oblique projectors,
    with the coefficients c folded in, as one E."""
    products = [(TERM_EQUATION[t], deim_ops[t].E, p) for t in terms
                for p in deim_ops[t].products]
    K, m = len(cor_const), products[0][1].shape[1]
    Pm = len(products) * m
    AB = np.zeros((K + 2 * Pm, K))
    ab0 = np.empty(K + 2 * Pm)
    AB[:K], ab0[:K] = cor_lin, cor_const
    E = np.zeros((K, Pm))
    for j, (eq, Et, p) in enumerate(products):
        a, b = K + j * m, K + Pm + j * m
        AB[a:a + m, sl[p.a_var]], ab0[a:a + m] = p.Uam, p.am
        AB[b:b + m, sl[p.b_var]], ab0[b:b + m] = p.Ubxm, p.bxm
        E[sl[eq], j * m:(j + 1) * m] = p.coef * Et
    return AB, ab0, E


def _sampled_rhs(AB, ab0, E):
    """cor_lin @ z + cor_const - E @ ((A z + a0) ⊙ (B z + b0)), with c
    folded into E, from one product over the stacked rows of AB."""
    K, Pm = E.shape

    def rhs(z):
        t = AB @ z
        t += ab0
        return t[:K] - E @ (t[K:K + Pm] * t[K + Pm:])
    return rhs


def _lift_project(terms, space, slices, K):
    """Lift each variable (U @ x + xbar) into a 3-by-n stack, evaluate the
    direction's terms on it by :func:`~swerom.model.direction_terms` and
    project each with its equation's U^T."""
    A = space.ops.Ax3 if TERMS[terms[0]][0][3] == "x" else space.ops.Ay3
    lifts = [(slices[var], space.bases[var].U, space.bases[var].xbar) for var in VARIABLES]

    def quadratic(z):
        fields = np.empty((3, space.n))
        for (s, U, xbar), row in zip(lifts, fields):
            np.add(np.matmul(U, z[s], out=row), xbar, out=row)
        out = np.empty(K)
        for (s, U, _), term in zip(lifts, direction_terms(fields, A, terms)):
            out[s] = U.T @ term
        return out
    return quadratic


class PackedDirection:
    """One ADI direction's three terms and its Coriolis half, packed over the
    stacked reduced vector z = (u, v, phi) of length K.

    :class:`TensorCoefficients` packs its two directions once, when it is
    built; every reduced model on those tensors shares the arrays, so they
    are read-only. In every mode the nonlinear terms enter the right-hand
    side (see :meth:`rhs`) with a minus sign, half the Coriolis coupling
    with a plus. ``jac_lin`` and ``tensor_const`` hold every product's
    linear and constant pieces plus the Coriolis half, ``cor_lin`` and
    ``cor_const`` the Coriolis half alone. ``AB``, ``ab0`` and ``E`` are
    packed only from the tensors' own ``deim_ops``: ``AB`` and ``ab0``
    start with the K rows of ``cor_lin`` and ``cor_const`` and go on with
    the sampled products' rows, so one product ``AB @ z`` gives POD/DEIM's
    linear part and both factors of every sampled product. ``jacobian`` is
    the derivative taken from the coefficient tensors in every mode.

    Each product's tensors are padded to the largest basis size q, and its
    ``quad`` becomes a read-only view of its slot. Padded slots gather z[0]
    against zero coefficients and scatter into a spare entry K that is
    dropped, so per-variable k needs no other branch.
    """

    def __init__(self, terms, tensors: TensorCoefficients):
        k = tensors.k
        sizes = [k[var] for var in VARIABLES]
        K, q = sum(sizes), max(sizes)
        start = np.cumsum([0] + sizes)
        sl = {var: slice(s, s + k[var]) for var, s in zip(VARIABLES, start)}

        # slots[pad][i]: the z positions of variable i's modes, padded to q with pad
        modes = np.arange(q)
        slots = {pad: np.where(modes < np.array(sizes)[:, None], start[:3, None] + modes, pad)
                 for pad in (0, K)}

        products = [(TERM_EQUATION[t], p) for t in terms for p in tensors.terms[t].products]
        P = len(products)
        a, b, e = np.array([[VARIABLES.index(var) for var in (p.a_var, p.b_var, eq)]
                            for eq, p in products]).T
        rows = slots[K][e]

        # quad[0, p] is (row, a-mode) x b-mode; quad[1, p] is (row, b-mode) x a-mode
        quad = np.zeros((2, P, q, q, q))
        jac_lin = np.zeros((K, K))
        tensor_const = np.zeros(K)
        for j, (eq, p) in enumerate(products):
            ke, ka, kb = p.quad.shape
            quad[0, j, :ke, :ka, :kb] = p.quad
            jac_lin[sl[eq], sl[p.a_var]] -= p.lin_a
            jac_lin[sl[eq], sl[p.b_var]] -= p.lin_b
            tensor_const[sl[eq]] -= p.const
        quad[1] = quad[0].transpose(0, 1, 3, 2)
        self.terms, self.K, self.slices = terms, K, sl
        self.quad = quad.reshape(2 * P, q * q, q)
        self.ga, self.gb, self.rows = slots[0][a], slots[0][b], rows.ravel()
        self.g_jac = np.concatenate([self.gb, self.ga])
        self.jac_index = (np.repeat(np.concatenate([rows, rows]), q, axis=1) * (K + 1)
                          + np.tile(slots[K][np.concatenate([a, b])], q)).ravel()

        self.cor_lin = np.zeros((K, K))
        self.cor_const = np.zeros(K)
        self.cor_lin[sl["u"], sl["v"]] = 0.5 * tensors.coriolis_uv
        self.cor_lin[sl["v"], sl["u"]] = -0.5 * tensors.coriolis_vu
        self.cor_const[sl["u"]] = 0.5 * tensors.coriolis_u0
        self.cor_const[sl["v"]] = -0.5 * tensors.coriolis_v0
        self.jac_lin = jac_lin + self.cor_lin
        self.tensor_const = tensor_const + self.cor_const

        self.AB = self.ab0 = self.E = None
        if tensors.deim_ops is not None:
            self.AB, self.ab0, self.E = _pack_sampled(terms, tensors.deim_ops, sl,
                                                      self.cor_lin, self.cor_const)
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        # views of the read-only store are read-only; the products' own arrays are freed
        for slot, (_, p) in zip(self.quad.reshape(2, P, q, q, q)[0], products):
            ke, ka, kb = p.quad.shape
            p.quad = slot[:ke, :ka, :kb]

    def rhs(self, mode: str, space: ReducedSpace):
        """The direction's right-hand side z -> dz/dt in ``mode``, over these
        arrays: ``lin @ z + const - quadratic(z)`` for the two POD modes, and
        one product with the stacked ``AB`` for POD/DEIM. Only standard POD
        reads ``space``, to lift and project. The function closes over
        arrays only, so it holds no reference cycle and is freed with its
        model."""
        if mode == "pod-deim":
            if self.AB is None:
                raise ValueError("pod-deim mode needs tensors packed with the per-term "
                                 "sampled operators (deim_tensor_coefficients)")
            return _sampled_rhs(self.AB, self.ab0, self.E)
        if mode == "tensorial-pod":
            P = self.ga.shape[0]
            lin, const = self.jac_lin, self.tensor_const
            quadratic = _contraction(self.quad[:P], self.ga, self.gb, self.rows, self.K)
        else:
            lin, const = self.cor_lin, self.cor_const
            quadratic = _lift_project(self.terms, space, self.slices, self.K)

        def rhs(z):
            return lin @ z + const - quadratic(z)
        return rhs

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """d rhs / dz from the tensors: both derivative blocks of every
        product in one batched contraction, scattered in one pass. The
        array is fresh, so the caller may overwrite it."""
        K = self.K
        blocks = np.matmul(self.quad, z[self.g_jac][:, :, None])
        J = np.bincount(self.jac_index, weights=blocks.ravel(), minlength=(K + 1) ** 2)
        return self.jac_lin - J.reshape(K + 1, K + 1)[:K, :K]


# --- reduced ADI stepping -------------------------------------------------------------

class ReducedModel(AdiNewton):
    """Reduced ADI stepper: the full solver's quasi-Newton loop over the
    stacked reduced vector, with a dense LU in place of the band LU.

    The right-hand side nonlinear terms come from the selected mode
    (lift-project, tensor contraction, or a sampled evaluator); the Newton
    matrices always come from the coefficient tensors, which for sampled
    tensors are exactly the derivative of the sampled right-hand side. Both
    run on the :class:`PackedDirection` arrays the tensors were built with;
    a model packs nothing. Sampled tensors carry their DEIM operators, so a
    model takes none; ``deim_ops``, if given, must be the tensors' own.
    """

    def __init__(self, space: ReducedSpace, tensors: TensorCoefficients,
                 mode: str, cfg: SolverConfig, deim_ops: dict | None = None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if deim_ops is not None and deim_ops is not tensors.deim_ops:
            # the keyword is kept for callers that still pass the tensors' own operators
            raise ValueError("deim_ops are not the operators these tensors were sampled from; "
                             "build sampled tensors with deim_tensor_coefficients and pass none")
        self.mode = mode
        self.cfg = cfg
        self._sizes = tuple(tensors.k[var] for var in VARIABLES)
        self._directions = tensors.directions
        self._evaluate = {axis: d.rhs(mode, space) for axis, d in self._directions.items()}
        self._solves = {}  # axis -> solve with the current factorization

    # -- the two hooks of the quasi-Newton loop ------------------------------

    def _rhs(self, axis: str, z: np.ndarray, timings: PhaseTimings) -> np.ndarray:
        t0 = time.perf_counter()
        out = self._evaluate[axis](z)
        timings.nonlinear_s += time.perf_counter() - t0
        timings.rhs_evals += 1
        return out

    def _factor(self, axis: str, z: np.ndarray, dt2: float, timings: PhaseTimings):
        """Dense LU of I - dt2*J at ``z``; returns the solve. A matrix that is
        not finite or exactly singular raises :class:`NonConvergenceError`."""
        t0 = time.perf_counter()
        A = self._directions[axis].jacobian(z)  # a fresh array: I - dt2*J is built in it
        A *= -dt2
        A.flat[::A.shape[0] + 1] += 1.0
        timings.jacobian_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        if not np.isfinite(A).all():
            raise NonConvergenceError("Newton matrix is not finite",
                                      residual=float("nan"), iterations=0)
        with warnings.catch_warnings():  # a zero pivot raises instead of printing
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            try:
                lu, piv = scipy.linalg.lu_factor(A, overwrite_a=True, check_finite=False)
            except scipy.linalg.LinAlgWarning:
                raise NonConvergenceError("Newton matrix is singular (exactly zero pivot)",
                                          residual=float("nan"), iterations=0) from None
        timings.factorization_s += time.perf_counter() - t0

        def solve(rhs):
            # lu_solve without its finiteness check and batching wrapper: the
            # Newton loop solves only for finite residuals, and overwrites the
            # residual it passes, which it does not read again
            x, info = _getrs(lu, piv, rhs, overwrite_b=True)
            if info != 0:
                raise ValueError(f"getrs: illegal value in argument {-info}")
            return x
        return solve

    def step(self, state: FieldState, step_index: int,
             timings: PhaseTimings | None = None) -> FieldState:
        """Advance one full dt; see :meth:`swerom.solver.AdiNewton._adi_step`."""
        timings = timings if timings is not None else PhaseTimings()
        return self._adi_step(state, step_index, timings)

    def run(self, x0: FieldState, nt: int | None = None
            ) -> tuple[FieldState, dict[str, np.ndarray], PhaseTimings]:
        """Integrate nt steps; returns the reduced trajectory (k-by-nt per
        variable, column t at time (t+1)*dt, matching snapshot columns). A
        :class:`NonConvergenceError` carries the timings up to the failure.

        The run calls :meth:`~swerom.solver.AdiNewton._advance` on one packed
        vector: x0 is packed once, each step's result is written as a row of
        an nt-by-K buffer, and the buffer is split into the C-ordered
        trajectories at the end. Its results equal those of a loop of
        :meth:`step` calls bit for bit."""
        nt = nt if nt is not None else self.cfg.nt
        timings = PhaseTimings()
        t_start = time.perf_counter()
        rows = np.empty((nt, sum(self._sizes)))
        w, t = self._pack(x0), x0.time
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                r = self._start(w, timings)
                for step in range(nt):
                    w, r = self._advance(w, r, step, timings)
                    rows[step] = w
                    t += self.cfg.dt
        except NonConvergenceError as err:
            timings.total_s = time.perf_counter() - t_start
            err.timings = timings
            raise
        traj = {var: np.ascontiguousarray(block) for var, block in self._fields(rows.T).items()}
        timings.total_s = time.perf_counter() - t_start
        return self._unpack(w, t), traj, timings


# --- tensor coefficient file -----------------------------------------------------

def save_tensors(tensors: TensorCoefficients, path) -> None:
    with binfile.writing(path, "tensor") as w:
        w.fields("qqqqq", *(tensors.k[var] for var in VARIABLES), 2, len(tensors.terms))
        for arr in (tensors.coriolis_uv, tensors.coriolis_vu,
                    tensors.coriolis_u0, tensors.coriolis_v0):
            w.array(arr)
        for name in TERM_NAMES:
            tt = tensors.terms[name]
            w.tag(name)
            w.fields("q", len(tt.products))
            for p in tt.products:
                w.tag(p.a_var)
                w.tag(p.b_var)
                w.fields("d", p.coef)
                for arr in (p.quad, p.lin_a, p.lin_b, p.const):
                    w.array(arr)


def load_tensors(path) -> TensorCoefficients:
    with binfile.reading(path, "tensor") as r:
        *sizes, p, n_terms = r.fields("qqqqq", "header")
        r.require(p == 2, "unsupported tensor degree {}", p)
        r.require(n_terms == len(TERM_NAMES), "tensor file holds {} terms", n_terms)
        k = dict(zip(VARIABLES, sizes))
        cor_uv = r.array((k["u"], k["v"]), "coriolis")
        cor_vu = r.array((k["v"], k["u"]), "coriolis")
        cor_u0 = r.array((k["u"],), "coriolis")
        cor_v0 = r.array((k["v"],), "coriolis")
        terms = {}
        for name in TERM_NAMES:  # terms and products in the order save_tensors writes
            r.tag("term tag", (name,))
            r.require(r.fields("q", "count") == (len(TERMS[name]),),
                      "bad product count of {}", name)
            products = []
            for _, a_var, b_var, _ in TERMS[name]:
                r.tag("variable tag", (a_var,))
                r.tag("variable tag", (b_var,))
                (coef,) = r.fields("d", "scale factor")
                ke, ka, kb = k[TERM_EQUATION[name]], k[a_var], k[b_var]
                products.append(ProductTensors(
                    a_var=a_var, b_var=b_var, coef=coef, quad=r.array((ke, ka, kb), "quad"),
                    lin_a=r.array((ke, ka), "lin_a"), lin_b=r.array((ke, kb), "lin_b"),
                    const=r.array((ke,), "const")))
            terms[name] = TermTensors(term=name, products=products)
        # no r.end(): perfbench's reload test expects a padded file to load [snapshots-v2]
    return TensorCoefficients(terms=terms, coriolis_uv=cor_uv, coriolis_vu=cor_vu,
                              coriolis_u0=cor_u0, coriolis_v0=cor_v0, k=k)
