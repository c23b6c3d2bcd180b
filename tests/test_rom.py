import copy
import gc
import weakref
import warnings

import numpy as np
import pytest

import swerom.deim
import swerom.rom
from swerom.deim import (
    build_deim_term_operator,
    deim_operators_from_snapshots,
    deim_select_points,
    deim_tensor_coefficients,
    load_deim_operator,
    save_deim_operator,
)
from swerom.errors import FileFormatError, NonConvergenceError
from swerom.model import (
    FieldState,
    TERMS,
    TERM_EQUATION,
    TERM_NAMES,
    X_TERMS,
    Y_TERMS,
    build_grid,
    build_operators,
    coriolis_field,
)
from swerom.pod import PodBasis, build_state_bases
from swerom.rom import (
    MODES,
    PackedDirection,
    ReducedModel,
    ReducedSpace,
    build_tensor_coefficients,
    load_tensors,
    project_initial,
    reduced_jacobian,
    save_tensors,
    standard_pod_nonlinear,
    tensorial_nonlinear,
)
from swerom.solver import PhaseTimings, SolverConfig

from model_oracles import eval_nonlinear


def orthonormal_basis(n, k, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


def make_space(grid, rng, k=3, centered=True, phi_has_constant=False):
    """Random orthonormal bases; k is one size for all variables or a
    (k_u, k_v, k_phi) tuple."""
    ops = build_operators(grid)
    f = coriolis_field(grid)
    bases = {}
    sizes = k if isinstance(k, tuple) else (k, k, k)
    for var, k in zip(("u", "v", "phi"), sizes):
        if var == "phi" and phi_has_constant:
            U = np.column_stack([np.ones(grid.n) / np.sqrt(grid.n),
                                 rng.standard_normal((grid.n, k - 1))])
            U, _ = np.linalg.qr(U)
        else:
            U = orthonormal_basis(grid.n, k, rng)
        xbar = rng.standard_normal(grid.n) if centered else np.zeros(grid.n)
        bases[var] = PodBasis(var=var, U=U, xbar=xbar, sigma=np.ones(k), k=k)
    return ReducedSpace(bases, ops, f)


def random_reduced(space, rng, scale=1.0):
    return FieldState(u=scale * rng.standard_normal(space.k("u")),
                      v=scale * rng.standard_normal(space.k("v")),
                      phi=scale * rng.standard_normal(space.k("phi")))


def loop_tensor(W, Ua, Ubx, coef):
    """Quadruple-loop oracle for the coefficient tensors."""
    n, k_e = W.shape
    ka, kb = Ua.shape[1], Ubx.shape[1]
    M = np.zeros((k_e, ka, kb))
    for i in range(k_e):
        for p in range(ka):
            for q in range(kb):
                s = 0.0
                for l in range(n):
                    s += W[l, i] * Ua[l, p] * Ubx[l, q]
                M[i, p, q] = coef * s
    return M


def check_product_against_loop(prod, W, Ua, abar, Ubx, bxbar, coef):
    """All four projected pieces of one product against loop_tensor: the
    mean columns appended to Ua and Ubx give lin_a, lin_b and const."""
    ka, kb = Ua.shape[1], Ubx.shape[1]
    M = loop_tensor(W, np.column_stack([Ua, abar]), np.column_stack([Ubx, bxbar]), coef)
    for got, want in ((prod.quad, M[:, :ka, :kb]), (prod.lin_a, M[:, :ka, kb]),
                      (prod.lin_b, M[:, ka, :kb]), (prod.const, M[:, ka, kb])):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# --- projection --------------------------------------------------------------

def test_project_mean_is_origin():
    rng = np.random.default_rng(0)
    grid = build_grid(5, 5)
    space = make_space(grid, rng)
    state = FieldState(u=space.bases["u"].xbar.copy(),
                       v=space.bases["v"].xbar.copy(),
                       phi=space.bases["phi"].xbar.copy())
    xt = project_initial(state, space)
    for var in ("u", "v", "phi"):
        assert np.allclose(xt[var], 0.0, atol=1e-12)


def test_project_basis_vector_gives_unit():
    rng = np.random.default_rng(1)
    grid = build_grid(5, 5)
    space = make_space(grid, rng)
    b = space.bases["u"]
    state = FieldState(u=b.xbar + b.U[:, 0],
                       v=space.bases["v"].xbar.copy(),
                       phi=space.bases["phi"].xbar.copy())
    xt = project_initial(state, space)
    assert np.allclose(xt.u, np.eye(b.k)[0], atol=1e-12)


def test_project_matches_dense_oracle():
    rng = np.random.default_rng(2)
    grid = build_grid(5, 5)
    space = make_space(grid, rng)
    state = FieldState(u=rng.standard_normal(grid.n),
                       v=rng.standard_normal(grid.n),
                       phi=rng.standard_normal(grid.n))
    xt = project_initial(state, space)
    for var in ("u", "v", "phi"):
        b = space.bases[var]
        want = b.U.T @ (state[var] - b.xbar)
        assert np.allclose(xt[var], want, atol=1e-13)


# --- standard lift-project route ------------------------------------------------

def test_standard_zero_state_no_centering():
    rng = np.random.default_rng(3)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, centered=False)
    zero = FieldState(u=np.zeros(3), v=np.zeros(3), phi=np.zeros(3))
    for term in TERM_NAMES:
        assert np.allclose(standard_pod_nonlinear(term, zero, space), 0.0)


def test_standard_rank_one_scalar_formula():
    rng = np.random.default_rng(4)
    grid = build_grid(5, 5)
    ops = build_operators(grid)
    space = make_space(grid, rng, k=1, centered=False)
    ut = rng.standard_normal(1)
    vt = rng.standard_normal(1)
    xt = FieldState(u=ut, v=vt, phi=np.zeros(1))
    u1 = space.bases["u"].U[:, 0]
    v1 = space.bases["v"].U[:, 0]
    W = space.bases["u"].U[:, 0]
    # F12 = v ⊙ (Ay u): reduces to vt*ut * W^T(v1 ⊙ Ay u1)
    want = vt[0] * ut[0] * (W @ (v1 * (ops.Ay @ u1)))
    got = standard_pod_nonlinear("F12", xt, space)
    assert got[0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("term", TERM_NAMES)
def test_standard_equals_lifted_full_evaluation(term):
    rng = np.random.default_rng(5)
    grid = build_grid(5, 5)
    ops = build_operators(grid)
    space = make_space(grid, rng)
    xt = random_reduced(space, rng)
    lifted = FieldState(u=space.bases["u"].lift(xt.u), v=space.bases["v"].lift(xt.v),
                        phi=space.bases["phi"].lift(xt.phi))
    want = space.bases[TERM_EQUATION[term]].U.T @ eval_nonlinear(term, lifted, ops)
    got = standard_pod_nonlinear(term, xt, space)
    assert np.allclose(got, want, rtol=1e-11, atol=1e-12)


# --- coefficient tensors ----------------------------------------------------------

def test_tensor_zero_for_constant_basis_zero_derivative():
    # single basis vector of ones on a 1D-in-x setup: Ax kills it, so the
    # (u, u) quadratic tensor must vanish
    rng = np.random.default_rng(6)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, k=1, centered=False)
    ones = np.ones(grid.n) / np.sqrt(grid.n)
    for var in ("u", "v", "phi"):
        space.bases[var].U[:, 0] = ones
    space = ReducedSpace(space.bases, space.ops, space.f)  # rebuild the Coriolis projections
    tensors = build_tensor_coefficients(space)
    assert np.allclose(tensors.terms["F11"].products[0].quad, 0.0, atol=1e-15)


def test_tensor_k1_matches_direct_sum():
    rng = np.random.default_rng(7)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, k=1, centered=False)
    tensors = build_tensor_coefficients(space)
    W = space.bases["u"].U[:, 0]
    Ua = space.bases["u"].U[:, 0]
    Ux = space.derivative("u", "x")[1][:, 0]
    want = float(np.sum(W * Ua * Ux))
    assert tensors.terms["F11"].products[0].quad[0, 0, 0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k", [3, (2, 3, 4)], ids=["uniform-k", "per-variable-k"])
def test_tensor_matches_quadruple_loop_oracle(k):
    rng = np.random.default_rng(8)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, k=k)
    tensors = build_tensor_coefficients(space)
    for name in TERM_NAMES:
        W = space.bases[TERM_EQUATION[name]].U
        for j, (coef, avar, bvar, axis) in enumerate(TERMS[name]):
            ba = space.bases[avar]
            bxbar, Ubx = space.derivative(bvar, axis)
            check_product_against_loop(tensors.terms[name].products[j], W, ba.U, ba.xbar,
                                       Ubx, bxbar, coef)


@pytest.mark.parametrize("k", [3, (2, 3, 4)], ids=["uniform-k", "per-variable-k"])
def test_tensor_symmetric_forms_are_exactly_symmetric(k):
    # a ⊙ (A b) projected on a's own basis is symmetric in (e, p)
    space = make_space(build_grid(5, 5), np.random.default_rng(8), k=k)
    tensors = build_tensor_coefficients(space)
    symmetric = [(name, j) for name in TERM_NAMES for j, (_, avar, _, _) in enumerate(TERMS[name])
                 if avar == TERM_EQUATION[name]]
    assert symmetric == [("F11", 0), ("F22", 0), ("F31", 0), ("F32", 0)]
    for name, j in symmetric:
        quad = tensors.terms[name].products[j].quad
        assert quad.tobytes() == np.ascontiguousarray(quad.transpose(1, 0, 2)).tobytes(), name


@pytest.mark.parametrize("k", [3, (2, 3, 4)], ids=["uniform-k", "per-variable-k"])
def test_tensor_transposed_pairs_are_exact(k):
    # u·phi_x projected on phi is phi·phi_x projected on u with (e, p) swapped,
    # and likewise v·phi_y against phi·phi_y; their coefficients are 1 and 1/2
    space = make_space(build_grid(5, 5), np.random.default_rng(8), k=k)
    tensors = build_tensor_coefficients(space)
    for source, target in (("F11", "F31"), ("F22", "F32")):
        half = tensors.terms[source].products[1]
        full = tensors.terms[target].products[1]
        assert (half.a_var, half.b_var, full.a_var, full.b_var) == (
            "phi", "phi", TERM_EQUATION[source], "phi")
        assert full.quad.tobytes() == np.ascontiguousarray(
            2.0 * half.quad.transpose(1, 0, 2)).tobytes(), target


def test_tensor_matches_einsum_on_pod_bases(pipeline31):
    bases = build_state_bases(pipeline31.snaps.states, k=20)
    space = ReducedSpace(bases, pipeline31.ops, pipeline31.f)
    tensors = build_tensor_coefficients(space)
    for name in TERM_NAMES:
        W = space.bases[TERM_EQUATION[name]].U
        for j, (coef, avar, bvar, axis) in enumerate(TERMS[name]):
            want = coef * np.einsum("ie,ip,iq->epq", W, space.bases[avar].U,
                                    space.derivative(bvar, axis)[1])
            got = tensors.terms[name].products[j].quad
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (name, j)


class UpFrontSpace(ReducedSpace):
    """A space that forms all six (A @ xbar, A @ U) pairs once, up front and
    over all n rows, and serves its builds from them."""

    def __init__(self, bases, ops, f):
        super().__init__(bases, ops, f)
        self.pairs = {(var, axis): (A @ b.xbar, A @ b.U) for var, b in bases.items()
                      for axis, A in (("x", ops.Ax), ("y", ops.Ay))}

    def derivative(self, var, axis, rows=None):
        bxbar, Ubx = self.pairs[var, axis]
        return (bxbar, Ubx) if rows is None else (bxbar[rows], Ubx[rows])


@pytest.mark.parametrize("k", [12, (5, 7, 9)], ids=["pod-bases", "per-variable-k"])
def test_tensors_equal_a_build_from_up_front_derivatives(pipeline31, k):
    if isinstance(k, tuple):
        bases = make_space(pipeline31.grid, np.random.default_rng(11), k=k).bases
    else:
        bases = build_state_bases(pipeline31.snaps.states, k=k)
    got = build_tensor_coefficients(ReducedSpace(bases, pipeline31.ops, pipeline31.f))
    want = build_tensor_coefficients(UpFrontSpace(bases, pipeline31.ops, pipeline31.f))
    for name in TERM_NAMES:
        for g, w in zip(got.terms[name].products, want.terms[name].products):
            for attr in ("quad", "lin_a", "lin_b", "const"):
                assert getattr(g, attr).tobytes() == getattr(w, attr).tobytes(), (name, attr)
    for axis in ("x", "y"):
        for attr in ("jac_lin", "tensor_const", "quad"):
            assert (getattr(got.directions[axis], attr).tobytes()
                    == getattr(want.directions[axis], attr).tobytes()), (axis, attr)


def n_row_arrays(obj, n, path, skip, seen=None):
    """Paths of the arrays with n rows reachable from obj through dicts,
    lists, tuples and swerom objects, entering none of the objects in skip."""
    seen = set() if seen is None else seen
    if id(obj) in skip or id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [path] if obj.ndim and obj.shape[0] == n else []
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif type(obj).__module__.startswith("swerom."):
        items = vars(obj).items()
    else:
        return []
    return [found for key, value in items
            for found in n_row_arrays(value, n, f"{path}.{key}", skip, seen)]


def test_space_and_builds_hold_no_derivative_arrays(pipeline31):
    # a space owns n-row arrays only in the bases, ops and f it was given; the
    # builds derive A @ U and A @ xbar over all rows on each call and free them
    pipe = pipeline31
    space = ReducedSpace(build_state_bases(pipe.snaps.states, k=8), pipe.ops, pipe.f)
    derive, whole = space.derivative, []

    def recording(var, axis, rows=None):
        out = derive(var, axis, rows)
        if rows is None:
            whole.extend(weakref.ref(arr) for arr in out)
        return out
    space.derivative = recording
    tensors = build_tensor_coefficients(space)
    deim_ops = deim_operators_from_snapshots(space, pipe.snaps.nonlinear, 10)
    sampled = deim_tensor_coefficients(deim_ops, space)
    standard_pod_nonlinear("F11", random_reduced(space, np.random.default_rng(12)), space)
    del space.derivative
    assert len(whole) == 2 * 6 and all(ref() is None for ref in whole)

    modules = {mod.__name__: {name: value for name, value in vars(mod).items()
                              if not name.startswith("__")}
               for mod in (swerom.rom, swerom.deim)}
    held = {"space": vars(space), "tensors": tensors, "deim_ops": deim_ops,
            "sampled": sampled, **modules}
    assert n_row_arrays(held, space.n, "", {id(space.bases), id(space.ops), id(space.f)}) == []


def test_tensorial_zero_at_origin_no_centering():
    rng = np.random.default_rng(9)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, centered=False)
    tensors = build_tensor_coefficients(space)
    zero = FieldState(u=np.zeros(3), v=np.zeros(3), phi=np.zeros(3))
    for term in TERM_NAMES:
        assert np.allclose(tensorial_nonlinear(term, zero, tensors), 0.0)


@pytest.mark.parametrize("centered", [True, False])
def test_tensorial_equals_standard(centered):
    rng = np.random.default_rng(10)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, centered=centered)
    tensors = build_tensor_coefficients(space)
    for trial in range(5):
        xt = random_reduced(space, rng, scale=2.0)
        for term in TERM_NAMES:
            std = standard_pod_nonlinear(term, xt, space)
            tns = tensorial_nonlinear(term, xt, tensors)
            assert np.linalg.norm(tns - std) <= 1e-11 * (1.0 + np.linalg.norm(std))


def test_quadratic_homogeneity_without_centering():
    rng = np.random.default_rng(11)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, centered=False)
    tensors = build_tensor_coefficients(space)
    xt = random_reduced(space, rng)
    alpha = 1.7
    scaled = FieldState(u=alpha * xt.u, v=alpha * xt.v, phi=alpha * xt.phi)
    for term in TERM_NAMES:
        a = tensorial_nonlinear(term, scaled, tensors)
        b = alpha ** 2 * tensorial_nonlinear(term, xt, tensors)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


# --- reduced Jacobian ---------------------------------------------------------------

def test_jacobian_zero_state_quadratic_part():
    rng = np.random.default_rng(12)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, centered=False)
    tensors = build_tensor_coefficients(space)
    zero = FieldState(u=np.zeros(3), v=np.zeros(3), phi=np.zeros(3))
    blocks = reduced_jacobian("F11", zero, tensors)
    for block in blocks.values():
        assert np.allclose(block, 0.0)


def test_jacobian_k1_scalar_calculus():
    rng = np.random.default_rng(13)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, k=1, centered=False)
    tensors = build_tensor_coefficients(space)
    ut = np.array([0.7])
    xt = FieldState(u=ut, v=np.zeros(1), phi=np.zeros(1))
    M = tensors.terms["F11"].products[0].quad[0, 0, 0]
    # d(M u^2)/du = 2 M u
    blocks = reduced_jacobian("F11", xt, tensors)
    assert blocks["u"][0, 0] == pytest.approx(2.0 * M * ut[0], rel=1e-12)


@pytest.mark.parametrize("centered", [True, False])
def test_jacobian_matches_finite_differences(centered):
    rng = np.random.default_rng(14)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, centered=centered)
    tensors = build_tensor_coefficients(space)
    h = 1e-6
    for trial in range(3):
        xt = random_reduced(space, rng)
        for term in TERM_NAMES:
            blocks = reduced_jacobian(term, xt, tensors)
            for var, block in blocks.items():
                fd = np.zeros_like(block)
                for j in range(block.shape[1]):
                    plus = {"u": xt.u, "v": xt.v, "phi": xt.phi}
                    minus = {"u": xt.u, "v": xt.v, "phi": xt.phi}
                    plus[var] = plus[var].copy()
                    minus[var] = minus[var].copy()
                    plus[var][j] += h
                    minus[var][j] -= h
                    fd[:, j] = (tensorial_nonlinear(term, plus, tensors)
                                - tensorial_nonlinear(term, minus, tensors)) / (2 * h)
                denom = np.max(np.abs(fd)) + 1e-12
                assert np.max(np.abs(block - fd)) / denom < 1e-5


# --- reduced stepping ------------------------------------------------------------------

def test_reduced_rest_state_fixed_point():
    rng = np.random.default_rng(16)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, centered=False, phi_has_constant=True)
    tensors = build_tensor_coefficients(space)
    cfg = SolverConfig(dt=300.0, nt=1)
    model = ReducedModel(space, tensors, "tensorial-pod", cfg)
    rest_full = FieldState(u=np.zeros(grid.n), v=np.zeros(grid.n),
                           phi=np.full(grid.n, 282.0))
    xt0 = project_initial(rest_full, space)
    out = model.step(xt0, 0)
    assert np.allclose(out.u, xt0.u, atol=1e-12)
    assert np.allclose(out.phi, xt0.phi, atol=1e-10)


def test_cross_mode_single_step_agreement():
    rng = np.random.default_rng(17)
    grid = build_grid(7, 7)
    space = make_space(grid, rng, k=4, centered=False)
    tensors = build_tensor_coefficients(space)
    cfg = SolverConfig(dt=50.0, nt=1, newton_tol=1e-12)
    xt0 = random_reduced(space, rng, scale=0.1)
    a = ReducedModel(space, tensors, "standard-pod", cfg).step(xt0, 0)
    b = ReducedModel(space, tensors, "tensorial-pod", cfg).step(xt0, 0)
    for var in ("u", "v", "phi"):
        denom = np.linalg.norm(a[var]) + 1e-30
        assert np.linalg.norm(a[var] - b[var]) / denom <= 1e-10


def test_mode_validation():
    rng = np.random.default_rng(18)
    grid = build_grid(5, 5)
    space = make_space(grid, rng)
    tensors = build_tensor_coefficients(space)
    cfg = SolverConfig(dt=1.0, nt=1)
    with pytest.raises(ValueError, match="unknown mode"):
        ReducedModel(space, tensors, "magic", cfg)
    with pytest.raises(ValueError, match="sampled operators"):
        ReducedModel(space, tensors, "pod-deim", cfg)
    # the sampled products are packed with the tensors deim_tensor_coefficients builds
    deim_ops = mode_operators(space, "pod-deim", rng).deim_ops
    with pytest.raises(ValueError, match="deim_tensor_coefficients"):
        ReducedModel(space, tensors, "pod-deim", cfg, deim_ops=deim_ops)


def mode_operators(space, mode, rng, m=5):
    """Tensors as a ReducedModel in ``mode`` takes them; sampled tensors
    carry their operators, which use random orthonormal term bases."""
    if mode != "pod-deim":
        return build_tensor_coefficients(space)
    deim_ops = {}
    for term in TERM_NAMES:
        V = orthonormal_basis(space.n, m, rng)
        deim_ops[term] = build_deim_term_operator(space, term, V, deim_select_points(V))
    return deim_tensor_coefficients(deim_ops, space)


def packed_arrays(direction):
    """Every array a PackedDirection holds, by name."""
    return {name: arr for name, arr in vars(direction).items() if isinstance(arr, np.ndarray)}


def assert_same_packing(got, want):
    """Two packed directions hold the same arrays, bit for bit."""
    a, b = packed_arrays(got), packed_arrays(want)
    assert set(a) == set(b) and a
    for name in a:
        assert a[name].shape == b[name].shape and a[name].dtype == b[name].dtype, name
        assert a[name].tobytes() == b[name].tobytes(), name
    assert (got.K, got.slices, got.terms) == (want.K, want.slices, want.terms)


def per_term_direction(space, tensors, mode, terms, xt):
    """A direction's right-hand side and its derivative from the public
    per-term functions plus half the Coriolis blocks, as K-vector and K-by-K."""
    k = [space.k(var) for var in ("u", "v", "phi")]
    start = dict(zip(("u", "v", "phi"), np.cumsum([0] + k)))
    sl = {var: slice(start[var], start[var] + space.k(var)) for var in start}
    K = sum(k)
    rhs, jac = np.zeros(K), np.zeros((K, K))
    for term in terms:
        eq = sl[TERM_EQUATION[term]]
        if mode == "standard-pod":
            rhs[eq] -= standard_pod_nonlinear(term, xt, space)
        elif mode == "tensorial-pod":
            rhs[eq] -= tensorial_nonlinear(term, xt, tensors)
        else:
            rhs[eq] -= tensors.deim_ops[term].evaluate(xt)
        for var, block in reduced_jacobian(term, xt, tensors).items():
            jac[eq, sl[var]] -= block
    rhs[sl["u"]] += 0.5 * (tensors.coriolis_u0 + tensors.coriolis_uv @ xt["v"])
    rhs[sl["v"]] -= 0.5 * (tensors.coriolis_v0 + tensors.coriolis_vu @ xt["u"])
    jac[sl["u"], sl["v"]] += 0.5 * tensors.coriolis_uv
    jac[sl["v"], sl["u"]] -= 0.5 * tensors.coriolis_vu
    return rhs, jac


@pytest.mark.parametrize("k", [3, (2, 3, 4)], ids=["uniform-k", "per-variable-k"])
@pytest.mark.parametrize("centered", [True, False], ids=["centered", "uncentered"])
@pytest.mark.parametrize("mode", ["standard-pod", "tensorial-pod", "pod-deim"])
def test_packed_directions_equal_per_term_sums(mode, centered, k):
    rng = np.random.default_rng(21)
    space = make_space(build_grid(7, 5), rng, k=k, centered=centered)
    tensors = mode_operators(space, mode, rng)
    packed = tensors.directions
    evaluate = {name: d.rhs(mode, space) for name, d in packed.items()}
    for trial in range(3):
        xt = random_reduced(space, rng, scale=2.0)
        z = np.concatenate([xt.u, xt.v, xt.phi])
        for name, terms in (("x", X_TERMS), ("y", Y_TERMS)):
            rhs, jac = per_term_direction(space, tensors, mode, terms, xt)
            got_rhs, got_jac = evaluate[name](z), packed[name].jacobian(z)
            assert got_rhs.shape == rhs.shape and got_jac.shape == jac.shape
            assert np.linalg.norm(got_rhs - rhs) <= 1e-12 * np.linalg.norm(rhs)
            assert np.linalg.norm(got_jac - jac) <= 1e-12 * np.linalg.norm(jac)


@pytest.mark.parametrize("mode", ["standard-pod", "tensorial-pod", "pod-deim"])
def test_packed_direction_freed_without_cycle_collector(mode):
    # a reference cycle would keep every finished model, or every dropped
    # set of tensors, with its packed arrays alive until the cycle
    # collector runs, which raises peak memory
    rng = np.random.default_rng(24)
    space = make_space(build_grid(7, 5), rng, k=3)
    tensors = mode_operators(space, mode, rng)
    gc.disable()
    try:
        model = ReducedModel(space, tensors, mode, SolverConfig(dt=100.0, nt=2))
        model.run(random_reduced(space, rng, scale=0.1))
        refs = [weakref.ref(model), weakref.ref(model._evaluate["x"])]
        del model
        assert all(ref() is None for ref in refs)
        refs = [weakref.ref(tensors)] + [weakref.ref(d) for d in tensors.directions.values()]
        del tensors
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", ["standard-pod", "tensorial-pod", "pod-deim"])
def test_non_finite_half_step_raises_nonconvergence(mode):
    rng = np.random.default_rng(22)
    space = make_space(build_grid(9, 7), rng, k=3)
    tensors = mode_operators(space, mode, rng)
    model = ReducedModel(space, tensors, mode, SolverConfig(dt=100.0, nt=1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonConvergenceError, match="not finite") as err:
            model.step(random_reduced(space, rng, scale=1e160), 0)
    assert err.value.iterations == 0  # caught before any Newton solve
    assert [str(w.message) for w in caught] == []  # no overflow warnings on stderr


@pytest.mark.parametrize("matrix", ["inf", "singular"])
@pytest.mark.parametrize("mode", ["standard-pod", "tensorial-pod", "pod-deim"])
def test_bad_newton_matrix_raises_nonconvergence(monkeypatch, mode, matrix):
    # I - dt2*J not finite, or exactly zero (J = I/dt2), ends the run as a
    # numerical failure, as the full solver's band LU does, with no warning
    rng = np.random.default_rng(25)
    space = make_space(build_grid(9, 7), rng, k=3)
    tensors = mode_operators(space, mode, rng)
    cfg = SolverConfig(dt=128.0, nt=2)  # dt2 = 64, so dt2 * (1/dt2) is exactly 1
    jac = {"inf": np.full((9, 9), np.inf), "singular": np.eye(9) / 64.0}[matrix]
    monkeypatch.setattr(PackedDirection, "jacobian", lambda self, z: jac.copy())
    model = ReducedModel(space, tensors, mode, cfg)
    message = {"inf": "Newton matrix is not finite", "singular": "Newton matrix is singular"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError, match=message[matrix]) as err:
            model.run(random_reduced(space, rng, scale=0.1))
    assert err.value.timings.steps == 0 and err.value.timings.newton_iters == 0


@pytest.mark.parametrize("k", [3, (2, 3, 4)], ids=["uniform-k", "per-variable-k"])
@pytest.mark.parametrize("mode", ["standard-pod", "tensorial-pod", "pod-deim"])
def test_newton_matrix_build_leaves_directions_unchanged(mode, k):
    # _factor builds I - dt2*J in place on the array jacobian returns; every
    # factorization, the refresh at step 6 included, must leave the arrays
    # the direction evaluates with bit for bit as packed
    rng = np.random.default_rng(26)
    space = make_space(build_grid(9, 7), rng, k=k)
    tensors = mode_operators(space, mode, rng)
    cfg = SolverConfig(dt=100.0, nt=7, lu_refresh_every=6)
    model = ReducedModel(space, tensors, mode, cfg)
    factored = []
    factor = model._factor

    def recording_factor(axis, *args):
        factored.append(axis)
        return factor(axis, *args)

    model._factor = recording_factor
    model.run(random_reduced(space, rng, scale=0.1))
    assert factored.count("x") >= 2 and factored.count("y") >= 2
    for axis, terms in (("x", X_TERMS), ("y", Y_TERMS)):
        packed = PackedDirection(terms, tensors)
        assert_same_packing(model._directions[axis], packed)


@pytest.mark.parametrize("mode", ["standard-pod", "tensorial-pod", "pod-deim"])
def test_run_packs_nothing(monkeypatch, mode):
    # the directions are packed with the tensors, off-line; a model and its
    # run only wrap the packed arrays
    rng = np.random.default_rng(27)
    space = make_space(build_grid(9, 7), rng, k=(2, 3, 4))
    tensors = mode_operators(space, mode, rng)
    directions = dict(tensors.directions)

    def no_packing(*args, **kwargs):
        raise AssertionError("packed on-line")

    monkeypatch.setattr(PackedDirection, "__init__", no_packing)
    model = ReducedModel(space, tensors, mode, SolverConfig(dt=100.0, nt=7))
    _, traj, timings = model.run(random_reduced(space, rng, scale=0.1))
    assert timings.steps == 7 and all(np.isfinite(traj[var]).all() for var in traj)
    assert all(model._directions[axis] is d for axis, d in directions.items())


@pytest.mark.parametrize("k", [3, (2, 3, 4)], ids=["uniform-k", "per-variable-k"])
def test_reloaded_tensors_pack_the_same_arrays(tmp_path, k):
    # a .tpod file, and the .deim files of the sampled operators, give the
    # packed arrays of the tensors built in memory, bit for bit
    rng = np.random.default_rng(28)
    space = make_space(build_grid(9, 7), rng, k=k)
    tensors = build_tensor_coefficients(space)
    save_tensors(tensors, tmp_path / "tensors.tpod")
    back = load_tensors(tmp_path / "tensors.tpod")
    for axis in ("x", "y"):
        assert_same_packing(back.directions[axis], tensors.directions[axis])
    sampled = mode_operators(space, "pod-deim", rng)
    for term, op in sampled.deim_ops.items():
        save_deim_operator(op, tmp_path / f"{term}.deim")
    loaded = {term: load_deim_operator(tmp_path / f"{term}.deim") for term in TERM_NAMES}
    resampled = deim_tensor_coefficients(loaded, space)
    for axis in ("x", "y"):
        assert sampled.directions[axis].AB is not None
        assert_same_packing(resampled.directions[axis], sampled.directions[axis])


@pytest.mark.parametrize("k", [3, (2, 3, 4)], ids=["uniform-k", "per-variable-k"])
def test_product_tensors_are_views_of_the_packed_store(tmp_path, k):
    # each product's quadratic tensor is held once, in its direction's
    # read-only store, and writes and reads the .tpod bytes it did
    rng = np.random.default_rng(30)
    space = make_space(build_grid(9, 7), rng, k=k)
    for tensors in (build_tensor_coefficients(space), mode_operators(space, "pod-deim", rng)):
        save_tensors(tensors, tmp_path / "a.tpod")
        back = load_tensors(tmp_path / "a.tpod")
        save_tensors(back, tmp_path / "b.tpod")
        assert (tmp_path / "a.tpod").read_bytes() == (tmp_path / "b.tpod").read_bytes()
        for tns in (tensors, back):
            for axis, terms in (("x", X_TERMS), ("y", Y_TERMS)):
                store = tns.directions[axis].quad
                for term in terms:
                    eq = TERM_EQUATION[term]
                    for p in tns.terms[term].products:
                        assert p.quad.shape == (space.k(eq), space.k(p.a_var),
                                                space.k(p.b_var))
                        assert np.shares_memory(p.quad, store)
                        assert not p.quad.flags.writeable
                        with pytest.raises(ValueError, match="read-only"):
                            p.quad[0, 0, 0] = 1.0
        for term in TERM_NAMES:
            for p, q in zip(tensors.terms[term].products, back.terms[term].products):
                assert p.quad.tobytes() == q.quad.tobytes()
        # a deep copy owns writeable arrays, for callers that perturb a product
        assert copy.deepcopy(tensors).terms["F21"].products[0].quad.flags.writeable


def test_sampled_model_takes_no_deim_ops():
    # sampled tensors carry their operators: a model built without them runs
    # the same bits as one handed the tensors' own, and any other operators,
    # equal ones included, are refused
    rng = np.random.default_rng(31)
    space = make_space(build_grid(9, 7), rng, k=(4, 2, 3))
    sampled = mode_operators(space, "pod-deim", rng)
    xt0 = random_reduced(space, rng, scale=0.1)
    cfg = SolverConfig(dt=100.0, nt=7)
    runs = [ReducedModel(space, sampled, "pod-deim", cfg, **kw).run(xt0)
            for kw in ({}, {"deim_ops": sampled.deim_ops})]
    for var in ("u", "v", "phi"):
        assert runs[0][1][var].tobytes() == runs[1][1][var].tobytes()
    assert runs[0][2].newton_iters == runs[1][2].newton_iters > 0
    for other in (dict(sampled.deim_ops), mode_operators(space, "pod-deim", rng).deim_ops):
        for mode in MODES:
            with pytest.raises(ValueError, match="deim_tensor_coefficients"):
                ReducedModel(space, sampled, mode, cfg, deim_ops=other)


@pytest.mark.parametrize("mode", ["standard-pod", "tensorial-pod", "pod-deim"])
def test_runs_share_read_only_packing(mode):
    # every model on one set of tensors runs on the same packed arrays:
    # they are read-only, two runs give the same trajectory bit for bit,
    # and the arrays end as they were packed
    rng = np.random.default_rng(29)
    space = make_space(build_grid(9, 7), rng, k=(4, 2, 3))
    tensors = mode_operators(space, mode, rng)
    before = {axis: {name: arr.copy() for name, arr in packed_arrays(d).items()}
              for axis, d in tensors.directions.items()}
    xt0 = random_reduced(space, rng, scale=0.1)
    cfg = SolverConfig(dt=100.0, nt=7, lu_refresh_every=3)
    runs = [ReducedModel(space, tensors, mode, cfg).run(xt0)
            for _ in range(2)]
    for var in ("u", "v", "phi"):
        assert runs[0][1][var].tobytes() == runs[1][1][var].tobytes()
    assert runs[0][2].newton_iters == runs[1][2].newton_iters
    for axis, d in tensors.directions.items():
        arrays = packed_arrays(d)
        assert set(arrays) == set(before[axis])
        for name, arr in arrays.items():
            assert arr.tobytes() == before[axis][name].tobytes(), (axis, name)
            assert not arr.flags.writeable, (axis, name)
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 1.0


@pytest.mark.parametrize("mode", ["standard-pod", "tensorial-pod", "pod-deim"])
def test_one_rhs_per_accepted_iterate(pipeline31, mode):
    # each half-step returns the right-hand side its last residual took at
    # the accepted iterate, and the next half-step's explicit part uses it;
    # only the first step evaluates its explicit part
    bases = build_state_bases(pipeline31.snaps.states, k=4)
    space = ReducedSpace(bases, pipeline31.ops, pipeline31.f)
    if mode == "pod-deim":
        deim_ops = deim_operators_from_snapshots(space, pipeline31.snaps.nonlinear, 6)
        tensors = deim_tensor_coefficients(deim_ops, space)
    else:
        tensors = build_tensor_coefficients(space)
    cfg = SolverConfig(dt=pipeline31.cfg.dt, nt=7)  # spans the refresh at step 6
    model = ReducedModel(space, tensors, mode, cfg)
    rhs, half_step = model._rhs, model._half_step
    calls = {"all": 0, "residual": 0}
    inside = False
    half_steps = []

    def counting_rhs(axis, z, timings):
        calls["all"] += 1
        calls["residual"] += inside
        return rhs(axis, z, timings)

    def recording_half_step(z0, explicit_part, axis, *args):
        nonlocal inside
        inside = True
        try:
            z, solve, r = half_step(z0, explicit_part, axis, *args)
        finally:
            inside = False
        half_steps.append((z0.copy(), explicit_part.copy(), axis, z.copy(), r.copy()))
        return z, solve, r

    model._rhs, model._half_step = counting_rhs, recording_half_step
    _, _, timings = model.run(project_initial(pipeline31.ic, space))
    assert timings.rhs_evals == calls["all"] == calls["residual"] + 1

    def fresh(name, z):
        return rhs(name, z, PhaseTimings())

    assert len(half_steps) == 2 * cfg.nt
    for _, _, name, z, r in half_steps:
        assert np.array_equal(r, fresh(name, z))
    dt2 = 0.5 * cfg.dt
    for (_, _, name, z, _), (z0, b, next_name, _, _) in zip(half_steps[::2], half_steps[1::2]):
        assert (name, next_name) == ("x", "y") and np.array_equal(z0, z)
        assert np.array_equal(b, z + dt2 * fresh("x", z))
    for (_, _, _, z, r), (z0, b, _, _, _) in zip(half_steps[1::2], half_steps[2::2]):
        assert np.array_equal(z0, z) and np.array_equal(b, z + dt2 * r)


def step_loop(model, x0, nt):
    """A run of ``nt`` :meth:`ReducedModel.step` calls, as run returns it."""
    timings = PhaseTimings()
    traj = {var: np.empty((k, nt)) for var, k in zip(("u", "v", "phi"), model._sizes)}
    state = x0
    for step in range(nt):
        state = model.step(state, step, timings)
        for var in traj:
            traj[var][:, step] = state[var]
    return state, traj, timings


@pytest.mark.parametrize("cfg_nt, nt", [(7, None), (3, 7)], ids=["cfg-nt", "longer-nt"])
@pytest.mark.parametrize("mode", ["standard-pod", "tensorial-pod", "pod-deim"])
def test_run_equals_step_loop(mode, cfg_nt, nt):
    # run steps one packed vector and a loop of step calls packs and unpacks
    # a state per step; both give the same bits and counts, across the
    # refresh at step 6, and run leaves the carried right-hand side that
    # the next step reuses
    rng = np.random.default_rng(32)
    space = make_space(build_grid(9, 7), rng, k=(2, 3, 4))
    tensors = mode_operators(space, mode, rng)
    cfg = SolverConfig(dt=100.0, nt=cfg_nt, lu_refresh_every=6)
    x0 = random_reduced(space, rng, scale=0.1)
    x0.time = 50.0
    ran = ReducedModel(space, tensors, mode, cfg)
    looped = ReducedModel(space, tensors, mode, cfg)
    final, traj, timings = ran.run(x0, nt)
    want_final, want_traj, want = step_loop(looped, x0, 7)
    for var in ("u", "v", "phi"):
        assert traj[var].flags.c_contiguous and traj[var].shape == (space.k(var), 7)
        assert traj[var].tobytes() == want_traj[var].tobytes()
        assert final[var].tobytes() == want_final[var].tobytes()
    assert final.time == want_final.time == 50.0 + 7 * 100.0
    for name in ("newton_iters", "rhs_evals", "steps", "worst_residual"):
        assert getattr(timings, name) == getattr(want, name), name
    assert timings.steps == 7 and timings.rhs_evals > timings.newton_iters > 0

    calls = []
    rhs = ran._rhs

    def recording_rhs(axis, z, tm):
        calls.append(axis)
        return rhs(axis, z, tm)

    ran._rhs = recording_rhs
    after, after_want = PhaseTimings(), PhaseTimings()
    state = ran.step(final, 7, after)
    want_state = looped.step(want_final, 7, after_want)
    assert calls[0] == "x"  # the first is the x half-step's residual: "y" was carried
    assert (after.rhs_evals, after.newton_iters) == (after_want.rhs_evals,
                                                     after_want.newton_iters)
    for var in ("u", "v", "phi"):
        assert state[var].tobytes() == want_state[var].tobytes()


def test_dense_solve_of_negated_rhs_is_negated_solve():
    # the reduced model's getrs solve, like the band solves, gives
    # solve(-g) == -solve(g) bit for bit; it overwrites its argument
    rng = np.random.default_rng(33)
    space = make_space(build_grid(9, 7), rng, k=(4, 2, 3))
    model = ReducedModel(space, build_tensor_coefficients(space), "tensorial-pod",
                         SolverConfig(dt=100.0, nt=1))
    z = rng.standard_normal(9)
    solve = model._factor("x", z, 50.0, PhaseTimings())
    for _ in range(3):
        g = rng.standard_normal(9)
        neg = -g
        assert solve(-g).tobytes() == (-solve(g.copy())).tobytes()
        delta = solve(neg)
        assert np.shares_memory(delta, neg)  # G holds the step after the solve


def test_coriolis_rows_on_top_keep_the_sampled_rhs_bits():
    # at the on-line workload's shape (k = 20, m = 25: K = 60 and 125 rows
    # per sampled factor) one product with AB, Coriolis rows first, gives
    # the bits of the Coriolis half taken on its own and the sampled
    # factors taken as one stacked (A; B). A matrix-vector product can round
    # a row differently by its position in the matrix: A z and B z from
    # separate arrays differ from (A; B) z in the last bit of some rows, as
    # do the sampled rows at k = 7, m = 13, where K = 21
    rng = np.random.default_rng(34)
    space = make_space(build_grid(9, 7), rng, k=20)
    tensors = mode_operators(space, "pod-deim", rng, m=25)
    for axis, d in tensors.directions.items():
        K, Pm = d.E.shape
        assert (K, Pm) == (60, 125) and d.AB.shape == (K + 2 * Pm, K)
        cor_lin, cor_const = d.AB[:K].copy(), d.ab0[:K].copy()
        assert cor_lin.tobytes() == d.cor_lin.tobytes()
        assert cor_const.tobytes() == d.cor_const.tobytes()
        sampled, means = d.AB[K:].copy(), d.ab0[K:].copy()
        rhs = d.rhs("pod-deim", space)
        for _ in range(5):
            z = rng.standard_normal(K)
            t = sampled @ z + means
            want = cor_lin @ z + cor_const - d.E @ (t[:Pm] * t[Pm:])
            assert rhs(z).tobytes() == want.tobytes(), axis


def test_per_variable_k_trajectory_standard_equals_tensorial():
    rng = np.random.default_rng(23)
    space = make_space(build_grid(7, 7), rng, k=(2, 3, 4), centered=False)
    tensors = build_tensor_coefficients(space)
    cfg = SolverConfig(dt=50.0, nt=4, newton_tol=1e-12, lu_refresh_every=2)
    xt0 = random_reduced(space, rng, scale=0.1)
    _, a, _ = ReducedModel(space, tensors, "standard-pod", cfg).run(xt0)
    _, b, _ = ReducedModel(space, tensors, "tensorial-pod", cfg).run(xt0)
    for var in ("u", "v", "phi"):
        assert a[var].shape == (space.k(var), 4)
        assert np.linalg.norm(a[var] - b[var]) <= 1e-10 * np.linalg.norm(a[var])


# --- tensor file -----------------------------------------------------------------------

def test_tensor_file_roundtrip(tmp_path):
    rng = np.random.default_rng(19)
    grid = build_grid(5, 5)
    space = make_space(grid, rng)
    tensors = build_tensor_coefficients(space)
    path = tmp_path / "t.tpod"
    save_tensors(tensors, path)
    back = load_tensors(path)
    xt = random_reduced(space, rng)
    for term in TERM_NAMES:
        assert np.array_equal(tensorial_nonlinear(term, xt, back),
                              tensorial_nonlinear(term, xt, tensors))
    assert np.array_equal(back.coriolis_uv, tensors.coriolis_uv)
    path2 = tmp_path / "t2.tpod"
    save_tensors(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_tensor_file_bad_magic(tmp_path):
    rng = np.random.default_rng(20)
    grid = build_grid(5, 5)
    space = make_space(grid, rng)
    path = tmp_path / "bad.tpod"
    save_tensors(build_tensor_coefficients(space), path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="magic"):
        load_tensors(path)
