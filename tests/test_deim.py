import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf

from swerom.errors import FileFormatError
from swerom.deim import (
    build_deim_term_operator,
    deim_operators_from_snapshots,
    deim_projection,
    deim_select_points,
    deim_tensor_coefficients,
    load_deim_operator,
    save_deim_operator,
)
from swerom.model import (
    TERMS,
    TERM_NAMES,
    FieldState,
    build_grid,
    build_operators,
    coriolis_field,
    initial_state,
)
from swerom.rom import (
    build_tensor_coefficients,
    standard_pod_nonlinear,
    tensorial_nonlinear,
)
from swerom.solver import SolverConfig, run_full

from test_rom import check_product_against_loop, make_space, orthonormal_basis, random_reduced


def greedy_oracle(V):
    """Independent re-implementation of the greedy recursion, lstsq-based."""
    n, m = V.shape
    points = [int(np.argmax(np.abs(V[:, 0])))]
    for j in range(1, m):
        sub = V[np.array(points), :j]
        rhs = V[np.array(points), j]
        c = np.linalg.lstsq(sub, rhs, rcond=None)[0]
        r = V[:, j] - V[:, :j] @ c
        points.append(int(np.argmax(np.abs(r))))
    return np.array(points)


# --- point selection ------------------------------------------------------------

def test_select_single_unit_vector():
    e = np.zeros((7, 1))
    e[4, 0] = 1.0
    assert deim_select_points(e)[0] == 4


def test_select_two_unit_vectors_in_order():
    V = np.zeros((6, 2))
    V[0, 0] = 1.0
    V[1, 1] = 1.0
    assert list(deim_select_points(V)) == [0, 1]


def test_select_matches_independent_oracle():
    rng = np.random.default_rng(21)
    for trial in range(5):
        V = orthonormal_basis(10, 3, rng)
        assert np.array_equal(deim_select_points(V), greedy_oracle(V))


def test_select_degenerate_column_names_stage():
    V = np.zeros((5, 2))
    V[2, 0] = 1.0
    V[2, 1] = 1.0  # column 1 interpolates exactly at the first point
    with pytest.raises(np.linalg.LinAlgError, match="stage 1"):
        deim_select_points(V)


def test_select_matches_greedy_on_term_bases():
    """A real run's term bases hold exact ties: the x = 0 and x = L columns
    are one physical point, so twin rows of V can be bitwise equal."""
    grid = build_grid(31, 23)
    ops = build_operators(grid)
    _, snaps, _ = run_full(initial_state(grid, ops), SolverConfig(dt=960.0, nt=20), ops,
                           coriolis_field(grid), grid)
    for term in TERM_NAMES:
        F = snaps.nonlinear[term]
        U, s, _ = np.linalg.svd(F, full_matrices=False)
        rank = int(np.sum(s > s[0] * max(F.shape) * np.finfo(float).eps))
        greedy = greedy_oracle(U[:, :rank])  # nested: its first m are the points at m
        for m in range(1, rank + 1):
            assert np.array_equal(deim_select_points(U[:, :m]), greedy[:m]), (term, m)


@pytest.mark.parametrize("nx, ny, nt", [(11, 9, 8), (13, 11, 10)])
def test_select_pivots_on_orthonormal_term_bases_stay_above_bound(nx, ny, nt):
    """Stage j's pivot |U[j, j]| is the largest entry of a residual whose
    2-norm is at least 1 when V's columns are orthonormal, so it is at least
    1/sqrt(n): selection on the columns of an SVD's U never degenerates."""
    grid = build_grid(nx, ny)
    ops = build_operators(grid)
    _, snaps, _ = run_full(initial_state(grid, ops), SolverConfig(dt=300.0, nt=nt), ops,
                           coriolis_field(grid), grid)
    for term in TERM_NAMES:
        U = np.linalg.svd(snaps.nonlinear[term], full_matrices=False)[0]  # min(n, nt) columns
        lu, _, info = dgetrf(U)
        assert info == 0, term
        assert np.min(np.abs(np.diagonal(lu))) >= 1.0 / np.sqrt(grid.n), term
        assert deim_select_points(U).shape == (U.shape[1],), term


def test_select_displaced_twin_takes_lower_index():
    # rows 0 and 5 are equal; the first pivot, row 7, trades places with row 0,
    # so a tie break by LAPACK's pivoted order would report row 5
    V = np.array([[.1, .9], [.2, .1], [.3, .2], [.1, .3], [.2, .1], [.1, .9], [.3, .2],
                  [1., .5]])
    assert list(deim_select_points(V)) == list(greedy_oracle(V)) == [7, 0]


def test_select_more_columns_than_rows_raises():
    rng = np.random.default_rng(20)
    with pytest.raises(ValueError):
        deim_select_points(rng.standard_normal((3, 4)))


def test_points_distinct_and_in_range():
    rng = np.random.default_rng(22)
    V = orthonormal_basis(40, 12, rng)
    points = deim_select_points(V)
    assert len(np.unique(points)) == 12
    assert points.min() >= 0 and points.max() < 40


# --- projector -------------------------------------------------------------------

def test_projection_identity_when_sampling_is_exact():
    n, k = 8, 3
    V = np.eye(n)[:, :k]
    E, cond = deim_projection(V, V, np.arange(k))
    assert np.allclose(E, np.eye(k), atol=1e-14)
    assert cond == pytest.approx(1.0)


def test_projection_scalar_case():
    rng = np.random.default_rng(23)
    v = rng.standard_normal(6)
    W = rng.standard_normal((6, 1))
    p = int(np.argmax(np.abs(v)))
    E, _ = deim_projection(W, v[:, None], np.array([p]))
    assert E[0, 0] == pytest.approx(float(W[:, 0] @ v) / v[p], rel=1e-12)


def test_projection_matches_dense_oracle():
    rng = np.random.default_rng(24)
    n, k, m = 25, 3, 3
    W = orthonormal_basis(n, k, rng)
    V = orthonormal_basis(n, m, rng)
    points = deim_select_points(V)
    E, _ = deim_projection(W, V, points)
    P = np.eye(n)[:, points]
    E_dense = W.T @ V @ np.linalg.inv(P.T @ V)
    assert np.allclose(E, E_dense, atol=1e-12)
    # reconstruction identity E (P^T V) = W^T V
    assert np.max(np.abs(E @ V[points, :] - W.T @ V)) <= 1e-12


# --- sampled term evaluation --------------------------------------------------------

def term_span_basis(space, term, rng):
    """Orthonormal basis of the exact span of a term's achievable values
    (products of basis columns), so interpolation is exact for every xt."""
    cols = []
    for coef, avar, bvar, axis in TERMS[term]:
        Ua = space.bases[avar].U
        Ubx = space.dbasis[bvar, axis]
        for p in range(Ua.shape[1]):
            for q in range(Ubx.shape[1]):
                cols.append(Ua[:, p] * Ubx[:, q])
    M = np.column_stack(cols)
    Q, R = np.linalg.qr(M)
    keep = np.abs(np.diag(R)) > 1e-12 * np.abs(R[0, 0])
    return Q[:, keep]


def test_deim_zero_state_no_centering():
    rng = np.random.default_rng(25)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, centered=False)
    for term in TERM_NAMES:
        V = term_span_basis(space, term, rng)
        op = build_deim_term_operator(space, term, V, deim_select_points(V))
        zero = FieldState(u=np.zeros(3), v=np.zeros(3), phi=np.zeros(3))
        assert np.allclose(op.evaluate(zero), 0.0)


@pytest.mark.parametrize("term", TERM_NAMES)
def test_deim_exact_on_span(term):
    rng = np.random.default_rng(26)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, centered=False)
    V = term_span_basis(space, term, rng)
    op = build_deim_term_operator(space, term, V, deim_select_points(V))
    for trial in range(5):
        xt = random_reduced(space, rng)
        exact = standard_pod_nonlinear(term, xt, space)
        approx = op.evaluate(xt)
        assert np.linalg.norm(approx - exact) <= 1e-10 * (1.0 + np.linalg.norm(exact))


def test_deim_operator_validates_points():
    rng = np.random.default_rng(27)
    grid = build_grid(5, 5)
    space = make_space(grid, rng)
    V = orthonormal_basis(grid.n, 3, rng)
    with pytest.raises(ValueError, match="distinct"):
        build_deim_term_operator(space, "F11", V, np.array([1, 1, 2]))
    with pytest.raises(ValueError, match="range"):
        build_deim_term_operator(space, "F11", V, np.array([0, 5, 99]))


# --- sampled tensors -------------------------------------------------------------------

def test_sampled_tensors_reduce_to_full_when_m_equals_n():
    rng = np.random.default_rng(28)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, k=2)
    n = grid.n
    ops = {}
    for term in TERM_NAMES:
        # V spanning the whole space with identity sampling: E = W^T
        V = np.eye(n)
        ops[term] = build_deim_term_operator(space, term, V, np.arange(n))
    sampled = deim_tensor_coefficients(ops, space)
    full = build_tensor_coefficients(space)
    for term in TERM_NAMES:
        for ps, pf in zip(sampled.terms[term].products, full.terms[term].products):
            assert np.allclose(ps.quad, pf.quad, atol=1e-12)
            assert np.allclose(ps.lin_a, pf.lin_a, atol=1e-12)
            assert np.allclose(ps.lin_b, pf.lin_b, atol=1e-12)
            assert np.allclose(ps.const, pf.const, atol=1e-12)


def test_sampled_tensor_scalar_case():
    rng = np.random.default_rng(29)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, k=1, centered=False)
    V = orthonormal_basis(grid.n, 1, rng)
    op = build_deim_term_operator(space, "F21", V, deim_select_points(V))
    tensors = deim_tensor_coefficients({t: build_deim_term_operator(
        space, t, V, deim_select_points(V)) for t in TERM_NAMES}, space)
    p = op.products[0]
    want = op.E[0, 0] * p.Uam[0, 0] * p.Ubxm[0, 0]
    assert tensors.terms["F21"].products[0].quad[0, 0, 0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k", [3, (2, 3, 4)], ids=["uniform-k", "per-variable-k"])
def test_sampled_tensors_match_loop_over_sampled_rows(k):
    rng = np.random.default_rng(34)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, k=k)
    ops = {}
    for term in TERM_NAMES:
        V = orthonormal_basis(grid.n, 5, rng)
        ops[term] = build_deim_term_operator(space, term, V, deim_select_points(V))
    tensors = deim_tensor_coefficients(ops, space)
    for term in TERM_NAMES:
        op = ops[term]
        for got, p in zip(tensors.terms[term].products, op.products):
            check_product_against_loop(got, op.E.T, p.Uam, p.am, p.Ubxm, p.bxm, p.coef)


@pytest.mark.parametrize("centered", [True, False])
def test_contraction_equals_sampled_evaluation(centered):
    rng = np.random.default_rng(30)
    grid = build_grid(5, 5)
    space = make_space(grid, rng, k=3, centered=centered)
    ops = {}
    for term in TERM_NAMES:
        V = orthonormal_basis(grid.n, 3, rng)
        ops[term] = build_deim_term_operator(space, term, V, deim_select_points(V))
    tensors = deim_tensor_coefficients(ops, space)
    for trial in range(10):
        xt = random_reduced(space, rng, scale=2.0)
        for term in TERM_NAMES:
            direct = ops[term].evaluate(xt)
            contracted = tensorial_nonlinear(term, xt, tensors)
            assert np.linalg.norm(contracted - direct) <= 1e-12 * (1.0 + np.linalg.norm(direct))


def test_operators_from_snapshots_m_too_large():
    rng = np.random.default_rng(31)
    grid = build_grid(5, 5)
    space = make_space(grid, rng)
    snaps = {term: rng.standard_normal((grid.n, 4)) for term in TERM_NAMES}
    with pytest.raises(ValueError, match="m=10"):
        deim_operators_from_snapshots(space, snaps, 10)


# --- operator file -------------------------------------------------------------------

def test_deim_operator_roundtrip(tmp_path):
    rng = np.random.default_rng(32)
    grid = build_grid(5, 5)
    space = make_space(grid, rng)
    V = orthonormal_basis(grid.n, 3, rng)
    op = build_deim_term_operator(space, "F22", V, deim_select_points(V))
    path = tmp_path / "f22.deim"
    save_deim_operator(op, path)
    back = load_deim_operator(path)
    assert back.term == "F22"
    assert np.array_equal(back.points, op.points)
    assert np.array_equal(back.E, op.E)
    assert back.cond == op.cond and back.n == op.n
    xt = random_reduced(space, rng)
    assert np.array_equal(back.evaluate(xt), op.evaluate(xt))
    path2 = tmp_path / "f22b.deim"
    save_deim_operator(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_deim_operator_bad_magic(tmp_path):
    rng = np.random.default_rng(33)
    grid = build_grid(5, 5)
    space = make_space(grid, rng)
    V = orthonormal_basis(grid.n, 2, rng)
    op = build_deim_term_operator(space, "F11", V, deim_select_points(V))
    path = tmp_path / "bad.deim"
    save_deim_operator(op, path)
    data = bytearray(path.read_bytes())
    data[:8] = b"WRONG!!\0"
    path.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="magic"):
        load_deim_operator(path)


def test_deim_error_band_over_sample_counts(pipeline31):
    """Mean trajectory approximation error is nonincreasing in m within a
    10% tolerance band (greedy selection is not strictly monotone)."""
    from swerom.pod import build_state_bases
    from swerom.rom import ReducedSpace

    pipe = pipeline31
    bases = build_state_bases(pipe.snaps.states, k=20)
    space = ReducedSpace(bases, pipe.ops, pipe.f)
    projected = [
        {v: bases[v].project(pipe.snaps.states[v][:, t]) for v in ("u", "v", "phi")}
        for t in range(pipe.snaps.nt)
    ]
    reference = {term: [standard_pod_nonlinear(term, xt, space) for xt in projected]
                 for term in TERM_NAMES}
    means = []
    for m in (5, 10, 20, 40):
        ops_by_term = deim_operators_from_snapshots(space, pipe.snaps.nonlinear, m)
        errs = []
        for term in TERM_NAMES:
            for xt, ref in zip(projected, reference[term]):
                approx = ops_by_term[term].evaluate(xt)
                errs.append(np.linalg.norm(approx - ref) / (1.0 + np.linalg.norm(ref)))
        means.append(np.mean(errs))
    for coarse, fine in zip(means, means[1:]):
        assert fine <= 1.10 * coarse, means
    assert means[-1] < means[0]
