import numpy as np
import pytest
import scipy.linalg

from swerom.errors import FileFormatError
from swerom.pod import (
    build_state_bases,
    center_snapshots,
    energy_index,
    load_basis,
    numerical_rank,
    save_basis,
    select_mode_count,
)


def pod_basis(X, var="x", **kwargs):
    """The pipeline builder's basis of the single snapshot matrix X."""
    return build_state_bases({var: X}, **kwargs)[var]


def correlation_route_basis(snaps, k):
    """Method-of-snapshots oracle: eigendecompose the nt-by-nt correlation
    matrix K_ij = <x_i - xbar, x_j - xbar> and lift its eigenvectors."""
    xbar = snaps.mean(axis=1)
    Xc = snaps - xbar[:, None]
    nt = snaps.shape[1]
    K = np.empty((nt, nt))
    for i in range(nt):
        for j in range(nt):
            K[i, j] = np.dot(Xc[:, i], Xc[:, j])
    lam, V = np.linalg.eigh(K)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    V = V[:, order]
    U = np.empty((snaps.shape[0], k))
    for i in range(k):
        ui = Xc @ V[:, i]
        U[:, i] = ui / np.linalg.norm(ui)
    return U, lam


def align_signs(A, B):
    """Flip columns of B to match the signs of A (SVD sign ambiguity)."""
    out = B.copy()
    for j in range(B.shape[1]):
        if np.dot(A[:, j], B[:, j]) < 0:
            out[:, j] = -out[:, j]
    return out


# --- centering -----------------------------------------------------------------

def test_center_identical_columns():
    c = np.arange(5.0)
    snaps = np.tile(c[:, None], (1, 4))
    centered, xbar = center_snapshots(snaps)
    assert np.array_equal(xbar, c)
    assert np.all(centered == 0.0)


def test_center_antisymmetric_pair():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(6)
    snaps = np.column_stack([a, -a])
    centered, xbar = center_snapshots(snaps)
    assert np.allclose(xbar, 0.0)
    assert np.allclose(centered, snaps)


def test_center_row_means_vanish():
    rng = np.random.default_rng(1)
    centered, _ = center_snapshots(rng.standard_normal((6, 4)))
    assert np.max(np.abs(centered.mean(axis=1))) < 1e-14


# --- basis construction -----------------------------------------------------------

def test_rank_one_snapshots():
    rng = np.random.default_rng(2)
    direction = rng.standard_normal(8)
    coeffs = rng.standard_normal(5)
    snaps = np.outer(direction, coeffs)
    basis = pod_basis(snaps, gamma=0.99, center=False)
    assert basis.k == 1
    assert energy_index(basis.sigma, 1) == pytest.approx(1.0)
    unit = direction / np.linalg.norm(direction)
    assert np.allclose(np.abs(basis.U[:, 0]), np.abs(unit), atol=1e-12)


def test_energy_selection_two_modes():
    # singular values (3, 1) -> lambda (9, 1): I(1) = 0.9 so gamma 0.99 needs k = 2
    X = np.zeros((6, 2))
    X[0, 0] = 3.0
    X[1, 1] = 1.0
    basis = pod_basis(X, gamma=0.99, center=False)
    assert basis.k == 2
    assert energy_index(basis.sigma, 1) == pytest.approx(0.9)


def test_matches_correlation_matrix_oracle():
    rng = np.random.default_rng(3)
    snaps = rng.standard_normal((20, 8))
    k = 5
    centered, _ = center_snapshots(snaps)
    basis = pod_basis(centered, k=k, center=False)
    U_oracle, lam_oracle = correlation_route_basis(snaps, k)
    U_oracle = align_signs(basis.U, U_oracle)
    assert np.max(np.abs(basis.U - U_oracle)) < 1e-10
    assert np.allclose(basis.sigma[:k], lam_oracle[:k], rtol=1e-10)


def test_subspace_equivalence_many_shapes():
    rng = np.random.default_rng(4)
    for n, nt in [(12, 7), (30, 5), (9, 9), (7, 30)]:
        snaps = rng.standard_normal((n, nt))
        k = min(4, min(n, nt) - 1)
        centered, _ = center_snapshots(snaps)
        basis = pod_basis(centered, k=k, center=False)
        U_oracle, _ = correlation_route_basis(snaps, k)
        angles = scipy.linalg.subspace_angles(basis.U, U_oracle)
        assert np.max(angles) < 1e-8


def test_orthonormality_and_spectrum_order():
    rng = np.random.default_rng(5)
    basis = pod_basis(rng.standard_normal((40, 12)), k=6, center=False)
    dev = np.max(np.abs(basis.U.T @ basis.U - np.eye(6)))
    assert dev <= 1e-12
    assert np.all(np.diff(basis.sigma) <= 1e-12)
    assert np.all(basis.sigma >= -1e-12)


def test_projection_optimality():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((25, 10))
    centered, _ = center_snapshots(X)
    k = 4
    basis = pod_basis(centered, k=k, center=False)
    residual = centered - basis.U @ (basis.U.T @ centered)
    tail = basis.sigma[k:].sum()
    assert np.linalg.norm(residual, "fro") ** 2 == pytest.approx(tail, rel=1e-8)


def test_energy_monotone_and_bounds():
    rng = np.random.default_rng(7)
    basis = pod_basis(rng.standard_normal((15, 9)), k=3, center=False)
    values = [energy_index(basis.sigma, m) for m in range(1, 10)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0)


def test_energy_index_examples():
    assert energy_index(np.array([3.0, 1.0]), 1) == pytest.approx(0.75)
    assert energy_index(np.array([5.0, 2.0, 1.0]), 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        energy_index(np.zeros(4), 2)
    with pytest.raises(ValueError):
        energy_index(np.array([1.0]), 2)


def test_select_mode_count_edge():
    assert select_mode_count(np.array([9.0, 1.0]), 0.9) == 1
    assert select_mode_count(np.array([9.0, 1.0]), 0.91) == 2


def test_k_exceeding_rank_reports_rank():
    X = np.zeros((10, 4))
    X[0, 0] = 1.0
    X[1, 1] = 2.0
    basis = pod_basis(X, k=3, center=False)
    assert basis.k == 2 and basis.U.shape == (10, 2)
    assert np.allclose(np.abs(basis.U), np.eye(10, 2)[:, ::-1], atol=1e-15)


def test_numerical_rank():
    s = np.array([1.0, 1e-3, 1e-17])
    assert numerical_rank(s, (10, 3)) == 2
    assert numerical_rank(np.zeros(3), (10, 3)) == 0


def test_no_centering_variant():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((12, 5)) + 3.0
    basis = pod_basis(X, k=2, center=False)
    assert np.all(basis.xbar == 0.0)
    xt = basis.project(X[:, 0])
    assert np.allclose(basis.lift(xt), basis.U @ xt)


def test_project_lift_consistency():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((12, 6))
    basis = pod_basis(X, k=3)
    # projecting the mean gives the origin of reduced coordinates
    assert np.allclose(basis.project(basis.xbar), 0.0, atol=1e-12)
    # lift respects orthonormality: project(lift(xt)) == xt
    xt = rng.standard_normal(3)
    assert np.allclose(basis.project(basis.lift(xt)), xt, atol=1e-12)
    # a k-by-nt trajectory lifts column by column
    traj = rng.standard_normal((3, 4))
    lifted = basis.lift(traj)
    assert lifted.shape == (12, 4)
    for t in range(4):
        assert np.allclose(lifted[:, t], basis.lift(traj[:, t]), rtol=0.0, atol=1e-13)


# --- file round trip ---------------------------------------------------------------

def test_basis_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    basis = pod_basis(rng.standard_normal((14, 7)), var="phi", k=4)
    path = tmp_path / "b.pod"
    save_basis(basis, path)
    back = load_basis(path)
    assert back.var == "phi"
    assert back.k == 4
    assert np.array_equal(back.U, basis.U)
    assert np.array_equal(back.xbar, basis.xbar)
    assert np.array_equal(back.sigma, basis.sigma)
    path2 = tmp_path / "b2.pod"
    save_basis(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_loaded_basis_projects_bitwise_like_built(tmp_path):
    # the CLI projects with a loaded basis and the library with a built one;
    # both must round the same way
    rng = np.random.default_rng(13)
    basis = pod_basis(rng.standard_normal((713, 16)), k=6)
    save_basis(basis, tmp_path / "b.pod")
    back = load_basis(tmp_path / "b.pod")
    x = rng.standard_normal(713)
    assert np.array_equal(back.project(x), basis.project(x))
    xt = rng.standard_normal((6, 16))
    assert np.array_equal(back.U @ xt, basis.U @ xt)


def test_basis_bad_magic(tmp_path):
    rng = np.random.default_rng(12)
    basis = pod_basis(rng.standard_normal((6, 4)), k=2)
    path = tmp_path / "bad.pod"
    save_basis(basis, path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="magic"):
        load_basis(path)
