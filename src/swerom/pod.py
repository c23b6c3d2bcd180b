"""Basis construction from snapshots by proper orthogonal decomposition.

The working route is a thin SVD of the (optionally centered) snapshot
matrix; the retained columns are the leading left singular vectors and the
stored spectrum holds the squared singular values, which coincide with the
eigenvalues of the snapshot correlation matrix from the method of
snapshots. Note the correlation matrix is nt-by-nt (snapshots correlated
against snapshots); forming it n-by-n would be ill-posed for n >> nt.

Basis file layout (little-endian):

    bytes 0..8    magic ``b"PODBAS1\\0"``
    int64         n, k, nsigma
    8 bytes       variable tag, NUL padded ("u", "v", "phi", ...)
    float64[n]        centering vector xbar
    float64[n*k]      U, column-major
    float64[nsigma]   spectrum (squared singular values)

Only Galerkin bases (test basis equal to trial basis) are serialized.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from swerom.errors import FileFormatError

__all__ = [
    "PodBasis",
    "center_snapshots",
    "compute_pod_basis",
    "pod_from_snapshots",
    "energy_index",
    "select_mode_count",
    "numerical_rank",
    "fix_mode_signs",
    "save_basis",
    "load_basis",
]

_MAGIC = b"PODBAS1\0"
_HEADER = struct.Struct("<8sqqq8s")


@dataclass
class PodBasis:
    """Orthonormal trial/test bases for one variable, plus its spectrum.

    ``sigma`` is the full nonincreasing spectrum of squared singular values;
    ``U`` keeps only the leading ``k`` modes. Projection is Galerkin:
    every pipeline builds or loads the basis with ``W is U``.
    """

    var: str
    U: np.ndarray
    W: np.ndarray
    xbar: np.ndarray
    sigma: np.ndarray
    k: int
    gamma: float | None = None

    @property
    def n(self) -> int:
        return self.U.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.W.T @ (x - self.xbar)

    def lift(self, xt: np.ndarray) -> np.ndarray:
        return self.xbar + self.U @ xt


def center_snapshots(snaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the mean column; returns (centered matrix, mean)."""
    if snaps.ndim != 2 or snaps.shape[1] < 1:
        raise ValueError("snapshot matrix must be n-by-nt with nt >= 1")
    xbar = snaps.mean(axis=1)
    return snaps - xbar[:, None], xbar


def energy_index(sigma: np.ndarray, m: int) -> float:
    """Captured-energy fraction I(m) = sum_{i<=m} sigma_i / sum_i sigma_i."""
    sigma = np.asarray(sigma)
    if not 1 <= m <= sigma.shape[0]:
        raise ValueError(f"m must be in [1, {sigma.shape[0]}], got {m}")
    total = float(sigma.sum())
    if total <= 0.0:
        raise ValueError("spectrum is identically zero")
    return float(sigma[:m].sum()) / total


def select_mode_count(sigma: np.ndarray, gamma: float) -> int:
    """Smallest m with I(m) >= gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    total = float(np.sum(sigma))
    if total <= 0.0:
        raise ValueError("spectrum is identically zero")
    cumulative = np.cumsum(sigma) / total
    return int(np.searchsorted(cumulative, gamma - 1e-15) + 1)


def numerical_rank(singular_values: np.ndarray, shape: tuple[int, int]) -> int:
    """Rank with the conventional max(n, nt)*eps*s1 threshold."""
    s = np.asarray(singular_values)
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = max(shape) * np.finfo(float).eps * s[0]
    return int(np.count_nonzero(s > tol))


def fix_mode_signs(U: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (first on ties)."""
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0.0:
            U[:, j] = -U[:, j]
    return U


def compute_pod_basis(
    centered: np.ndarray,
    k: int | None = None,
    gamma: float | None = None,
    var: str = "x",
) -> PodBasis:
    """Leading left singular vectors of a centered snapshot matrix.

    Exactly one of ``k`` (fixed mode count) or ``gamma`` (energy fraction)
    selects the dimension. The returned ``xbar`` is zero; use
    :func:`pod_from_snapshots` to carry the centering vector along.
    """
    if (k is None) == (gamma is None):
        raise ValueError("pass exactly one of k or gamma")
    if centered.ndim != 2:
        raise ValueError("snapshot matrix must be two-dimensional")
    n = centered.shape[0]

    Ufull, s, _ = np.linalg.svd(centered, full_matrices=False)
    lam = s ** 2
    rank = numerical_rank(s, centered.shape)
    if gamma is not None:
        if rank == 0:
            raise ValueError("cannot select by energy: snapshot matrix is zero")
        k = min(select_mode_count(lam, gamma), rank)
    if k > rank:
        raise ValueError(f"requested k={k} exceeds numerical rank {rank}")
    U = fix_mode_signs(Ufull[:, :k].copy())
    return PodBasis(var=var, U=U, W=U, xbar=np.zeros(n), sigma=lam, k=int(k), gamma=gamma)


def pod_from_snapshots(
    snaps: np.ndarray,
    k: int | None = None,
    gamma: float | None = None,
    var: str = "x",
    center: bool = True,
) -> PodBasis:
    """POD basis of a raw snapshot matrix, with optional centering.

    ``center=False`` reproduces the absorbed-mean variant where the lift is
    plain U @ xt (the basis itself then has to represent the mean).
    """
    if center:
        centered, xbar = center_snapshots(snaps)
    else:
        centered, xbar = snaps, np.zeros(snaps.shape[0])
    basis = compute_pod_basis(centered, k=k, gamma=gamma, var=var)
    basis.xbar = xbar
    return basis


def save_basis(basis: PodBasis, path) -> None:
    if basis.W is not basis.U and not np.array_equal(basis.W, basis.U):
        raise ValueError("only Galerkin bases (W == U) can be serialized")
    tag = basis.var.encode()[:8].ljust(8, b"\0")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, basis.n, basis.k, basis.sigma.shape[0], tag))
        fh.write(np.asarray(basis.xbar, dtype="<f8").tobytes())
        fh.write(np.asarray(basis.U, dtype="<f8").tobytes(order="F"))
        fh.write(np.asarray(basis.sigma, dtype="<f8").tobytes())


def load_basis(path) -> PodBasis:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FileFormatError("truncated basis file")
        magic, n, k, nsigma, tag = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise FileFormatError(f"bad basis magic {magic!r}")

        def read(count, what):
            data = fh.read(8 * count)
            if len(data) != 8 * count:
                raise FileFormatError(f"truncated basis file while reading {what}")
            return np.frombuffer(data, dtype="<f8").copy()

        xbar = read(n, "xbar")
        # row-major like a built basis, so products with it round the same way
        U = np.ascontiguousarray(read(n * k, "U").reshape((n, k), order="F"))
        sigma = read(nsigma, "sigma")
        if fh.read(1):
            raise FileFormatError("trailing bytes after basis payload")
    return PodBasis(var=tag.rstrip(b"\0").decode(), U=U, W=U, xbar=xbar,
                    sigma=sigma, k=int(k))
