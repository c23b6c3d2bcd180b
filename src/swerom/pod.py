"""Basis construction from snapshots by proper orthogonal decomposition.

:func:`build_state_bases`, the builder of every pipeline, takes a thin SVD
of each (optionally centered) snapshot matrix; the retained columns are the
leading left singular vectors and the stored spectrum holds the squared
singular values, which coincide with the eigenvalues of the snapshot
correlation matrix from the method of snapshots. Note the correlation
matrix is nt-by-nt (snapshots correlated against snapshots); forming it
n-by-n would be ill-posed for n >> nt.

Basis file layout (little-endian):

    bytes 0..8    magic ``b"PODBAS1\\0"``
    int64         n, k, nsigma
    8 bytes       variable tag, NUL padded ("u", "v", "phi", ...)
    float64[n]        centering vector xbar
    float64[n*k]      U, column-major
    float64[nsigma]   spectrum (squared singular values)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swerom import binfile

__all__ = [
    "PodBasis",
    "center_snapshots",
    "build_state_bases",
    "energy_index",
    "select_mode_count",
    "numerical_rank",
    "fix_mode_signs",
    "save_basis",
    "load_basis",
]


@dataclass
class PodBasis:
    """Orthonormal basis of one variable, its centering vector and spectrum.

    ``sigma`` is the full nonincreasing spectrum of squared singular values;
    ``U`` keeps only the leading ``k`` modes. Projection is Galerkin: ``U``
    is the test basis too.
    """

    var: str
    U: np.ndarray
    xbar: np.ndarray
    sigma: np.ndarray
    k: int

    @property
    def n(self) -> int:
        return self.U.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.U.T @ (x - self.xbar)

    def lift(self, xt: np.ndarray) -> np.ndarray:
        """xbar + U xt for a k-vector, column by column for a k-by-nt trajectory."""
        xbar = self.xbar if xt.ndim == 1 else self.xbar[:, None]
        return xbar + self.U @ xt


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


def build_state_bases(states: dict[str, np.ndarray], k: int | None = None,
                      gamma: float | None = None, center: bool = True
                      ) -> dict[str, PodBasis]:
    """One basis per snapshot matrix of ``states``, with a shared mode count.

    Exactly one of ``k`` (fixed count) or ``gamma`` (energy fraction, then the
    largest per-matrix selection) sets the count; each basis is clamped to
    its matrix's numerical rank. ``center=False`` keeps ``xbar`` zero, so the
    basis itself has to represent the mean.
    """
    if (k is None) == (gamma is None):
        raise ValueError("pass exactly one of k or gamma")
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    decomposed = {}
    for var, X in states.items():
        if center:
            Xc, xbar = center_snapshots(X)
        else:
            Xc, xbar = X, np.zeros(X.shape[0])
        U, s, _ = np.linalg.svd(Xc, full_matrices=False)
        decomposed[var] = (U, s, xbar, numerical_rank(s, Xc.shape))
    if gamma is not None:
        k = max(select_mode_count(s ** 2, gamma) for (_, s, _, _) in decomposed.values())
    bases = {}
    for var, (U, s, xbar, rank) in decomposed.items():
        k_var = min(int(k), rank)
        bases[var] = PodBasis(var=var, U=fix_mode_signs(U[:, :k_var].copy()), xbar=xbar,
                              sigma=s ** 2, k=k_var)
    return bases


def save_basis(basis: PodBasis, path) -> None:
    with binfile.writing(path, "basis") as w:
        w.fields("qqq", basis.n, basis.k, basis.sigma.shape[0])
        w.tag(basis.var)
        w.array(basis.xbar)
        w.array(basis.U, order="F")
        w.array(basis.sigma)


def load_basis(path) -> PodBasis:
    with binfile.reading(path, "basis") as r:
        n, k, nsigma = r.fields("qqq", "header")
        var = r.tag("variable tag")
        xbar = r.array((n,), "xbar")
        # row-major like a built basis, so products with it round the same way
        U = r.array((n, k), "U", order="F")
        sigma = r.array((nsigma,), "sigma")
        r.end()
    return PodBasis(var=var, U=U, xbar=xbar, sigma=sigma, k=int(k))
