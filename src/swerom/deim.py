"""Hyper-reduction of the nonlinear terms by discrete empirical interpolation.

Each nonlinear term gets its own orthonormal basis V (left singular vectors
of its raw, uncentered snapshot matrix), its own greedily selected sample
points, and a precomputed oblique projector E = U^T V (P^T V)^{-1}, with U
the basis of the term's equation. The greedy points are the row pivots of
one LU factorization of V with partial pivoting
(:func:`deim_select_points`). On-line evaluation then needs the term's
componentwise products only at the m sampled mesh rows, and an operator's
build derives only those rows of the derivative bases A @ U. Selection
matrices are never formed; P^T is row gathering throughout. Every route
builds its operators through :func:`deim_operators`.

The same sampled factors also yield coefficient tensors by summing over
the m sampled rows instead of all n mesh rows (the full-sum build's GEMM
routine, :func:`swerom.rom.trilinear_sum`, with P = E in place of U^T),
which is what makes the off-line stage cheap: the contraction of those
tensors reproduces the sampled evaluation exactly (same algebra,
reordered), even though the tensors themselves differ from the full-sum ones.

Operator file layout (little-endian): header ``{magic b"DEIMOP2\\0", n, m,
k, term tag}``, then the points as int64, the condition number of P^T V and
E as float64, and per product the variable tags, scale factor, and sampled
arrays. Nothing in it has n entries: V is needed only to form E.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf

from swerom import binfile
from swerom.model import TERMS, TERM_EQUATION, TERM_NAMES
from swerom.rom import ReducedSpace, TensorCoefficients, TermTensors, product_tensors, trilinear_sum

__all__ = [
    "deim_select_points",
    "deim_projection",
    "SampledProduct",
    "DeimTermOperator",
    "build_deim_term_operator",
    "deim_operators",
    "deim_operators_from_snapshots",
    "deim_tensor_coefficients",
    "save_deim_operator",
    "load_deim_operator",
]


def deim_select_points(V: np.ndarray) -> np.ndarray:
    """Greedy interpolation points for an n-by-m basis with independent columns.

    The first point maximizes |V[:, 0]|; each later point maximizes the
    residual of column j against its interpolation on the points selected so
    far (Chaturantabut & Sorensen, SIAM J. Sci. Comput. 32, 2010). Those
    points are the row pivots of Gaussian elimination with partial pivoting
    on V, and stage j's largest residual is |U[j, j]| (Sorensen & Embree,
    SIAM J. Sci. Comput. 38, 2016), so one LAPACK ``getrf`` selects them all.
    The points are nested: those of V[:, :j] are the first j.

    The greedy breaks a tie by the lowest mesh index, LAPACK by the first
    row in its pivoted order. A row whose multiplier is exactly 1 in
    magnitude ties with the pivot; when it is bitwise equal to the pivot's
    row, eliminating either leaves the same residual, and the lower index is
    reported. An exact tie between unequal rows breaks in LAPACK's order.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or not 1 <= V.shape[1] <= V.shape[0]:
        raise ValueError("basis must be n-by-m with 1 <= m <= n")
    n, m = V.shape
    lu, piv, _ = dgetrf(V)
    diag = np.abs(np.diagonal(lu))
    # |V| <= |L| |U| with |L| <= 1 bounds max|V[:, j]| from the m-by-m U alone;
    # doubled against rounding, it only screens the exact check below
    bound = 2.0 * np.sum(np.abs(np.triu(lu[:m])), axis=0)
    for j in np.flatnonzero(diag <= 1e-13 * np.maximum(1.0, bound)):
        if diag[j] <= 1e-13 * max(1.0, np.max(np.abs(V[:, j]))):
            raise np.linalg.LinAlgError(
                f"degenerate interpolation residual at selection stage {j}: "
                "basis columns are linearly dependent")
    # piv is LAPACK's swap sequence; rows[i] is the mesh row at pivoted position i
    rows = np.arange(n, dtype=np.int64)
    for j, p in enumerate(piv):
        rows[j], rows[p] = rows[p], rows[j]
    points = rows[:m].copy()
    # rows tied with stage j's pivot: multipliers of magnitude exactly 1 below row j
    flat = lu.ravel(order="F")
    for i, j in zip(*np.divmod(np.flatnonzero((flat == 1.0) | (flat == -1.0)), n)[::-1]):
        if i > j and rows[i] < points[j] and np.array_equal(V[rows[i]], V[rows[j]]):
            points[j] = rows[i]
    return points


def deim_projection(W: np.ndarray, V: np.ndarray, points: np.ndarray
                    ) -> tuple[np.ndarray, float]:
    """E = W^T V (P^T V)^{-1} with P^T realized as row gathering.

    Returns the k-by-m projector and the condition number of P^T V.
    """
    PtV = V[points, :]
    cond = float(np.linalg.cond(PtV))
    try:
        E = np.linalg.solve(PtV.T, (W.T @ V).T).T
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("sampled basis P^T V is singular")
    return E, cond


@dataclass
class SampledProduct:
    """One product of a term, restricted to the sample rows."""

    a_var: str
    b_var: str
    coef: float
    Uam: np.ndarray   # (m, k_a) rows of the a basis
    Ubxm: np.ndarray  # (m, k_b) rows of the differentiated b basis
    am: np.ndarray    # (m,) mean of a at the points
    bxm: np.ndarray   # (m,) differentiated mean of b at the points


@dataclass
class DeimTermOperator:
    """Everything needed to evaluate one nonlinear term from m samples."""

    term: str
    points: np.ndarray
    E: np.ndarray
    cond: float
    products: list[SampledProduct]
    n: int

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def evaluate(self, xt) -> np.ndarray:
        samples = np.zeros(self.m)
        for p in self.products:
            samples += p.coef * ((p.am + p.Uam @ xt[p.a_var])
                                 * (p.bxm + p.Ubxm @ xt[p.b_var]))
        return self.E @ samples


def build_deim_term_operator(space: ReducedSpace, term: str, V: np.ndarray,
                             points: np.ndarray) -> DeimTermOperator:
    points = np.asarray(points, dtype=np.int64)
    if len(np.unique(points)) != points.shape[0]:
        raise ValueError("sample points must be distinct")
    if points.min() < 0 or points.max() >= space.n:
        raise ValueError("sample points out of mesh range")
    E, cond = deim_projection(space.bases[TERM_EQUATION[term]].U, V, points)
    products = []
    for coef, avar, bvar, axis in TERMS[term]:
        ba = space.bases[avar]
        bxm, Ubxm = space.derivative(bvar, axis, points)
        products.append(SampledProduct(
            a_var=avar, b_var=bvar, coef=coef, Uam=ba.U[points, :].copy(),
            Ubxm=Ubxm, am=ba.xbar[points].copy(), bxm=bxm))
    return DeimTermOperator(term=term, points=points, E=E, cond=cond, products=products,
                            n=space.n)


def _check_m(bound: int, m: int) -> None:
    # m modes and points per term: at most the smaller snapshot matrix dimension
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if m > bound:
        raise ValueError(f"m={m} exceeds snapshot count/rank bound {bound}")


def deim_operators(space: ReducedSpace, term_svds: dict[str, tuple[np.ndarray, np.ndarray]],
                   points: dict[str, np.ndarray], m: int) -> dict[str, DeimTermOperator]:
    """One operator per term from the first m columns of ``U`` in its thin SVD
    ``term_svds[term] = (U, s)`` and the first m of its greedy ``points``,
    which may be selected at a larger m: selection is nested."""
    _check_m(min(U.shape[1] for U, _ in term_svds.values()), m)
    return {term: build_deim_term_operator(space, term, U[:, :m], points[term][:m])
            for term, (U, _) in term_svds.items()}


def deim_operators_from_snapshots(space: ReducedSpace,
                                  nonlinear_snaps: dict[str, np.ndarray],
                                  m: int) -> dict[str, DeimTermOperator]:
    """One operator per term: SVD of its raw snapshots, then greedy points."""
    _check_m(min(min(F.shape) for F in nonlinear_snaps.values()), m)
    term_svds = {term: np.linalg.svd(nonlinear_snaps[term], full_matrices=False)[:2]
                 for term in TERM_NAMES}
    points = {term: deim_select_points(U[:, :m]) for term, (U, _) in term_svds.items()}
    return deim_operators(space, term_svds, points, m)


def deim_tensor_coefficients(ops: dict[str, DeimTermOperator],
                             space: ReducedSpace) -> TensorCoefficients:
    """Coefficient tensors summed over the m sampled rows only.

    Contracting these against xt reproduces the sampled evaluation exactly;
    they are cheaper to build than the full-sum tensors whenever m << n and
    serve as the Newton matrices of the sampled reduced model. The tensors
    carry ``ops`` as their ``deim_ops``, and their packed directions hold
    its sampled products, which that model's right-hand side evaluates.
    """
    terms = {}
    for name in TERM_NAMES:
        op = ops[name]
        terms[name] = TermTensors(term=name, products=[
            product_tensors(op.E, p.Uam, p.am, p.Ubxm, p.bxm, p.coef, p.a_var, p.b_var,
                            trilinear_sum(op.E, p.Uam, p.Ubxm))
            for p in op.products])
    return TensorCoefficients.from_space(terms, space, deim_ops=ops)


# --- operator file ---------------------------------------------------------------

def save_deim_operator(op: DeimTermOperator, path) -> None:
    with binfile.writing(path, "operator") as w:
        w.fields("qqq", op.n, op.m, op.E.shape[0])
        w.tag(op.term)
        w.array(op.points, "<i8")
        w.fields("d", op.cond)
        w.array(op.E, order="F")
        w.fields("q", len(op.products))
        for p in op.products:
            w.tag(p.a_var)
            w.tag(p.b_var)
            w.fields("dqq", p.coef, p.Uam.shape[1], p.Ubxm.shape[1])
            w.array(p.Uam, order="F")
            w.array(p.Ubxm, order="F")
            w.array(p.am)
            w.array(p.bxm)


def load_deim_operator(path) -> DeimTermOperator:
    with binfile.reading(path, "operator") as r:
        n, m, k = r.fields("qqq", "header")
        term = r.tag("term tag", TERM_NAMES)
        points = r.array((m,), "points", "<i8")
        # n sizes no read, so hold the points to what build_deim_term_operator accepts
        listed = points.tolist()
        r.require(m >= 1 and min(listed) >= 0 and max(listed) < n and len(set(listed)) == m,
                  "bad sample points of {}: not distinct in [0, {})", term, n)
        (cond,) = r.fields("d", "condition number")
        # column-major like the E the library builds, so E @ samples rounds the same way
        E = r.array((k, m), "E", order="F", layout="F")
        r.require(r.fields("q", "count") == (len(TERMS[term]),), "bad product count of {}", term)
        products = []
        for _, a_var, b_var, _ in TERMS[term]:
            r.tag("variable tag", (a_var,))
            r.tag("variable tag", (b_var,))
            coef, ka, kb = r.fields("dqq", "product header")
            products.append(SampledProduct(
                a_var=a_var, b_var=b_var, coef=coef,
                Uam=r.array((m, ka), "Uam", order="F", layout="F"),
                Ubxm=r.array((m, kb), "Ubxm", order="F", layout="F"),
                am=r.array((m,), "am"), bxm=r.array((m,), "bxm")))
        r.end()
    return DeimTermOperator(term=term, points=points, E=E, cond=cond, products=products, n=n)
