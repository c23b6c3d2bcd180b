"""Operation-count model for evaluating one reduced degree-p nonlinearity.

The three closed forms below reproduce the reference table of counts for
every combination of mesh size n, basis size k, sample count m, and degree
p used in this project (see the test suite for the frozen rows):

    lift-project route:   p*k*n + (p-1)*n + k*n
    sampled route:        p*k*m + (p-1)*m + k*m
    tensor contraction:   3*k**(p+1) - k
"""

from __future__ import annotations

__all__ = ["METHODS", "flop_count", "REFERENCE_ROWS", "reference_table"]

METHODS = ("standard-pod", "pod-deim", "tensorial-pod")

# (n, k, m, p) combinations with the published per-method counts
REFERENCE_ROWS = (
    (10**3, 10, 10, 2, 31_000, 310, 2_990),
    (10**3, 10, 10, 3, 42_000, 420, 29_990),
    (10**3, 10, 10, 4, 53_000, 530, 299_990),
    (10**4, 30, 50, 2, 910_000, 4_550, 80_970),
    (10**4, 30, 50, 3, 1_220_000, 6_100, 2_429_970),
    (10**5, 50, 100, 2, 15_100_000, 15_100, 374_950),
    (10**5, 50, 100, 3, 20_200_000, 20_200, 18_749_950),
    (10**5, 50, 100, 4, 25_300_000, 25_300, 937_499_950),
)


def flop_count(method: str, n: int | None = None, k: int | None = None,
               m: int | None = None, p: int = 2) -> int:
    """Floating-point operations to evaluate one reduced nonlinear term."""
    if k is None or k < 1:
        raise ValueError("k must be a positive integer")
    if p < 2:
        raise ValueError("p must be at least 2")
    if method == "standard-pod":
        if n is None or n < 1:
            raise ValueError("standard-pod needs the mesh size n")
        return p * k * n + (p - 1) * n + k * n
    if method == "pod-deim":
        if m is None or m < 1:
            raise ValueError("pod-deim needs the sample count m")
        return p * k * m + (p - 1) * m + k * m
    if method == "tensorial-pod":
        return 3 * k ** (p + 1) - k
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def reference_table() -> list[dict]:
    """The published comparison table recomputed from the model."""
    rows = []
    for n, k, m, p, *_ in REFERENCE_ROWS:
        rows.append({
            "n": n, "k": k, "m": m, "p": p,
            "standard-pod": flop_count("standard-pod", n=n, k=k, p=p),
            "pod-deim": flop_count("pod-deim", k=k, m=m, p=p),
            "tensorial-pod": flop_count("tensorial-pod", k=k, p=p),
        })
    return rows
