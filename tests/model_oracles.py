"""Per-term and whole-model evaluations of the full semi-discrete model,
kept as test oracles: the solver and the snapshot recording use
:func:`swerom.model.all_nonlinear` and the packed right-hand sides instead."""

import numpy as np

from swerom.model import TERMS, DifferenceOperators, FieldState


def eval_nonlinear(term: str, state: FieldState, ops: DifferenceOperators) -> np.ndarray:
    """Evaluate one of F11..F32 on the full state."""
    n = state.n
    out = np.zeros(n)
    for coef, avar, bvar, axis in TERMS[term]:
        a = state[avar]
        b = state[bvar]
        if a.shape[0] != n or b.shape[0] != n:
            raise ValueError(f"{term}: field length mismatch")
        out += coef * a * ((ops.Ax if axis == "x" else ops.Ay) @ b)
    return out


def full_rhs(
    state: FieldState,
    ops: DifferenceOperators,
    f: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Semi-discrete time derivatives (u', v', phi')."""
    du = -eval_nonlinear("F11", state, ops) - eval_nonlinear("F12", state, ops) + f * state.v
    dv = -eval_nonlinear("F21", state, ops) - eval_nonlinear("F22", state, ops) - f * state.u
    dphi = -eval_nonlinear("F31", state, ops) - eval_nonlinear("F32", state, ops)
    return du, dv, dphi
