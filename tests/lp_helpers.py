"""LP helpers that only the tests use: the scipy matrix of a program, point
checks and the mechanical dual, computed from an ``lpcore.LinearProgram``'s
own arrays without a solver."""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from amerbound.lpcore import LinearProgram, LPError, Row


def csr(lp: LinearProgram) -> sparse.csr_matrix:
    """The program's constraint matrix as scipy CSR, on its own arrays."""
    return sparse.csr_matrix((lp.data, lp.indices, lp.indptr),
                             shape=(len(lp.rhs), lp.num_vars))


@dataclass
class FeasibilityReport:
    feasible: bool
    objective: float
    max_violation: float
    row_residuals: np.ndarray    # signed; positive means violated by that much
    bound_violations: np.ndarray


def check_point(lp: LinearProgram, point, tol=1e-9) -> FeasibilityReport:
    """Residuals of a candidate point, independent of the solver.

    Row residual is ax - b for "<=" rows, b - ax for ">=" rows and |ax - b|
    for equalities, so positive always means violation.
    """
    x = np.asarray(point, dtype=float)
    if x.shape != (lp.num_vars,):
        raise LPError("point length mismatch")
    g = csr(lp) @ x - lp.rhs
    res = np.where(lp.relations == "<=", g,
                   np.where(lp.relations == ">=", -g, np.abs(g)))
    bviol = np.where(lp.free, 0.0, np.maximum(0.0, -x))
    worst = max(float(np.max(res, initial=0.0)), float(np.max(bviol, initial=0.0)))
    return FeasibilityReport(
        feasible=worst <= tol,
        objective=float(lp.objective @ x),
        max_violation=worst,
        row_residuals=res,
        bound_violations=bviol,
    )


def dual_of(lp: LinearProgram) -> LinearProgram:
    """Mechanical LP dual.

    One dual variable per primal row.  Multipliers that would be sign-
    constrained below zero are negated so every dual variable is nonnegative
    or free; objective values are unaffected, which is how this is used
    (cross-checking hand-built duals by value).

    max c.x, Ax ~ b  ->  min b.y, A'y >= c (= on free columns), y >= 0 on
    "<=" rows; min c.x  ->  max b.y, A'y <= c, y >= 0 on ">=" rows.
    """
    negated = ">=" if lp.sense == "max" else "<="
    sign = np.where(lp.relations == negated, -1.0, 1.0)
    free = lp.relations == "="
    obj = sign * lp.rhs
    At = (sparse.diags(sign) @ csr(lp)).T.tocsr()
    At.eliminate_zeros()
    At.sort_indices()
    rel = ">=" if lp.sense == "max" else "<="
    rows = []
    for j in range(lp.num_vars):
        lo, hi = At.indptr[j], At.indptr[j + 1]
        terms = list(zip(At.indices[lo:hi].tolist(), At.data[lo:hi].tolist()))
        rows.append(Row(terms, "=" if lp.free[j] else rel,
                        float(lp.objective[j])))
    return LinearProgram.from_rows("min" if lp.sense == "max" else "max",
                                   len(lp.rhs), obj, rows, free)
