"""Linear-programming kernel: sparse programs solved by HiGHS.

Programs are built row by row from sparse terms, held as one CSR matrix, and
solved with the HiGHS dual revised simplex (Huangfu & Hall, Math. Prog.
Comp. 10, 2018), driven through the HiGHS core that ships inside scipy.
Primal and dual residuals of each optimum are computed here from the same
matrix, without trusting the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

try:  # a private module of scipy; no other module of this package uses it
    from scipy.optimize._highspy import _core as highs
except ImportError as exc:
    raise ImportError("amerbound solves its LPs with the HiGHS core inside "
                      "scipy>=1.15 (scipy.optimize._highspy._core), which "
                      "this scipy lacks") from exc

# Pinned solver settings.  Presolve stays off: with it on, HiGHS reports
# valid programs of this package as unbounded or infeasible.  The 1e-10
# tolerances keep the primal's mass balance well inside the 1e-8 that the
# model certificate checks; HiGHS's default 1e-7 does not.
METHOD = "dual simplex"
OPTIONS = {"solver": "simplex",
           "simplex_strategy":
               highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
           "presolve": "off",
           "primal_feasibility_tolerance": 1e-10,
           "dual_feasibility_tolerance": 1e-10,
           "output_flag": False}
_STATUS = {highs.HighsModelStatus.kOptimal: "optimal",
           highs.HighsModelStatus.kInfeasible: "infeasible",
           highs.HighsModelStatus.kUnbounded: "unbounded"}


class LPError(Exception):
    """Raised on malformed programs or when the solver gives up."""


@dataclass
class Row:
    """One constraint: sparse coefficient terms, relation and right-hand side.

    ``terms`` is a list of (column index, coefficient) pairs; ``relation`` is
    one of "<=", "=", ">=".
    """

    terms: list
    relation: str
    rhs: float

    def __post_init__(self):
        if self.relation not in ("<=", "=", ">="):
            raise LPError("bad relation %r" % self.relation)


@dataclass
class LinearProgram:
    """A linear program over variables that are nonnegative or free.

    sense        "max" or "min"
    num_vars     number of structural variables
    objective    dense objective vector (length num_vars)
    rows         list of Row
    free         boolean mask; True marks a free (unbounded below) variable

    ``matrix`` (CSR, one row per Row), ``rhs`` and ``relations`` are built
    from the rows on construction, which rejects a non-finite objective,
    coefficient or rhs and a column repeated within a row; rows must not
    change afterwards.
    """

    sense: str
    num_vars: int
    objective: np.ndarray
    rows: list
    free: np.ndarray = None

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise LPError("sense must be 'max' or 'min'")
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.num_vars,):
            raise LPError("objective length mismatch")
        if not np.isfinite(self.objective).all():
            raise LPError("non-finite objective")
        if self.free is None:
            self.free = np.zeros(self.num_vars, dtype=bool)
        else:
            self.free = np.asarray(self.free, dtype=bool)
            if self.free.shape != (self.num_vars,):
                raise LPError("free mask length mismatch")
        counts = [len(r.terms) for r in self.rows]
        nnz = sum(counts)
        cols = np.fromiter((j for r in self.rows for j, _ in r.terms),
                           dtype=np.int64, count=nnz)
        vals = np.fromiter((v for r in self.rows for _, v in r.terms),
                           dtype=float, count=nnz)
        bad = (cols < 0) | (cols >= self.num_vars)
        if bad.any():
            raise LPError("column index %d out of range" % cols[bad][0])
        if not np.isfinite(vals).all():
            raise LPError("non-finite coefficient")
        self.rhs = np.array([r.rhs for r in self.rows], dtype=float)
        if not np.isfinite(self.rhs).all():
            raise LPError("non-finite rhs")
        indptr = np.zeros(len(self.rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self.matrix = sparse.csr_matrix((vals, cols, indptr),
                                        shape=(len(self.rows), self.num_vars))
        merged = self.matrix.copy()
        merged.sum_duplicates()
        if merged.nnz < nnz:
            raise LPError("duplicate column in a row")
        self.relations = np.array([r.relation for r in self.rows], dtype="<U2")


@dataclass
class LPSolution:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    objective: float
    x: np.ndarray               # structural variables, original order
    duals: np.ndarray           # one multiplier per row (see solve())
    iterations: int
    primal_residual: float = 0.0
    dual_residual: float = 0.0


def solve(lp: LinearProgram) -> LPSolution:
    """Solve with HiGHS's dual simplex (pinned ``OPTIONS``).

    Row multipliers in ``duals`` follow the convention: the dual objective
    sum(duals * rhs) equals the primal optimum, with duals >= 0 on "<=" rows
    and <= 0 on ">=" rows for a maximization (signs negated for "min").
    Statuses other than optimal, infeasible and unbounded raise LPError with
    HiGHS's own status string.
    """
    m, n = lp.matrix.shape
    eq = lp.relations == "="
    # HiGHS pivots on the row layout it is given.  This is the layout of
    # scipy.optimize's HiGHS front end: the inequality rows first, as "<="
    # with the ">=" rows negated, then the equalities.  It keeps the pivot
    # paths, and with them the iteration counts and vertices, that the
    # package's pinned values and reports were made with.
    order = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(eq)])
    flip = np.where(lp.relations[order] == ">=", -1.0, 1.0)
    A = lp.matrix[order]
    A.data *= np.repeat(flip, np.diff(A.indptr))
    A = A.tocsc()
    b = flip * lp.rhs[order]
    sign = -1.0 if lp.sense == "max" else 1.0
    cost = sign * lp.objective
    lower, upper = np.where(lp.free, -np.inf, 0.0), np.full(n, np.inf)
    if n == 0:  # one column fixed at 0 stands in for the empty objective
        A, cost = sparse.csc_matrix((m, 1)), np.zeros(1)
        lower, upper = np.zeros(1), np.zeros(1)

    model = highs.HighsLp()
    model.num_col_, model.num_row_ = A.shape[1], m
    model.col_cost_, model.col_lower_, model.col_upper_ = cost, lower, upper
    model.row_lower_ = np.where(eq[order], b, -np.inf)
    model.row_upper_ = b
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.num_col_, model.a_matrix_.num_row_ = A.shape[1], m
    model.a_matrix_.start_ = A.indptr
    model.a_matrix_.index_ = A.indices
    model.a_matrix_.value_ = A.data

    h = highs._Highs()
    for key, value in OPTIONS.items():
        if h.setOptionValue(key, value) != highs.HighsStatus.kOk:
            raise LPError("HiGHS rejected option %s=%r" % (key, value))
    if h.passModel(model) == highs.HighsStatus.kError:
        status = highs.HighsModelStatus.kModelError
    else:
        h.run()
        status = h.getModelStatus()
    if status not in _STATUS:
        raise LPError("HiGHS %s on a %dx%d LP: %s"
                      % (METHOD, m, n, h.modelStatusToString(status)))
    iterations = int(h.getInfo().simplex_iteration_count)
    if _STATUS[status] != "optimal":
        return LPSolution(_STATUS[status], float("nan"), None, None,
                          iterations)

    solution = h.getSolution()
    x = np.array(solution.col_value[:n], dtype=float)
    # row_dual is d(min objective)/d(row bound) of HiGHS's rows; undo the
    # row order, the ">=" negation and the max negation
    duals = np.empty(m)
    duals[order] = sign * flip * np.asarray(solution.row_dual, dtype=float)
    sol = LPSolution("optimal", float(lp.objective @ x), x, duals, iterations)
    _attach_residuals(lp, sol)
    return sol


def _attach_residuals(lp, sol):
    """Primal and dual feasibility residuals."""
    x, lam = sol.x, sol.duals
    sgn = 1.0 if lp.sense == "max" else -1.0
    # row violations: ax - b on "<=" rows, b - ax on ">=", |ax - b| on "="
    g = lp.matrix @ x - lp.rhs
    viol = np.where(lp.relations == "<=", g,
                    np.where(lp.relations == ">=", -g, np.abs(g)))
    pres = max(float(np.max(viol, initial=0.0)),
               float(np.max(-x[~lp.free], initial=0.0)))
    # Dual feasibility: for max, A'lam - obj >= 0 on nonnegative variables
    # and == 0 on free ones (reversed for min).
    red = (lp.matrix.T @ lam - lp.objective) * sgn
    # Row multiplier sign errors count against dual feasibility too.
    v = lam * sgn
    row_sign = np.where(lp.relations == "<=", -v,
                        np.where(lp.relations == ">=", v, 0.0))
    dres = max(float(np.max(np.abs(red[lp.free]), initial=0.0)),
               float(np.max(-red[~lp.free], initial=0.0)),
               float(np.max(row_sign, initial=0.0)))
    sol.primal_residual = pres
    sol.dual_residual = dres
