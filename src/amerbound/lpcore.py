"""Linear-programming kernel: sparse programs solved by HiGHS.

A program holds its constraints as CSR arrays (a list of ``Row`` objects
converts to them through ``LinearProgram.from_rows``) and is solved with the
HiGHS dual revised simplex (Huangfu & Hall, Math. Prog. Comp. 10, 2018),
driven through the HiGHS core that ships inside scipy.  The arrays that do
not depend on the program's values form its ``Pattern``, which programs of
one shape share: it is checked once, and the column-wise form that HiGHS
takes is derived from it once.  Each thread solves on one HiGHS object of
its own.  Primal and dual residuals of each optimum are computed here from
the same arrays, without trusting the solver.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np
import scipy


def _load_highs_core():
    """scipy's HiGHS core, loaded from its file: importing it by name runs
    scipy.optimize's package __init__, about 300 modules this package never
    uses.  A core already imported (by scipy.optimize, say) is reused."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(name, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError("amerbound solves its LPs with the HiGHS core inside "
                      "scipy>=1.15 (%s), which this scipy lacks" % name)


highs = _load_highs_core()

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
_COLWISE = int(highs.MatrixFormat.kColwise)
_MINIMIZE = int(highs.ObjSense.kMinimize)
_THREAD = threading.local()      # one HiGHS object per thread: _handle
_STATUS = {highs.HighsModelStatus.kOptimal: "optimal",
           highs.HighsModelStatus.kInfeasible: "infeasible",
           highs.HighsModelStatus.kUnbounded: "unbounded"}


class LPError(Exception):
    """Raised on malformed programs or when the solver gives up.  ``status``
    is HiGHS's own status string when the solver gave up, else None."""

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


RELATIONS = ("<=", "=", ">=")


@dataclass
class Row:
    """One constraint: sparse coefficient terms, relation and right-hand side.

    ``terms`` is a list of (column index, coefficient) pairs; ``relation`` is
    one of "<=", "=", ">=".
    """

    terms: list
    relation: str
    rhs: float


@dataclass
class _HighsForm:
    """A pattern as HiGHS takes it: the rows in order ``order``, multiplied
    by ``flip``, with the equalities marked in ``eq``; the matrix column by
    column, with starts ``start``, row indices ``index`` and the stored
    coefficients taken in order ``perm``."""

    order: np.ndarray
    flip: np.ndarray
    eq: np.ndarray
    start: np.ndarray
    index: np.ndarray
    perm: np.ndarray


class Pattern:
    """The shape of a program, everything but its values: num_vars,
    indptr, indices, relations and free as in LinearProgram, and
    ``row_ids``, the row of each stored coefficient.

    Construction copies the arrays, makes them read-only and rejects a
    malformed indptr, a column out of range or repeated within a row, and a
    bad relation.  Programs that share a pattern share these checks and the
    HiGHS form that the first solve derives (``highs_form``).
    """

    def __init__(self, num_vars, indptr, indices, relations, free=None):
        self.num_vars = num_vars
        self.free = (np.zeros(num_vars, dtype=bool) if free is None
                     else np.array(free, dtype=bool))
        if self.free.shape != (num_vars,):
            raise LPError("free mask length mismatch")
        self.indptr = np.array(indptr, dtype=np.int64)
        self.indices = np.array(indices, dtype=np.int64)
        relations = np.asarray(relations)
        m = len(self.indptr) - 1
        if relations.shape != (m,):
            raise LPError("rhs and relations need one entry per row")
        if (self.indptr[0] != 0 or (np.diff(self.indptr) < 0).any()
                or self.indptr[-1] != len(self.indices)):
            raise LPError("indptr must rise from 0 to the coefficient count")
        bad = (self.indices < 0) | (self.indices >= num_vars)
        if bad.any():
            raise LPError("column index %d out of range"
                          % self.indices[bad][0])
        bad = ~np.isin(relations, RELATIONS)
        if bad.any():
            raise LPError("bad relation %r" % str(relations[bad][0]))
        self.relations = relations.astype("<U2")
        self.row_ids = np.repeat(np.arange(m), np.diff(self.indptr))
        cells = np.sort(self.row_ids * num_vars + self.indices)
        if (cells[1:] == cells[:-1]).any():
            raise LPError("duplicate column in a row")
        for a in (self.free, self.indptr, self.indices, self.relations,
                  self.row_ids):
            a.flags.writeable = False
        self._form = None

    @property
    def nbytes(self):
        """Bytes held in the pattern's arrays, its HiGHS form included once
        derived."""
        arrays = [self.free, self.indptr, self.indices, self.relations,
                  self.row_ids]
        if self._form is not None:
            arrays += vars(self._form).values()
        return sum(a.nbytes for a in arrays)

    def highs_form(self):
        """The pattern as HiGHS takes it, derived on first use.

        This is the row layout of scipy.optimize's HiGHS front end: the
        inequality rows first, as "<=" with the ">=" rows negated, then the
        equalities; within a column the rows ascend, as in scipy's
        CSR-to-CSC conversion.  HiGHS pivots on the layout it is given, so
        this keeps the pivot paths, and with them the iteration counts and
        vertices, that the package's pinned values and reports were made
        with.  Two threads that derive it at once derive the same arrays.
        """
        if self._form is None:
            n = self.num_vars
            eq = self.relations == "="
            order = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(eq)])
            flip = np.where(self.relations[order] == ">=", -1.0, 1.0)
            rows = np.argsort(order)[self.row_ids]   # new row of each entry
            perm = np.lexsort((rows, self.indices))
            start = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.bincount(self.indices, minlength=n), out=start[1:])
            form = _HighsForm(order, flip, eq[order], start,
                              rows[perm].astype(np.int32), perm)
            for a in vars(form).values():
                a.flags.writeable = False
            self._form = form
        return self._form


class LinearProgram:
    """A linear program over variables that are nonnegative or free.

    sense        "max" or "min"
    num_vars     number of structural variables
    objective    dense objective vector (length num_vars)
    indptr, indices, data
                 the constraint matrix in CSR form: row i has the
                 coefficients data[indptr[i]:indptr[i + 1]] in the columns
                 indices[indptr[i]:indptr[i + 1]]
    rhs          right-hand side, one per row
    relations    "<=", "=" or ">=", one per row
    free         boolean mask; True marks a free (unbounded below) variable

    num_vars, indptr, indices, relations and free are the program's
    ``pattern``, which ``from_pattern`` takes ready-made and the arrays
    constructor makes afresh.  Construction rejects a non-finite objective,
    coefficient or rhs, arrays of the wrong length, and whatever the
    pattern rejects.  The arrays must not change afterwards.
    """

    def __init__(self, sense, num_vars, objective, indptr, indices, data,
                 rhs, relations, free=None):
        self._set_values(Pattern(num_vars, indptr, indices, relations, free),
                         sense, objective, data, rhs)

    @classmethod
    def from_pattern(cls, pattern, sense, objective, data, rhs):
        """The program on ``pattern`` with these values; only the values
        are checked."""
        lp = cls.__new__(cls)
        lp._set_values(pattern, sense, objective, data, rhs)
        return lp

    def _set_values(self, pattern, sense, objective, data, rhs):
        if sense not in ("max", "min"):
            raise LPError("sense must be 'max' or 'min'")
        self.sense, self.pattern = sense, pattern
        self.objective = np.asarray(objective, dtype=float)
        if self.objective.shape != (pattern.num_vars,):
            raise LPError("objective length mismatch")
        if not np.isfinite(self.objective).all():
            raise LPError("non-finite objective")
        self.data = np.asarray(data, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        if self.rhs.shape != pattern.relations.shape:
            raise LPError("rhs and relations need one entry per row")
        if self.data.shape != pattern.indices.shape:
            raise LPError("indptr must rise from 0 to the coefficient count")
        if not np.isfinite(self.data).all():
            raise LPError("non-finite coefficient")
        if not np.isfinite(self.rhs).all():
            raise LPError("non-finite rhs")

    num_vars = property(lambda self: self.pattern.num_vars)
    indptr = property(lambda self: self.pattern.indptr)
    indices = property(lambda self: self.pattern.indices)
    relations = property(lambda self: self.pattern.relations)
    free = property(lambda self: self.pattern.free)

    @classmethod
    def from_rows(cls, sense, num_vars, objective, rows, free=None):
        """The program whose constraints are ``rows``, a list of Row."""
        counts = [len(r.terms) for r in rows]
        nnz = sum(counts)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        cols = np.fromiter((j for r in rows for j, _ in r.terms),
                           dtype=np.int64, count=nnz)
        vals = np.fromiter((v for r in rows for _, v in r.terms),
                           dtype=float, count=nnz)
        return cls(sense, num_vars, objective, indptr, cols, vals,
                   [r.rhs for r in rows], [r.relation for r in rows], free)

    @property
    def rows(self):
        """The constraints as a list of Row, built from the arrays on each
        access; changing it leaves the program as it is."""
        ptr = self.indptr.tolist()
        cols, vals = self.indices.tolist(), self.data.tolist()
        return [Row(list(zip(cols[lo:hi], vals[lo:hi])), rel, b)
                for lo, hi, rel, b in zip(ptr, ptr[1:],
                                          self.relations.tolist(),
                                          self.rhs.tolist())]


@dataclass
class LPSolution:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    objective: float
    x: np.ndarray               # structural variables, original order
    duals: np.ndarray           # one multiplier per row (see solve())
    iterations: int
    primal_residual: float = 0.0
    dual_residual: float = 0.0


def _handle():
    """This thread's HiGHS object, made with the pinned ``OPTIONS`` on first
    use.  Each solve passes its model in and clears it before returning."""
    h = getattr(_THREAD, "highs", None)
    if h is None:
        h = highs._Highs()
        for key, value in OPTIONS.items():
            if h.setOptionValue(key, value) != highs.HighsStatus.kOk:
                raise LPError("HiGHS rejected option %s=%r" % (key, value))
        _THREAD.highs = h
    return h


def solve(lp: LinearProgram) -> LPSolution:
    """Solve with HiGHS's dual simplex (pinned ``OPTIONS``).

    Row multipliers in ``duals`` follow the convention: the dual objective
    sum(duals * rhs) equals the primal optimum, with duals >= 0 on "<=" rows
    and <= 0 on ">=" rows for a maximization (signs negated for "min").
    Statuses other than optimal, infeasible and unbounded raise LPError with
    HiGHS's own status string.
    """
    m, n = len(lp.rhs), lp.num_vars
    form = lp.pattern.highs_form()
    a_start, a_index, a_value = _colwise(lp)
    b = form.flip * lp.rhs[form.order]
    sign = -1.0 if lp.sense == "max" else 1.0
    cost = sign * lp.objective
    lower, upper = np.where(lp.free, -np.inf, 0.0), np.full(n, np.inf)
    if n == 0:  # one column fixed at 0 stands in for the empty objective
        a_start, cost = np.zeros(2, dtype=np.int32), np.zeros(1)
        lower, upper = np.zeros(1), np.zeros(1)

    h = _handle()
    try:
        # the array form of passModel reads the numpy buffers in place (a
        # HighsLp copies each into a C++ vector item by item); its last
        # array marks every column continuous
        if h.passModel(len(cost), m, len(a_index), _COLWISE, _MINIMIZE, 0.0,
                       cost, lower, upper,
                       np.where(form.eq, b, -np.inf), b, a_start, a_index,
                       a_value, np.zeros(len(cost), dtype=np.int32)
                       ) == highs.HighsStatus.kError:
            status = highs.HighsModelStatus.kModelError
        else:
            h.run()
            status = h.getModelStatus()
        if status not in _STATUS:
            text = h.modelStatusToString(status)
            raise LPError("HiGHS %s on a %dx%d LP: %s" % (METHOD, m, n, text),
                          text)
        iterations = int(h.getInfo().simplex_iteration_count)
        if _STATUS[status] != "optimal":
            return LPSolution(_STATUS[status], float("nan"), None, None,
                              iterations)
        solution = h.getSolution()
        x = np.array(solution.col_value[:n], dtype=float)
        row_dual = np.array(solution.row_dual, dtype=float)
    finally:
        h.clearModel()
    # row_dual is d(min objective)/d(row bound) of HiGHS's rows; undo the
    # row order, the ">=" negation and the max negation
    duals = np.empty(m)
    duals[form.order] = sign * form.flip * row_dual
    sol = LPSolution("optimal", float(lp.objective @ x), x, duals, iterations)
    _attach_residuals(lp, sol)
    return sol


def _colwise(lp):
    """The matrix as HiGHS takes it, column by column (start, index,
    value), in the rows and flips of the pattern's ``highs_form``."""
    form = lp.pattern.highs_form()
    return (form.start, form.index,
            lp.data[form.perm] * form.flip[form.index])


def _attach_residuals(lp, sol):
    """Primal and dual feasibility residuals."""
    x, lam = sol.x, sol.duals
    sgn = 1.0 if lp.sense == "max" else -1.0
    # Ax and A'lam add in storage order, as scipy's CSR/CSC mat-vecs do.
    # Row violations: ax - b on "<=" rows, b - ax on ">=", |ax - b| on "="
    rows = lp.pattern.row_ids
    g = np.bincount(rows, lp.data * x[lp.indices], len(lp.rhs)) - lp.rhs
    viol = np.where(lp.relations == "<=", g,
                    np.where(lp.relations == ">=", -g, np.abs(g)))
    pres = max(float(np.max(viol, initial=0.0)),
               float(np.max(-x[~lp.free], initial=0.0)))
    # Dual feasibility: for max, A'lam - obj >= 0 on nonnegative variables
    # and == 0 on free ones (reversed for min).
    red = (np.bincount(lp.indices, lp.data * lam[rows], lp.num_vars)
           - lp.objective) * sgn
    # Row multiplier sign errors count against dual feasibility too.
    v = lam * sgn
    row_sign = np.where(lp.relations == "<=", -v,
                        np.where(lp.relations == ">=", v, 0.0))
    dres = max(float(np.max(np.abs(red[lp.free]), initial=0.0)),
               float(np.max(-red[~lp.free], initial=0.0)),
               float(np.max(row_sign, initial=0.0)))
    sol.primal_residual = pres
    sol.dual_residual = dres
