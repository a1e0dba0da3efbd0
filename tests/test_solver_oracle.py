"""lpcore.solve against the same HiGHS solve through scipy.optimize.linprog.

lpcore.solve hands HiGHS the model that linprog builds, so both must pivot
alike: equal status and iteration count, and the same bits in x and duals.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse
from scipy.optimize import linprog

from amerbound import bench, bound, instances, lpcore, market
from amerbound.bound import build_primal_extended
from amerbound.lpcore import LinearProgram, Row
from amerbound.payoff import AmericanPayoffGrid

from lp_helpers import csr, dual_of
from test_bound import DENSE_GRIDS, dense_grid_case, presolve_trap_case
from test_lpcore import (_random_bounded_lp, lp_infeasible, lp_max_x_le_3,
                         lp_unbounded)

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _linprog_solve(lp):
    """Reference: the pinned HiGHS dual simplex through linprog."""
    A, b = csr(lp), lp.rhs
    m, n = A.shape
    eq = lp.relations == "="
    ineq = ~eq
    # ">=" rows enter linprog's A_ub x <= b_ub negated
    flip = np.where(lp.relations[ineq] == ">=", -1.0, 1.0)
    sign = -1.0 if lp.sense == "max" else 1.0
    c = sign * lp.objective
    bounds = np.column_stack([np.where(lp.free, -np.inf, 0.0),
                              np.full(n, np.inf)])
    if n == 0:  # linprog rejects an empty objective: one column fixed at 0
        A, c, bounds = sparse.csr_matrix((m, 1)), np.zeros(1), [(0.0, 0.0)]
    A_ub = b_ub = A_eq = b_eq = None
    if ineq.any():
        A_ub, b_ub = sparse.diags(flip) @ A[ineq], flip * b[ineq]
    if eq.any():
        A_eq, b_eq = A[eq], b[eq]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs-ds",
                  options={"presolve": False,
                           "primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    iterations = int(res.nit)
    if res.status not in _STATUS:
        raise lpcore.LPError(res.message)
    status = _STATUS[res.status]
    if status != "optimal":
        return lpcore.LPSolution(status, float("nan"), None, None, iterations)
    x = np.asarray(res.x[:n], dtype=float)
    y = np.zeros(m)
    y[eq] = res.eqlin.marginals
    y[ineq] = flip * res.ineqlin.marginals
    return lpcore.LPSolution(status, float(lp.objective @ x), x, sign * y,
                             iterations)


def _scipy_colwise(lp):
    """HiGHS's row order and ">=" flip, and the column-wise matrix that
    scipy built from them: rows reordered, flipped, then ``tocsc``."""
    eq = lp.relations == "="
    order = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(eq)])
    flip = np.where(lp.relations[order] == ">=", -1.0, 1.0)
    A = csr(lp)[order]
    A.data *= np.repeat(flip, np.diff(A.indptr))
    A = A.tocsc()
    return order, flip, (A.indptr, A.indices, A.data)


def assert_colwise_like_scipy(lp):
    """lpcore hands HiGHS the row order, the flips, and the start, index and
    value arrays that scipy built."""
    order, flip, ref = _scipy_colwise(lp)
    form = lp.pattern.highs_form()
    for got, want in zip((form.order, form.flip, *lpcore._colwise(lp)),
                         (order, flip, *ref)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _outcome(solve, lp):
    try:
        return solve(lp)
    except lpcore.LPError:
        return None


def assert_solves_like_linprog(lp):
    assert_colwise_like_scipy(lp)
    new, ref = _outcome(lpcore.solve, lp), _outcome(_linprog_solve, lp)
    assert (new is None) == (ref is None)
    if new is None:
        return
    assert new.status == ref.status
    assert new.iterations == ref.iterations
    if new.status == "optimal":
        assert np.array_equal(new.x, ref.x)
        assert np.array_equal(new.duals, ref.duals)


def _primal(surface, grid):
    lp, _, _ = build_primal_extended(market.extended_marginals(surface), grid)
    return lp


def test_primal_lps_solve_like_linprog():
    cases = [instances.get(name) for name in ("sec26", "sec52", "eg11")]
    cfg = bench.BenchConfig()
    headline = (bench.bs_surface(cfg), bench.linearized_grid(cfg))
    lps = [_primal(inst.surface, inst.payoff) for inst in cases]
    lps.append(_primal(*headline))
    lps += [_primal(*dense_grid_case(J, N)) for J, N in DENSE_GRIDS]
    lps.append(_primal(*presolve_trap_case()))
    for lp in lps:
        assert lpcore.solve(lp).status == "optimal"
        assert_solves_like_linprog(lp)


def test_primal_colwise_layout_on_sweep_shapes():
    # every shape of the benchmark's sweep (J 3-8, N 2-6, at most 24
    # cells), with and without tail slopes, on random lattices and masses
    rng = np.random.default_rng(20)
    for J in range(3, 9):
        for N in range(2, 7):
            if J * N > 24:
                continue
            for sloped in (False, True):
                states = np.concatenate([[0.0],
                                         np.cumsum(rng.uniform(0.5, 20.0, J))])
                p_hat = rng.dirichlet(np.ones(J + 2), size=N).T
                a = AmericanPayoffGrid(
                    rng.uniform(0.0, 50.0, (J + 1, N)), states,
                    np.arange(1.0, N + 1.0),
                    rng.uniform(0.0, 1.0, N) if sloped else None)
                lp, _, _ = bound._build_primal(p_hat, a)
                assert_colwise_like_scipy(lp)


def test_small_lps_and_their_duals_solve_like_linprog():
    # criterion 9's rational LPs, test_dual_of_value_matches' LPs, and the
    # hand-written ones, each with its mechanical dual
    lps = [lp_max_x_le_3(), lp_infeasible(), lp_unbounded(),
           LinearProgram.from_rows("max", 0, [], [])]
    for seed, count in ((1357924680, 200), (7, 25)):
        rng = np.random.default_rng(seed)
        lps += [_random_bounded_lp(rng) for _ in range(count)]
    lps += [dual_of(lp) for lp in lps]
    lps.append(dual_of(dual_of(lp_max_x_le_3())))
    statuses = {lpcore.solve(lp).status for lp in lps}
    assert statuses == {"optimal", "infeasible", "unbounded"}
    for lp in lps:
        assert_solves_like_linprog(lp)


@st.composite
def random_lps(draw):
    """Small LPs with free columns, explicit zeros and all three relations;
    any of them may be infeasible or unbounded."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    coef = st.integers(-6, 6).map(lambda v: v / 2.0)
    rows = []
    for _ in range(m):
        cols = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n,
                             unique=True)) if n else []
        rows.append(Row([(j, draw(coef)) for j in cols],
                        draw(st.sampled_from(("<=", "=", ">="))),
                        draw(coef)))
    objective = [draw(coef) for _ in range(n)]
    free = [draw(st.booleans()) for _ in range(n)]
    return LinearProgram.from_rows(draw(st.sampled_from(("max", "min"))), n,
                                   objective, rows, free)


@given(lp=random_lps())
def test_random_lps_solve_like_linprog(lp):
    assert_solves_like_linprog(lp)
