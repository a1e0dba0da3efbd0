import os
import subprocess
import sys

import numpy as np
import pytest

import amerbound
from amerbound import bench, bound, instances, lpcore, market
from amerbound.lpcore import LinearProgram, Row
from amerbound.payoff import AmericanPayoffGrid

from lp_helpers import check_point, csr, dual_of
from rational_oracle import brute_force_optimum


def lp_max_x_le_3():
    return LinearProgram.from_rows("max", 1, [1.0],
                                   [Row([(0, 1.0)], "<=", 3.0)])


def test_simple_bound():
    sol = lpcore.solve(lp_max_x_le_3())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-12)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_alternate_optima():
    lp = LinearProgram.from_rows("max", 2, [1.0, 1.0],
                                 [Row([(0, 1.0), (1, 1.0)], "=", 1.0)])
    sol = lpcore.solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-12)


def lp_infeasible():
    return LinearProgram.from_rows("max", 1, [1.0],
                                   [Row([(0, 1.0)], ">=", 1.0),
                                    Row([(0, 1.0)], "<=", 0.0)])


def lp_unbounded():
    return LinearProgram.from_rows("max", 1, [1.0],
                                   [Row([(0, 1.0)], ">=", 1.0)])


def test_infeasible():
    assert lpcore.solve(lp_infeasible()).status == "infeasible"


def test_unbounded():
    assert lpcore.solve(lp_unbounded()).status == "unbounded"


def test_malformed_model_raises_with_highs_status():
    # HiGHS refuses coefficients above its large_matrix_value (1e15)
    lp = LinearProgram.from_rows("max", 1, [1.0],
                                 [Row([(0, 1e16)], "<=", 3.0)])
    with pytest.raises(lpcore.LPError, match="Model error"):
        lpcore.solve(lp)


@pytest.mark.parametrize("rows, message", [
    ([([(0, 1.0), (1, float("nan"))], 1.0)], "non-finite coefficient"),
    ([([(0, 1.0)], float("inf"))], "non-finite rhs"),
    ([([(0, 1.0)], 0.0), ([(1, 1.0), (0, 2.0), (1, 3.0)], 1.0)],
     "duplicate column"),
])
def test_malformed_rows_rejected_on_construction(rows, message):
    with pytest.raises(lpcore.LPError, match=message):
        LinearProgram.from_rows("max", 2, [1.0, 1.0],
                                [Row(terms, "<=", rhs) for terms, rhs in rows])


def test_explicit_zero_coefficient_is_not_a_duplicate():
    lp = LinearProgram.from_rows("max", 2, [1.0, 1.0],
                                 [Row([(1, 0.0), (0, 1.0)], "<=", 1.0),
                                  Row([(1, 1.0)], "<=", 2.0)])
    assert csr(lp).nnz == 3
    assert lpcore.solve(lp).objective == pytest.approx(3.0)
    arrays = LinearProgram("max", 2, [1.0, 1.0], [0, 2, 3], [1, 0, 1],
                           [0.0, 1.0, 1.0], [1.0, 2.0], ["<=", "<="])
    assert csr(arrays).nnz == 3


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("objective, rows, message", [
    ([1.0, NAN], [([(0, 1.0)], "<=", 1.0)], "non-finite objective"),
    ([1.0, 1.0], [([(0, 1.0), (1, NAN)], "<=", 1.0)],
     "non-finite coefficient"),
    ([1.0, 1.0], [([(0, 1.0)], ">=", INF)], "non-finite rhs"),
    ([1.0, 1.0], [([(0, 1.0)], "=", 1.0), ([(2, 1.0)], "<=", 1.0)],
     "column index 2 out of range"),
    ([1.0, 1.0], [([(0, 1.0)], "<=", 0.0), ([(1, 1.0), (0, 2.0), (1, 3.0)],
                                            "<=", 1.0)], "duplicate column"),
    ([1.0, 1.0], [([(0, 1.0)], "=>", 1.0)], "bad relation '=>'"),
])
def test_array_constructor_rejects_what_rows_reject(objective, rows, message):
    with pytest.raises(lpcore.LPError) as via_rows:
        LinearProgram.from_rows("max", 2, objective,
                                [Row(*row) for row in rows])
    indptr = np.cumsum([0] + [len(terms) for terms, _, _ in rows])
    terms = [t for row in rows for t in row[0]]
    with pytest.raises(lpcore.LPError) as via_arrays:
        LinearProgram("max", 2, objective, indptr, [j for j, _ in terms],
                      [v for _, v in terms], [rhs for _, _, rhs in rows],
                      [rel for _, rel, _ in rows])
    assert str(via_arrays.value) == str(via_rows.value)
    assert message in str(via_arrays.value)


@pytest.mark.parametrize("indptr, indices, data", [
    ([1, 2], [0], [1.0]),              # does not start at 0
    ([0, 2, 1], [0, 1], [1.0, 1.0]),   # falls
    ([0, 1, 1], [0, 1], [1.0, 1.0]),   # ends short of the coefficients
    ([0, 1, 2], [0, 1], [1.0]),        # fewer values than columns
])
def test_array_constructor_rejects_malformed_indptr(indptr, indices, data):
    # the CSR arrays are the program's only copy of its matrix
    with pytest.raises(lpcore.LPError, match="indptr must rise from 0"):
        LinearProgram("max", 2, [1.0, 1.0], indptr, indices, data,
                      [1.0] * (len(indptr) - 1), ["<="] * (len(indptr) - 1))


def test_rows_view_rebuilds_the_same_arrays():
    rng = np.random.default_rng(5)
    lps = [_random_bounded_lp(rng) for _ in range(20)]
    for name in ("sec26", "sec52", "eg11"):
        inst = instances.get(name)
        lps.append(bound.build_primal_extended(
            market.extended_marginals(inst.surface), inst.payoff)[0])
    for lp in lps:
        again = LinearProgram.from_rows(lp.sense, lp.num_vars, lp.objective,
                                        lp.rows, lp.free)
        for name in ("indptr", "indices", "data", "rhs", "relations",
                     "objective", "free"):
            got, want = getattr(again, name), getattr(lp, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name


def _run_fresh(code, pythonpath=()):
    """stdout of ``code`` run in a fresh interpreter that imports this
    package's source, with ``pythonpath`` ahead of it."""
    src = os.path.dirname(os.path.dirname(amerbound.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*pythonpath, src]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_missing_highs_core_names_the_scipy_floor(tmp_path):
    # a scipy package without the core's file
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    out = _run_fresh("try:\n"
                     "    import amerbound.lpcore\n"
                     "except ImportError as exc:\n"
                     "    print(exc)\n", [str(tmp_path)])
    assert "scipy>=1.15" in out


def test_scipy_optimize_works_after_a_bound():
    # lpcore registered the core under its real name, so scipy.optimize
    # imported later finds it there and its HiGHS front end still solves.
    # The core is reached as scipy's own modules reach it, by ``import ...
    # as``: the package scipy.optimize._highspy gets no _core attribute,
    # since it was not loaded when the core was.
    out = _run_fresh(
        "from amerbound import bound, instances, lpcore\n"
        "inst = instances.get('sec26')\n"
        "bound.robust_bound(inst.surface, inst.payoff)\n"
        "import scipy.optimize\n"
        "import scipy.optimize._highspy._core as core\n"
        "res = scipy.optimize.linprog([-1.0], A_ub=[[1.0]], b_ub=[3.0],\n"
        "                             method='highs')\n"
        "print(res.status, res.fun, core is lpcore.highs)\n")
    assert out.split() == ["0", "-3.0", "True"]


def test_lpcore_reuses_the_core_scipy_optimize_loaded():
    out = _run_fresh("import sys, scipy.optimize\n"
                     "core = sys.modules['scipy.optimize._highspy._core']\n"
                     "from amerbound import lpcore\n"
                     "print(lpcore.highs is core)\n")
    assert out.split() == ["True"]


def test_free_variable():
    # min y s.t. y >= x - 2, y >= -x, x <= 5: optimum y = -... with x >= 0.
    lp = LinearProgram.from_rows(
        "min", 2, [0.0, 1.0],
        [Row([(0, -1.0), (1, 1.0)], ">=", -2.0),
         Row([(0, 1.0), (1, 1.0)], ">=", 0.0),
         Row([(0, 1.0)], "<=", 5.0)],
        free=[False, True])
    sol = lpcore.solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)  # x=1, y=-1


def test_check_point_roundtrip():
    lp = lp_max_x_le_3()
    sol = lpcore.solve(lp)
    rep = check_point(lp, sol.x, tol=1e-9)
    assert rep.feasible
    assert rep.objective == pytest.approx(sol.objective)
    rep2 = check_point(lp, [4.0])
    assert not rep2.feasible


def test_check_point_rejects_zero_on_positive_equality():
    lp = LinearProgram.from_rows("max", 2, [1.0, 0.0],
                                 [Row([(0, 1.0), (1, 1.0)], "=", 0.5)])
    assert not check_point(lp, [0.0, 0.0]).feasible


def test_dual_of_trivial():
    lp = LinearProgram.from_rows("max", 0, [], [])
    d = dual_of(lp)
    assert d.sense == "min"
    assert lpcore.solve(d).objective == pytest.approx(0.0)


def test_dual_of_value_matches():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lp = _random_bounded_lp(rng)
        d = dual_of(lp)
        s1 = lpcore.solve(lp)
        s2 = lpcore.solve(d)
        assert s1.status == "optimal" and s2.status == "optimal"
        assert s1.objective == pytest.approx(s2.objective, abs=1e-7)


def test_dual_of_dual_of_value():
    lp = lp_max_x_le_3()
    dd = dual_of(dual_of(lp))
    assert lpcore.solve(dd).objective == pytest.approx(3.0, abs=1e-9)


def test_residual_invariants_on_random_lps():
    rng = np.random.default_rng(11)
    for _ in range(50):
        lp = _random_bounded_lp(rng)
        sol = lpcore.solve(lp)
        assert sol.status == "optimal"
        parts = (csr(lp).data, lp.rhs, lp.objective)
        s = 1.0 + max(float(np.max(np.abs(p), initial=0.0)) for p in parts)
        assert sol.primal_residual <= 1e-9 * s
        assert sol.dual_residual <= 1e-9 * s
        # complementary slackness: a slack row has no multiplier, and a
        # positive variable no reduced cost
        gap = csr(lp) @ sol.x - lp.rhs
        red = csr(lp).T @ sol.duals - lp.objective
        assert np.max(np.abs(sol.duals * gap)) <= 1e-8 * s
        assert np.max(np.abs(red * sol.x)) <= 1e-8 * s
        # weak duality realized: dual objective equals primal objective
        assert sol.duals @ lp.rhs == pytest.approx(sol.objective, abs=1e-8 * s)


def _scipy_dual_residual(lp, duals):
    """lpcore's dual residual, with A'duals from scipy's mat-vec."""
    sgn = 1.0 if lp.sense == "max" else -1.0
    red = (csr(lp).T @ duals - lp.objective) * sgn
    v = duals * sgn
    row_sign = np.where(lp.relations == "<=", -v,
                        np.where(lp.relations == ">=", v, 0.0))
    return max(float(np.max(np.abs(red[lp.free]), initial=0.0)),
               float(np.max(-red[~lp.free], initial=0.0)),
               float(np.max(row_sign, initial=0.0)))


def _spread_marginals_surface(J, N):
    """A surface on J strikes 10 apart, priced off marginals that start as
    a point mass and spread half of each inner state's mass to its two
    neighbours at each maturity; no mass lies above the top strike."""
    p = np.zeros(J + 1)
    p[(J + 1) // 2] = 1.0
    probs = []
    for _ in range(N):
        probs.append(p)
        half = p[1:-1] / 2
        p = p.copy()
        p[1:-1] -= half
        p[:-2] += half / 2
        p[2:] += half / 2
    return market.load_surface({
        "marginals": np.column_stack(probs).tolist(),
        "states": (10.0 * np.arange(J + 1)).tolist(),
        "maturities": [float(n) for n in range(1, N + 1)]})


def _sweep_primals():
    """The primal of each (J, N) that the benchmark's bound sweep solves, on
    both kinds of surface: lognormal quotes, whose top call is worth more
    than zero, and zero-tail spread marginals under a put."""
    for J, N in [(J, N) for J in range(3, 9) for N in range(2, 7)
                 if J * N <= 24]:
        cfg = bench.BenchConfig(strikes=tuple(np.linspace(70.0, 140.0, J)),
                                num_maturities=N)
        yield bound.build_primal_extended(
            market.extended_marginals(bench.bs_surface(cfg)),
            bench.linearized_grid(cfg))[0]
        surface = _spread_marginals_surface(J, N)
        put = np.maximum(10.0 * J / 2 - surface.states, 0.0)
        yield bound.build_primal_extended(
            market.extended_marginals(surface),
            AmericanPayoffGrid(np.tile(put[:, None], N), surface.states,
                               surface.maturities))[0]


def test_residuals_match_scipy_matvecs_bit_for_bit():
    # the residuals add Ax and A'lam in the order of scipy's CSR and CSC
    # mat-vecs, so they keep the bits they had when computed with scipy
    rng = np.random.default_rng(11)
    lps = [_random_bounded_lp(rng) for _ in range(50)]
    lps += list(_sweep_primals())
    assert len(lps) == 50 + 2 * 20
    for lp in lps:
        sol = lpcore.solve(lp)
        assert sol.status == "optimal"
        want = (check_point(lp, sol.x).max_violation,
                _scipy_dual_residual(lp, sol.duals))
        assert (sol.primal_residual.hex(), sol.dual_residual.hex()) == \
            tuple(w.hex() for w in want)


def test_determinism():
    rng = np.random.default_rng(3)
    lp = _random_bounded_lp(rng)
    a = lpcore.solve(lp)
    b = lpcore.solve(lp)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)


def _random_bounded_lp(rng, max_vars=4):
    """Feasible bounded LP: nonnegative vars in a box plus random cuts."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(2, 5))
    x0 = rng.integers(0, 4, size=n)
    rows = []
    for j in range(n):
        rows.append(Row([(j, 1.0)], "<=", float(x0[j] + rng.integers(1, 4))))
    for _ in range(m):
        a = rng.integers(-3, 4, size=n)
        slack = int(rng.integers(0, 3))
        rows.append(Row([(j, float(a[j])) for j in range(n) if a[j]],
                        "<=", float(a @ x0 + slack)))
    obj = rng.integers(-5, 6, size=n).astype(float)
    sense = "max" if rng.random() < 0.5 else "min"
    return LinearProgram.from_rows(sense, n, obj, rows)


def random_lp_and_oracle_value(rng):
    lp = _random_bounded_lp(rng)
    rows = []
    for r in lp.rows:
        coeffs = [0] * lp.num_vars
        for j, v in r.terms:
            coeffs[j] = int(v)
        rows.append((coeffs, r.relation, int(r.rhs)))
    val, _ = brute_force_optimum(lp.sense, [int(v) for v in lp.objective], rows)
    return lp, val


def test_oracle_agreement_sample():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        lp, val = random_lp_and_oracle_value(rng)
        sol = lpcore.solve(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective - float(val)) <= 1e-7


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_objective_rejected_on_construction(bad):
    with pytest.raises(lpcore.LPError, match="non-finite objective"):
        LinearProgram.from_rows("max", 2, [1.0, bad],
                                [Row([(0, 1.0)], "<=", 1.0)])
