import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amerbound import bench, bound, certify, instances, lpcore, market, payoff
from amerbound.payoff import (AmericanPayoffGrid, PayoffFunction,
                              exercise_time_transform)


@pytest.fixture(scope="module")
def sec26():
    return instances.get("sec26")


@pytest.fixture(scope="module")
def sec26_result(sec26):
    return bound.robust_bound(sec26.surface, sec26.payoff)


def test_sec26_value(sec26, sec26_result):
    res = sec26_result
    assert res.variant == "bounded"
    assert res.phi == pytest.approx(35.625, abs=1e-8)
    assert res.psi == pytest.approx(35.625, abs=1e-8)
    assert res.gap <= 1e-8


def test_sec26_extended_matches_bounded(sec26, sec26_result):
    res = bound.robust_bound(sec26.surface, sec26.payoff, variant="extended")
    assert res.phi == pytest.approx(sec26_result.phi, abs=1e-7)
    assert res.psi == pytest.approx(sec26_result.psi, abs=1e-7)


def test_sec52_value():
    inst = instances.get("sec52")
    res = bound.robust_bound(inst.surface, inst.payoff)
    assert res.phi == pytest.approx(3.6, abs=1e-8)
    assert res.psi == pytest.approx(3.6, abs=1e-8)


def test_eg11_value():
    inst = instances.get("eg11")
    res = bound.robust_bound(inst.surface, inst.payoff)
    assert res.phi == pytest.approx(34.0, abs=1e-8)


def _pack_dual(hedge):
    # the hand-built dual's column order: E1, E2, V, D1, D2, each n-major
    N = len(hedge.maturities)
    blocks = (hedge.E1[:, :N - 1], hedge.E2[:, 1:], hedge.V, hedge.D1, hedge.D2)
    return np.concatenate([b.T.ravel() for b in blocks])


def test_mechanical_dual_agrees(sec26):
    # dual_of applied to the primal build must price like the hand-built dual
    m = market.implied_marginals(sec26.surface)
    lp, _ = bound.build_primal_bounded(m, sec26.payoff)
    mech = lpcore.solve(lpcore.dual_of(lp))
    assert mech.status == "optimal"
    assert mech.objective == pytest.approx(35.625, abs=1e-7)
    # the hedge read off the primal's row multipliers is a feasible point of
    # the hand-built dual, at cost phi
    cfg = bench.BenchConfig()
    cases = [(instances.get(name), variant)
             for name in ("sec26", "sec52", "eg11")
             for variant in ("bounded", "extended")]
    cases.append((instances.DemoInstance("headline", bench.bs_surface(cfg),
                                         bench.linearized_grid(cfg), None),
                  "extended"))
    for inst, variant in cases:
        res = bound.robust_bound(inst.surface, inst.payoff, variant=variant)
        if variant == "bounded":
            m = market.implied_marginals(inst.surface)
            lp_d, _ = bound.build_dual_bounded(m, inst.payoff)
        else:
            m = market.extended_marginals(inst.surface)
            lp_d, _ = bound.build_dual_extended(m, inst.payoff)
        rep = lpcore.check_point(lp_d, _pack_dual(res.hedge), tol=1e-9)
        assert rep.feasible, (inst.name, variant, rep.max_violation)
        assert rep.objective == pytest.approx(res.phi, abs=1e-9)


def test_one_solve_per_bound(sec26, monkeypatch):
    calls = []
    solve = lpcore.solve

    def counting(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(lpcore, "solve", counting)
    for variant in ("bounded", "extended"):
        calls.clear()
        bound.robust_bound(sec26.surface, sec26.payoff, variant=variant)
        assert len(calls) == 1, variant


def test_closed_form_sweep_random_parameters():
    rng = np.random.default_rng(20260824)
    for _ in range(20):
        N = int(rng.integers(2, 6))
        q = rng.uniform(0.1, 1.0, size=N)
        q /= q.sum()
        b = np.sort(rng.uniform(101.0, 149.0, size=N))[::-1]
        if b[-1] < 100.0 or len(np.unique(b)) < N:
            continue
        inst = instances.get("sec26", q=tuple(q), b=tuple(b))
        res = bound.robust_bound(inst.surface, inst.payoff)
        assert res.phi == pytest.approx(inst.bound_value, abs=1e-8), (q, b)
        assert res.psi == pytest.approx(inst.bound_value, abs=1e-8)


def test_reference_hedges_feasible_at_optimal_cost():
    for name in ("sec26", "sec52"):
        inst = instances.get(name)
        h = inst.extras["hedge"]
        ref = certify.HedgeStrategy(inst.surface.states, inst.surface.maturities,
                                    h["E1"], h["E2"], h["V"], h["D1"], h["D2"],
                                    growth_rate=inst.payoff.growth_rate)
        m = market.implied_marginals(inst.surface)
        assert certify.grid_feasibility(ref, inst.payoff) >= -1e-9
        assert ref.cost(m.probs) == pytest.approx(inst.bound_value, abs=1e-9)


def test_model_mass_exhausted(sec26_result):
    # every path exercises by the last maturity, also at states where the
    # payoff is 0 (sec26's top state), so the exercise mass totals 1
    assert float(sec26_result.model.F.sum()) == pytest.approx(1.0, abs=1e-8)


def test_top_state_absorbing(sec26_result):
    # a martingale cannot leave the top lattice state in the bounded variant
    model = sec26_result.model
    J = model.num_states - 1
    for G in (model.G1, model.G2):
        out = G[J, :, :].sum(axis=0) - G[J, J, :]
        assert np.all(np.abs(out) <= 1e-10)


def test_bound_monotone_in_payoff(sec26):
    smaller = AmericanPayoffGrid(0.5 * sec26.payoff.values, sec26.payoff.states,
                                 sec26.payoff.maturities)
    res = bound.robust_bound(sec26.surface, smaller)
    assert res.phi == pytest.approx(0.5 * 35.625, abs=1e-7)


def test_bound_dominates_every_european(sec26, sec26_result):
    a = sec26.payoff
    for euro in market.price_piecewise_linear(sec26.surface, a.values,
                                              a.tail_slopes):
        assert sec26_result.phi >= euro - 1e-9


def test_seed_model_prices_below_bound():
    inst = instances.get("eg11")
    m = market.implied_marginals(inst.surface)
    sm = certify.seed_model(m)
    est, _ = certify.mc_price(sm, inst.payoff, 50000, 3)
    assert est == pytest.approx(32.0, abs=1e-9)   # exact: no randomness in payoff
    assert est <= 34.0 + 1e-9


def test_variant_auto_selection(sec26):
    # zero top-strike calls -> bounded; positive tail -> extended
    assert bound.robust_bound(sec26.surface, sec26.payoff).variant == "bounded"
    from amerbound import bench
    cfg = bench.BenchConfig(num_maturities=2, strikes=(70, 100, 130))
    surface = bench.bs_surface(cfg)
    a = bench.linearized_grid(cfg)
    assert bound.robust_bound(surface, a).variant == "extended"


def test_invalid_surface_rejected(sec26):
    prices = sec26.surface.prices.copy()
    prices[2, 2] += 1.0               # breaks convexity in the tight column
    bad = market.CallSurface(sec26.surface.s0, sec26.surface.strikes,
                             sec26.surface.maturities, prices)
    with pytest.raises(bound.BoundError):
        bound.robust_bound(bad, sec26.payoff)


def test_mismatched_grids_rejected(sec26):
    a = AmericanPayoffGrid(np.zeros((3, 2)), [0.0, 1.0, 2.0], [1.0, 2.0])
    with pytest.raises(bound.BoundError):
        bound.robust_bound(sec26.surface, a)


def _assert_gap_closed(res):
    assert abs(res.phi - res.psi) <= 1e-6 * (1.0 + abs(res.phi))


def _black_call(s0, strike, vol, t):
    # erfc form: the same bits as perfbench's dense-grid quotes
    sd = vol * math.sqrt(t)
    d1 = (math.log(s0 / strike) + 0.5 * sd * sd) / sd
    cdf = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))
    return s0 * cdf(d1) - strike * cdf(d1 - sd)


@pytest.mark.parametrize("J,N", [(15, 2), (15, 4), (19, 2), (19, 4)])
def test_dense_grid_surfaces(J, N):
    # valid lognormal surfaces of realistic size; the dense hand-written
    # simplex failed J=19, N=2 with "phase I failed: unbounded"
    strikes = np.linspace(70.0, 160.0, J)
    mats = np.arange(1, N + 1) / N
    surface = market.load_surface({
        "s0": 100.0, "strikes": strikes.tolist(), "maturities": mats.tolist(),
        "calls": [[_black_call(100.0, k, 0.213, t) for t in mats]
                  for k in strikes]})
    put = payoff.discounted_put(100.0, 0.05, horizon=1.0, x_hint=320.0)
    grid = exercise_time_transform(put, surface.strikes, surface.maturities)
    _assert_gap_closed(bound.robust_bound(surface, grid))


def test_valid_surface_survives_without_presolve():
    # HiGHS with presolve on called this extended program's dual unbounded:
    # four strikes, five maturities, a put-mixture payoff
    surface = market.load_surface({
        "s0": 118.52101746750621,
        "strikes": [73.54970668416018, 86.85674927077403, 99.29735983922697,
                    120.8359888073062],
        "maturities": [0.38966389028285053, 0.526906304966955,
                       0.7301183282467207, 1.013818149576332,
                       1.263270079416262],
        "calls": [[44.97131078334604, 44.97131078339673, 44.971310810596606,
                   44.97131373508593, 44.97134500831723],
                  [31.664268783377494, 31.664288521749455, 31.664642613848727,
                   31.667737205035692, 31.675715293991644],
                  [19.22907997605246, 19.245488985684716, 19.295825259313716,
                   19.41237692585078, 19.54753575462189],
                  [2.010616058651145, 2.4842378455183223, 3.089705903603871,
                   3.813022988839407, 4.371205994264024]]})
    Ks = (43.9735846973031, 98.74160546623702)
    ws = (1.4932445611329295, 1.4568009963653765)
    r = 0.03738922373898784

    def fn(x, t):
        return sum(w * np.maximum(K * np.exp(-r * t) - x, 0.0)
                   for K, w in zip(Ks, ws))

    pf = PayoffFunction(fn, convex_in_x=True, decreasing_in_t=True,
                        tail_slope=0.0, horizon=1.263270079416262,
                        x_hint=2.0 * 120.8359888073062)
    grid = exercise_time_transform(pf, surface.strikes, surface.maturities)
    res = bound.robust_bound(surface, grid, variant="extended")
    _assert_gap_closed(res)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(J=st.integers(3, 6), N=st.integers(2, 4), vol=st.floats(0.15, 0.4),
       lo=st.floats(0.6, 0.95), hi=st.floats(1.1, 1.5),
       K=st.floats(80.0, 120.0), r=st.floats(0.0, 0.1),
       lam=st.floats(0.1, 10.0))
def test_phi_is_homogeneous_in_price_scale(J, N, vol, lo, hi, K, r, lam):
    strikes = tuple(np.linspace(lo, hi, J) * 100.0)
    cfg = bench.BenchConfig(vol=vol, strikes=strikes, num_maturities=N)
    surface = bench.bs_surface(cfg)

    def phi(scale):
        scaled = market.CallSurface(scale * surface.s0, scale * surface.strikes,
                                    surface.maturities, scale * surface.prices)
        put = payoff.discounted_put(scale * K, r)
        a = exercise_time_transform(put, scaled.strikes, scaled.maturities)
        return bound.robust_bound(scaled, a).phi

    assert phi(lam) == pytest.approx(lam * phi(1.0), rel=1e-8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(J=st.integers(3, 6), N=st.integers(2, 4), vol=st.floats(0.15, 0.4),
       lo=st.floats(0.6, 0.95), hi=st.floats(1.1, 1.5),
       K=st.floats(80.0, 120.0), r=st.floats(0.0, 0.1), data=st.data())
def test_zero_mass_strike_leaves_phi_unchanged(J, N, vol, lo, hi, K, r, data):
    # a strike midway between two neighbours, its calls interpolated
    # linearly, carries no mass: the LP gains a state the dual is
    # degenerate at, and neither phi nor the hedge's grid rows may move
    strikes = tuple(np.linspace(lo, hi, J) * 100.0)
    surface = bench.bs_surface(bench.BenchConfig(vol=vol, strikes=strikes,
                                                 num_maturities=N))
    i = data.draw(st.integers(1, J - 1))       # insert between strikes i, i+1
    c = surface.prices                         # row 0 is strike 0
    refined = market.CallSurface(
        surface.s0,
        np.insert(surface.strikes, i, 0.5 * (surface.strikes[i - 1]
                                              + surface.strikes[i])),
        surface.maturities,
        np.insert(c, i + 1, 0.5 * (c[i] + c[i + 1]), axis=0))
    put = payoff.discounted_put(K, r)

    def solve(s):
        a = exercise_time_transform(put, s.strikes, s.maturities)
        return bound.robust_bound(s, a), a

    base, _ = solve(surface)
    res, a = solve(refined)
    assert res.phi == pytest.approx(base.phi, rel=1e-8)
    scale = certify.hedge_scale(res.hedge)
    assert certify.grid_feasibility(res.hedge, a) >= -1e-9 * scale


def _put_grid_surface(J, N, vol, lo, hi, K, r):
    strikes = tuple(np.linspace(lo, hi, J) * 100.0)
    surface = bench.bs_surface(bench.BenchConfig(vol=vol, strikes=strikes,
                                                 num_maturities=N))
    put = payoff.discounted_put(K, r)
    return surface, exercise_time_transform(put, surface.strikes,
                                            surface.maturities)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(J=st.integers(3, 6), N=st.integers(2, 4), vol=st.floats(0.15, 0.4),
       lo=st.floats(0.6, 0.95), hi=st.floats(1.1, 1.5),
       K=st.floats(80.0, 120.0), r=st.floats(0.0, 0.1),
       c=st.floats(0.01, 50.0))
def test_constant_added_to_payoff_raises_phi_by_it(J, N, vol, lo, hi, K, r, c):
    # the claim is exercised exactly once, so a constant added to every
    # column is paid exactly once
    surface, a = _put_grid_surface(J, N, vol, lo, hi, K, r)
    shifted = AmericanPayoffGrid(a.values + c, a.states, a.maturities,
                                 a.tail_slopes)
    base = bound.robust_bound(surface, a).phi
    assert bound.robust_bound(surface, shifted).phi == pytest.approx(
        base + c, rel=1e-8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(J=st.integers(3, 6), N=st.integers(2, 4), vol=st.floats(0.15, 0.4),
       lo=st.floats(0.6, 0.95), hi=st.floats(1.1, 1.5),
       K=st.floats(80.0, 120.0), r=st.floats(0.0, 0.1),
       rise=st.floats(0.01, 20.0), data=st.data())
def test_raising_one_payoff_node_does_not_lower_phi(J, N, vol, lo, hi, K, r,
                                                   rise, data):
    surface, a = _put_grid_surface(J, N, vol, lo, hi, K, r)
    j = data.draw(st.integers(0, J))
    n = data.draw(st.integers(0, N - 1))
    values = a.values.copy()
    values[j, n] += rise
    raised = AmericanPayoffGrid(values, a.states, a.maturities, a.tail_slopes)
    base = bound.robust_bound(surface, a).phi
    # every model's value rises weakly, so the supremum may only move up;
    # the slack is LP rounding on phi of order 1 to 100
    assert bound.robust_bound(surface, raised).phi >= base - 1e-12 * (1 + base)
