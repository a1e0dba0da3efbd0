import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amerbound import bench, bound, certify, cli, instances, market
from amerbound.certify import HedgeStrategy, RegimeModel
from amerbound.payoff import AmericanPayoffGrid

from replay_oracle import (continuous_slack, exercise_values,
                           full_line_paths, mixed_inf, mixed_interp,
                           payoff_values, tail_calls, tail_hedge_ratio)


@pytest.fixture(scope="module")
def sec26():
    return instances.get("sec26")


@pytest.fixture(scope="module")
def sec26_result(sec26):
    return bound.robust_bound(sec26.surface, sec26.payoff)


@pytest.fixture(scope="module")
def sec52():
    return instances.get("sec52")


@pytest.fixture(scope="module")
def sec52_hedge(sec52):
    h = sec52.extras["hedge"]
    return HedgeStrategy(sec52.surface.states, sec52.surface.maturities,
                         h["E1"], h["E2"], h["V"], h["D1"], h["D2"],
                         growth_rate=sec52.payoff.growth_rate)


def test_model_consistency_checks(sec26_result):
    model = sec26_result.model
    p = market.implied_marginals(instances.get("sec26").surface)
    assert np.all(np.abs(model.marginals - p) <= 1e-8)
    assert np.all(model.switch_prob >= -1e-9)
    assert np.all(model.switch_prob <= 1 + 1e-9)
    assert model.F.min() >= -1e-12
    assert model.G1.min() >= -1e-12 and model.G2.min() >= -1e-12


def test_simulation_reproducible(sec26_result):
    a = instances.get("sec26").payoff
    b1 = certify.simulate(sec26_result.model, 2000, seed=11)
    b2 = certify.simulate(sec26_result.model, 2000, seed=11)
    b3 = certify.simulate(sec26_result.model, 2000, seed=12)
    assert np.array_equal(b1.values, b2.values)
    assert np.array_equal(b1.exercise_index, b2.exercise_index)
    assert not np.array_equal(b1.values, b3.values)


def test_simulation_is_martingale_with_right_marginals(sec26, sec26_result):
    batch = certify.simulate(sec26_result.model, 200000, seed=5)
    p = market.implied_marginals(sec26.surface)
    x = sec26.surface.states
    P = len(batch)
    for n in range(len(sec26.surface.maturities)):
        col = batch.values[:, n]
        for j, s in enumerate(x):
            freq = np.mean(np.isclose(col, s))
            assert freq == pytest.approx(p[j, n], abs=0.01)
    # one-step conditional means match the current price (martingale)
    for n in range(len(sec26.surface.maturities) - 1):
        for s in x:
            sel = np.isclose(batch.values[:, n], s)
            if sel.sum() > 1000:
                assert batch.values[sel, n + 1].mean() == pytest.approx(
                    s, abs=0.05 * (1 + s))


def test_mc_price_matches_lp_value(sec26_result):
    a = instances.get("sec26").payoff
    est, se = certify.mc_price(sec26_result.model, a, 200000, seed=9)
    assert abs(est - sec26_result.phi) <= 3 * se


def test_seed_model_identity_for_constant_marginals():
    probs = np.array([[0.2, 0.2], [0.3, 0.3], [0.5, 0.5]])
    surface = market.load_surface({"marginals": probs.tolist(),
                                   "states": [0.0, 1.0, 2.0],
                                   "maturities": [1.0, 2.0]})
    model = bound.seed_model(surface)
    batch = certify.simulate(model, 5000, seed=2)
    assert np.array_equal(batch.values[:, 0], batch.values[:, 1])


def _values(hedge, Y):
    """The replay's exercise-value table of a hedge along the paths Y."""
    return certify._exercise_values(hedge, Y,
                                    certify._brackets(hedge.states, Y))


def test_mixed_interp_three_cases():
    xs = np.array([0.0, 1.0, 2.0])
    h = np.array([0.0, 1.0, 1.0])     # secant slopes: 1 then 0
    d = np.array([0.5, 2.0, -1.0])
    d2 = np.array([2.0, 2.0, 0.5])

    def kernel(d, y):
        # the replay's holding ratio at step 1 of a hedge with D1 = d, E1 = h
        zero = np.zeros((3, 2))
        hedge = HedgeStrategy(xs, np.array([1.0, 2.0]),
                              np.column_stack([h, h]), zero, zero,
                              d[:, None], np.zeros((3, 1)))
        code, _ = certify._brackets(xs, np.array([[y, y]]))
        return certify._ratio_table(hedge, 1)[0][code[0, 0]]

    # knots return the knot ratio; d_j below the secant: keep d_j; d_j
    # above, d_{j+1} below the secant: fall back to the secant itself; d_j
    # above, d_{j+1} above: take d_{j+1}
    for d_row, y, want in ((d, 1.0, 2.0), (d, 0.5, 0.5), (d, 1.5, 0.0),
                           (d2, 1.5, 0.5)):
        assert mixed_interp(xs, d_row, h, y) == pytest.approx(want)
        assert kernel(d_row, y) == pytest.approx(want)


def test_mixed_interp_infimum_matches_sampling():
    rng = np.random.default_rng(77)
    xs = np.sort(np.concatenate([[0.0], rng.uniform(0.5, 10, 4)]))
    d = rng.normal(size=5)
    h = rng.normal(size=5)
    inf_exact = mixed_inf(xs, d, h)
    # the replay's holding-ratio table of a hedge with D1 = d, E1 = h
    hedge = HedgeStrategy(xs, np.array([1.0, 2.0]), np.column_stack([h, h]),
                          np.zeros((5, 2)), np.zeros((5, 2)), d[:, None],
                          np.zeros((5, 1)))
    assert certify._ratio_table(hedge, 1).min(axis=1)[0] == inf_exact
    samples = mixed_interp(xs, d, h, rng.uniform(0, xs[-1], 4000))
    assert samples.min() >= inf_exact - 1e-12
    # the infimum is attained at a knot or in the interior of some interval
    mids = 0.5 * (xs[:-1] + xs[1:])
    probes = mixed_interp(xs, d, h, np.concatenate([xs, mids]))
    assert probes.min() == pytest.approx(inf_exact, abs=1e-12)


def test_gains_zero_hedge_is_zero(sec52):
    J1 = len(sec52.surface.states)
    zero = HedgeStrategy(sec52.surface.states, sec52.surface.maturities,
                         np.zeros((J1, 2)), np.zeros((J1, 2)),
                         np.zeros((J1, 2)), np.zeros((J1, 1)),
                         np.zeros((J1, 1)), growth_rate=0.0,
                         beta=np.zeros(2))
    values = _values(zero, np.array([[1.0, 4.0]]))
    assert np.array_equal(values, np.zeros((1, 2)))


def test_gains_cover_early_exercise(sec52, sec52_hedge):
    # exercise immediately at the low state: claim pays 1, hedge must cover;
    # ride to the top state and exercise late: claim pays 8
    values = _values(sec52_hedge, np.array([[1.0, 0.0], [3.0, 4.0]]))
    assert values[0, 0] >= 1.0 - 1e-12
    assert values[1, 1] >= 8.0 - 1e-12


def test_paper_hedge_cost_is_optimal(sec52, sec52_hedge):
    p = market.implied_marginals(sec52.surface)
    assert sec52_hedge.cost(p) == pytest.approx(3.6, abs=1e-12)
    assert certify.grid_feasibility(sec52_hedge, sec52.payoff) >= -1e-12


def test_verification_modes_pass(sec26, sec26_result):
    hedge = sec26_result.hedge
    for mode in ("lattice-exhaustive", "interval-random", "full-line-random"):
        rep = certify.verify_superreplication(hedge, sec26.payoff, mode,
                                              trials=5000, seed=3,
                                              s0=sec26.surface.s0)
        assert not rep.skipped
        assert rep.min_slack >= -1e-9 * certify.hedge_scale(hedge), mode


def test_continuous_replay_accepts_scalar_only_payoff():
    cfg = bench.BenchConfig(strikes=(80.0, 100.0, 120.0), num_maturities=2)
    put = bench.put_payoff(cfg)
    a = bench.linearized_grid(cfg)
    res = bound.robust_bound(bench.bs_surface(cfg), a)

    def scalar_put(x, t):
        return max(100.0 * math.exp(-0.05 * t) - x, 0.0)

    reps = [certify.verify_superreplication(
        res.hedge, a, "continuous-exercise-random", trials=2000, seed=5,
        payoff_fn=fn, s0=cfg.s0) for fn in (put, scalar_put)]
    assert reps[0].min_slack >= -1e-6 * certify.hedge_scale(res.hedge)
    assert reps[1].min_slack == pytest.approx(reps[0].min_slack, abs=1e-12)


def test_lattice_enumeration_cap(sec26, sec26_result, monkeypatch):
    monkeypatch.setattr(certify, "ENUMERATION_CAP", 10)
    rep = certify.verify_superreplication(sec26_result.hedge, sec26.payoff,
                                          "lattice-exhaustive")
    assert rep.skipped


@pytest.mark.parametrize("mode", ["lattice-exhaustive", "interval-random",
                                  "full-line-random",
                                  "continuous-exercise-random"])
def test_replay_refuses_a_payoff_on_another_lattice(sec26, sec26_result,
                                                     mode):
    a = sec26.payoff
    moved = AmericanPayoffGrid(a.values, 1.01 * a.states, a.maturities,
                               a.tail_slopes)
    with pytest.raises(certify.CertifyError, match="different lattices"):
        certify.verify_superreplication(sec26_result.hedge, moved, mode,
                                        trials=100, s0=sec26.surface.s0)


@pytest.mark.parametrize("mode", ["lattice-exhaustive", "interval-random",
                                  "full-line-random",
                                  "continuous-exercise-random"])
def test_replay_refuses_a_payoff_on_other_maturities(sec26, sec26_result,
                                                     mode):
    # eg11's payoff has sec26's states but only two of its three maturities;
    # the second grid has all three, each half a year late
    a = sec26.payoff
    for other in (instances.get("eg11").payoff,
                  AmericanPayoffGrid(a.values, a.states, a.maturities + 0.5,
                                     a.tail_slopes)):
        with pytest.raises(certify.CertifyError, match="different maturities"):
            certify.verify_superreplication(sec26_result.hedge, other, mode,
                                            trials=100, s0=sec26.surface.s0)


def test_realized_weak_duality(sec26, sec26_result):
    # pathwise gains dominate the realized payoff on simulated optimal paths
    batch = certify.simulate(sec26_result.model, 500, seed=21)
    a = sec26.payoff
    Y = batch.values
    rows, cols = np.arange(len(batch)), batch.exercise_index - 1
    g = _values(sec26_result.hedge, Y)[rows, cols]
    paid = a.values[np.searchsorted(a.states, Y[rows, cols]), cols]
    assert np.all(g >= paid - 1e-9)


# ---------------------------------------------------------------------------
# the exercise-value table against the replays it replaced


def _loop_slack_over_exercise(hedge, a, Y):
    """The replay's previous reduction over the leg-by-leg tables, kept as
    the oracle: a scan over the exercise dates that keeps a date only when
    its slack is strictly smaller."""
    slacks = exercise_values(hedge, Y) - payoff_values(a, Y)
    P, N = Y.shape
    best = np.full(P, np.inf)
    best_m = np.zeros(P, dtype=np.int64)
    for m in range(1, N + 1):
        slack = slacks[:, m - 1]
        upd = slack < best
        best[upd] = slack[upd]
        best_m[upd] = m
    return best, best_m


def _row_values(hedge, y):
    """One row of the exercise-value table from scalar sums: the static
    claims, the tail calls of the bounded variant and the traded gains."""
    xs, N = hedge.states, len(y)
    J, xJ, R = len(xs) - 1, xs[-1], hedge.growth_rate

    def leg(col, slope, x):
        return float(np.interp(min(x, xJ), xs, col[:J + 1])
                     + slope * max(x - xJ, 0.0))

    def tail(M):
        return M[J + 1] if hedge.extended else np.zeros(N)

    e1s, e2s = tail(hedge.E1), tail(hedge.E2)
    vs = hedge.V[J + 1] if hedge.extended else np.full(N, R)
    static = sum(leg(hedge.E1[:, n], e1s[n], y[n])
                 + leg(hedge.E2[:, n], e2s[n], y[n]) for n in range(N))
    static += leg(hedge.V[:, N - 1], vs[N - 1], y[N - 1])
    if not hedge.extended:
        beta = certify.tail_calls(hedge, R)
        static += sum(beta[n] * max(y[n] - xJ, 0.0) for n in range(N))
        static += R * max(y[N - 1] - xJ, 0.0)

    def ratio(delta, n, x):
        D = hedge.D1 if delta == 1 else hedge.D2
        if x > xJ:
            return (tail_hedge_ratio(hedge, n, delta)
                    if hedge.extended else D[J, n - 1])
        h = hedge.E1[:J + 1, n - 1] - (delta == 2) * hedge.V[:J + 1, n - 1]
        return mixed_interp(xs, D[:J + 1, n - 1], h, x)

    return np.array([
        static
        + sum((y[n] - y[n - 1]) * ratio(1, n, y[n - 1]) for n in range(1, m))
        + sum((y[n] - y[n - 1]) * ratio(2, n, y[n - 1]) for n in range(m, N))
        for m in range(1, N + 1)])


@pytest.fixture(scope="module")
def replay_cases():
    """(name, hedge, payoff, s0) for each demo in both variants, and the
    headline."""
    cases = []
    for name in ("sec26", "sec52", "eg11"):
        inst = instances.get(name)
        for variant in ("bounded", "extended"):
            res = bound.robust_bound(inst.surface, inst.payoff, variant=variant)
            cases.append(("%s-%s" % (name, variant), res.hedge, inst.payoff,
                          inst.surface.s0))
    cfg = bench.BenchConfig()
    a = bench.linearized_grid(cfg)
    res = bound.robust_bound(bench.bs_surface(cfg), a)
    cases.append(("headline", res.hedge, a, cfg.s0))
    return cases


def _replay_paths(hedge, s0, rng):
    """Lattice, interval and full-line paths, as the replay modes draw them."""
    xs, N = hedge.states, len(hedge.maturities)
    K = len(xs)
    lattice = xs[np.stack(np.unravel_index(np.arange(min(K ** N, 20000)),
                                           (K,) * N), axis=1)]
    interval = rng.uniform(0.0, xs[-1], size=(2000, N))
    full = certify._full_line_paths(rng, 2000, N, xs[-1], s0)
    return {"lattice": lattice, "interval": interval, "full-line": full}


def test_slack_over_exercise_matches_loop(replay_cases):
    rng = np.random.default_rng(13)
    for name, hedge, a, s0 in replay_cases:
        for kind, Y in _replay_paths(hedge, s0, rng).items():
            best, best_m = certify._slack_over_exercise(hedge, a, Y)
            ref, ref_m = _loop_slack_over_exercise(hedge, a, Y)
            assert np.array_equal(best, ref), (name, kind)
            assert np.array_equal(best_m, ref_m), (name, kind)
            assert best_m.dtype == ref_m.dtype


def test_exercise_values_match_scalar_sums(replay_cases):
    rng = np.random.default_rng(14)
    for name, hedge, a, s0 in replay_cases:
        scale = certify.hedge_scale(hedge)
        for kind, Y in _replay_paths(hedge, s0, rng).items():
            values = _values(hedge, Y)
            # every 50th path, and the first paths that leave [0, x_J]
            above = np.flatnonzero((Y > hedge.states[-1]).any(axis=1))[:20]
            for i in np.union1d(np.arange(0, len(Y), 50), above):
                ref = _row_values(hedge, Y[i])
                assert np.max(np.abs(values[i] - ref)) <= 1e-12 * scale, \
                    (name, kind, i)


@st.composite
def replay_inputs(draw):
    """A random bounded or extended hedge, a payoff on its lattice, and
    paths whose every column passes through 0, each knot, x_J, the next
    float above x_J and prices far above x_J.  Rounded values and, at times,
    whole-number knots make ties between a ratio and a secant slope."""
    K, N = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    extended = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gaps = (rng.integers(1, 4, K - 1).astype(float) if draw(st.booleans())
            else rng.uniform(0.5, 30.0, K - 1))
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    M = K + extended

    def block(cols):
        return np.round(rng.normal(scale=3.0, size=(M, cols)),
                        int(rng.integers(0, 3)))

    mats = np.arange(1.0, N + 1)
    hedge = HedgeStrategy(xs, mats, block(N), block(N), block(N),
                          block(N - 1), block(N - 1),
                          growth_rate=float(rng.choice([0.0, 0.5, 1.0])))
    assert hedge.extended == extended
    a = AmericanPayoffGrid(np.abs(block(N)[:K]), xs, mats,
                           rng.choice([0.0, 1.0], N) * rng.uniform(0, 2, N))
    xJ = xs[-1]
    pool = np.concatenate([xs, [np.nextafter(xJ, np.inf), 1e3 * xJ],
                           rng.uniform(0.0, xJ, 8), rng.uniform(xJ, 3 * xJ, 4)])
    Y = rng.choice(pool, size=(len(pool) + 40, N))
    Y[:len(pool)] = pool[:, None]
    return hedge, a, Y


@given(case=replay_inputs())
def test_bracketed_replay_matches_leg_by_leg_oracle(case):
    hedge, a, Y = case
    N = Y.shape[1]
    at = certify._brackets(hedge.states, Y)
    assert np.array_equal(certify._exercise_values(hedge, Y, at),
                          exercise_values(hedge, Y))
    pay = certify._leg_tables(a.states, a.values, a.tail_slopes)
    assert np.array_equal(np.stack([certify._leg(pay, at, n)
                                    for n in range(N)], axis=1),
                          payoff_values(a, Y))
    best, best_m = certify._slack_over_exercise(hedge, a, Y)
    ref, ref_m = _loop_slack_over_exercise(hedge, a, Y)
    assert np.array_equal(best, ref) and np.array_equal(best_m, ref_m)
    # a negative price is refused by the kernel, as by the oracle's ratios
    Y[-1, 0] = -1.0
    with pytest.raises(certify.CertifyError):
        certify._slack_over_exercise(hedge, a, Y)
    if N > 1:
        with pytest.raises(certify.CertifyError):
            exercise_values(hedge, Y)


def _same_bits(got, want):
    """Equal arrays, down to the sign of each zero."""
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


@given(case=replay_inputs(), R=st.sampled_from([0.0, 0.5, 1.0]))
def test_tail_calls_match_step_loop(case, R):
    hedge = case[0]
    if hedge.extended:      # tail calls close zero-tail hedges: drop the row
        hedge = dataclasses.replace(
            hedge, beta=None, **{name: getattr(hedge, name)[:-1]
                                 for name in ("E1", "E2", "V", "D1", "D2")})
        assert not hedge.extended
    assert _same_bits(certify.tail_calls(hedge, R), tail_calls(hedge, R))
    assert _same_bits(hedge.beta, tail_calls(hedge, hedge.growth_rate))


class _MaturityDraws:
    """A stand-in generator whose uniform draws are the maturities
    themselves, so that every exercise time falls on the grid."""

    def __init__(self, maturities):
        self.maturities = maturities

    def uniform(self, low, high, size):
        return np.resize(self.maturities, size)


def _put_fn(x, t):
    return np.maximum(7.0 * np.exp(-0.05 * t) - x, 0.0)


@given(case=replay_inputs(), start=st.sampled_from(["knot", "inside", "above",
                                                    None]),
       on_grid=st.booleans(), payoff_fn=st.sampled_from([None, _put_fn]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_continuous_slack_matches_per_maturity_oracle(case, start, on_grid,
                                                      payoff_fn, seed):
    hedge, a, Y = case
    xs = hedge.states
    j = seed % (len(xs) - 1)
    s0 = {"knot": xs[j + 1], "inside": 0.5 * (xs[j] + xs[j + 1]),
          "above": 1.5 * xs[-1], None: None}[start]

    def rng():
        return (_MaturityDraws(hedge.maturities) if on_grid
                else np.random.default_rng(np.random.Philox(seed)))

    slack, rho = certify._continuous_slack(hedge, a, Y, rng(), payoff_fn, s0)
    ref, ref_rho = continuous_slack(hedge, a, Y, rng(), payoff_fn, s0)
    assert np.array_equal(slack, ref) and _same_bits(slack, ref)
    assert np.array_equal(rho, ref_rho) and _same_bits(rho, ref_rho)


def test_v_mutation_detected(sec26, sec26_result):
    model, hedge = sec26_result.model, sec26_result.hedge
    scale = certify.hedge_scale(hedge)
    reachable = np.argwhere(model.F > 1e-9)
    assert len(reachable) > 0
    for j, n in reachable:
        V = hedge.V.copy()
        V[j, n] -= 1e-3 * scale
        mutated = HedgeStrategy(hedge.states, hedge.maturities, hedge.E1,
                                hedge.E2, V, hedge.D1, hedge.D2,
                                growth_rate=hedge.growth_rate,
                                beta=hedge.beta)
        rep = certify.verify_superreplication(mutated, sec26.payoff,
                                              "lattice-exhaustive")
        assert rep.min_slack < -1e-9, (j, n)


def test_tail_hedge_ratio_extended():
    from amerbound import bench
    cfg = bench.BenchConfig(num_maturities=2, strikes=(80, 100, 120))
    surface = bench.bs_surface(cfg)
    a = bench.linearized_grid(cfg)
    res = bound.robust_bound(surface, a, variant="extended")
    h = res.hedge
    J = h.num_lattice - 1
    assert tail_hedge_ratio(h, 1, 1) == pytest.approx(
        min(h.D1[J, 0], h.E1[J + 1, 0]))
    assert tail_hedge_ratio(h, 1, 2) == pytest.approx(
        min(h.D2[J, 0], h.E1[J + 1, 0] - h.V[J + 1, 0]))
    # the replay reads the same ratio from the top code of its tables
    for delta in (1, 2):
        assert certify._ratio_table(h, delta)[0, -1] == \
            tail_hedge_ratio(h, 1, delta)


def test_tail_calls_zero_hedge():
    states = np.array([0.0, 1.0, 2.0])
    zero = HedgeStrategy(states, np.array([1.0, 2.0]), np.zeros((3, 2)),
                         np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 1)),
                         np.zeros((3, 1)), growth_rate=0.0)
    assert np.allclose(certify.tail_calls(zero, 0.0), 0.0)


def test_replay_pays_the_stated_tail_calls():
    # bounded hedges carry their tail calls from creation; a hedge whose
    # stated calls are zeroed loses on paths that rally above x_J
    for name in ("sec26", "sec52"):
        inst = instances.get(name)
        hedge = bound.robust_bound(inst.surface, inst.payoff,
                                   variant="bounded").hedge
        assert np.array_equal(hedge.beta,
                              certify.tail_calls(hedge, hedge.growth_rate))
        assert hedge.beta.max() > 0, name
        bare = dataclasses.replace(hedge, beta=np.zeros_like(hedge.beta))
        for h, passed in ((hedge, True), (bare, False)):
            rep = certify.verify_superreplication(
                h, inst.payoff, "full-line-random", trials=10000, seed=3,
                s0=inst.surface.s0)
            # passing: no replayed path loses more than 1e-6
            assert (rep.min_slack >= -1e-6) == passed, (name, rep.min_slack)


def test_hand_built_hedge_gets_its_tail_calls(sec52_hedge):
    assert np.array_equal(sec52_hedge.beta,
                          certify.tail_calls(sec52_hedge,
                                             sec52_hedge.growth_rate))


def test_too_few_paths_rejected(sec26, sec26_result):
    for paths in (0, 1):
        with pytest.raises(certify.CertifyError, match="at least 2 paths"):
            certify.mc_price(sec26_result.model, sec26.payoff, paths, 7)
    for mode in ("interval-random", "full-line-random",
                 "continuous-exercise-random"):
        with pytest.raises(certify.CertifyError, match="at least 1 trial"):
            certify.verify_superreplication(sec26_result.hedge, sec26.payoff,
                                            mode, trials=0)
    rep = certify.verify_superreplication(sec26_result.hedge, sec26.payoff,
                                          "lattice-exhaustive", trials=0)
    assert not rep.skipped and rep.min_slack >= -1e-6


# ---------------------------------------------------------------------------
# the broadcast audits against the per-step loops they replaced


def _loop_grid_feasibility(hedge, a):
    """The grid audit's previous form, kept as the oracle: rows (i)-(iii)
    and the extended tail rows evaluated one step at a time."""
    x = hedge.states
    J = len(x) - 1
    N = len(hedge.maturities)
    E1, E2, V, D1, D2 = hedge.E1, hedge.E2, hedge.V, hedge.D1, hedge.D2
    lat = slice(0, J + 1)
    worst = float((V[lat, :] - a.values).min())
    if hedge.extended:
        worst = min(worst, float((V[J + 1, :] - a.tail_slopes).min()))
    dx = x[None, :] - x[:, None]
    for n in range(N - 1):
        r1 = (E1[lat, n, None] + E2[None, lat, n + 1] + dx * D1[lat, n, None])
        r2 = (E1[lat, n, None] + E2[None, lat, n + 1] + dx * D2[lat, n, None]
              - V[lat, n, None] + V[None, lat, n + 1])
        worst = min(worst, float(r1.min()), float(r2.min()))
        if hedge.extended:
            T = J + 1
            worst = min(
                worst,
                float(E1[T, n] - D1[T, n]),
                float((E2[T, n + 1] + D1[lat, n]).min()),
                float(E1[T, n] + E2[T, n + 1]),
                float(E1[T, n] - D2[T, n] - V[T, n]),
                float((E2[T, n + 1] + D2[lat, n] + V[T, n + 1]).min()),
                float(E1[T, n] + E2[T, n + 1] - V[T, n] + V[T, n + 1]),
            )
    return worst


def _loop_switch_prob(G1, marginals):
    """The switch probabilities' previous form, kept as the oracle: regime-1
    inflow carried forward one step at a time.  Returns (q, F)."""
    M, N = marginals.shape
    q = np.zeros((M, N))
    F = np.zeros((M, N))
    in1 = marginals[:, 0].copy()
    for n in range(N):
        out1 = G1[:, :, n].sum(axis=1) if n < N - 1 else np.zeros(M)
        F[:, n] = np.clip(in1 - out1, 0.0, None)
        live = in1 > 0
        q[live, n] = F[live, n] / in1[live]
        if n < N - 1:
            in1 = G1[:, :, n].sum(axis=0)
    return q, F


def _assert_audits_match_loops(hedge, a, model=None):
    assert certify.grid_feasibility(hedge, a) == _loop_grid_feasibility(hedge, a)
    if model is not None:
        q, F = certify._conservation_switch_prob(model.G1, model.marginals)
        ref_q, ref_F = _loop_switch_prob(model.G1, model.marginals)
        assert np.array_equal(q, ref_q) and np.array_equal(F, ref_F)
        assert np.array_equal(q, model.switch_prob)


def test_audits_match_loops_on_demos():
    for name in ("sec26", "sec52", "eg11"):
        inst = instances.get(name)
        for variant in ("bounded", "extended"):
            res = bound.robust_bound(inst.surface, inst.payoff, variant=variant)
            _assert_audits_match_loops(res.hedge, inst.payoff, res.model)


@pytest.mark.parametrize("J, N", [(8, 4), (19, 4), (12, 6), (5, 1)])
def test_audits_match_loops_on_black_scholes(J, N):
    # the headline; M >= 8 states, where a whole-array outflow sum would
    # change the last bits of q; and a single-maturity surface
    cfg = bench.BenchConfig(strikes=tuple(np.linspace(70, 140, J)),
                            num_maturities=N)
    a = bench.linearized_grid(cfg)
    res = bound.robust_bound(bench.bs_surface(cfg), a)
    _assert_audits_match_loops(res.hedge, a, res.model)


@given(K=st.integers(2, 8), N=st.integers(1, 5), extended=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_audits_match_loops_on_random_hedges(K, N, extended, seed):
    rng = np.random.default_rng(seed)
    rows = K + extended
    # small integers put exact ties and zeros into the residuals
    E1, E2, V = (rng.integers(-3, 4, (rows, N)).astype(float) for _ in range(3))
    D1, D2 = (rng.normal(size=(rows, N - 1)) for _ in range(2))
    states = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.0, K - 1))])
    a = AmericanPayoffGrid(rng.integers(0, 3, (K, N)).astype(float), states,
                           np.arange(1.0, N + 1.0), rng.uniform(0, 1, N))
    hedge = HedgeStrategy(states, a.maturities, E1, E2, V, D1, D2,
                          growth_rate=a.growth_rate)
    assert hedge.extended == extended
    G1 = np.where(rng.random((K, K, N - 1)) < 0.3, 0.0,
                  rng.exponential(size=(K, K, N - 1)) / K ** 2)
    marginals = rng.dirichlet(np.ones(K), size=N).T
    model = RegimeModel(states, a.maturities, 1.0, np.zeros((K, N)), G1, G1,
                        marginals, _loop_switch_prob(G1, marginals)[0])
    _assert_audits_match_loops(hedge, a, model)


# ---------------------------------------------------------------------------
# the Monte Carlo kernel against the gather kernel it replaced


def _gather_simulate(model, paths, seed):
    """The previous simulation kernel, kept as the bit-identity oracle: one
    (paths, 2N) draw, and per step a gather of each path's cumulative kernel
    row and a count of its entries below the draw."""
    K, N = model.num_states, model.num_maturities
    rng = np.random.default_rng(np.random.Philox(seed))
    u = rng.random((paths, 2 * N))
    cum1 = np.zeros((K, K, max(N - 1, 0)))
    cum2 = np.zeros((K, K, max(N - 1, 0)))
    for n in range(N - 1):
        for G, cum in ((model.G1, cum1), (model.G2, cum2)):
            rowsum = G[:, :, n].sum(axis=1, keepdims=True)
            ker = np.divide(G[:, :, n], rowsum, out=np.zeros_like(G[:, :, n]),
                            where=rowsum > 0)
            cum[:, :, n] = np.cumsum(ker, axis=1)
    init = np.cumsum(model.marginals[:, 0])
    s = np.searchsorted(init, u[:, 0], side="left").clip(0, K - 1)
    state_idx = np.zeros((paths, N), dtype=np.int64)
    exercised = np.zeros(paths, dtype=bool)
    ex_idx = np.zeros(paths, dtype=np.int64)
    for n in range(N):
        state_idx[:, n] = s
        switch = ~exercised & (u[:, 2 * n + 1] < model.switch_prob[s, n])
        ex_idx[switch] = n + 1
        exercised |= switch
        if n == N - 1:
            break
        cum = np.where(exercised[:, None], cum2[s, :, n], cum1[s, :, n])
        draw = u[:, 2 * n + 2]
        s = np.minimum((cum < draw[:, None]).sum(axis=1), K - 1)
    ex_idx[~exercised] = N
    return certify.PathBatch(model.states, state_idx, ex_idx)


def _gather_mc_price(model, a, paths, seed):
    batch = _gather_simulate(model, paths, seed)
    cols = batch.exercise_index - 1
    xs = batch.values[np.arange(len(batch)), cols]
    vals = np.empty(len(batch))
    for n in range(model.num_maturities):
        sel = cols == n
        if np.any(sel):
            vals[sel] = a.interp(xs[sel], n)
    return (float(vals.mean()),
            float(vals.std(ddof=1) / np.sqrt(len(batch))))


BLOCK = certify.SIMULATION_BLOCK
ORACLE_PATHS = (1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3)


def _assert_kernel_matches_gather(model, a, seed):
    for paths in ORACLE_PATHS:
        got = certify.simulate(model, paths, seed)
        ref = _gather_simulate(model, paths, seed)
        # the kernel stores states and exercise dates in one byte each up to
        # 128 states and 127 maturities; the oracle's are int64
        if model.num_states <= 128:
            assert got.state_idx.dtype == got.exercise_index.dtype == np.int8
        for name in ("values", "state_idx", "exercise_index"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), \
                (paths, name)
        if paths > 1:       # one path has no sample variance
            assert certify.mc_price(model, a, paths, seed) == \
                _gather_mc_price(model, a, paths, seed), paths


def _chain(states, G1, G2, first, switch_prob):
    """A simulable chain; only the fields that simulate reads are filled."""
    K, N = switch_prob.shape
    return RegimeModel(np.asarray(states, dtype=float),
                       np.arange(1.0, N + 1.0), 1.0, np.zeros((K, N)), G1, G2,
                       np.tile(np.asarray(first)[:, None], (1, N)), switch_prob)


def _grid_for(model, rng):
    return AmericanPayoffGrid(rng.uniform(0.0, 10.0, model.switch_prob.shape),
                              model.states, model.maturities)


@pytest.fixture(scope="module")
def headline_bound():
    cfg = bench.BenchConfig()
    a = bench.linearized_grid(cfg)
    return bound.robust_bound(bench.bs_surface(cfg), a, variant="extended"), a


@pytest.fixture(scope="module")
def headline_model(headline_bound):
    res, a = headline_bound
    return res.model, a


@pytest.mark.parametrize("name", ["sec26", "sec52", "eg11"])
def test_kernel_matches_gather_on_demo_models(name):
    inst = instances.get(name)
    model = bound.robust_bound(inst.surface, inst.payoff).model
    _assert_kernel_matches_gather(model, inst.payoff, seed=41)


def test_kernel_matches_gather_on_seed_model():
    inst = instances.get("eg11")
    model = bound.seed_model(inst.surface)
    _assert_kernel_matches_gather(model, inst.payoff, seed=42)


def test_kernel_matches_gather_on_headline(headline_model):
    _assert_kernel_matches_gather(*headline_model, seed=43)


def test_kernel_matches_gather_with_zero_mass_row():
    # state 1 has no regime-1 outflow, and state 2 none in regime 2 at the
    # first step: those kernel rows are all zeros, and every draw moves to
    # the top state.  At the second step state 3's regime-1 row holds a
    # negative mass, which no LP model has: its cumulative row dips from
    # 0.9 to 0.5, so bisection is wrong there and every draw is counted.
    G1 = np.zeros((4, 4, 2))
    G2 = np.zeros((4, 4, 2))
    G1[0, :, :] = 0.1
    G1[2:, 1:3, :] = 0.2
    G1[3, :, 1] = [0.0, 0.18, -0.08, 0.1]
    G2[[0, 1, 3], 0, :] = 0.3
    G2[:, 3, 1] = 0.05
    q = np.array([[0.3, 0.5, 1.0]] * 4)
    model = _chain([0.0, 1.0, 2.0, 3.0], G1, G2, [0.2, 0.3, 0.1, 0.4], q)
    _assert_kernel_matches_gather(model, _grid_for(model, np.random.default_rng(1)),
                                  seed=44)


def test_kernel_matches_gather_on_bucket_edges():
    # weights 1:1:2 put cumulative entries exactly on the bucket edges 0.25
    # and 0.5; the paths drawn in the buckets next to them must still match
    w = np.array([[1.0, 1.0, 2.0, 0.0], [0.0, 1.0, 1.0, 2.0],
                  [2.0, 0.0, 1.0, 1.0], [1.0, 2.0, 0.0, 1.0]]) / 8.0
    G1 = np.repeat(w[:, :, None], 2, axis=2)
    G2 = np.repeat(w[::-1, :, None], 2, axis=2)
    q = np.array([[0.25, 0.5, 1.0]] * 4)
    model = _chain([0.0, 1.0, 2.0, 3.0], G1, G2, [0.25, 0.25, 0.25, 0.25], q)
    cum, lut = certify._step_tables(model)
    assert np.isin([0.25, 0.5], cum[0]).all()
    _assert_kernel_matches_gather(model, _grid_for(model, np.random.default_rng(2)),
                                  seed=45)


@given(K=st.integers(2, 8), N=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.floats(0.0, 0.8), dyadic=st.booleans())
def test_kernel_matches_gather_on_random_chains(K, N, seed, zeros, dyadic):
    rng = np.random.default_rng(seed)
    shape = (K, K, N - 1)
    # sixteenths of small integers land cumulative sums on bucket edges
    G = (rng.integers(0, 5, (2,) + shape) / 16.0 if dyadic
         else rng.exponential(size=(2,) + shape))
    G = np.where(rng.random(G.shape) < zeros, 0.0, G)
    q = rng.random((K, N))
    q[:, -1] = 1.0
    model = _chain(np.arange(K, dtype=float), G[0], G[1],
                   rng.dirichlet(np.ones(K)), q)
    _assert_kernel_matches_gather(model, _grid_for(model, rng), seed=seed)


def test_kernel_matches_gather_past_one_byte_states():
    # 130 states need two bytes per stored state
    rng = np.random.default_rng(46)
    K = 130
    G = rng.exponential(size=(2, K, K, 1))
    q = rng.random((K, 2))
    q[:, -1] = 1.0
    model = _chain(np.arange(K, dtype=float), G[0], G[1],
                   rng.dirichlet(np.ones(K)), q)
    assert certify.simulate(model, 10, 46).state_idx.dtype == np.int16
    _assert_kernel_matches_gather(model, _grid_for(model, rng), seed=46)


# ---------------------------------------------------------------------------
# blocks of paths on several threads

MODES = ("lattice-exhaustive", "interval-random", "full-line-random",
         "continuous-exercise-random")


def _by_workers(monkeypatch, run):
    """run()'s result with all paths in one block on one thread, and with
    SIMULATION_BLOCK-path blocks on 1, 2 and 3 threads."""
    out = []
    for block, cpus in ((2 ** 40, 1), (BLOCK, 1), (BLOCK, 2), (BLOCK, 3)):
        monkeypatch.setattr(certify, "SIMULATION_BLOCK", block)
        monkeypatch.setattr(certify, "_cpu_count", lambda cpus=cpus: cpus)
        out.append(run())
    return out


def test_blocks_start_on_a_philox_counter():
    # each counter gives four 64-bit words, one per uniform, and a path
    # draws 2N of them: a block of SIMULATION_BLOCK paths ends on a counter
    assert BLOCK * 2 % 4 == 0


@pytest.mark.parametrize("paths", [2, BLOCK - 1, BLOCK, BLOCK + 1,
                                   3 * BLOCK + 17])
def test_simulation_bits_do_not_depend_on_blocks_or_threads(
        headline_model, monkeypatch, paths):
    model, a = headline_model

    def run():
        batch = certify.simulate(model, paths, 48)
        est, se = certify.mc_price(model, a, paths, 48)
        return (batch.state_idx.tobytes(), batch.exercise_index.tobytes(),
                est.hex(), se.hex())

    first, *rest = _by_workers(monkeypatch, run)
    assert all(r == first for r in rest)


@pytest.fixture(scope="module")
def replay_bounds(sec26):
    """A zero-tail bound (tail calls paid) and an extended one on 13 states
    and 4 maturities, whose 13**4 lattice paths fill two blocks; each with
    the payoff function the continuous replay reads, and s0."""
    cfg = bench.BenchConfig(strikes=tuple(range(70, 181, 10)))
    a = bench.linearized_grid(cfg)
    assert 13 ** 4 > BLOCK
    return [(bound.robust_bound(sec26.surface, sec26.payoff), sec26.payoff,
             None, None),
            (bound.robust_bound(bench.bs_surface(cfg), a), a,
             bench.put_payoff(cfg), cfg.s0)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("trials", [1, BLOCK + 1, 10 ** 5])
def test_replay_bits_do_not_depend_on_blocks_or_threads(
        replay_bounds, monkeypatch, mode, trials):
    for res, a, fn, s0 in replay_bounds:
        hedge = res.hedge
        Y = certify._full_line_paths(np.random.default_rng(np.random.Philox(3)),
                                     trials, len(hedge.maturities),
                                     hedge.states[-1], s0 or 50.0)

        def run():
            rep = certify.verify_superreplication(
                hedge, a, mode, trials=trials, seed=49, payoff_fn=fn, s0=s0)
            if mode == "continuous-exercise-random":
                rng = np.random.default_rng(np.random.Philox(4))
                rows = certify._continuous_slack(hedge, a, Y, rng, fn, s0)
            else:
                rows = certify._slack_over_exercise(hedge, a, Y)
            return (float(rep.min_slack).hex(), rep.trials,
                    rep.worst_path.tobytes(), int(rep.worst_exercise),
                    *(r.tobytes() for r in rows))

        first, *rest = _by_workers(monkeypatch, run)
        assert all(r == first for r in rest)


def test_helper_error_is_raised_in_the_caller(monkeypatch):
    monkeypatch.setattr(certify, "_cpu_count", lambda: 2)
    caller = threading.current_thread()
    helper_done = threading.Event()

    def work(lo, hi):
        # the caller holds its block until the helper has run the other
        if threading.current_thread() is caller:
            assert helper_done.wait(10)
            return
        try:
            raise certify.CertifyError("from a helper")
        finally:
            helper_done.set()

    before = threading.active_count()
    with pytest.raises(certify.CertifyError, match="from a helper"):
        certify._in_blocks(work, 2 * BLOCK)
    assert threading.active_count() == before


def test_every_block_runs_once_on_more_threads_than_cpus(monkeypatch):
    monkeypatch.setattr(certify, "_cpu_count", lambda: 8)
    rows = 40 * BLOCK + 3
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        certify._in_blocks(lambda lo, hi: seen.append((lo, hi)), rows)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == [(lo, min(lo + BLOCK, rows))
                            for lo in range(0, rows, BLOCK)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_negative_price_in_the_last_block_fails_the_replay(
        sec26, sec26_result, monkeypatch, cpus):
    monkeypatch.setattr(certify, "_cpu_count", lambda: cpus)
    hedge = sec26_result.hedge
    Y = np.full((3 * BLOCK + 17, len(hedge.maturities)), 50.0)
    Y[-1, -1] = -1.0
    before = threading.active_count()
    with pytest.raises(certify.CertifyError,
                       match="hedge replay at a negative price"):
        certify._slack_over_exercise(hedge, sec26.payoff, Y)
    with pytest.raises(certify.CertifyError,
                       match="hedge replay at a negative price"):
        certify._continuous_slack(hedge, sec26.payoff, Y,
                                  np.random.default_rng(5), None, None)
    assert threading.active_count() == before


def test_no_thread_outlives_a_call(headline_bound, monkeypatch):
    monkeypatch.setattr(certify, "_cpu_count", lambda: 3)
    res, a = headline_bound
    paths = 3 * BLOCK + 17
    before = threading.active_count()
    certify.mc_price(res.model, a, paths, 50)
    assert threading.active_count() == before
    for mode in MODES:
        certify.verify_superreplication(res.hedge, a, mode, trials=paths,
                                        seed=50, s0=100.0)
        assert threading.active_count() == before, mode


def _traced_peak(fn, *args, **kwargs):
    """Peak of the memory that fn allocates, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_payoff_on_other_maturities_refused(headline_model):
    # two columns ran out before the model's four maturities (an IndexError);
    # five were priced on their first four, which gave phi
    model, a = headline_model
    cut = AmericanPayoffGrid(a.values[:, :2], a.states, a.maturities[:2],
                             a.tail_slopes[:2])
    longer = AmericanPayoffGrid(np.hstack([a.values, a.values[:, -1:]]),
                                a.states, np.append(a.maturities, 1.25),
                                np.append(a.tail_slopes, a.tail_slopes[-1]))
    for other in (cut, longer):
        with pytest.raises(certify.CertifyError, match="different maturities"):
            certify.model_value(model, other)
        with pytest.raises(certify.CertifyError, match="different maturities"):
            certify.mc_price(model, other, 1000, 7)


def test_mc_price_memory_does_not_grow_with_paths_times_states(headline_model):
    model, a = headline_model
    peak = _traced_peak(certify.mc_price, model, a, 10 ** 6, 7)
    assert peak < 32 * 10 ** 6, peak / 10 ** 6      # MB


@pytest.mark.parametrize("mode", ["full-line-random",
                                  "continuous-exercise-random"])
def test_path_replay_memory_stays_small(headline_bound, mode):
    res, a = headline_bound
    peak = _traced_peak(certify.verify_superreplication, res.hedge, a, mode,
                        trials=10 ** 5, seed=7, s0=100.0)
    assert peak < 40 * 10 ** 6, peak / 10 ** 6      # MB


def _state_bytes(rng):
    """A generator's state with its arrays as bytes, for an exact compare."""
    def flat(v):
        if isinstance(v, dict):
            return {k: flat(x) for k, x in v.items()}
        return v.tobytes() if isinstance(v, np.ndarray) else v
    return flat(rng.bit_generator.state)


@given(trials=st.sampled_from([1, 7, 10 ** 4]), N=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1),
       xJ=st.sampled_from([1.0, 140.0, 3e5]), s0=st.floats(0.5, 200.0))
def test_full_line_paths_match_cumsum_oracle(trials, N, seed, xJ, s0):
    rngs = [np.random.default_rng(np.random.Philox(seed)) for _ in range(2)]
    got = certify._full_line_paths(rngs[0], trials, N, xJ, s0)
    want = full_line_paths(rngs[1], trials, N, xJ, s0)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert _state_bytes(rngs[0]) == _state_bytes(rngs[1])


@pytest.mark.parametrize("block", ["E1", "E2", "V", "D1", "D2", "beta"])
def test_non_finite_hedge_block_rejected(sec52, block):
    # a NaN block would slip past the grid audit's min and make every
    # replayed slack NaN, which no "slack < -tol" test fails
    hedge = bound.robust_bound(sec52.surface, sec52.payoff).hedge
    blocks = {name: getattr(hedge, name).copy()
              for name in ("E1", "E2", "V", "D1", "D2", "beta")}
    blocks[block].flat[0] = np.nan
    with pytest.raises(certify.CertifyError, match="non-finite"):
        HedgeStrategy(hedge.states, hedge.maturities,
                      growth_rate=hedge.growth_rate, **blocks)


_BLOCKS = ("E1", "E2", "V", "D1", "D2")


def _headline_blocks(headline_bound):
    hedge = headline_bound[0].hedge
    return hedge, {name: getattr(hedge, name) for name in _BLOCKS}


def test_block_rows_alone_give_the_variant(headline_bound):
    # the headline hedge carries the tail row; its lattice rows alone are a
    # zero-tail hedge, which gets its tail calls on creation
    hedge, blocks = _headline_blocks(headline_bound)
    assert hedge.extended and headline_bound[0].variant == "extended"
    again = HedgeStrategy(hedge.states, hedge.maturities,
                          growth_rate=hedge.growth_rate, **blocks)
    assert again.extended and again.beta is None
    bounded = HedgeStrategy(hedge.states, hedge.maturities,
                            growth_rate=hedge.growth_rate,
                            **{name: b[:-1] for name, b in blocks.items()})
    assert not bounded.extended
    assert bounded.beta.shape == (len(hedge.maturities),)
    assert _same_bits(bounded.beta,
                      certify.tail_calls(bounded, hedge.growth_rate))


def _extra_column(b):
    return np.hstack([b, b[:, -1:]])


@pytest.mark.parametrize("block, edit", [
    pytest.param("V", lambda b: b[:, :-1], id="V-too-few-columns"),
    pytest.param("E2", _extra_column, id="E2-too-many-columns"),
    pytest.param("D1", _extra_column, id="D1-one-column-per-maturity"),
    pytest.param("D1", lambda b: b[:-1], id="D1-no-tail-row"),
    pytest.param("D2", lambda b: b[:-1], id="D2-no-tail-row"),
    pytest.param("E1", lambda b: np.vstack([b, b[-1:]]), id="E1-J+3-rows"),
    pytest.param("E1", lambda b: b[:-2], id="E1-J-rows"),
    pytest.param("E2", np.ravel, id="E2-vector"),
    pytest.param("beta", None, id="beta-one-call-short"),
])
def test_misshapen_hedge_block_rejected(headline_bound, block, edit):
    # a block of the wrong shape would fail later as an IndexError, or be
    # read wrongly: it is refused on construction, by name
    hedge, blocks = _headline_blocks(headline_bound)
    if block == "beta":       # the lattice rows alone: a zero-tail hedge
        blocks = {name: b[:-1] for name, b in blocks.items()}
        blocks["beta"] = np.zeros(len(hedge.maturities) - 1)
    else:
        blocks[block] = edit(blocks[block])
    with pytest.raises(certify.CertifyError, match="hedge block %s " % block):
        HedgeStrategy(hedge.states, hedge.maturities,
                      growth_rate=hedge.growth_rate, **blocks)


@pytest.mark.parametrize("case", ["extended-hedge-lattice-masses",
                                  "bounded-hedge-tail-row",
                                  "one-maturity-short"])
def test_cost_refuses_a_mass_matrix_of_another_shape(headline_bound, case):
    # pricing a hedge on the other variant's masses raised numpy's matmul
    # error; it names both shapes and the hedge's variant instead
    hedge, blocks = _headline_blocks(headline_bound)
    surface = bench.bs_surface(bench.BenchConfig())
    tail = market.extended_marginals(surface)
    p = {"extended-hedge-lattice-masses": market.implied_marginals(surface),
         "bounded-hedge-tail-row": tail,
         "one-maturity-short": tail[:, :-1]}[case]
    variant = "extended"
    if case == "bounded-hedge-tail-row":
        hedge = HedgeStrategy(hedge.states, hedge.maturities,
                              growth_rate=hedge.growth_rate,
                              **{name: b[:-1] for name, b in blocks.items()})
        variant = "bounded"
    with pytest.raises(certify.CertifyError,
                       match=r"shape \(%d, %d\), the %s hedge needs \(%d, %d\)"
                       % (*p.shape, variant, *hedge.V.shape)):
        hedge.cost(p)


# ---------------------------------------------------------------------------
# one full-line draw shared by the two full-line replays of a seed

PAIR = ("full-line-random", "continuous-exercise-random")


def _report_bits(rep):
    return (rep.mode, rep.trials, float(rep.min_slack).hex(),
            float(rep.grid_slack).hex(), rep.worst_path.tobytes(),
            np.asarray(rep.worst_exercise).tobytes())


def _replay(headline_bound, mode, seed, trials=3000):
    res, a = headline_bound
    cfg = bench.BenchConfig()
    return certify.verify_superreplication(
        res.hedge, a, mode, trials=trials, seed=seed,
        payoff_fn=bench.put_payoff(cfg), s0=cfg.s0)


@pytest.fixture
def draws(monkeypatch):
    """An empty slot, and the number of full-line draws made since."""
    monkeypatch.setattr(certify, "_full_line_slot", None)
    count = [0]
    draw = certify._full_line_paths

    def counted(*args):
        count[0] += 1
        return draw(*args)

    monkeypatch.setattr(certify, "_full_line_paths", counted)
    return count


@pytest.mark.parametrize("order", [PAIR, PAIR[::-1]], ids=["line-first",
                                                          "continuous-first"])
def test_a_pair_on_one_seed_draws_once_and_empties_the_slot(
        headline_bound, draws, order):
    shared = [_report_bits(_replay(headline_bound, mode, 81))
              for mode in order]
    assert draws[0] == 1
    assert certify._full_line_slot is None
    # another seed in between takes the slot: the second replay draws again
    first = _report_bits(_replay(headline_bound, order[0], 81))
    _replay(headline_bound, order[0], 82)
    second = _report_bits(_replay(headline_bound, order[1], 81))
    assert draws[0] == 4
    assert [first, second] == shared


@pytest.mark.parametrize("field", ["trials", "N", "xJ", "s0"])
def test_other_paths_miss_the_slot(draws, field):
    key = {"trials": 50, "N": 4, "xJ": 140.0, "s0": 100.0}
    other = dict(key, **{field: {"trials": 51, "N": 3, "xJ": 150.0,
                                 "s0": 100.5}[field]})

    def fresh():
        return np.random.default_rng(np.random.Philox(83))

    certify._shared_full_line_paths(fresh(), 83, **key)
    rng = fresh()
    got = certify._shared_full_line_paths(rng, 83, **other)
    assert draws[0] == 2
    want_rng = fresh()
    want = certify._full_line_paths(want_rng, *other.values())
    assert got.tobytes() == want.tobytes()
    assert _state_bytes(rng) == _state_bytes(want_rng)


def test_seed_none_draws_fresh_paths_every_time(headline_bound, draws):
    reps = [_replay(headline_bound, mode, None) for mode in PAIR]
    assert draws[0] == 2
    assert certify._full_line_slot is None
    assert reps[0].worst_path.tobytes() != reps[1].worst_path.tobytes()


def test_shared_paths_are_read_only(draws):
    for _ in range(2):          # the draw, then the one that takes it
        rng = np.random.default_rng(np.random.Philox(84))
        Y = certify._shared_full_line_paths(rng, 84, 20, 3, 140.0, 100.0)
        with pytest.raises(ValueError, match="read-only"):
            Y[0, 0] = 0.0
    assert draws[0] == 1


def test_threads_on_different_seeds_get_the_serial_results(headline_bound,
                                                           draws):
    seeds = (85, 86)
    serial = {seed: [_report_bits(_replay(headline_bound, mode, seed))
                     for mode in PAIR] for seed in seeds}
    barrier = threading.Barrier(len(seeds))
    got = {seed: [] for seed in seeds}

    def run(seed):
        for _ in range(4):
            for mode in PAIR:
                barrier.wait(10)
                got[seed].append(_report_bits(_replay(headline_bound, mode,
                                                      seed)))

    threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(got[seed] == 4 * serial[seed] for seed in seeds)


@pytest.mark.parametrize("s0", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("mode", PAIR)
def test_replay_refuses_a_start_price_that_is_not_finite(sec26, sec26_result,
                                                         mode, s0):
    # nan gave min_slack nan; inf parked the full-line paths at the 50 * x_J
    # cap, and the report looked normal
    with pytest.raises(certify.CertifyError, match="finite start"):
        certify.verify_superreplication(sec26_result.hedge, sec26.payoff,
                                        mode, trials=100, seed=1, s0=s0)


def test_far_state_keeps_a_near_flat_top_marginal_nonnegative():
    # c(100) - c(150) = 2e-10 against c(150) = 10: the top state holds
    # 4e-12 of mass and the tail row 10, so the far state must lie past
    # x_J + 10 / 4e-12, beyond the 1e9 * x_J that serves every other surface
    surface = market.CallSurface(
        100.0, np.array([50.0, 100.0, 150.0]), np.array([0.5, 1.0]),
        np.array([[100.0, 100.0], [52.0, 53.0], [10.0 + 2e-10] * 2,
                  [10.0, 10.0]]))
    grid, fn = cli.payoff_from_config({"type": "put", "K": 100, "r": 0.05},
                                      surface)
    res = bound.robust_bound(surface, grid)
    p_hat = market.extended_marginals(surface)
    xi = res.model.states[-1]
    assert xi > 1e9 * 150.0
    folded = p_hat[3] - p_hat[4] / (xi - 150.0)
    assert (folded > 0).all()
    np.testing.assert_allclose(res.model.marginals[3], folded, rtol=1e-9)
    assert certify.model_value(res.model, grid) == pytest.approx(res.phi,
                                                                 rel=1e-12)
    scale = certify.hedge_scale(res.hedge)
    for mode in ("lattice-exhaustive",) + PAIR:
        rep = certify.verify_superreplication(res.hedge, grid, mode,
                                              trials=20000, seed=1,
                                              payoff_fn=fn, s0=surface.s0)
        assert rep.min_slack >= -1e-9 * scale, mode
