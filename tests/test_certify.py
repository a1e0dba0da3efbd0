import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amerbound import bench, bound, certify, instances, market
from amerbound.certify import HedgeStrategy, PricePath, RegimeModel
from amerbound.payoff import AmericanPayoffGrid


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
    m = market.implied_marginals(instances.get("sec26").surface)
    assert np.all(np.abs(model.marginals - m.probs) <= 1e-8)
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
    m = market.implied_marginals(sec26.surface)
    x = np.asarray(m.states)
    P = len(batch)
    for n in range(len(m.maturities)):
        col = batch.values[:, n]
        for j, s in enumerate(x):
            freq = np.mean(np.isclose(col, s))
            assert freq == pytest.approx(m.probs[j, n], abs=0.01)
    # one-step conditional means match the current price (martingale)
    for n in range(len(m.maturities) - 1):
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
    m = market.MarginalSystem(probs, np.array([1.0, 2.0]),
                              np.array([1.0, 2.0]), s0=np.array([0.0, 1.0, 2.0]) @ probs[:, 0])
    model = certify.seed_model(m)
    batch = certify.simulate(model, 5000, seed=2)
    assert np.array_equal(batch.values[:, 0], batch.values[:, 1])


def test_price_path_validation():
    with pytest.raises(certify.CertifyError):
        PricePath(np.array([1.0, 2.0]))
    with pytest.raises(certify.CertifyError):
        PricePath(np.array([1.0, 2.0]), exercise_index=1, exercise_time=0.5)


def test_mixed_interp_three_cases():
    xs = np.array([0.0, 1.0, 2.0])
    h = np.array([0.0, 1.0, 1.0])     # secant slopes: 1 then 0
    d = np.array([0.5, 2.0, -1.0])
    # knots return the knot ratio
    assert certify.mixed_interp(xs, d, h, 1.0) == pytest.approx(2.0)
    # d_j below the secant: keep d_j
    assert certify.mixed_interp(xs, d, h, 0.5) == pytest.approx(0.5)
    # d_j above, d_{j+1} below the secant: fall back to the secant itself
    assert certify.mixed_interp(xs, d, h, 1.5) == pytest.approx(0.0)
    # d_j above, d_{j+1} above: take d_{j+1}
    d2 = np.array([2.0, 2.0, 0.5])
    assert certify.mixed_interp(xs, d2, h, 1.5) == pytest.approx(0.5)


def test_mixed_interp_infimum_matches_sampling():
    rng = np.random.default_rng(77)
    xs = np.sort(np.concatenate([[0.0], rng.uniform(0.5, 10, 4)]))
    d = rng.normal(size=5)
    h = rng.normal(size=5)
    inf_exact = certify._mixed_inf(xs, d, h)
    samples = certify.mixed_interp(xs, d, h, rng.uniform(0, xs[-1], 4000))
    assert samples.min() >= inf_exact - 1e-12
    # the infimum is attained at a knot or in the interior of some interval
    mids = 0.5 * (xs[:-1] + xs[1:])
    probes = certify.mixed_interp(xs, d, h, np.concatenate([xs, mids]))
    assert probes.min() == pytest.approx(inf_exact, abs=1e-12)


def test_gains_zero_hedge_is_zero(sec52):
    J1 = len(sec52.surface.states)
    zero = HedgeStrategy(sec52.surface.states, sec52.surface.maturities,
                         np.zeros((J1, 2)), np.zeros((J1, 2)),
                         np.zeros((J1, 2)), np.zeros((J1, 1)),
                         np.zeros((J1, 1)), growth_rate=0.0,
                         beta=np.zeros(2))
    path = PricePath(np.array([1.0, 4.0]), exercise_index=1)
    assert certify.gains(zero, path, sec52.payoff, s0=2.0) == pytest.approx(0.0)


def test_gains_cover_early_exercise(sec52, sec52_hedge):
    hedge = sec52_hedge
    hedge.beta = np.zeros(2)
    # exercise immediately at the low state: claim pays 1, hedge must cover
    path = PricePath(np.array([1.0, 0.0]), exercise_index=1)
    g = certify.gains(hedge, path, sec52.payoff, s0=2.0)
    assert g >= 1.0 - 1e-12
    # ride to the top state and exercise late: claim pays 8
    path = PricePath(np.array([3.0, 4.0]), exercise_index=2)
    g = certify.gains(hedge, path, sec52.payoff, s0=2.0)
    assert g >= 8.0 - 1e-12


def test_paper_hedge_cost_is_optimal(sec52, sec52_hedge):
    m = market.implied_marginals(sec52.surface)
    assert sec52_hedge.cost(m.probs) == pytest.approx(3.6, abs=1e-12)
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


def test_lattice_enumeration_cap(sec26, sec26_result):
    rep = certify.verify_superreplication(sec26_result.hedge, sec26.payoff,
                                          "lattice-exhaustive",
                                          enumeration_cap=10)
    assert rep.skipped


def test_realized_weak_duality(sec26, sec26_result):
    # pathwise gains dominate the realized payoff on simulated optimal paths
    batch = certify.simulate(sec26_result.model, 500, seed=21)
    a = sec26.payoff
    for path in batch.as_paths():
        g = certify.gains(sec26_result.hedge, path, a, s0=sec26.surface.s0)
        paid = a.values[np.searchsorted(a.states,
                                        path.values[path.exercise_index - 1]),
                        path.exercise_index - 1]
        assert g >= paid - 1e-9


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
                                extended=hedge.extended,
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
    assert certify.tail_hedge_ratio(h, 1, 1) == pytest.approx(
        min(h.D1[J, 0], h.E1[J + 1, 0]))
    assert certify.tail_hedge_ratio(h, 1, 2) == pytest.approx(
        min(h.D2[J, 0], h.E1[J + 1, 0] - h.V[J + 1, 0]))


def test_tail_calls_zero_hedge():
    states = np.array([0.0, 1.0, 2.0])
    zero = HedgeStrategy(states, np.array([1.0, 2.0]), np.zeros((3, 2)),
                         np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 1)),
                         np.zeros((3, 1)), growth_rate=0.0)
    assert np.allclose(certify.tail_calls(zero, 0.0), 0.0)


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
            ker = np.divide(G[:, :, n], np.maximum(rowsum, certify.MASS_TOL),
                            out=np.zeros_like(G[:, :, n]),
                            where=rowsum > certify.MASS_TOL)
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
    return certify.PathBatch(model.states[state_idx], state_idx, ex_idx)


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
def headline_model():
    cfg = bench.BenchConfig()
    a = bench.linearized_grid(cfg)
    res = bound.robust_bound(bench.bs_surface(cfg), a, variant="extended")
    return res.model, a


@pytest.mark.parametrize("name", ["sec26", "sec52", "eg11"])
def test_kernel_matches_gather_on_demo_models(name):
    inst = instances.get(name)
    model = bound.robust_bound(inst.surface, inst.payoff).model
    _assert_kernel_matches_gather(model, inst.payoff, seed=41)


def test_kernel_matches_gather_on_seed_model():
    inst = instances.get("eg11")
    model = certify.seed_model(market.implied_marginals(inst.surface))
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


@settings(max_examples=30, deadline=None, derandomize=True)
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


def test_mc_price_memory_does_not_grow_with_paths_times_states(headline_model):
    model, a = headline_model
    tracemalloc.start()
    try:
        certify.mc_price(model, a, 10 ** 6, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * 10 ** 6, peak / 10 ** 6     # MB
