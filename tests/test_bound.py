import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amerbound import bench, bound, certify, instances, lpcore, market, payoff
from amerbound.payoff import (AmericanPayoffGrid, PayoffFunction,
                              exercise_time_transform)

from lp_helpers import check_point, csr, dual_of


@pytest.fixture(scope="module")
def sec26():
    return instances.get("sec26")


@pytest.fixture(scope="module")
def sec26_result(sec26):
    return bound.robust_bound(sec26.surface, sec26.payoff)


def test_sec26_value(sec26, sec26_result):
    res = sec26_result
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
    m = market.extended_marginals(sec26.surface)
    lp, _ = bound.build_primal_extended(m, sec26.payoff)
    mech = lpcore.solve(dual_of(lp))
    assert mech.status == "optimal"
    assert mech.objective == pytest.approx(35.625, abs=1e-7)
    # the hedge read off the primal's row multipliers is a feasible point of
    # the hand-built dual, at cost phi
    cfg = bench.BenchConfig()
    cases = [instances.get(name) for name in ("sec26", "sec52", "eg11")]
    cases.append(instances.DemoInstance("headline", bench.bs_surface(cfg),
                                        bench.linearized_grid(cfg), None))
    for inst in cases:
        res = bound.robust_bound(inst.surface, inst.payoff)
        m = market.extended_marginals(inst.surface)
        lp_d = bound.build_dual_extended(m, inst.payoff)
        rep = check_point(lp_d, _pack_dual(res.hedge), tol=1e-9)
        assert rep.feasible, (inst.name, rep.max_violation)
        assert rep.objective == pytest.approx(res.phi, abs=1e-9)


# ---------------------------------------------------------------------------
# the block-offset primal builder against the name-dict builder it replaced


def _reference_build_primal(states, p_hat, a_vals, tail_rates, extended):
    """The previous primal builder, kept as the oracle of the block layout:
    one name tuple per column, every term looked up by name, rows appended
    one at a time.  Returns the LP and each row's scale.  With extended
    False it builds the bounded LP on the lattice masses alone, which has
    no tail row."""
    x = np.asarray(states, dtype=float)
    M, N = p_hat.shape
    J = len(x) - 1
    tail = M - 1 if extended else None
    names = [("f", j, n) for n in range(1, N + 1) for j in range(M)]
    names += [("g", d, j, k, n) for d in (1, 2) for n in range(1, N)
              for j in range(M) for k in range(M)]
    index = {name: i for i, name in enumerate(names)}

    def c(*name):
        return index[name]

    def succ(j):
        return range(M) if j == tail else range(J + 1)

    objective = np.zeros(len(names))
    for n in range(1, N + 1):
        for j in range(J + 1):
            objective[c("f", j, n)] = a_vals[j, n - 1]
        if extended:
            objective[c("f", tail, n)] = tail_rates[n - 1]

    rows, scales = [], []

    def add(terms, relation, rhs):
        scale = max(abs(v) for _, v in terms)
        rows.append(lpcore.Row([(i, v / scale) for i, v in terms], relation,
                               rhs / scale))
        scales.append(scale)

    for n in range(1, N):                      # (a)
        for j in range(M):
            add([(c("g", d, j, k, n), 1.0) for d in (1, 2) for k in succ(j)],
                "=", p_hat[j, n - 1])
    for n in range(2, N + 1):                  # (b)
        for j in range(M):
            add([(c("g", d, i, j, n - 1), 1.0) for d in (1, 2) for i in succ(j)],
                "=", p_hat[j, n - 1])
    for delta in (1, 2):                       # (c)/(d)
        for n in range(1, N):
            for j in range(J + 1):
                terms = [(c("g", delta, j, k, n), x[k] - x[j])
                         for k in range(J + 1) if k != j]
                if extended:
                    terms.append((c("g", delta, j, tail, n), 1.0))
                add(terms, "=", 0.0)
            if extended:
                add([(c("g", delta, tail, k, n), 1.0) for k in range(J + 1)],
                    "=", 0.0)
    for n in range(1, N + 1):                  # (e)
        for j in range(M):
            terms = [(c("f", j, n), 1.0)]
            if n <= N - 1:
                terms += [(c("g", 2, j, k, n), -1.0) for k in succ(j)]
            if n >= 2:
                terms += [(c("g", 2, i, j, n - 1), 1.0) for i in succ(j)]
            add(terms, "<=", p_hat[j, N - 1] if n == N else 0.0)
    lp = lpcore.LinearProgram.from_rows("max", len(names), objective, rows)
    return lp, np.array(scales)


def _assert_builds_like_reference(p_hat, a):
    lp, idx = bound._build_primal(p_hat, a)
    ref, ref_scale = _reference_build_primal(a.states, p_hat, a.values,
                                             a.tail_slopes, True)
    assert csr(lp).shape == csr(ref).shape
    assert (csr(lp) != csr(ref)).nnz == 0
    # each row's terms in the same order, as well as the same matrix
    assert [r.terms for r in lp.rows] == [r.terms for r in ref.rows]
    assert np.array_equal(lp.rhs, ref.rhs)
    assert np.array_equal(lp.relations, ref.relations)
    assert np.array_equal(lp.objective, ref.objective)
    assert np.array_equal(lp.free, ref.free)
    assert np.array_equal(idx.row_scale, ref_scale)


def _single_maturity(inst, n):
    s, a = inst.surface, inst.payoff
    cols = slice(n, n + 1)
    return (market.CallSurface(s.s0, s.strikes, s.maturities[cols],
                               s.prices[:, cols]),
            AmericanPayoffGrid(a.values[:, cols], a.states, a.maturities[cols],
                               a.tail_slopes[cols]))


def test_block_layout_matches_name_dict_builder():
    cfg = bench.BenchConfig()
    cases = [(instances.get(name).surface, instances.get(name).payoff)
             for name in ("sec26", "sec52", "eg11")]
    cases.append((bench.bs_surface(cfg), bench.linearized_grid(cfg)))
    cases.append(_single_maturity(instances.get("sec26"), 0))
    for surface, a in cases:
        _assert_builds_like_reference(market.extended_marginals(surface), a)
    # the size of ROADMAP item 3's budget case, built but not solved
    big = bench.BenchConfig(strikes=tuple(np.linspace(70.0, 140.0, 50)),
                            num_maturities=12)
    _assert_builds_like_reference(
        market.extended_marginals(bench.bs_surface(big)),
        bench.linearized_grid(big))


@given(J=st.integers(1, 8), N=st.integers(1, 5), sloped=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_layout_matches_name_dict_builder_on_random_inputs(J, N,
                                                                 sloped,
                                                                 seed):
    # the builder reads only shapes and values: any lattice and masses do
    rng = np.random.default_rng(seed)
    states = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 20.0, J))])
    p_hat = rng.dirichlet(np.ones(J + 2), size=N).T
    a = AmericanPayoffGrid(rng.uniform(0.0, 50.0, (J + 1, N)), states,
                           np.arange(1.0, N + 1.0),
                           rng.uniform(0.0, 1.0, N) if sloped else None)
    _assert_builds_like_reference(p_hat, a)


@pytest.mark.parametrize("builder", [bound.build_primal_bounded,
                                     bound.build_dual_bounded,
                                     bound.build_primal_extended,
                                     bound.build_dual_extended])
def test_builders_reject_misshapen_mass_matrices(sec26, builder):
    # every LP takes J + 2 rows, the tail row included, and one column per
    # maturity; anything else fits no LP
    p_hat = market.extended_marginals(sec26.surface)
    for bad in (p_hat[:-1], p_hat[:-2], np.vstack([p_hat, p_hat[-1:]]),
                p_hat[:, :-1],
                np.hstack([p_hat, p_hat[:, -1:]]), p_hat[:-1, :-1],
                p_hat.ravel()):
        with pytest.raises(bound.BoundError, match="mass matrix"):
            builder(bad, sec26.payoff)


def _headline():
    cfg = bench.BenchConfig()
    return bench.bs_surface(cfg), bench.linearized_grid(cfg)


@pytest.mark.parametrize("case", ["sec26", "headline"])
def test_model_from_primal_reads_plain_arrays(case):
    # the model is a function of the primal's masses, the surface and the
    # mass matrix alone: unpacked by hand, it is robust_bound's, bit for bit
    surface, a = ((instances.get(case).surface, instances.get(case).payoff)
                  if case == "sec26" else _headline())
    res = bound.robust_bound(surface, a)
    p_hat = market.extended_marginals(surface)
    lp, idx = bound.build_primal_extended(p_hat, a)
    sol = lpcore.solve(lp)
    model = certify.model_from_primal(*idx.unpack_primal(sol.x), surface,
                                      p_hat)
    for name in ("states", "F", "G1", "G2", "marginals", "switch_prob"):
        got, want = getattr(model, name), getattr(res.model, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_single_maturity_bound_is_the_european_price():
    # with one maturity the claim is European: phi is its static price
    inst = instances.get("sec26")
    for n in range(len(inst.surface.maturities)):
        surface, a = _single_maturity(inst, n)
        euro = market.price_piecewise_linear(surface, a.values,
                                             a.tail_slopes)[0]
        for variant in ("bounded", "extended"):
            res = bound.robust_bound(surface, a, variant=variant)
            assert res.phi == pytest.approx(euro, abs=1e-9), (n, variant)


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
        p = market.extended_marginals(inst.surface)
        assert certify.grid_feasibility(ref, inst.payoff) >= -1e-9
        assert ref.cost(p) == pytest.approx(inst.bound_value, abs=1e-9)


def test_model_mass_exhausted(sec26_result):
    # every path exercises by the last maturity, also at states where the
    # payoff is 0 (sec26's top state), so the exercise mass totals 1
    assert float(sec26_result.model.F.sum()) == pytest.approx(1.0, abs=1e-8)


def test_top_state_absorbing(sec26_result):
    # a martingale cannot leave the top lattice state of a zero-tail surface;
    # the far state past it holds no mass
    model = sec26_result.model
    J = model.num_states - 2
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
    sm = bound.seed_model(inst.surface)
    est, _ = certify.mc_price(sm, inst.payoff, 50000, 3)
    assert est == pytest.approx(32.0, abs=1e-9)   # exact: no randomness in payoff
    assert est <= 34.0 + 1e-9


def _constant_marginals():
    """Two maturities with one law, and a payoff on its three states."""
    probs = [[0.2, 0.2], [0.3, 0.3], [0.5, 0.5]]
    surface = market.load_surface({"marginals": probs,
                                   "states": [0.0, 1.0, 2.0],
                                   "maturities": [1.0, 2.0]})
    return surface, AmericanPayoffGrid([[2.0, 1.0], [1.0, 3.0], [0.0, 4.0]],
                                       surface.states, surface.maturities)


# mc_price(seed_model(surface), payoff, 200000, seed=42), pinned bit for bit:
# every path exercises at t1, so the price reads the first marginal alone,
# whichever couplings G2 holds
SEED_MODEL_MC = {"sec26": "0x1.18e9e1b089a02p+5",
                 "sec52": "0x1.002e87d2c7b89p-1",
                 "eg11": "0x1.0000000000000p+5",
                 "constant": "0x1.6725c3dee7818p-1"}


@pytest.mark.parametrize("name", sorted(SEED_MODEL_MC))
def test_seed_model_exercises_everything_at_t1(name):
    # the primal's model for a claim paid only at t1: no path still holds
    # after t1, and every state with mass at t1 exercises there
    if name == "constant":
        surface, a = _constant_marginals()
    else:
        surface, a = instances.get(name).surface, instances.get(name).payoff
    model = bound.seed_model(surface)
    assert not model.G1.any()
    # the lattice, then the far state, which holds no mass here
    first = market.implied_marginals(surface)[:, 0]
    assert (model.switch_prob[:-1][first > 0, 0] == 1.0).all()
    est, _ = certify.mc_price(model, a, 200000, 42)
    assert est.hex() == SEED_MODEL_MC[name]


def test_seed_model_without_transport_names_it():
    # the second law is less spread out than the first: no martingale chain
    # joins them
    surface = market.load_surface({"marginals": [[0.5, 0.0], [0.0, 1.0],
                                                 [0.5, 0.0]],
                                   "states": [0.0, 1.0, 2.0],
                                   "maturities": [1.0, 2.0]})
    with pytest.raises(bound.BoundError,
                       match="no martingale transport.*HiGHS.*infeasible"):
        bound.seed_model(surface)


def _chain_value(model, a):
    """The model chain's exact American value, worked out the way the
    simulation runs: the still-holding mass exercises with probability
    switch_prob and moves on by the normalised regime-1 kernel."""
    hold, value = model.marginals[:, 0], 0.0
    for n in range(model.num_maturities):
        q = model.switch_prob[:, n]
        value += float((hold * q) @ a.interp(model.states, n))
        if n < model.num_maturities - 1:
            G = model.G1[:, :, n]
            rowsum = G.sum(axis=1, keepdims=True)
            ker = np.divide(G, rowsum, out=np.zeros_like(G), where=rowsum > 0)
            hold = (hold * (1.0 - q)) @ ker
    return value


def _assert_model_worth_phi(res, a, tol_gap=1e-6):
    value = certify.model_value(res.model, a)
    assert res.diagnostics["model_value_exact"] == value
    for v in (value, _chain_value(res.model, a)):
        assert abs(v - res.phi) <= tol_gap * (1.0 + abs(res.phi)), (v, res.phi)


@pytest.mark.parametrize("slope", [0.0, 0.25, 1.0])
def test_extended_model_keeps_far_state_exercise(slope):
    # the headline quotes and the call payoff (x - 100)+ continued above the
    # top strike with the given slope: the far state carries 1e-14 to 1e-12
    # of mass worth about 1e11 per unit, and the model must exercise it
    s = bench.bs_surface(bench.BenchConfig())
    x = s.states
    a = AmericanPayoffGrid(np.maximum(x[:, None] - 100.0, 0.0) * np.ones((1, 4)),
                           x, s.maturities, np.full(4, slope))
    res = bound.robust_bound(s, a)
    _assert_model_worth_phi(res, a, tol_gap=1e-9)


@given(J=st.integers(3, 8), N=st.integers(2, 4), vol=st.floats(0.15, 0.4),
       lo=st.floats(0.6, 0.95), hi=st.floats(1.1, 1.5), data=st.data())
def test_extended_model_is_worth_phi(J, N, vol, lo, hi, data):
    strikes = tuple(np.linspace(lo, hi, J) * 100.0)
    s = bench.bs_surface(bench.BenchConfig(vol=vol, strikes=strikes,
                                           num_maturities=N))
    values = data.draw(st.lists(st.floats(0.0, 50.0), min_size=(J + 1) * N,
                                max_size=(J + 1) * N))
    slopes = data.draw(st.lists(st.floats(0.0, 1.0), min_size=N, max_size=N))
    a = AmericanPayoffGrid(np.reshape(values, (J + 1, N)), s.states,
                           s.maturities, slopes)
    _assert_model_worth_phi(bound.robust_bound(s, a), a)


def test_model_off_phi_raises(sec26, monkeypatch):
    # a model that exercises only half its mass is worth half of phi
    unpack = certify.model_from_primal

    def halved(*args):
        model = unpack(*args)
        model.F = 0.5 * model.F
        return model

    monkeypatch.setattr(certify, "model_from_primal", halved)
    with pytest.raises(certify.CertifyError, match="not phi = 35.625"):
        bound.robust_bound(sec26.surface, sec26.payoff)


@pytest.mark.parametrize("tol_gap", [float("nan"), -1.0, float("inf")])
def test_bad_gap_tolerance_rejected(sec26, tol_gap):
    with pytest.raises(bound.BoundError, match="tol_gap must be finite"):
        bound.robust_bound(sec26.surface, sec26.payoff, tol_gap=tol_gap)


def test_variant_auto_selection(sec26, sec26_result):
    # every variant selects the one form, bit for bit; "bounded" is still
    # refused on a surface whose top call is worth more than zero
    for variant in ("bounded", "extended"):
        res = bound.robust_bound(sec26.surface, sec26.payoff, variant=variant)
        assert res.phi.hex() == sec26_result.phi.hex()
        assert res.hedge.V.tobytes() == sec26_result.hedge.V.tobytes()
    cfg = bench.BenchConfig(num_maturities=2, strikes=(70, 100, 130))
    surface = bench.bs_surface(cfg)
    a = bench.linearized_grid(cfg)
    assert bound.robust_bound(surface, a, variant="auto").hedge.V.shape == (5, 2)
    with pytest.raises(bound.VariantError, match="zero-price top call"):
        bound.robust_bound(surface, a, variant="bounded")
    with pytest.raises(bound.VariantError, match="must be auto"):
        bound.robust_bound(surface, a, variant="dual")


def test_invalid_surface_rejected(sec26):
    prices = sec26.surface.prices.copy()
    prices[2, 2] += 1.0               # breaks convexity in the tight column
    bad = market.CallSurface(sec26.surface.s0, sec26.surface.strikes,
                             sec26.surface.maturities, prices)
    with pytest.raises(bound.ArbitrageError):
        bound.robust_bound(bad, sec26.payoff)


def test_mismatched_grids_rejected(sec26):
    a = AmericanPayoffGrid(np.zeros((3, 2)), [0.0, 1.0, 2.0], [1.0, 2.0])
    with pytest.raises(bound.BoundError):
        bound.robust_bound(sec26.surface, a)
    # the replay reads the payoff at the surface's brackets: no tolerance
    near = sec26.payoff.states.copy()
    near[1] += 1e-13
    a = AmericanPayoffGrid(sec26.payoff.values, near,
                           sec26.payoff.maturities)
    with pytest.raises(bound.BoundError, match="lattice does not match"):
        bound.robust_bound(sec26.surface, a)


@pytest.mark.parametrize("variant", ["bounded", "extended"])
def test_payoff_on_other_maturities_rejected(sec26, variant):
    # eg11's payoff has sec26's states but only two of its three maturities;
    # the second grid has all three, each half a year late
    a = sec26.payoff
    for other in (instances.get("eg11").payoff,
                  AmericanPayoffGrid(a.values, a.states, a.maturities + 0.5)):
        with pytest.raises(bound.BoundError, match="maturities do not match"):
            bound.robust_bound(sec26.surface, other, variant=variant)


def _assert_gap_closed(res):
    assert abs(res.phi - res.psi) <= 1e-6 * (1.0 + abs(res.phi))


def _black_call(s0, strike, vol, t):
    # erfc form: the same bits as perfbench's dense-grid quotes
    sd = vol * math.sqrt(t)
    d1 = (math.log(s0 / strike) + 0.5 * sd * sd) / sd
    cdf = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))
    return s0 * cdf(d1) - strike * cdf(d1 - sd)


DENSE_GRIDS = [(15, 2), (15, 4), (19, 2), (19, 4)]


def dense_grid_case(J, N):
    """Lognormal surface on J strikes and N maturities, with a put."""
    strikes = np.linspace(70.0, 160.0, J)
    mats = np.arange(1, N + 1) / N
    surface = market.load_surface({
        "s0": 100.0, "strikes": strikes.tolist(), "maturities": mats.tolist(),
        "calls": [[_black_call(100.0, k, 0.213, t) for t in mats]
                  for k in strikes]})
    put = payoff.discounted_put(100.0, 0.05, horizon=1.0, x_hint=320.0)
    return surface, exercise_time_transform(put, surface.strikes,
                                            surface.maturities)


@pytest.mark.parametrize("J,N", DENSE_GRIDS)
def test_dense_grid_surfaces(J, N):
    # valid lognormal surfaces of realistic size; the dense hand-written
    # simplex failed J=19, N=2 with "phase I failed: unbounded"
    _assert_gap_closed(bound.robust_bound(*dense_grid_case(J, N)))


def presolve_trap_case():
    """Four strikes, five maturities and a put-mixture payoff whose extended
    program's dual HiGHS with presolve on called unbounded."""
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
    return surface, exercise_time_transform(pf, surface.strikes,
                                            surface.maturities)


def test_valid_surface_survives_without_presolve():
    res = bound.robust_bound(*presolve_trap_case())
    _assert_gap_closed(res)


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


def _bs_surface(J, N, vol, lo, hi):
    strikes = tuple(np.linspace(lo, hi, J) * 100.0)
    return bench.bs_surface(bench.BenchConfig(vol=vol, strikes=strikes,
                                              num_maturities=N))


def _put_grid_surface(J, N, vol, lo, hi, K, r):
    surface = _bs_surface(J, N, vol, lo, hi)
    put = payoff.discounted_put(K, r)
    return surface, exercise_time_transform(put, surface.strikes,
                                            surface.maturities)


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


@given(J=st.integers(3, 6), N=st.integers(1, 4), vol=st.floats(0.15, 0.4),
       lo=st.floats(0.6, 0.95), hi=st.floats(1.1, 1.5),
       K=st.floats(80.0, 120.0), r=st.floats(0.0, 0.1), data=st.data())
def test_repeated_maturity_with_smaller_payoff_leaves_phi_unchanged(
        J, N, vol, lo, hi, K, r, data):
    # quotes repeated at a date t' just after t_n let no price move between
    # the two: a claim paying at most column n's payoff at t' can always be
    # exercised at t_n instead, so the added maturity adds no value
    surface, a = _put_grid_surface(J, N, vol, lo, hi, K, r)
    n = data.draw(st.integers(0, N - 1))
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=J + 1,
                                    max_size=J + 1)))
    t = surface.maturities
    t_new = 0.5 * (t[n] + t[n + 1]) if n < N - 1 else t[n] + 0.5
    surface2 = market.CallSurface(
        surface.s0, surface.strikes, np.insert(t, n + 1, t_new),
        np.insert(surface.prices, n + 1, surface.prices[:, n], axis=1))
    a2 = AmericanPayoffGrid(np.insert(a.values, n + 1, u * a.values[:, n], axis=1),
                            a.states, surface2.maturities,
                            np.insert(a.tail_slopes, n + 1, a.tail_slopes[n]))
    base = bound.robust_bound(surface, a).phi
    assert bound.robust_bound(surface2, a2).phi == pytest.approx(base, rel=1e-8)


@given(J=st.integers(3, 6), N=st.integers(1, 4), vol=st.floats(0.15, 0.4),
       lo=st.floats(0.6, 0.95), hi=st.floats(1.1, 1.5),
       K=st.floats(70.0, 130.0), r=st.floats(0.0, 0.1))
def test_american_call_is_worth_its_last_european(J, N, vol, lo, hi, K, r):
    # Merton: the call (x - K exp(-r t_n))+ rises in t_n and is convex in x,
    # so in every model exercising at the last maturity is optimal
    surface = _bs_surface(J, N, vol, lo, hi)
    call = PayoffFunction(lambda x, t: np.maximum(x - K * np.exp(-r * t), 0.0),
                          convex_in_x=True, tail_slope=1.0, x_hint=400.0)
    a = payoff.grid_payoff(call, surface.strikes, surface.maturities)
    european = market.price_piecewise_linear(surface, a.values,
                                             a.tail_slopes)[-1]
    phi = bound.robust_bound(surface, a).phi
    assert abs(phi - european) <= 1e-12 * (1 + european)


@given(J=st.integers(3, 6), N=st.integers(1, 4), vol=st.floats(0.15, 0.4),
       lo=st.floats(0.6, 0.95), hi=st.floats(1.1, 1.5),
       seed=st.integers(0, 2 ** 32 - 1), lam=st.floats(0.1, 10.0))
def test_phi_is_sublinear_in_the_payoff(J, N, vol, lo, hi, seed, lam):
    # phi is a supremum over models of a payoff-linear value
    surface = _bs_surface(J, N, vol, lo, hi)
    rng = np.random.default_rng(seed)

    def phi(values, slopes):
        return bound.robust_bound(surface, AmericanPayoffGrid(
            values, surface.states, surface.maturities, slopes)).phi

    (va, sa), (vb, sb) = ((rng.uniform(0.0, 50.0, (J + 1, N)),
                           rng.uniform(0.0, 1.0, N)) for _ in range(2))
    pa, pb = phi(va, sa), phi(vb, sb)
    assert phi(va + vb, sa + sb) <= pa + pb + 1e-12 * (1 + pa + pb)
    assert abs(phi(lam * va, lam * sa) - lam * pa) <= 1e-12 * (1 + lam * pa)


# ---------------------------------------------------------------------------
# one form: the extended LP on zero-tail surfaces, and the model it reads off


def _spread_surface(rng, J, N):
    """Martingale marginals on a random lattice, each maturity a
    mean-preserving spread of the one before and no mass above the top
    strike, so the top call is worth 0: the benchmark's bound sweep draws
    its zero-tail surfaces this way."""
    states = np.concatenate([[0.0], 5.0 + np.cumsum(rng.uniform(3.0, 20.0, J))])
    p = rng.dirichlet(np.full(J + 1, 2.0))
    probs = np.zeros((J + 1, N))
    for n in range(N):
        probs[:, n] = p
        nxt = p.copy()
        for j in range(1, J):
            move = rng.uniform(0.0, 0.6) * p[j]
            up = (states[j] - states[j - 1]) / (states[j + 1] - states[j - 1])
            nxt[j] -= move
            nxt[j + 1] += move * up
            nxt[j - 1] += move * (1.0 - up)
        p = nxt
    return market.load_surface({"marginals": probs.tolist(),
                                "states": states.tolist(),
                                "maturities": [float(n)
                                               for n in range(1, N + 1)]})


def _random_payoff(rng, surface, put):
    """A discounted put struck inside the lattice, linearized over the
    exercise intervals, or random values with random tail slopes."""
    if put:
        top = float(surface.strikes[-1])
        fn = payoff.discounted_put(float(rng.uniform(0.3, 0.9)) * top,
                                   float(rng.uniform(0.0, 0.1)))
        return exercise_time_transform(fn, surface.strikes, surface.maturities)
    K, N = len(surface.states), len(surface.maturities)
    return AmericanPayoffGrid(rng.uniform(0.0, 50.0, (K, N)), surface.states,
                              surface.maturities, rng.uniform(0.0, 1.0, N))


def _bounded_lp_oracle(surface, a):
    """The bounded LP, on the lattice masses alone, built by the name-dict
    builder and solved: its value, and its hedge read off the row
    multipliers on the lattice rows alone, which the constructor closes
    with the tail row."""
    p = market.implied_marginals(surface)
    lp, scale = _reference_build_primal(a.states, p, a.values, a.tail_slopes,
                                        False)
    sol = lpcore.solve(lp)
    assert sol.status == "optimal"
    M, N = p.shape
    K = (N - 1) * M
    e1, e2, d, v = np.split(np.asarray(sol.duals) / scale,
                            np.cumsum([K, K, 2 * K]))
    E1, E2 = np.zeros((M, N)), np.zeros((M, N))
    E1[:, :-1] = e1.reshape(N - 1, M).T
    E2[:, 1:] = e2.reshape(N - 1, M).T
    D1, D2 = d.reshape(2, N - 1, M).transpose(0, 2, 1)
    return sol.objective, certify.HedgeStrategy(
        surface.states, surface.maturities, E1, E2, v.reshape(N, M).T, D1, D2,
        growth_rate=a.growth_rate)


def _assert_bounds_like_the_bounded_lp(surface, a):
    assert market.validate(surface).zero_tail
    phi, hedge = _bounded_lp_oracle(surface, a)
    assert bound.robust_bound(surface, a).phi == pytest.approx(phi, rel=1e-9)
    scale = certify.hedge_scale(hedge)
    assert certify.grid_feasibility(hedge, a) >= -1e-12 * scale
    cost = hedge.cost(market.extended_marginals(surface))
    assert abs(cost - phi) <= 1e-12 * (1.0 + abs(phi)), (cost, phi)


@pytest.mark.parametrize("name", ["sec26", "sec52", "eg11"])
def test_zero_tail_demo_bounds_like_the_bounded_lp(name):
    inst = instances.get(name)
    _assert_bounds_like_the_bounded_lp(inst.surface, inst.payoff)


@given(J=st.integers(3, 8), N=st.integers(2, 4), put=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_zero_tail_surface_bounds_like_the_bounded_lp(J, N, put, seed):
    # the extended LP's tail row holds the top call, 0 here: its value is
    # the bounded LP's, whose hedge the closed-form tail row makes whole
    rng = np.random.default_rng(seed)
    surface = _spread_surface(rng, J, N)
    _assert_bounds_like_the_bounded_lp(surface,
                                       _random_payoff(rng, surface, put))


def _snell_value(model, a):
    """The model's own optimal stopping value, by backward induction over
    (state, regime): a holding path switches regime with probability
    switch_prob at each maturity and then moves by the G2 kernel, as
    ``certify.simulate`` draws it, and any path may stop where the payoff
    beats its continuation."""
    pay = [a.interp(model.states, n) for n in range(model.num_maturities)]
    q = model.switch_prob

    def kernel(G):
        rowsum = G.sum(axis=1, keepdims=True)
        return np.divide(G, rowsum, out=np.zeros_like(G), where=rowsum > 0)

    U1 = U2 = pay[-1]               # holding, switched: both stop at the end
    for n in range(model.num_maturities - 2, -1, -1):
        arrive = q[:, n + 1] * U2 + (1.0 - q[:, n + 1]) * U1
        U1 = np.maximum(pay[n], kernel(model.G1[:, :, n]) @ arrive)
        U2 = np.maximum(pay[n], kernel(model.G2[:, :, n]) @ U2)
    return float(model.marginals[:, 0] @ (q[:, 0] * U2 + (1.0 - q[:, 0]) * U1))


def _assert_snell_is_phi(res, a):
    # no stopping rule in the model beats its own exercise rule, exactly,
    # and that rule attains the bound.  Folding the tail row into the far
    # state clips regime masses at the top lattice state by up to the far
    # state's mass, which moves the chain's value by less than that mass
    # times twice the largest payoff: 0 on a zero-tail surface and about
    # 1e-9 on the Figure-4 rows.  The moves seen were at most a tenth of
    # it, and up to 2.6e-10 * (1 + phi) on wide Black-Scholes quotes
    tol = 1e-10 * (1.0 + abs(res.phi))
    snell = _snell_value(res.model, a)
    assert abs(snell - _chain_value(res.model, a)) <= tol
    fold = 2.0 * a.values.max() * res.model.marginals[-1].sum()
    assert abs(snell - res.phi) <= tol + fold, (snell, res.phi, fold)


@pytest.mark.parametrize("name", ["sec26", "sec52", "eg11"])
def test_model_snell_value_is_phi_on_demos(name):
    inst = instances.get(name)
    _assert_snell_is_phi(bound.robust_bound(inst.surface, inst.payoff),
                         inst.payoff)


@pytest.mark.parametrize("strike", [80, 90, 100, 110, 120])
def test_model_snell_value_is_phi_on_figure4_rows(strike):
    cfg = bench.BenchConfig(put_strike=float(strike))
    a = bench.linearized_grid(cfg)
    _assert_snell_is_phi(bound.robust_bound(bench.bs_surface(cfg), a), a)


@given(J=st.integers(3, 8), N=st.integers(2, 4), tailed=st.booleans(),
       put=st.booleans(), vol=st.floats(0.1, 0.5), lo=st.floats(0.6, 0.95),
       hi=st.floats(1.1, 1.5), seed=st.integers(0, 2 ** 32 - 1))
def test_model_snell_value_is_phi(J, N, tailed, put, vol, lo, hi, seed):
    # zero-tail spread marginals, or Black-Scholes quotes whose top call is
    # worth more than zero
    rng = np.random.default_rng(seed)
    surface = (_bs_surface(J, N, vol, lo, hi) if tailed
               else _spread_surface(rng, J, N))
    a = _random_payoff(rng, surface, put)
    _assert_snell_is_phi(bound.robust_bound(surface, a), a)
