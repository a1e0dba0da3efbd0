"""End-to-end acceptance gate: pinned values, certificate verification on
every computed instance, mutation sensitivity, and solver oracle agreement."""

import time

import numpy as np
import pytest

from amerbound import bench, bound, certify, instances, lpcore, market
from amerbound.payoff import PayoffFunction, exercise_time_transform

from test_lpcore import random_lp_and_oracle_value


def _timed_bound(surface, a, **kwargs):
    t0 = time.perf_counter()
    res = bound.robust_bound(surface, a, **kwargs)
    return res, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# shared fixtures: every bound computed here is re-verified in criterion 7


@pytest.fixture(scope="module")
def demo_results():
    out = {}
    for name in ("sec26", "sec52", "eg11"):
        inst = instances.get(name)
        res, elapsed = _timed_bound(inst.surface, inst.payoff)
        out[name] = (inst, res, elapsed)
    return out


@pytest.fixture(scope="module")
def headline():
    cfg = bench.BenchConfig()
    surface = bench.bs_surface(cfg)
    a = bench.linearized_grid(cfg)
    fn = bench.put_payoff(cfg)
    t0 = time.perf_counter()
    res = bound.robust_bound(surface, a, variant="extended")
    chi_bar = bench.chi_binomial(bench.tree_payoff_from_grid(a), cfg)
    chi_raw = bench.chi_binomial(fn, cfg)
    z = bench.zeta(surface, a)
    elapsed = time.perf_counter() - t0
    return {"config": cfg, "surface": surface, "a": a, "fn": fn, "res": res,
            "chi_bar": chi_bar, "chi_raw": chi_raw, "zeta": z,
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def fig4_rows(headline):
    rows = {}
    t0 = time.perf_counter()
    for strike in (80, 90, 100, 110, 120):
        cfg = bench.BenchConfig(put_strike=float(strike))
        surface = bench.bs_surface(cfg)
        a = bench.linearized_grid(cfg)
        fn = bench.put_payoff(cfg)
        if strike == 100:
            res = headline["res"]
            chi = headline["chi_bar"]
            z = headline["zeta"]
        else:
            res = bound.robust_bound(surface, a, variant="extended")
            chi = bench.chi_binomial(bench.tree_payoff_from_grid(a), cfg)
            z = bench.zeta(surface, a)
        rows[strike] = {"surface": surface, "a": a, "fn": fn, "res": res,
                        "chi": chi, "zeta": z}
    rows["elapsed"] = time.perf_counter() - t0 + headline["elapsed"]
    return rows


def _put_mixture(rng, surface):
    horizon = float(surface.maturities[-1])
    top = float(surface.strikes[-1])
    count = int(rng.integers(1, 4))
    Ks = rng.uniform(0.3 * top, 0.9 * top, size=count)
    ws = rng.uniform(0.2, 1.5, size=count)
    r = float(rng.uniform(0.0, 0.1))

    def fn(x, t):
        x = np.asarray(x, dtype=float)
        total = 0.0
        for K, w in zip(Ks, ws):
            total = total + w * np.maximum(K * np.exp(-r * t) - x, 0.0)
        return total

    pf = PayoffFunction(fn, convex_in_x=True, decreasing_in_t=True,
                        tail_slope=0.0, horizon=horizon, x_hint=2.0 * top)
    return exercise_time_transform(pf, surface.strikes, surface.maturities), pf


def _random_marginal_surface(rng):
    """Random martingale marginals on a random lattice (zero-tail calls)."""
    J = int(rng.integers(3, 9))
    N = int(rng.integers(2, 7))
    strikes = 5.0 + np.cumsum(rng.uniform(3.0, 20.0, size=J))
    states = np.concatenate([[0.0], strikes])
    p = rng.dirichlet(np.full(J + 1, 2.0))
    probs = np.zeros((J + 1, N))
    for n in range(N):
        probs[:, n] = p
        nxt = p.copy()
        for j in range(1, J):          # mean-preserving spread of interior mass
            move = rng.uniform(0.0, 0.6) * p[j]
            w_up = ((states[j] - states[j - 1])
                    / (states[j + 1] - states[j - 1]))
            nxt[j] -= move
            nxt[j + 1] += move * w_up
            nxt[j - 1] += move * (1.0 - w_up)
        p = nxt
    return market.load_surface({
        "marginals": probs.tolist(), "states": states.tolist(),
        "maturities": [float(n) for n in range(1, N + 1)],
        "s0": float(states @ probs[:, 0]),
    })


def _random_lognormal_surface(rng):
    """Smooth call quotes with unhedged tail mass (extended variant)."""
    s0 = float(rng.uniform(50.0, 150.0))
    vol = float(rng.uniform(0.1, 0.5))
    J = int(rng.integers(3, 9))
    N = int(rng.integers(2, 7))
    mats = 0.2 + np.cumsum(rng.uniform(0.1, 0.4, size=N))
    strikes = s0 * (0.5 + np.cumsum(rng.uniform(0.08, 0.25, size=J)))
    calls = np.array([[bench.black_call(s0, k, vol, t) for t in mats]
                      for k in strikes])
    prices = np.vstack([np.full(N, s0), calls])
    return market.CallSurface(s0, strikes, mats, prices)


@pytest.fixture(scope="module")
def random_instances():
    rng = np.random.default_rng(987654321)
    out = []
    t0 = time.perf_counter()
    for i in range(100):
        surface = (_random_marginal_surface(rng) if i % 2 == 0
                   else _random_lognormal_surface(rng))
        a, fn = _put_mixture(rng, surface)
        res = bound.robust_bound(surface, a)
        out.append({"surface": surface, "a": a, "fn": fn, "res": res})
    elapsed = time.perf_counter() - t0
    return out, elapsed


def _all_instances(demo_results, headline, fig4_rows, random_instances):
    items = []
    for name, (inst, res, _) in demo_results.items():
        items.append((name, inst.surface, inst.payoff, None, res))
    items.append(("headline", headline["surface"], headline["a"],
                  headline["fn"], headline["res"]))
    for strike in (80, 90, 110, 120):      # 100 is the headline row
        row = fig4_rows[strike]
        items.append(("fig4-%d" % strike, row["surface"], row["a"],
                      row["fn"], row["res"]))
    for i, item in enumerate(random_instances[0]):
        items.append(("random-%d" % i, item["surface"], item["a"],
                      item["fn"], item["res"]))
    return items


# ---------------------------------------------------------------------------
# criteria 1-3: worked examples with exact pinned values


def test_criterion_1_sec52(demo_results):
    inst, res, elapsed = demo_results["sec52"]
    assert res.phi == pytest.approx(3.6, abs=1e-8)
    assert res.psi == pytest.approx(3.6, abs=1e-8)
    h = inst.extras["hedge"]
    ref = certify.HedgeStrategy(inst.surface.states, inst.surface.maturities,
                                h["E1"], h["E2"], h["V"], h["D1"], h["D2"],
                                growth_rate=inst.payoff.growth_rate)
    assert certify.grid_feasibility(ref, inst.payoff) >= -1e-12
    p = market.implied_marginals(inst.surface)
    assert ref.cost(p) == pytest.approx(18.0 / 5.0, abs=1e-12)
    assert elapsed < 1.0


def test_criterion_2_example_11(demo_results):
    inst, res, elapsed = demo_results["eg11"]
    assert res.phi == pytest.approx(34.0, abs=1e-8)
    est, _ = certify.mc_price(bound.seed_model(inst.surface), inst.payoff,
                              100000, 0)
    assert est == pytest.approx(inst.extras["seed_model_price"], abs=1e-9)
    assert elapsed < 1.0


def test_criterion_3_closed_form(demo_results):
    inst, res, elapsed = demo_results["sec26"]
    q, b = inst.extras["q"], inst.extras["b"]
    nstar = inst.extras["nstar"]
    oracle = ((b[0] - 100.0) * q[nstar:].sum()
              + np.sum(q[:nstar] / 2.0 * (b[:nstar] - 50.0)))
    assert oracle == pytest.approx(35.625, abs=1e-12)
    assert res.phi == pytest.approx(oracle, abs=1e-8)
    assert res.psi == pytest.approx(oracle, abs=1e-8)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criteria 4-5: benchmark reproduction


def test_criterion_4_headline_row(headline):
    res = headline["res"]
    assert res.phi == pytest.approx(7.66, abs=0.05)
    assert headline["chi_bar"] == pytest.approx(6.74, abs=0.05)
    assert headline["zeta"] == pytest.approx(6.35, abs=0.05)
    assert headline["chi_raw"] == pytest.approx(6.09, abs=0.05)
    ratio = (100.0 * (headline["chi_bar"] - headline["zeta"])
             / (res.phi - headline["zeta"]))
    assert ratio == pytest.approx(29.1, abs=2.0)
    assert headline["elapsed"] < 30.0


FIG4_EXPECTED = {
    80: (1.00, 0.92, 0.91),
    90: (3.25, 2.89, 2.79),
    100: (7.66, 6.74, 6.35),
    110: (14.09, 12.81, 11.73),
    120: (22.02, 20.89, 20.15),
}


def test_criterion_5_moneyness_sweep(fig4_rows):
    for strike, (phi_ref, chi_ref, zeta_ref) in FIG4_EXPECTED.items():
        row = fig4_rows[strike]
        assert row["res"].phi == pytest.approx(phi_ref, abs=0.05), strike
        assert row["chi"] == pytest.approx(chi_ref, abs=0.05), strike
        assert row["zeta"] == pytest.approx(zeta_ref, abs=0.05), strike
        ratio = (100.0 * (row["chi"] - row["zeta"])
                 / (row["res"].phi - row["zeta"]))
        assert ratio < 50.0, strike
    assert fig4_rows["elapsed"] < 180.0


# ---------------------------------------------------------------------------
# criterion 6: strong duality on random instances


def test_criterion_6_strong_duality(random_instances):
    items, elapsed = random_instances
    assert len(items) == 100
    for item in items:
        res = item["res"]
        assert abs(res.phi - res.psi) <= 1e-6 * (1.0 + abs(res.phi))
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 7: certificates of every computed instance


def _check_model_marginals(model, surface, tol=1e-8):
    # the model's marginals must reprice every quoted call (and the bond)
    x = np.asarray(model.states)
    scale = 1.0 + surface.s0
    for n in range(model.num_maturities):
        mass = model.marginals[:, n]
        assert abs(mass.sum() - 1.0) <= tol, n
        assert abs(mass @ x - surface.s0) <= tol * scale, n
        for row, strike in enumerate(surface.strikes, start=1):
            price = float(mass @ np.maximum(x - strike, 0.0))
            assert abs(price - surface.prices[row, n]) <= tol * scale, (n, row)


def _check_model_martingale(model, surface, tol_rel=1e-8):
    x = np.asarray(model.states)
    span = surface.strikes[-1]          # the top traded strike
    for G in (model.G1, model.G2):
        for n in range(model.num_maturities - 1):
            drift = G[:, :, n] @ x - G[:, :, n].sum(axis=1) * x
            assert np.all(np.abs(drift) <= tol_rel * span)


def test_criterion_7_certificates(demo_results, headline, fig4_rows,
                                  random_instances):
    items = _all_instances(demo_results, headline, fig4_rows,
                           random_instances)
    assert len(items) == 108
    for idx, (name, surface, a, fn, res) in enumerate(items):
        seed = 1000 + idx
        model, hedge = res.model, res.hedge
        # (i) model consistency at pinned tolerances
        _check_model_marginals(model, surface)
        _check_model_martingale(model, surface)
        assert np.all(model.switch_prob >= -1e-9), name
        assert np.all(model.switch_prob <= 1.0 + 1e-9), name
        # the exact value of what the Monte Carlo below estimates
        assert abs(certify.model_value(model, a) - res.phi) <= 1e-6 * (
            1.0 + abs(res.phi)), name

        # (ii) Monte Carlo reprices the bound
        est, se = certify.mc_price(model, a, 10 ** 6, seed)
        assert abs(est - res.phi) <= 3.0 * max(se, 1e-12), (name, est,
                                                            res.phi, se)

        # (iii) exhaustive lattice super-replication where enumerable
        rep = certify.verify_superreplication(hedge, a, "lattice-exhaustive")
        if not rep.skipped:
            assert rep.min_slack >= -1e-9, (name, rep.min_slack)

        # (iv) full-line paths with tail excursions; off-grid exercise times
        scale = certify.hedge_scale(hedge)
        rep = certify.verify_superreplication(hedge, a, "full-line-random",
                                              trials=10 ** 5, seed=seed,
                                              s0=surface.s0)
        assert rep.min_slack >= -1e-6 * scale, (name, rep.min_slack)
        if fn is not None:
            rep = certify.verify_superreplication(
                hedge, a, "continuous-exercise-random", trials=10 ** 5,
                seed=seed, payoff_fn=fn, s0=surface.s0)
            assert rep.min_slack >= -1e-6 * scale, (name, rep.min_slack)


# ---------------------------------------------------------------------------
# criterion 8: the verifier notices a corrupted certificate


def test_criterion_8_mutation_sensitivity(demo_results):
    for name, (inst, res, _) in demo_results.items():
        model, hedge = res.model, res.hedge
        scale = certify.hedge_scale(hedge)
        reachable = np.argwhere(model.F[: hedge.num_lattice] > 1e-9)
        assert len(reachable) > 0, name
        for j, n in reachable:
            V = hedge.V.copy()
            V[j, n] -= 1e-3 * scale
            mutated = certify.HedgeStrategy(
                hedge.states, hedge.maturities, hedge.E1, hedge.E2, V,
                hedge.D1, hedge.D2, growth_rate=hedge.growth_rate,
                beta=hedge.beta)
            rep = certify.verify_superreplication(mutated, inst.payoff,
                                                 "lattice-exhaustive")
            assert rep.min_slack < -1e-9, (name, j, n)


# ---------------------------------------------------------------------------
# criterion 9: simplex versus exact rational enumeration


def test_criterion_9_lp_oracle_agreement():
    rng = np.random.default_rng(1357924680)
    for _ in range(200):
        lp, oracle = random_lp_and_oracle_value(rng)
        sol = lpcore.solve(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective - float(oracle)) <= 1e-7
