import math
import os
import warnings
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import amerbound
from amerbound import bench, bound, lpcore, market
from amerbound.payoff import AmericanPayoffGrid, PayoffFunction


@pytest.fixture(scope="module")
def headline():
    return bench.BenchConfig()


def test_black_call_atm(headline):
    # lognormal, forward 100, vol 20%, one year
    assert bench.black_call(100.0, 100.0, 0.2, 1.0) == pytest.approx(
        7.965567, abs=1e-5)


def test_black_call_limits():
    assert bench.black_call(100.0, 1e-9, 0.2, 1.0) == pytest.approx(100.0,
                                                                    abs=1e-6)
    assert bench.black_call(100.0, 1e5, 0.2, 1.0) == pytest.approx(0.0,
                                                                   abs=1e-10)
    assert bench.black_call(100.0, 90.0, 0.2, 0.0) == pytest.approx(10.0)


@pytest.mark.parametrize("vol", [-0.2, 0.0, math.nan])
def test_black_call_refuses_vol_not_positive(vol):
    # a negative vol priced the call at -7.97; vol 0 divided by zero
    with pytest.raises(bench.BenchError, match="vol > 0"):
        bench.black_call(100.0, 100.0, vol, 1.0)


def test_bs_surface_arbitrage_free(headline):
    surface = bench.bs_surface(headline)
    rep = market.validate(surface, mode="strict")
    assert rep.status == "strictly-valid"
    assert not rep.zero_tail


def test_tree_convergence(headline):
    a = bench.linearized_grid(headline)
    coarse = bench.chi_binomial(a, bench.BenchConfig(tree_steps=2000))
    fine = bench.chi_binomial(a, bench.BenchConfig(tree_steps=4000))
    assert abs(coarse - fine) <= 0.01


def test_chi_raw_put(headline):
    # American value of the raw discounted put in the binomial model
    chi = bench.chi_binomial(bench.put_payoff(headline), headline)
    assert chi == pytest.approx(6.09, abs=0.05)


def _chi_binomial_levelwise(payoff_fn, config):
    """Reference tree: each level's prices computed from its own powers."""
    steps = config.tree_steps
    dt = config.horizon / steps
    u = np.exp(config.vol * np.sqrt(dt))
    d = 1.0 / u
    pu = (1.0 - d) / (u - d)
    x = config.s0 * u ** np.arange(-steps, steps + 1, 2)
    value = np.asarray(payoff_fn(x, config.horizon), dtype=float)
    for k in range(steps - 1, -1, -1):
        cont = pu * value[1:] + (1.0 - pu) * value[:-1]
        x = config.s0 * u ** np.arange(-k, k + 1, 2)
        value = np.maximum(cont, payoff_fn(x, k * dt))
    return float(value[0])


def test_chi_binomial_matches_levelwise_tree_on_figure4_rows():
    for K in (80.0, 90.0, 100.0, 110.0, 120.0):
        config = bench.BenchConfig(put_strike=K)
        a = bench.linearized_grid(config)
        assert bench.chi_binomial(a, config) == \
            _chi_binomial_levelwise(a, config)


@given(s0=st.floats(20.0, 200.0), vol=st.floats(0.05, 0.8),
       K=st.floats(0.5, 1.5), horizon=st.floats(0.1, 3.0),
       steps=st.integers(100, 600), N=st.integers(1, 6),
       gridded=st.booleans())
def test_chi_binomial_matches_levelwise_tree(s0, vol, K, horizon, steps, N,
                                             gridded):
    config = bench.BenchConfig(s0=s0, vol=vol, put_strike=K * s0,
                               strikes=tuple(s0 * np.linspace(0.7, 1.4, 8)),
                               num_maturities=N, tree_steps=steps,
                               horizon=horizon)
    fn = (bench.linearized_grid(config) if gridded
          else bench.put_payoff(config))
    assert bench.chi_binomial(fn, config) == \
        _chi_binomial_levelwise(fn, config)


def test_grid_payoff_is_tabulated_once_per_column(monkeypatch):
    config = bench.BenchConfig(tree_steps=500)
    calls = []
    interp = AmericanPayoffGrid.interp

    def counted(self, x, n):
        calls.append(n)
        return interp(self, x, n)

    a = bench.linearized_grid(config)
    monkeypatch.setattr(AmericanPayoffGrid, "interp", counted)
    bench.chi_binomial(a, config)
    assert 0 < len(calls) <= config.num_maturities


def test_other_payoffs_are_called_once_per_level(monkeypatch):
    config = bench.BenchConfig(tree_steps=300)
    steps = config.tree_steps
    dt = config.horizon / steps
    u = np.exp(config.vol * np.sqrt(dt))
    calls = []
    call = PayoffFunction.__call__

    def recorded(self, x, t):
        calls.append((np.array(x), t))
        return call(self, x, t)

    fn = bench.put_payoff(config)
    monkeypatch.setattr(PayoffFunction, "__call__", recorded)
    bench.chi_binomial(fn, config)
    assert len(calls) == steps + 1
    for k, (x, t) in zip(range(steps, -1, -1), calls):
        assert np.array_equal(x, config.s0 * u ** np.arange(-k, k + 1, 2))
        assert t == (config.horizon if k == steps else k * dt)


def test_chi_binomial_takes_a_scalar_only_payoff():
    # a payoff written for scalars ended in numpy's "truth value of an
    # array ... is ambiguous" ValueError
    config = bench.BenchConfig(tree_steps=200)
    K, r = config.put_strike, config.rate

    def scalar_put(x, t):
        return max(K * math.exp(-r * t) - x, 0.0)

    fn = PayoffFunction(scalar_put, convex_in_x=True, decreasing_in_t=True,
                        x_hint=4.0 * K)
    chi = bench.chi_binomial(fn, config)
    assert chi == bench.chi_binomial(bench.put_payoff(config), config)


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about half of the package's import time
    src = os.path.dirname(os.path.dirname(amerbound.__file__))
    code = ("import sys, amerbound.cli, amerbound.bench; "
            "print('scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_zeta_examples(headline):
    surface = bench.bs_surface(headline)
    assert bench.zeta(surface, bench.linearized_grid(headline)) == \
        pytest.approx(6.35, abs=0.05)
    cfg2 = bench.BenchConfig(num_maturities=2)
    assert bench.zeta(bench.bs_surface(cfg2), bench.linearized_grid(cfg2)) == \
        pytest.approx(6.89, abs=0.05)


def test_zeta_refuses_payoff_off_the_surface(headline):
    # zeta prices the payoff's columns at the surface's states and
    # maturities; a payoff on others was priced as if it were on them
    surface, a = bench.bs_surface(headline), bench.linearized_grid(headline)
    scaled = AmericanPayoffGrid(a.values, a.states * 1.5, a.maturities,
                                a.tail_slopes)
    with pytest.raises(bound.BoundError, match="lattice does not match"):
        bench.zeta(surface, scaled)
    later = AmericanPayoffGrid(a.values, a.states, a.maturities + 0.5,
                               a.tail_slopes)
    with pytest.raises(bound.BoundError, match="maturities do not match"):
        bench.zeta(surface, later)


def test_premium_row_ordering():
    cfg = bench.BenchConfig(num_maturities=2, tree_steps=500)
    row = bench.premium_row(cfg)
    assert row.phi >= row.chi - 0.02 >= row.zeta - 0.04
    assert 0.0 < row.ratio < 100.0


def test_premium_ratio_degenerate():
    row = bench.PremiumRow(bench.BenchConfig(), 5.0, 5.0, 5.0)
    assert math.isnan(row.ratio)


def test_phi_decreases_with_grid_refinement():
    # more maturities = more constraints on the model, so a smaller bound
    phis = []
    for N in (2, 4, 12):
        cfg = bench.BenchConfig(num_maturities=N)
        m = market.extended_marginals(bench.bs_surface(cfg))
        lp, _, _ = bound.build_primal_extended(m, bench.linearized_grid(cfg))
        sol = lpcore.solve(lp)
        assert sol.status == "optimal"
        phis.append(sol.objective)
    assert phis[0] >= phis[1] - 0.02
    assert phis[1] >= phis[2] - 0.02


def test_config_validation():
    with pytest.raises(bench.BenchError):
        bench.BenchConfig(vol=0.0)
    with pytest.raises(bench.BenchError):
        bench.BenchConfig(tree_steps=10)


@pytest.mark.parametrize("field, bad", [
    ("s0", math.nan), ("s0", math.inf), ("s0", 0.0), ("vol", math.inf),
    ("vol", math.nan), ("horizon", math.nan), ("horizon", math.inf),
    ("horizon", -1.0)])
def test_config_refuses_s0_vol_horizon_not_finite_and_positive(field, bad):
    # vol inf and s0 nan were accepted
    with pytest.raises(bench.BenchError, match="finite"):
        bench.BenchConfig(**{field: bad})


@pytest.mark.parametrize("forward, strike, vol, t", [
    (100.0, 0.0, 0.2, 1.0), (100.0, -5.0, 0.2, 1.0), (0.0, 100.0, 0.2, 1.0),
    (math.nan, 100.0, 0.2, 1.0), (100.0, math.inf, 0.2, 1.0),
    (100.0, 100.0, math.inf, 1.0), (100.0, 100.0, 0.2, math.nan),
    (100.0, 100.0, 0.2, -math.inf)])
def test_black_call_refuses_inputs_outside_its_domain(forward, strike, vol,
                                                      t):
    # strike 0 divided by zero; a negative strike, forward 0 and vol inf
    # warned in numpy; t nan priced the call at nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bench.BenchError, match="finite"):
            bench.black_call(forward, strike, vol, t)


def test_black_call_is_intrinsic_at_or_before_zero_time():
    assert bench.black_call(100.0, 90.0, 0.2, -1.0) == 10.0
    assert bench.black_call(90.0, 100.0, 0.2, 0.0) == 0.0
