import json

import numpy as np
import pytest

from amerbound import instances, market


@pytest.fixture
def sec26_surface():
    return instances.sec26().surface


def test_sec26_surface_table(sec26_surface):
    c = sec26_surface.prices
    assert np.allclose(c[1], [50.0, 50.0, 50.0])
    assert np.allclose(c[2], [12.5, 18.75, 25.0])
    assert np.allclose(c[3], [0.0, 0.0, 0.0])
    assert np.allclose(sec26_surface.states, [0.0, 50.0, 100.0, 150.0])


def test_load_surface_json_roundtrip(sec26_surface, tmp_path):
    doc = {
        "s0": 100.0,
        "strikes": [50.0, 100.0, 150.0],
        "maturities": [1.0, 2.0, 3.0],
        "calls": sec26_surface.prices[1:].tolist(),
    }
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    loaded = market.load_surface(str(path))
    assert np.allclose(loaded.prices, sec26_surface.prices)


def test_load_surface_csv(sec26_surface, tmp_path):
    lines = ["strike,1,2,3", "0,100,100,100"]
    for j, k in enumerate(sec26_surface.strikes):
        row = sec26_surface.prices[j + 1]
        lines.append("%g,%s" % (k, ",".join("%.12g" % v for v in row)))
    path = tmp_path / "surface.csv"
    path.write_text("\n".join(lines))
    loaded = market.load_surface(str(path))
    assert np.allclose(loaded.prices, sec26_surface.prices)


def test_load_surface_rejects_bad_grids():
    with pytest.raises(market.MarketError):
        market.load_surface({"s0": 100, "strikes": [100, 70],
                             "maturities": [1], "calls": [[5], [20]]})
    with pytest.raises(market.MarketError):
        market.load_surface({"s0": 100, "strikes": [70, 100],
                             "maturities": [1], "calls": [[-5], [1]]})


def test_load_surface_marginals_variant():
    surf = instances.sec52().surface
    assert surf.s0 == pytest.approx(2.0)
    # calls priced off the marginals: c at strike 1, maturity 2
    # = 0.2*(2-1) + 0.4*(4-1) = 1.4
    assert surf.prices[1, 1] == pytest.approx(1.4)


def test_validate_sec26_weakly_valid(sec26_surface):
    rep = market.validate(sec26_surface, mode="weak")
    assert rep.status == "weakly-valid"
    assert rep.zero_tail
    assert market.validate(sec26_surface, mode="strict").status == "invalid"


def test_validate_detects_dominance_violation(sec26_surface):
    prices = sec26_surface.prices.copy()
    prices[1, 0] = 101.0  # call above the asset price
    bad = market.CallSurface(100.0, sec26_surface.strikes,
                             sec26_surface.maturities, prices)
    rep = market.validate(bad)
    assert rep.status == "invalid"
    assert any(v[0] in ("monotone-in-strike", "slope-bound") for v in rep.violations)


def test_validate_detects_convexity_kink(sec26_surface):
    prices = sec26_surface.prices.copy()
    prices[2, 2] += 1e-6  # column with a tight convexity constraint
    bad = market.CallSurface(100.0, sec26_surface.strikes,
                             sec26_surface.maturities, prices)
    rep = market.validate(bad)
    # raising an interior price can only break convexity at that strike
    assert any(v[0] == "convexity" and v[1][0] == 2 for v in rep.violations)
    assert rep.status == "invalid"


def test_validate_detects_calendar_violation(sec26_surface):
    prices = sec26_surface.prices.copy()
    prices[2, 2] = prices[2, 1] - 1e-6
    bad = market.CallSurface(100.0, sec26_surface.strikes,
                             sec26_surface.maturities, prices)
    rep = market.validate(bad)
    assert any(v[0] == "calendar" for v in rep.violations)


def test_implied_marginals_sec26(sec26_surface):
    m = market.implied_marginals(sec26_surface)
    Q = np.array([0.5, 0.75, 1.0])
    expected = np.vstack([np.zeros(3), Q / 2, 1 - Q, Q / 2])
    assert np.allclose(m.probs, expected, atol=1e-12)
    assert np.allclose(m.probs.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(m.column_means(), 100.0, atol=1e-10)


def test_implied_marginals_eg11():
    m = market.implied_marginals(instances.eg11().surface)
    assert np.allclose(m.probs[:, 0], [0, 0, 1, 0], atol=1e-12)
    assert np.allclose(m.probs[:, 1], [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_implied_marginals_linear_segment_gives_zero_mass():
    # calls linear in strike between x_1 and x_3 -> no mass at x_2
    surf = market.CallSurface(100.0, [50.0, 100.0, 150.0], [1.0],
                              [[100.0], [51.0], [34.0], [17.0]])
    m = market.implied_marginals(surf)
    assert m.probs[2, 0] == pytest.approx(0.0, abs=1e-14)


def test_extended_marginals(sec26_surface):
    ext = market.extended_marginals(sec26_surface)
    assert ext.rows.shape == (5, 3)
    assert np.allclose(ext.rows[-1], 0.0)
    assert np.allclose(ext.rows[:-1].sum(axis=0), 1.0)


def test_price_piecewise_linear_reproduces_quotes(sec26_surface):
    x = sec26_surface.states

    def cost(h, slope):
        return market.price_piecewise_linear(
            sec26_surface, np.tile(h[:, None], (1, 3)), np.full(3, slope))

    assert cost(np.ones(4), 0.0) == pytest.approx(np.ones(3), abs=1e-12)
    assert cost(x, 1.0) == pytest.approx(np.full(3, 100.0), abs=1e-12)
    for j in range(1, 4):
        assert cost(np.maximum(x - x[j], 0.0), 1.0) == pytest.approx(
            sec26_surface.prices[j], abs=1e-12)


def test_check_convex_order():
    good = market.implied_marginals(instances.sec52().surface)
    assert market.check_convex_order(good).valid
    # shrinking variance violates convex order
    bad = market.MarginalSystem(
        np.array([[0.4, 0.0], [0.0, 1.0], [0.6, 0.0]]),
        np.array([1.0, 2.0]), np.array([1.0, 2.0]), 1.2)
    rep = market.check_convex_order(bad)
    assert not rep.valid
    assert any(v[0] == "convex-order" for v in rep.violations)


def test_check_convex_order_single_maturity():
    single = market.MarginalSystem(np.array([[0.5], [0.5]]),
                                   np.array([2.0]), np.array([1.0]), 1.0)
    assert market.check_convex_order(single).valid


def test_implied_marginals_rejects_inconsistent_surface(sec26_surface):
    prices = sec26_surface.prices.copy()
    prices[2, 2] += 1.0  # large convexity break -> negative implied mass
    bad = market.CallSurface(100.0, sec26_surface.strikes,
                             sec26_surface.maturities, prices)
    with pytest.raises(market.MarketError):
        market.implied_marginals(bad)
