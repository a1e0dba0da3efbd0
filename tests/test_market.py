import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amerbound import bench, instances, market


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


@pytest.mark.parametrize("zero_rows, message", [
    (["0,100,55"], "row 0 must equal s0"),
    (["0,100,100", "0,80,80"], "one strike-0 row .s0., not 2"),
    (["0"], "strike-0 row holds no price"),
])
def test_load_surface_csv_checks_the_zero_row(zero_rows, message):
    # the strike-0 row is the zero-strike call: worth s0 at every maturity,
    # and given once
    text = "\n".join(["x,1,2"] + zero_rows + ["90,12,15", "100,5,8"])
    with pytest.raises(market.MarketError, match=message):
        market.load_surface(text + "\n")


def test_load_surface_rejects_bad_grids():
    with pytest.raises(market.MarketError):
        market.load_surface({"s0": 100, "strikes": [100, 70],
                             "maturities": [1], "calls": [[5], [20]]})
    with pytest.raises(market.MarketError):
        market.load_surface({"s0": 100, "strikes": [70, 100],
                             "maturities": [1], "calls": [[-5], [1]]})


def test_load_surface_missing_file_names_the_path(tmp_path):
    missing = str(tmp_path / "missing.json")
    for source in ("missing.json", missing):
        with pytest.raises(market.MarketError, match="no surface file") as err:
            market.load_surface(source)
        assert source in str(err.value)


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


def test_weak_validate_grades_no_margin_on_a_weakly_valid_surface(
        sec26_surface, monkeypatch):
    # no margin fails by more than TOL: weak mode returns the status without
    # building the lists, which strict mode still builds as before
    want = _loop_validate(sec26_surface, "strict")

    def grade(*args):
        raise AssertionError("_grade called")

    monkeypatch.setattr(market, "_grade", grade)
    rep = market.validate(sec26_surface, mode="weak")
    assert (rep.status, rep.violations, rep.zero_tail) == ("weakly-valid", [],
                                                           True)
    with pytest.raises(AssertionError, match="_grade called"):
        market.validate(sec26_surface, mode="strict")
    monkeypatch.undo()
    rep = market.validate(sec26_surface, mode="strict")
    assert (rep.status, rep.zero_tail) == (want.status, want.zero_tail)
    assert rep.violations == want.violations and rep.violations


def test_violation_magnitudes_are_python_floats(sec26_surface):
    prices = sec26_surface.prices.copy()
    prices[2, 2] = prices[2, 1] - 1e-6
    prices[1, 0] = 101.0
    bad = market.CallSurface(100.0, sec26_surface.strikes,
                             sec26_surface.maturities, prices)
    for mode in ("weak", "strict"):
        rep = market.validate(bad, mode)
        names = {v[0] for v in rep.violations}
        assert {"calendar", "slope-bound", "positive-tail"} & names
        assert all(type(v[2]) is float for v in rep.violations), mode


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
    p = market.implied_marginals(sec26_surface)
    Q = np.array([0.5, 0.75, 1.0])
    expected = np.vstack([np.zeros(3), Q / 2, 1 - Q, Q / 2])
    assert np.allclose(p, expected, atol=1e-12)
    assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(sec26_surface.states @ p, 100.0, atol=1e-10)


def test_implied_marginals_eg11():
    p = market.implied_marginals(instances.eg11().surface)
    assert np.allclose(p[:, 0], [0, 0, 1, 0], atol=1e-12)
    assert np.allclose(p[:, 1], [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_implied_marginals_linear_segment_gives_zero_mass():
    # calls linear in strike between x_1 and x_3 -> no mass at x_2
    surf = market.CallSurface(100.0, [50.0, 100.0, 150.0], [1.0],
                              [[100.0], [51.0], [34.0], [17.0]])
    p = market.implied_marginals(surf)
    assert p[2, 0] == pytest.approx(0.0, abs=1e-14)


def test_extended_marginals(sec26_surface):
    ext = market.extended_marginals(sec26_surface)
    assert ext.shape == (5, 3)
    assert np.allclose(ext[-1], 0.0)
    assert np.allclose(ext[:-1].sum(axis=0), 1.0)


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


def test_implied_marginals_rejects_inconsistent_surface(sec26_surface):
    prices = sec26_surface.prices.copy()
    prices[2, 2] += 1.0  # large convexity break -> negative implied mass
    bad = market.CallSurface(100.0, sec26_surface.strikes,
                             sec26_surface.maturities, prices)
    with pytest.raises(market.MarketError):
        market.implied_marginals(bad)


# ---------------------------------------------------------------------------
# the array passes against the per-maturity loops they replaced

ORACLE_TOL = 1e-10


def _loop_validate(surface, mode):
    """The previous validate, kept as the oracle: every inequality visited
    one maturity and one strike at a time."""
    tol = ORACLE_TOL
    c = surface.prices
    x = surface.states
    J, N = surface.num_strikes, surface.num_maturities
    weak, strict = [], []
    for n in range(N):
        col = c[:, n]
        for j in range(J):
            drop = col[j] - col[j + 1]
            if drop < -tol:
                weak.append(("monotone-in-strike", (j + 1, n), -drop))
            elif drop <= tol:
                strict.append(("monotone-in-strike", (j + 1, n), tol - drop))
        slopes = -(np.diff(col)) / np.diff(x)
        if slopes[0] > 1.0 + tol:
            weak.append(("slope-bound", (0, n), slopes[0] - 1.0))
        elif slopes[0] >= 1.0 - tol:
            strict.append(("slope-bound", (0, n), slopes[0] - 1.0 + tol))
        for j in range(J - 1):
            conv = slopes[j] - slopes[j + 1]
            if conv < -tol:
                weak.append(("convexity", (j + 1, n), -conv))
            elif conv <= tol:
                strict.append(("convexity", (j + 1, n), tol - conv))
        if col[J] < tol:
            strict.append(("positive-tail", (J, n), tol - col[J]))
    for n in range(N - 1):
        for j in range(1, J + 1):
            gain = c[j, n + 1] - c[j, n]
            if gain < -tol:
                weak.append(("calendar", (j, n), -gain))
            elif gain <= tol:
                strict.append(("calendar", (j, n), tol - gain))
    zero_tail = bool(c[J, N - 1] <= tol)
    if weak:
        status = "invalid"
        violations = weak if mode == "weak" else weak + strict
    elif strict:
        status = "invalid" if mode == "strict" else "weakly-valid"
        violations = strict if mode == "strict" else []
    else:
        status = "strictly-valid"
        violations = []
    return market.ValidationReport(status, violations, zero_tail)


def _loop_implied_marginals(surface):
    """The previous implied_marginals, kept as the oracle: one maturity at a
    time, clipped and renormalized in place."""
    tol = ORACLE_TOL
    c = surface.prices
    x = surface.states
    J, N = surface.num_strikes, surface.num_maturities
    p = np.zeros((J + 1, N))
    for n in range(N):
        slopes = (c[:-1, n] - c[1:, n]) / np.diff(x)
        p[0, n] = 1.0 - slopes[0]
        for j in range(1, J):
            p[j, n] = slopes[j - 1] - slopes[j]
        p[J, n] = slopes[J - 1]
        neg = p[:, n] < 0
        if np.any(p[neg, n] < -tol):
            worst = float(np.min(p[:, n]))
            raise market.MarketError(
                "inconsistent surface: implied probability %.3e" % worst)
        p[neg, n] = 0.0
        total = p[:, n].sum()
        if abs(total - 1.0) > 1e-8:
            raise market.MarketError("implied probabilities sum to %.12g" % total)
        p[:, n] /= total
    return p


@st.composite
def perturbed_surfaces(draw):
    """Black-Scholes or marginal-priced quotes with J in 1..12 strikes and N
    in 1..5 maturities, some top calls zeroed, some quotes moved by 1e-12
    to 10."""
    J, N = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        strikes = np.sort(rng.choice(np.arange(20, 200), size=J, replace=False))
        cfg = bench.BenchConfig(strikes=tuple(float(k) for k in strikes),
                                num_maturities=N, vol=draw(st.floats(0.05, 1.0)))
        prices = bench.bs_surface(cfg).prices
        strikes, maturities = cfg.strikes, cfg.maturities
    else:
        # each maturity spreads a share of every inner state's mass evenly
        # to its neighbours: one mean, in convex order
        states = np.arange(J + 1, dtype=float)
        probs = [rng.dirichlet(np.full(J + 1, 0.5))]
        for _ in range(N - 1):
            move = probs[-1] * rng.random(J + 1)
            move[[0, -1]] = 0.0
            step = probs[-1] - move
            step[:-2] += move[1:-1] / 2
            step[2:] += move[1:-1] / 2
            probs.append(step)
        probs = np.array(probs).T
        calls = np.maximum(states[None, :] - states[1:, None], 0.0) @ probs
        prices = np.vstack([np.full(N, states @ probs[:, 0]), calls])
        strikes, maturities = states[1:], np.arange(1.0, N + 1)
    prices = prices.copy()
    if draw(st.booleans()):
        prices[J, rng.random(N) < 0.5] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        size = 10.0 ** draw(st.floats(-12.0, 1.0))
        j, n = int(rng.integers(1, J + 1)), int(rng.integers(N))
        prices[j, n] = max(prices[j, n] + size * rng.choice((-1.0, 1.0)), 0.0)
    return market.CallSurface(float(prices[0, 0]), strikes, maturities, prices)


def _outcome(fn, surface, *args):
    try:
        return fn(surface, *args), None
    except market.MarketError as exc:
        return None, str(exc)


@settings(max_examples=200)
@given(surface=perturbed_surfaces())
def test_validate_and_marginals_match_their_loop_oracles(surface):
    for mode in ("weak", "strict"):
        new, old = market.validate(surface, mode), _loop_validate(surface, mode)
        assert (new.status, new.zero_tail) == (old.status, old.zero_tail)
        assert new.violations == old.violations
    (new, new_err), (old, old_err) = (_outcome(market.implied_marginals, surface),
                                      _outcome(_loop_implied_marginals, surface))
    assert new_err == old_err
    if old_err is None:
        assert np.array_equal(new, old)
        assert np.array_equal(np.signbit(new), np.signbit(old))


@pytest.mark.parametrize("field", ["s0", "strikes", "maturities", "prices"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_surface_rejects_non_finite_numbers(sec26_surface, field, bad):
    parts = {"s0": sec26_surface.s0, "strikes": sec26_surface.strikes.copy(),
             "maturities": sec26_surface.maturities.copy(),
             "prices": sec26_surface.prices.copy()}
    if field == "s0":
        parts["s0"] = bad
    else:
        parts[field][-1 if field != "prices" else (1, 0)] = bad
    with pytest.raises(market.MarketError, match="finite"):
        market.CallSurface(**parts)


def test_load_surface_rejects_nan_quote_in_json_text():
    text = ('{"s0": 100, "strikes": [50, 100, 150], "maturities": [1],'
            ' "calls": [[50], [NaN], [0]]}')
    with pytest.raises(market.MarketError, match="finite"):
        market.load_surface(text)


@pytest.mark.parametrize("doc", [
    {"marginals": [[0.5], [0.5]], "states": [0, 1]},
    {"marginals": [[0.5], ["half"]], "states": [0, 1], "maturities": [1]},
])
def test_load_surface_rejects_malformed_marginals(doc):
    with pytest.raises(market.MarketError, match="malformed"):
        market.load_surface(doc)
