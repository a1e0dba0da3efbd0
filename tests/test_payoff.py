import math

import numpy as np
import pytest

from amerbound import certify, instances, payoff

from replay_oracle import right_subgradient


STRIKES = [50.0, 100.0, 150.0]
QUARTERS = [0.25, 0.5, 0.75, 1.0]


def test_discounted_put_values():
    p = payoff.discounted_put(100.0, 0.05)
    assert p(90.0, 0.0) == pytest.approx(10.0)
    assert p(100.0 * np.exp(-0.05), 1.0) == pytest.approx(0.0, abs=1e-12)
    flat = payoff.discounted_put(100.0, 0.0)
    assert flat(80.0, 0.3) == pytest.approx(flat(80.0, 0.9)) == pytest.approx(20.0)


def test_discounted_put_flags_and_errors():
    p = payoff.discounted_put(100.0, 0.05)
    assert p.convex_in_x and p.decreasing_in_t and p.tail_slope == 0.0
    with pytest.raises(payoff.PayoffError):
        payoff.discounted_put(-1.0, 0.05)
    with pytest.raises(payoff.PayoffError):
        payoff.discounted_put(100.0, -0.01)


@pytest.mark.parametrize("strike, rate", [
    (100.0, math.inf), (100.0, math.nan), (math.inf, 0.05), (math.nan, 0.05),
    (-math.inf, 0.05)])
def test_discounted_put_refuses_non_finite_strike_or_rate(strike, rate):
    # an infinite rate gave a nan payoff at t = 0; an infinite or nan strike
    # ended in an OverflowError from the payoff's sampling check
    with pytest.raises(payoff.PayoffError, match="finite"):
        payoff.discounted_put(strike, rate)


def test_sampling_check_rejects_false_flags():
    with pytest.raises(payoff.PayoffError):
        payoff.PayoffFunction(lambda x, t: np.sqrt(x), convex_in_x=True)
    with pytest.raises(payoff.PayoffError):
        payoff.PayoffFunction(lambda x, t: t * x, decreasing_in_t=True,
                              tail_slope=1.0)
    with pytest.raises(payoff.PayoffError):
        payoff.PayoffFunction(lambda x, t: x - 50.0)  # goes negative


def test_grid_payoff_sec26_table():
    inst = instances.sec26()
    assert np.allclose(inst.payoff.values,
                       [[130, 115, 100], [80, 65, 50], [30, 15, 0], [0, 0, 0]])


def test_grid_payoff_zero():
    zero = payoff.PayoffFunction(lambda x, t: 0.0)
    g = payoff.grid_payoff(zero, STRIKES, QUARTERS)
    assert np.all(g.values == 0.0)
    assert g.values.shape == (4, 4)


def test_grid_clamps_tiny_negative_values():
    vals = np.array([[1.0, -1e-12], [0.0, 0.0]])
    with pytest.warns(UserWarning):
        g = payoff.AmericanPayoffGrid(vals, [0.0, 50.0], [1.0, 2.0])
    assert g.values[0, 1] == 0.0
    with pytest.raises(payoff.PayoffError):
        payoff.AmericanPayoffGrid([[1.0], [-0.5]], [0.0, 50.0], [1.0])


def test_exercise_time_transform_uses_interval_starts():
    p = payoff.discounted_put(100.0, 0.05, horizon=1.0)
    g = payoff.exercise_time_transform(p, STRIKES, QUARTERS)
    assert g.values[1, 0] == pytest.approx(50.0)  # (100 - 50)+ at t = 0+
    for k in range(1, 4):
        start = QUARTERS[k - 1]
        assert g.values[1, k] == pytest.approx(100.0 * np.exp(-0.05 * start) - 50.0)
    # dominates the plain node evaluation for time-decaying payoffs
    plain = payoff.grid_payoff(p, STRIKES, QUARTERS)
    assert np.all(g.values >= plain.values - 1e-12)


def _put_mixture(x, t):
    return (np.maximum(100.0 * np.exp(-0.05 * t) - x, 0.0)
            + 0.5 * np.maximum(80.0 * np.exp(-0.02 * t) - x, 0.0))


def _put_mixture_scalar(x, t):
    # math.exp and max raise TypeError on arrays
    return (max(100.0 * math.exp(-0.05 * t) - x, 0.0)
            + 0.5 * max(80.0 * math.exp(-0.02 * t) - x, 0.0))


def test_vectorised_payoff_is_called_on_arrays():
    calls = []

    def counted(x, t):
        calls.append(1)
        return _put_mixture(x, t)

    p = payoff.PayoffFunction(counted, convex_in_x=True, decreasing_in_t=True,
                              x_hint=400.0)
    payoff.exercise_time_transform(p, STRIKES, QUARTERS)
    assert len(calls) <= 6, len(calls)


def test_scalar_only_payoff_falls_back_point_by_point():
    with pytest.raises(TypeError):
        _put_mixture_scalar(np.array([1.0, 2.0]), np.array([0.0, 0.5]))
    grids = [payoff.exercise_time_transform(
        payoff.PayoffFunction(fn, convex_in_x=True, decreasing_in_t=True,
                              x_hint=400.0), STRIKES, QUARTERS)
        for fn in (_put_mixture, _put_mixture_scalar)]
    np.testing.assert_allclose(grids[1].values, grids[0].values,
                               rtol=1e-15, atol=0.0)
    with pytest.raises(payoff.PayoffError, match="convex_in_x"):
        payoff.PayoffFunction(lambda x, t: math.sqrt(x), convex_in_x=True)


def test_exercise_time_transform_requires_decreasing_flag():
    flat = payoff.PayoffFunction(lambda x, t: np.maximum(90.0 - x, 0.0),
                                 convex_in_x=True)
    with pytest.raises(payoff.PayoffError):
        payoff.exercise_time_transform(flat, STRIKES, QUARTERS)


def test_interp_and_subgradient():
    g = payoff.AmericanPayoffGrid([[10.0], [4.0], [1.0]], [0.0, 50.0, 100.0],
                                  [1.0], tail_slopes=[0.5])
    assert g.interp(25.0, 0) == pytest.approx(7.0)
    assert g.interp(120.0, 0) == pytest.approx(1.0 + 0.5 * 20.0)
    assert right_subgradient(g, 25.0, 0) == pytest.approx(-6.0 / 50.0)
    assert right_subgradient(g, 100.0, 0) == pytest.approx(0.5)
    assert g.growth_rate == pytest.approx(0.5)
    # the replay reads the right slope at the odd code of a price's bracket
    slope, _ = certify._leg_tables(g.states, g.values, g.tail_slopes)
    for x in (25.0, 50.0, 100.0, 120.0):
        [[code]], _ = certify._brackets(g.states, np.array([[x]]))
        assert slope[0, code | 1] == right_subgradient(g, x, 0), x


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_rejects_non_finite_values_and_tail_slopes(bad):
    states, mats = [0.0] + STRIKES, [1.0, 2.0]
    values = np.ones((4, 2))
    values[0, 0] = bad
    with pytest.raises(payoff.PayoffError, match="finite"):
        payoff.AmericanPayoffGrid(values, states, mats)
    with pytest.raises(payoff.PayoffError, match="finite"):
        payoff.AmericanPayoffGrid(np.ones((4, 2)), states, mats, [0.0, bad])


@pytest.mark.parametrize("slopes", [[0.5], 0.5, [0.5, 0.5, 0.5],
                                    [[0.5, 0.5]]])
def test_grid_needs_one_tail_slope_per_maturity(slopes):
    with pytest.raises(payoff.PayoffError, match="one slope per maturity"):
        payoff.AmericanPayoffGrid(np.ones((4, 2)), [0.0] + STRIKES, [1.0, 2.0],
                                  slopes)


def test_grid_pays_the_column_of_the_exercise_interval():
    g = payoff.AmericanPayoffGrid([[10.0, 8.0, 6.0], [4.0, 3.0, 2.0],
                                   [1.0, 0.5, 0.0]], [0.0, 50.0, 100.0],
                                  [1.0, 2.0, 3.0], [0.5, 0.25, 0.0])
    t = np.array([-1.0, 0.0, 0.5, 1.0, 1.0 + 1e-12, 2.0, 2.5, 3.0, 7.0])
    assert g.column(t).tolist() == [0, 0, 0, 0, 1, 1, 2, 2, 2]
    x = np.array([0.0, 25.0, 50.0, 75.0, 100.0, 130.0])
    got = g(x[:, None], t)
    want = np.stack([g.interp(x, n) for n in g.column(t)], axis=1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert g(120.0, 2.5) == g.interp(120.0, 2) == 0.0
    assert g(120.0, 0.5) == g.interp(120.0, 0) == 11.0
    assert np.isnan(g([50.0, 60.0], [np.nan, 1.0])).tolist() == [True, False]


def test_evaluate_calls_the_payoff_on_the_arrays_as_given():
    calls = []

    def recorded(x, t):
        calls.append((x.shape, t.shape))
        return np.maximum(100.0 * np.exp(-0.05 * t) - x, 0.0)

    vals = payoff.evaluate(recorded, np.array([[90.0], [110.0]]),
                           np.array([0.0, 1.0]))
    assert calls == [((2, 1), (2,))] and vals.shape == (2, 2)
    payoff.evaluate(recorded, np.array([90.0, 110.0]), 0.5)
    assert calls[-1] == ((2,), ())


@pytest.mark.parametrize("field, bad", [
    ("horizon", math.nan), ("horizon", math.inf), ("x_hint", math.nan),
    ("x_hint", math.inf), ("tail_slope", math.nan), ("tail_slope", math.inf)])
def test_payoff_function_refuses_structure_that_is_not_finite(field, bad):
    # horizon nan and x_hint inf ended in numpy's OverflowError; tail_slope
    # nan or inf was accepted
    with pytest.raises(payoff.PayoffError, match="finite"):
        payoff.PayoffFunction(lambda x, t: np.maximum(90.0 - x, 0.0),
                              **{field: bad})
