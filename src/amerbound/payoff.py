"""American payoff functions and their lattice discretizations.

A payoff is a function A(x, t) of price and exercise time, flagged with the
structural properties the bound machinery relies on: convexity in price,
monotone decay in time, and the asymptotic growth rate per unit of price.
The lattice form stores one column per maturity over the state grid
(strike 0 plus the traded strikes).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

# a PayoffFunction's declared structure is checked at SAMPLES random points
SAMPLES = 1000
SAMPLE_TOL = 1e-9


class PayoffError(Exception):
    pass


def evaluate(fn, x, t):
    """fn at the broadcast pairs (x, t), as a float array of their shape.

    fn is called once on the float arrays as given (a scalar time stays
    0-d).  A payoff written for scalars (one that raises TypeError/ValueError
    on arrays or returns another shape) is then called point by point.
    """
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(x.shape, t.shape)
    try:
        vals = np.asarray(fn(x, t), dtype=float)
        if vals.shape == shape:
            return vals
    except (TypeError, ValueError):
        pass
    x, t = np.broadcast_arrays(x, t)
    return np.array([float(fn(xv, tv))
                     for xv, tv in zip(x.flat, t.flat)]).reshape(shape)


def extended_interp(xs, values, x, slope):
    """Piecewise-linear interpolation of ``values`` on the knots xs at
    price(s) x, continued beyond the last knot with slope ``slope``."""
    x = np.asarray(x, dtype=float)
    top = xs[-1]
    inside = np.interp(np.minimum(x, top), xs, values)
    return inside + slope * np.maximum(x - top, 0.0)


@dataclass
class PayoffFunction:
    """A(x, t) with declared structure, sanity-checked by sampling.

    ``fn`` is called on numpy arrays of prices and times that broadcast and
    should return an array of their broadcast shape; a scalar-only ``fn``
    still works, called point by point (see ``evaluate``).

    ``tail_slope`` is (an upper bound on) lim A(x, t)/x as x grows, uniform
    over t in [0, horizon].  ``x_hint`` bounds the price range used for the
    sampling checks.
    """

    fn: object
    convex_in_x: bool = False
    decreasing_in_t: bool = False
    tail_slope: float = 0.0
    horizon: float = 1.0
    x_hint: float = 200.0

    def __post_init__(self):
        if not (0 <= self.tail_slope < np.inf and 0 < self.horizon < np.inf
                and 0 < self.x_hint < np.inf):
            raise PayoffError("need a finite tail_slope >= 0 and a finite "
                              "horizon and x_hint > 0")
        self._sampling_check()

    def __call__(self, x, t):
        return self.fn(x, t)

    def _sampling_check(self):
        # one call of the payoff on every sample point: (xs, ts), then
        # (x2, ts) and the midpoints for convexity, then (xs, min(ts, t2))
        # and (xs, max(ts, t2)) for the decay in time
        u = _unit_samples()
        xs, ts = self.x_hint * u[0], self.horizon * u[1]
        points = [(xs, ts)]
        if self.convex_in_x:
            lam, x2 = u[2], self.x_hint * u[3]
            points += [(x2, ts), (lam * xs + (1 - lam) * x2, ts)]
        if self.decreasing_in_t:
            t2 = self.horizon * u[4 if self.convex_in_x else 2]
            points += [(xs, np.minimum(ts, t2)), (xs, np.maximum(ts, t2))]
        x, t = (np.concatenate(c) for c in zip(*points))
        vals = evaluate(self.fn, x, t).reshape(len(points), SAMPLES)
        if np.any(~np.isfinite(vals[0])) or np.any(vals[0] < -SAMPLE_TOL):
            raise PayoffError("payoff must be finite and nonnegative")
        if self.convex_in_x:
            chord = lam * vals[0] + (1 - lam) * vals[1]
            if np.any(vals[2] > chord + SAMPLE_TOL * (1 + np.abs(chord))):
                raise PayoffError("convex_in_x contradicted by sampling")
        if self.decreasing_in_t:
            a, b = vals[-2], vals[-1]
            if np.any(b > a + SAMPLE_TOL * (1 + np.abs(a))):
                raise PayoffError("decreasing_in_t contradicted by sampling")
        # tail slope: secants over the sampled range must not exceed it...
        # only checkable when the declared slope is 0 and values stay bounded;
        # otherwise trust the declaration (growth shows up far beyond x_hint).


@functools.cache
def _unit_samples():
    """The sampling check's uniforms: five read-only rows of SAMPLES from
    one ``default_rng(1234567891)``, drawn on first use (drawing at import
    would load numpy.random).  h * u[r] has the bits of the r-th of five
    successive ``uniform(0, h, SAMPLES)`` draws, since uniform computes
    0 + h * u."""
    u = np.random.default_rng(1234567891).random((5, SAMPLES))
    u.flags.writeable = False
    return u


@dataclass
class AmericanPayoffGrid:
    """Payoff values on the lattice: values[j, n] at state x_j, maturity t_n.

    ``tail_slopes[n]`` is the growth rate of the column beyond the top state;
    ``growth_rate`` is their common upper bound used by the hedging layer.
    """

    values: np.ndarray               # (J+1) x N over [0] + strikes
    states: np.ndarray               # (J+1,) first entry 0
    maturities: np.ndarray           # (N,)
    tail_slopes: np.ndarray = None   # (N,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.maturities = np.asarray(self.maturities, dtype=float)
        if self.states[0] != 0.0 or np.any(np.diff(self.states) <= 0):
            raise PayoffError("states must start at 0 and increase")
        if self.values.shape != (len(self.states), len(self.maturities)):
            raise PayoffError("values must be (num states) x (num maturities)")
        if self.tail_slopes is None:
            self.tail_slopes = np.zeros(len(self.maturities))
        else:
            self.tail_slopes = np.asarray(self.tail_slopes, dtype=float)
        if self.tail_slopes.shape != (len(self.maturities),):
            raise PayoffError("tail_slopes must hold one slope per maturity")
        if not (np.isfinite(self.values).all()
                and np.isfinite(self.tail_slopes).all()):
            raise PayoffError("payoff values and tail slopes must be finite")
        if np.any(self.tail_slopes < 0):
            raise PayoffError("tail slopes must be nonnegative")
        if np.any(self.values < 0):
            worst = float(self.values.min())
            if worst < -1e-9:
                raise PayoffError("negative payoff value %.3e on lattice" % worst)
            warnings.warn("clipping tiny negative payoff values to 0")
            self.values = np.maximum(self.values, 0.0)

    @property
    def growth_rate(self):
        return float(np.max(self.tail_slopes))

    def interp(self, x, n):
        """Extended linear interpolation of column n at price(s) x."""
        return extended_interp(self.states, self.values[:, n], x,
                               self.tail_slopes[n])

    def column(self, t):
        """The column paying for exercise at time(s) t: column n serves
        (t_{n-1}, t_n], and times past t_N are paid as at t_N."""
        mats = self.maturities
        return np.searchsorted(mats, np.minimum(t, mats[-1]), side="left")

    def __call__(self, x, t):
        """The payoff at prices x and exercise times t, arrays that
        broadcast: ``interp`` of each time's column."""
        x, n = np.broadcast_arrays(np.asarray(x, dtype=float), self.column(t))
        out = np.full(x.shape, np.nan)      # a nan time has no column
        for c in np.unique(n[n < len(self.maturities)]):
            at = n == c
            out[at] = self.interp(x[at], c)
        return out


def discounted_put(strike, rate, horizon=None, x_hint=None) -> PayoffFunction:
    """A(x, t) = (K exp(-r t) - x)+ stated on the discounted price x."""
    K, r = float(strike), float(rate)
    if not (0 < K < np.inf and 0 <= r < np.inf):
        raise PayoffError("need a finite strike > 0 and a finite rate >= 0")
    horizon = horizon if horizon is not None else 1.0
    x_hint = x_hint if x_hint is not None else 4.0 * K

    def fn(x, t):
        return np.maximum(K * np.exp(-r * t) - x, 0.0)

    return PayoffFunction(fn, convex_in_x=True, decreasing_in_t=True,
                          tail_slope=0.0, horizon=horizon, x_hint=x_hint)


def grid_payoff(payoff: PayoffFunction, strikes, maturities) -> AmericanPayoffGrid:
    """Evaluate the payoff on the lattice [0] + strikes at each maturity."""
    states = np.concatenate([[0.0], np.asarray(strikes, dtype=float)])
    maturities = np.asarray(maturities, dtype=float)
    vals = evaluate(payoff, states[:, None], maturities)
    slopes = np.full(len(maturities), float(payoff.tail_slope))
    return AmericanPayoffGrid(vals, states, maturities, slopes)


def exercise_time_transform(payoff: PayoffFunction, strikes,
                            maturities) -> AmericanPayoffGrid:
    """Lattice form evaluated at interval starts in time.

    Column k holds A(x_j, t_{k-1}) with t_0 = 0: an agent exercising during
    (t_{k-1}, t_k] is paid what the claim was worth when the interval opened,
    so the lattice value dominates any payoff that decays in time.  This is
    the grid whose bound covers exercise at arbitrary times.
    """
    if not payoff.decreasing_in_t:
        raise PayoffError("interval-start transform needs decreasing_in_t")
    maturities = np.asarray(maturities, dtype=float)
    starts = np.concatenate([[0.0], maturities[:-1]])
    states = np.concatenate([[0.0], np.asarray(strikes, dtype=float)])
    vals = evaluate(payoff, states[:, None], starts)
    slopes = np.full(len(maturities), float(payoff.tail_slope))
    return AmericanPayoffGrid(vals, states, maturities, slopes)
