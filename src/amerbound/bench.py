"""Benchmarks: how much of the American premium a fixed model captures.

Builds Black-Scholes call surfaces on the discounted (driftless) price,
prices the American put in that model on a binomial tree (chi), computes
the best static European value off the quotes (zeta), and compares both
with the model-free bound (phi) as a premium-capture ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bound, market, payoff


class BenchError(Exception):
    pass


@dataclass
class BenchConfig:
    s0: float = 100.0
    vol: float = 0.2
    rate: float = 0.05
    strikes: tuple = tuple(range(70, 141, 10))
    num_maturities: int = 4          # evenly spaced out to T = 1
    put_strike: float = 100.0
    tree_steps: int = 2000
    horizon: float = 1.0

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.s0, self.vol, self.horizon)):
            raise BenchError("need a finite s0, vol and horizon > 0")
        if self.num_maturities < 1 or self.tree_steps < 100:
            raise BenchError("need at least 1 maturity and >= 100 steps")

    @property
    def maturities(self):
        N = self.num_maturities
        return self.horizon * np.arange(1, N + 1) / N


def black_call(forward, strike, vol, t):
    """Undiscounted Black price of a call on a driftless lognormal."""
    if not (0 < forward < np.inf and 0 < strike < np.inf and 0 < vol < np.inf
            and np.isfinite(t)):
        raise BenchError("need a finite forward > 0, strike > 0, vol > 0 "
                         "and a finite t")
    from scipy.special import ndtr  # imported on use: 0.2-0.3 s to load

    if t <= 0:
        return max(forward - strike, 0.0)
    sd = vol * np.sqrt(t)
    d1 = (np.log(forward / strike) + 0.5 * sd * sd) / sd
    return float(forward * ndtr(d1) - strike * ndtr(d1 - sd))


def bs_surface(config: BenchConfig) -> market.CallSurface:
    """Call quotes on the discounted price: Black prices, no discounting."""
    mats = config.maturities
    strikes = np.asarray(config.strikes, dtype=float)
    calls = np.array([[black_call(config.s0, k, config.vol, t) for t in mats]
                      for k in strikes])
    prices = np.vstack([np.full(len(mats), config.s0), calls])
    return market.CallSurface(config.s0, strikes, mats, prices)


def put_payoff(config: BenchConfig) -> payoff.PayoffFunction:
    return payoff.discounted_put(config.put_strike, config.rate,
                                 horizon=config.horizon,
                                 x_hint=4.0 * config.put_strike)


def linearized_grid(config: BenchConfig) -> payoff.AmericanPayoffGrid:
    """Lattice payoff covering exercise at arbitrary times: column n holds
    the claim's value when interval n opened."""
    return payoff.exercise_time_transform(put_payoff(config), config.strikes,
                                          config.maturities)


def chi_binomial(a, config: BenchConfig) -> float:
    """American value in the binomial model of the driftless price.

    Recombining tree with up = exp(vol * sqrt(dt)); exercise allowed at
    every node.  An ``AmericanPayoffGrid`` is tabulated once per maturity
    column; any other payoff ``a(x, t)`` is called once per level, through
    ``payoff.evaluate``.
    """
    steps = config.tree_steps
    dt = config.horizon / steps
    u = np.exp(config.vol * np.sqrt(dt))
    d = 1.0 / u
    pu = (1.0 - d) / (u - d)
    # level k's prices s0 * u**(-k), s0 * u**(2-k), ..., s0 * u**k
    levels = config.s0 * u ** np.arange(-steps, steps + 1)
    if isinstance(a, payoff.AmericanPayoffGrid):
        times = np.arange(steps + 1) * dt
        times[steps] = config.horizon
        column = a.column(times)
        # level k reads a slice of its column; np.interp works point by point
        table = [a.interp(levels, n) for n in range(len(a.maturities))]

        def exercise(k, t):
            return table[column[k]][steps - k:steps + k + 1:2]
    else:
        def exercise(k, t):
            return payoff.evaluate(a, levels[steps - k:steps + k + 1:2], t)

    value = exercise(steps, config.horizon)
    for k in range(steps - 1, -1, -1):
        cont = pu * value[1:] + (1.0 - pu) * value[:-1]
        value = np.maximum(cont, exercise(k, k * dt))
    return float(value[0])


def tree_payoff_from_grid(a: payoff.AmericanPayoffGrid):
    """The lattice payoff itself, which ``chi_binomial`` takes as it is."""
    return a


def zeta(surface: market.CallSurface, a: payoff.AmericanPayoffGrid) -> float:
    """Best static European value: the priciest single maturity of the
    piecewise-linear payoff columns, on the surface's own lattice and
    maturities."""
    bound.check_payoff_grid(surface, a)
    return float(market.price_piecewise_linear(surface, a.values,
                                               a.tail_slopes).max())


@dataclass
class PremiumRow:
    config: BenchConfig
    phi: float
    chi: float
    zeta: float

    @property
    def ratio(self):
        """Share of the maximal American premium captured by the model;
        nan when the premium is degenerate (phi == zeta)."""
        spread = self.phi - self.zeta
        if abs(spread) < 1e-12 * (1.0 + abs(self.phi)):
            return float("nan")
        return 100.0 * (self.chi - self.zeta) / spread


def premium_row(config: BenchConfig) -> PremiumRow:
    surface = bs_surface(config)
    a = linearized_grid(config)
    res = bound.robust_bound(surface, a)
    chi = chi_binomial(a, config)
    z = zeta(surface, a)
    return PremiumRow(config, res.phi, chi, z)


def premium_table(configs):
    return [premium_row(c) for c in configs]
