"""Benchmarks: how much of the American premium a fixed model captures.

Builds Black-Scholes call surfaces on the discounted (driftless) price,
prices the American put in that model on a binomial tree (chi), computes
the best static European value off the quotes (zeta), and compares both
with the model-free bound (phi) as a premium-capture ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

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
        if self.vol <= 0 or self.num_maturities < 1 or self.tree_steps < 100:
            raise BenchError("need vol > 0, at least 1 maturity, >= 100 steps")

    @property
    def maturities(self):
        N = self.num_maturities
        return self.horizon * np.arange(1, N + 1) / N


def black_call(forward, strike, vol, t):
    """Undiscounted Black price of a call on a driftless lognormal."""
    if t <= 0:
        return max(forward - strike, 0.0)
    sd = vol * np.sqrt(t)
    d1 = (np.log(forward / strike) + 0.5 * sd * sd) / sd
    return float(forward * norm.cdf(d1) - strike * norm.cdf(d1 - sd))


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


def chi_binomial(payoff_fn, config: BenchConfig) -> float:
    """American value in the binomial model of the driftless price.

    Recombining tree with up = exp(vol * sqrt(dt)); exercise allowed at
    every node; ``payoff_fn(x, t)`` must accept numpy arrays in x.
    """
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


def tree_payoff_from_grid(a: payoff.AmericanPayoffGrid):
    """Evaluator for the lattice payoff at arbitrary (x, t): exercise in
    (t_{n-1}, t_n] pays column n, linearly interpolated in price."""
    mats = a.maturities

    def fn(x, t):
        n = int(np.searchsorted(mats, min(t, mats[-1]), side="left"))
        return a.interp(x, n)

    return fn


def zeta(surface: market.CallSurface, a: payoff.AmericanPayoffGrid) -> float:
    """Best static European value: the priciest single maturity of the
    piecewise-linear payoff columns."""
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


def premium_row(config: BenchConfig, variant="extended") -> PremiumRow:
    surface = bs_surface(config)
    a = linearized_grid(config)
    res = bound.robust_bound(surface, a, variant=variant)
    chi = chi_binomial(tree_payoff_from_grid(a), config)
    z = zeta(surface, a)
    return PremiumRow(config, res.phi, chi, z)


def premium_table(configs, variant="extended"):
    return [premium_row(c, variant) for c in configs]


def markov_best_sec52(grid=None):
    """Best natural-filtration price of the two-period demo: sweep the
    admissible up-move probability from the low state; the optimum sits at
    the smallest value, strictly below the 3.6 bound."""
    if grid is None:
        grid = np.linspace(0.05, 0.25, 201)
    grid = np.asarray(grid, dtype=float)
    lo, hi = 0.8 - 0.75, 0.25     # mass balance forces p in [1/20, 1/4]
    grid = grid[(grid >= lo - 1e-12) & (grid <= hi + 1e-12)]
    vals = 3.2 + np.maximum(0.5 - 4.0 * grid, 0.0)
    best = int(np.argmax(vals))
    return float(vals[best]), float(grid[best])
