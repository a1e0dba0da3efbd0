"""The hedge replay leg by leg, kept as the oracle for certify's bracketed
kernel: every static leg is its own ``np.interp`` (through
``extended_interp``), every hedge ratio and payoff slope its own search of
the lattice, the tail calls a loop over steps and the continuous-exercise
replay a loop over maturities.  The full-line walks are drawn with whole-array
``np.cumsum`` and ``np.where``."""

import numpy as np

from amerbound.certify import CertifyError
from amerbound.payoff import evaluate, extended_interp


def interval_ratio(xs, d, h, j):
    """Ratio on the open interval (x_j, x_{j+1}): d_j if it does not exceed
    the secant slope u_j of h, else d_{j+1} if that stays at or above u_j,
    else u_j itself."""
    u = (h[j + 1] - h[j]) / (xs[j + 1] - xs[j])
    dj, dj1 = d[j], d[j + 1]
    return np.where(dj <= u, dj, np.where(dj1 >= u, dj1, u))


def mixed_interp(xs, d_row, h_row, x):
    """Hedge-ratio interpolation between lattice ratios.

    On (x_j, x_{j+1}) the ratio is ``interval_ratio``'s; at knots it is the
    knot ratio d_j.  h_row is the static-claim row whose secants bound
    admissible ratios (E1, or E1 - V).
    """
    xs = np.asarray(xs, dtype=float)
    d = np.asarray(d_row, dtype=float)
    h = np.asarray(h_row, dtype=float)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any((x < 0) | (x > xs[-1] * (1 + 1e-12))):
        raise CertifyError("mixed interpolation outside [0, x_J]")
    j = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    out = np.where(x == xs[j], d[j], interval_ratio(xs, d, h, j))
    out = np.where(x == xs[-1], d[-1], out)
    return float(out[0]) if scalar else out


def mixed_inf(xs, d_row, h_row):
    """Exact infimum of the (piecewise constant) mixed interpolation of the
    ratios d_row: d_j at the knots, ``interval_ratio`` between them."""
    interval = interval_ratio(xs, d_row, h_row, np.arange(len(xs) - 1))
    return float(min(d_row.min(), interval.min()))


def regime_rows(hedge, delta):
    """Ratio columns and the static columns whose secants bound them, one
    column per step, in regime delta: (D1, E1) while holding, (D2, E1 - V)
    once exercised.  Both keep the tail row of the extended variant."""
    if delta == 1:
        return hedge.D1, hedge.E1[:, :-1]
    return hedge.D2, hedge.E1[:, :-1] - hedge.V[:, :-1]


def tail_hedge_ratio(hedge, n, delta):
    """Constant hedge ratio above the top strike in the extended variant:
    the lattice-edge ratio capped by the static rows' tail slopes."""
    if not hedge.extended:
        raise CertifyError("tail ratios need an extended-variant hedge")
    J = hedge.num_lattice - 1
    d, h = regime_rows(hedge, delta)
    return min(d[J, n - 1], h[J + 1, n - 1])


def tail_calls(hedge, R):
    """Free top-strike calls of a bounded hedge, one maturity at a time:
    the negative parts of the previous step's worst ratios plus the carried
    ratio budget at the top state for the current step."""
    if hedge.extended:
        raise CertifyError("tail calls apply to the zero-tail variant only")
    xs = hedge.states
    J = len(xs) - 1
    N = len(hedge.maturities)
    beta = np.zeros(N)
    regimes = [regime_rows(hedge, delta) for delta in (1, 2)]
    for n in range(1, N + 1):
        b = 0.0
        if n >= 2:
            i1, i2 = (mixed_inf(xs, d[:, n - 2], h[:, n - 2])
                      for d, h in regimes)
            b += max(-i1, 0.0) + max(-(i2 + R), 0.0)
        if n <= N - 1:
            b += (max(hedge.D1[J, n - 1], 0.0)
                  + max(hedge.D2[J, n - 1] + R, 0.0))
        beta[n - 1] = b
    return beta


def ratio(hedge, delta, n, y):
    """Hedge ratio at prices y for step n (1-based) in regime delta."""
    xs = hedge.states
    K = len(xs)
    if delta == 1:
        d, h = hedge.D1[:, n - 1], hedge.E1[:, n - 1]
    else:
        d, h = hedge.D2[:, n - 1], hedge.E1[:, n - 1] - hedge.V[:, n - 1]
    inside = mixed_interp(xs, d[:K], h[:K], np.minimum(y, xs[-1]))
    tail = tail_hedge_ratio(hedge, n, delta) if hedge.extended else d[K - 1]
    return np.where(np.atleast_1d(y) > xs[-1], tail, np.atleast_1d(inside))


def exercise_values(hedge, Y):
    """The (paths x N) table of terminal hedge values, column m-1 for
    exercise at maturity m, summed as the kernel must sum it."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    P, N = Y.shape
    xs = hedge.states
    K = len(xs)
    R = hedge.growth_rate
    if hedge.extended:
        e1s, e2s, vs = hedge.E1[K], hedge.E2[K], hedge.V[K]
    else:
        e1s, e2s, vs = np.zeros(N), np.zeros(N), np.full(N, R)

    static = np.zeros(P)
    for n in range(N):
        static += extended_interp(xs, hedge.E1[:K, n], Y[:, n], e1s[n])
        static += extended_interp(xs, hedge.E2[:K, n], Y[:, n], e2s[n])
    static += extended_interp(xs, hedge.V[:K, N - 1], Y[:, N - 1], vs[N - 1])
    if not hedge.extended:
        up = np.maximum(Y - xs[-1], 0.0)
        static += R * up[:, N - 1] + up @ hedge.beta

    leg1 = np.zeros((P, max(N - 1, 0)))
    leg2 = np.zeros((P, max(N - 1, 0)))
    for n in range(1, N):
        dy = Y[:, n] - Y[:, n - 1]
        leg1[:, n - 1] = dy * ratio(hedge, 1, n, Y[:, n - 1])
        leg2[:, n - 1] = dy * ratio(hedge, 2, n, Y[:, n - 1])
    pre1 = np.concatenate([np.zeros((P, 1)), np.cumsum(leg1, axis=1)], axis=1)
    suf2 = np.concatenate([np.cumsum(leg2[:, ::-1], axis=1)[:, ::-1],
                           np.zeros((P, 1))], axis=1)
    return static[:, None] + pre1 + suf2


def payoff_values(a, Y):
    """The (paths x N) table of the lattice payoff a along the paths Y."""
    return np.stack([a.interp(Y[:, n], n) for n in range(Y.shape[1])],
                    axis=1)


def right_subgradient(a, x, n):
    """Exact right slope of the payoff's piecewise-linear column n at
    price(s) x."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    j = np.clip(np.searchsorted(a.states, x, side="right") - 1,
                0, len(a.states) - 2)
    seg = ((a.values[j + 1, n] - a.values[j, n])
           / (a.states[j + 1] - a.states[j]))
    out = np.where(x >= a.states[-1], a.tail_slopes[n], seg)
    return float(out[0]) if scalar else out


def continuous_slack(hedge, a, Y, rng, payoff_fn, s0):
    """The continuous-exercise replay one maturity at a time: the payoff's
    right slope at the previous price from ``right_subgradient`` and its
    value from ``a.interp`` (or payoff_fn), for the paths whose exercise
    time falls after that maturity."""
    P, N = Y.shape
    mats = hedge.maturities
    rho = rng.uniform(0.0, mats[-1], size=P)
    rho = np.where(rho <= 0.0, mats[-1] / 2.0, rho)
    s0 = float(s0) if s0 is not None else float(hedge.states[-1]) / 2.0

    m0 = np.searchsorted(mats, rho, side="left")
    rows = np.arange(P)
    g = exercise_values(hedge, Y)[rows, m0]

    y_prev = np.where(m0 == 0, s0, Y[rows, np.maximum(m0 - 1, 0)])
    on_grid = rho == mats[np.minimum(m0, N - 1)]
    slack = np.empty(P)
    for n in range(N):
        sel = m0 == n
        if not np.any(sel):
            continue
        slope = right_subgradient(a, y_prev[sel], n)
        extra = np.where(on_grid[sel], 0.0,
                         -slope * (Y[sel, n] - y_prev[sel]))
        x_ex = np.where(on_grid[sel], Y[sel, n], y_prev[sel])
        if payoff_fn is not None:
            pay = evaluate(payoff_fn, x_ex, rho[sel])
        else:
            pay = a.interp(x_ex, n)
        slack[sel] = g[sel] + extra - pay
    return slack, rho


def full_line_paths(rng, trials, N, xJ, s0):
    """Multiplicative walks from s0; one path in ten gets excursions above
    the top strike."""
    steps = rng.normal(size=(trials, N))
    sig = 0.7
    Y = s0 * np.exp(np.cumsum(sig * steps - 0.5 * sig ** 2, axis=1))
    Y = np.minimum(Y, 50.0 * xJ)
    burst = rng.random(trials) < 0.1
    where = rng.random((trials, N)) < 0.5
    scale = 1.0 + rng.exponential(size=(trials, N))
    Y = np.where((burst[:, None] & where), xJ * scale, Y)
    return Y
