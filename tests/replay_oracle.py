"""The hedge replay leg by leg, kept as the oracle for certify's bracketed
kernel: every static leg is its own ``np.interp`` (through
``extended_interp``) and every hedge ratio its own search of the lattice."""

import numpy as np

from amerbound.certify import CertifyError, tail_hedge_ratio
from amerbound.payoff import extended_interp


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
