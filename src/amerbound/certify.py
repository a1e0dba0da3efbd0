"""Certificates for the bound: extremal models and super-replicating hedges.

The primal optimum becomes a RegimeModel — a bivariate Markov chain of
(price, regime) whose first regime-switch time is the optimal exercise —
that can be simulated and Monte-Carlo priced.  The dual optimum becomes a
HedgeStrategy — static claims E1/E2/V plus dynamic holdings D1/D2 — whose
terminal value can be evaluated path by path, on the lattice, on the
interval [0, x_J], on the whole half-line, and for exercise times between
maturities.  Verification never trusts the LP: it replays the certificates
against their defining inequalities and against sampled or enumerated
paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import market
from .payoff import AmericanPayoffGrid, evaluate

MASS_TOL = 1e-12
# Monte Carlo kernel: paths simulated per block, and uniform buckets of the
# inverse-CDF lookup (a power of two, so floor(u * B) is exact)
SIMULATION_BLOCK = 2 ** 16
LOOKUP_BUCKETS = 4096


class CertifyError(Exception):
    pass


# ---------------------------------------------------------------------------
# models


@dataclass
class RegimeModel:
    """Simulable price/regime chain on a genuine state lattice.

    F[j, n] is the mass of paths that exercise at state j at maturity n
    (regime-1 inflow times switch_prob); G1/G2[j, k, n] are joint masses
    of moves j -> k between maturities n and n+1 while holding / after
    exercising; switch_prob[j, n] is the conditional probability that a
    still-holding path arriving at state j exercises there.  marginals[:, n]
    is the law of the price at each maturity.  For surfaces without a
    zero-price top call the lattice gains one far state (``xi``) that
    carries the tail mass.
    """

    states: np.ndarray
    maturities: np.ndarray
    s0: float
    F: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    marginals: np.ndarray
    switch_prob: np.ndarray
    extended: bool = False
    xi: float = None

    @property
    def num_states(self):
        return len(self.states)

    @property
    def num_maturities(self):
        return len(self.maturities)


@dataclass
class PathBatch:
    """Simulated paths: values[p, n] at maturity n+1; 1-based exercise index."""

    values: np.ndarray
    state_idx: np.ndarray
    exercise_index: np.ndarray

    def __len__(self):
        return self.values.shape[0]

    def as_paths(self):
        for i in range(len(self)):
            yield PricePath(self.values[i], int(self.exercise_index[i]))


@dataclass
class PricePath:
    """One price path with its exercise: either a 1-based maturity index or
    a continuous time in (0, T]."""

    values: np.ndarray
    exercise_index: int = None
    exercise_time: float = None
    payoff_fn: object = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < 0):
            raise CertifyError("price paths must be nonnegative")
        if (self.exercise_index is None) == (self.exercise_time is None):
            raise CertifyError("exactly one of index/time exercise required")


def _clip_mass(arr, tol=1e-7):
    worst = float(arr.min()) if arr.size else 0.0
    if worst < -tol:
        raise CertifyError("negative mass %.3e in LP solution" % worst)
    return np.maximum(arr, 0.0)


def _conservation_switch_prob(F, G1, G2, marginals):
    """switch_prob[j, n] = (regime-1 inflow minus regime-1 outflow) / inflow.

    Inflow at the first maturity is the whole marginal (paths start in
    regime 1).  At the last maturity every surviving path exercises.
    """
    M, N = F.shape
    q = np.zeros((M, N))
    in1 = marginals[:, 0].copy()
    for n in range(N):
        out1 = G1[:, :, n].sum(axis=1) if n < N - 1 else np.zeros(M)
        switch = np.clip(in1 - out1, 0.0, None)
        with np.errstate(invalid="ignore", divide="ignore"):
            q[:, n] = np.where(in1 > MASS_TOL, switch / np.maximum(in1, MASS_TOL), 0.0)
        q[:, n] = np.clip(q[:, n], 0.0, 1.0)
        if n == N - 1:
            q[:, n] = np.where(in1 > MASS_TOL, 1.0, 0.0)
        if n < N - 1:
            in1 = G1[:, :, n].sum(axis=0)
    return q


def _check_model(model: RegimeModel, tol_mass=1e-8):
    x = model.states
    p = model.marginals
    M, N = model.F.shape
    # drift tolerance scales with the traded lattice, not the far state
    span = max(x[-2] if model.extended else x[-1], 1.0)
    for n in range(N - 1):
        out = model.G1[:, :, n].sum(axis=1) + model.G2[:, :, n].sum(axis=1)
        if np.max(np.abs(out - p[:, n])) > tol_mass:
            raise CertifyError("outflow mismatch at step %d" % (n + 1))
        infl = model.G1[:, :, n].sum(axis=0) + model.G2[:, :, n].sum(axis=0)
        if np.max(np.abs(infl - p[:, n + 1])) > tol_mass:
            raise CertifyError("inflow mismatch at step %d" % (n + 2))
        for G in (model.G1, model.G2):
            drift = (x[None, :] - x[:, None]) * G[:, :, n]
            if np.max(np.abs(drift.sum(axis=1))) > 1e-8 * span:
                raise CertifyError("martingale violation at step %d" % (n + 1))
    if np.any(model.switch_prob < -1e-9) or np.any(model.switch_prob > 1 + 1e-9):
        raise CertifyError("switch probability outside [0, 1]")
    if np.any(model.F < -1e-9):
        raise CertifyError("negative exercise mass")


def _companion_from_extended(G1, G2, p_hat, states, xi):
    """Fold the virtual tail row into a genuine far state at price xi.

    Mass parked on the virtual row represents (x - x_J)-forward payoffs
    priced by the top call; placing it at xi with weight 1/(xi - x_J)
    reproduces every constraint of a genuine lattice model exactly.
    """
    J = len(states) - 1
    xJ = states[-1]
    w = 1.0 / (xi - xJ)
    N = p_hat.shape[1]
    T = J + 1

    newG = []
    for G in (G1, G2):
        H = G.copy()
        for n in range(N - 1):
            H[:J, J, n] = G[:J, J, n] - G[:J, T, n] * w
            H[J, J, n] = G[J, J, n] - (G[J, T, n] + G[T, T, n]) * w
            H[: J + 1, T, n] = G[: J + 1, T, n] * w
            H[T, : J + 1, n] = G[T, : J + 1, n] * w
            H[T, T, n] = G[T, T, n] * w
        newG.append(H)
    G1x, G2x = newG

    p = p_hat.copy()
    p[J, :] = p_hat[J, :] - p_hat[T, :] * w
    p[T, :] = p_hat[T, :] * w
    return G1x, G2x, p


def companion_threshold(surface: market.CallSurface):
    """Smallest admissible far-state price: beyond it the folded top-state
    mass stays nonnegative at every maturity."""
    c = surface.prices
    J = surface.num_strikes
    xJ, xJ1 = surface.states[J], surface.states[J - 1]
    xi0 = 0.0
    for n in range(surface.num_maturities):
        den = c[J - 1, n] - c[J, n]
        if den > 1e-12:
            xi0 = max(xi0, (xJ * c[J - 1, n] - xJ1 * c[J, n]) / den)
    return xi0


def model_from_primal(solution, index, surface: market.CallSurface,
                      p_hat) -> RegimeModel:
    """Unpack a primal optimum into a checked, simulable RegimeModel;
    p_hat is the LP's mass matrix (marginals, plus the tail row if extended).
    """
    F, G1, G2 = index.unpack_primal(solution.x)
    F, G1, G2 = _clip_mass(F), _clip_mass(G1), _clip_mass(G2)
    states = surface.states
    if index.extended:
        # far enough out that the fold-in corrections (~1/xi) drop below the
        # mass tolerance even where the top strike received no direct mass
        xi = max(1e9 * states[-1], 1.5 * companion_threshold(surface))
        G1, G2, p = _companion_from_extended(G1, G2, p_hat, states, xi)
        G1, G2 = _clip_mass(G1), _clip_mass(G2)
        if p.min() < -1e-9:
            raise CertifyError("companion marginal went negative")
        p = np.maximum(p, 0.0)
        p /= p.sum(axis=0, keepdims=True)
        states = np.concatenate([states, [xi]])
    else:
        p = p_hat
        xi = None
    q = _conservation_switch_prob(F, G1, G2, p)
    # The LP's own F depends on the optimal vertex: where row (e) is slack
    # it can omit exercised paths.  Regime-1 inflow times the switch
    # probability records every one of them.
    in1 = np.concatenate([p[:, :1], G1.sum(axis=0)], axis=1)
    F = in1 * q
    model = RegimeModel(states, surface.maturities.copy(), surface.s0,
                        F, G1, G2, p, q, extended=index.extended, xi=xi)
    _check_model(model)
    return model


def seed_model(m: market.MarginalSystem) -> RegimeModel:
    """Exercise-everything-at-t1 model over any martingale transport chain."""
    x = m.states
    p = m.probs
    M, N = p.shape
    G2 = np.zeros((M, M, max(N - 1, 0)))
    for n in range(N - 1):
        G2[:, :, n] = _martingale_transport(x, p[:, n], p[:, n + 1])
    G1 = np.zeros_like(G2)
    F = np.zeros((M, N))
    F[:, 0] = p[:, 0]
    q = _conservation_switch_prob(F, G1, G2, p)
    model = RegimeModel(x.copy(), m.maturities.copy(), m.s0, F, G1, G2,
                        p.copy(), q)
    _check_model(model)
    return model


def _martingale_transport(x, mu, nu):
    """One feasible martingale coupling of mu into nu via a small LP."""
    from . import lpcore

    M = len(x)
    col = lambda j, k: j * M + k
    rows = []
    for j in range(M):
        rows.append(lpcore.Row([(col(j, k), 1.0) for k in range(M)], "=",
                               float(mu[j])))
    for k in range(M):
        rows.append(lpcore.Row([(col(j, k), 1.0) for j in range(M)], "=",
                               float(nu[k])))
    for j in range(M):
        terms = [(col(j, k), float(x[k] - x[j])) for k in range(M) if k != j]
        if terms:
            rows.append(lpcore.Row(terms, "=", 0.0))
    lp = lpcore.LinearProgram("max", M * M, np.zeros(M * M), rows)
    sol = lpcore.solve(lp)
    if sol.status != "optimal":
        raise CertifyError("no martingale transport: marginals not in convex order")
    return _clip_mass(np.asarray(sol.x).reshape(M, M))


def _step_tables(model: RegimeModel):
    """Per-step inverse-CDF tables of the conditional kernels.

    cum[n] is (2K, K): row s holds the cumulative regime-1 kernel out of
    state s between maturities n and n+1, row K + s the regime-2 kernel.
    The next state of a path in row r with uniform draw u is
    min(#{k : cum[n][r, k] < u}, K - 1).  lut[n][r, b] is that state for
    every u in [b/B, (b+1)/B) when one state serves the whole bucket, and
    -1 otherwise; rows that are not nondecreasing are -1 throughout.
    """
    K, N = model.num_states, model.num_maturities
    edges = np.arange(LOOKUP_BUCKETS + 1) / LOOKUP_BUCKETS     # exact dyadics
    cum, lut = [], []
    for n in range(N - 1):
        table = np.empty((2 * K, K))
        for r, G in enumerate((model.G1, model.G2)):
            rowsum = G[:, :, n].sum(axis=1, keepdims=True)
            ker = np.divide(G[:, :, n], np.maximum(rowsum, MASS_TOL),
                            out=np.zeros_like(G[:, :, n]),
                            where=rowsum > MASS_TOL)
            table[r * K:(r + 1) * K] = np.cumsum(ker, axis=1)
        # on a nondecreasing row, the count below u lies between the counts
        # below the edges of u's bucket; clipping to K - 1 keeps that order
        cnt = np.stack([np.searchsorted(row, edges, side="left")
                        for row in table]).clip(max=K - 1)
        step = np.where(cnt[:, :-1] == cnt[:, 1:], cnt[:, :-1], -1)
        step[~(np.diff(table, axis=1) >= 0).all(axis=1)] = -1
        cum.append(table)
        lut.append(step.astype(np.int32))
    return cum, lut


def simulate(model: RegimeModel, paths, seed) -> PathBatch:
    """Exact-marginal simulation; exercise at the first regime switch.

    Path i uses row i of one Philox(seed) stream of uniforms of width 2N:
    column 0 picks the first state from the first marginal, column 2n+1
    decides the switch at maturity n, and column 2n+2 the move from n to
    n+1 (regime 2 once switched).  The rows are drawn SIMULATION_BLOCK at a
    time into preallocated outputs, which consumes the stream exactly as
    one (paths, 2N) draw does, so the paths depend only on (model, paths,
    seed).  Moves are inverse-CDF lookups: a bucket table answers most
    draws, and the few that fall in a bucket containing a kernel step
    compare against their own kernel row.  No temporary grows with
    paths x states.
    """
    K, N = model.num_states, model.num_maturities
    rng = np.random.default_rng(np.random.Philox(seed))
    cum, lut = _step_tables(model)
    init = np.cumsum(model.marginals[:, 0])

    state_idx = np.empty((paths, N), dtype=np.int64)
    ex_idx = np.empty(paths, dtype=np.int64)
    u = np.empty((min(paths, SIMULATION_BLOCK), 2 * N))
    for lo in range(0, paths, SIMULATION_BLOCK):
        hi = min(lo + SIMULATION_BLOCK, paths)
        ub = u[:hi - lo]
        rng.random(out=ub)
        s = np.searchsorted(init, ub[:, 0], side="left").clip(0, K - 1)
        exercised = np.zeros(hi - lo, dtype=bool)
        ex = ex_idx[lo:hi]
        ex[:] = N       # safety net; switch_prob forces exercise at N
        for n in range(N):
            state_idx[lo:hi, n] = s
            switch = ~exercised & (ub[:, 2 * n + 1] < model.switch_prob[s, n])
            ex[switch] = n + 1
            exercised |= switch
            if n == N - 1:
                break
            row = s + K * exercised
            draw = ub[:, 2 * n + 2]
            s = lut[n][row, (draw * LOOKUP_BUCKETS).astype(np.intp)]
            amb = np.flatnonzero(s < 0)
            if amb.size:
                below = cum[n][row[amb]] < draw[amb, None]
                s[amb] = np.minimum(below.sum(axis=1), K - 1)
    return PathBatch(model.states[state_idx], state_idx, ex_idx)


def mc_price(model: RegimeModel, a: AmericanPayoffGrid, paths, seed):
    """Monte Carlo estimate of the model's American value and its stderr."""
    batch = simulate(model, paths, seed)
    pay = np.stack([a.interp(model.states, n)
                    for n in range(model.num_maturities)], axis=1)
    cols = batch.exercise_index - 1
    vals = pay[batch.state_idx[np.arange(len(batch)), cols], cols]
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(len(batch)))
    return est, stderr


# ---------------------------------------------------------------------------
# hedges


@dataclass
class HedgeStrategy:
    """Semi-static hedge: static claim values per maturity (E1 while
    holding, E2 once exercised, V for the exercise claim) and dynamic
    holdings per step (D1 holding, D2 exercised).

    Matrices carry one row per lattice state, plus the tail-slope row in
    the extended variant.  ``growth_rate`` bounds the payoff's slope at
    large prices; ``beta`` are the free top-strike calls that extend a
    zero-tail hedge to unbounded paths.
    """

    states: np.ndarray              # lattice (J+1,), no tail row
    maturities: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    V: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    extended: bool = False
    growth_rate: float = 0.0
    beta: np.ndarray = None         # bounded variant only, filled on creation

    @property
    def num_lattice(self):
        return len(self.states)

    def cost(self, p_hat) -> float:
        """Static setup cost against a mass matrix (marginals, with the
        top-call row appended in the extended variant)."""
        p_hat = np.asarray(p_hat, dtype=float)
        N = len(self.maturities)
        total = 0.0
        for n in range(N - 1):
            total += float(self.E1[:, n] @ p_hat[:, n])
        for n in range(1, N):
            total += float(self.E2[:, n] @ p_hat[:, n])
        total += float(self.V[:, N - 1] @ p_hat[:, N - 1])
        return total


def linear_interp(xs, values, x, tail_slope=None):
    """Piecewise-linear interpolation on the lattice; with a tail slope it
    extends linearly beyond the last knot, otherwise the domain is capped."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise CertifyError("interpolation below 0")
    if tail_slope is None:
        if np.any(x > xs[-1] * (1 + 1e-12)):
            raise CertifyError("interpolation beyond the top strike")
        return np.interp(x, xs, values)
    inside = np.interp(np.minimum(x, xs[-1]), xs, values)
    return inside + tail_slope * np.maximum(x - xs[-1], 0.0)


def mixed_interp(xs, d_row, h_row, x):
    """Hedge-ratio interpolation between lattice ratios.

    On (x_j, x_{j+1}) the ratio is d_j if d_j does not exceed the secant
    slope u_j of h; else d_{j+1} if that stays at or above u_j; else u_j
    itself.  At knots it is the knot ratio d_j.  h_row is the static-claim
    row whose secants bound admissible ratios (E1, or E1 - V).
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
    u = (h[j + 1] - h[j]) / (xs[j + 1] - xs[j])
    dj, dj1 = d[j], d[j + 1]
    interval = np.where(dj <= u, dj, np.where(dj1 >= u, dj1, u))
    out = np.where(x == xs[j], dj, interval)
    out = np.where(x == xs[-1], d[-1], out)
    return float(out[0]) if scalar else out


def _mixed_inf(xs, d_row, h_row):
    """Exact infimum of the (piecewise constant) mixed interpolation."""
    u = np.diff(h_row) / np.diff(xs)
    dj, dj1 = d_row[:-1], d_row[1:]
    interval = np.where(dj <= u, dj, np.where(dj1 >= u, dj1, u))
    return float(min(d_row.min(), interval.min()))


def tail_hedge_ratio(hedge: HedgeStrategy, n, delta):
    """Constant hedge ratio above the top strike in the extended variant:
    the lattice-edge ratio capped by the static rows' tail slopes."""
    if not hedge.extended:
        raise CertifyError("tail ratios need an extended-variant hedge")
    J = hedge.num_lattice - 1
    if delta == 1:
        return min(hedge.D1[J, n - 1], hedge.E1[J + 1, n - 1])
    return min(hedge.D2[J, n - 1], hedge.E1[J + 1, n - 1] - hedge.V[J + 1, n - 1])


def tail_calls(hedge: HedgeStrategy, R) -> np.ndarray:
    """Free top-strike calls that close the hedge on unbounded paths.

    Maturity-n coefficient: the negative parts of the worst ratios of the
    previous step (which may force buying into a rally just witnessed) plus
    the carried ratio budget at the top state for the current step.
    """
    if hedge.extended:
        raise CertifyError("tail calls apply to the zero-tail variant only")
    xs = hedge.states
    J = len(xs) - 1
    N = len(hedge.maturities)
    beta = np.zeros(N)
    for n in range(1, N + 1):
        b = 0.0
        if n >= 2:
            i1 = _mixed_inf(xs, hedge.D1[:, n - 2], hedge.E1[:, n - 2])
            i2 = _mixed_inf(xs, hedge.D2[:, n - 2],
                            hedge.E1[:, n - 2] - hedge.V[:, n - 2])
            b += max(-i1, 0.0) + max(-(i2 + R), 0.0)
        if n <= N - 1:
            # falls from above the top strike: only positive carried ratios
            # lose money on the way down, so negative ones need no cover
            b += (max(hedge.D1[J, n - 1], 0.0)
                  + max(hedge.D2[J, n - 1] + R, 0.0))
        beta[n - 1] = b
    return beta


def hedge_from_dual(blocks, surface: market.CallSurface,
                    a: AmericanPayoffGrid, extended) -> HedgeStrategy:
    """HedgeStrategy from dual values (E1, E2, V, D1, D2), with the tail
    calls of the bounded variant."""
    hedge = HedgeStrategy(surface.states, surface.maturities.copy(), *blocks,
                          extended=extended, growth_rate=a.growth_rate)
    if not extended:
        hedge.beta = tail_calls(hedge, hedge.growth_rate)
        if hedge.beta.min() < -1e-9:
            raise CertifyError("negative tail-call coefficient")
        hedge.beta = np.maximum(hedge.beta, 0.0)
    return hedge


def hedge_scale(hedge: HedgeStrategy):
    """Magnitude reference for slack tolerances."""
    return 1.0 + max(np.abs(hedge.E1).max(), np.abs(hedge.E2).max(),
                     np.abs(hedge.V).max(),
                     np.abs(hedge.D1).max() * hedge.states[-1],
                     np.abs(hedge.D2).max() * hedge.states[-1])


def grid_feasibility(hedge: HedgeStrategy, a: AmericanPayoffGrid) -> float:
    """Worst residual of the hedge's defining grid inequalities (negative
    means violated).  This audits parts of the certificate — exercise
    coverage at intermediate maturities — that no path-wise replay of the
    terminal value can see."""
    x = hedge.states
    J = len(x) - 1
    N = len(hedge.maturities)
    E1, E2, V, D1, D2 = hedge.E1, hedge.E2, hedge.V, hedge.D1, hedge.D2
    worst = np.inf
    lat = slice(0, J + 1)
    worst = min(worst, float((V[lat, :] - a.values).min()))
    if hedge.extended:
        worst = min(worst, float((V[J + 1, :] - a.tail_slopes).min()))
    dx = x[None, :] - x[:, None]            # dx[j, k] = x_k - x_j
    for n in range(N - 1):
        r1 = (E1[lat, n, None] + E2[None, lat, n + 1] + dx * D1[lat, n, None])
        r2 = (E1[lat, n, None] + E2[None, lat, n + 1] + dx * D2[lat, n, None]
              - V[lat, n, None] + V[None, lat, n + 1])
        worst = min(worst, float(r1.min()), float(r2.min()))
        if hedge.extended:
            T = J + 1
            worst = min(
                worst,
                float(E1[T, n] - D1[T, n]),
                float((E2[T, n + 1] + D1[lat, n]).min()),
                float(E1[T, n] + E2[T, n + 1]),
                float(E1[T, n] - D2[T, n] - V[T, n]),
                float((E2[T, n + 1] + D2[lat, n] + V[T, n + 1]).min()),
                float(E1[T, n] + E2[T, n + 1] - V[T, n] + V[T, n + 1]),
            )
    return worst


def _static_rows(hedge: HedgeStrategy):
    """Tail slopes of each static leg beyond the top strike."""
    N = len(hedge.maturities)
    if hedge.extended:
        e1s = hedge.E1[-1, :]
        e2s = hedge.E2[-1, :]
        vs = hedge.V[-1, :]
        lat = slice(0, hedge.num_lattice)
        return hedge.E1[lat], hedge.E2[lat], hedge.V[lat], e1s, e2s, vs
    zeros = np.zeros(N)
    return (hedge.E1, hedge.E2, hedge.V, zeros, zeros,
            np.full(N, hedge.growth_rate))


def _ratio(hedge, delta, n, y):
    """Hedge ratio d~ at prices y for step n (1-based), vectorized."""
    xs = hedge.states
    D = hedge.D1 if delta == 1 else hedge.D2
    if delta == 1:
        h = hedge.E1[: len(xs), n - 1]
    else:
        h = hedge.E1[: len(xs), n - 1] - hedge.V[: len(xs), n - 1]
    inside = mixed_interp(xs, D[: len(xs), n - 1], h, np.minimum(y, xs[-1]))
    if hedge.extended:
        tail = tail_hedge_ratio(hedge, n, delta)
    else:
        tail = D[len(xs) - 1, n - 1]
    return np.where(np.atleast_1d(y) > xs[-1], tail, np.atleast_1d(inside))


def _gains_components(hedge: HedgeStrategy, Y):
    """Exercise-independent pieces of the terminal hedge value.

    Returns (static, leg1, leg2): exercising in interval m (1-based) pays
    static + sum(leg1[:, :m-1]) + sum(leg2[:, m-1:]).
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    P, N = Y.shape
    xs = hedge.states
    xJ = xs[-1]
    E1, E2, V, e1s, e2s, vs = _static_rows(hedge)
    R = hedge.growth_rate

    static = np.zeros(P)
    for n in range(N):
        y = Y[:, n]
        static += linear_interp(xs, E1[:, n], y, tail_slope=e1s[n])
        static += linear_interp(xs, E2[:, n], y, tail_slope=e2s[n])
    static += linear_interp(xs, V[:, N - 1], Y[:, N - 1],
                            tail_slope=vs[N - 1])
    if not hedge.extended:
        static += R * np.maximum(Y[:, N - 1] - xJ, 0.0)

    leg1 = np.zeros((P, max(N - 1, 0)))
    leg2 = np.zeros((P, max(N - 1, 0)))
    for n in range(1, N):
        dy = Y[:, n] - Y[:, n - 1]
        leg1[:, n - 1] = dy * _ratio(hedge, 1, n, Y[:, n - 1])
        leg2[:, n - 1] = dy * _ratio(hedge, 2, n, Y[:, n - 1])
        if not hedge.extended:
            up_now = np.maximum(Y[:, n - 1] - xJ, 0.0)
            up_next = np.maximum(Y[:, n] - xJ, 0.0)
            i1 = _mixed_inf(xs, hedge.D1[:, n - 1], hedge.E1[:, n - 1])
            i2 = _mixed_inf(xs, hedge.D2[:, n - 1],
                            hedge.E1[:, n - 1] - hedge.V[:, n - 1])
            # only positive carried top-state ratios lose on a fall from
            # above the top strike (mirrors the tail_calls coefficients)
            static += (max(hedge.D1[-1, n - 1], 0.0) * up_now
                       + max(-i1, 0.0) * up_next)
            static += (max(hedge.D2[-1, n - 1] + R, 0.0) * up_now
                       + max(-(i2 + R), 0.0) * up_next)
    return static, leg1, leg2


def gains(hedge: HedgeStrategy, path: PricePath, a: AmericanPayoffGrid,
          s0=None) -> float:
    """Terminal value of the hedge along one path for its exercise."""
    static, leg1, leg2 = _gains_components(hedge, path.values[None, :])
    N = len(hedge.maturities)
    if path.exercise_index is not None:
        m = path.exercise_index
        extra = 0.0
    else:
        rho = path.exercise_time
        mats = hedge.maturities
        if rho <= 0 or rho > mats[-1]:
            raise CertifyError("exercise time outside (0, T]")
        m0 = int(np.searchsorted(mats, rho, side="left"))   # rho in (t_m0, t_m0+1]
        m = m0 + 1
        if rho == mats[m0]:
            extra = 0.0
        else:
            # between maturities: short the payoff's right slope at the
            # standing price, unwound at the next maturity
            if m0 == 0 and s0 is None:
                raise CertifyError("s0 needed for exercise before t_1")
            y_prev = float(s0) if m0 == 0 else float(path.values[m0 - 1])
            slope = a.right_subgradient(y_prev, m0)
            extra = -slope * (path.values[m0] - y_prev)
    total = static[0] + leg1[0, : m - 1].sum() + leg2[0, m - 1:].sum() + extra
    return float(total)


@dataclass
class VerificationReport:
    mode: str
    trials: int
    min_slack: float
    grid_slack: float
    worst_path: np.ndarray
    worst_exercise: object
    elapsed: float
    skipped: bool = False

    @property
    def passed(self):
        return not self.skipped and self.min_slack >= -1e-6


def _slack_over_exercise(hedge, a, Y, payoff_vals=None):
    """Min over on-grid exercise dates of hedge value minus payoff."""
    static, leg1, leg2 = _gains_components(hedge, Y)
    P, N = Y.shape
    pre1 = np.concatenate([np.zeros((P, 1)), np.cumsum(leg1, axis=1)], axis=1)
    suf2 = np.concatenate([np.cumsum(leg2[:, ::-1], axis=1)[:, ::-1],
                           np.zeros((P, 1))], axis=1)
    best = np.full(P, np.inf)
    best_m = np.zeros(P, dtype=np.int64)
    for m in range(1, N + 1):
        g = static + pre1[:, m - 1] + suf2[:, m - 1]
        pay = a.interp(Y[:, m - 1], m - 1)
        slack = g - pay
        upd = slack < best
        best[upd] = slack[upd]
        best_m[upd] = m
    return best, best_m


def verify_superreplication(hedge: HedgeStrategy, a: AmericanPayoffGrid,
                            mode="interval-random", trials=10000, seed=0,
                            payoff_fn=None, s0=None,
                            enumeration_cap=10 ** 6) -> VerificationReport:
    """Replay the hedge against paths and exercise rules.

    Modes: lattice-exhaustive (every lattice path, every exercise date),
    interval-random (uniform paths in [0, x_J]), full-line-random (walks
    with excursions beyond x_J), continuous-exercise-random (random paths
    with exercise times between maturities).  The worst grid-inequality
    residual is folded into the reported slack so that certificates broken
    at nodes the paths cannot see still fail.
    """
    t0 = time.time()
    xs = hedge.states
    N = len(hedge.maturities)
    K = len(xs)
    rng = np.random.default_rng(np.random.Philox(seed))
    gslack = grid_feasibility(hedge, a)

    if mode == "lattice-exhaustive":
        if K ** N > enumeration_cap:
            return VerificationReport(mode, 0, np.nan, gslack, None, None,
                                      time.time() - t0, skipped=True)
        idx = np.stack(np.unravel_index(np.arange(K ** N), (K,) * N), axis=1)
        Y = xs[idx]
        best, best_m = _slack_over_exercise(hedge, a, Y)
        trials_done = Y.shape[0] * N
    elif mode in ("interval-random", "full-line-random"):
        if mode == "interval-random":
            Y = rng.uniform(0.0, xs[-1], size=(trials, N))
        else:
            Y = _full_line_paths(rng, trials, N, xs[-1],
                                 s0 if s0 is not None else xs[-1] / 2.0)
        best, best_m = _slack_over_exercise(hedge, a, Y)
        trials_done = trials * N
    elif mode == "continuous-exercise-random":
        Y = _full_line_paths(rng, trials, N, xs[-1],
                             s0 if s0 is not None else xs[-1] / 2.0)
        best, best_m = _continuous_slack(hedge, a, Y, rng, payoff_fn, s0)
        trials_done = trials
    else:
        raise CertifyError("unknown verification mode %r" % mode)

    worst = int(np.argmin(best))
    report = VerificationReport(mode, trials_done,
                                float(min(best[worst], gslack)), float(gslack),
                                Y[worst].copy(), best_m[worst],
                                time.time() - t0)
    return report


def _full_line_paths(rng, trials, N, xJ, s0):
    """Multiplicative walks from s0; one path in ten gets excursions above
    the top strike so tail legs are actually exercised."""
    steps = rng.normal(size=(trials, N))
    sig = 0.7
    Y = s0 * np.exp(np.cumsum(sig * steps - 0.5 * sig ** 2, axis=1))
    Y = np.minimum(Y, 50.0 * xJ)
    burst = rng.random(trials) < 0.1
    where = rng.random((trials, N)) < 0.5
    scale = 1.0 + rng.exponential(size=(trials, N))
    Y = np.where((burst[:, None] & where), xJ * scale, Y)
    return Y


def _continuous_slack(hedge, a, Y, rng, payoff_fn, s0):
    """Vectorized slack for one random exercise time per path.

    The path holds its previous maturity's value until the exercise time;
    the hedge adds a short position of the payoff's right slope there,
    unwound at the next maturity.
    """
    P, N = Y.shape
    mats = hedge.maturities
    rho = rng.uniform(0.0, mats[-1], size=P)
    rho = np.where(rho <= 0.0, mats[-1] / 2.0, rho)
    s0 = float(s0) if s0 is not None else float(hedge.states[-1]) / 2.0

    static, leg1, leg2 = _gains_components(hedge, Y)
    pre1 = np.concatenate([np.zeros((P, 1)), np.cumsum(leg1, axis=1)], axis=1)
    suf2 = np.concatenate([np.cumsum(leg2[:, ::-1], axis=1)[:, ::-1],
                           np.zeros((P, 1))], axis=1)
    m0 = np.searchsorted(mats, rho, side="left")    # rho in (t_m0, t_{m0+1}]
    rows = np.arange(P)
    g = static + pre1[rows, m0] + suf2[rows, m0]

    y_prev = np.where(m0 == 0, s0, Y[rows, np.maximum(m0 - 1, 0)])
    on_grid = rho == mats[np.minimum(m0, N - 1)]
    slack = np.empty(P)
    for n in range(N):
        sel = m0 == n
        if not np.any(sel):
            continue
        slope = a.right_subgradient(y_prev[sel], n)
        extra = np.where(on_grid[sel], 0.0,
                         -slope * (Y[sel, n] - y_prev[sel]))
        x_ex = np.where(on_grid[sel], Y[sel, n], y_prev[sel])
        if payoff_fn is not None:
            pay = evaluate(payoff_fn, x_ex, rho[sel])
        else:
            pay = a.interp(x_ex, n)
        slack[sel] = g[sel] + extra - pay
    return slack, rho
