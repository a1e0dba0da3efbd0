"""Certificates for the bound: extremal models and super-replicating hedges.

The primal optimum becomes a RegimeModel — a bivariate Markov chain of
(price, regime) whose first regime-switch time is the optimal exercise —
that can be simulated and Monte-Carlo priced.  The dual optimum becomes a
HedgeStrategy — static claims E1/E2/V plus dynamic holdings D1/D2, each
with a tail row of slopes above the top strike — whose terminal value is
evaluated over batches of paths, one table of values per exercise
date, on the lattice, on the interval [0, x_J], on the whole half-line, and
for exercise times between maturities.  A batch of prices is placed on the
lattice by one search, and every leg, hedge ratio and payoff slope is then
read from per-interval tables.  Verification never trusts the LP: it
replays the certificates against their defining inequalities (one broadcast
over all steps) and against sampled or enumerated paths, and the replay pays
exactly the tail row that the hedge states.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import market
from .payoff import AmericanPayoffGrid, evaluate

# an LP mass may be negative by up to CLIP_TOL before it is clipped to 0; a
# model's outflows and inflows may miss its marginals by up to BALANCE_TOL
CLIP_TOL = 1e-7
BALANCE_TOL = 1e-8
# Monte Carlo kernel and replays: paths per block of work, and uniform
# buckets of the inverse-CDF lookup (a power of two, so floor(u * B) is
# exact).  Blocks run on several threads, and glibc keeps each thread's
# freed blocks in its own arena: 2**16-path blocks raised the process's
# peak memory by a fifth, 2**14-path blocks do not, and run as fast.
SIMULATION_BLOCK = 2 ** 14
LOOKUP_BUCKETS = 4096
# the lattice-exhaustive replay is skipped above this many paths
ENUMERATION_CAP = 10 ** 6


class CertifyError(Exception):
    pass


# ---------------------------------------------------------------------------
# models


@dataclass
class RegimeModel:
    """Simulable price/regime chain on a genuine state lattice.

    F[j, n] is the mass of paths that exercise at state j at maturity n
    (the regime-1 inflow that does not move on); G1/G2[j, k, n] are joint
    masses of moves j -> k between maturities n and n+1 while holding / after
    exercising; switch_prob[j, n] is the conditional probability that a
    still-holding path arriving at state j exercises there.  marginals[:, n]
    is the law of the price at each maturity.  The lattice ends in one far
    state that carries the tail mass, none on a zero-tail surface.
    """

    states: np.ndarray
    maturities: np.ndarray
    s0: float
    F: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    marginals: np.ndarray
    switch_prob: np.ndarray

    @property
    def num_states(self):
        return len(self.states)

    @property
    def num_maturities(self):
        return len(self.maturities)


@dataclass
class PathBatch:
    """Simulated paths: state_idx[p, n] into ``states`` at maturity n+1;
    1-based exercise index.  Both hold narrow integers, and state_idx is
    the transpose of maturity-major storage.  Prices are looked up only
    when asked for."""

    states: np.ndarray
    state_idx: np.ndarray
    exercise_index: np.ndarray

    @property
    def values(self):
        """Prices, values[p, n] at maturity n+1; a new paths x N array."""
        return self.states[self.state_idx]

    def __len__(self):
        return self.state_idx.shape[0]


def _clip_mass(arr):
    worst = float(arr.min()) if arr.size else 0.0
    if worst < -CLIP_TOL:
        raise CertifyError("negative mass %.3e in LP solution" % worst)
    return np.maximum(arr, 0.0)


def _conservation_switch_prob(G1, marginals):
    """The pair (switch_prob, F): F[j, n] is the regime-1 inflow at state j,
    maturity n, that does not move on (inflow minus regime-1 outflow,
    clipped at 0), and switch_prob is F / inflow wherever the inflow is
    positive.

    Inflow at the first maturity is the whole marginal (paths start in
    regime 1).  Nothing moves on from the last maturity, so every surviving
    path exercises there.
    """
    M, N = marginals.shape
    in1 = np.concatenate([marginals[:, :1], G1.sum(axis=0)], axis=1)
    # one reduction per step: summing k over the whole (j, k, n) array
    # changes the last bits of the outflow
    out1 = np.stack([G1[:, :, n].sum(axis=1) for n in range(N - 1)]
                    + [np.zeros(M)], axis=1)
    F = np.clip(in1 - out1, 0.0, None)
    return np.divide(F, in1, out=np.zeros_like(F), where=in1 > 0), F


def _check_model(model: RegimeModel, top_strike):
    x = model.states
    p = model.marginals
    M, N = model.F.shape
    # drift tolerance scales with the traded lattice, not the far state
    span = max(top_strike, 1.0)
    for n in range(N - 1):
        out = model.G1[:, :, n].sum(axis=1) + model.G2[:, :, n].sum(axis=1)
        if np.max(np.abs(out - p[:, n])) > BALANCE_TOL:
            raise CertifyError("outflow mismatch at step %d" % (n + 1))
        infl = model.G1[:, :, n].sum(axis=0) + model.G2[:, :, n].sum(axis=0)
        if np.max(np.abs(infl - p[:, n + 1])) > BALANCE_TOL:
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
    w = 1.0 / (xi - states[-1])
    T = J + 1

    def fold(G):
        H = G.copy()
        H[:J, J] = G[:J, J] - G[:J, T] * w
        H[J, J] = G[J, J] - (G[J, T] + G[T, T]) * w
        H[: J + 1, T] = G[: J + 1, T] * w
        H[T, : J + 1] = G[T, : J + 1] * w
        H[T, T] = G[T, T] * w
        return H

    p = p_hat.copy()
    p[J, :] = p_hat[J, :] - p_hat[T, :] * w
    p[T, :] = p_hat[T, :] * w
    return fold(G1), fold(G2), p


def model_from_primal(F, G1, G2, surface: market.CallSurface,
                      p_hat) -> RegimeModel:
    """A checked, simulable RegimeModel from the primal's masses (F: M x N,
    G1 and G2: M x M x (N-1)); p_hat is the LP's mass matrix, whose last
    row, past the surface's lattice, is the tail row.  The model's states
    are the lattice and the far state xi.
    """
    F, G1, G2 = _clip_mass(F), _clip_mass(G1), _clip_mass(G2)
    states = surface.states
    # far enough out that the fold-in corrections (~1/xi) drop below the
    # clip and balance tolerances even where the top strike received no
    # direct mass, and past x_J + p_hat[T] / p_hat[J], where the folded
    # top-state mass p_hat[J] - p_hat[T] / (xi - x_J) reaches 0
    ratio = p_hat[-1] / np.where(p_hat[-2] > 0, p_hat[-2], np.inf)
    xi = max(1e9 * states[-1], 1.5 * (states[-1] + ratio.max()))
    G1, G2, p = _companion_from_extended(G1, G2, p_hat, states, xi)
    G1, G2 = _clip_mass(G1), _clip_mass(G2)
    if p.min() < -1e-9:
        raise CertifyError("companion marginal went negative")
    p = np.maximum(p, 0.0)
    p /= p.sum(axis=0, keepdims=True)
    states = np.concatenate([states, [xi]])
    # The LP's own F depends on the optimal vertex: where row (e) is slack
    # it can omit exercised paths.  The regime-1 inflow that does not move
    # on records every one of them.
    q, F = _conservation_switch_prob(G1, p)
    model = RegimeModel(states, surface.maturities.copy(), surface.s0,
                        F, G1, G2, p, q)
    _check_model(model, surface.strikes[-1])
    return model


def _bucket_lut(table):
    """Bucket table of inverse-CDF lookups into the cumulative rows of table.

    A draw u in row r maps to min(#{k : table[r, k] < u}, K - 1).  Entry
    r * B + b is that state for every u in [b/B, (b+1)/B) when one state
    serves the whole bucket, and -1 otherwise; rows that are not
    nondecreasing are -1 throughout.  Entries are narrow signed integers.
    """
    K = table.shape[1]
    edges = np.arange(LOOKUP_BUCKETS + 1) / LOOKUP_BUCKETS     # exact dyadics
    # on a nondecreasing row, the count below u lies between the counts
    # below the edges of u's bucket; clipping to K - 1 keeps that order
    cnt = np.stack([np.searchsorted(row, edges, side="left")
                    for row in table]).clip(max=K - 1)
    lut = np.where(cnt[:, :-1] == cnt[:, 1:], cnt[:, :-1], -1)
    lut[~(np.diff(table, axis=1) >= 0).all(axis=1)] = -1
    return lut.astype(np.min_scalar_type(-K)).ravel()


def _step_tables(model: RegimeModel):
    """Per-step inverse-CDF tables of the conditional kernels.

    cum[n] is (2K, K): row s holds the cumulative regime-1 kernel out of
    state s between maturities n and n+1, row K + s the regime-2 kernel.
    lut[n] is ``_bucket_lut(cum[n])``.
    """
    K, N = model.num_states, model.num_maturities
    cum = []
    for n in range(N - 1):
        table = np.empty((2 * K, K))
        for r, G in enumerate((model.G1, model.G2)):
            rowsum = G[:, :, n].sum(axis=1, keepdims=True)
            ker = np.divide(G[:, :, n], rowsum, out=np.zeros_like(G[:, :, n]),
                            where=rowsum > 0)
            table[r * K:(r + 1) * K] = np.cumsum(ker, axis=1)
        cum.append(table)
    return cum, [_bucket_lut(table) for table in cum]


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_blocks(work, rows):
    """Call work(lo, hi) on every SIMULATION_BLOCK-row block [lo, hi) of
    range(rows); work writes only its own rows.

    The calling thread and min(CPUs, blocks) - 1 helper threads take block
    starts from one shared iterator, so the result does not depend on how
    many threads run.  The helpers are joined before this returns, and an
    error raised in one of them is raised here.
    """
    starts = iter(range(0, rows, SIMULATION_BLOCK))
    lock = threading.Lock()

    def run():
        while True:
            with lock:
                lo = next(starts, None)
            if lo is None:
                return
            work(lo, min(lo + SIMULATION_BLOCK, rows))

    helpers = min(_cpu_count(), -(-rows // SIMULATION_BLOCK)) - 1
    if helpers < 1:
        return run()
    with ThreadPoolExecutor(helpers) as pool:
        futures = [pool.submit(run) for _ in range(helpers)]
        run()
    for future in futures:
        future.result()


def simulate(model: RegimeModel, paths, seed) -> PathBatch:
    """Exact-marginal simulation; exercise at the first regime switch.

    Path i uses row i of one Philox(seed) stream of uniforms of width 2N:
    column 0 picks the first state from the first marginal, column 2n+1
    decides the switch at maturity n, and column 2n+2 the move from n to
    n+1 (regime 2 once switched).  The rows are walked SIMULATION_BLOCK at
    a time, in parallel: Philox is counter-based, and each counter gives
    four of the stream's 64-bit words, one per uniform, so the block that
    starts at row lo draws its rows from a Philox(seed) advanced by
    lo * 2N / 4 counters.  Those are exactly the rows of one (paths, 2N)
    draw, and the paths depend only on (model, paths, seed).  The first
    state and every move are inverse-CDF lookups: a bucket table answers
    most draws, and the few that fall in a bucket containing a step of the
    CDF are searched for on their own row.  States are stored
    maturity-major in the narrowest signed integer type that holds them,
    and no temporary grows with paths x states.

    The walk is thousands of short numpy calls, each of which gives up the
    GIL and waits to get it back: while another thread of the process runs
    pure Python, 2*10**5 headline paths took 1.7-1.8 s instead of 0.03 s
    (2 vCPUs).
    """
    K, N = model.num_states, model.num_maturities
    B = LOOKUP_BUCKETS
    cum, lut = _step_tables(model)
    init = np.cumsum(model.marginals[:, 0])
    init_lut = _bucket_lut(init[None, :])
    q = np.ascontiguousarray(model.switch_prob.T)

    states = np.empty((N, paths), dtype=np.min_scalar_type(-K))
    # safety net; switch_prob forces exercise at N
    ex_idx = np.full(paths, N, dtype=np.min_scalar_type(-N - 1))

    def walk(lo, hi):
        # lo * 2N is a multiple of 4, as SIMULATION_BLOCK * 2 is
        bits = np.random.Philox(seed).advance(lo * 2 * N // 4)
        ub = np.random.Generator(bits).random((hi - lo, 2 * N))
        s = init_lut.take((ub[:, 0] * B).astype(np.intp))
        amb = np.flatnonzero(s < 0)
        if amb.size:
            s[amb] = np.searchsorted(init, ub[amb, 0],
                                     side="left").clip(0, K - 1)
        exercised = np.zeros(hi - lo, dtype=bool)
        ex = ex_idx[lo:hi]
        for n in range(N):
            states[n, lo:hi] = s
            row = s.astype(np.intp)
            switch = ub[:, 2 * n + 1] < q[n].take(row)
            switch &= ~exercised
            np.putmask(ex, switch, n + 1)
            exercised |= switch
            if n == N - 1:
                break
            draw = ub[:, 2 * n + 2]
            row += K * exercised        # a masked add is four times slower
            key = row * B
            key += (draw * B).astype(np.intp)
            s = lut[n].take(key)
            amb = np.flatnonzero(s < 0)
            if amb.size:
                below = cum[n][row[amb]] < draw[amb, None]
                s[amb] = np.minimum(below.sum(axis=1), K - 1)

    _in_blocks(walk, paths)
    return PathBatch(model.states, states.T, ex_idx)


def _payoff_table(model: RegimeModel, a: AmericanPayoffGrid):
    """The payoff at each of the model's states, one array per maturity;
    the payoff must have the model's maturities."""
    if not np.array_equal(a.maturities, model.maturities):
        raise CertifyError("payoff and model have different maturities")
    return [a.interp(model.states, n) for n in range(model.num_maturities)]


def model_value(model: RegimeModel, a: AmericanPayoffGrid) -> float:
    """Exact American value of the model, the expectation that ``mc_price``
    estimates: each maturity's exercise masses F priced by the payoff at
    the model's states, the far state included."""
    return float(sum(model.F[:, n] @ pay
                     for n, pay in enumerate(_payoff_table(model, a))))


def mc_price(model: RegimeModel, a: AmericanPayoffGrid, paths, seed):
    """Monte Carlo estimate of the model's American value and its stderr."""
    if paths < 2:
        raise CertifyError("a Monte Carlo stderr needs at least 2 paths, "
                           "got %d" % paths)
    pay = _payoff_table(model, a)
    batch = simulate(model, paths, seed)
    states, ex = batch.state_idx.T, batch.exercise_index
    vals = np.empty(paths)

    def read(lo, hi):       # a block at a time: the index arrays stay small
        out = vals[lo:hi]
        for n, s in enumerate(states[:, lo:hi]):
            at = np.flatnonzero(ex[lo:hi] == n + 1)
            out[at] = pay[n].take(s.take(at))

    _in_blocks(read, paths)
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(paths))
    return est, stderr


# ---------------------------------------------------------------------------
# hedges


@dataclass
class HedgeStrategy:
    """Semi-static hedge: static claim values per maturity (E1 while
    holding, E2 once exercised, V for the exercise claim) and dynamic
    holdings per step (D1 holding, D2 exercised).

    Matrices carry one row per lattice state and the tail row T of slopes
    above the top strike: E1, E2 and V are (J+2) x N, D1 and D2
    (J+2) x (N-1).  ``growth_rate`` bounds the payoff's slope at large
    prices.  Blocks given on the lattice alone get the tail row that
    closes them on unbounded paths: V[T] = growth_rate,
    E1[T, n<N] = max(V[T, n], 0),
    E2[T, n+1] = max(-min_j D1[j, n], -min_j D2[j, n] - V[T, n+1], 0) and
    D1[T] = D2[T] = 0, which meet every tail row of ``grid_feasibility``.
    Every block must be finite.
    """

    states: np.ndarray              # lattice (J+1,), no tail row
    maturities: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    V: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    growth_rate: float = 0.0

    def __post_init__(self):
        K, N = len(self.states), len(self.maturities)
        M = K if np.ndim(self.E1) and len(self.E1) == K else K + 1
        for name, shape in (("E1", (M, N)), ("E2", (M, N)), ("V", (M, N)),
                            ("D1", (M, N - 1)), ("D2", (M, N - 1))):
            block = getattr(self, name)
            if np.shape(block) != shape:
                raise CertifyError("hedge block %s has shape %s, not %s"
                                   % (name, np.shape(block), shape))
            if not np.isfinite(block).all():
                raise CertifyError("non-finite value in the hedge's %s" % name)
        if M == K:
            D1, D2 = np.asarray(self.D1, float), np.asarray(self.D2, float)
            V = np.full(N, float(self.growth_rate))
            E1, E2 = np.zeros(N), np.zeros(N)
            E1[:-1] = np.maximum(V[:-1], 0.0)
            E2[1:] = np.maximum.reduce([-D1.min(axis=0),
                                        -D2.min(axis=0) - V[1:],
                                        np.zeros(N - 1)])
            for name, row in (("E1", E1), ("E2", E2), ("V", V),
                              ("D1", np.zeros(N - 1)), ("D2", np.zeros(N - 1))):
                setattr(self, name, np.vstack([getattr(self, name), row]))

    @property
    def num_lattice(self):
        return len(self.states)

    def cost(self, p_hat) -> float:
        """Static setup cost against the extended mass matrix (marginals
        and the top-call row)."""
        p_hat = np.asarray(p_hat, dtype=float)
        if p_hat.shape != self.V.shape:
            raise CertifyError("mass matrix has shape %s, the hedge needs %s"
                               % (p_hat.shape, self.V.shape))
        N = len(self.maturities)
        total = 0.0
        for n in range(N - 1):
            total += float(self.E1[:, n] @ p_hat[:, n])
        for n in range(1, N):
            total += float(self.E2[:, n] @ p_hat[:, n])
        total += float(self.V[:, N - 1] @ p_hat[:, N - 1])
        return total


def _interval_ratio(xs, d, h, j):
    """Ratio on the open interval (x_j, x_{j+1}): d_j if it does not exceed
    the secant slope u_j of h, else d_{j+1} if that stays at or above u_j,
    else u_j itself.  d and h may stack rows; j indexes their last axis."""
    u = (h[..., j + 1] - h[..., j]) / (xs[j + 1] - xs[j])
    dj, dj1 = d[..., j], d[..., j + 1]
    return np.where(dj <= u, dj, np.where(dj1 >= u, dj1, u))


def hedge_from_dual(blocks, surface: market.CallSurface,
                    a: AmericanPayoffGrid) -> HedgeStrategy:
    """HedgeStrategy from dual values (E1, E2, V, D1, D2), tail rows
    included."""
    return HedgeStrategy(surface.states, surface.maturities.copy(), *blocks,
                         growth_rate=a.growth_rate)


def hedge_scale(hedge: HedgeStrategy):
    """Magnitude reference for slack tolerances."""
    # D1/D2 are empty with a single maturity
    return 1.0 + max(np.abs(hedge.E1).max(), np.abs(hedge.E2).max(),
                     np.abs(hedge.V).max(),
                     np.abs(hedge.D1).max(initial=0.0) * hedge.states[-1],
                     np.abs(hedge.D2).max(initial=0.0) * hedge.states[-1])


def grid_feasibility(hedge: HedgeStrategy, a: AmericanPayoffGrid) -> float:
    """Worst residual of the hedge's defining grid inequalities (negative
    means violated).  This audits parts of the certificate — exercise
    coverage at intermediate maturities — that no path-wise replay of the
    terminal value can see."""
    x = hedge.states
    T = len(x)
    lat = slice(0, T)
    E1, E2, V, D1, D2 = hedge.E1, hedge.E2, hedge.V, hedge.D1, hedge.D2
    # axes (j, n, k): a move from state j at maturity n to state k at n + 1
    e1, e2 = E1[lat, :-1, None], E2[lat, 1:].T[None]
    v0, v1 = V[lat, :-1, None], V[lat, 1:].T[None]
    dx = (x[None, :] - x[:, None])[:, None, :]          # x_k - x_j
    t1, t2, tv0, tv1 = E1[T, :-1], E2[T, 1:], V[T, :-1], V[T, 1:]
    rows = [V[lat] - a.values,
            e1 + e2 + dx * D1[lat, :, None],
            e1 + e2 + dx * D2[lat, :, None] - v0 + v1,
            V[T] - a.tail_slopes,
            t1 - D1[T], t2 + D1[lat], t1 + t2,
            t1 - D2[T] - tv0, t2 + D2[lat] + tv1, t1 + t2 - tv0 + tv1]
    return min(float(r.min(initial=np.inf)) for r in rows)


def _brackets(xs, Y):
    """Where each price of Y (paths x N) sits on the lattice xs, found by
    one search.  Returns the pair (code, offset) of N x paths arrays, one
    row per maturity: code 2j for a price at the knot x_j and 2j + 1 for one
    inside (x_j, x_{j+1}) or, for j = J, above x_J; offset y - x_j.  The leg
    and ratio tables of the replay are indexed by these codes."""
    if Y.min() < 0:
        raise CertifyError("hedge replay at a negative price")
    j = np.searchsorted(xs, Y.T, side="right") - 1
    off = Y.T - xs[j]
    return 2 * j + (off != 0), off


def _leg_tables(xs, values, tail_slopes):
    """Slope and value by bracket code of each piecewise-linear column of
    values (K x C) on xs, continued above x_J with tail_slopes; one row
    per column.  A knot has slope 0, so every code interpolates as
    slope * offset + value, the arithmetic of np.interp."""
    K, C = values.shape
    slope = np.zeros((C, 2 * K))
    slope[:, 1:-1:2] = (np.diff(values, axis=0) / np.diff(xs)[:, None]).T
    slope[:, -1] = tail_slopes
    return slope, np.repeat(values.T, 2, axis=1)


def _leg(tables, at, n):
    """Column n of the legs in ``tables`` at the prices ``at`` brackets."""
    code, off = at
    slope, value = tables
    return slope[n][code[n]] * off[n] + value[n][code[n]]


def _ratio_table(hedge: HedgeStrategy, delta):
    """Hedge ratio in regime delta by step (rows) and bracket code.

    The ratios d and the static rows h whose secants bound them are (D1, E1)
    while holding and (D2, E1 - V) once exercised.  The table holds the knot
    ratio d_j at code 2j, ``_interval_ratio`` inside (x_j, x_{j+1}) and,
    above the top strike, d_J capped by the tail slope of h (a tie of zeros
    keeps d_J's sign)."""
    xs = hedge.states
    K = len(xs)
    E1 = hedge.E1[:, :-1]
    d, h = (hedge.D1, E1) if delta == 1 else (hedge.D2, E1 - hedge.V[:, :-1])
    table = np.empty((d.shape[1], 2 * K))
    table[:, 0::2] = d[:K].T
    table[:, 1:-1:2] = _interval_ratio(xs, d[:K].T, h[:K].T, np.arange(K - 1))
    table[:, -1] = np.minimum(h[K], d[K - 1])
    return table


def _exercise_values(hedge: HedgeStrategy, Y, at):
    """Terminal hedge value along each path of Y for each exercise date;
    ``at`` is ``_brackets(hedge.states, Y)``.

    Returns a (paths x N) table whose column m-1 is the value when the claim
    is exercised at maturity m: the static legs, the holding ratios D1 over
    the steps before m and the exercised ratios D2 from m on.  The tail
    rows hold the static legs' slopes above x_J.
    """
    P, N = Y.shape
    xs = hedge.states
    K = len(xs)
    e1, e2, v = (_leg_tables(xs, M[:K], M[K])
                 for M in (hedge.E1, hedge.E2, hedge.V))

    static = np.zeros(P)
    for n in range(N):
        static += _leg(e1, at, n)
        static += _leg(e2, at, n)
    static += _leg(v, at, N - 1)

    # gains of the holding ratios over the steps before each exercise date
    # and of the exercised ratios from it on, summed in np.cumsum's order
    dy = [Y[:, n + 1] - Y[:, n] for n in range(N - 1)]
    r1, r2 = _ratio_table(hedge, 1), _ratio_table(hedge, 2)
    code = at[0]
    pre1 = [0.0, *accumulate(d * r1[n][code[n]] for n, d in enumerate(dy))]
    suf2 = [*accumulate(dy[n] * r2[n][code[n]]
                        for n in reversed(range(N - 1)))][::-1] + [0.0]
    values = np.empty((P, N))
    for m in range(N):
        values[:, m] = static + pre1[m] + suf2[m]
    return values


@dataclass
class VerificationReport:
    mode: str
    trials: int
    min_slack: float
    grid_slack: float
    worst_path: np.ndarray
    worst_exercise: object
    skipped: bool = False


def _slack_over_exercise(hedge, a, Y):
    """Min over on-grid exercise dates of hedge value minus payoff, and the
    1-based date that attains it (the earliest one on ties).  The payoff is
    read at the hedge's brackets, on the hedge's lattice; the paths are
    replayed in blocks, in parallel."""
    pay = _leg_tables(a.states, a.values, a.tail_slopes)
    best = np.empty(len(Y))
    best_m = np.empty(len(Y), dtype=np.intp)

    def replay(lo, hi):
        y = Y[lo:hi]
        at = _brackets(hedge.states, y)
        slack = _exercise_values(hedge, y, at)
        for n in range(Y.shape[1]):
            slack[:, n] -= _leg(pay, at, n)
        m = np.argmin(slack, axis=1)
        best[lo:hi] = slack[np.arange(hi - lo), m]
        best_m[lo:hi] = m + 1

    _in_blocks(replay, len(Y))
    return best, best_m


def verify_superreplication(hedge: HedgeStrategy, a: AmericanPayoffGrid,
                            mode="interval-random", trials=10000, seed=0,
                            payoff_fn=None, s0=None) -> VerificationReport:
    """Replay the hedge against paths and exercise rules.

    Modes: lattice-exhaustive (every lattice path, every exercise date),
    interval-random (uniform paths in [0, x_J]), full-line-random (walks
    with excursions beyond x_J), continuous-exercise-random (random paths
    with exercise times between maturities).  The worst grid-inequality
    residual is folded into the reported slack so that certificates broken
    at nodes the paths cannot see still fail.  Every mode reads the payoff
    at the hedge's brackets, so the two must share one lattice and one set
    of maturities; the exhaustive mode enumerates at most ENUMERATION_CAP
    paths.  The full-line and continuous-exercise paths start at s0
    (default x_J / 2); the replays of one int seed share one draw
    (``_shared_full_line_paths``).
    """
    if not np.array_equal(a.states, hedge.states):
        raise CertifyError("payoff and hedge are on different lattices")
    if not np.array_equal(a.maturities, hedge.maturities):
        raise CertifyError("payoff and hedge have different maturities")
    xs = hedge.states
    N = len(hedge.maturities)
    K = len(xs)
    s0 = float(s0 if s0 is not None else xs[-1] / 2.0)
    if not 0 <= s0 < np.inf:
        raise CertifyError("paths need a finite start s0 >= 0, got %r" % s0)
    if mode != "lattice-exhaustive" and trials < 1:
        raise CertifyError("%s replay needs at least 1 trial, got %d"
                           % (mode, trials))
    rng = np.random.default_rng(np.random.Philox(seed))
    gslack = grid_feasibility(hedge, a)

    if mode == "lattice-exhaustive":
        if K ** N > ENUMERATION_CAP:
            return VerificationReport(mode, 0, np.nan, gslack, None, None,
                                      skipped=True)
        idx = np.stack(np.unravel_index(np.arange(K ** N), (K,) * N), axis=1)
        Y = xs[idx]
        best, best_m = _slack_over_exercise(hedge, a, Y)
        trials_done = Y.shape[0] * N
    elif mode in ("interval-random", "full-line-random"):
        if mode == "interval-random":
            Y = rng.uniform(0.0, xs[-1], size=(trials, N))
        else:
            Y = _shared_full_line_paths(rng, seed, trials, N, xs[-1], s0)
        best, best_m = _slack_over_exercise(hedge, a, Y)
        trials_done = trials * N
    elif mode == "continuous-exercise-random":
        Y = _shared_full_line_paths(rng, seed, trials, N, xs[-1], s0)
        best, best_m = _continuous_slack(hedge, a, Y, rng, payoff_fn, s0)
        trials_done = trials
    else:
        raise CertifyError("unknown verification mode %r" % mode)

    worst = int(np.argmin(best))
    return VerificationReport(mode, trials_done,
                              float(min(best[worst], gslack)), float(gslack),
                              Y[worst].copy(), best_m[worst])


# The full-line and continuous-exercise replays of one int seed draw the same
# paths: (key, read-only paths, Philox state after the draw) of the last
# draw, taken out by the replay that reuses it.
_full_line_slot = None
_full_line_lock = threading.Lock()


def _shared_full_line_paths(rng, seed, trials, N, xJ, s0):
    """``_full_line_paths`` from rng, a fresh Philox(seed) generator, with
    the draw shared between two replays of one int seed.

    A draw is kept in one slot, read-only.  The next call that asks for the
    same paths takes it out and leaves rng where the draw left it, so what
    it draws next has the same bits; any other call draws its own paths.
    """
    global _full_line_slot
    if not isinstance(seed, int):
        return _full_line_paths(rng, trials, N, xJ, s0)
    key = (seed, trials, N, float(xJ), float(s0))
    with _full_line_lock:
        hit = _full_line_slot is not None and _full_line_slot[0] == key
        if hit:
            _, Y, state = _full_line_slot
            _full_line_slot = None
    if hit:
        rng.bit_generator.state = state
        return Y
    Y = _full_line_paths(rng, trials, N, xJ, s0)
    Y.flags.writeable = False
    with _full_line_lock:
        _full_line_slot = (key, Y, rng.bit_generator.state)
    return Y


def _full_line_paths(rng, trials, N, xJ, s0):
    """Multiplicative walks from s0; one path in ten gets excursions above
    the top strike so tail legs are actually exercised."""
    Y = rng.normal(size=(trials, N))
    sig = 0.7
    Y *= sig
    Y -= 0.5 * sig ** 2
    for n in range(1, N):           # np.cumsum's order, one column at a time
        Y[:, n] += Y[:, n - 1]
    np.exp(Y, out=Y)
    Y *= s0
    np.minimum(Y, 50.0 * xJ, out=Y)
    burst = rng.random(trials) < 0.1
    where = rng.random((trials, N)) < 0.5
    scale = 1.0 + rng.exponential(size=(trials, N))
    where &= burst[:, None]
    Y[where] = xJ * scale[where]
    return Y


def _continuous_slack(hedge, a, Y, rng, payoff_fn, s0):
    """Vectorized slack for one random exercise time per path.

    The path holds its previous maturity's value (s0 before the first)
    until the exercise time; the hedge adds a short position of the
    payoff's right slope there, unwound at the next maturity.  The exercise
    times are drawn from rng first; the paths are then replayed in blocks,
    in parallel.  The payoff's slope is read from its leg tables, and the
    payoff (payoff_fn, else the grid a) is called once, on all paths.
    """
    P, N = Y.shape
    mats = hedge.maturities
    rho = rng.uniform(0.0, mats[-1], size=P)
    rho = np.where(rho <= 0.0, mats[-1] / 2.0, rho)
    (c0,), _ = _brackets(hedge.states, np.array([[s0]]))
    slope, _ = _leg_tables(a.states, a.values, a.tail_slopes)
    slack = np.empty(P)
    x_pay = np.empty(P)     # the price at which the payoff is read

    def replay(lo, hi):
        y, t = Y[lo:hi], rho[lo:hi]
        p = hi - lo
        m0 = np.searchsorted(mats, t, side="left")  # t in (t_m0, t_{m0+1}]
        at = _brackets(hedge.states, y)
        # flat indices of (path, m0) in y and of (m0, path) in the
        # maturity-major brackets; one step back is the previous maturity,
        # or s0 at the first
        iy = np.arange(0, p * N, N) + m0
        ic = m0 * p + np.arange(p)
        g = _exercise_values(hedge, y, at).take(iy)

        first = m0 == 0
        y1 = y.take(iy)
        y0 = np.where(first, s0, y.take(iy - 1))
        c_prev = np.where(first, c0, at[0].take(ic - p))
        on_grid = t == mats[m0]
        extra = np.where(on_grid, 0.0,
                         -slope.take(m0 * slope.shape[1] + (c_prev | 1))
                         * (y1 - y0))
        np.add(g, extra, out=slack[lo:hi])
        x_pay[lo:hi] = np.where(on_grid, y1, y0)

    _in_blocks(replay, P)
    slack -= evaluate(payoff_fn if payoff_fn is not None else a, x_pay, rho)
    return slack, rho
