"""The linear programs behind the bound, and the headline solve.

The primal LP searches over price/regime models: joint transition masses
G1 (still holding) and G2 (already exercised) between consecutive maturities
plus the exercise mass F, maximizing expected payoff at the switch time.
Its dual searches over semi-static hedges: static claim values E1/E2/V
and dynamic holdings D1/D2, minimizing the cost of super-replication.
``robust_bound`` solves the primal only: by LP duality its optimal row
multipliers are a cheapest hedge, read off row block by row block.  The
hand-built dual stays as a reference for checking that mapping.
Every builder takes the extended mass matrix from ``market``: the implied
marginals and a virtual top row, which carries the mass priced by the top
call (0 on a zero-tail surface).  This module solves every LP of the
package and hands ``certify`` plain arrays; the seed model is the primal's
model for a claim paid only at the first maturity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import certify, lpcore, market
from .payoff import AmericanPayoffGrid


class BoundError(Exception):
    pass


class ArbitrageError(BoundError):
    """The surface fails the static no-arbitrage checks."""


class VariantError(BoundError):
    """The input cannot take the requested LP variant."""


class GapError(BoundError):
    def __init__(self, phi, psi, tol):
        self.phi, self.psi = phi, psi
        super().__init__("duality gap |%.12g - %.12g| exceeds %.3g" % (phi, psi, tol))


class VariableIndex:
    """Layout of the primal LP: where each column and row block sits.

    Columns: ``f[n, j]`` is the exercise mass at state j, maturity n+1, and
    ``g[d, n, j, k]`` the regime-(d+1) mass moving j -> k between maturities
    n+1 and n+2.  Rows, each block n-major: ``row_a[n, j]`` outflow and
    ``row_b[n, j]`` inflow (maturity n+2), ``row_cd[d, n, j]`` martingale,
    ``row_e[n, j]`` exercise budget.  j indexes states 0..M-1, where M
    counts the virtual tail row.
    """

    def __init__(self, num_states, num_maturities):
        self.num_states = M = num_states
        self.num_maturities = N = num_maturities
        self.f = np.arange(M * N).reshape(N, M)
        self.g = M * N + np.arange(2 * (N - 1) * M * M).reshape(2, N - 1, M, M)
        self.num_vars = M * N + self.g.size
        K = (N - 1) * M
        self.num_rows = 4 * K + N * M
        a, b, cd, e = np.split(np.arange(self.num_rows),
                               np.cumsum([K, K, 2 * K]))
        self.row_a, self.row_b = a.reshape(N - 1, M), b.reshape(N - 1, M)
        self.row_cd = cd.reshape(2, N - 1, M)
        self.row_e = e.reshape(N, M)
        self.row_scale = None       # set by _build_primal, one per row

    def unpack_primal(self, x):
        """Return (F, G1, G2): M x N and M x M x (N-1) arrays."""
        x = np.asarray(x, dtype=float)
        F = x[self.f].T.copy()
        G1, G2 = x[self.g].transpose(0, 2, 3, 1).copy()
        return F, G1, G2


@dataclass
class BoundResult:
    phi: float                      # primal (model) value
    psi: float                      # dual (hedge) value
    model: object                   # certify.RegimeModel
    hedge: object                   # certify.HedgeStrategy
    diagnostics: dict = field(default_factory=dict)

    @property
    def gap(self):
        return abs(self.phi - self.psi)


def _norm_row(terms, relation, rhs):
    scale = max(abs(v) for _, v in terms)
    if scale <= 0:
        raise BoundError("empty LP row")
    return lpcore.Row([(c, v / scale) for c, v in terms], relation, rhs / scale)


def _check_mass_matrix(p_hat, a: AmericanPayoffGrid):
    """Refuse a mass matrix without one row per lattice state of the payoff
    and the tail row, or without one column per maturity."""
    K, N = a.values.shape
    if np.shape(p_hat) != (K + 1, N):
        raise BoundError("mass matrix is %s, not %d (with the tail row) x %d"
                         % (np.shape(p_hat), K + 1, N))


def _build_primal(p_hat, a: AmericanPayoffGrid):
    """The primal LP, constraints (a)-(e), and its VariableIndex.

    p_hat: (J+2) x N mass matrix, whose last row is the virtual tail row;
    a: the payoff on the J+1 lattice states, whose tail slopes are the tail
    row's objective rates.  Each row block's terms come from one broadcast
    mask over the layout, in row order; the index records each row's scale
    in ``row_scale``.
    """
    _check_mass_matrix(p_hat, a)
    x = a.states
    M, N = p_hat.shape
    J = len(x) - 1
    idx = VariableIndex(M, N)
    f, g = idx.f, idx.g

    objective = np.zeros(idx.num_vars)
    objective[f] = np.vstack([a.values, a.tail_slopes]).T

    # move[j, k]: whether state j's mass rows (a), (b) and (e) count the
    # move j -> k as outflow and k -> j as inflow.  A lattice state's rows
    # skip the tail, whose row carries the top call's forward position.
    move = np.ones((M, M), dtype=bool)
    move[:J + 1, J + 1:] = False
    # drift[j, k]: coefficient of j -> k in j's martingale row (c/d); the
    # tail row and column carry 1, so the tail row sends no mass down
    drift = np.ones((M, M))
    drift[:J + 1, :J + 1] = x[None, :] - x[:, None]
    drift[J + 1:, J + 1:] = 0.0

    blocks = []                                # (rows, cols, coefs), in row order
    n, j, d, k = np.nonzero(np.broadcast_to(move[:, None, :], (N - 1, M, 2, M)))
    ones = np.ones(len(n))
    blocks.append((idx.row_a[n, j], g[d, n, j, k], ones))    # (a) outflow = mass
    blocks.append((idx.row_b[n, j], g[d, n, k, j], ones))    # (b) inflow = mass
    d, n, j, k = np.nonzero(np.broadcast_to(drift, (2, N - 1, M, M)))
    blocks.append((idx.row_cd[d, n, j], g[d, n, j, k], drift[j, k]))  # (c/d)
    # (e) exercise budget: f, then - outflow, then + inflow in each row
    n, j, k = np.nonzero(np.broadcast_to(move, (N - 1, M, M)))
    ones = np.ones(len(n))
    rows = np.concatenate([idx.row_e.ravel(), idx.row_e[n, j],
                           idx.row_e[n + 1, j]])
    cols = np.concatenate([f.ravel(), g[1, n, j, k], g[1, n, k, j]])
    coefs = np.concatenate([np.ones(f.size), -ones, ones])
    order = np.argsort(rows, kind="stable")
    blocks.append((rows[order], cols[order], coefs[order]))
    rows, cols, coefs = (np.concatenate(b) for b in zip(*blocks))

    rhs = np.zeros(idx.num_rows)
    rhs[idx.row_a] = p_hat[:, :-1].T
    rhs[idx.row_b] = p_hat[:, 1:].T
    rhs[idx.row_e[-1]] = p_hat[:, -1]
    relations = np.full(idx.num_rows, "=", dtype="<U2")
    relations[idx.row_e] = "<="

    counts = np.bincount(rows, minlength=idx.num_rows)
    if not counts.all():
        raise BoundError("empty LP row")
    indptr = np.concatenate([[0], np.cumsum(counts)])
    scale = np.maximum.reduceat(np.abs(coefs), indptr[:-1])
    # divide, not multiply by the reciprocal: the rows keep their bits
    lp = lpcore.LinearProgram("max", idx.num_vars, objective, indptr, cols,
                              coefs / scale[rows], rhs / scale, relations)
    idx.row_scale = scale
    return lp, idx


def _hedge_blocks(duals, idx):
    """Hedge (E1, E2, V, D1, D2) from the primal's optimal row multipliers.

    By LP duality the multipliers of rows (a), (b), (c/d) and (e) are
    E1[:, n<N], E2[:, n>=2], D1/D2 and V.  Rows enter the LP divided by
    their scale, so an unscaled row's multiplier is the LP's divided by
    that scale.  The tail-martingale row carries -D[tail]; the fixed
    E1[:, N] and E2[:, 1] are zero.
    """
    M, N = idx.num_states, idx.num_maturities
    y = np.asarray(duals, dtype=float) / idx.row_scale
    E1, E2 = np.zeros((M, N)), np.zeros((M, N))
    E1[:, :-1] = y[idx.row_a].T
    E2[:, 1:] = y[idx.row_b].T
    D1, D2 = y[idx.row_cd].transpose(0, 2, 1)
    D1[-1], D2[-1] = -D1[-1], -D2[-1]
    V = y[idx.row_e].T
    return E1, E2, V, D1, D2


def _build_dual(p_hat, a: AmericanPayoffGrid):
    """The hedge LP, rows (i)-(iii); its arguments are ``_build_primal``'s.

    Columns are E1[:, n<N], E2[:, n>=2], V, D1 and D2, each n-major; the
    fixed E1[:, N] and E2[:, 1] have none.  V is nonnegative, the rest free.
    """
    _check_mass_matrix(p_hat, a)
    x = a.states
    M, N = p_hat.shape
    J = len(x) - 1
    tail = M - 1
    K = (N - 1) * M
    num_vars = 4 * K + N * M
    e1, e2, v, d = np.split(np.arange(num_vars), np.cumsum([K, K, N * M]))
    # step n runs from maturity n+1 to n+2: e1[n], e2[n], d1[n], d2[n] and
    # v[n], v[n + 1] are its columns
    e1, e2, v = e1.reshape(N - 1, M), e2.reshape(N - 1, M), v.reshape(N, M)
    d1, d2 = d.reshape(2, N - 1, M)
    free = np.ones(num_vars, dtype=bool)
    free[v] = False

    objective = np.zeros(num_vars)
    objective[e1] = p_hat[:, :-1].T
    objective[e2] = p_hat[:, 1:].T
    objective[v[-1]] = p_hat[:, -1]

    rows = []
    for n in range(N):                         # (i) exercise coverage
        for j in range(J + 1):
            rows.append(_norm_row([(v[n, j], 1.0)], ">=", a.values[j, n]))
        rows.append(_norm_row([(v[n, tail], 1.0)], ">=", a.tail_slopes[n]))
    for n in range(N - 1):                     # (ii) holding-regime rows
        for j in range(J + 1):
            for k in range(J + 1):
                terms = [(e1[n, j], 1.0), (e2[n, k], 1.0)]
                if k != j:
                    terms.append((d1[n, j], x[k] - x[j]))
                rows.append(_norm_row(terms, ">=", 0.0))
        rows.append(_norm_row([(e1[n, tail], 1.0), (d1[n, tail], -1.0)],
                              ">=", 0.0))
        for j in range(J + 1):
            rows.append(_norm_row([(e2[n, tail], 1.0), (d1[n, j], 1.0)],
                                  ">=", 0.0))
        rows.append(_norm_row([(e1[n, tail], 1.0), (e2[n, tail], 1.0)],
                              ">=", 0.0))
    for n in range(N - 1):                     # (iii) stopped-regime rows
        for j in range(J + 1):
            for k in range(J + 1):
                terms = [(e1[n, j], 1.0), (e2[n, k], 1.0),
                         (v[n, j], -1.0), (v[n + 1, k], 1.0)]
                if k != j:
                    terms.append((d2[n, j], x[k] - x[j]))
                rows.append(_norm_row(terms, ">=", 0.0))
        rows.append(_norm_row([(e1[n, tail], 1.0), (d2[n, tail], -1.0),
                               (v[n, tail], -1.0)], ">=", 0.0))
        for j in range(J + 1):
            rows.append(_norm_row([(e2[n, tail], 1.0), (d2[n, j], 1.0),
                                   (v[n + 1, tail], 1.0)], ">=", 0.0))
        rows.append(_norm_row([(e1[n, tail], 1.0), (e2[n, tail], 1.0),
                               (v[n, tail], -1.0), (v[n + 1, tail], 1.0)],
                              ">=", 0.0))

    return lpcore.LinearProgram.from_rows("min", num_vars, objective, rows,
                                          free=free)


# one builder per LP, taking (p_hat, a).  The names of the two LP forms that
# every surface once chose between stay, as the benchmark's tracer hooks them.
build_primal_bounded = build_primal_extended = _build_primal
build_dual_bounded = build_dual_extended = _build_dual


def check_payoff_grid(surface: market.CallSurface, a: AmericanPayoffGrid):
    """Refuse a payoff on another lattice or on other maturities than the
    surface's, compared exactly: the hedge's replay reads the payoff at the
    surface's brackets."""
    if not np.array_equal(a.states, surface.states):
        raise BoundError("payoff lattice does not match the surface lattice")
    if not np.array_equal(a.maturities, surface.maturities):
        raise BoundError("payoff maturities do not match the surface's")


def robust_bound(surface: market.CallSurface, a: AmericanPayoffGrid,
                 variant="auto", tol_gap=1e-6) -> BoundResult:
    """Solve the primal LP, read both certificates off its optimum, and
    enforce the gap tolerance on the hedge's cost, the model's exact value
    and the hedge's grid inequalities.

    Every surface is bounded on the extended mass matrix.  On a zero-tail
    surface its tail row is the top call, 0 or at most ``market.TOL``, so
    the LP has the value of the bounded LP without the tail row.
    ``variant`` selects nothing: a value other than auto, bounded or
    extended, and bounded on a surface whose top call is worth more than
    ``market.TOL``, raise VariantError.
    """
    if variant not in ("auto", "bounded", "extended"):
        raise VariantError("variant must be auto, bounded, or extended")
    # written so that NaN fails too: a NaN tolerance would pass every gate
    if not 0.0 <= tol_gap < np.inf:
        raise BoundError("tol_gap must be finite and nonnegative, got %r"
                         % tol_gap)
    report = market.validate(surface, mode="weak")
    if not report.valid:
        raise ArbitrageError("surface fails validation: %r"
                             % report.violations[:3])
    if variant == "bounded" and not report.zero_tail:
        raise VariantError("bounded variant needs a zero-price top call")
    check_payoff_grid(surface, a)

    p_hat = market.extended_marginals(surface)
    lp, idx = build_primal_extended(p_hat, a)
    sol = _solve_primal(lp)
    hedge = certify.hedge_from_dual(_hedge_blocks(sol.duals, idx), surface, a)
    phi, psi = sol.objective, hedge.cost(p_hat)
    if abs(phi - psi) > tol_gap * (1.0 + abs(phi)):
        raise GapError(phi, psi, tol_gap)

    model = certify.model_from_primal(*idx.unpack_primal(sol.x), surface,
                                      p_hat)
    value = certify.model_value(model, a)
    if abs(value - phi) > tol_gap * (1.0 + abs(phi)):
        raise certify.CertifyError(
            "model read off the primal LP is worth %.12g, not phi = %.12g: "
            "gap exceeds %.3g" % (value, phi, tol_gap))
    slack = certify.grid_feasibility(hedge, a)
    tol = tol_gap * certify.hedge_scale(hedge)
    if slack < -tol:
        raise certify.CertifyError(
            "hedge read off the primal LP violates its grid rows (i)-(iii): "
            "worst residual %.3g, tolerance %.3g" % (slack, tol))
    diagnostics = {
        "primal_iterations": sol.iterations,
        "primal_residual": sol.primal_residual,
        "dual_residual": sol.dual_residual,
        "num_primal_vars": lp.num_vars,
        "hedge_grid_slack": slack,
        "model_value_exact": value,
    }
    return BoundResult(phi, psi, model, hedge, diagnostics)


def seed_model(surface: market.CallSurface):
    """The primal's model for a claim that pays 1 at the first maturity and
    nothing later, a certify.RegimeModel.

    Its optimum 1 exercises every path at t1, so rows (e) hold G1 at zero
    and G2 chains martingale couplings of consecutive extended marginals;
    such a chain exists exactly when they increase in convex order.
    """
    p = market.extended_marginals(surface)
    first = np.zeros((len(surface.states), len(surface.maturities)))
    first[:, 0] = 1.0
    lp, idx = build_primal_extended(p, AmericanPayoffGrid(
        first, surface.states, surface.maturities))
    sol = _solve_primal(lp, "no martingale transport: marginals not in "
                            "convex order; primal LP")
    return certify.model_from_primal(*idx.unpack_primal(sol.x), surface, p)


def _solve_primal(lp, failure="primal LP"):
    """The optimum of ``lp``; otherwise a BoundError naming the failure,
    the LP's shape and HiGHS's status."""
    sol = lpcore.solve(lp)
    if sol.status != "optimal":
        raise BoundError("%s (%dx%d): HiGHS %s ended %s"
                         % (failure, len(lp.rhs), lp.num_vars, lpcore.METHOD,
                            sol.status))
    return sol
