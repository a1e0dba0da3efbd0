"""The linear programs behind the bound, and the headline solve.

The primal LP searches over price/regime models: joint transition masses
G1 (still holding) and G2 (already exercised) between consecutive maturities
plus the exercise mass F, maximizing expected payoff at the switch time.
Its dual searches over semi-static hedges: static claim values E1/E2/V
and dynamic holdings D1/D2, minimizing the cost of super-replication.
``robust_bound`` solves the primal only: by LP duality its optimal row
multipliers are a cheapest hedge, read off row block by row block.  The
hand-built dual stays as a reference for checking that mapping.
The extended variants append a virtual top row that carries the mass priced
by the last traded call when no zero-price call exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lpcore, market
from .payoff import AmericanPayoffGrid


class BoundError(Exception):
    pass


class GapError(BoundError):
    def __init__(self, phi, psi, tol):
        self.phi, self.psi = phi, psi
        super().__init__("duality gap |%.12g - %.12g| exceeds %.3g" % (phi, psi, tol))


class VariableIndex:
    """Bijection between LP columns and named model/hedge variables.

    Primal names: ("f", j, n) and ("g", delta, j, k, n); dual names:
    ("e", delta, j, n), ("v", j, n), ("d", delta, j, n).  Maturities are
    1-based; j indexes states 0..M-1 where M includes the virtual tail row
    in the extended variants.  The fixed boundary values e1[.,N] and
    e2[.,1] have no columns.
    """

    def __init__(self, kind, num_states, num_maturities, extended=False):
        if kind not in ("primal", "dual"):
            raise ValueError("kind must be primal or dual")
        self.kind = kind
        self.num_states = M = num_states
        self.num_maturities = N = num_maturities
        self.extended = extended
        names = []
        if kind == "primal":
            for n in range(1, N + 1):
                for j in range(M):
                    names.append(("f", j, n))
            for delta in (1, 2):
                for n in range(1, N):
                    for j in range(M):
                        for k in range(M):
                            names.append(("g", delta, j, k, n))
        else:
            for n in range(1, N):
                for j in range(M):
                    names.append(("e", 1, j, n))
            for n in range(2, N + 1):
                for j in range(M):
                    names.append(("e", 2, j, n))
            for n in range(1, N + 1):
                for j in range(M):
                    names.append(("v", j, n))
            for delta in (1, 2):
                for n in range(1, N):
                    for j in range(M):
                        names.append(("d", delta, j, n))
        self.names = names
        self._col = {name: i for i, name in enumerate(names)}
        self.row_scale = None       # set by _build_primal, one per row

    @property
    def num_vars(self):
        return len(self.names)

    def col(self, *name):
        return self._col[name]

    def free_mask(self):
        """Primal variables are all nonnegative; dual e/d are free, v >= 0."""
        if self.kind == "primal":
            return [False] * self.num_vars
        return [name[0] != "v" for name in self.names]

    def unpack_primal(self, x):
        """Return (F, G1, G2): M x N and M x M x (N-1) arrays."""
        if self.kind != "primal":
            raise BoundError("not a primal index")
        M, N = self.num_states, self.num_maturities
        x = np.asarray(x, dtype=float)
        F = x[:M * N].reshape(N, M).T.copy()
        G1, G2 = x[M * N:].reshape(2, N - 1, M, M).transpose(0, 2, 3, 1).copy()
        return F, G1, G2


@dataclass
class BoundResult:
    variant: str                    # bounded | extended
    phi: float                      # primal (model) value
    psi: float                      # dual (hedge) value
    gap: float
    model: object                   # certify.RegimeModel
    hedge: object                   # certify.HedgeStrategy
    diagnostics: dict = field(default_factory=dict)


def _norm_row(terms, relation, rhs):
    scale = max(abs(v) for _, v in terms)
    if scale <= 0:
        raise BoundError("empty LP row")
    return lpcore.Row([(c, v / scale) for c, v in terms], relation, rhs / scale)


def _check_grids(states, a: AmericanPayoffGrid):
    if len(a.states) != len(states) or not np.allclose(a.states, states,
                                                       atol=1e-12):
        raise BoundError("payoff lattice does not match the surface lattice")


def _build_primal(states, p_hat, a_vals, tail_rates, extended):
    """Shared builder for LP constraints (a)-(e) in both variants.

    states: the J+1 lattice values; p_hat: M x N mass matrix (M = J+1, or
    J+2 with the virtual tail row); a_vals: payoff on the lattice;
    tail_rates: objective rate for the tail row (extended only).
    The index records each row's ``_norm_row`` scale in ``row_scale``.
    """
    x = np.asarray(states, dtype=float)
    M, N = p_hat.shape
    J = len(x) - 1
    tail = M - 1 if extended else None
    idx = VariableIndex("primal", M, N, extended)
    c = idx.col

    def succ(j):
        # columns a transition row j may send mass to
        return range(M) if j == tail else range(J + 1)

    objective = np.zeros(idx.num_vars)
    for n in range(1, N + 1):
        for j in range(J + 1):
            objective[c("f", j, n)] = a_vals[j, n - 1]
        if extended:
            objective[c("f", tail, n)] = tail_rates[n - 1]

    rows, scales = [], []

    def add(terms, relation, rhs):
        rows.append(_norm_row(terms, relation, rhs))
        scales.append(max(abs(v) for _, v in terms))

    for n in range(1, N):                      # (a) outflow = mass
        for j in range(M):
            terms = [(c("g", d, j, k, n), 1.0) for d in (1, 2) for k in succ(j)]
            add(terms, "=", p_hat[j, n - 1])
    for n in range(2, N + 1):                  # (b) inflow = mass
        for j in range(M):
            sources = range(M) if j == tail else range(J + 1)
            terms = [(c("g", d, i, j, n - 1), 1.0) for d in (1, 2) for i in sources]
            add(terms, "=", p_hat[j, n - 1])
    for delta in (1, 2):                       # (c)/(d) martingale rows
        for n in range(1, N):
            for j in range(J + 1):
                terms = [(c("g", delta, j, k, n), x[k] - x[j])
                         for k in range(J + 1) if k != j]
                if extended:
                    terms.append((c("g", delta, j, tail, n), 1.0))
                add(terms, "=", 0.0)
            if extended:                       # tail row sends no mass down
                terms = [(c("g", delta, tail, k, n), 1.0) for k in range(J + 1)]
                add(terms, "=", 0.0)
    for n in range(1, N + 1):                  # (e) exercise-budget rows
        for j in range(M):
            if j == tail and not extended:
                continue
            terms = [(c("f", j, n), 1.0)]
            if n <= N - 1:
                terms += [(c("g", 2, j, k, n), -1.0) for k in succ(j)]
            if n >= 2:
                sources = range(M) if j == tail else range(J + 1)
                terms += [(c("g", 2, i, j, n - 1), 1.0) for i in sources]
            rhs = p_hat[j, N - 1] if n == N else 0.0
            add(terms, "<=", rhs)

    lp = lpcore.LinearProgram("max", idx.num_vars, objective, rows)
    idx.row_scale = np.array(scales)
    return lp, idx


def _hedge_blocks(duals, idx):
    """Hedge (E1, E2, V, D1, D2) from the primal's optimal row multipliers.

    By LP duality the multipliers of rows (a), (b), (c/d) and (e) above are
    E1[:, n<N], E2[:, n>=2], D1/D2 and V, in the row order built there.
    Rows enter the LP divided by their scale, so an unscaled row's
    multiplier is the LP's divided by that scale.  The extended
    tail-martingale row carries -D[tail]; the fixed E1[:, N] and E2[:, 1]
    are zero.
    """
    M, N = idx.num_states, idx.num_maturities
    y = np.asarray(duals, dtype=float) / idx.row_scale
    K = (N - 1) * M
    a, b, cd, e = np.split(y, np.cumsum([K, K, 2 * K]))
    E1, E2 = np.zeros((M, N)), np.zeros((M, N))
    E1[:, :-1] = a.reshape(N - 1, M).T
    E2[:, 1:] = b.reshape(N - 1, M).T
    D1, D2 = cd.reshape(2, N - 1, M).transpose(0, 2, 1)
    if idx.extended:
        D1[-1], D2[-1] = -D1[-1], -D2[-1]
    V = e.reshape(N, M).T
    return E1, E2, V, D1, D2


def _build_dual(states, p_hat, a_vals, tail_rates, extended):
    """Shared builder for hedge LP rows (i)-(iii) in both variants."""
    x = np.asarray(states, dtype=float)
    M, N = p_hat.shape
    J = len(x) - 1
    tail = M - 1 if extended else None
    idx = VariableIndex("dual", M, N, extended)
    c = idx.col

    objective = np.zeros(idx.num_vars)
    for n in range(1, N):
        for j in range(M):
            objective[c("e", 1, j, n)] += p_hat[j, n - 1]
    for n in range(2, N + 1):
        for j in range(M):
            objective[c("e", 2, j, n)] += p_hat[j, n - 1]
    for j in range(M):
        objective[c("v", j, N)] += p_hat[j, N - 1]

    rows = []
    for n in range(1, N + 1):                  # (i) exercise coverage
        for j in range(J + 1):
            rows.append(_norm_row([(c("v", j, n), 1.0)], ">=", a_vals[j, n - 1]))
        if extended:
            rows.append(_norm_row([(c("v", tail, n), 1.0)], ">=",
                                  tail_rates[n - 1]))
    for n in range(1, N):                      # (ii) holding-regime rows
        for j in range(J + 1):
            for k in range(J + 1):
                terms = [(c("e", 1, j, n), 1.0), (c("e", 2, k, n + 1), 1.0)]
                if k != j:
                    terms.append((c("d", 1, j, n), x[k] - x[j]))
                rows.append(_norm_row(terms, ">=", 0.0))
        if extended:
            rows.append(_norm_row([(c("e", 1, tail, n), 1.0),
                                   (c("d", 1, tail, n), -1.0)], ">=", 0.0))
            for j in range(J + 1):
                rows.append(_norm_row([(c("e", 2, tail, n + 1), 1.0),
                                       (c("d", 1, j, n), 1.0)], ">=", 0.0))
            rows.append(_norm_row([(c("e", 1, tail, n), 1.0),
                                   (c("e", 2, tail, n + 1), 1.0)], ">=", 0.0))
    for n in range(1, N):                      # (iii) stopped-regime rows
        for j in range(J + 1):
            for k in range(J + 1):
                terms = [(c("e", 1, j, n), 1.0), (c("e", 2, k, n + 1), 1.0),
                         (c("v", j, n), -1.0), (c("v", k, n + 1), 1.0)]
                if k != j:
                    terms.append((c("d", 2, j, n), x[k] - x[j]))
                rows.append(_norm_row(terms, ">=", 0.0))
        if extended:
            rows.append(_norm_row([(c("e", 1, tail, n), 1.0),
                                   (c("d", 2, tail, n), -1.0),
                                   (c("v", tail, n), -1.0)], ">=", 0.0))
            for j in range(J + 1):
                rows.append(_norm_row([(c("e", 2, tail, n + 1), 1.0),
                                       (c("d", 2, j, n), 1.0),
                                       (c("v", tail, n + 1), 1.0)], ">=", 0.0))
            rows.append(_norm_row([(c("e", 1, tail, n), 1.0),
                                   (c("e", 2, tail, n + 1), 1.0),
                                   (c("v", tail, n), -1.0),
                                   (c("v", tail, n + 1), 1.0)], ">=", 0.0))

    lp = lpcore.LinearProgram("min", idx.num_vars, objective, rows,
                              free=idx.free_mask())
    return lp, idx


def build_primal_bounded(m: market.MarginalSystem, a: AmericanPayoffGrid):
    _check_grids(m.states, a)
    return _build_primal(m.states, m.probs, a.values, None, extended=False)


def build_dual_bounded(m: market.MarginalSystem, a: AmericanPayoffGrid):
    _check_grids(m.states, a)
    return _build_dual(m.states, m.probs, a.values, None, extended=False)


def build_primal_extended(m: market.ExtendedMarginalSystem, a: AmericanPayoffGrid):
    _check_grids(m.states, a)
    return _build_primal(m.states, m.rows, a.values, a.tail_slopes, extended=True)


def build_dual_extended(m: market.ExtendedMarginalSystem, a: AmericanPayoffGrid):
    _check_grids(m.states, a)
    return _build_dual(m.states, m.rows, a.values, a.tail_slopes, extended=True)


def robust_bound(surface: market.CallSurface, a: AmericanPayoffGrid,
                 variant="auto", tol_gap=1e-6) -> BoundResult:
    """Solve the primal LP, read both certificates off its optimum, and
    enforce the gap tolerance and the hedge's grid inequalities."""
    from . import certify  # deferred: certify consumes this module's types

    if variant not in ("auto", "bounded", "extended"):
        raise BoundError("variant must be auto, bounded, or extended")
    report = market.validate(surface, mode="weak")
    if not report.valid:
        raise BoundError("surface fails validation: %r" % report.violations[:3])
    if variant == "auto":
        variant = "bounded" if report.zero_tail else "extended"
    if variant == "bounded" and not report.zero_tail:
        raise BoundError("bounded variant needs a zero-price top call")

    if variant == "bounded":
        m = market.implied_marginals(surface)
        p_hat = m.probs
        lp, idx = build_primal_bounded(m, a)
    else:
        m = market.extended_marginals(surface)
        p_hat = m.rows
        lp, idx = build_primal_extended(m, a)

    sol = lpcore.solve(lp)
    if sol.status != "optimal":
        raise BoundError("primal LP (%dx%d): HiGHS %s ended %s"
                         % (len(lp.rows), lp.num_vars, lpcore.METHOD,
                            sol.status))

    hedge = certify.hedge_from_dual(_hedge_blocks(sol.duals, idx), surface, a,
                                    idx.extended)
    phi, psi = sol.objective, hedge.cost(p_hat)
    gap = abs(phi - psi)
    if gap > tol_gap * (1.0 + abs(phi)):
        raise GapError(phi, psi, tol_gap)

    model = certify.model_from_primal(sol, idx, surface, p_hat)
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
    }
    return BoundResult(variant, phi, psi, gap, model, hedge, diagnostics)
