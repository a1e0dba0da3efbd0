"""The four linear programs behind the bound, and the headline solve.

The primal LP searches over price/regime models: joint transition masses
G1 (still holding) and G2 (already exercised) between consecutive maturities
plus the exercise mass F, maximizing expected payoff at the switch time.
The dual LP searches over semi-static hedges: static claim values E1/E2/V
and dynamic holdings D1/D2, minimizing the cost of super-replication.
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

    @property
    def num_vars(self):
        return len(self.names)

    def col(self, *name):
        return self._col[name]

    def name(self, col):
        return self.names[col]

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
        F = np.zeros((M, N))
        G1 = np.zeros((M, M, max(N - 1, 0)))
        G2 = np.zeros((M, M, max(N - 1, 0)))
        for n in range(1, N + 1):
            for j in range(M):
                F[j, n - 1] = x[self._col[("f", j, n)]]
        for delta, G in ((1, G1), (2, G2)):
            for n in range(1, N):
                for j in range(M):
                    for k in range(M):
                        G[j, k, n - 1] = x[self._col[("g", delta, j, k, n)]]
        return F, G1, G2

    def unpack_dual(self, x):
        """Return (E1, E2, V, D1, D2); the fixed boundary columns of E1/E2
        come back as explicit zeros."""
        if self.kind != "dual":
            raise BoundError("not a dual index")
        M, N = self.num_states, self.num_maturities
        x = np.asarray(x, dtype=float)
        E1 = np.zeros((M, N))
        E2 = np.zeros((M, N))
        V = np.zeros((M, N))
        D1 = np.zeros((M, max(N - 1, 0)))
        D2 = np.zeros((M, max(N - 1, 0)))
        for n in range(1, N):
            for j in range(M):
                E1[j, n - 1] = x[self._col[("e", 1, j, n)]]
                D1[j, n - 1] = x[self._col[("d", 1, j, n)]]
                D2[j, n - 1] = x[self._col[("d", 2, j, n)]]
        for n in range(2, N + 1):
            for j in range(M):
                E2[j, n - 1] = x[self._col[("e", 2, j, n)]]
        for n in range(1, N + 1):
            for j in range(M):
                V[j, n - 1] = x[self._col[("v", j, n)]]
        return E1, E2, V, D1, D2


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

    rows = []
    for n in range(1, N):                      # (a) outflow = mass
        for j in range(M):
            terms = [(c("g", d, j, k, n), 1.0) for d in (1, 2) for k in succ(j)]
            rows.append(_norm_row(terms, "=", p_hat[j, n - 1]))
    for n in range(2, N + 1):                  # (b) inflow = mass
        for j in range(M):
            sources = range(M) if j == tail else range(J + 1)
            terms = [(c("g", d, i, j, n - 1), 1.0) for d in (1, 2) for i in sources]
            rows.append(_norm_row(terms, "=", p_hat[j, n - 1]))
    for delta in (1, 2):                       # (c)/(d) martingale rows
        for n in range(1, N):
            for j in range(J + 1):
                terms = [(c("g", delta, j, k, n), x[k] - x[j])
                         for k in range(J + 1) if k != j]
                if extended:
                    terms.append((c("g", delta, j, tail, n), 1.0))
                rows.append(_norm_row(terms, "=", 0.0))
            if extended:                       # tail row sends no mass down
                terms = [(c("g", delta, tail, k, n), 1.0) for k in range(J + 1)]
                rows.append(_norm_row(terms, "=", 0.0))
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
            rows.append(_norm_row(terms, "<=", rhs))

    lp = lpcore.LinearProgram("max", idx.num_vars, objective, rows)
    return lp, idx


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


def _solve(lp, kind):
    """Solve one of the two LPs; a non-optimal end names the LP and HiGHS."""
    sol = lpcore.solve(lp)
    if sol.status != "optimal":
        raise BoundError("%s LP (%dx%d): HiGHS %s ended %s"
                         % (kind, len(lp.rows), lp.num_vars, lpcore.METHOD,
                            sol.status))
    return sol


def robust_bound(surface: market.CallSurface, a: AmericanPayoffGrid,
                 variant="auto", tol_gap=1e-6) -> BoundResult:
    """Solve both LPs, extract certificates, and enforce the gap tolerance."""
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
        lp_p, idx_p = build_primal_bounded(m, a)
        lp_d, idx_d = build_dual_bounded(m, a)
    else:
        m = market.extended_marginals(surface)
        lp_p, idx_p = build_primal_extended(m, a)
        lp_d, idx_d = build_dual_extended(m, a)

    sol_p = _solve(lp_p, "primal")
    sol_d = _solve(lp_d, "dual")

    phi, psi = sol_p.objective, sol_d.objective
    gap = abs(phi - psi)
    if gap > tol_gap * (1.0 + abs(phi)):
        raise GapError(phi, psi, tol_gap)

    model = certify.model_from_primal(sol_p, idx_p, surface, a)
    hedge = certify.hedge_from_dual(sol_d, idx_d, surface, a)
    diagnostics = {
        "primal_iterations": sol_p.iterations,
        "dual_iterations": sol_d.iterations,
        "primal_residual": sol_p.primal_residual,
        "dual_residual": sol_d.primal_residual,
        "num_primal_vars": lp_p.num_vars,
        "num_dual_vars": lp_d.num_vars,
    }
    return BoundResult(variant, phi, psi, gap, model, hedge, diagnostics)
