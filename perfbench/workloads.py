"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload is a fixed cycle of operations. The seed changes input values
only: the names, shapes, order and number of the operations in a cycle are
the same for every seed, so every seed asks for the same kind and amount of
work. Generators return plain JSON-able data and need only numpy; turning
the data into package objects happens in ``prepare``, which is part of the
timed set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

# Pinned values the operations are checked against.
DEMO_VALUES = {"sec26": 35.625, "sec52": 3.6, "eg11": 34.0}
DEMO_CELLS = {"sec26": 3 * 3, "sec52": 4 * 2, "eg11": 3 * 2}
# Figure 4 of the paper: put strike -> (phi, chi, zeta), each to +-0.05.
FIG4_EXPECTED = {
    80: (1.00, 0.92, 0.91),
    90: (3.25, 2.89, 2.79),
    100: (7.66, 6.74, 6.35),
    110: (14.09, 12.81, 11.73),
    120: (22.02, 20.89, 20.15),
}
FIG4_TOL = 0.05
DEMO_TOL = 1e-8
TOL_GAP = 1e-6            # robust_bound's default gap tolerance
LATTICE_SLACK = 1e-9      # criterion 7: exhaustive lattice replay
PATH_SLACK = 1e-6         # criterion 7: random replays, times hedge_scale
MC_SIGMAS = 3.0           # criterion 7: |mc - phi| <= 3 se
MC_WRONG_SIGMAS = 6.0     # beyond this an MC miss is a wrong answer, not chance
MC_PATHS = 10 ** 6
REPLAY_PATHS = 10 ** 5

# (J, N) with J in 3..8, N in 2..6 and at most 24 cells: small LPs only
SWEEP_SHAPES = [(J, N) for J, N in product(range(3, 9), range(2, 7))
                if J * N <= 24]
# Random instances of each shape and variant per cycle. Op times move with
# the random inputs, so more instances per cycle make a run's figures
# depend less on its seed.
SWEEP_ROUNDS = 2
# (J, N) ladder of dense-grid on fixed lognormal quotes. The hand simplex's
# pivot path on these degenerate LPs changes with the last bits of the
# quotes and with the BLAS thread count: scaling the J=19, N=2 quotes by
# powers of two moved its dual from 1314 to 1872 pivots and made it fail at
# one scale only, and vol 0.21 passes where 0.211 fails. Seeded quotes would
# make op times and the failure count depend on the seed, so the quotes stay
# fixed. DENSE_VOL makes J=19, N=2 fail under one BLAS thread ("phase I
# failed: unbounded"); the rung stays in the ladder until the solver handles
# it. The seed drives the path replay that checks each hedge.
DENSE_LADDER = [(10, 2), (12, 2), (15, 2), (19, 2), (12, 3), (10, 4)]
DENSE_STRIKES = (70.0, 160.0)
DENSE_VOL = 0.213
DENSE_REPLAY_PATHS = 10 ** 4


class CheckFailed(Exception):
    """An output check failed. ``statistical`` marks a Monte Carlo test that
    a correct program also fails by chance (about 0.27% of ops at 3 se)."""

    def __init__(self, message, statistical=False):
        super().__init__(message)
        self.statistical = statistical


@dataclass
class Op:
    name: str             # fixed per cycle position, never seed-dependent
    cells: int            # strikes x maturities of the priced grid
    inputs: dict          # JSON-able values made from the seed


# ---------------------------------------------------------------------------
# generators


def _norm_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _black_call(s0, strike, vol, t):
    """Black price of a call on the driftless price, undiscounted."""
    sd = vol * math.sqrt(t)
    d1 = (math.log(s0 / strike) + 0.5 * sd * sd) / sd
    return s0 * _norm_cdf(d1) - strike * _norm_cdf(d1 - sd)


def _quotes(s0, strikes, maturities, vol):
    return {"s0": s0, "strikes": list(strikes), "maturities": list(maturities),
            "calls": [[_black_call(s0, k, vol, t) for t in maturities]
                      for k in strikes]}


def _lognormal_doc(rng, J, N):
    """Lognormal quotes whose top call is worth something: extended LP."""
    s0 = float(rng.uniform(50.0, 150.0))
    vol = float(rng.uniform(0.1, 0.5))
    mats = 0.2 + np.cumsum(rng.uniform(0.1, 0.4, size=N))
    strikes = s0 * (0.5 + np.cumsum(rng.uniform(0.08, 0.25, size=J)))
    return _quotes(s0, strikes.tolist(), mats.tolist(), vol)


def _marginal_doc(rng, J, N):
    """Martingale marginals on a lattice, all mass at or below the top
    strike, so the top call is worth zero: bounded LP. Each maturity is a
    mean-preserving spread of the one before."""
    states = np.concatenate([[0.0], 5.0 + np.cumsum(rng.uniform(3.0, 20.0, J))])
    p = rng.dirichlet(np.full(J + 1, 2.0))
    probs = np.zeros((J + 1, N))
    for n in range(N):
        probs[:, n] = p
        nxt = p.copy()
        for j in range(1, J):
            move = rng.uniform(0.0, 0.6) * p[j]
            up = (states[j] - states[j - 1]) / (states[j + 1] - states[j - 1])
            nxt[j] -= move
            nxt[j + 1] += move * up
            nxt[j - 1] += move * (1.0 - up)
        p = nxt
    return {"marginals": probs.tolist(), "states": states.tolist(),
            "maturities": [float(n) for n in range(1, N + 1)],
            "s0": float(states @ probs[:, 0])}


def _put_mixture(rng, top):
    """Two puts with strikes inside the quoted range, discounted at r."""
    return {"strikes": rng.uniform(0.3 * top, 0.9 * top, size=2).tolist(),
            "weights": rng.uniform(0.2, 1.5, size=2).tolist(),
            "r": float(rng.uniform(0.0, 0.1))}


def sweep_cycle(seed):
    """SWEEP_ROUNDS rounds over SWEEP_SHAPES, each shape on a bounded then
    an extended surface, then the three built-in instances."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for rnd in range(1, SWEEP_ROUNDS + 1):
        for (J, N), variant in product(SWEEP_SHAPES, ("bounded", "extended")):
            doc = (_marginal_doc if variant == "bounded" else _lognormal_doc)(rng, J, N)
            top = doc["states"][-1] if variant == "bounded" else doc["strikes"][-1]
            ops.append(Op("sweep-J%dN%d-%s-%d" % (J, N, variant, rnd), J * N,
                          {"variant": variant, "surface": doc,
                           "payoff": _put_mixture(rng, top)}))
    for name, value in DEMO_VALUES.items():
        ops.append(Op("demo-%s" % name, DEMO_CELLS[name],
                      {"demo": name, "expected": value}))
    return ops


def fig4_cycle(seed):
    """The Figure-4 moneyness rows: fixed quotes, the seed picks the Monte
    Carlo and replay seeds."""
    rng = np.random.default_rng([seed, 2])
    text = json.dumps(_quotes(100.0, [float(k) for k in range(70, 141, 10)],
                              [0.25, 0.5, 0.75, 1.0], 0.2))
    seeds = rng.integers(0, 2 ** 31 - 1, size=len(FIG4_EXPECTED))
    return [Op("fig4-K%d" % K, 8 * 4,
               {"surface_json": text, "K": K, "r": 0.05, "seed": int(s)})
            for K, s in zip(FIG4_EXPECTED, seeds)]


def dense_cycle(seed):
    """The ladder on fixed quotes (see DENSE_LADDER); the seed picks the
    seeds of the path replays."""
    rng = np.random.default_rng([seed, 3])
    seeds = rng.integers(0, 2 ** 31 - 1, size=len(DENSE_LADDER))
    return [Op("dense-J%dN%d" % (J, N), J * N,
               {"surface": _quotes(100.0, np.linspace(*DENSE_STRIKES, J).tolist(),
                                   (np.arange(1, N + 1) / N).tolist(), DENSE_VOL),
                "payoff": {"K": 100.0, "r": 0.05}, "seed": int(s)})
            for (J, N), s in zip(DENSE_LADDER, seeds)]


CYCLES = {"bound-sweep": sweep_cycle, "certify-fig4": fig4_cycle,
          "dense-grid": dense_cycle}


# ---------------------------------------------------------------------------
# preparation (set-up) and operations (timed)


def prepare(workload, ops):
    """Turn generated data into package objects; returns one callable per
    op, taking the cycle index and raising on failure."""
    from amerbound import instances, market

    run = []
    for op in ops:
        inp = op.inputs
        if workload == "certify-fig4":
            run.append(_fig4_op(inp))
        elif "demo" in inp:
            run.append(_demo_op(instances.get(inp["demo"]), inp["expected"]))
        else:
            surface = market.load_surface(inp["surface"])
            run.append(_bound_op(surface, inp, _lattice_probs(inp["surface"])))
    return run


def _lattice_probs(doc):
    """(J+1) x N lattice marginals, computed here from the generated inputs
    rather than by the package."""
    if "marginals" in doc:
        return np.asarray(doc["marginals"])
    x = np.concatenate([[0.0], doc["strikes"]])
    c = np.vstack([np.full(len(doc["maturities"]), doc["s0"]), doc["calls"]])
    slopes = (c[:-1] - c[1:]) / np.diff(x)[:, None]
    return np.vstack([1.0 - slopes[:1], slopes[:-1] - slopes[1:], slopes[-1:]])


def _mixture_payoff(spec, surface):
    from amerbound import payoff

    Ks, ws, r = spec["strikes"], spec["weights"], spec["r"]

    def fn(x, t):
        total = 0.0
        for K, w in zip(Ks, ws):
            total = total + w * np.maximum(K * np.exp(-r * t) - x, 0.0)
        return total

    top = float(surface.strikes[-1])
    return payoff.PayoffFunction(fn, convex_in_x=True, decreasing_in_t=True,
                                 tail_slope=0.0,
                                 horizon=float(surface.maturities[-1]),
                                 x_hint=2.0 * top)


def _check_gap(res):
    if abs(res.phi - res.psi) > TOL_GAP * (1.0 + abs(res.phi)):
        raise CheckFailed("gap |%.12g - %.12g| beyond tol_gap"
                          % (res.phi, res.psi))


def _check_european(phi, grid_values, probs):
    """phi lies between the best single-maturity European value and the sum
    of all of them: exercising at a fixed maturity is one admissible rule,
    and a nonnegative claim pays at most the sum of its columns."""
    values = np.einsum("jn,jn->n", probs, grid_values)
    tol = 1e-6 * (1.0 + abs(phi))
    if phi < values.max() - tol or phi > values.sum() + tol:
        raise CheckFailed("phi %.12g outside European range [%.12g, %.12g]"
                          % (phi, values.max(), values.sum()))


def _bound_op(surface, inp, probs):
    from amerbound import bound, certify, payoff

    def run(cycle):
        spec = inp["payoff"]
        if "K" in spec:
            fn = payoff.discounted_put(spec["K"], spec["r"],
                                       horizon=float(surface.maturities[-1]),
                                       x_hint=2.0 * float(surface.strikes[-1]))
        else:
            fn = _mixture_payoff(spec, surface)
        grid = payoff.exercise_time_transform(fn, surface.strikes,
                                              surface.maturities)
        res = bound.robust_bound(surface, grid, variant=inp.get("variant", "auto"))
        _check_gap(res)
        _check_european(res.phi, grid.values, probs)
        if "seed" in inp:
            rep = certify.verify_superreplication(
                res.hedge, grid, "full-line-random", trials=DENSE_REPLAY_PATHS,
                seed=inp["seed"] + cycle, s0=surface.s0)
            if rep.min_slack < -PATH_SLACK * certify.hedge_scale(res.hedge):
                raise CheckFailed("full-line replay slack %.3g" % rep.min_slack)

    return run


def _demo_op(inst, expected):
    from amerbound import bound

    def run(cycle):
        res = bound.robust_bound(inst.surface, inst.payoff)
        _check_gap(res)
        if abs(res.phi - expected) > DEMO_TOL:
            raise CheckFailed("%s: phi %.12g, pinned %.12g"
                              % (inst.name, res.phi, expected))

    return run


def _fig4_op(inp):
    from amerbound import bench, bound, certify, cli, market

    K = inp["K"]
    phi_ref, chi_ref, zeta_ref = FIG4_EXPECTED[K]
    config = bench.BenchConfig(put_strike=float(K), rate=inp["r"])

    def run(cycle):
        seed = inp["seed"] + cycle
        surface = market.load_surface(inp["surface_json"])
        grid, fn = cli.payoff_from_config({"type": "put", "K": K, "r": inp["r"]},
                                          surface)
        res = bound.robust_bound(surface, grid)
        est, se = certify.mc_price(res.model, grid, MC_PATHS, seed)
        scale = certify.hedge_scale(res.hedge)
        lattice = certify.verify_superreplication(res.hedge, grid,
                                                  "lattice-exhaustive")
        line = certify.verify_superreplication(res.hedge, grid, "full-line-random",
                                               trials=REPLAY_PATHS, seed=seed,
                                               s0=surface.s0)
        cont = certify.verify_superreplication(
            res.hedge, grid, "continuous-exercise-random", trials=REPLAY_PATHS,
            seed=seed, payoff_fn=fn, s0=surface.s0)
        chi = bench.chi_binomial(bench.tree_payoff_from_grid(grid), config)
        zeta = bench.zeta(surface, grid)
        doc = {"phi": res.phi, "psi": res.psi, "gap": res.gap, "chi": chi,
               "zeta": zeta, "mc_estimate": est, "mc_stderr": se,
               "slack": {"lattice": lattice.min_slack, "line": line.min_slack,
                         "continuous": cont.min_slack}}
        with contextlib.redirect_stdout(io.StringIO()):
            text = cli.emit_report(doc)

        _check_gap(res)
        for label, got, ref in (("phi", res.phi, phi_ref), ("chi", chi, chi_ref),
                                ("zeta", zeta, zeta_ref)):
            if abs(got - ref) > FIG4_TOL:
                raise CheckFailed("K=%d: %s %.6f, Figure 4 has %.2f"
                                  % (K, label, got, ref))
        if lattice.skipped or lattice.min_slack < -LATTICE_SLACK:
            raise CheckFailed("K=%d: lattice replay slack %r"
                              % (K, lattice.min_slack))
        for rep in (line, cont):
            if rep.min_slack < -PATH_SLACK * scale:
                raise CheckFailed("K=%d: %s replay slack %.3g"
                                  % (K, rep.mode, rep.min_slack))
        if json.loads(text)["phi"] != float("%.12g" % res.phi):
            raise CheckFailed("K=%d: report does not carry phi" % K)
        miss = abs(est - res.phi)
        if miss > MC_SIGMAS * se:
            raise CheckFailed("K=%d: mc %.6f vs phi %.6f is %.2f se"
                              % (K, est, res.phi, miss / se),
                              statistical=miss <= MC_WRONG_SIGMAS * se)

    return run
