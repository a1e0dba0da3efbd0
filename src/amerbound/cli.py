"""Command-line front end: validate surfaces, compute bounds, certify and
simulate them, and emit benchmark tables — all deterministic given a seed.

Exit codes: 2 malformed input (an --out path that cannot be written
included), 3 validation failure, 4 solver failure, 5 certification failure.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import (__version__, bench, bound, certify, instances, lpcore,
               market, payoff)

EXIT_PARSE, EXIT_VALIDATION, EXIT_SOLVER, EXIT_CERTIFY = 2, 3, 4, 5


def _fail(code, message):
    click.echo("error: %s" % message, err=True)
    sys.exit(code)


def _round12(obj):
    """Copy a report with every float trimmed to 12 significant digits."""
    if isinstance(obj, dict):
        return {k: _round12(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float("%.12g" % float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def emit_report(result, fmt="json", out=None):
    """Deterministic serialization: sorted keys, 12 significant digits."""
    data = _round12(result)
    if fmt == "json":
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        rows = data if isinstance(data, list) else [data]
        cols = sorted(rows[0])
        lines = [",".join(cols)]
        for r in rows:
            lines.append(",".join("%s" % r[c] for c in cols))
        text = "\n".join(lines) + "\n"
    elif fmt == "pretty":
        lines = []
        flat = data if isinstance(data, dict) else {"rows": data}
        for k in sorted(flat):
            lines.append("%-24s %s" % (k, flat[k]))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError("unknown format %r" % fmt)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    return text


def _emit(result, fmt, out):
    """emit_report, ending in exit 2 when the report cannot be written."""
    try:
        return emit_report(result, fmt, out)
    except OSError as exc:
        _fail(EXIT_PARSE, "cannot write report: %s" % exc)


def _load_surface(path):
    try:
        return market.load_surface(path)
    except market.MarketError as exc:
        _fail(EXIT_PARSE, "cannot load surface: %s" % exc)


def _payoff_doc(spec):
    try:
        text = spec
        if not spec.lstrip().startswith("{"):
            with open(spec) as fh:
                text = fh.read()
        doc = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_PARSE, "cannot read payoff spec: %s" % exc)
    # a payoff file may hold any JSON value
    if not isinstance(doc, dict):
        _fail(EXIT_PARSE, "payoff spec must be a JSON object, not %s"
              % type(doc).__name__)
    return doc


def payoff_from_config(doc, surface):
    """Payoff spec -> lattice payoff (and the continuum evaluator if any)."""
    kind = doc.get("type")
    if kind == "put":
        fn = payoff.discounted_put(float(doc["K"]), float(doc.get("r", 0.0)),
                                   horizon=float(surface.maturities[-1]),
                                   x_hint=2.0 * float(surface.strikes[-1]))
        grid = payoff.exercise_time_transform(fn, surface.strikes,
                                              surface.maturities)
        return grid, fn
    if kind == "grid":
        grid = payoff.AmericanPayoffGrid(np.asarray(doc["values"], dtype=float),
                                         surface.states, surface.maturities,
                                         doc.get("tail_slopes"))
        return grid, None
    if kind == "example":
        grid = instances.get(doc["name"]).payoff
        if not (np.array_equal(grid.states, surface.states)
                and np.array_equal(grid.maturities, surface.maturities)):
            raise payoff.PayoffError(
                "example %r is on another lattice or other maturities than "
                "the surface" % doc["name"])
        return grid, None
    raise market.MarketError("unknown payoff type %r" % kind)


def _bound_or_fail(surface, grid, tol_gap):
    try:
        return bound.robust_bound(surface, grid, tol_gap=tol_gap)
    except bound.GapError as exc:
        _fail(EXIT_CERTIFY, str(exc))
    except bound.ArbitrageError:
        _fail(EXIT_VALIDATION, "surface is not arbitrage-free")
    except (bound.BoundError, lpcore.LPError) as exc:
        _fail(EXIT_SOLVER, str(exc))
    except certify.CertifyError as exc:
        _fail(EXIT_CERTIFY, str(exc))


def _bound_input(input_path, payoff_spec, tol_gap):
    """Load the surface and the payoff (exit 2) and bound the claim, which
    checks the surface for arbitrage (exit 3) before it solves (exit 4 or
    5).  Returns the surface, the lattice payoff, its continuum evaluator (or
    None) and the bound."""
    surface = _load_surface(input_path)
    try:
        grid, fn = payoff_from_config(_payoff_doc(payoff_spec), surface)
    except (market.MarketError, payoff.PayoffError, KeyError, TypeError,
            ValueError) as exc:
        _fail(EXIT_PARSE, "bad payoff spec: %s" % exc)
    return surface, grid, fn, _bound_or_fail(surface, grid, tol_gap)


def _bound_report(res):
    return {
        "phi": res.phi,
        "psi": res.psi,
        "gap": res.gap,
        "model": {"F": res.model.F, "G1": res.model.G1, "G2": res.model.G2,
                  "q": res.model.switch_prob, "states": res.model.states},
        "hedge": {"E1": res.hedge.E1, "E2": res.hedge.E2, "D1": res.hedge.D1,
                  "D2": res.hedge.D2, "V": res.hedge.V},
        "diagnostics": res.diagnostics,
    }


@click.group()
@click.version_option(__version__)
def main():
    """Model-free price bounds for American claims from call quotes."""


INPUT = click.option("--input", "input_path", required=True,
                     type=click.Path(exists=True, dir_okay=False))
# at least two paths: the Monte Carlo standard error needs a sample variance
TRIALS = click.option("--trials", default=100000, type=click.IntRange(min=2))
# Philox takes only nonnegative seeds
SEED = click.option("--seed", default=0, type=click.IntRange(min=0))


def _tolerance(ctx, param, value):
    # click.FloatRange lets NaN through, and a NaN tolerance passes every gate
    if not 0.0 <= value < float("inf"):
        raise click.BadParameter("must be finite and nonnegative, got %r"
                                 % value)
    return value


@main.command()
@INPUT
@click.option("--mode", type=click.Choice(["weak", "strict"]), default="weak")
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "pretty"]),
              default="json")
def validate(input_path, mode, out, fmt):
    """Check a call surface for static arbitrage."""
    surface = _load_surface(input_path)
    rep = market.validate(surface, mode=mode)
    doc = {"status": rep.status, "zero_tail": rep.zero_tail,
           "violations": [{"constraint": c, "indices": list(i), "magnitude": m}
                          for c, i, m in rep.violations]}
    _emit(doc, fmt, out)
    if rep.status == "invalid":
        _fail(EXIT_VALIDATION, "surface is not arbitrage-free")


def _common_options(fn):
    for opt in (
        INPUT,
        click.option("--payoff", "payoff_spec", required=True),
        click.option("--tol-gap", default=1e-6, callback=_tolerance),
        click.option("--out", default=None),
        click.option("--format", "fmt",
                     type=click.Choice(["json", "pretty"]), default="json"),
    ):
        fn = opt(fn)
    return fn


@main.command(name="bound")
@_common_options
def bound_cmd(input_path, payoff_spec, tol_gap, out, fmt):
    """Compute the bound and both certificates."""
    res = _bound_input(input_path, payoff_spec, tol_gap)[3]
    _emit(_bound_report(res), fmt, out)


@main.command(name="certify")
@_common_options
@TRIALS
@SEED
@click.option("--tol-feas", default=1e-6, callback=_tolerance)
def certify_cmd(input_path, payoff_spec, tol_gap, out, fmt, trials, seed,
                tol_feas):
    """Compute the bound, then independently verify both certificates."""
    surface, grid, fn, res = _bound_input(input_path, payoff_spec, tol_gap)
    est, se = certify.mc_price(res.model, grid, max(trials, 1000), seed)
    reports = {}
    modes = ["lattice-exhaustive", "interval-random", "full-line-random"]
    if fn is not None:
        modes.append("continuous-exercise-random")
    scale = certify.hedge_scale(res.hedge)
    failed = []
    # comparisons written so that a NaN estimate or slack fails too
    if not (abs(est - res.phi)
            <= 4.0 * max(se, 1e-12) + 1e-8 * (1 + abs(res.phi))):
        failed.append("monte-carlo")
    for mode in modes:
        rep = certify.verify_superreplication(
            res.hedge, grid, mode, trials=trials, seed=seed,
            payoff_fn=fn, s0=surface.s0)
        # no wall-clock fields: identical runs give byte-identical reports
        reports[mode] = {"trials": rep.trials, "min_slack": rep.min_slack,
                         "grid_slack": rep.grid_slack, "skipped": rep.skipped}
        if not (rep.skipped or rep.min_slack >= -tol_feas * scale):
            failed.append(mode)
    doc = {"phi": res.phi, "psi": res.psi, "gap": res.gap,
           "model_value_exact": res.diagnostics["model_value_exact"],
           "mc_estimate": est, "mc_stderr": se, "hedge_scale": scale,
           "verification": reports, "certified": not failed}
    _emit(doc, fmt, out)
    if failed:
        _fail(EXIT_CERTIFY, "certificates fail: %s" % ", ".join(failed))


@main.command()
@_common_options
@TRIALS
@SEED
def simulate(input_path, payoff_spec, tol_gap, out, fmt, trials, seed):
    """Monte-Carlo price the extremal model against the LP value."""
    _, grid, _, res = _bound_input(input_path, payoff_spec, tol_gap)
    est, se = certify.mc_price(res.model, grid, trials, seed)
    _emit({"phi": res.phi, "estimate": est, "stderr": se,
           "trials": trials, "seed": seed}, fmt, out)


@main.command(name="bench-table")
@click.option("--sweep", type=click.Choice(["moneyness", "maturities"]),
              default="moneyness")
# BenchConfig's floor for the binomial tree
@click.option("--steps", default=2000, type=click.IntRange(min=100))
@click.option("--out", default=None)
def bench_table(sweep, steps, out):
    """Premium-capture table (CSV), plus a JSON sidecar when --out is set."""
    if sweep == "moneyness":
        configs = [bench.BenchConfig(put_strike=float(k), tree_steps=steps)
                   for k in (80, 90, 100, 110, 120)]
        labels = ["K=%d" % k for k in (80, 90, 100, 110, 120)]
    else:
        configs = [bench.BenchConfig(num_maturities=n, tree_steps=steps)
                   for n in (2, 4)]
        labels = ["N=%d" % n for n in (2, 4)]
    try:
        rows = bench.premium_table(configs)
    except (bound.BoundError, lpcore.LPError) as exc:
        _fail(EXIT_SOLVER, str(exc))
    docs = [{"row": lab, "phi": r.phi, "chi": r.chi, "zeta": r.zeta,
             "ratio_pct": r.ratio} for lab, r in zip(labels, rows)]
    text = _emit(docs, "csv", out)
    if out:
        try:
            with open(out + ".json", "w") as fh:
                fh.write(json.dumps(_round12(docs), sort_keys=True, indent=2))
        except OSError as exc:
            _fail(EXIT_PARSE, "cannot write report: %s" % exc)
    return text


@main.command()
@click.argument("name", type=click.Choice(sorted(instances.BUILTIN)))
@click.option("--seed", default=42, type=click.IntRange(min=0))
def demo(name, seed):
    """Run a built-in instance end to end and assert its known value."""
    inst = instances.get(name)
    res = _bound_or_fail(inst.surface, inst.payoff, 1e-6)
    click.echo("%s: phi=%.6f psi=%.6f (expected %.6f)"
               % (name, res.phi, res.psi, inst.bound_value))
    if abs(res.phi - inst.bound_value) > 1e-8 or res.gap > 1e-8 * (1 + res.phi):
        _fail(EXIT_CERTIFY, "demo value off: %.12g" % res.phi)

    if "hedge" in inst.extras:
        h = inst.extras["hedge"]
        ref = certify.HedgeStrategy(inst.surface.states,
                                    inst.surface.maturities,
                                    h["E1"], h["E2"], h["V"], h["D1"], h["D2"],
                                    growth_rate=inst.payoff.growth_rate)
        slack = certify.grid_feasibility(ref, inst.payoff)
        cost = ref.cost(market.extended_marginals(inst.surface))
        click.echo("reference hedge: cost=%.6f feasibility=%.2e"
                   % (cost, slack))
        if slack < -1e-9 or abs(cost - inst.bound_value) > 1e-8:
            _fail(EXIT_CERTIFY, "reference hedge failed certification")
    if "seed_model_price" in inst.extras:
        sm = bound.seed_model(inst.surface)
        est, se = certify.mc_price(sm, inst.payoff, 200000, seed)
        click.echo("seed model mc=%.4f (expected %.4f)"
                   % (est, inst.extras["seed_model_price"]))
    rep = certify.verify_superreplication(res.hedge, inst.payoff,
                                          "lattice-exhaustive")
    click.echo("lattice slack=%.2e over %d cases" % (rep.min_slack, rep.trials))
    if rep.min_slack < -1e-9:
        _fail(EXIT_CERTIFY, "optimal hedge failed lattice verification")
    click.echo("ok")


if __name__ == "__main__":
    main()
