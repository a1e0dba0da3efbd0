"""Traced run: spans around the calls into each package module.

The tracer swaps module attributes for timing wrappers inside the benchmark
process only; the package's source is not touched. Calls between package
modules look their callee up on the module at call time, so they pass
through the wrappers too. Spans stay in memory and are written out when the
run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# module -> public functions that get a span ("Class.method" wraps a method)
TRACED = {
    "market": ("load_surface", "validate", "implied_marginals",
               "extended_marginals"),
    "payoff": ("discounted_put", "PayoffFunction.__init__",
               "exercise_time_transform", "grid_payoff"),
    "lpcore": ("solve",),
    "bound": ("robust_bound", "build_primal_bounded", "build_dual_bounded",
              "build_primal_extended", "build_dual_extended"),
    "certify": ("model_from_primal", "hedge_from_dual", "simulate", "mc_price",
                "verify_superreplication"),
    "bench": ("chi_binomial", "zeta"),
    "cli": ("payoff_from_config", "emit_report"),
    "instances": ("get",),
}

# Per-layer metric -> (unit, better, the end-to-end metric it should move).
# Times and counts are per timed op; the LP shape is per solve, the report
# size per report, and rates are per second of the layer's own time.
LAYER_METRICS = {
    "market.busy_s": ("s", "lower", "op_p50_s on bound-sweep"),
    "market.marginal_calls": ("count", "lower", "op_p50_s on bound-sweep"),
    "payoff.busy_s": ("s", "lower", "op_p50_s on bound-sweep"),
    "lpcore.solve_s": ("s", "lower",
                       "op_p50_s, op_tail_s, ops_per_s on bound-sweep and "
                       "dense-grid; op_p50_s on certify-fig4"),
    "lpcore.solve_calls": ("count", "lower", "op_p50_s on bound-sweep"),
    "lpcore.iterations": ("count", "lower", "op_tail_s on dense-grid"),
    "lpcore.ms_per_iteration": ("ms", "lower", "op_tail_s on dense-grid"),
    "lpcore.failed_calls": ("count", "lower",
                            "ok_ratio on dense-grid and bound-sweep"),
    "bound.build_s": ("s", "lower", "op_p50_s on dense-grid"),
    "bound.self_s": ("s", "lower", "op_p50_s on bound-sweep"),
    "bound.solves_per_bound": ("ratio", "lower",
                               "op_p50_s on bound-sweep and certify-fig4"),
    "bound.lp_rows": ("count", "lower", "peak_rss_mb, max_cells_ok on dense-grid"),
    "bound.lp_cols": ("count", "lower", "peak_rss_mb, max_cells_ok on dense-grid"),
    "bound.lp_nnz": ("count", "lower", "peak_rss_mb, max_cells_ok on dense-grid"),
    "bound.gap_failures": ("count", "lower", "ok_ratio on every workload"),
    "certify.extract_s": ("s", "lower", "op_p50_s on bound-sweep"),
    "certify.simulate_s": ("s", "lower", "op_p50_s, peak_rss_mb on certify-fig4"),
    "certify.mc_s": ("s", "lower", "op_p50_s, peak_rss_mb on certify-fig4"),
    "certify.mc_paths_per_s": ("1/s", "higher", "op_p50_s on certify-fig4"),
    "certify.replay_s": ("s", "lower", "op_p50_s, peak_rss_mb on certify-fig4"),
    "certify.replay_paths_per_s": ("1/s", "higher", "op_p50_s on certify-fig4"),
    "certify.check_failures": ("count", "lower", "ok_ratio on certify-fig4"),
    "bench.busy_s": ("s", "lower", "op_p50_s on certify-fig4"),
    "cli.busy_s": ("s", "lower", "op_p50_s on certify-fig4"),
    "cli.report_bytes": ("B", "lower", "op_p50_s on certify-fig4"),
    "trace.overhead_s": ("s", "lower", "nothing; traced minus untraced time per op"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "counts",
                 "self_time")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.parent, self.op = name, start, parent, op
        self.end = start
        self.error = None
        self.counts = None
        self.self_time = None

    @property
    def module(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "error": self.error,
                "counts": self.counts}


def _lp_counts(args, kwargs, out):
    lp = args[0] if args else kwargs["lp"]
    counts = {"rows": len(lp.rows), "cols": lp.num_vars,
              "nnz": sum(len(r.terms) for r in lp.rows)}
    if out is not None:
        counts["iterations"] = out.iterations
        counts["status"] = out.status
    return counts


def _mc_counts(args, kwargs, out):
    return {"paths": args[2] if len(args) > 2 else kwargs["paths"]}


def _replay_counts(args, kwargs, out):
    if out is None:
        return None
    # trials counts path x exercise-date cases except in continuous mode
    per_path = 1 if out.mode == "continuous-exercise-random" else len(args[0].maturities)
    return {"trials": out.trials, "paths": out.trials // per_path}


def _report_counts(args, kwargs, out):
    return {"bytes": len(out)} if out is not None else None


COUNTERS = {"lpcore.solve": _lp_counts, "certify.mc_price": _mc_counts,
            "certify.verify_superreplication": _replay_counts,
            "cli.emit_report": _report_counts}


class Tracer:
    """Holds the spans of one traced pass; ``op`` is set by the caller
    before each op so that spans of one op share its id."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def install(self):
        for module, names in TRACED.items():
            mod = importlib.import_module("amerbound." + module)
            for attr in names:
                owner, leaf = mod, attr
                if "." in attr:
                    cls, leaf = attr.split(".")
                    owner = getattr(mod, cls)
                fn = getattr(owner, leaf)
                self._saved.append((owner, leaf, fn))
                setattr(owner, leaf, self._wrap(module + "." + attr, fn))

    def uninstall(self):
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if counter is not None:
                    span.counts = counter(args, kwargs, out)

        return traced


def layer_metrics(spans, ops, failed_stages, overhead_s):
    """Per-layer metrics of a traced pass of ``ops`` operations.

    ``failed_stages`` lists the failure stage of each failed op. Busy time of
    a module is the time in its outermost spans (a span with no ancestor in
    the same module), so nested calls are not counted twice. Self time is a
    span's duration minus that of its direct children.
    """
    def ancestors(span):
        while span.parent is not None:
            span = spans[span.parent]
            yield span

    outer = defaultdict(float)
    named = defaultdict(list)
    child_time = [0.0] * len(spans)
    for s in spans:
        named[s.name].append(s)
        if s.parent is not None:
            child_time[s.parent] += s.duration
        if all(a.module != s.module for a in ancestors(s)):
            outer[s.module] += s.duration
    for i, s in enumerate(spans):
        s.self_time = s.duration - child_time[i]

    def total(*names, attr="duration"):
        return sum(getattr(s, attr) for n in names for s in named[n])

    def count(name, pred=lambda s: True):
        return sum(1 for s in named[name] if pred(s))

    def counted(name, key):
        return sum(s.counts[key] for s in named[name]
                   if s.counts is not None and key in s.counts)

    def ratio(num, den):
        return num / den if den else 0.0

    solves = named["lpcore.solve"]
    iterations = counted("lpcore.solve", "iterations")
    builds = ("bound.build_primal_bounded", "bound.build_dual_bounded",
              "bound.build_primal_extended", "bound.build_dual_extended")
    per_op = {
        "market.busy_s": outer["market"],
        "market.marginal_calls": count("market.implied_marginals"),
        "payoff.busy_s": outer["payoff"],
        "lpcore.solve_s": total("lpcore.solve"),
        "lpcore.solve_calls": len(solves),
        "lpcore.iterations": iterations,
        "lpcore.failed_calls": count(
            "lpcore.solve",
            lambda s: s.error or s.counts.get("status") != "optimal"),
        "bound.build_s": total(*builds),
        "bound.self_s": total("bound.robust_bound", attr="self_time"),
        "bound.gap_failures": count("bound.robust_bound",
                                    lambda s: s.error == "GapError"),
        "certify.extract_s": total("certify.model_from_primal",
                                   "certify.hedge_from_dual"),
        "certify.simulate_s": total("certify.simulate"),
        "certify.mc_s": total("certify.mc_price"),
        "certify.replay_s": total("certify.verify_superreplication"),
        "certify.check_failures": sum(1 for st in failed_stages
                                      if st in ("certify", "check")),
        "bench.busy_s": outer["bench"],
        "cli.busy_s": total("cli.payoff_from_config", "cli.emit_report",
                            attr="self_time"),
    }
    values = {k: ratio(v, ops) for k, v in per_op.items()}
    values.update({
        "lpcore.ms_per_iteration": ratio(
            1000.0 * sum(s.duration for s in solves
                         if "iterations" in s.counts), iterations),
        "bound.solves_per_bound": ratio(len(solves),
                                        count("bound.robust_bound")),
        "bound.lp_rows": ratio(counted("lpcore.solve", "rows"), len(solves)),
        "bound.lp_cols": ratio(counted("lpcore.solve", "cols"), len(solves)),
        "bound.lp_nnz": ratio(counted("lpcore.solve", "nnz"), len(solves)),
        "certify.mc_paths_per_s": ratio(counted("certify.mc_price", "paths"),
                                        total("certify.mc_price")),
        "certify.replay_paths_per_s": ratio(
            counted("certify.verify_superreplication", "paths"),
            total("certify.verify_superreplication")),
        "cli.report_bytes": ratio(counted("cli.emit_report", "bytes"),
                                  count("cli.emit_report")),
        "trace.overhead_s": overhead_s,
    })
    return {name: values[name] for name in LAYER_METRICS}
