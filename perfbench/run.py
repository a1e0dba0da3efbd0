"""Benchmark of amerbound: one process, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's fixed cycle of operations against the package in
``src/`` (the next op starts when the previous one has returned), whole
cycles at a time, until at least S seconds of ops have run. Every op's output
is checked. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. A
traced run runs whole cycles for S/2 seconds untraced, then the same cycles
traced, and reports the difference per op as the tracing overhead. Exit code 1
means an op produced a wrong answer; ops that fail by raising are counted,
not fatal.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
# One BLAS thread. On a 2-vCPU VM a second OpenBLAS thread made the hand
# simplex about 1.2x faster for twice the CPU time, and widened the spread
# of repeated timings of one op from about 3% to about 30%.
BLAS_THREADS = 1
OP_BUDGET_S = 10.0        # an op counts toward max_cells_ok only within this
TAIL_BEYOND = 10          # op_tail_s leaves at least this many samples above

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "ops_per_s": "1/s", "ok_ratio": "ratio", "peak_rss_mb": "MB",
             "max_cells_ok": "count"}


@dataclass
class Record:
    cycle: int
    name: str
    cells: int
    latency: float
    stage: str = None     # failure stage, None when the op passed
    message: str = ""
    statistical: bool = False


def pin_threads():
    """Pin BLAS/OpenMP threads to BLAS_THREADS, at most the CPUs this
    process may use; returns that CPU count. Must run before numpy is
    imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    return nproc


def import_package():
    """Import the package from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import amerbound
    from amerbound import bench, bound, certify, cli, instances  # noqa: F401

    where = os.path.dirname(os.path.abspath(amerbound.__file__))
    if os.path.dirname(where) != src:
        raise ImportError("amerbound imported from %s, not %s" % (where, src))


def failure_stage(exc):
    """The package module deepest in the traceback, or None when the
    exception did not come from the package (a benchmark bug)."""
    stage = None
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("amerbound."):
            stage = module.split(".", 1)[1]
    return stage


def run_ops(ops, runners, keep_going, on_op=None):
    """Closed loop over whole cycles while ``keep_going(cycle, elapsed)``.
    A garbage collection before each op, outside its time, keeps one op's
    garbage from being collected inside the next op's time."""
    from workloads import CheckFailed

    records = []
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or keep_going(cycle, time.perf_counter() - start):
        for op, run in zip(ops, runners):
            if on_op is not None:
                on_op(len(records))
            rec = Record(cycle, op.name, op.cells, 0.0)
            gc.collect()
            t = time.perf_counter()
            try:
                run(cycle)
            except CheckFailed as exc:
                rec.stage, rec.message = "check", str(exc)
                rec.statistical = exc.statistical
            except Exception as exc:
                rec.stage = failure_stage(exc)
                if rec.stage is None:
                    raise
                rec.message = "%s: %s" % (type(exc).__name__, exc)
            rec.latency = time.perf_counter() - t
            records.append(rec)
        cycle += 1
    return records, time.perf_counter() - start


def set_up(workload, seed):
    """Generate inputs, build package objects and run one untimed warm-up
    op, SETUP_REPEATS times; returns (ops, runners, median seconds)."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ops = workloads.CYCLES[workload](seed)
        runners = workloads.prepare(workload, ops)
        try:
            runners[0](0)
        except Exception as exc:
            if not isinstance(exc, workloads.CheckFailed) and failure_stage(exc) is None:
                raise
        times.append(time.perf_counter() - t)
    gc.freeze()     # set-up objects are never garbage; skip them from now on
    return ops, runners, statistics.median(times)


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it; the maximum when there are fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - 1 - TAIL_BEYOND
    return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def end_to_end_metrics(records, wall, setup_s, peak_rss_mb):
    ok = [r for r in records if r.stage is None]
    latencies = [r.latency for r in records]
    within = [r.cells for r in ok if r.latency <= OP_BUDGET_S]
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail(latencies)[0],
        "ops_per_s": len(ok) / wall,
        "ok_ratio": len(ok) / len(records),
        "peak_rss_mb": peak_rss_mb,
        "max_cells_ok": float(max(within, default=0)),
    }


def environment(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {"nproc": nproc, "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "process_threads": threads, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def declared_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            [m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def main(argv=None):
    nproc = pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload_names, e2e_names, layer_names = declared_names()
    if args.workload not in workload_names:
        parser.error("unknown workload %r; one of %s" % (args.workload, workload_names))

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import_package()
    import tracing

    import_s = time.perf_counter() - T0
    ops, runners, setup_once = set_up(args.workload, args.seed)
    setup_s = import_s + setup_once

    if args.trace:
        records_u, wall_u = run_ops(ops, runners,
                                    lambda c, t: t < args.seconds / 2)
        cycles = records_u[-1].cycle + 1
        tracer = tracing.Tracer()
        tracer.install()
        try:
            records, wall = run_ops(ops, runners, lambda c, t: c < cycles,
                                    on_op=lambda i: setattr(tracer, "op", i))
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(
            tracer.spans, len(records),
            [r.stage for r in records if r.stage is not None],
            (wall - wall_u) / len(records))
        names, units = layer_names, {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
    else:
        records, wall = run_ops(ops, runners, lambda c, t: t < args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end_metrics(records, wall, setup_s, peak_rss_mb)
        names, units = e2e_names, E2E_UNITS
    if sorted(metrics) != sorted(names):
        raise SystemExit("metric names %s do not match BENCHMARK.json %s"
                         % (sorted(metrics), sorted(names)))

    failed = [r for r in records if r.stage is not None]
    wrong = [r for r in failed if r.stage == "check" and not r.statistical]
    env = environment(nproc)
    report(args, env, records, wall, metrics, units, failed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump({"args": vars(args), "environment": env, "metrics": metrics,
                   "ops": [vars(r) for r in records],
                   "spans": [s.as_dict() for s in tracer.spans] if args.trace else []},
                  fh)
    print(json.dumps({"correct": not wrong, "attempted": len(records),
                      "failed": len(failed),
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in names}}))
    return 1 if wrong else 0


def report(args, env, records, wall, metrics, units, failed):
    """Human-readable lines ahead of the JSON result."""
    import tracing

    print("# workload %s seed %d trace %d: %d ops in %d cycles, %.3f s"
          % (args.workload, args.seed, args.trace, len(records),
             records[-1].cycle + 1, wall))
    print("# environment " + json.dumps(env, sort_keys=True))
    _, pct, beyond = tail([r.latency for r in records])
    notes = {
        "op_p50_s": "%d ops" % len(records),
        "op_tail_s": "p%.1f of %d ops, %d beyond" % (pct, len(records), beyond),
        "ok_ratio": "fail_ratio %.6g = %d/%d" % (len(failed) / len(records),
                                                 len(failed), len(records)),
    }
    notes.update({k: "moves " + v[2] for k, v in tracing.LAYER_METRICS.items()})
    for name, value in metrics.items():
        note = " (%s)" % notes[name] if name in notes else ""
        print("%-28s %14.6g %-6s%s" % (name, value, units[name], note))
    for r in failed:
        print("# failed %s (cycle %d) at %s after %.3f s: %s"
              % (r.name, r.cycle, r.stage, r.latency, r.message))


if __name__ == "__main__":
    sys.exit(main())
