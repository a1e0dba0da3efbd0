"""Self-check of the benchmark itself; needs numpy only.

    python3 perfbench/selfcheck.py

Asserts that each workload's generator is deterministic for a seed, that
op names, shapes and counts do not depend on the seed while input values
do, and that the workload and metric names the benchmark prints are exactly
those of BENCHMARK.json and use only letters, digits, '_', '.' and '-'.
Exits non-zero with the failed assertion otherwise.
"""

import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEEDS = (0, 1, 11, 2 ** 31 - 1)


def fingerprint(ops):
    return json.dumps([(op.name, op.cells, op.inputs) for op in ops],
                      sort_keys=True)


def check_generators():
    for workload, cycle in workloads.CYCLES.items():
        shapes = None
        prints = set()
        for seed in SEEDS:
            ops = cycle(seed)
            assert fingerprint(ops) == fingerprint(cycle(seed)), \
                "%s: seed %d gives different inputs on a second call" % (workload, seed)
            shape = [(op.name, op.cells, sorted(op.inputs)) for op in ops]
            assert shapes is None or shape == shapes, \
                "%s: op names, shapes or count depend on the seed" % workload
            shapes = shape
            prints.add(fingerprint(ops))
        assert len(prints) == len(SEEDS), \
            "%s: different seeds give the same inputs" % workload
        assert len({name for name, _, _ in shapes}) == len(shapes), \
            "%s: op names repeat within a cycle" % workload


def check_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {key: [m["name"] for m in spec[key]]
                for key in ("workloads", "end_to_end", "per_layer")}
    printed = {
        "workloads": list(workloads.CYCLES),
        "end_to_end": list(run.end_to_end_metrics(
            [run.Record(0, "op", 1, 0.5)], 1.0, 1.0, 1.0)),
        "per_layer": list(tracing.layer_metrics([], 1, [], 0.0)),
    }
    for key, names in printed.items():
        assert sorted(names) == sorted(declared[key]), \
            "%s printed %s, BENCHMARK.json has %s" % (key, names, declared[key])
        for name in names:
            assert NAME.match(name), "bad %s name %r" % (key, name)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert units == run.E2E_UNITS, "end-to-end units differ from BENCHMARK.json"
    units = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert units == {k: v[:2] for k, v in tracing.LAYER_METRICS.items()}, \
        "per-layer units or directions differ from BENCHMARK.json"


if __name__ == "__main__":
    check_generators()
    check_names()
    print("selfcheck ok: %d workloads, seeds %s" % (len(workloads.CYCLES), SEEDS))
