"""The benchmark's tracer (perfbench/tracing.py) against the package: it
hooks the names it looks up, and its LP shape counts are the matrix's."""

import importlib.util
import pathlib

import pytest

from amerbound import bench, bound, instances, market

from lp_helpers import csr

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    if not TRACING.exists():
        pytest.skip("no perfbench beside the tests")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_lp_matrix(tracing):
    sec26 = instances.get("sec26")
    cfg = bench.BenchConfig(strikes=(80.0, 100.0, 120.0), num_maturities=2)
    cases = [(sec26.surface, sec26.payoff),
             (bench.bs_surface(cfg), bench.linearized_grid(cfg))]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for surface, a in cases:
            bound.robust_bound(surface, a)
    finally:
        tracer.uninstall()
    solves = [span for span in tracer.spans if span.name == "lpcore.solve"]
    assert len(solves) == len(cases)
    for span, (surface, a) in zip(solves, cases):
        lp, _ = bound.build_primal_extended(market.extended_marginals(surface),
                                            a)
        assert (span.counts["rows"], span.counts["cols"]) == csr(lp).shape
        assert span.counts["nnz"] == csr(lp).nnz
        assert span.counts["status"] == "optimal"
