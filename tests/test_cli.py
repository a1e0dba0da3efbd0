import json
import pathlib

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import amerbound
from amerbound import bound, certify, cli, instances, lpcore


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def _surface_file(tmp_path, name="sec26", mangle=None):
    s = instances.get(name).surface
    doc = {"s0": s.s0, "strikes": list(s.strikes),
           "maturities": list(s.maturities), "calls": s.prices.tolist()}
    if mangle:
        mangle(doc)
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps(doc))
    return str(path)


PAYOFF = '{"type": "example", "name": "sec26"}'
# Black-Scholes quotes whose top call is worth more than zero
HEADLINE = str(pathlib.Path(__file__).parent / "golden" / "headline.json")


def _arbitrage(doc):
    doc["calls"][2][2] += 1.0     # convexity violation in tight column


def test_version(runner):
    # the version comes from the package itself, not from the metadata of
    # an installed distribution
    res = runner.invoke(cli.main, ["--version"])
    assert res.exit_code == 0, res.output
    assert res.output.rstrip().endswith("version %s" % amerbound.__version__)


def test_validate_ok(runner, tmp_path):
    res = runner.invoke(cli.main, ["validate", "--input",
                                   _surface_file(tmp_path)])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["status"] == "weakly-valid"
    assert doc["zero_tail"] is True


def test_validate_invalid_exit_3(runner, tmp_path):
    res = runner.invoke(cli.main, ["validate", "--input",
                                   _surface_file(tmp_path, mangle=_arbitrage)])
    assert res.exit_code == 3
    assert json.loads(res.stdout)["status"] == "invalid"
    assert "error: surface is not arbitrage-free" in res.stderr


def test_parse_error_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(cli.main, ["validate", "--input", str(bad)])
    assert res.exit_code == 2


def test_bad_payoff_spec_exit_2(runner, tmp_path):
    res = runner.invoke(cli.main, ["bound", "--input",
                                   _surface_file(tmp_path),
                                   "--payoff", '{"type": "put"}'])
    assert res.exit_code == 2


@pytest.mark.parametrize("command", ["bound", "certify", "simulate"])
def test_input_errors_exit_codes(runner, tmp_path, command):
    surface = _surface_file(tmp_path)
    res = runner.invoke(cli.main, [command, "--input", surface,
                                   "--payoff", '{"type": "put"}'])
    assert res.exit_code == 2, res.output
    assert "bad payoff spec" in res.stderr
    res = runner.invoke(cli.main, [command, "--input",
                                   _surface_file(tmp_path, mangle=_arbitrage),
                                   "--payoff", PAYOFF])
    assert res.exit_code == 3, res.output
    assert "not arbitrage-free" in res.stderr


@pytest.mark.parametrize("spec", [
    '{"type": "put", "K": null}',
    '{"type": "put", "K": [100]}',
    '{"type": "grid", "values": {}}',
    '{"type": "example", "name": ["sec26"]}',
    '{"type": "grid", "values": [[130, 80, 40], [30, 20, 10], [0, 0, 0], '
    '[0, 0, 0]], "tail_slopes": {}}'])
def test_payoff_field_of_wrong_json_type_exit_2(runner, tmp_path, spec):
    res = runner.invoke(cli.main, ["bound", "--input", _surface_file(tmp_path),
                                   "--payoff", spec])
    assert res.exit_code == 2, res.output
    assert "bad payoff spec" in res.stderr


@pytest.mark.parametrize("text", ["[1, 2]", "3", "null"])
def test_payoff_file_of_another_json_value_exit_2(runner, tmp_path, text):
    spec = tmp_path / "payoff.json"
    spec.write_text(text)
    res = runner.invoke(cli.main, ["bound", "--input", _surface_file(tmp_path),
                                   "--payoff", str(spec)])
    assert res.exit_code == 2, res.output
    assert "payoff spec must be a JSON object" in res.stderr


@pytest.mark.parametrize("command, option", [
    ("bound", "--tol-gap"), ("certify", "--tol-gap"), ("simulate", "--tol-gap"),
    ("certify", "--tol-feas")])
@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_bad_tolerance_exit_2(runner, tmp_path, command, option, value):
    res = runner.invoke(cli.main, [command, "--input", _surface_file(tmp_path),
                                   "--payoff", PAYOFF, option, value])
    assert res.exit_code == 2, res.output
    assert option in res.stderr and "finite and nonnegative" in res.stderr


@pytest.mark.parametrize("command, trials", [
    ("certify", "0"), ("certify", "1"), ("simulate", "0"), ("simulate", "1"),
    ("simulate", "-5")])
def test_too_few_trials_exit_2(runner, tmp_path, command, trials):
    res = runner.invoke(cli.main, [command, "--input", _surface_file(tmp_path),
                                   "--payoff", PAYOFF, "--trials", trials])
    assert res.exit_code == 2, res.output
    assert "--trials" in res.stderr


@pytest.mark.parametrize("args, option", [
    (["certify", "--seed", "-1"], "--seed"),
    (["simulate", "--seed", "-1"], "--seed"),
    (["demo", "eg11", "--seed", "-1"], "--seed"),
    (["bench-table", "--steps", "50"], "--steps"),
    (["bench-table", "--steps", "99"], "--steps")])
def test_out_of_range_seed_or_steps_exit_2(runner, tmp_path, args, option):
    if args[0] in ("certify", "simulate"):
        args = args + ["--input", _surface_file(tmp_path), "--payoff", PAYOFF]
    res = runner.invoke(cli.main, args)
    assert res.exit_code == 2, res.output
    assert option in res.stderr


@pytest.mark.parametrize("command", ["bound", "certify", "simulate"])
@pytest.mark.parametrize("surface, example", [("sec26", "eg11"),
                                              ("sec52", "sec26")])
def test_example_payoff_on_another_grid_exit_2(runner, tmp_path, command,
                                               surface, example):
    # eg11's payoff has sec26's states but only two of its three maturities;
    # sec26's payoff is on another lattice than sec52's surface
    res = runner.invoke(cli.main, [
        command, "--input", _surface_file(tmp_path, surface), "--payoff",
        '{"type": "example", "name": "%s"}' % example])
    assert res.exit_code == 2, res.output
    assert "bad payoff spec" in res.stderr
    assert "another lattice or other maturities" in res.stderr


@pytest.mark.parametrize("command", ["bound", "certify", "simulate"])
def test_bounded_variant_on_quotes_with_a_tail_exit_2(runner, command):
    # every surface is bounded in one form, and the option that chose
    # between two is gone: a command line that still passes it is refused
    # before any solve
    res = runner.invoke(cli.main, [
        command, "--input", HEADLINE, "--payoff",
        '{"type": "put", "K": 100, "r": 0.05}', "--variant", "bounded"])
    assert res.exit_code == 2, res.output
    assert "No such option '--variant'" in res.stderr


@pytest.mark.parametrize("command", ["validate", "bound", "certify",
                                     "simulate"])
def test_missing_input_file_exit_2(runner, tmp_path, command):
    missing = tmp_path / "missing.json"
    args = [command, "--input", str(missing)]
    if command != "validate":
        args += ["--payoff", PAYOFF]
    res = runner.invoke(cli.main, args)
    assert res.exit_code == 2, res.output
    assert "missing.json" in res.stderr and "does not exist" in res.stderr


@pytest.mark.parametrize("command", ["validate", "bound", "certify",
                                     "simulate", "bench-table"])
def test_unwritable_out_exit_2(runner, tmp_path, command):
    out = str(tmp_path / "missing" / "report")
    if command == "bench-table":
        args = [command, "--steps", "100"]
    else:
        args = [command, "--input", _surface_file(tmp_path)]
        if command != "validate":
            args += ["--payoff", PAYOFF]
        if command in ("certify", "simulate"):
            args += ["--trials", "1000"]
    res = runner.invoke(cli.main, args + ["--out", out])
    assert res.exit_code == 2, res.output
    assert "error: cannot write report:" in res.stderr
    assert "Traceback" not in res.output


def test_unwritable_bench_table_sidecar_exit_2(runner, tmp_path):
    # the table is written; its JSON sidecar's path is a directory
    out = tmp_path / "table.csv"
    (tmp_path / "table.csv.json").mkdir()
    res = runner.invoke(cli.main, ["bench-table", "--steps", "100",
                                   "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "error: cannot write report:" in res.stderr
    assert out.read_text().startswith("chi,")


def test_solver_failure_exit_4(runner, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise bound.BoundError("forced failure")
    monkeypatch.setattr(bound, "robust_bound", boom)
    res = runner.invoke(cli.main, ["bound", "--input",
                                   _surface_file(tmp_path),
                                   "--payoff", PAYOFF])
    assert res.exit_code == 4


def test_solver_status_named_exit_4(runner, tmp_path, monkeypatch):
    def infeasible(lp):
        return lpcore.LPSolution("infeasible", float("nan"), None, None, 0)
    monkeypatch.setattr(lpcore, "solve", infeasible)
    res = runner.invoke(cli.main, ["bound", "--input",
                                   _surface_file(tmp_path),
                                   "--payoff", PAYOFF])
    assert res.exit_code == 4
    assert "HiGHS" in res.stderr and "infeasible" in res.stderr


def test_gap_failure_exit_5(runner, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise bound.GapError(1.0, 2.0, 1e-6)
    monkeypatch.setattr(bound, "robust_bound", boom)
    res = runner.invoke(cli.main, ["bound", "--input",
                                   _surface_file(tmp_path),
                                   "--payoff", PAYOFF])
    assert res.exit_code == 5


def test_model_off_phi_exit_5(runner, tmp_path, monkeypatch):
    unpack = certify.model_from_primal

    def halved(*args):
        model = unpack(*args)
        model.F = 0.5 * model.F
        return model

    monkeypatch.setattr(certify, "model_from_primal", halved)
    res = runner.invoke(cli.main, ["bound", "--input",
                                   _surface_file(tmp_path),
                                   "--payoff", PAYOFF])
    assert res.exit_code == 5
    assert "not phi = 35.625" in res.stderr


def test_hedge_grid_violation_exit_5(runner, tmp_path, monkeypatch):
    # V at the first maturity does not enter the hedge's cost, so lowering
    # one of its multipliers below the payoff keeps phi = psi; only the grid
    # check in robust_bound sees the broken exercise-coverage row (i)
    s = instances.get("sec26").surface
    M, N = len(s.states), len(s.maturities)
    solve = lpcore.solve

    def lowered(lp):
        sol = solve(lp)
        # rows (e) come last, n-major; state 0 at n = 1 pays 130 there
        sol.duals[len(lp.rows) - N * M] -= 200.0
        return sol

    monkeypatch.setattr(lpcore, "solve", lowered)
    res = runner.invoke(cli.main, ["bound", "--input",
                                   _surface_file(tmp_path),
                                   "--payoff", PAYOFF])
    assert res.exit_code == 5
    assert "grid rows (i)-(iii): worst residual -200," in res.stderr


def test_bound_report_contents(runner, tmp_path):
    res = runner.invoke(cli.main, ["bound", "--input",
                                   _surface_file(tmp_path),
                                   "--payoff", PAYOFF])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["phi"] == pytest.approx(35.625, abs=1e-8)
    assert doc["psi"] == pytest.approx(35.625, abs=1e-8)
    assert set(doc["model"]) == {"F", "G1", "G2", "q", "states"}
    assert set(doc["hedge"]) == {"E1", "E2", "D1", "D2", "V"}
    # the lattice, the far state past it, and the tail row of every block
    assert doc["model"]["states"][:-1] == [0.0, 50.0, 100.0, 150.0]
    assert doc["model"]["states"][-1] >= 1e9 * 150.0
    assert all(len(doc["hedge"][name]) == 5 for name in doc["hedge"])


def test_bound_single_maturity_surface(runner, tmp_path):
    # one maturity leaves the hedge without dynamic holdings D1/D2
    def mangle(doc):
        doc["maturities"] = doc["maturities"][:1]
        doc["calls"] = [row[:1] for row in doc["calls"]]
    res = runner.invoke(cli.main, ["bound", "--input",
                                   _surface_file(tmp_path, mangle=mangle),
                                   "--payoff",
                                   '{"type": "put", "K": 100, "r": 0.05}'])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["phi"] == pytest.approx(doc["psi"], abs=1e-8)


def test_artifacts_byte_identical(runner, tmp_path):
    surface = _surface_file(tmp_path)
    for command, extra in (("bound", []), ("certify", ["--trials", "2000"]),
                           ("simulate", ["--trials", "2000"])):
        outs = []
        for i in (1, 2):
            out = tmp_path / ("%s%d.json" % (command, i))
            res = runner.invoke(cli.main, [command, "--input", surface,
                                           "--payoff", PAYOFF,
                                           "--out", str(out)] + extra)
            assert res.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], command


def test_report_sorted_keys_and_digits():
    text = cli.emit_report({"b": 1 / 3, "a": {"z": 2.0, "y": True}},
                           out=None, fmt="json")
    doc = json.loads(text)
    assert list(doc) == ["a", "b"]
    assert doc["b"] == 0.333333333333          # 12 significant digits
    assert doc["a"]["y"] is True


def test_simulate_reports_estimate(runner, tmp_path):
    res = runner.invoke(cli.main, ["simulate", "--input",
                                   _surface_file(tmp_path),
                                   "--payoff", PAYOFF,
                                   "--trials", "20000", "--seed", "4"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert abs(doc["estimate"] - doc["phi"]) <= 4 * doc["stderr"]


def test_certify_command(runner, tmp_path):
    res = runner.invoke(cli.main, ["certify", "--input",
                                   _surface_file(tmp_path),
                                   "--payoff", PAYOFF,
                                   "--trials", "20000"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["certified"] is True
    assert doc["verification"]["lattice-exhaustive"]["min_slack"] >= -1e-9


def test_demo_commands(runner):
    for name, value in (("sec26", "35.625000"), ("sec52", "3.600000"),
                        ("eg11", "34.000000")):
        res = runner.invoke(cli.main, ["demo", name])
        assert res.exit_code == 0, res.output
        assert value in res.output
        assert res.output.strip().endswith("ok")


def test_grid_payoff_spec(runner, tmp_path):
    inst = instances.get("sec26")
    spec = json.dumps({"type": "grid",
                       "values": inst.payoff.values.tolist()})
    res = runner.invoke(cli.main, ["bound", "--input",
                                   _surface_file(tmp_path),
                                   "--payoff", spec])
    assert res.exit_code == 0
    assert json.loads(res.output)["phi"] == pytest.approx(35.625, abs=1e-8)


def test_put_payoff_spec(runner, tmp_path):
    from amerbound import bench
    cfg = bench.BenchConfig(num_maturities=2, strikes=(80, 100, 120))
    s = bench.bs_surface(cfg)
    doc = {"s0": s.s0, "strikes": list(s.strikes),
           "maturities": list(s.maturities), "calls": s.prices.tolist()}
    path = tmp_path / "bs.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(cli.main, ["bound", "--input", str(path), "--payoff",
                                   '{"type": "put", "K": 100, "r": 0.05}'])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["phi"] >= doc["psi"] - 1e-6


@pytest.mark.parametrize("command, extra", [
    ("validate", []), ("bound", ["--payoff", PAYOFF])])
def test_nan_quote_exit_2(runner, tmp_path, command, extra):
    def mangle(doc):
        doc["calls"][2][1] = float("nan")
    res = runner.invoke(cli.main, [command, "--input",
                                   _surface_file(tmp_path, mangle=mangle)]
                        + extra)
    assert res.exit_code == 2, res.output
    assert "finite" in res.stderr


def test_infinite_grid_payoff_exit_2(runner, tmp_path):
    # on a 3-strike, 2-maturity zero-tail surface, refused before any solve
    def mangle(doc):
        doc["maturities"] = doc["maturities"][:2]
        doc["calls"] = [row[:2] for row in doc["calls"]]
    res = runner.invoke(cli.main, [
        "bound", "--input", _surface_file(tmp_path, mangle=mangle),
        "--payoff", '{"type":"grid","values":[[Infinity,1],[1,1],[1,1],[0,0]]}'])
    assert res.exit_code == 2, res.output
    assert "bad payoff spec" in res.stderr and "finite" in res.stderr


@pytest.mark.parametrize("spec", ['{"type":"put","K":100,"r":Infinity}',
                                  '{"type":"put","K":Infinity}'])
def test_non_finite_put_spec_exit_2(runner, tmp_path, spec):
    # refused by discounted_put, before the payoff is sampled or evaluated
    res = runner.invoke(cli.main, ["bound", "--input", _surface_file(tmp_path),
                                   "--payoff", spec])
    assert res.exit_code == 2, res.output
    assert "bad payoff spec: need a finite strike" in res.stderr


@pytest.mark.parametrize("tail_slopes", [[0.5], 0.5])
@pytest.mark.parametrize("variant", ["bounded", "extended"])
def test_grid_payoff_tail_slopes_per_maturity_exit_2(runner, tmp_path,
                                                     variant, tail_slopes):
    # a 3-strike, 2-maturity surface: sec26's zero-tail quotes, or
    # Black-Scholes quotes, whose top call is worth more than zero
    from amerbound import bench
    if variant == "bounded":
        def mangle(doc):
            doc["maturities"] = doc["maturities"][:2]
            doc["calls"] = [row[:2] for row in doc["calls"]]
        path = _surface_file(tmp_path, mangle=mangle)
    else:
        s = bench.bs_surface(bench.BenchConfig(num_maturities=2,
                                               strikes=(80, 100, 120)))
        path = tmp_path / "bs.json"
        path.write_text(json.dumps({
            "s0": s.s0, "strikes": list(s.strikes),
            "maturities": list(s.maturities), "calls": s.prices.tolist()}))
    spec = json.dumps({"type": "grid",
                       "values": [[100, 100], [20, 20], [5, 5], [0, 0]],
                       "tail_slopes": tail_slopes})
    res = runner.invoke(cli.main, ["bound", "--input", str(path),
                                   "--payoff", spec])
    assert res.exit_code == 2, res.output
    assert "bad payoff spec" in res.stderr
    assert "one slope per maturity" in res.stderr


@pytest.mark.parametrize("doc", [
    {"marginals": [[0.5], [0.5]], "states": [0, 1]},
    {"marginals": [[0.5], ["half"]], "states": [0, 1], "maturities": [1]},
    {"marginals": [[0.5], [0.5]], "states": [], "maturities": [1]},
    {"marginals": [[0.5], [0.5]], "states": None, "maturities": [1]},
    {"s0": 100, "strikes": 50, "maturities": [1], "calls": [[1]]},
])
def test_malformed_marginals_document_exit_2(runner, tmp_path, doc):
    path = tmp_path / "marginals.json"
    path.write_text(json.dumps(doc))
    for command, extra in (("validate", []), ("bound", ["--payoff", PAYOFF])):
        res = runner.invoke(cli.main, [command, "--input", str(path)] + extra)
        assert res.exit_code == 2, (command, res.output)
        assert "malformed" in res.stderr


def test_nan_replay_slack_fails_certification(runner, tmp_path, monkeypatch):
    verify = certify.verify_superreplication

    def nan_slack(*args, **kwargs):
        rep = verify(*args, **kwargs)
        rep.min_slack = float("nan")
        return rep

    monkeypatch.setattr(certify, "verify_superreplication", nan_slack)
    res = runner.invoke(cli.main, ["certify", "--input",
                                   _surface_file(tmp_path),
                                   "--payoff", PAYOFF, "--trials", "2000"])
    assert res.exit_code == 5, res.output
    assert json.loads(res.stdout)["certified"] is False
    assert "error: certificates fail: lattice-exhaustive, interval-random, " \
        "full-line-random" in res.stderr


# ---------------------------------------------------------------------------
# every command-line input ends in a documented exit code with a message

NAN, INF = float("nan"), float("inf")
JUNK = [None, "x", [], {}, 5, -1.0, [1.0], [[1.0]], ["a"], [[None]], NAN, True]


def _mostly(draw, good, bad):
    """A draw from good about seven times in eight, else from bad, so that
    many command lines get past every field."""
    return draw(st.sampled_from(good if draw(st.integers(0, 7)) else bad))


def _docs():
    """Valid input documents: sec26's zero-tail quotes, Black-Scholes
    quotes whose top call is worth more than zero, and sec26's implied
    marginals."""
    from amerbound import bench, market
    docs = []
    for s in (instances.get("sec26").surface,
              bench.bs_surface(bench.BenchConfig(strikes=(80, 100, 120),
                                                 num_maturities=2))):
        docs.append({"s0": s.s0, "strikes": s.strikes.tolist(),
                     "maturities": s.maturities.tolist(),
                     "calls": s.prices[1:].tolist()})
    s = instances.get("sec26").surface
    docs.append({"marginals": market.implied_marginals(s).tolist(),
                 "states": s.states.tolist(),
                 "maturities": s.maturities.tolist()})
    return docs


DOCS = _docs()


# CSV quotes whose strike-0 row is empty, off s0 or repeated
ZERO_ROW_CSV = ["x,1,2\n%s90,12,15\n100,5,8\n" % zero
                for zero in ("0\n", "0,100,55\n", "0,100,100\n0,80,80\n")]


@st.composite
def surface_texts(draw):
    """A surface file's text and its lattice shape (None when
    malformed)."""
    doc = draw(st.sampled_from(DOCS))
    doc = json.loads(json.dumps(doc))
    shape = (len(doc.get("strikes", doc.get("states", [0])[1:])) + 1,
             len(doc["maturities"]))
    how = _mostly(draw, ["keep"], ["drop", "junk", "short", "entry", "text"])
    key = draw(st.sampled_from(sorted(doc)))
    if how == "drop":
        del doc[key]
    elif how == "junk":
        doc[key] = draw(st.sampled_from(JUNK))
    elif how == "short":        # one entry short; s0 turns negative
        doc[key] = (doc[key][:-1] if isinstance(doc[key], list)
                    else -doc[key])
    elif how == "entry":
        value = draw(st.sampled_from([NAN, INF, -1.0, 0.0, 1e3, "1", None]))
        if isinstance(doc[key], list):
            i = draw(st.integers(0, len(doc[key]) - 1))
            if isinstance(doc[key][i], list):
                doc[key][i][draw(st.integers(0, len(doc[key][i]) - 1))] = value
            else:
                doc[key][i] = value
        else:
            doc[key] = value
    elif how == "text":
        texts = ["", "{not json", "[1, 2]", "{}", "0,1\n0,100\n",
                 "1,2\n3,4\n", "x\n0,1,2\n"] + ZERO_ROW_CSV
        return draw(st.sampled_from(texts)), None
    return json.dumps(doc), shape if how == "keep" else None


@st.composite
def payoff_specs(draw, shape):
    """An inline payoff spec of each type, its fields of right or wrong JSON
    types; a grid has the surface's shape when it is known."""
    kind = draw(st.sampled_from(["put", "grid", "example", "other"]))
    M, N = shape or (4, 3)
    if kind == "put":
        spec = {"type": "put",
                "K": _mostly(draw, [100, 90.5, "100"], [0, -5] + JUNK)}
        if draw(st.booleans()):
            spec["r"] = _mostly(draw, [0.05, 0], JUNK)
    elif kind == "grid":
        good = draw(st.lists(st.lists(st.floats(0, 150), min_size=N,
                                      max_size=N), min_size=M, max_size=M))
        spec = {"type": "grid", "values": _mostly(draw, [good],
                                                  [good[:-1]] + JUNK)}
        if draw(st.booleans()):
            spec["tail_slopes"] = _mostly(draw, [[0.5] * N, [0.0] * N],
                                          [[0.5] * (N + 1), [-1.0] * N, 0.5]
                                          + JUNK)
    elif kind == "example":
        spec = {"type": "example",
                "name": _mostly(draw, ["sec26"],
                                ["sec52", "eg11", "nope"] + JUNK)}
    else:
        spec = draw(st.sampled_from([{}, {"type": "call"}, {"type": None},
                                     {"type": ["put"]}]))
    return json.dumps(spec)


@st.composite
def options(draw, name, low, high=None):
    """An option and its value, and whether the value is in the option's
    range: a tolerance, finite and nonnegative, when high is None; else a
    count of trials or steps or a seed, an integer in [low, high]."""
    ok = draw(st.integers(0, 7)) > 0
    if high is None:
        value = (repr(draw(st.floats(1e-12, 1.0))) if ok else
                 draw(st.sampled_from(["nan", "inf", "-inf", "-1", "x"])))
    else:
        value = str(draw(st.integers(low, high) if ok
                         else st.integers(-3, low - 1)))
    return [name, value], ok


@st.composite
def command_lines(draw, path):
    """A command line, and whether every option value is in its range.  Now
    and then a report goes under a directory that does not exist."""
    command = draw(st.sampled_from(["validate", "bound", "certify", "simulate",
                                    "bench-table", "demo"]))
    out = [] if draw(st.integers(0, 7)) else [
        "--out", str(pathlib.Path(path).parent / "missing" / "report")]
    if command == "bench-table":
        steps, ok = draw(options("--steps", 100, 120))
        return [command, "--sweep", draw(st.sampled_from(
            ["moneyness", "maturities"]))] + steps + out, ok
    if command == "demo":
        seed, ok = draw(options("--seed", 0, 2 ** 64))
        return [command, draw(st.sampled_from(sorted(instances.BUILTIN)))] \
            + seed, ok
    text, shape = draw(surface_texts())
    with open(path, "w") as fh:
        fh.write(text)
    args = [command, "--input", path] + out
    if command == "validate":
        return args + ["--mode", draw(st.sampled_from(["weak", "strict"]))], True
    spec = draw(payoff_specs(shape))
    if not draw(st.integers(0, 7)):         # a payoff file, of any JSON value
        with open(path + ".payoff", "w") as fh:
            fh.write(draw(st.sampled_from([spec, "[1, 2]", "3", "null", "{"])))
        spec = path + ".payoff"
    args += ["--payoff", spec]
    drawn = [options("--tol-gap", 0.0)]
    if command != "bound":
        drawn += [options("--trials", 2, 2000), options("--seed", 0, 2 ** 64)]
    if command == "certify":
        drawn.append(options("--tol-feas", 0.0))
    ok = True
    for option in drawn:
        pair, in_range = draw(option)
        args += pair
        ok &= in_range
    return args, ok


@settings(max_examples=200)
@given(data=st.data())
def test_every_input_ends_in_a_documented_exit(tmp_path_factory, data):
    # an option out of its range is malformed input, refused before any
    # work
    path = str(tmp_path_factory.getbasetemp() / "surface.json")
    args, options_ok = data.draw(command_lines(path))
    res = CliRunner().invoke(cli.main, args)
    assert res.exit_code in (0, 2, 3, 4, 5), (res.exit_code, res.exception)
    assert options_ok or res.exit_code == 2, res.output
    # no report can be written, so no command that writes one succeeds
    assert "--out" not in args or res.exit_code, res.output
    assert "Traceback" not in res.output
    if res.exit_code:
        assert any(line.lower().startswith("error:")
                   for line in res.stderr.splitlines()), res.output
