"""Golden reports: the CLI's bytes for fixed inputs, seeds and path counts.

``bound``, ``certify --trials 100000 --seed 7`` and ``simulate --trials
1000000 --seed 7`` run on sec26 (its example payoff) and on the headline
Black-Scholes quotes (a 5% discounted put struck at 100), and each report
must equal the file under ``tests/golden/`` byte for byte; so must the CSV
table and the JSON sidecar of ``bench-table --sweep moneyness``, and so must
what ``python -m amerbound.cli demo`` prints for each built-in instance.  The
bytes are tied to the numpy and scipy the files were made with (numpy 2.4.6,
scipy 1.17.1): another HiGHS build may pick another optimal vertex, and
another numpy may round a reduction differently.  A change that moves a report on
purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import difflib
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from amerbound import bench, cli, instances

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = {"sec26": '{"type": "example", "name": "sec26"}',
          "headline": '{"type": "put", "K": 100, "r": 0.05}'}
COMMANDS = {"bound": [],
            "certify": ["--trials", "100000", "--seed", "7"],
            "simulate": ["--trials", "1000000", "--seed", "7"]}
CASES = [(c, i) for c in COMMANDS for i in INPUTS]
TABLE = "bench_table_moneyness.csv"
DEMOS = ("sec26", "sec52", "eg11")


def _surface_doc(name):
    s = (instances.get("sec26").surface if name == "sec26"
         else bench.bs_surface(bench.BenchConfig()))
    return {"s0": s.s0, "strikes": s.strikes.tolist(),
            "maturities": s.maturities.tolist(), "calls": s.prices.tolist()}


def _report(command, name):
    res = CliRunner().invoke(cli.main, [
        command, "--input", os.path.join(HERE, name + ".json"),
        "--payoff", INPUTS[name], *COMMANDS[command]])
    assert res.exit_code == 0, res.output
    return res.stdout


def _demo(name):
    """What ``python -m amerbound.cli demo name`` prints, run on this
    package's source in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "amerbound.cli", "demo", name],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path)).stdout


def _golden_path(command, name):
    return os.path.join(HERE, "%s_%s.json" % (command, name))


def _table(out):
    """The CSV table and its JSON sidecar, written under the path out."""
    res = CliRunner().invoke(cli.main, ["bench-table", "--sweep", "moneyness",
                                        "--out", out])
    assert res.exit_code == 0, res.output
    with open(out) as csv, open(out + ".json") as sidecar:
        return {TABLE: csv.read(), TABLE + ".json": sidecar.read()}


def _assert_golden(file, got):
    with open(os.path.join(HERE, file)) as fh:
        want = fh.read()
    assert got == want, "".join(difflib.unified_diff(
        want.splitlines(True), got.splitlines(True), "golden/" + file, "now"))


@pytest.mark.parametrize("command, name", CASES)
def test_report_matches_golden_bytes(command, name):
    _assert_golden(os.path.basename(_golden_path(command, name)),
                   _report(command, name))


def test_bench_table_matches_golden_bytes(tmp_path):
    for file, got in _table(str(tmp_path / TABLE)).items():
        _assert_golden(file, got)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_golden_bytes(name):
    _assert_golden("demo_%s.txt" % name, _demo(name))


if __name__ == "__main__":
    import tempfile

    for name in INPUTS:
        with open(os.path.join(HERE, name + ".json"), "w") as fh:
            json.dump(_surface_doc(name), fh, indent=1)
            fh.write("\n")
    for command, name in CASES:
        with open(_golden_path(command, name), "w") as fh:
            fh.write(_report(command, name))
    for name in DEMOS:
        with open(os.path.join(HERE, "demo_%s.txt" % name), "w") as fh:
            fh.write(_demo(name))
    with tempfile.TemporaryDirectory() as tmp:
        for file, text in _table(os.path.join(tmp, TABLE)).items():
            with open(os.path.join(HERE, file), "w") as fh:
                fh.write(text)
