"""Each demo script runs to completion against the library in ``src/``."""

import csv
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from zenolab.experiments import generator_norm

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ, MPLBACKEND="Agg", PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_zeno_demo_prints_the_cli_errors(tmp_path):
    # one engine: the errors the demo prints for coherent:0.8 are the error
    # column of `zenolab run attenuator-zeno`, digit for digit
    printed = {}
    for line in run_python([str(ROOT / "demos" / "zeno_sweep.py")], tmp_path).splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0].isdigit():
            printed[fields[0]] = fields[1]
    run_python(["-m", "zenolab", "--out", str(tmp_path), "run", "attenuator-zeno"], tmp_path)
    with open(tmp_path / "attenuator-zeno.csv", newline="") as handle:
        written = {row["parameter"]: row["error"] for row in csv.DictReader(handle) if row["state_id"] == "coherent:0.8"}
    assert len(written) == 10
    assert printed == written


def test_speed_bounds_demo_prints_the_exact_norm_and_a_dominating_core(capsys):
    # ||L|| is the exact norm of the demo's own config, and the bound core
    # lies above every error the demo prints
    namespace = runpy.run_path(str(ROOT / "demos" / "speed_bounds.py"))
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    (norm,) = [fields[-1] for fields in lines if fields[:1] == ["||L||"]]
    assert float(norm) == generator_norm(namespace["sweep"])
    ratios = [float(fields[3]) for fields in lines if len(fields) == 5 and fields[0].isdigit()]
    assert len(ratios) == 4
    assert all(ratio < 1 for ratio in ratios)
