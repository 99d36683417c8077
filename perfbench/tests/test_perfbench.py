"""Tests of the benchmark itself: oracle, metric listing and tracer.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
from zenolab import cli  # noqa: E402

SMALL_CONFIGS = {
    "mixing": """
[experiment]
kind = mixing
dimension = 6
[channel]
eta_re = 0.7
[grid]
start = 1
factor = 2
count = 4
[states]
specs = fock:1, coherent:0.1, random:0
""",
    "zeno": """
[experiment]
kind = zeno
dimension = 5
[grid]
start = 8
factor = 2
count = 4
[states]
specs = fock:1, random:0
""",
    "zeno-gapped": """
[experiment]
kind = zeno
id = zeno-gapped
[channel]
type = gapped
delta = 0.5
[generator]
hamiltonian = random
scale = 0.5
[grid]
start = 8
factor = 2
count = 4
[states]
specs = random:0, random:1
""",
    "damping": """
[experiment]
kind = damping
dimension = 5
[generator]
type = dephasing
rate = 0.2
[grid]
start = 8
factor = 2
count = 4
[states]
specs = fock:2, random:1
""",
    "binomial": """
[experiment]
kind = binomial
[grid]
start = 8
factor = 2
count = 4
[states]
specs = random:0
""",
    "binomial-gapped": """
[experiment]
kind = binomial
id = binomial-gapped
[binomial]
mode = gapped
[grid]
start = 8
factor = 2
count = 4
[states]
specs = random:0, random:1
""",
    "simplex": """
[experiment]
kind = simplex
[simplex]
k_max = 4
[grid]
start = 2
factor = 2
count = 4
""",
}


def _run(tmp_path: Path, name: str, seed: int = 5):
    config = tmp_path / f"{name}.ini"
    config.write_text(SMALL_CONFIGS[name])
    assert cli.main(["--out", str(tmp_path), "--seed", str(seed), "run", str(config)]) == 0
    spec = oracle.read_config(str(config))
    return spec, oracle.reference(spec, seed), tmp_path / f"{spec.experiment_id}.csv"


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_oracle_counts_an_error_perturbed_by_1e9_as_a_failure(tmp_path, name):
    spec, ref, csv_path = _run(tmp_path, name)
    clean = oracle.check_csv(str(csv_path), spec, ref, 0)
    assert (clean.attempted, clean.failed) == (len(ref.keys), 0), clean.problems
    assert clean.max_deviation <= oracle.ABS_TOL

    # the last row is the last grid point, which the oracle always checks
    lines = csv_path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[4] = repr(float(fields[4]) + 1e-9)
    lines[-1] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    perturbed = oracle.check_csv(str(csv_path), spec, ref, 0)
    assert (perturbed.attempted, perturbed.failed) == (len(ref.keys), 1)


def test_oracle_fails_every_point_of_a_failed_run(tmp_path):
    spec, ref, csv_path = _run(tmp_path, "zeno")
    assert oracle.check_csv(str(csv_path), spec, ref, 3).failed == len(ref.keys)
    csv_path.write_text(csv_path.read_text().replace("wall_time_ms", "wall_ms"))
    assert oracle.check_csv(str(csv_path), spec, ref, 0).failed == len(ref.keys)


def test_oracle_counts_missing_and_extra_rows(tmp_path):
    spec, ref, csv_path = _run(tmp_path, "mixing")
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:-1] + [lines[1]]) + "\n")
    check = oracle.check_csv(str(csv_path), spec, ref, 0)
    assert check.failed == 2 and check.attempted == len(ref.keys) + 1


def test_metric_listing_prints_every_metric_with_its_unit():
    listing = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--list-metrics"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section in ("end_to_end", "per_layer"):
        for metric in declared[section]:
            assert any(line.split()[:2] == [metric["name"], metric["unit"]] for line in listing), metric


def test_benchmark_json_declares_the_reported_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == metrics.end_to_end()
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == metrics.per_layer()


def test_traced_self_times_are_nonnegative_and_within_the_traced_time(tmp_path):
    configs = []
    for name in ("zeno", "damping", "mixing", "binomial"):
        configs.append(tmp_path / f"{name}.ini")
        configs[-1].write_text(SMALL_CONFIGS[name])
    trace = tracer.Tracer(run_id="test")
    original = cli.run_experiment
    trace.install()
    try:
        main = trace.wrap(tracer.ROOT_LAYER, cli.main)
        for config in configs:
            assert main(["--out", str(tmp_path), "run", str(config)]) == 0
    finally:
        trace.uninstall()
    assert cli.run_experiment is original

    totals = tracer.layer_totals(trace.spans)
    total = sum(end - start for _, parent, _, start, end in trace.spans if parent < 0)
    assert set(totals) <= set(metrics.LAYERS)
    assert totals[tracer.ROOT_LAYER]["calls"] == len(configs)
    assert all(t["self_s"] >= 0 and t["busy_s"] <= total + 1e-9 for t in totals.values())
    assert sum(t["self_s"] for t in totals.values()) <= total + 1e-9
    for layer in ("zeno.evolve", "linalg.matrix_exp", "channels.to_superoperator", "binomial"):
        assert totals[layer]["calls"] > 0, layer


def test_matrix_power_count_is_binary_powering():
    counters = {"zeno.evolve.matmuls": 0, "zeno.evolve.gflop_computed": 0.0}
    for n in (1, 2, 3, 4096, 4095):
        tracer._count_matrix_power(counters, (np.zeros((4, 4)), n), {}, None)
    assert counters["zeno.evolve.matmuls"] == 0 + 1 + 2 + 12 + (11 + 12 - 1)


def test_run_without_a_source_tree_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab-suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_spread_is_the_interquartile_range_over_the_median():
    import spread

    records = [
        {"workload": "w", "seed": seed, "attempted": 2, "failed": 0, "oracle_max_deviation": 0.0,
         "sweep_seconds": [value], "end_to_end": {"sweep_s": value}}
        for seed, value in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])
    ]
    stats = spread.summarise(records)["w"]["end_to_end"]["sweep_s"]
    assert (stats["median"], stats["q1"], stats["q3"]) == (3.0, 1.5, 4.5)
    assert stats["spread"] == 1.0
