"""Benchmark: time to an oracle-verified ``zenolab run`` sweep.

Run from the root of a zenolab checkout::

    python3 perfbench/run.py --workload zeno-d24 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --list-metrics

One run of a workload:

1. writes nothing but a scratch directory ``.perfbench_work/`` in the
   checkout, removed at the end;
2. starts ``SETUP_SAMPLES`` fresh interpreters that each time ``import
   zenolab`` plus parsing the workload's configs, half of them before the
   sweep and half after it (``setup_s`` is their median);
3. in between, starts one fresh interpreter that runs the workload's sweep through
   ``zenolab.cli.main`` in-process, repeating it while ``--seconds`` allows
   (``sweep_s`` is the median sweep, ``peak_rss_mb`` that process's
   ``ru_maxrss``).  With ``--trace 1`` it alternates plain and traced sweeps
   and the per-layer metrics come from the traced ones;
4. checks every CSV of every sweep against the independent oracle in
   ``oracle.py``, outside any timed region.

The children import zenolab from ``src/`` of the checkout and run BLAS with
as many threads as this process may use cores, set only through their
environment.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted`` (grid points checked), ``failed`` and
``metrics``; the lines before it give the environment and each metric by
name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import metrics
import oracle
import tracer
from workloads import WORKLOADS, sweep_runs

HERE = Path(__file__).resolve().parent
# Set-up time on the shared host switches between two levels about 50% apart
# for seconds at a time; samples taken on both sides of the sweep see more of
# both than samples taken back to back.
SETUP_SAMPLES = 10
# One BLAS thread: on a shared two-core machine, two-thread OpenBLAS medians
# moved by 30% between processes, single-thread ones by 6%.
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true", help="print every metric with its unit")
    parser.add_argument("--record", help="append the run's full record, one JSON line, to this file")
    args = parser.parse_args(argv)
    if not args.list_metrics and args.workload is None:
        parser.error("--workload is required")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return done.stdout.strip() or None


class Runner:
    """Starts the child interpreters of one run, each bounded by the run's deadline."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.blas_threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = str(self.blas_threads)
        self.count = 0

    def child(self, job: dict) -> dict:
        self.count += 1
        job_path = self.work / f"job{self.count}.json"
        result_path = self.work / f"result{self.count}.json"
        job_path.write_text(json.dumps(job))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached before the run finished")
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path)],
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {job['mode']} exceeded the time limit") from exc
        if done.returncode != 0:
            raise BenchError(f"child {job['mode']} exited {done.returncode}:\n{done.stderr[-4000:]}")
        if done.stderr:
            sys.stderr.write(done.stderr[-4000:])
        return json.loads(result_path.read_text())


def _check(runs: list, reps: list) -> oracle.Check:
    """Oracle-check every CSV of every sweep; references are computed once per pair."""
    total = oracle.Check()
    references = {}
    for rep in reps:
        for slot, ((config, seed), code) in enumerate(zip(runs, rep["exit_codes"])):
            if (config, seed) not in references:
                spec = oracle.read_config(config)
                references[(config, seed)] = (spec, oracle.reference(spec, seed))
            spec, ref = references[(config, seed)]
            csv_path = Path(rep["out"]) / str(slot) / f"{spec.experiment_id}.csv"
            check = oracle.check_csv(str(csv_path), spec, ref, code)
            total.attempted += check.attempted
            total.failed += check.failed
            total.max_deviation = max(total.max_deviation, check.max_deviation)
            total.problems += check.problems[: max(0, 20 - len(total.problems))]
    return total


def _layer_metrics(plain: list, traced: list) -> dict:
    """Per-layer metrics: the median over traced sweeps of each quantity."""
    per_rep = []
    for rep in traced:
        values = dict.fromkeys((name for name, _ in metrics.per_layer()), 0.0)
        for layer, totals in tracer.layer_totals(rep["spans"]).items():
            for field, _ in metrics.LAYER_FIELDS:
                values[f"{layer}.{field}"] = totals[field]
        for name, value in rep["counters"].items():
            values[name] = value
        values["trace.sweep_s"] = rep["seconds"]
        per_rep.append(values)
    result = {name: statistics.median(v[name] for v in per_rep) for name, _ in metrics.per_layer()}
    result["trace.overhead_s"] = result["trace.sweep_s"] - statistics.median(r["seconds"] for r in plain)
    return result


def _shares(layer_values: dict) -> dict:
    """Each layer's self and busy time as a share of the traced sweep."""
    total = sum(layer_values[f"{layer}.self_s"] for layer in metrics.LAYERS)
    if total <= 0:
        return {}
    return {
        layer: {
            "self_share": layer_values[f"{layer}.self_s"] / total,
            "busy_share": layer_values[f"{layer}.busy_s"] / total,
        }
        for layer in metrics.LAYERS
    }


def run(args, root: Path) -> dict:
    if not (root / "src" / "zenolab" / "__init__.py").is_file():
        raise BenchError(f"no zenolab source tree at {root / 'src' / 'zenolab'}; run from a checkout's root")
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    runs = sweep_runs(workload, args.seed)
    work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work, started + TIME_LIMIT_S)
    try:
        base = {"runs": runs, "work": str(work), "run_id": work.name}
        setups = [runner.child(dict(base, mode="setup"))["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        swept = runner.child(dict(base, mode="sweep", seconds=args.seconds, trace=args.trace))
        setups += [runner.child(dict(base, mode="setup"))["setup_s"] for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        source = Path(swept["zenolab_file"]).resolve()
        if root / "src" not in source.parents:
            raise BenchError(f"zenolab was imported from {source}, not from {root / 'src'}")
        checked = time.monotonic()
        check = _check(runs, swept["reps"])
        oracle_s = time.monotonic() - checked
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    plain = [r for r in swept["reps"] if not r["traced"]]
    traced = [r for r in swept["reps"] if r["traced"]]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": swept["blas"],
            "blas_threads_env": runner.blas_threads,
            "git_commit": _git_commit(root),
        },
        "sweep_seconds": [r["seconds"] for r in plain],
        "traced_sweep_seconds": [r["seconds"] for r in traced],
        "setup_seconds": setups,
        "attempted": check.attempted,
        "failed": check.failed,
        "fail_frac": check.failed / check.attempted,
        "problems": check.problems,
        "oracle_s": oracle_s,
        "oracle_max_deviation": check.max_deviation,
        "end_to_end": {
            "sweep_s": statistics.median(r["seconds"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": swept["peak_rss_mb"],
        },
    }
    if traced:
        record["per_layer"] = _layer_metrics(plain, traced)
        record["shares"] = _shares(record["per_layer"])
    return record


def _report(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"sweeps {len(record['sweep_seconds'])} plain, {len(record['traced_sweep_seconds'])} traced")
    for problem in record["problems"]:
        print(f"oracle: {problem}", file=sys.stderr)
    print(
        f"fail_frac {record['fail_frac']:.6g} ratio ({record['failed']} of {record['attempted']} grid points;"
        f" largest deviation from the oracle {record['oracle_max_deviation']:.2e})"
    )
    names = metrics.per_layer() if record["trace"] else metrics.end_to_end()
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    for name, unit in names:
        share = ""
        layer = name.rsplit(".", 1)[0]
        if name.endswith(".self_s") and layer in record.get("shares", {}):
            share = f"  ({100 * record['shares'][layer]['self_share']:.1f}% of traced time)"
        print(f"{name} {values[name]:.6g} {unit}{share}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
            }
        )
    )


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.list_metrics:
        print(metrics.listing())
        return 0
    try:
        record = run(args, Path.cwd().resolve())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    _report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
