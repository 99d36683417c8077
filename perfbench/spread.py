"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a zenolab checkout::

    python3 perfbench/spread.py --workload mixing-d32 --seeds 201-210 --records runs.jsonl
    python3 perfbench/spread.py --records runs.jsonl          # summarise records only

Each seed is one ``run.py --trace 0`` run, appended as one JSON line to
``--records``.  The summary gives, per workload and end-to-end metric, the
median, the quartiles and the spread (q3 - q1) / median, with the quartiles
taken as ``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(records: list) -> dict:
    """Per workload: the seeds, the failures and each end-to-end metric's spread."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        summary = {
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "oracle_max_deviation": max(r["oracle_max_deviation"] for r in runs),
            "sweeps_per_run": [len(r["sweep_seconds"]) for r in runs],
            "end_to_end": {},
        }
        for name in runs[0]["end_to_end"]:
            values = [r["end_to_end"][name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            summary["end_to_end"][name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "samples": values,
            }
        out[workload] = summary
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--records", required=True, help="JSON-lines file the runs are appended to")
    args = parser.parse_args(argv)
    if args.workload:
        for seed in _seeds(args.seeds):
            command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", "0", "--record", args.records]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"seed {seed}: run.py exited {done.returncode}", file=sys.stderr)
                return done.returncode
            print(f"seed {seed}: {done.stdout.strip().splitlines()[-1]}", flush=True)
    with open(args.records, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    for workload, summary in summarise(records).items():
        print(f"{workload}: seeds {summary['seeds']}, failed {summary['failed']} of {summary['attempted']}")
        for name, stats in summary["end_to_end"].items():
            print(f"  {name:12s} median {stats['median']:.6g}  spread {100 * stats['spread']:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
