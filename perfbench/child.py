"""One fresh interpreter of a benchmark run.

    python3 perfbench/child.py <job.json> <result.json>

The job names the sweep's ``(config, seed)`` pairs, a mode and a time
budget.  Every mode first times ``import zenolab`` plus parsing each distinct
config (the set-up time).  Mode ``setup`` stops there.  Mode ``sweep`` then
calls ``zenolab.cli.main`` in-process for every pair, repeating the whole
sweep while the budget allows another one; with ``trace`` set it alternates
plain and traced sweeps.  Nothing is imported before the set-up clock
starts except the standard library.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _call(main, argv) -> int:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash inside zenolab is a failed grid point, not a harness error
        traceback.print_exc()
        code = -1
    return 0 if code is None else code


def _sweep(cli, job: dict, index: int, traced: bool) -> dict:
    out_root = Path(job["work"]) / f"rep{index}"
    main, tracer = cli.main, None
    if traced:
        from tracer import ROOT_LAYER, Tracer

        tracer = Tracer(run_id=f"{job['run_id']}-rep{index}")
        tracer.install()
        main = tracer.wrap(ROOT_LAYER, cli.main)
    codes = []
    try:
        started = time.perf_counter()
        for slot, (config, seed) in enumerate(job["runs"]):
            argv = ["--out", str(out_root / str(slot)), "--seed", str(seed), "run", config]
            codes.append(_call(main, argv))
        seconds = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    rep = {"index": index, "traced": traced, "seconds": seconds, "exit_codes": codes, "out": str(out_root)}
    if tracer is not None:
        rep.update(run_id=tracer.run_id, spans=tracer.spans, counters=dict(tracer.counters))
    return rep


def _sweeps(job: dict) -> list:
    from zenolab import cli

    kinds = (False, True) if job["trace"] else (False,)
    reps = []
    started = time.perf_counter()
    while True:
        for traced in kinds:
            reps.append(_sweep(cli, job, len(reps), traced))
        elapsed = time.perf_counter() - started
        per_round = elapsed * len(kinds) / len(reps)
        if elapsed + per_round > job["seconds"]:
            return reps


def _blas() -> dict:
    """BLAS name and version from numpy's build, and the threads it runs with."""
    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line})
    for library in libraries:
        lib = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())

    started = time.perf_counter()
    import zenolab
    from zenolab.experiments import parse_config

    for config in dict.fromkeys(config for config, _ in job["runs"]):
        parse_config(config)
    setup_s = time.perf_counter() - started

    result = {"setup_s": setup_s, "zenolab_file": zenolab.__file__}
    if job["mode"] == "sweep":
        result["reps"] = _sweeps(job)
        import numpy

        result["numpy"] = numpy.__version__
        result["blas"] = _blas()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
