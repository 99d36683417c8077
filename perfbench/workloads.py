"""The benchmark's workloads: which configs one sweep runs, and with which seeds.

A sweep is a list of ``(config path, seed)`` pairs, each one
``zenolab --out <dir> --seed <seed> run <config>``.  The seeds derive from
the benchmark's ``--seed`` alone, so the same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

LAB_PRESETS = (
    "attenuator-mixing",
    "attenuator-zeno",
    "attenuator-damping",
    "uniform-zeno",
    "binomial-limit",
    "simplex-bounds",
)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple
    seeds_per_config: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zeno-d24",
            ("zeno-d24.ini",),
            1,
            "attenuator Zeno sweep at d=24, n=8..4096: dense matrix_power on 576x576 dominates, "
            "matrix_exp second",
        ),
        Workload(
            "damping-d24",
            ("damping-d24.ini",),
            1,
            "attenuator strong damping at d=24, gamma=8..2048: stiff matrix_exp dominates; "
            "no matrix_power calls",
        ),
        Workload(
            "mixing-d32",
            ("mixing-d32.ini",),
            1,
            "attenuator mixing at d=32: Kraus-to-superoperator builds dominate time and memory; "
            "no matrix_exp",
        ),
        Workload(
            "lab-suite",
            tuple(f"lab-{name}.ini" for name in LAB_PRESETS),
            3,
            "the six shipped presets at shipped sizes (d<=16) for three seeds: small problems, "
            "time spread over every layer",
        ),
    )
}


def derive_seed(bench_seed: int, workload: str, index: int) -> int:
    """A 63-bit config seed that depends only on the benchmark seed and its slot."""
    digest = hashlib.sha256(f"{bench_seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def sweep_runs(workload: Workload, bench_seed: int) -> list:
    """The ``(config path, seed)`` pairs of one sweep, in the order they run."""
    return [
        (str(CONFIG_DIR / config), derive_seed(bench_seed, workload.name, index))
        for index in range(workload.seeds_per_config)
        for config in workload.configs
    ]
