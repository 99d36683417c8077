"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; the benchmark's tests keep the two
in step.
"""

from __future__ import annotations

END_TO_END = (
    ("sweep_s", "s", "median wall time of one sweep, first cli.main call to last CSV written"),
    ("setup_s", "s", "median over fresh interpreters of import zenolab plus parsing the configs"),
    ("peak_rss_mb", "MB", "ru_maxrss of the process that ran the sweeps"),
)

# zenolab's layers, in the order a sweep reaches them.
LAYERS = (
    "cli.main",
    "experiments.parse",
    "experiments.run_experiment",
    "experiments.build_states",
    "sampling",
    "fock.coherent_vector",
    "channels.to_superoperator",
    "channels.superop_build",
    "zeno.validate",
    "zeno.effective_dynamics",
    "linalg.matrix_exp",
    "zeno.evolve",
    "linalg.trace_norm",
    "zeno.fit",
    "binomial",
    "cli.probe",
    "experiments.write_csv",
)

LAYER_FIELDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))

COUNTS = (
    ("zeno.evolve.matmuls", "count"),
    ("zeno.evolve.gflop_computed", "GFLOP"),
    ("linalg.matrix_exp.squarings", "count"),
    ("linalg.matrix_exp.gflop_computed", "GFLOP"),
    ("channels.superop_bytes_computed", "bytes"),
    ("experiments.csv_bytes", "bytes"),
)

TRACE = (
    ("trace.sweep_s", "s"),
    ("trace.overhead_s", "s"),
)


def end_to_end() -> list:
    return [(name, unit) for name, unit, _ in END_TO_END]


def per_layer() -> list:
    names = [(f"{layer}.{field}", unit) for layer in LAYERS for field, unit in LAYER_FIELDS]
    return names + list(COUNTS) + list(TRACE)


def listing() -> str:
    lines = ["end_to_end (reported with --trace 0):"]
    lines += [f"  {name:40s} {unit:6s} {what}" for name, unit, what in END_TO_END]
    lines.append("per_layer (reported with --trace 1):")
    lines += [f"  {name:40s} {unit}" for name, unit in per_layer()]
    return "\n".join(lines)
