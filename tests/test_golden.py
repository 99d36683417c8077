"""Byte-identical CSV output: the shipped presets and the bench configs against stored golden files.

``tests/golden/<name>.csv`` holds CSV columns 1-8 (everything but
``wall_time_ms``) of one run of each config at its own seed.  A change that
means to keep every number must leave them byte for byte; one that means to
change a number regenerates the file and says why.
"""

from pathlib import Path

import pytest

from zenolab.experiments import PRESETS, parse_config, preset_config, rows_to_csv_text, run_experiment

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
BENCH_CONFIGS = ("zeno-d24", "damping-d24", "mixing-d32")


def _without_wall_time(text: str) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


@pytest.mark.parametrize("name", [*PRESETS, *BENCH_CONFIGS])
def test_csv_columns_match_the_golden_file(name):
    if name in PRESETS:
        cfg = preset_config(name)
    else:
        cfg = parse_config(str(ROOT / "perfbench" / "configs" / f"{name}.ini"))
    got = _without_wall_time(rows_to_csv_text(run_experiment(cfg)))
    assert got == (GOLDEN / f"{name}.csv").read_text()
