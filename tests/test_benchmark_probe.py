"""The benchmark worker's Newton probe still runs against the planner.

``benchmarks/worker._newton_seconds`` builds ``ipm.KKTSystem`` and calls
``ipm.time_newton_solve`` by name, but only in traced benchmark runs; a
change to either would otherwise surface only there.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import worker  # noqa: E402
from mtdplan.case import demo_case_path  # noqa: E402


def test_worker_newton_probe_times_the_demo():
    seconds = worker._newton_seconds(demo_case_path())
    assert math.isfinite(seconds) and seconds > 0.0
