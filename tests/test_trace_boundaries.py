"""The benchmark's tracer can wrap and restore every planner boundary it names.

``benchmarks/tracing.py`` looks functions up by module attribute; a renamed
or deleted planner function would otherwise surface only in traced runs.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402
from mtdplan import cli  # noqa: E402
from mtdplan.case import demo_case_path  # noqa: E402


def _lookup(module_name, attr):
    return getattr(importlib.import_module(module_name), attr, None)


def test_every_trace_boundary_resolves_and_is_restored():
    missing = [f"{m}.{a}" for m, a, _, _ in tracing.BOUNDARIES if _lookup(m, a) is None]
    assert missing == []
    originals = [_lookup(m, a) for m, a, _, _ in tracing.BOUNDARIES]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module_name, attr, _, _), original in zip(tracing.BOUNDARIES, originals):
            assert _lookup(module_name, attr).__wrapped__ is original, (module_name, attr)
        assert cli.main(["validate", "--case", demo_case_path()]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    for (module_name, attr, _, _), original in zip(tracing.BOUNDARIES, originals):
        assert _lookup(module_name, attr) is original, (module_name, attr)
    names = {span["name"] for span in tracer.spans}
    # The benchmark takes per-layer medians of these spans; an empty list fails its run.
    assert {"case.load_case", "phantom.build_phantom", "phantom.dose_influence"} <= names
