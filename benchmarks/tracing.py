"""Spans recorded around the planner's layer boundaries, from outside.

A :class:`Tracer` replaces public functions at the module attributes
their callers look them up by (``cli.load_case``, ``ipm.solve``, ...)
with wrappers that record one span per call: name, layer, start, end,
parent span and the unit of work it belongs to.  Spans stay in memory
until the run ends.  Nothing under ``src/`` changes; ``uninstall``
restores every original.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute looked up by the caller, span name, layer)
BOUNDARIES = (
    ("mtdplan.cli", "load_case", "case.load_case", "case"),
    ("mtdplan.case", "build_phantom", "phantom.build_phantom", "phantom"),
    ("mtdplan.case", "load_or_compute_dose_influence", "phantom.dose_influence", "phantom"),
    ("mtdplan.cli", "roi_weight_vector", "phantom.roi_weight_vector", "phantom"),
    ("mtdplan.cli", "build_weighted_instance", "formulation.build_weighted_instance", "formulation"),
    ("mtdplan.mco", "build_weighted_instance", "formulation.build_weighted_instance", "formulation"),
    ("mtdplan.ipm", "solve", "ipm.solve", "ipm"),
    ("mtdplan.mco", "fluence_from_trajectories", "dmlc.fluence_from_trajectories", "dmlc"),
    ("mtdplan.mco", "dose_from_trajectories", "dmlc.dose_from_trajectories", "dmlc"),
    ("mtdplan.evaluation", "evaluate_plan", "evaluation.evaluate_plan", "evaluation"),
    ("mtdplan.evaluation", "dvh_curve", "evaluation.dvh_curve", "evaluation"),
    ("mtdplan.evaluation", "default_dose_grid", "evaluation.default_dose_grid", "evaluation"),
    ("mtdplan.cli", "solve_single_weight", "mco.solve_single_weight", "mco"),
    ("mtdplan.mco", "solve_single_weight", "mco.solve_single_weight", "mco"),
    ("mtdplan.mco", "weight_grid", "mco.weight_grid", "mco"),
    ("mtdplan.mco", "generate_pareto_set", "mco.generate_pareto_set", "mco"),
    ("mtdplan.mco", "hull_and_shift_report", "mco.hull_and_shift_report", "mco"),
    ("mtdplan.cli", "_write_plan_artifacts", "cli.write_plan_artifacts", "io"),
    ("mtdplan.cli", "_write_quality_report", "cli.write_quality_report", "io"),
    ("mtdplan.cli", "_write_dvh_band_svg", "cli.write_dvh_band_svg", "io"),
    ("mtdplan.cli", "write_trajectories_csv", "dmlc.write_trajectories_csv", "io"),
    ("mtdplan.cli", "write_fluence_csv", "dmlc.write_fluence_csv", "io"),
    ("mtdplan.cli", "write_dose_volume", "fileio.write_dose_volume", "io"),
    ("mtdplan.evaluation", "write_dvh_csv", "evaluation.write_dvh_csv", "io"),
    ("mtdplan.evaluation", "write_violation_csv", "evaluation.write_violation_csv", "io"),
    ("mtdplan.mco", "write_pareto_csv", "mco.write_pareto_csv", "io"),
    ("mtdplan.mco", "write_shift_report_csv", "mco.write_shift_report_csv", "io"),
    ("mtdplan.ipm", "write_iteration_log", "ipm.write_iteration_log", "io"),
    ("mtdplan.svgplot", "scatter3d_two_views", "svgplot.scatter3d_two_views", "io"),
    ("mtdplan.svgplot", "dvh_bands", "svgplot.dvh_bands", "io"),
)

# Layer of the span the benchmark opens around each ``cli.main`` call; its
# self time is the unattributed remainder.
ROOT_LAYER = "cli"


def _counts(name: str, args, result) -> dict:
    """Work counts recorded at the boundaries where the work happens."""
    if name == "ipm.solve":
        lp = args[0]
        return {"iterations": result.iterations, "status": result.status,
                "schur_order": lp.n1 + lp.m1}
    if name == "formulation.build_weighted_instance":
        return {"a21_nnz": int(result.a21.nnz)}
    if name == "phantom.dose_influence":
        return {"nnz": int(result.matrix.nnz)}
    return {}


class Tracer:
    """In-memory span recorder for one worker process (single-threaded)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.unit = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str, layer: str) -> dict:
        span = {"id": len(self.spans), "name": name, "layer": layer,
                "parent": self._stack[-1] if self._stack else None, "unit": self.unit,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        self._stack.pop()
        span["end"] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            counts = _counts(name, args, result)
            if counts:
                span["counts"] = counts
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, layer in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, layer))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - covered for span, covered in zip(spans, child)]


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per layer, the root layer included."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
    return totals
