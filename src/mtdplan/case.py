"""Case file loading and validation.

A case file is a single JSON document with sections ``phantom``,
``machine``, ``kernel``, ``criteria``, ``quality_indices`` and the
optional ``solver`` and ``pareto`` sections.  See the repository README
for the full schema.  Validation errors carry the JSON path of the
offending field.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import json
from dataclasses import dataclass, replace

from .errors import CaseError, FormulationError, PhantomError
from .evaluation import QualityIndexSpec
from .formulation import Criterion, CriterionSet
from .ipm import SolverSettings
from .phantom import (DoseInfluence, KernelParams, MachineModel, Phantom, PhantomSpec,
                      RoiShapeSpec, RoiSpec, build_phantom, load_or_compute_dose_influence)

_ROI_KINDS = ("target", "oar", "ring")
_SHAPE_KINDS = ("sphere", "box", "shell", "ring")
_REQUIRED = object()


@dataclass
class Case:
    """A fully validated planning case."""

    name: str
    phantom: Phantom
    machine: MachineModel
    kernel: KernelParams
    criteria: CriterionSet
    quality_indices: tuple[QualityIndexSpec, ...]
    solver: SolverSettings
    grid_order: int = 4
    workers: int = 1
    _influence: DoseInfluence | None = None

    def dose_influence(self) -> DoseInfluence:
        if self._influence is None:
            self._influence = load_or_compute_dose_influence(self.phantom, self.machine, self.kernel)
        return self._influence

    def solver_settings(self) -> SolverSettings:
        return replace(self.solver)

    def index_aims(self) -> tuple[str, ...]:
        return tuple(spec.aim for spec in self.quality_indices)


@contextlib.contextmanager
def _reported_at(path):
    """Report a domain error raised inside the block as a :class:`CaseError` at ``path``.

    A ``CaseError`` (say, from :func:`_expect`) passes through with its own,
    finer path.
    """
    try:
        yield
    except (FormulationError, PhantomError, ValueError) as exc:
        raise CaseError(str(exc), path=path) from exc


def _expect(mapping, key, kind, path, default=_REQUIRED):
    """Fetch ``mapping[key]`` checking its JSON type; no default means required."""
    if key not in mapping:
        if default is _REQUIRED:
            raise CaseError("missing required field", path=f"{path}.{key}")
        return default
    value = mapping[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise CaseError(f"expected {kind.__name__}, got {type(value).__name__}",
                        path=f"{path}.{key}")
    return value


def _floats(mapping, key, path, count=3):
    """A list of JSON numbers as a float tuple; ``count=None`` allows any length."""
    value = _expect(mapping, key, list, path)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise CaseError("expected a list of numbers", path=f"{path}.{key}")
    if count is not None and len(value) != count:
        raise CaseError(f"expected a list of {count} numbers", path=f"{path}.{key}")
    return tuple(float(v) for v in value)


def _parse_shape(obj, path) -> RoiShapeSpec:
    kind = _expect(obj, "type", str, path)
    if kind not in _SHAPE_KINDS:
        raise CaseError(f"unknown shape type {kind!r}", path=f"{path}.type")
    if kind == "sphere":
        return RoiShapeSpec(kind_of_shape="sphere",
                            center_mm=_floats(obj, "center_mm", path),
                            radius_mm=_expect(obj, "radius_mm", float, path))
    if kind == "box":
        return RoiShapeSpec(kind_of_shape="box",
                            center_mm=_floats(obj, "center_mm", path),
                            size_mm=_floats(obj, "size_mm", path))
    if kind == "shell":
        return RoiShapeSpec(kind_of_shape="shell",
                            center_mm=_floats(obj, "center_mm", path),
                            inner_radius_mm=_expect(obj, "inner_radius_mm", float, path),
                            outer_radius_mm=_expect(obj, "outer_radius_mm", float, path))
    return RoiShapeSpec(kind_of_shape="ring",
                        around=_expect(obj, "around", str, path),
                        inner_mm=_expect(obj, "inner_mm", float, path, default=0.0),
                        outer_mm=_expect(obj, "outer_mm", float, path))


def _parse_phantom(obj, path) -> Phantom:
    grid = _expect(obj, "grid_dims", list, path)
    if len(grid) != 3 or not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in grid):
        raise CaseError("expected a list of 3 positive integers", path=f"{path}.grid_dims")
    voxel = _floats(obj, "voxel_size_mm", path)
    rois_json = _expect(obj, "rois", list, path)
    rois = []
    for i, roi_obj in enumerate(rois_json):
        roi_path = f"{path}.rois[{i}]"
        if not isinstance(roi_obj, dict):
            raise CaseError("expected an object", path=roi_path)
        kind = _expect(roi_obj, "kind", str, roi_path)
        if kind not in _ROI_KINDS:
            raise CaseError(f"unknown ROI kind {kind!r}", path=f"{roi_path}.kind")
        shape_obj = _expect(roi_obj, "shape", dict, roi_path)
        rois.append(RoiSpec(name=_expect(roi_obj, "name", str, roi_path), kind=kind,
                            shape=_parse_shape(shape_obj, f"{roi_path}.shape")))
    spec = PhantomSpec(grid_dims=tuple(grid), voxel_size_mm=voxel, rois=tuple(rois))
    with _reported_at(path):
        return build_phantom(spec)


def _parse_machine(obj, path) -> MachineModel:
    with _reported_at(path):
        return MachineModel(
            num_beams=_expect(obj, "num_beams", int, path),
            leaf_pairs=_expect(obj, "leaf_pairs", int, path),
            bixels_per_row=_expect(obj, "bixels_per_row", int, path),
            traverse_time_s=_expect(obj, "traverse_time_s", float, path),
            min_gap_fraction=_expect(obj, "min_gap_fraction", float, path),
            transmission=_expect(obj, "transmission", float, path),
            dose_rate=_expect(obj, "dose_rate", float, path),
            max_time_s=_expect(obj, "max_time_s", float, path),
            beam_angles_deg=_floats(obj, "beam_angles_deg", path, count=None),
        )


def _parse_kernel(obj, path) -> KernelParams:
    with _reported_at(path):
        return KernelParams(
            lateral_sigma_mm=_expect(obj, "lateral_sigma_mm", float, path, default=3.0),
            attenuation_per_mm=_expect(obj, "attenuation_per_mm", float, path, default=0.005),
            bixel_width_mm=_expect(obj, "bixel_width_mm", float, path, default=5.0),
            leaf_width_mm=_expect(obj, "leaf_width_mm", float, path, default=10.0),
            cutoff_sigmas=_expect(obj, "cutoff_sigmas", float, path, default=3.0),
            output_factor=_expect(obj, "output_factor", float, path, default=1.0),
        )


def _parse_criterion(obj, path, phantom: Phantom) -> Criterion:
    ctype = _expect(obj, "type", str, path)
    volume = _expect(obj, "volume", float, path, default=None)
    volume_cc = _expect(obj, "volume_cc", float, path, default=None)
    roi_name = _expect(obj, "roi", str, path)
    if volume is not None and volume_cc is not None:
        raise CaseError("give either volume or volume_cc, not both", path=path)
    if volume_cc is not None:
        if not phantom.has_roi(roi_name):
            raise CaseError(f"unknown ROI {roi_name!r}", path=f"{path}.roi")
        volume = volume_cc / phantom.roi(roi_name).volume_cc
        if not (0.0 < volume < 1.0):
            raise CaseError(f"volume_cc={volume_cc} is {volume:.3g} of the ROI volume, "
                            "outside (0, 1)", path=f"{path}.volume_cc")
    if volume is not None and not (0.0 < volume < 1.0):
        raise CaseError(f"volume fraction must lie in (0, 1), got {volume}", path=f"{path}.volume")
    with _reported_at(path):
        return Criterion(
            roi=roi_name,
            ctype=ctype,
            volume=volume,
            hard_lower=_expect(obj, "hard_lower", float, path, default=None),
            hard_upper=_expect(obj, "hard_upper", float, path, default=None),
            utopian_lower=_expect(obj, "utopian_lower", float, path, default=None),
            utopian_upper=_expect(obj, "utopian_upper", float, path, default=None),
            objective=_expect(obj, "objective", int, path, default=None),
            name=_expect(obj, "name", str, path, default=""),
        )


def _parse_quality_index(obj, path) -> QualityIndexSpec:
    with _reported_at(path):
        return QualityIndexSpec(
            name=_expect(obj, "name", str, path),
            roi=_expect(obj, "roi", str, path),
            kind=_expect(obj, "kind", str, path),
            aim=_expect(obj, "aim", str, path),
            volume=_expect(obj, "volume", float, path, default=None),
            low_pct=_expect(obj, "low_pct", float, path, default=None),
            high_pct=_expect(obj, "high_pct", float, path, default=None),
        )


def _parse_solver(obj, path) -> SolverSettings:
    kwargs = {}
    for key, kind in (("dose_tolerance_gy", float), ("max_iterations", int),
                      ("step_fraction", float), ("feasibility_tolerance", float)):
        value = _expect(obj, key, kind, path, default=None)
        if value is not None:
            kwargs[key] = value
    with _reported_at(path):
        return SolverSettings(**kwargs)


def case_from_dict(doc: dict, name_fallback: str = "case") -> Case:
    if not isinstance(doc, dict):
        raise CaseError("case document must be a JSON object", path="$")
    name = _expect(doc, "name", str, "$", default=name_fallback)
    phantom = _parse_phantom(_expect(doc, "phantom", dict, "$"), "$.phantom")
    machine = _parse_machine(_expect(doc, "machine", dict, "$"), "$.machine")
    kernel = _parse_kernel(_expect(doc, "kernel", dict, "$", default={}), "$.kernel")

    criteria_json = _expect(doc, "criteria", list, "$")
    criteria_list = []
    for i, obj in enumerate(criteria_json):
        if not isinstance(obj, dict):
            raise CaseError("expected an object", path=f"$.criteria[{i}]")
        criteria_list.append(_parse_criterion(obj, f"$.criteria[{i}]", phantom))
    with _reported_at("$.criteria"):
        criteria = CriterionSet(criteria_list)
        criteria.validate_against(phantom)

    indices_json = _expect(doc, "quality_indices", list, "$")
    indices = []
    for i, obj in enumerate(indices_json):
        if not isinstance(obj, dict):
            raise CaseError("expected an object", path=f"$.quality_indices[{i}]")
        indices.append(_parse_quality_index(obj, f"$.quality_indices[{i}]"))
    for i, spec in enumerate(indices):
        if not phantom.has_roi(spec.roi):
            raise CaseError(f"unknown ROI {spec.roi!r}", path=f"$.quality_indices[{i}].roi")
    if len(indices) != criteria.num_slots:
        raise CaseError(f"{len(indices)} quality indices but {criteria.num_slots} objective slots",
                        path="$.quality_indices")
    for i, (spec, aim) in enumerate(zip(indices, criteria.slot_aims)):
        if spec.aim != aim:
            raise CaseError(f"index aim {spec.aim!r} conflicts with objective slot aim {aim!r}",
                            path=f"$.quality_indices[{i}].aim")

    solver = _parse_solver(_expect(doc, "solver", dict, "$", default={}), "$.solver")
    pareto = _expect(doc, "pareto", dict, "$", default={})
    grid_order = _expect(pareto, "grid_order", int, "$.pareto", default=4)
    workers = _expect(pareto, "workers", int, "$.pareto", default=1)
    if grid_order < 1:
        raise CaseError("grid_order must be >= 1", path="$.pareto.grid_order")
    if workers < 1:
        raise CaseError("workers must be >= 1", path="$.pareto.workers")
    return Case(name=name, phantom=phantom, machine=machine, kernel=kernel,
                criteria=criteria, quality_indices=tuple(indices), solver=solver,
                grid_order=grid_order, workers=workers)


def load_case(path) -> Case:
    """Load and validate a case file.  ``demo:<name>`` resolves bundled cases."""
    text = read_case_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(f"invalid JSON: {exc}", path="$")
    fallback = str(path).rsplit("/", 1)[-1].removesuffix(".json")
    return case_from_dict(doc, name_fallback=fallback)


def read_case_text(path) -> str:
    path = str(path)
    if path.startswith("demo:"):
        name = path.removeprefix("demo:")
        resource = importlib.resources.files("mtdplan").joinpath(f"cases/{name}.json")
        if not resource.is_file():
            raise CaseError(f"unknown demo case {name!r}")
        return resource.read_text()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CaseError(f"cannot read case file: {exc}")


def demo_case_path() -> str:
    """Locator of the bundled prostate-like demo case (pass to --case)."""
    return "demo:prostate_demo"
