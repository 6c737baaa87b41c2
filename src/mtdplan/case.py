"""Case file loading and validation.

A case file is a single JSON document with sections ``phantom``,
``machine``, ``kernel``, ``criteria``, ``quality_indices`` and the
optional ``solver`` and ``pareto`` sections.  See the repository README
for the full schema.  Each section is read through one table that names
every key it takes and the JSON kind of each value.  A missing required
key, a key the table does not name, a value of the wrong kind and a
non-finite number (the non-standard ``NaN`` and ``Infinity`` tokens) are
each a :class:`CaseError` at the JSON path of the offending field;
defaults live on the dataclasses the sections build.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import json
import math
from dataclasses import dataclass, replace

from .errors import CaseError, FormulationError, PhantomError
from .evaluation import QualityIndexSpec
from .formulation import Criterion, CriterionSet
from .ipm import PreparedLP, Restart, SolverSettings
from .phantom import (DoseInfluence, KernelParams, MachineModel, Phantom, PhantomSpec,
                      RoiShapeSpec, RoiSpec, build_phantom, compute_dose_influence)

# The benchmark tracer (benchmarks/tracing.py) wraps the influence under this name.
load_or_compute_dose_influence = compute_dose_influence

_ROI_KINDS = ("target", "oar", "ring")

# One table per section, ``{key: kind}``.  A kind is a JSON type (``float``
# takes any finite number, ``int`` excludes bools), ``(float,) * 3`` a list of
# exactly three numbers or ``[float]`` a list of numbers of any length.
_XYZ = (float,) * 3
_CASE = {"name": str, "phantom": dict, "machine": dict, "kernel": dict, "criteria": list,
         "quality_indices": list, "solver": dict, "pareto": dict}
_PHANTOM = {"grid_dims": list, "voxel_size_mm": _XYZ, "rois": list}
_ROI = {"name": str, "kind": str, "shape": dict}
_SHAPES = {
    "sphere": {"type": str, "center_mm": _XYZ, "radius_mm": float},
    "box": {"type": str, "center_mm": _XYZ, "size_mm": _XYZ},
    "shell": {"type": str, "center_mm": _XYZ, "inner_radius_mm": float, "outer_radius_mm": float},
    "ring": {"type": str, "around": str, "inner_mm": float, "outer_mm": float},
}
_ANY_SHAPE = {key: kind for table in _SHAPES.values() for key, kind in table.items()}
_MACHINE = {"num_beams": int, "leaf_pairs": int, "bixels_per_row": int,
            "traverse_time_s": float, "min_gap_fraction": float, "transmission": float,
            "dose_rate": float, "max_time_s": float, "beam_angles_deg": [float]}
_KERNEL = dict.fromkeys(("lateral_sigma_mm", "attenuation_per_mm", "bixel_width_mm",
                         "leaf_width_mm", "cutoff_sigmas", "output_factor"), float)
_CRITERION = {"name": str, "roi": str, "type": str, "volume": float, "volume_cc": float,
              "hard_lower": float, "hard_upper": float, "utopian_lower": float,
              "utopian_upper": float, "objective": int}
_QUALITY_INDEX = {"name": str, "roi": str, "kind": str, "aim": str, "volume": float,
                  "low_pct": float, "high_pct": float}
_SOLVER = {"dose_tolerance_gy": float, "max_iterations": int, "step_fraction": float,
           "feasibility_tolerance": float}
_PARETO = {"grid_order": int, "workers": int}


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
    _prepared: PreparedLP | None = None   # kept by mco.prepared_instance
    _restart: tuple[int, Restart] | None = None   # (parent point, restart), set by mco._solve_entry

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

    A ``CaseError`` (say, from :func:`_fields`) passes through with its own,
    finer path.
    """
    try:
        yield
    except (FormulationError, PhantomError, ValueError) as exc:
        raise CaseError(str(exc), path=path) from exc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _checked(value, kind, path):
    """``value`` checked against ``kind`` (see the tables); numbers come back as floats."""
    if isinstance(kind, (tuple, list)):
        if not isinstance(value, list):
            raise CaseError(f"expected list, got {type(value).__name__}", path=path)
        if not all(_is_number(v) for v in value):
            raise CaseError("expected a list of numbers", path=path)
        if isinstance(kind, tuple) and len(value) != len(kind):
            raise CaseError(f"expected a list of {len(kind)} numbers", path=path)
        return tuple(_checked(v, float, path) for v in value)
    if kind is float:
        if not _is_number(value):
            raise CaseError(f"expected float, got {type(value).__name__}", path=path)
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise CaseError("expected a finite number", path=path)
        return number
    if not isinstance(value, kind) or isinstance(value, bool):
        raise CaseError(f"expected {kind.__name__}, got {type(value).__name__}", path=path)
    return value


def _fields(obj, path, kinds, required=()) -> dict:
    """The keys of the JSON object ``obj``, each checked against its kind in ``kinds``.

    A key missing from ``required``, a key ``kinds`` does not name and a value
    of the wrong kind are each a :class:`CaseError` at the field's path.
    """
    if not isinstance(obj, dict):
        raise CaseError("expected an object", path=path)
    for key in required:
        if key not in obj:
            raise CaseError("missing required field", path=f"{path}.{key}")
    for key in obj:
        if key not in kinds:
            raise CaseError("unknown field", path=f"{path}.{key}")
    return {key: _checked(value, kinds[key], f"{path}.{key}") for key, value in obj.items()}


def _section(cls, obj, path, kinds, required=()):
    """``cls`` built from the checked fields of ``obj``; its own checks report at ``path``."""
    fields = _fields(obj, path, kinds, required)
    with _reported_at(path):
        return cls(**fields)


def _parse_shape(obj, path) -> RoiShapeSpec:
    kind = _fields(obj, path, _ANY_SHAPE, required=("type",))["type"]
    if kind not in _SHAPES:
        raise CaseError(f"unknown shape type {kind!r}", path=f"{path}.type")
    kinds = _SHAPES[kind]
    fields = _fields(obj, path, kinds, required=[key for key in kinds if key != "inner_mm"])
    fields["kind_of_shape"] = fields.pop("type")
    if kind == "ring":
        fields.setdefault("inner_mm", 0.0)
    with _reported_at(path):
        return RoiShapeSpec(**fields)


def _parse_phantom(obj, path) -> Phantom:
    fields = _fields(obj, path, _PHANTOM, required=_PHANTOM)
    grid = fields["grid_dims"]
    if len(grid) != 3 or not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in grid):
        raise CaseError("expected a list of 3 positive integers", path=f"{path}.grid_dims")
    rois = []
    for i, roi_obj in enumerate(fields["rois"]):
        roi_path = f"{path}.rois[{i}]"
        roi = _fields(roi_obj, roi_path, _ROI, required=_ROI)
        if roi["kind"] not in _ROI_KINDS:
            raise CaseError(f"unknown ROI kind {roi['kind']!r}", path=f"{roi_path}.kind")
        roi["shape"] = _parse_shape(roi["shape"], f"{roi_path}.shape")
        rois.append(RoiSpec(**roi))
    spec = PhantomSpec(grid_dims=tuple(grid), voxel_size_mm=fields["voxel_size_mm"],
                       rois=tuple(rois))
    with _reported_at(path):
        return build_phantom(spec)


def _parse_criterion(obj, path, phantom: Phantom) -> Criterion:
    fields = _fields(obj, path, _CRITERION, required=("type", "roi"))
    fields["ctype"] = fields.pop("type")
    volume_cc = fields.pop("volume_cc", None)
    if volume_cc is not None:
        if "volume" in fields:
            raise CaseError("give either volume or volume_cc, not both", path=path)
        if not phantom.has_roi(fields["roi"]):
            raise CaseError(f"unknown ROI {fields['roi']!r}", path=f"{path}.roi")
        volume = fields["volume"] = volume_cc / phantom.roi(fields["roi"]).volume_cc
        if not (0.0 < volume < 1.0):
            raise CaseError(f"volume_cc={volume_cc} is {volume:.3g} of the ROI volume, "
                            "outside (0, 1)", path=f"{path}.volume_cc")
    elif "volume" in fields and not (0.0 < fields["volume"] < 1.0):
        raise CaseError(f"volume fraction must lie in (0, 1), got {fields['volume']}",
                        path=f"{path}.volume")
    with _reported_at(path):
        return Criterion(**fields)


def at_least_one(key: str, value: int, path: str) -> int:
    """The rule of the ``$.pareto`` integers, for the case file and the flags alike."""
    if value < 1:
        raise CaseError(f"{key} must be >= 1", path=path)
    return value


def overridden(settings, path: str, **changes):
    """``settings`` with ``changes``, under the checks of its case section, reported at ``path``."""
    with _reported_at(path):
        return replace(settings, **changes)


def case_from_dict(doc: dict, name_fallback: str = "case") -> Case:
    if not isinstance(doc, dict):
        raise CaseError("case document must be a JSON object", path="$")
    fields = _fields(doc, "$", _CASE, required=("phantom", "machine", "criteria", "quality_indices"))
    phantom = _parse_phantom(fields["phantom"], "$.phantom")
    machine = _section(MachineModel, fields["machine"], "$.machine", _MACHINE, required=_MACHINE)
    kernel = _section(KernelParams, fields.get("kernel", {}), "$.kernel", _KERNEL)

    criteria_list = [_parse_criterion(obj, f"$.criteria[{i}]", phantom)
                     for i, obj in enumerate(fields["criteria"])]
    with _reported_at("$.criteria"):
        criteria = CriterionSet(criteria_list)
        criteria.validate_against(phantom)

    indices = [_section(QualityIndexSpec, obj, f"$.quality_indices[{i}]", _QUALITY_INDEX,
                        required=("name", "roi", "kind", "aim"))
               for i, obj in enumerate(fields["quality_indices"])]
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

    solver = _section(SolverSettings, fields.get("solver", {}), "$.solver", _SOLVER)
    pareto = {key: at_least_one(key, value, f"$.pareto.{key}")
              for key, value in _fields(fields.get("pareto", {}), "$.pareto", _PARETO).items()}
    return Case(name=fields.get("name", name_fallback), phantom=phantom, machine=machine,
                kernel=kernel, criteria=criteria, quality_indices=tuple(indices), solver=solver,
                **pareto)


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
