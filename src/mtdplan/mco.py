"""Pareto plan generation over a simplex weight grid and cloud analysis."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import evaluation, ipm
from .dmlc import Trajectories, dose_from_trajectories, fluence_from_trajectories
from .fileio import write_csv
from .formulation import build_weighted_instance


def weight_grid(num_objectives: int, order: int) -> np.ndarray:
    """Equidistant lattice of normalized weight vectors on the unit simplex.

    For K objectives and order n this is {(i1/n, ..., iK/n) : sum i = n},
    i.e. C(n+K-1, K-1) vectors; for K = 3 they tile the triangle with
    corners (1,0,0), (0,1,0) and (0,0,1).
    """
    if order <= 0:
        raise ValueError("grid order must be >= 1")
    if num_objectives <= 0:
        raise ValueError("num_objectives must be >= 1")

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    grid = np.array(list(compositions(order, num_objectives)), dtype=float) / order
    return grid


@dataclass
class Plan:
    """A solved weighted-sum plan plus its evaluation artifacts."""

    weights: np.ndarray
    trajectories: Trajectories
    fluence: np.ndarray
    dose: np.ndarray
    xi: np.ndarray
    objective_value: float
    objective_coordinates: np.ndarray
    quality: np.ndarray
    violations: list
    gap_gy: float
    iterations: int
    status: str
    solver_history: list = field(default_factory=list)
    message: str = ""   # the solver's account of a status other than converged

    @property
    def feasible(self) -> bool:
        return self.status == "converged"


@dataclass
class ParetoEntry:
    index: int
    weights: np.ndarray
    status: str
    plan: Plan | None
    message: str = ""


@dataclass
class ParetoSet:
    entries: list[ParetoEntry]
    balanced_index: int

    def converged(self) -> list[ParetoEntry]:
        return [e for e in self.entries if e.plan is not None and e.plan.feasible]

    def quality_matrix(self) -> np.ndarray:
        return np.array([e.plan.quality for e in self.converged()])

    def objective_matrix(self) -> np.ndarray:
        return np.array([e.plan.objective_coordinates for e in self.converged()])


def solve_single_weight(case, weights, settings: ipm.SolverSettings | None = None) -> Plan:
    """Build and solve one weighted-sum instance, returning the full plan."""
    lp = build_weighted_instance(case.phantom, case.machine, case.dose_influence(),
                                 case.criteria, weights, name=case.name)
    result = ipm.solve(lp, settings or case.solver_settings())
    traj = lp.extract_trajectories(result.x)
    fluence = fluence_from_trajectories(traj, case.machine)
    dose = dose_from_trajectories(case.dose_influence(), traj, case.machine)
    quality, violations = evaluation.evaluate_plan(case.phantom, dose,
                                                   case.quality_indices, case.criteria)
    return Plan(weights=np.asarray(weights, dtype=float),
                trajectories=traj, fluence=fluence, dose=dose,
                xi=lp.xi_values(result.x),
                objective_value=result.objective,
                objective_coordinates=lp.objective_coordinates(result.x),
                quality=quality, violations=violations,
                gap_gy=result.gap_gy, iterations=result.iterations,
                status=result.status, solver_history=result.history, message=result.message)


def _solve_entry(args) -> ParetoEntry:
    index, case, weights, settings = args
    try:
        plan = solve_single_weight(case, weights, settings)
        return ParetoEntry(index=index, weights=np.asarray(weights), status=plan.status, plan=plan)
    except Exception as exc:  # a failed weight must not kill the sweep
        return ParetoEntry(index=index, weights=np.asarray(weights), status="error",
                           plan=None, message=str(exc))


def generate_pareto_set(case, grid: np.ndarray, settings: ipm.SolverSettings | None = None,
                        workers: int = 1) -> ParetoSet:
    """Solve one weighted-sum instance per grid point.

    Failures are recorded per entry rather than raised, except when every
    single instance fails.  Results are merged in grid order regardless
    of the worker count, so output is deterministic.
    """
    grid = np.asarray(grid, dtype=float)
    case.dose_influence()  # computed once here, so each task carries it to its worker
    tasks = [(i, case, grid[i], settings) for i in range(grid.shape[0])]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_solve_entry, tasks))
    else:
        entries = [_solve_entry(t) for t in tasks]
    entries.sort(key=lambda e: e.index)
    if all(e.plan is None for e in entries):
        raise RuntimeError("every weighted-sum instance failed: "
                           + "; ".join(e.message for e in entries[:3]))
    uniform = np.full(grid.shape[1], 1.0 / grid.shape[1])
    balanced = int(np.argmin(np.linalg.norm(grid - uniform, axis=1)))
    return ParetoSet(entries=entries, balanced_index=balanced)


def nondominated_subset(points, aims) -> list[int]:
    """Indices of points not strictly dominated in every coordinate.

    A point dominates another only if it is strictly better in all
    coordinates, each oriented by its aim ("minimize"/"maximize"), so
    duplicated points never eliminate each other.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    signs = np.array([1.0 if a == "minimize" else -1.0 for a in aims])
    if signs.size != pts.shape[1]:
        raise ValueError("aims length must match point dimension")
    oriented = pts * signs
    keep = []
    for i in range(oriented.shape[0]):
        dominated = np.all(oriented < oriented[i], axis=1)
        if not np.any(dominated):
            keep.append(i)
    return keep


@dataclass
class ShiftReport:
    """Rigid-shift comparison between quality and objective point clouds."""

    displacement: np.ndarray          # per-plan quality - objective vectors
    mean_displacement: np.ndarray
    residual_rms: float
    residual_max: float
    quality_hull_vertices: np.ndarray | None
    objective_hull_vertices: np.ndarray | None
    degenerate: bool = False
    note: str = ""


def hull_and_shift_report(quality_points, objective_points) -> ShiftReport:
    """Convex hulls of both clouds plus the per-plan displacement field.

    The displacement of a plan is its quality vector minus its objective
    value vector; after removing the mean displacement the residual
    spread measures how far the clouds are from a rigid shift of each
    other.  Degenerate (e.g. coplanar) clouds fall back to reporting
    displacements without hulls.
    """
    quality = np.asarray(quality_points, dtype=float)
    objective = np.asarray(objective_points, dtype=float)
    if quality.shape != objective.shape:
        raise ValueError("point clouds must have identical shapes")
    displacement = quality - objective
    mean = displacement.mean(axis=0)
    residual = displacement - mean
    norms = np.linalg.norm(residual, axis=1)
    q_hull = o_hull = None
    degenerate = False
    note = ""
    if quality.shape[0] >= quality.shape[1] + 1:
        try:
            q_hull = ConvexHull(quality).vertices
            o_hull = ConvexHull(objective).vertices
        except QhullError:
            degenerate = True
            note = "degenerate point cloud (coplanar or collinear); hulls omitted"
    else:
        degenerate = True
        note = "too few points for a full-dimensional hull"
    return ShiftReport(displacement=displacement, mean_displacement=mean,
                       residual_rms=float(np.sqrt(np.mean(norms ** 2))),
                       residual_max=float(norms.max()) if norms.size else 0.0,
                       quality_hull_vertices=q_hull, objective_hull_vertices=o_hull,
                       degenerate=degenerate, note=note)


def write_pareto_csv(path, pareto: ParetoSet, criteria, index_specs) -> None:
    """One row per weight vector: status, gap, xi values, coordinates, quality."""
    num_slots = pareto.entries[0].weights.size if pareto.entries else 0
    header = ["index", "status", "iterations", "gap_gy"]
    header += [f"w{j}" for j in range(num_slots)]
    header += [f"xi_{c.describe()}" for c in criteria]
    header += [f"obj_{spec.name}" for spec in index_specs]
    header += [f"quality_{spec.name}" for spec in index_specs]
    header += ["violations_over_1pct", "balanced"]
    rows = []
    for entry in pareto.entries:
        row = [entry.index, entry.status]
        if entry.plan is None:
            row += [""] * (len(header) - 2)
        else:
            plan = entry.plan
            row += [plan.iterations, plan.gap_gy, *entry.weights, *plan.xi,
                    *plan.objective_coordinates, *plan.quality,
                    sum(1 for v in plan.violations if v.over_1pct),
                    int(entry.index == pareto.balanced_index)]
        rows.append(row)
    write_csv(path, header, rows)


def write_shift_report_csv(path, report: ShiftReport, index_specs) -> None:
    rows = [["mean_displacement", *report.mean_displacement],
            ["residual_rms", report.residual_rms],
            ["residual_max", report.residual_max],
            ["degenerate", int(report.degenerate), report.note]]
    rows += [[f"displacement_{i}", *row] for i, row in enumerate(report.displacement)]
    write_csv(path, ["record"] + [spec.name for spec in index_specs], rows)
