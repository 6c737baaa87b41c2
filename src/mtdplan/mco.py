"""Pareto plan generation over a simplex weight grid and cloud analysis."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

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
    for name, value in (("grid order", order), ("num_objectives", num_objectives)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be an int >= 1")

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
    start: str = "least-squares"   # how the solve started (see solve_single_weight)
    restart: ipm.Restart | None = None   # the solve's restart iterate, if it reached one

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


def prepared_instance(case) -> ipm.PreparedLP:
    """The case's :class:`ipm.PreparedLP`, built at balanced weights on first use and kept.

    Only the objective depends on the weights, so every plan of the case
    solves ``prepared.lp.reweighted(weights)`` with it.
    """
    if case._prepared is None:
        slots = case.criteria.num_slots
        case._prepared = ipm.PreparedLP(build_weighted_instance(
            case.phantom, case.machine, case.dose_influence(), case.criteria,
            np.full(slots, 1.0 / slots), name=case.name))
    return case._prepared


def solve_single_weight(case, weights, settings: ipm.SolverSettings | None = None) -> Plan:
    """Solve one weighted-sum instance of the case's prepared LP, returning the full plan.

    The solve starts at ``case._restart`` when a sweep has set it (see
    :func:`generate_pareto_set`), otherwise at the least-squares point.
    """
    prepared = prepared_instance(case)
    lp = prepared.lp.reweighted(weights)
    restart = case._restart
    result = ipm.solve(lp, settings or case.solver_settings(), prepared=prepared, start=restart)
    traj = lp.extract_trajectories(result.x)
    fluence = fluence_from_trajectories(traj, case.machine)
    dose = dose_from_trajectories(case.dose_influence(), traj, case.machine)
    quality, violations = evaluation.evaluate_plan(case.phantom, dose,
                                                   case.quality_indices, case.criteria)
    start = ("least-squares" if restart is None else
             f"restart from grid point 0 (iteration {restart.iteration}, mu {restart.mu:.3g})")
    return Plan(weights=np.asarray(weights, dtype=float),
                trajectories=traj, fluence=fluence, dose=dose,
                xi=lp.xi_values(result.x),
                objective_value=result.objective,
                objective_coordinates=lp.objective_coordinates(result.x),
                quality=quality, violations=violations,
                gap_gy=result.gap_gy, iterations=result.iterations,
                status=result.status, solver_history=result.history, message=result.message,
                start=start, restart=result.restart)


_worker_case = None   # the case of a pool worker's tasks, set once per worker by _start_worker


def _start_worker(case) -> None:
    """Pool initializer: keep ``case``, its prepared instance included, for the worker's tasks."""
    global _worker_case
    _worker_case = case


def _solve_entry(case, index, weights, restart) -> ParetoEntry:
    """Solve grid point ``index`` with the case's settings, from ``restart`` or cold if None."""
    try:
        plan = solve_single_weight(replace(case, _restart=restart), weights)
    except Exception as exc:  # a failed weight must not kill the sweep
        return ParetoEntry(index, np.asarray(weights), "error", None, message=str(exc))
    return ParetoEntry(index, np.asarray(weights), plan.status, plan)


def _solve_in_worker(task) -> ParetoEntry:
    return _solve_entry(_worker_case, *task)


def generate_pareto_set(case, grid: np.ndarray) -> ParetoSet:
    """Solve one weighted-sum instance per grid point, with the case's settings.

    Every point solves the case's one prepared LP (:func:`prepared_instance`),
    reweighted.  Grid point 0 is solved first, in this process, from the
    least-squares point.  If it converges, every later point whose grid row
    differs from point 0's starts at point 0's restart iterate, the first
    with ``mu`` at most 0.1 of its starting ``mu``.  A point repeating row 0,
    and every point of a sweep whose point 0 did not converge, are solved
    cold.  This rule lives here alone: :func:`_solve_entry` sets the point's
    restart as the case's ``_restart``, where :func:`solve_single_weight`
    starts from it.  Each later point is a task ``(index, weights, restart)``.
    With ``case.workers`` > 1 and more than one later point, a pool of
    ``min(case.workers, later points)`` processes, started after point 0,
    runs them; each worker receives the case once, when it starts.  Results
    are merged in grid order, so output is the same for any worker count.
    Failures are recorded per entry rather than raised, except when every
    single instance fails.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.shape[0] == 0:
        raise ValueError("the weight grid is empty")
    prepared_instance(case)  # built once here, so every worker starts with it
    entries = [_solve_entry(case, 0, grid[0], None)]
    restart = entries[0].plan.restart if entries[0].status == "converged" else None
    tasks = [(i, grid[i], None if np.array_equal(grid[i], grid[0]) else restart)
             for i in range(1, grid.shape[0])]
    workers = min(case.workers, len(tasks))
    if workers <= 1:
        entries += [_solve_entry(case, *task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # imported only where a pool starts
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                 initargs=(case,)) as pool:
            entries += pool.map(_solve_in_worker, tasks)
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
    degenerate: bool = False
    note: str = ""


def hull_and_shift_report(quality_points, objective_points) -> ShiftReport:
    """The per-plan displacement field between the two clouds.

    The displacement of a plan is its quality vector minus its objective
    value vector; after removing the mean displacement the residual
    spread measures how far the clouds are from a rigid shift of each
    other.  A cloud is degenerate when it has too few points to span its
    space, or when its centred points do not (e.g. coplanar in 3-D).
    """
    quality = np.asarray(quality_points, dtype=float)
    objective = np.asarray(objective_points, dtype=float)
    if quality.shape != objective.shape:
        raise ValueError("point clouds must have identical shapes")
    displacement = quality - objective
    mean = displacement.mean(axis=0)
    residual = displacement - mean
    norms = np.linalg.norm(residual, axis=1)
    if quality.shape[0] < quality.shape[1] + 1:
        note = "too few points for a full-dimensional hull"
    elif any(np.linalg.matrix_rank(cloud - cloud.mean(axis=0)) < cloud.shape[1]
             for cloud in (quality, objective)):
        note = "degenerate point cloud (coplanar or collinear)"
    else:
        note = ""
    return ShiftReport(displacement=displacement, mean_displacement=mean,
                       residual_rms=float(np.sqrt(np.mean(norms ** 2))),
                       residual_max=float(norms.max()) if norms.size else 0.0,
                       degenerate=bool(note), note=note)


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
                    entry.index == pareto.balanced_index]
        rows.append(row)
    write_csv(path, header, rows)


def write_shift_report_csv(path, report: ShiftReport, index_specs) -> None:
    rows = [["mean_displacement", *report.mean_displacement],
            ["residual_rms", report.residual_rms],
            ["residual_max", report.residual_max],
            ["degenerate", report.degenerate, report.note]]
    rows += [[f"displacement_{i}", *row] for i, row in enumerate(report.displacement)]
    write_csv(path, ["record"] + [spec.name for spec in index_specs], rows)
