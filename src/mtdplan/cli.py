"""Command-line front end.

Subcommands: ``validate``, ``solve``, ``pareto``, ``evaluate``.  Exit
codes: 0 ok, 1 solver failure, 2 configuration error, 3 data error.
Every command is deterministic given the case file and overrides.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import evaluation, ipm, mco, svgplot
from .case import Case, at_least_one, load_case, overridden
from .dmlc import (dose_from_trajectories, read_trajectories_csv, sweep_time_lower_bound,
                   validate_trajectories, write_fluence_csv, write_trajectories_csv)
from .errors import CaseError, DataError, MtdplanError
from .fileio import read_dose_volume, write_dose_volume
from .formulation import build_weighted_instance, dump_lp, partition_report
from .mco import Plan, solve_single_weight
# The benchmark tracer (benchmarks/tracing.py) wraps this name; nothing here calls it.
from .phantom import roi_weight_vector

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mtdplan",
                                     description="Mean-tail-dose DMLC plan optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, out=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--case", required=True, help="case file path or demo:<name>")
        if out is not None:
            p.add_argument("--out", required=out, help="output directory")
        return p

    command("validate", "check a case file and report diagnostics", cmd_validate)

    p_solve = command("solve", "solve one weighted-sum instance", cmd_solve, out=True)
    p_solve.add_argument("--weights", default=None,
                         help="comma-separated objective weights (default: balanced)")
    p_solve.add_argument("--dump-lp", action="store_true",
                         help="also write the expanded LP in sparse triplet text form")

    p_pareto = command("pareto", "sweep a weight grid and analyze the plan cloud", cmd_pareto,
                       out=False)  # defaults to <case>-<timestamp>/
    p_pareto.add_argument("--grid-order", type=int, default=None, help="simplex lattice order")
    p_pareto.add_argument("--workers", type=int, default=None, help="parallel solver processes")
    for p in (p_solve, p_pareto):
        p.add_argument("--tol-gy", type=float, default=None, help="duality-gap tolerance override [Gy]")

    p_eval = command("evaluate", "evaluate a stored plan against the case", cmd_evaluate,
                     out=True)
    p_eval.add_argument("--plan", required=True,
                        help="trajectories CSV or dose volume binary from a previous run")
    return parser


def _load(args) -> Case:
    """Load the case and apply the flags, each under the check of its case field."""
    case = load_case(args.case)
    if getattr(args, "tol_gy", None) is not None:
        case.solver = overridden(case.solver, "--tol-gy", dose_tolerance_gy=args.tol_gy)
    for flag, key in (("--grid-order", "grid_order"), ("--workers", "workers")):
        if getattr(args, key, None) is not None:
            setattr(case, key, at_least_one(key, getattr(args, key), flag))
    return case


def _out_dir(path: str) -> str:
    """Create ``--out`` before any solving or reading, so a bad path costs no work."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CaseError(f"cannot create output directory: {exc}", path="--out")
    return path


def _parse_weights(text: str, num_slots: int) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise CaseError(f"cannot parse weights {text!r}", path="--weights")
    if len(values) != num_slots:
        raise CaseError(f"expected {num_slots} weights, got {len(values)}", path="--weights")
    w = np.asarray(values) + 0.0   # -0.0 + 0.0 is 0.0: a weight's sign never shows
    with np.errstate(over="ignore"):
        total = w.sum()
    if not (np.all(np.isfinite(w) & (w >= 0)) and total > 0):
        raise CaseError("weights must be finite, nonnegative and not all zero", path="--weights")
    if np.isinf(total):  # finite weights whose sum overflows: scale by the largest first
        w = w / w.max()
        total = w.sum()
    return w / total


def cmd_validate(args) -> int:
    case = _load(args)
    problems = []
    influence = case.dose_influence()
    report = partition_report(build_weighted_instance(
        case.phantom, case.machine, influence, case.criteria,
        np.full(case.criteria.num_slots, 1.0 / case.criteria.num_slots), name=case.name))
    print(f"case {case.name}: {len(case.phantom.rois)} ROIs, "
          f"{case.phantom.num_voxels} voxels, {case.machine.num_bixels} bixels")
    print(f"block structure: {report}")

    for roi in case.phantom.rois:
        if roi.kind == "target":
            row_doses = influence.rows(roi.voxels).sum(axis=1)
            dead = int(np.sum(np.asarray(row_doses).ravel() == 0.0))
            if dead:
                problems.append(f"target {roi.name!r} has {dead} voxels receiving no dose")

    zero_fluence = np.zeros((case.machine.num_beams, case.machine.leaf_pairs,
                             case.machine.bixels_per_row))
    bound = sweep_time_lower_bound(zero_fluence, case.machine)
    if case.machine.max_time_s < bound:
        print(f"warning: max_time_s {case.machine.max_time_s} s is below the sweep "
              f"lower bound {bound} s")
    else:
        print(f"sweep-time lower bound {bound} s within budget {case.machine.max_time_s} s")

    if problems:
        for p in problems:
            print(f"error: {p}")
        return EXIT_DATA_ERROR
    print("case ok")
    return EXIT_OK


def _write_plan_artifacts(case: Case, plan: Plan, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    write_trajectories_csv(os.path.join(out, "plan_trajectories.csv"), plan.trajectories)
    for b in range(case.machine.num_beams):
        write_fluence_csv(os.path.join(out, f"plan_fluence_beam{b}.csv"), plan.fluence, b)
    write_dose_volume(os.path.join(out, "plan_dose.bin"), plan.dose, case.phantom.grid_dims)
    _write_quality_report(case, plan.dose, plan.quality, plan.violations, out, "plan", plan)


def _write_quality_report(case: Case, dose: np.ndarray, quality: np.ndarray, violations: list,
                          out: str, tag: str, plan: Plan | None = None) -> None:
    """DVH, violation and quality files for a dose evaluated by the caller."""
    grid = evaluation.default_dose_grid(dose)
    rois = {spec.roi: case.phantom.roi(spec.roi) for spec in case.quality_indices}
    curves = {name: evaluation.dvh_curve(dose[roi.voxels], roi.weights, grid)
              for name, roi in rois.items()}
    evaluation.write_dvh_csv(os.path.join(out, f"{tag}_dvh.csv"), grid, curves)
    evaluation.write_violation_csv(os.path.join(out, f"{tag}_violations.csv"), violations)
    with open(os.path.join(out, f"{tag}_quality.txt"), "w") as fh:
        fh.write(f"case: {case.name}\n")
        if plan is not None:
            fh.write(f"status: {plan.status}\n")
            if plan.message:
                fh.write(f"message: {plan.message}\n")
            fh.write(f"start: {plan.start}\n")
            fh.write(f"iterations: {plan.iterations}\n")
            fh.write(f"duality gap [Gy]: {plan.gap_gy!r}\n")
            fh.write(f"weights: {','.join(repr(float(v)) for v in plan.weights)}\n")
            fh.write("xi [Gy]: " + ",".join(repr(float(v)) for v in plan.xi) + "\n")
            fh.write("objective coordinates [Gy]: "
                     + ",".join(repr(float(v)) for v in plan.objective_coordinates) + "\n")
        for spec, value in zip(case.quality_indices, quality):
            fh.write(f"quality {spec.name} [{spec.aim}]: {float(value)!r}\n")
        over = [v for v in violations if v.over_1pct]
        fh.write(f"hard bounds violated over 1%: {len(over)}\n")


def cmd_solve(args) -> int:
    case = _load(args)
    num_slots = case.criteria.num_slots
    weights = (_parse_weights(args.weights, num_slots) if args.weights is not None
               else np.full(num_slots, 1.0 / num_slots))
    out = _out_dir(args.out)
    plan = solve_single_weight(case, weights)
    _write_plan_artifacts(case, plan, out)
    ipm.write_iteration_log(os.path.join(out, "plan_solver_log.csv"), plan.solver_history)
    if args.dump_lp:  # the LP just solved
        dump_lp(mco.prepared_instance(case).lp.reweighted(weights),
                os.path.join(out, "instance.lp"))
    print(f"status: {plan.status}; objective {plan.objective_value!r} Gy; "
          f"gap {plan.gap_gy!r} Gy; {plan.iterations} iterations")
    if plan.message:
        print(f"{plan.status}: {plan.message}", file=sys.stderr)
    if not plan.feasible:
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def cmd_pareto(args) -> int:
    case = _load(args)
    out = _out_dir(args.out or f"{case.name}-{time.strftime('%Y%m%d-%H%M%S')}")

    grid = mco.weight_grid(case.criteria.num_slots, case.grid_order)
    pareto = mco.generate_pareto_set(case, grid)
    mco.write_pareto_csv(os.path.join(out, "pareto.csv"), pareto,
                         case.criteria, case.quality_indices)

    converged = pareto.converged()
    if converged:
        quality = pareto.quality_matrix()
        objective = pareto.objective_matrix()
        report = mco.hull_and_shift_report(quality, objective)
        mco.write_shift_report_csv(os.path.join(out, "hull_shift_report.csv"),
                                   report, case.quality_indices)
        if quality.shape[1] == 3:
            filled = np.array([not any(v.over_1pct for v in e.plan.violations)
                               for e in converged])
            svgplot.scatter3d_two_views(os.path.join(out, "pareto_scatter.svg"), quality,
                                        [spec.name for spec in case.quality_indices],
                                        case.index_aims(), filled=filled)
        _write_dvh_band_svg(case, pareto, out)

    for entry in pareto.entries:
        if entry.plan is not None:
            _write_plan_artifacts(case, entry.plan, os.path.join(out, f"plan_{entry.index:03d}"))

    n_conv = len(converged)
    print(f"pareto sweep: {n_conv}/{len(pareto.entries)} plans converged; artifacts in {out}")
    if n_conv == 0:
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def _write_dvh_band_svg(case: Case, pareto: mco.ParetoSet, out: str) -> None:
    converged = pareto.converged()  # not empty: the caller checks
    grid = evaluation.default_dose_grid(np.array([e.plan.dose.max() for e in converged]))
    balanced = next((k for k, e in enumerate(converged) if e.index == pareto.balanced_index), 0)
    rois = {spec.roi: case.phantom.roi(spec.roi) for spec in case.quality_indices}
    bands = {name: np.array([evaluation.dvh_curve(e.plan.dose[roi.voxels], roi.weights, grid)
                             for e in converged])
             for name, roi in rois.items()}
    svgplot.dvh_bands(os.path.join(out, "dvh_bands.svg"), grid, bands,
                      {name: curves[balanced] for name, curves in bands.items()})


def cmd_evaluate(args) -> int:
    case = _load(args)
    out = _out_dir(args.out)
    try:  # reading the plan is the only file access here
        if args.plan.endswith(".csv"):
            traj = read_trajectories_csv(args.plan, case.machine)
            violations = validate_trajectories(traj, case.machine)
            if violations:
                print(f"warning: stored trajectories violate {len(violations)} deliverability rows")
            dose = dose_from_trajectories(case.dose_influence(), traj, case.machine)
        else:
            dose, dims = read_dose_volume(args.plan)
            if tuple(dims) != tuple(case.phantom.grid_dims):
                raise DataError(f"dose grid {dims} does not match case grid {case.phantom.grid_dims}")
    except OSError as exc:
        raise DataError(f"cannot read --plan: {exc}")
    quality, violations = evaluation.evaluate_plan(case.phantom, dose,
                                                   case.quality_indices, case.criteria)
    _write_quality_report(case, dose, quality, violations, out, tag="evaluated")
    for spec, value in zip(case.quality_indices, quality):
        print(f"{spec.name}: {float(value)!r} Gy")
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except CaseError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except MtdplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
