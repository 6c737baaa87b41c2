import concurrent.futures
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mtdplan import ipm, mco
from mtdplan.case import Case, case_from_dict, load_case, read_case_text
from mtdplan.formulation import build_weighted_instance
from mtdplan.mco import (generate_pareto_set, hull_and_shift_report, nondominated_subset,
                         solve_single_weight, weight_grid)


def test_weight_grid_corners_for_order_one():
    grid = weight_grid(3, 1)
    assert {tuple(row) for row in grid} == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}


def test_weight_grid_counts_and_lattice():
    for k, n in [(3, 7), (3, 4), (2, 5), (4, 3)]:
        grid = weight_grid(k, n)
        assert grid.shape == (math.comb(n + k - 1, k - 1), k)
        # equidistant lattice: every component is a multiple of 1/n
        assert np.allclose(grid * n, np.round(grid * n), atol=1e-12)
        assert np.all(np.abs(grid.sum(axis=1) - 1.0) <= 1e-15)
    assert weight_grid(3, 7).shape[0] == 36


def test_weight_grid_rejects_bad_order():
    with pytest.raises(ValueError):
        weight_grid(3, 0)


@pytest.mark.parametrize("count", [2.5, 2.0, True])
def test_weight_grid_takes_only_int_counts(count):
    with pytest.raises(ValueError, match="grid order must be an int >= 1"):
        weight_grid(3, count)
    with pytest.raises(ValueError, match="num_objectives must be an int >= 1"):
        weight_grid(count, 2)


# --- non-dominance -------------------------------------------------------------

def brute_force_nondominated(points, aims):
    signs = [1.0 if a == "minimize" else -1.0 for a in aims]
    keep = []
    for i, p in enumerate(points):
        dominated = False
        for q in points:
            if all(s * qc < s * pc for s, qc, pc in zip(signs, q, p)):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def test_nondominated_simple_pairs():
    assert nondominated_subset([(1.0, 1.0), (2.0, 2.0)], ("minimize", "minimize")) == [0]
    assert nondominated_subset([(1.0, 1.0), (2.0, 2.0)], ("maximize", "maximize")) == [1]
    # strict domination in all coordinates: identical points all survive
    pts = [(3.0, 4.0)] * 5
    assert nondominated_subset(pts, ("minimize", "minimize")) == list(range(5))


def test_nondominated_matches_brute_force_random():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        pts = rng.random((n, 3))
        aims = tuple(rng.choice(["minimize", "maximize"], 3))
        assert nondominated_subset(pts, aims) == brute_force_nondominated(pts, aims)


def test_nondominated_idempotent_and_order_invariant():
    rng = np.random.default_rng(23)
    pts = rng.random((25, 3))
    aims = ("minimize", "minimize", "minimize")
    first = nondominated_subset(pts, aims)
    again = nondominated_subset(pts[first], aims)
    assert again == list(range(len(first)))  # idempotent
    perm = rng.permutation(25)
    permuted = nondominated_subset(pts[perm], aims)
    assert sorted(perm[permuted].tolist()) == sorted(first)


# --- hull and shift -------------------------------------------------------------

def test_shift_report_identical_clouds():
    rng = np.random.default_rng(2)
    pts = rng.random((12, 3))
    report = hull_and_shift_report(pts, pts)
    assert np.allclose(report.mean_displacement, 0.0)
    assert report.residual_rms == 0.0
    assert report.residual_max == 0.0
    assert not report.degenerate


def test_shift_report_pure_translation():
    rng = np.random.default_rng(3)
    quality = rng.random((15, 3))
    shift = np.array([0.5, -1.0, 2.0])
    report = hull_and_shift_report(quality, quality - shift)
    assert np.allclose(report.mean_displacement, shift, atol=1e-12)
    assert report.residual_rms <= 1e-12
    assert not report.degenerate


def test_shift_report_degenerate_cloud_falls_back():
    coplanar = np.zeros((6, 3))
    coplanar[:, 0] = np.arange(6)
    coplanar[:, 1] = np.arange(6) * 2.0
    report = hull_and_shift_report(coplanar, coplanar)
    assert report.degenerate
    assert report.note


def test_shift_report_too_few_points():
    pts = np.random.default_rng(0).random((3, 3))
    report = hull_and_shift_report(pts, pts)
    assert report.degenerate


# --- pareto generation (tiny case) ----------------------------------------------

@pytest.fixture(scope="module")
def tiny_case():
    case = load_case("demo:prostate_demo")
    case.solver.dose_tolerance_gy = 0.01
    return case


def test_generate_pareto_corner_minimizes_its_coordinate(tiny_case):
    grid = weight_grid(3, 1)
    pareto = generate_pareto_set(tiny_case, grid)
    assert len(pareto.entries) == 3
    assert all(e.plan is not None and e.plan.feasible for e in pareto.entries)
    coords = pareto.objective_matrix()
    for slot in range(3):
        corner = int(np.argmax(grid[:, slot]))
        # the plan solved with full weight on a slot attains the best
        # objective coordinate for that slot across the sweep
        assert coords[corner, slot] <= coords[:, slot].min() + 2 * 0.01 + 1e-9


def test_generate_pareto_deterministic_repeat(tiny_case):
    grid = np.array([[1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3]])
    pareto = generate_pareto_set(tiny_case, grid)
    a, b = pareto.entries
    assert np.array_equal(a.plan.dose, b.plan.dose)
    assert np.array_equal(a.plan.quality, b.plan.quality)


def nearest_earlier(grid, index):
    """The nearest earlier row of ``grid`` to row ``index``, the lowest index on a tie."""
    distances = [float(np.sqrt(np.sum((grid[j] - grid[index]) ** 2))) for j in range(index)]
    return distances.index(min(distances))


def restarted_from(entries, parent):
    restart = entries[parent].plan.restart
    return f"restart from grid point {parent} (iteration {restart.iteration}, mu {restart.mu:.3g})"


def test_parallel_matches_serial(tiny_case):
    grid = weight_grid(3, 2)
    serial = generate_pareto_set(replace(tiny_case, workers=1), grid)
    assert [e.plan.start_point for e in serial.entries] == [None, 0, 0, 1, 1, 2]
    for workers in (2, 3):
        parallel = generate_pareto_set(replace(tiny_case, workers=workers), grid)
        for a, b in zip(serial.entries, parallel.entries, strict=True):
            assert a.status == b.status == "converged"
            assert (a.plan.start, a.plan.start_point) == (b.plan.start, b.plan.start_point)
            assert a.plan.iterations == b.plan.iterations
            assert np.array_equal(a.plan.objective_coordinates, b.plan.objective_coordinates)
            assert np.array_equal(a.plan.dose, b.plan.dose)


@pytest.fixture
def recording_pool(monkeypatch):
    """Pools that run in process, recording their size, their workers' case and every task.

    ``submit`` solves its task at once and hands back the finished future,
    so tasks are recorded in the order the sweep submits them.
    """
    record = SimpleNamespace(pools=[], tasks=[])

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            case, = initargs
            record.pools.append((max_workers, case._influence is not None
                                 and case._prepared is not None and case._restart is None))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            record.tasks.append(task)
            future = concurrent.futures.Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(mco, "_worker_case", None)   # the initializer sets it in this process
    return record


def test_parallel_workers_start_with_the_dose_influence(recording_pool):
    case = replace(load_case("demo:prostate_demo"), workers=2)
    grid = weight_grid(3, 1)
    pareto = generate_pareto_set(case, grid)
    assert recording_pool.pools == [(2, True)]
    # point 0 is solved in process; a task carries its index, weights and start, the pair
    # (parent, parent's restart); both later points are nearest to point 0 (a tie, to 0)
    assert [task[0] for task in recording_pool.tasks] == [1, 2]
    assert [nearest_earlier(grid, index) for index in (1, 2)] == [0, 0]
    for _, _, (parent, restart) in recording_pool.tasks:
        assert parent == 0 and restart is pareto.entries[0].plan.restart
    assert isinstance(pareto.entries[0].plan.restart, ipm.Restart)
    assert [e.status for e in pareto.entries] == ["converged"] * 3


def test_pool_is_sized_to_the_points_after_point_0(recording_pool, tiny_case):
    pareto = generate_pareto_set(replace(tiny_case, workers=64), weight_grid(3, 1))
    assert [size for size, _ in recording_pool.pools] == [2]
    assert [task[0] for task in recording_pool.tasks] == [1, 2]

    recording_pool.tasks.clear()
    grid = weight_grid(3, 2)
    pareto = generate_pareto_set(replace(tiny_case, workers=64), grid)
    assert [size for size, _ in recording_pool.pools] == [2, 5]
    # each point is submitted once, after its parent's entry is back
    submitted = [task[0] for task in recording_pool.tasks]
    assert submitted == [1, 2, 3, 4, 5]
    for index, weights, (parent, restart) in recording_pool.tasks:
        assert np.array_equal(weights, pareto.entries[index].weights)
        assert parent == nearest_earlier(grid, index)
        assert parent == 0 or submitted.index(parent) < submitted.index(index)
        assert restart is pareto.entries[parent].plan.restart
    assert [nearest_earlier(grid, index) for index in range(1, 6)] == [0, 0, 1, 1, 2]

    def parts(value):
        return [p for v in value for p in parts(v)] if isinstance(value, tuple) else [value]

    assert not any(isinstance(part, (Case, ipm.SolverSettings))
                   for task in recording_pool.tasks for part in parts(task))


def test_one_point_after_point_0_builds_no_pool(recording_pool, tiny_case):
    case = replace(tiny_case, workers=8)
    pareto = generate_pareto_set(case, weight_grid(3, 1)[:2])
    assert recording_pool.pools == [] and recording_pool.tasks == []
    assert [e.status for e in pareto.entries] == ["converged"] * 2
    generate_pareto_set(case, weight_grid(3, 1))   # the same case, two later points: a pool
    assert [size for size, _ in recording_pool.pools] == [2]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_point_repeating_point_0_is_solved_cold(tiny_case, workers):
    # Rows 6 and 7 repeat rows 0 and 3: each one's parent is the row it repeats, so it
    # starts cold, and writes that row's plan byte for byte.
    grid = weight_grid(3, 2)
    grid = np.vstack([grid, grid[0], grid[3]])
    pareto = generate_pareto_set(replace(tiny_case, workers=workers), grid)
    plans = [e.plan for e in pareto.entries]
    assert [nearest_earlier(grid, index) for index in (6, 7)] == [0, 3]
    assert plans[0].start == plans[6].start == plans[7].start == "least-squares"
    assert plans[0].start_point is plans[6].start_point is plans[7].start_point is None
    for index in range(1, 6):
        parent = nearest_earlier(grid, index)
        assert plans[index].start == restarted_from(pareto.entries, parent)
        assert plans[index].start_point == parent
    cold = solve_single_weight(load_case("demo:prostate_demo"), grid[3])
    for repeat, original in ((plans[6], plans[0]), (plans[7], cold)):
        assert repeat.trajectories.stacked().tobytes() == original.trajectories.stacked().tobytes()
        assert repeat.xi.tobytes() == original.xi.tobytes()
        assert repeat.dose.tobytes() == original.dose.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_child_of_a_nonconverged_parent_starts_least_squares(tiny_case, workers,
                                                              recording_pool, monkeypatch):
    # Point 1 is reported as stopped at the iteration limit, with its restart still set:
    # its children, points 3 and 4, start cold; point 5 restarts from point 2 as before.
    grid = weight_grid(3, 2)
    original = mco.solve_single_weight

    def point_1_stops(case, weights, settings=None):
        plan = original(case, weights, settings)
        return replace(plan, status="iteration_limit") if np.array_equal(weights, grid[1]) else plan

    monkeypatch.setattr(mco, "solve_single_weight", point_1_stops)
    pareto = generate_pareto_set(replace(tiny_case, workers=workers), grid)
    entries = pareto.entries
    assert [e.status for e in entries] == ["converged", "iteration_limit"] + ["converged"] * 4
    assert entries[1].plan.restart is not None
    assert [e.plan.start_point for e in entries] == [None, 0, 0, None, None, 2]
    assert entries[3].plan.start == entries[4].plan.start == "least-squares"
    assert entries[5].plan.start == restarted_from(entries, 2)
    assert len(recording_pool.pools) == (workers > 1)

def test_balanced_entry_flagged(tiny_case):
    grid = weight_grid(3, 2)
    pareto = generate_pareto_set(tiny_case, grid)
    w = pareto.entries[pareto.balanced_index].weights
    dist = np.linalg.norm(grid - 1 / 3, axis=1)
    assert np.linalg.norm(w - 1 / 3) == pytest.approx(dist.min())


def test_single_weight_plan_carries_artifacts(tiny_case):
    plan = solve_single_weight(tiny_case, np.array([0.5, 0.25, 0.25]))
    assert plan.feasible
    assert plan.dose.shape == (tiny_case.phantom.num_voxels,)
    assert np.all(plan.dose >= 0)
    assert plan.fluence.shape == (3, 6, 8)
    assert plan.quality.shape == (3,)
    assert plan.gap_gy <= tiny_case.solver.dose_tolerance_gy


# --- one prepared LP per case, warm-started sweeps ----------------------------------

@pytest.fixture(scope="module")
def demo_sweep():
    """The demo's 15-point sweep, counting the LP builds and Newton structures it makes."""
    calls = {"build": 0, "structure": 0}

    def counted(key, original):
        def call(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mco, "build_weighted_instance", counted("build", mco.build_weighted_instance))
        patch.setattr(ipm, "_NewtonStructure", counted("structure", ipm._NewtonStructure))
        case = load_case("demo:prostate_demo")
        grid = weight_grid(case.criteria.num_slots, 4)
        pareto = generate_pareto_set(case, grid)
    return case, grid, pareto, calls


def test_sweep_builds_the_lp_and_newton_structure_once(demo_sweep):
    _, grid, pareto, calls = demo_sweep
    assert len(pareto.entries) == grid.shape[0] == 15
    assert calls == {"build": 1, "structure": 1}


def test_warm_sweep_keeps_statuses_and_objectives_in_fewer_iterations(demo_sweep):
    case, grid, pareto, _ = demo_sweep
    cold_case = load_case("demo:prostate_demo")   # never given a restart
    cold = [solve_single_weight(cold_case, weights) for weights in grid]
    first = pareto.entries[0].plan
    assert first.start == "least-squares" and first.start_point is None
    for entry in pareto.entries:   # each plan's restart is its first iterate at 0.1 of mu0
        history, restart = entry.plan.solver_history, entry.plan.restart
        assert restart is not None and restart.mu <= 0.1 * history[0].mu
        assert all(h.mu > 0.1 * history[0].mu for h in history[1:restart.iteration])
    for entry, plan in zip(pareto.entries, cold):
        assert entry.status == plan.status == "converged"
        assert abs(entry.plan.objective_value - plan.objective_value) \
            <= case.solver.dose_tolerance_gy
        assert plan.start == "least-squares"
        if entry.index:
            parent = nearest_earlier(grid, entry.index)
            assert entry.plan.start == restarted_from(pareto.entries, parent)
            assert entry.plan.start_point == parent
    assert {e.plan.start_point for e in pareto.entries[1:]} != {0}   # a chain, not a star
    assert sum(e.plan.iterations for e in pareto.entries) < sum(p.iterations for p in cold)


def test_neighbour_chains_take_the_demo_sweep_below_283_iterations(demo_sweep):
    # 283 is the sweep's total when every later point restarted from point 0 unshifted.
    _, _, pareto, _ = demo_sweep
    assert sum(e.plan.iterations for e in pareto.entries) < 283


def test_prepared_instance_without_restart_matches_a_fresh_case_bitwise():
    weights = np.array([0.25, 0.5, 0.25])
    case = load_case("demo:prostate_demo")
    solve_single_weight(case, np.array([1.0, 0.0, 0.0]))   # prepares the case's instance
    prepared = mco.prepared_instance(case)
    plan = solve_single_weight(case, weights)
    assert mco.prepared_instance(case) is prepared and case._restart is None

    fresh_case = load_case("demo:prostate_demo")
    fresh = solve_single_weight(fresh_case, weights)
    lp = build_weighted_instance(fresh_case.phantom, fresh_case.machine,
                                 fresh_case.dose_influence(), fresh_case.criteria, weights)
    result = ipm.solve(lp, fresh_case.solver_settings())
    again = ipm.solve(prepared.lp.reweighted(weights), case.solver_settings(),
                      prepared=prepared)
    assert np.array_equal(again.x, result.x)
    assert again.iterations == result.iterations
    trajectories = lp.extract_trajectories(result.x).stacked()
    for other in (plan, fresh):
        assert np.array_equal(other.trajectories.stacked(), trajectories)
        assert np.array_equal(other.xi, lp.xi_values(result.x))
        assert other.objective_value == result.objective
        assert other.iterations == result.iterations
        assert other.start == "least-squares"
    assert np.array_equal(plan.dose, fresh.dose)


def test_prepared_lp_refuses_an_lp_with_other_constraints():
    case = load_case("demo:prostate_demo")
    prepared = mco.prepared_instance(case)
    rebuilt = build_weighted_instance(case.phantom, case.machine, case.dose_influence(),
                                      case.criteria, prepared.lp.weights)
    with pytest.raises(ValueError, match="other constraints"):
        ipm.solve(rebuilt, case.solver_settings(), prepared=prepared)


def test_infeasible_sweep_stays_cold():
    doc = json.loads(read_case_text("demo:prostate_demo"))
    next(c for c in doc["criteria"] if c["name"] == "ptv_dav50_floor")["hard_lower"] = 66.0
    case = case_from_dict(doc, "floor66")
    pareto = generate_pareto_set(case, weight_grid(case.criteria.num_slots, 2))
    assert [e.status for e in pareto.entries] == ["infeasible"] * 6
    assert all(e.plan.start == "least-squares" for e in pareto.entries)
