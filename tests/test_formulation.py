import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from mtdplan import evaluation, ipm
from mtdplan.dmlc import build_deliverability_constraints
from mtdplan.errors import FormulationError
from mtdplan.formulation import (A21Factors, BlockLP, Criterion, CriterionSet,
                                 build_weighted_instance, dump_lp, partition_report,
                                 scalarized_objective_value)
from mtdplan.phantom import roi_weight_vector

from helpers import (demo_variant, influence_from_dense, line_phantom, linprog_reference,
                     make_machine, random_block_instance, reference_weighted_instance,
                     toy_dav_instance)


def test_toy_two_voxel_dav_structure():
    phantom, machine, influence, criteria, lp = toy_dav_instance(num_voxels=2, volume=0.5)
    report = partition_report(lp)
    # columns: l, r, T, xi, alpha | eta (2)
    assert lp.n1 == 5
    assert lp.n2 == 2
    assert report.m2_identity == 2
    assert report.m2_zero == 0
    # rows: 4 deliverability (J=1) + 1 tail aggregation, then 2 eta rows
    assert lp.m1 == 5
    assert lp.m2 == 2
    dense22 = lp.a22.toarray()
    assert np.array_equal(dense22, np.eye(2))


def test_partition_only_max_criteria_zero_block():
    machine = make_machine(B=1, N=1, J=2, dt=0.5, rho=0.3, t_max=40.0)
    phantom = line_phantom({"roi": ("target", [0, 1, 2], [1 / 3, 1 / 3, 1 / 3])})
    influence = influence_from_dense(np.full((3, 2), 0.2), machine)
    criteria = CriterionSet([Criterion(roi="roi", ctype="max", hard_upper=50.0, objective=0)])
    lp = build_weighted_instance(phantom, machine, influence, criteria, [1.0])
    report = partition_report(lp)
    assert lp.n2 == 0
    assert report.m2_zero == 3
    assert report.m2_identity == 0
    assert lp.a22.shape == (3, 0)


def test_partition_only_dav_criteria_identity_block():
    _, _, _, _, lp = toy_dav_instance(num_voxels=4, volume=0.3)
    report = partition_report(lp)
    assert report.m2_zero == 0
    assert report.m2_identity == lp.n2 == 4


def test_partition_report_detects_corruption():
    *_, lp = toy_dav_instance(num_voxels=3, volume=0.5)
    bad = lp.a22.tolil()
    bad[1, 0] = 0.5
    lp.a22 = bad.tocsr()
    with pytest.raises(FormulationError):
        partition_report(lp)


def test_voxelwise_columns_never_touch_a11():
    for seed in range(5):
        *_, lp = random_block_instance(seed, max_voxels=25, max_bixels=12)
        partition_report(lp)  # structure certificate
        # aggregation rows keep eta coefficients in A12 only; A21 carries
        # no eta columns at all by construction (they live in A22)
        assert lp.a11.shape[1] == lp.n1
        assert lp.a12.shape == (lp.m1, lp.n2)


def test_avg_min_alone_drives_dose_to_floor():
    # with a vanishing minimum-gap fraction the minimum feasible exposure,
    # and with it the minimized average dose, tends to zero
    machine = make_machine(B=1, N=1, J=2, dt=0.5, rho=1e-9, tau=0.0, t_max=60.0)
    phantom = line_phantom({"roi": ("target", [0, 1], [0.5, 0.5])})
    influence = influence_from_dense(np.full((2, 2), 0.3), machine)
    criteria = CriterionSet([Criterion(roi="roi", ctype="avg-min", objective=0)])
    lp = build_weighted_instance(phantom, machine, influence, criteria, [1.0])
    ref = linprog_reference(lp)
    assert ref.status == 0
    assert abs(ref.fun) <= 1e-6
    res = ipm.solve(lp, ipm.SolverSettings(dose_tolerance_gy=1e-7))
    assert res.converged
    assert abs(res.objective) <= 1e-5


def test_prostate_table_bound_placement():
    from mtdplan.case import load_case
    case = load_case("demo:prostate_demo")
    by_name = {c.name: c for c in case.criteria}
    dav99 = by_name["ptv_dav99"]
    assert dav99.ctype == "dav-max" and dav99.volume == 0.99
    assert dav99.hard_lower == 57.0 and dav99.utopian_upper == 60.0
    dav1 = by_name["ptv_dav1"]
    assert dav1.ctype == "dav-min" and dav1.volume == 0.01
    assert dav1.utopian_lower == 60.0 and dav1.hard_upper == 63.0
    assert by_name["ring_avg"].hard_upper == 60.0
    rectum = by_name["rectum_dav50"]
    assert rectum.volume == 0.5 and rectum.hard_upper == 60.0
    # the homogeneity pair shares objective slot 0
    assert dav99.objective == dav1.objective == 0
    assert case.criteria.num_slots == 3
    assert case.criteria.slot_aims == ("minimize", "minimize", "minimize")


def test_scalarized_objective_examples():
    *_, lp = toy_dav_instance(num_voxels=2, volume=0.5)
    x = np.zeros(lp.num_variables)
    xi_col = lp.columns[0].xi
    x[xi_col] = 12.5
    assert scalarized_objective_value(lp, x) == pytest.approx(12.5)  # w = (1,)

    phantom, machine, influence, criteria, _ = toy_dav_instance(num_voxels=2, volume=0.5)
    three = CriterionSet([
        Criterion(roi="roi", ctype="dav-min", volume=0.5, objective=0, name="a"),
        Criterion(roi="roi", ctype="avg-min", objective=1, name="b"),
        Criterion(roi="roi", ctype="dav-max", volume=0.4, objective=2, name="c"),
    ])
    lp3 = build_weighted_instance(phantom, machine, influence, three, [1 / 3, 1 / 3, 1 / 3])
    x = np.zeros(lp3.num_variables)
    for cols, value in zip(lp3.columns, (30.0, 10.0, 6.0)):
        x[cols.xi] = value
    assert scalarized_objective_value(lp3, x) == pytest.approx((30.0 + 10.0 - 6.0) / 3.0)


def test_criterion_validation_errors():
    with pytest.raises(FormulationError):
        Criterion(roi="r", ctype="dav-min", volume=None)          # missing volume
    with pytest.raises(FormulationError):
        Criterion(roi="r", ctype="dav-min", volume=1.2)           # out of range
    with pytest.raises(FormulationError):
        Criterion(roi="r", ctype="dav-min", volume=0.5, hard_lower=10.0)   # wrong side
    with pytest.raises(FormulationError):
        Criterion(roi="r", ctype="dav-max", volume=0.5, hard_upper=10.0)   # wrong side
    with pytest.raises(FormulationError):
        Criterion(roi="r", ctype="dav-min", volume=0.5,
                  utopian_lower=50.0, hard_upper=40.0)            # infeasible pair
    with pytest.raises(FormulationError):
        Criterion(roi="r", ctype="mean")                          # unknown type
    for ctype, bound in (("dav-min", "hard_upper"), ("dav-min", "utopian_lower"),
                         ("dav-max", "hard_lower"), ("dav-max", "utopian_upper")):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(FormulationError, match=f"criterion ptv_dav1: {bound} must be finite"):
                Criterion(roi="r", ctype=ctype, volume=0.5, name="ptv_dav1", **{bound: value})


def test_unknown_roi_rejected_at_build():
    phantom, machine, influence, _, _ = toy_dav_instance()
    criteria = CriterionSet([Criterion(roi="ghost", ctype="avg-min", objective=0)])
    with pytest.raises(FormulationError):
        build_weighted_instance(phantom, machine, influence, criteria, [1.0])


def test_weight_validation():
    phantom, machine, influence, criteria, _ = toy_dav_instance()
    with pytest.raises(FormulationError):
        build_weighted_instance(phantom, machine, influence, criteria, [0.5, 0.5])
    with pytest.raises(FormulationError):
        build_weighted_instance(phantom, machine, influence, criteria, [-1.0])


def test_dropping_utopian_bound_cannot_worsen_optimum():
    machine = make_machine(B=1, N=1, J=2, dt=0.5, rho=0.2, tau=0.0, t_max=60.0)
    phantom = line_phantom({"roi": ("target", [0, 1, 2], [0.4, 0.3, 0.3])})
    influence = influence_from_dense(np.array([[0.3, 0.1], [0.2, 0.25], [0.1, 0.3]]), machine)

    def optimum(utopian_lower):
        criteria = CriterionSet([Criterion(roi="roi", ctype="dav-min", volume=0.5,
                                           utopian_lower=utopian_lower, objective=0)])
        lp = build_weighted_instance(phantom, machine, influence, criteria, [1.0])
        ref = linprog_reference(lp)
        assert ref.status == 0
        return ref.fun

    unbounded = optimum(None)
    removed_at = optimum(2.0)
    assert unbounded <= removed_at + 1e-9
    assert removed_at == pytest.approx(2.0, abs=1e-7)  # incentive removed at the utopian level


def _enumerate_vertex_minimum(lp: BlockLP):
    """Brute-force LP oracle: scan every basic feasible point."""
    A = lp.matrix().toarray()
    b = lp.rhs()
    n = lp.num_variables
    rows = [(A[i], b[i]) for i in range(A.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, lp.lower[j]))
        if np.isfinite(lp.upper[j]):
            rows.append((-e, -lp.upper[j]))
    best = np.inf
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, rhs)
        if np.all(A @ x >= b - 1e-8) and np.all(x >= lp.lower - 1e-8) \
                and np.all(x <= lp.upper + 1e-8):
            best = min(best, float(np.dot(lp.objective_vector, x)))
    return best


def test_optimum_matches_vertex_enumeration():
    machine = make_machine(B=1, N=1, J=1, dt=1.0, rho=0.25, tau=0.0, t_max=20.0)
    phantom = line_phantom({"roi": ("target", [0], [1.0])})
    influence = influence_from_dense([[0.5]], machine)
    criteria = CriterionSet([Criterion(roi="roi", ctype="dav-max", volume=0.5,
                                       hard_lower=1.0, objective=0)])
    lp = build_weighted_instance(phantom, machine, influence, criteria, [1.0])
    assert lp.num_variables == 6  # l, r, T, xi, alpha, eta
    vertex_best = _enumerate_vertex_minimum(lp)
    ref = linprog_reference(lp)
    assert ref.status == 0
    assert vertex_best == pytest.approx(ref.fun, abs=1e-7)
    res = ipm.solve(lp, ipm.SolverSettings(dose_tolerance_gy=1e-7))
    assert res.converged
    assert res.objective == pytest.approx(vertex_best, abs=1e-5)


def test_optimum_invariant_under_conformal_permutation():
    *_, lp = toy_dav_instance(num_voxels=3, volume=0.4)
    rng = np.random.default_rng(8)
    col_perm = rng.permutation(lp.n1)
    row_perm = rng.permutation(lp.m1)
    permuted = BlockLP(
        a11=lp.a11[row_perm][:, col_perm], a12=lp.a12[row_perm],
        a21_factors=A21Factors.from_matrix(lp.a21[:, col_perm]), a22=lp.a22,
        b1=lp.b1[row_perm], b2=lp.b2,
        objective_vector=np.concatenate([lp.objective_vector[:lp.n1][col_perm],
                                         lp.objective_vector[lp.n1:]]),
        lower=np.concatenate([lp.lower[:lp.n1][col_perm], lp.lower[lp.n1:]]),
        upper=np.concatenate([lp.upper[:lp.n1][col_perm], lp.upper[lp.n1:]]),
        num_zero_rows=lp.num_zero_rows, machine=lp.machine, criteria=lp.criteria,
        weights=lp.weights, columns=lp.columns)
    settings = ipm.SolverSettings(dose_tolerance_gy=1e-7)
    base = ipm.solve(lp, settings)
    perm = ipm.solve(permuted, settings)
    assert base.converged and perm.converged
    assert base.objective == pytest.approx(perm.objective, abs=2e-6)


def test_feasible_solution_respects_tail_statistics():
    phantom, machine, influence, criteria, lp = toy_dav_instance(
        num_voxels=6, volume=0.4, hard_upper=40.0,
        machine=make_machine(B=1, N=2, J=2, dt=0.5, rho=0.3, tau=0.01, t_max=80.0))
    res = ipm.solve(lp, ipm.SolverSettings(dose_tolerance_gy=1e-6))
    assert res.converged
    traj = lp.extract_trajectories(res.x)
    from mtdplan.dmlc import dose_from_trajectories
    dose = dose_from_trajectories(influence, traj, machine)
    w = roi_weight_vector(phantom, "roi")
    xi = lp.xi_values(res.x)[0]
    tail = evaluation.upper_mean_tail_dose(dose, w, 0.4)
    assert tail <= xi + 1e-6
    assert evaluation.dose_at_volume(dose, w, 0.4) <= tail + 1e-9
    assert tail <= 40.0 + 1e-6


def test_lp_dump_reconstructs_matrix(tmp_path):
    *_, lp = toy_dav_instance(num_voxels=2, volume=0.5, hard_upper=30.0)
    path = tmp_path / "instance.lp"
    dump_lp(lp, path)
    rows = {}
    size = None
    c = None
    names = {}
    with open(path) as fh:
        header = fh.readline().split()
        assert header[0] == "lp-triplet-v1"
        for line in fh:
            parts = line.split()
            if parts[0] == "size":
                size = (int(parts[1]), int(parts[2]))
                A = np.zeros(size)
                b = np.zeros(size[0])
                c = np.zeros(size[1])
                lb = np.zeros(size[1])
                ub = np.full(size[1], np.inf)
            elif parts[0] == "A":
                A[int(parts[1]), int(parts[2])] = float(parts[3])
            elif parts[0] == "b":
                b[int(parts[1])] = float(parts[2])
            elif parts[0] == "c":
                c[int(parts[1])] = float(parts[2])
            elif parts[0] == "lb":
                lb[int(parts[1])] = float(parts[2])
            elif parts[0] == "ub":
                ub[int(parts[1])] = float(parts[2])
            elif parts[0] == "var":
                names[int(parts[1])] = parts[2]
    assert size == (lp.num_rows, lp.num_variables)
    assert np.array_equal(A, lp.matrix().toarray())
    assert np.array_equal(b, lp.rhs())
    assert np.array_equal(c, lp.objective_vector)
    assert np.array_equal(lb, lp.lower)
    assert np.array_equal(ub, lp.upper)
    assert names[0].startswith("l[")
    assert any(name.startswith("eta[") for name in names.values())


def _demo_inputs():
    from mtdplan.case import load_case
    case = load_case("demo:prostate_demo")
    weights = np.full(case.criteria.num_slots, 1.0 / case.criteria.num_slots)
    return case.phantom, case.machine, case.dose_influence(), case.criteria, weights


def _assert_same_lp_blocks(lp, ref):
    for block in ("a11", "a12", "a21"):
        built, expected = getattr(lp, block), getattr(ref, block)
        assert built.shape == expected.shape, block
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(built, part), getattr(expected, part)), (block, part)
    assert np.array_equal(lp.b1, ref.b1)
    assert np.array_equal(lp.b2, ref.b2)
    assert lp.row_labels1 == ref.row_labels1
    assert lp.num_zero_rows == ref.num_zero_rows
    assert len(lp.columns) == len(ref.columns)
    for cols, ref_cols in zip(lp.columns, ref.columns):
        assert (cols.xi, cols.alpha, cols.eta, cols.voxel_rows) == \
            (ref_cols.xi, ref_cols.alpha, ref_cols.eta, ref_cols.voxel_rows)


def test_sparse_build_matches_loop_reference_bitwise():
    inputs = _demo_inputs()
    _assert_same_lp_blocks(build_weighted_instance(*inputs), reference_weighted_instance(*inputs))
    ctypes = set()
    for seed in range(60):
        phantom, machine, influence, criteria, lp = random_block_instance(seed)
        ctypes.update(c.ctype for c in criteria)
        ref = reference_weighted_instance(phantom, machine, influence, criteria, lp.weights)
        _assert_same_lp_blocks(lp, ref)
    assert ctypes == {"dav-min", "dav-max", "max", "min", "avg-min", "avg-max"}


def test_per_beam_row_sums_has_sorted_column_indices():
    influences = [_demo_inputs()[2]] + [random_block_instance(seed)[2] for seed in range(20)]
    rng = np.random.default_rng(23)
    for influence in influences:
        sums = influence.per_beam_row_sums(influence.roi_voxels)
        for row in range(sums.shape[0]):
            cols = sums.indices[sums.indptr[row]:sums.indptr[row + 1]]
            assert np.all(np.diff(cols) > 0)
        # the sums of some rows only are those rows of all the ROI rows' sums, byte for byte
        rows = np.sort(rng.choice(sums.shape[0], size=sums.shape[0] // 2, replace=False))
        some, full = influence.per_beam_row_sums(influence.roi_voxels[rows]), sums[rows]
        for part in ("indptr", "indices", "data"):
            assert getattr(some, part).dtype == getattr(full, part).dtype
            assert np.array_equal(getattr(some, part), getattr(full, part))


def test_zero_transmission_stores_nothing_in_transmission_columns():
    machine = make_machine(B=2, N=1, J=2, dt=0.5, rho=0.3, tau=0.0, t_max=60.0)
    phantom = line_phantom({"t": ("target", [0, 1, 2], [0.2, 0.3, 0.5]),
                            "o": ("oar", [2, 3], [0.5, 0.5])})
    influence = influence_from_dense(np.random.default_rng(3).random((4, 4)) + 0.1, machine)
    criteria = CriterionSet([
        Criterion(roi="t", ctype="dav-max", volume=0.5, objective=0, name="a"),
        Criterion(roi="o", ctype="max", objective=1, name="b"),
        Criterion(roi="o", ctype="avg-min", objective=1, name="c"),
        Criterion(roi="t", ctype="min", objective=0, name="d"),
    ])
    lp = build_weighted_instance(phantom, machine, influence, criteria, [0.5, 0.5])
    _assert_same_lp_blocks(lp, reference_weighted_instance(phantom, machine, influence,
                                                           criteria, [0.5, 0.5]))
    t_cols = 2 * machine.num_bixels + np.arange(machine.num_beams)
    deliverability = build_deliverability_constraints(machine).rhs.size
    assert lp.a21[:, t_cols].nnz == 0
    assert lp.a11[deliverability:, t_cols].nnz == 0
    assert lp.a21.nnz > 0 and lp.a11[deliverability:].nnz > 0


@pytest.mark.parametrize("variant", ["demo", "refined"])
def test_dump_lp_of_demo_matches_loop_reference_bytewise(tmp_path, variant):
    # A21 is formed from the build's factors on first use, as dump_lp reads it
    case = demo_variant(variant)
    inputs = (case.phantom, case.machine, case.dose_influence(), case.criteria,
              np.full(case.criteria.num_slots, 1.0 / case.criteria.num_slots))
    dump_lp(build_weighted_instance(*inputs, name="demo"), tmp_path / "sparse.lp")
    dump_lp(reference_weighted_instance(*inputs, name="demo"), tmp_path / "loop.lp")
    assert (tmp_path / "sparse.lp").read_bytes() == (tmp_path / "loop.lp").read_bytes()


def test_reweighted_matches_a_fresh_build_at_every_grid_point():
    from mtdplan.mco import weight_grid
    phantom, machine, influence, criteria, balanced = _demo_inputs()
    lp = build_weighted_instance(phantom, machine, influence, criteria, balanced, name="demo")
    for weights in weight_grid(criteria.num_slots, 4):
        fresh = build_weighted_instance(phantom, machine, influence, criteria, weights, name="demo")
        again = lp.reweighted(weights)
        _assert_same_lp_blocks(again, fresh)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(again.a22, part), getattr(fresh.a22, part)), part
        for name in ("objective_vector", "weights", "lower", "upper"):
            assert np.array_equal(getattr(again, name), getattr(fresh, name)), name
        assert (again.name, again.num_deliverability_rows) == \
            (fresh.name, fresh.num_deliverability_rows)
        for shared in ("a11", "a12", "a21_factors", "a22", "b1", "b2", "lower", "upper",
                       "row_labels1"):
            assert getattr(again, shared) is getattr(lp, shared), shared
    for bad in ([0.5, 0.5], [-0.5, 1.0, 0.5], [0.2, 0.2, 0.2]):
        with pytest.raises(FormulationError):
            lp.reweighted(bad)
