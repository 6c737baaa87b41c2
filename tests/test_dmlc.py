import numpy as np
import pytest

from mtdplan.dmlc import (Trajectories, build_deliverability_constraints,
                          dose_from_trajectories, fluence_from_trajectories,
                          read_trajectories_csv, sweep_time_lower_bound,
                          validate_trajectories, write_trajectories_csv)
from mtdplan.errors import DataError

from helpers import influence_from_dense, make_machine, reference_deliverability_constraints


def random_feasible_trajectories(machine, rng):
    """Sample trajectories satisfying every deliverability row by construction."""
    B, N, J = machine.num_beams, machine.leaf_pairs, machine.bixels_per_row
    dt, rho = machine.traverse_time_s, machine.min_gap_fraction
    l = np.empty((B, N, J))
    r = np.empty((B, N, J))
    T = np.empty(B)
    for b in range(B):
        for n in range(N):
            # sample leaf by leaf: the leading leaf may only advance into
            # bixel j+1 once the trailing leaf is within the minimum gap
            r[b, n, 0] = rng.uniform(0.0, 2.0 * dt)
            l[b, n, 0] = r[b, n, 0] + rho * dt + rng.uniform(0.0, 2.0 * dt)
            for j in range(1, J):
                r_lo = r[b, n, j - 1] + dt
                r_hi = l[b, n, j - 1] + (1.0 - rho) * dt  # >= r_lo by first-gap
                r[b, n, j] = rng.uniform(r_lo, r_hi)
                l_lo = max(l[b, n, j - 1] + dt, r[b, n, j] + rho * dt)
                l[b, n, j] = l_lo + rng.uniform(0.0, 2.0 * dt)
        T[b] = l[b, :, J - 1].max() + dt + rng.uniform(0.0, dt)
    total = T.sum()
    assert total <= machine.max_time_s, "machine budget too small for the sampler"
    return Trajectories(l=l, r=r, T=T)


def test_row_count_formula():
    for B, N, J in [(1, 1, 1), (1, 1, 4), (2, 3, 5), (3, 2, 1)]:
        machine = make_machine(B=B, N=N, J=J)
        block = build_deliverability_constraints(machine)
        assert block.matrix.shape[0] == B * N * (3 * (J - 1) + 2) + B * N + 1
        assert block.matrix.shape[1] == 2 * B * N * J + B


def test_deliverability_block_matches_row_loop_reference():
    for B, N, J in [(1, 1, 1), (1, 1, 2), (1, 1, 5), (2, 3, 2), (3, 2, 4), (2, 1, 1)]:
        machine = make_machine(B=B, N=N, J=J, dt=0.37, rho=0.3, t_max=77.0)
        block = build_deliverability_constraints(machine)
        ref = reference_deliverability_constraints(machine)
        assert block.matrix.shape == ref.matrix.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(block.matrix, part), getattr(ref.matrix, part))
        assert np.array_equal(block.rhs, ref.rhs)
        assert block.labels == ref.labels


def test_j_equal_one_has_no_interbixel_rows():
    machine = make_machine(B=2, N=2, J=1)
    block = build_deliverability_constraints(machine)
    kinds = {label[0] for label in block.labels}
    assert kinds == {"first-gap", "beam-on", "park", "total-time"}


def test_documented_feasible_example():
    # B=N=1, J=2, dt=1, rho=0.5: r=[0,1], l=[0.5,2.5], T=4 satisfies
    # every trajectory condition by direct substitution
    machine = make_machine(B=1, N=1, J=2, dt=1.0, rho=0.5, t_max=10.0)
    traj = Trajectories(l=np.array([[[0.5, 2.5]]]), r=np.array([[[0.0, 1.0]]]), T=np.array([4.0]))
    assert validate_trajectories(traj, machine) == []
    # r-order: 0 + 1 <= 1; l-order: 0.5 + 1 <= 2.5
    # min-gap: 1 <= 0.5 + 0.5; first-gap: 0 <= 0.5 - 0.5; beam-on: 2.5 + 1 <= 4
    assert traj.r[0, 0, 0] + 1.0 <= traj.r[0, 0, 1]
    assert traj.l[0, 0, 0] + 1.0 <= traj.l[0, 0, 1]
    assert traj.r[0, 0, 1] <= traj.l[0, 0, 0] + (1 - 0.5) * 1.0
    assert traj.r[0, 0, 0] <= traj.l[0, 0, 0] - 0.5 * 1.0
    assert traj.l[0, 0, 1] + 1.0 <= traj.T[0]


def test_validator_flags_first_gap_violation():
    machine = make_machine(B=1, N=1, J=1, dt=1.0, rho=0.5, t_max=10.0)
    traj = Trajectories(l=np.array([[[1.0]]]), r=np.array([[[1.0]]]), T=np.array([3.0]))
    violations = validate_trajectories(traj, machine)
    assert len(violations) == 1
    v = violations[0]
    assert v.kind == "first-gap"
    assert v.amount_s == pytest.approx(0.5)


def test_validator_flags_each_single_row_perturbation():
    machine = make_machine(B=1, N=2, J=3, dt=0.5, rho=0.3, t_max=100.0)
    rng = np.random.default_rng(2)
    traj = random_feasible_trajectories(machine, rng)
    block = build_deliverability_constraints(machine)
    x = traj.stacked()
    slack = block.matrix @ x - block.rhs
    for i in range(block.matrix.shape[0]):
        row = block.matrix.getrow(i)
        j = row.indices[0]
        bump = (slack[i] + 0.25) / row.data[0]
        x_bad = x.copy()
        x_bad[j] -= bump
        bad = Trajectories.from_stacked(x_bad, machine)
        flagged = {(v.kind, v.beam, v.leaf_pair, v.bixel) for v in validate_trajectories(bad, machine)}
        assert block.labels[i] in flagged


def test_total_time_boundary_is_feasible():
    machine = make_machine(B=2, N=1, J=1, dt=1.0, rho=0.5, t_max=8.0)
    traj = Trajectories(l=np.array([[[1.0]], [[1.0]]]), r=np.array([[[0.0]], [[0.0]]]),
                        T=np.array([4.0, 4.0]))  # sums exactly to T_max
    assert validate_trajectories(traj, machine) == []


def test_trailing_behind_leading_implied_by_min_gap():
    rng = np.random.default_rng(7)
    machine = make_machine(B=2, N=2, J=4, dt=0.4, rho=0.35, t_max=200.0)
    block = build_deliverability_constraints(machine)
    labels = {label: i for i, label in enumerate(block.labels)}
    dense = block.matrix.toarray()
    nb = machine.num_bixels
    for _ in range(20):
        traj = random_feasible_trajectories(machine, rng)
        assert np.all(traj.r <= traj.l - machine.min_gap_fraction * machine.traverse_time_s + 1e-12)
    # linear-combination certificate: (min-gap at j) + (l-order at j) equals
    # the row l[j+1] - r[j+1] >= rho*dt, which implies r <= l at bixel j+1;
    # the first bixel is covered by the first-gap row itself
    for b in range(machine.num_beams):
        for n in range(machine.leaf_pairs):
            for j in range(machine.bixels_per_row - 1):
                combo = (dense[labels[("min-gap", b, n, j)]]
                         + dense[labels[("l-order", b, n, j)]])
                expected = np.zeros(2 * nb + machine.num_beams)
                expected[(b * machine.leaf_pairs + n) * machine.bixels_per_row + j + 1] = 1.0
                expected[nb + (b * machine.leaf_pairs + n) * machine.bixels_per_row + j + 1] = -1.0
                assert np.array_equal(combo, expected)
                rhs_sum = (block.rhs[labels[("min-gap", b, n, j)]]
                           + block.rhs[labels[("l-order", b, n, j)]])
                assert rhs_sum == pytest.approx(machine.min_gap_fraction * machine.traverse_time_s)
                assert rhs_sum >= 0.0


def test_min_gap_tightens_monotonically_with_rho():
    # as rho -> 1 the min-gap rhs -(1-rho)*dt rises toward 0, shrinking the
    # feasible set until r[j+1] <= l[j]
    previous = -np.inf
    for rho in (0.1, 0.4, 0.7, 0.95):
        machine = make_machine(B=1, N=1, J=3, dt=1.0, rho=rho, t_max=50.0)
        block = build_deliverability_constraints(machine)
        rhs = [block.rhs[i] for i, lab in enumerate(block.labels) if lab[0] == "min-gap"]
        assert all(r == rhs[0] for r in rhs)
        assert rhs[0] > previous
        previous = rhs[0]
    assert previous == pytest.approx(-(1 - 0.95) * 1.0)


def test_fluence_formula_values():
    machine = make_machine(B=1, N=1, J=1, dt=0.1, rho=0.1, tau=0.0, rate=1.0, t_max=50.0)
    traj = Trajectories(l=np.array([[[3.0]]]), r=np.array([[[1.0]]]), T=np.array([5.0]))
    assert fluence_from_trajectories(traj, machine)[0, 0, 0] == 2.0

    leaky = make_machine(B=1, N=1, J=1, dt=0.1, rho=0.1, tau=0.05, rate=1.0, t_max=50.0)
    traj10 = Trajectories(l=np.array([[[3.0]]]), r=np.array([[[1.0]]]), T=np.array([10.0]))
    assert fluence_from_trajectories(traj10, leaky)[0, 0, 0] == pytest.approx(2.0 + 0.05 * 8.0)

    closed = Trajectories(l=np.array([[[1.0]]]), r=np.array([[[1.0]]]), T=np.array([5.0]))
    assert fluence_from_trajectories(closed, machine)[0, 0, 0] == 0.0


def test_beam_translation_shifts_fluence_by_leakage_only():
    machine = make_machine(B=2, N=1, J=2, dt=0.5, rho=0.2, tau=0.03, t_max=300.0)
    rng = np.random.default_rng(4)
    traj = random_feasible_trajectories(machine, rng)
    c = 2.5
    shifted = Trajectories(l=traj.l + np.array([c, 0.0])[:, None, None],
                           r=traj.r + np.array([c, 0.0])[:, None, None],
                           T=traj.T + np.array([c, 0.0]))
    assert validate_trajectories(shifted, machine) == []
    w0 = fluence_from_trajectories(traj, machine)
    w1 = fluence_from_trajectories(shifted, machine)
    delta = w1 - w0
    assert np.allclose(delta[0], machine.dose_rate * machine.transmission * c, atol=1e-12)
    assert np.allclose(delta[1], 0.0, atol=1e-12)


def test_fluence_depends_on_gap_only_without_transmission():
    machine = make_machine(B=1, N=2, J=3, dt=0.5, rho=0.2, tau=0.0, t_max=300.0)
    rng = np.random.default_rng(6)
    traj = random_feasible_trajectories(machine, rng)
    c = 3.25
    shifted = Trajectories(l=traj.l + c, r=traj.r + c, T=traj.T + c)
    assert validate_trajectories(shifted, machine) == []
    assert np.allclose(fluence_from_trajectories(shifted, machine),
                       fluence_from_trajectories(traj, machine), atol=1e-12)


def test_dose_matches_two_path_recomputation_bitwise():
    machine = make_machine(B=2, N=2, J=3, dt=0.4, rho=0.25, tau=0.04, rate=1.3, t_max=400.0)
    rng = np.random.default_rng(9)
    influence = influence_from_dense(rng.random((15, machine.num_bixels)) * 0.2, machine)
    for _ in range(10):
        traj = random_feasible_trajectories(machine, rng)
        library = dose_from_trajectories(influence, traj, machine)
        # independent path: per-bixel scalar arithmetic, then the same sparse product
        weights = np.empty(machine.num_bixels)
        for b in range(machine.num_beams):
            for n in range(machine.leaf_pairs):
                for j in range(machine.bixels_per_row):
                    gap = traj.l[b, n, j] - traj.r[b, n, j]
                    weights[machine.bixel_index(b, n, j)] = machine.dose_rate * (
                        gap + machine.transmission * (traj.T[b] - gap))
        manual = influence.matrix @ weights
        assert np.array_equal(library, manual)


def test_zero_fluence_gives_zero_dose_and_identity_influence():
    machine = make_machine(B=1, N=1, J=1, dt=0.1, rho=0.1, tau=0.0, t_max=10.0)
    influence = influence_from_dense([[1.0]], machine)
    closed = Trajectories(l=np.array([[[2.0]]]), r=np.array([[[2.0]]]), T=np.array([5.0]))
    assert dose_from_trajectories(influence, closed, machine).tolist() == [0.0]
    open_traj = Trajectories(l=np.array([[[3.5]]]), r=np.array([[[2.0]]]), T=np.array([5.0]))
    assert dose_from_trajectories(influence, open_traj, machine).tolist() == [1.5]


def test_dose_is_linear_in_times():
    machine = make_machine(B=1, N=2, J=3, dt=0.3, rho=0.2, tau=0.05, rate=0.8, t_max=200.0)
    rng = np.random.default_rng(13)
    dense = rng.random((10, machine.num_bixels)) * 0.5
    influence = influence_from_dense(dense, machine)
    traj = random_feasible_trajectories(machine, rng)
    x0 = traj.stacked()
    d0 = dose_from_trajectories(influence, traj, machine)

    # analytic Jacobian of the trajectory-to-dose map
    nb = machine.num_bixels
    rep = np.zeros((nb, machine.num_beams))
    for b in range(machine.num_beams):
        rep[b * machine.leaf_pairs * machine.bixels_per_row:
            (b + 1) * machine.leaf_pairs * machine.bixels_per_row, b] = 1.0
    open_scale = machine.dose_rate * (1 - machine.transmission)
    jac = np.hstack([open_scale * dense, -open_scale * dense,
                     machine.dose_rate * machine.transmission * dense @ rep])

    h = 1e-6
    for col in rng.choice(x0.size, size=8, replace=False):
        x1 = x0.copy()
        x1[col] += h
        d1 = dose_from_trajectories(influence, Trajectories.from_stacked(x1, machine), machine)
        fd = (d1 - d0) / h
        assert np.allclose(fd, jac[:, col], atol=1e-8, rtol=1e-6)


def test_sweep_time_lower_bound_values():
    machine = make_machine(B=1, N=2, J=4, dt=0.5, rho=0.2, tau=0.0, rate=2.0, t_max=100.0)
    zero = np.zeros((1, 2, 4))
    assert sweep_time_lower_bound(zero, machine) == pytest.approx(4 * 0.5)

    single = make_machine(B=1, N=1, J=1, dt=0.5, rho=0.2, tau=0.0, rate=2.0, t_max=100.0)
    phi = 3.0
    assert sweep_time_lower_bound(np.array([[[phi]]]), single) == pytest.approx(0.5 + phi / 2.0)

    for N in (1, 3, 5):
        m = make_machine(B=1, N=N, J=4, dt=0.5, rho=0.2, tau=0.0, rate=2.0, t_max=100.0)
        uniform = np.full((1, N, 4), 1.7)
        assert sweep_time_lower_bound(uniform, m) == pytest.approx(
            4 * 0.5 + 1.7 / 2.0)  # independent of N


def test_trajectory_csv_roundtrip_exact(tmp_path):
    machine = make_machine(B=2, N=2, J=3, dt=0.4, rho=0.25, t_max=300.0)
    traj = random_feasible_trajectories(machine, np.random.default_rng(21))
    path = tmp_path / "traj.csv"
    write_trajectories_csv(path, traj)
    back = read_trajectories_csv(path, machine)
    assert np.array_equal(traj.l, back.l)
    assert np.array_equal(traj.r, back.r)
    assert np.array_equal(traj.T, back.T)


def test_trajectory_csv_corruption_reports_line(tmp_path):
    machine = make_machine(B=1, N=1, J=2, dt=0.4, rho=0.25, t_max=300.0)
    traj = random_feasible_trajectories(machine, np.random.default_rng(3))
    path = tmp_path / "traj.csv"
    write_trajectories_csv(path, traj)
    lines = path.read_text().splitlines()
    lines[2] = "bixel,0,0,1,not_a_number,0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        read_trajectories_csv(path, machine)
    assert err.value.line == 3
