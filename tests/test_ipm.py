import functools
import gc
import pickle
import time
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse as sp

from mtdplan import cli, formulation, ipm, mco
from mtdplan.case import load_case
from mtdplan.formulation import A21Factors, BlockLP, CriterionSet, build_weighted_instance
from mtdplan.ipm import (DualSolution, KKTSystem, SolverSettings, _SchurFactorization,
                         duality_gap_in_dose, invert_voxelwise_quadrant, schur_solve, solve)

from helpers import (FACTOR_ARRAYS, assert_same_bytes, balanced_lp, demo_variant,
                     linprog_reference, make_machine, random_block_instance, reference_fold,
                     toy_dav_instance)


def raw_lp(a11, b1, c, lower, upper):
    """BlockLP with an empty voxelwise part, for bare solver tests."""
    a11 = sp.csr_matrix(np.atleast_2d(np.asarray(a11, dtype=float)))
    m1, n1 = a11.shape
    return BlockLP(a11=a11, a12=sp.csr_matrix((m1, 0)),
                   a21_factors=A21Factors.from_matrix(sp.csr_matrix((0, n1))),
                   a22=sp.csr_matrix((0, 0)), b1=np.asarray(b1, dtype=float),
                   b2=np.zeros(0), objective_vector=np.asarray(c, dtype=float),
                   lower=np.asarray(lower, dtype=float), upper=np.asarray(upper, dtype=float),
                   num_zero_rows=0, machine=None, criteria=(), weights=None,
                   columns=())


def random_kkt(rng, n1=6, n2=8, m1=5, m2_zero=3, density=0.6):
    def block(m, n):
        mat = rng.standard_normal((m, n)) * (rng.random((m, n)) < density)
        return sp.csr_matrix(mat)

    m2 = m2_zero + n2
    a22 = sp.vstack([sp.csr_matrix((m2_zero, n2)), sp.eye(n2, format="csr")], format="csr")
    draw = lambda k: rng.uniform(0.2, 5.0, k)
    return KKTSystem(a11=block(m1, n1), a12=block(m1, n2), a21=block(m2, n1), a22=a22,
                     d1=draw(n1), d2=draw(n2), d3=draw(m1), d4=draw(m2),
                     num_zero_rows=m2_zero)


# --- structured inverse -------------------------------------------------------

def test_quadrant_inverse_matches_2x2_closed_form():
    # one voxel, identity coupling: [[-2, 1], [1, 3]]^-1 = (1/-7) [[3, -1], [-1, -2]]
    inverse = invert_voxelwise_quadrant(np.array([2.0]), np.array([3.0]), 0)
    expected = np.array([[3.0, -1.0], [-1.0, -2.0]]) / -7.0
    assert np.allclose(inverse.to_matrix().toarray(), expected, atol=1e-15)
    dx2, dy_zero, dy_eta = inverse.apply(np.array([1.0]), np.zeros(0), np.array([0.0]))
    assert dx2[0] == pytest.approx(-3.0 / 7.0)
    assert dy_eta[0] == pytest.approx(1.0 / 7.0)


def test_quadrant_inverse_zero_rows_only_is_reciprocal():
    d4 = np.array([4.0, 0.5, 2.0])
    inverse = invert_voxelwise_quadrant(np.zeros(0), d4, 3)
    assert np.allclose(inverse.aa, 1.0 / d4)
    assert inverse.to_matrix().shape == (3, 3)
    assert np.allclose(inverse.to_matrix().toarray(), np.diag(1.0 / d4))


def test_quadrant_inverse_random_vs_dense():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n2 = int(rng.integers(1, 30))
        mz = int(rng.integers(0, 10))
        d2 = rng.uniform(1e-3, 1e3, n2)
        d4 = rng.uniform(1e-3, 1e3, mz + n2)
        inverse = invert_voxelwise_quadrant(d2, d4, mz)
        quadrant = np.block([
            [-np.diag(d2), np.zeros((n2, mz)), np.eye(n2)],
            [np.zeros((mz, n2)), np.diag(d4[:mz]), np.zeros((mz, n2))],
            [np.eye(n2), np.zeros((n2, mz)), np.diag(d4[mz:])],
        ])
        dense = np.linalg.inv(quadrant)
        ours = inverse.to_matrix().toarray()
        assert np.linalg.norm(ours - dense) <= 1e-12 * max(np.linalg.norm(dense), 1.0)
        # applying the operator is the same as multiplying by the inverse
        vec = rng.standard_normal(2 * n2 + mz)
        dx2, dz, de = inverse.apply(vec[:n2], vec[n2:n2 + mz], vec[n2 + mz:])
        assert np.allclose(np.concatenate([dx2, dz, de]), dense @ vec, atol=1e-10)


def quadrant_matrix_loop(inverse):
    """Per-voxel construction of ``QuadrantInverse.to_matrix``, the reference."""
    n2, mz = inverse.xx.size, inverse.aa.size
    rows, cols, vals = [], [], []
    for i in range(n2):
        rows += [i, i, n2 + mz + i, n2 + mz + i]
        cols += [i, n2 + mz + i, i, n2 + mz + i]
        vals += [inverse.xx[i], inverse.xr[i], inverse.xr[i], inverse.rr[i]]
    for i in range(mz):
        rows.append(n2 + i)
        cols.append(n2 + i)
        vals.append(inverse.aa[i])
    size = 2 * n2 + mz
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def test_quadrant_to_matrix_identical_to_loop_reference():
    rng = np.random.default_rng(21)
    for n2, mz in [(0, 0), (0, 3), (5, 0), (7, 4), (30, 11)]:
        inverse = invert_voxelwise_quadrant(rng.uniform(0.1, 5.0, n2),
                                            rng.uniform(0.1, 5.0, n2 + mz), mz)
        ours, ref = inverse.to_matrix(), quadrant_matrix_loop(inverse)
        assert ours.shape == ref.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ours, attr), getattr(ref, attr)), (n2, mz, attr)


def test_quadrant_inverse_requires_positive_diagonals():
    with pytest.raises(AssertionError):
        invert_voxelwise_quadrant(np.array([0.0]), np.array([1.0]), 0)


# --- schur solve ---------------------------------------------------------------

def test_schur_solve_diagonal_system_is_elementwise():
    system = KKTSystem(a11=sp.csr_matrix((0, 3)), a12=sp.csr_matrix((0, 0)),
                       a21=sp.csr_matrix((0, 3)), a22=sp.csr_matrix((0, 0)),
                       d1=np.array([2.0, 4.0, 8.0]), d2=np.zeros(0),
                       d3=np.zeros(0), d4=np.zeros(0), num_zero_rows=0)
    rhs = np.array([2.0, 2.0, 2.0])
    delta, info = schur_solve(system, rhs)
    assert np.allclose(delta, rhs / -np.array([2.0, 4.0, 8.0]))
    assert info["relative_residual"] <= 1e-14


def test_schur_solve_matches_dense_random():
    rng = np.random.default_rng(11)
    for trial in range(25):
        system = random_kkt(rng, n1=int(rng.integers(2, 8)), n2=int(rng.integers(1, 12)),
                            m1=int(rng.integers(1, 8)), m2_zero=int(rng.integers(0, 6)))
        rhs = rng.standard_normal(system.order)
        delta, info = schur_solve(system, rhs)
        full = system.assemble().toarray()
        # (x1, y1) block of the (x1, x2, y1, y2) ordering: [[-D1, A11^T], [A11, D3]]
        n1, y1 = system.n1, slice(system.n1 + system.n2, system.n1 + system.n2 + system.m1)
        assert np.array_equal(full[:n1, :n1], -np.diag(system.d1))
        assert np.array_equal(full[:n1, y1], system.a11.toarray().T)
        assert np.array_equal(full[y1, y1], np.diag(system.d3))
        dense = np.linalg.solve(full, rhs)
        assert np.linalg.norm(delta - dense) <= 1e-10 * max(1.0, np.linalg.norm(dense))
        assert info["relative_residual"] <= 1e-10
        assert not info["regularized"]


@pytest.mark.parametrize("touched", ["none", "some", "all"])
def test_schur_solve_row_split_matches_dense(touched):
    # G differs from D3 only on the rows R that A12 touches: none, every
    # other row (untouched rows interleaved), or all of them
    rng = np.random.default_rng({"none": 31, "some": 32, "all": 33}[touched])
    for _ in range(10):
        system = random_kkt(rng, n1=int(rng.integers(2, 8)), n2=int(rng.integers(2, 12)),
                            m1=int(rng.integers(3, 9)), m2_zero=int(rng.integers(0, 6)))
        a12 = system.a12.toarray()
        if touched == "none":
            a12[:] = 0.0
        else:
            a12[a12 == 0.0] = rng.standard_normal(np.count_nonzero(a12 == 0.0))
            if touched == "some":
                a12[::2] = 0.0
        system = KKTSystem(a11=system.a11, a12=sp.csr_matrix(a12), a21=system.a21,
                           a22=system.a22, d1=system.d1, d2=system.d2, d3=system.d3,
                           d4=system.d4, num_zero_rows=system.num_zero_rows)
        rows = _SchurFactorization(system).structure.rows
        expected = {"none": [], "some": np.arange(1, system.m1, 2),
                    "all": np.arange(system.m1)}[touched]
        assert np.array_equal(rows, expected)
        rhs = rng.standard_normal(system.order)
        delta, info = schur_solve(system, rhs)
        dense = np.linalg.solve(system.assemble().toarray(), rhs)
        assert np.linalg.norm(delta - dense) <= 1e-10 * max(1.0, np.linalg.norm(dense))
        assert not info["regularized"]


def with_a21(system, a21):
    return KKTSystem(a11=system.a11, a12=system.a12, a21=a21, a22=system.a22,
                     d1=system.d1, d2=system.d2, d3=system.d3, d4=system.d4,
                     num_zero_rows=system.num_zero_rows)


def raw_csr(rows, cols, vals, shape):
    """CSR matrix storing every given entry as is: duplicates are not summed."""
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
    return sp.csr_matrix((np.asarray(vals, dtype=float)[order], np.asarray(cols)[order], indptr),
                         shape=shape)


def folded_a21(rng, m2, num_zero_rows):
    """A21 whose 11 columns fold to 5 groups and whose rows repeat up to sign.

    Columns: b0, -b0, 0, b1, b1, b2, -b1, 0, b3, -b2, c, where every ``b``
    has zero entries and ``|c| == |b0|`` with one sign flipped, so ``c``
    shares b0's magnitude fingerprint without being equal up to sign.
    Row 0 of every ``b`` is zero and row 1 is one.  Every other row of the
    ``b``s is a signed copy of one of three rows, the third equal to the
    second but for the sign of its b0 entry (a magnitude twin that must not
    fold); each of the three is copied into the first ``num_zero_rows``
    rows and into the rest.  Explicit ``0.0`` and ``-0.0`` entries are
    stored in some columns but not in their twins, column 7 stores only
    ``-0.0``.  Row 1 stores its entries in columns 3 and 4, and the last
    row those in columns 0 and 1, as two halves each.  Halves add up
    exactly where they open a fingerprint's sum (row 1 in columns 3 and
    4, column 0 of the last row) and meet halves in the twin column
    elsewhere, so every fold the test expects still happens.
    """
    base = rng.standard_normal((3, 4))
    base[0, 2] = 0.0
    base[2] = base[1]
    base[2, 0] *= -1.0
    copies = np.concatenate([[0, 1, 2], rng.integers(0, 3, num_zero_rows - 5), [0, 1, 2],
                             rng.integers(0, 3, m2 - num_zero_rows - 3)])
    b = base[copies] * rng.choice([-1.0, 1.0], (m2 - 2, 1))
    b = np.vstack([np.zeros(4), np.ones(4), b])
    c = b[:, 0].copy()
    c[1] = -1.0
    dense = np.stack([b[:, 0], -b[:, 0], 0 * b[:, 0], b[:, 1], b[:, 1], b[:, 2], -b[:, 1],
                      -0.0 * b[:, 0], b[:, 3], -b[:, 2], c], axis=1)
    rows, cols = np.nonzero(dense)
    vals = dense[rows, cols]
    halves = [(1, 3), (1, 4), (m2 - 1, 0), (m2 - 1, 1)]
    halved = np.isin(rows * 11 + cols, [i * 11 + j for i, j in halves])
    vals[halved] *= 0.5
    rows = np.concatenate([rows, [0, 0, 0, 0], [i for i, _ in halves]])
    cols = np.concatenate([cols, [1, 6, 7, 9], [j for _, j in halves]])
    vals = np.concatenate([vals, [-0.0, 0.0, -0.0, -0.0], [0.5 * dense[i, j] for i, j in halves]])
    a21 = raw_csr(rows, cols, vals, dense.shape)
    assert a21.nnz == len(vals)   # the duplicate halves are stored as such
    return a21, dense


def signed_row_groups(rows):
    """Reference row grouping by dense comparison.

    A nonzero row joins the group of the first row with the same
    magnitudes if it equals that row up to sign, and otherwise starts its
    own group: a magnitude twin costs a fold, never a wrong one.
    """
    row_nz = np.flatnonzero(np.any(rows != 0, axis=1))
    firsts, group = [], []
    for i in row_nz:
        first = next(j for j in row_nz if np.array_equal(np.abs(rows[j]), np.abs(rows[i])))
        if first != i and (np.array_equal(rows[i], rows[first])
                           or np.array_equal(rows[i], -rows[first])):
            group.append(group[list(row_nz).index(first)])
        else:
            firsts.append(i)
            group.append(len(firsts) - 1)
    return row_nz, np.array(group, dtype=int)


def unfolded_a21c(structure):
    """``[S b | C]``: the column-folded A21 rebuilt from the folded blocks.

    Also checks the blocks' form: ``[S | C]`` is ``expand``, S holds one
    entry of +-1 on each row of ``row_nz``, in the column of its group,
    and C at most one entry per row.
    """
    groups = structure.b.shape[0]
    membership = structure.expand[:, :groups].toarray()
    assert np.array_equal(np.flatnonzero(membership.any(axis=1)), structure.row_nz)
    assert np.array_equal(np.nonzero(membership[structure.row_nz])[1], structure.row_group)
    assert np.all(np.abs(membership).sum(axis=1) <= 1) and np.all(np.isin(membership, [-1, 0, 1]))
    assert np.array_equal(structure.expand[:, groups:].toarray(), structure.criterion)
    assert np.all(np.count_nonzero(structure.criterion, axis=1) <= 1)
    assert structure.b.flags.c_contiguous
    return np.hstack([membership @ structure.b, structure.criterion])


def unfolded_a21(structure):
    """A21 rebuilt from the folded blocks and the column groups and signs."""
    a21c = unfolded_a21c(structure)
    out = np.zeros((a21c.shape[0], structure.n1))
    out[:, structure.nz] = a21c[:, structure.group] * structure.sign
    return out


def test_schur_solve_matches_dense_with_folded_a21_columns():
    # The reference fold groups columns and rows by value, through
    # fingerprint collisions, stored zeros and duplicate entries; a
    # structure built on its factors solves as the dense system does.
    rng = np.random.default_rng(41)
    for _ in range(10):
        system = random_kkt(rng, n1=11, n2=int(rng.integers(3, 12)),
                            m1=int(rng.integers(1, 8)), m2_zero=int(rng.integers(5, 8)))
        a21, dense_a21 = folded_a21(rng, system.m2, system.num_zero_rows)
        stored = [array.copy() for array in (a21.data, a21.indices, a21.indptr)]
        system = with_a21(system, reference_fold(a21)[0])
        structure = _SchurFactorization(system).structure
        # A21 is left as stored, duplicates included
        assert all(np.array_equal(array, copy)
                   for array, copy in zip((a21.data, a21.indices, a21.indptr), stored))
        assert np.array_equal(structure.nz, [0, 1, 3, 4, 5, 6, 8, 9, 10])
        assert np.array_equal(structure.group, [0, 0, 1, 1, 2, 1, 3, 2, 4])
        assert np.array_equal(structure.sign, [1, -1, 1, 1, 1, -1, 1, -1, 1])
        # c is the one criterion column (row 1 holds both b3 and c); the
        # rows fold on b0..b3: row 1, the first two copied rows, and each
        # copy of the magnitude twin on its own
        assert structure.split == 4
        row_nz, row_group = signed_row_groups(dense_a21[:, [0, 3, 5, 8]])
        assert np.array_equal(structure.row_nz, row_nz) and row_nz[0] == 1
        assert np.array_equal(structure.row_group, row_group)
        assert structure.b.shape == (row_group.max() + 1, 4) and structure.b.shape[0] < row_nz.size
        assert np.count_nonzero(row_group == row_group[row_nz == 4]) == 1   # row 4 is a twin
        assert np.array_equal(unfolded_a21c(structure), dense_a21[:, [0, 3, 5, 8, 10]])
        assert np.array_equal(unfolded_a21(structure), dense_a21)
        rhs = rng.standard_normal(system.order)
        delta, info = schur_solve(system, rhs)
        dense = np.linalg.solve(system.assemble().toarray(), rhs)
        assert np.linalg.norm(delta - dense) <= 1e-10 * max(1.0, np.linalg.norm(dense))
        assert info["relative_residual"] <= 1e-10


def test_schur_solve_matches_dense_with_no_nonzero_a21_column(capfd):
    rng = np.random.default_rng(43)
    system = random_kkt(rng, n1=5, n2=6, m1=4, m2_zero=2)
    zeros = sp.csr_matrix((np.array([0.0, -0.0, -0.0]), (np.array([0, 3, 7]), np.array([1, 1, 4]))),
                          shape=(system.m2, system.n1))
    system = with_a21(system, reference_fold(zeros)[0])
    structure = _SchurFactorization(system).structure
    assert structure.nz.size == 0 and structure.row_nz.size == 0 and structure.split == 0
    assert structure.b.shape == (0, 0) and structure.criterion.shape == (system.m2, 0)
    rhs = rng.standard_normal(system.order)
    delta, info = schur_solve(system, rhs)
    dense = np.linalg.solve(system.assemble().toarray(), rhs)
    assert np.linalg.norm(delta - dense) <= 1e-10 * max(1.0, np.linalg.norm(dense))
    assert not info["regularized"]
    assert capfd.readouterr() == ("", "")   # BLAS is never called with an empty operand


@pytest.mark.parametrize("case", ["distinct-rows", "no-criterion-column", "no-trajectory-part",
                                  "empty"])
def test_schur_solve_row_fold_edge_cases(case, capfd):
    rng = np.random.default_rng(47)
    system = random_kkt(rng, n1=6, n2=0 if case == "empty" else 7, m1=4,
                        m2_zero=0 if case == "empty" else 3, density=0.8)
    a21 = system.a21.toarray()
    if case == "no-trajectory-part":
        # at most one entry per row: every column is a criterion column
        a21 = a21 * (np.arange(6) == rng.integers(0, 6, (system.m2, 1)))
    a21 = sp.csr_matrix(a21)
    if case == "no-criterion-column":
        # a duplicate pair counts as two entries, so even the last column
        # carries two on one row and nothing is split off
        coo = a21.tocoo()
        a21 = raw_csr(np.append(coo.row, [2, 2]), np.append(coo.col, [5, 5]),
                      np.append(coo.data, [0.5, 0.5]), a21.shape)
    system = with_a21(system, reference_fold(a21)[0])
    structure = _SchurFactorization(system).structure
    groups = structure.b.shape[0]
    expected = {"distinct-rows": (5, system.m2, system.m2),
                "no-criterion-column": (6, system.m2, system.m2),
                "no-trajectory-part": (0, 0, 0), "empty": (0, 0, 0)}[case]
    assert (structure.split, structure.row_nz.size, groups) == expected
    assert np.array_equal(structure.row_group, np.arange(groups))
    assert np.array_equal(unfolded_a21(structure), a21.toarray())
    rhs = rng.standard_normal(system.order)
    delta, info = schur_solve(system, rhs)
    dense = np.linalg.solve(system.assemble().toarray(), rhs)
    assert np.linalg.norm(delta - dense) <= 1e-10 * max(1.0, np.linalg.norm(dense))
    assert not info["regularized"]
    assert capfd.readouterr() == ("", "")   # BLAS is never called with an empty operand


def demo_lp():
    case = load_case("demo:prostate_demo")
    slots = case.criteria.num_slots
    return build_weighted_instance(case.phantom, case.machine, case.dose_influence(),
                                   case.criteria, np.full(slots, 1.0 / slots), name=case.name)


def unit_structure(lp):
    system = KKTSystem(a11=lp.a11, a12=lp.a12, a21=lp.a21_factors, a22=lp.a22, d1=np.ones(lp.n1),
                       d2=np.ones(lp.n2), d3=np.ones(lp.m1), d4=np.ones(lp.m2),
                       num_zero_rows=lp.num_zero_rows)
    return ipm._NewtonStructure(system)


def test_newton_structure_folds_demo_opposite_columns():
    # d = P(l - r) makes each nonzero l column of A21 the negative of an r
    # column; bixels that reach no voxelwise criterion give zero columns.
    lp = demo_lp()
    structure = unit_structure(lp)
    sizes = np.bincount(structure.group)
    assert (lp.n1, structure.nz.size, sizes.size) == (301, 188, 98)
    assert np.count_nonzero(sizes == 2) == 90 and np.count_nonzero(sizes == 1) == 8
    assert np.count_nonzero(structure.sign < 0) == 90
    assert np.array_equal(unfolded_a21c(structure)[:, structure.group] * structure.sign,
                          lp.a21[:, structure.nz].toarray())


def test_newton_structure_folds_demo_rows():
    # every criterion on an ROI repeats that ROI's dose rows up to sign,
    # beside its own xi/alpha entry: the 5 criterion columns
    lp = demo_lp()
    structure = unit_structure(lp)
    assert (lp.m2, structure.row_nz.size, structure.b.shape) == (600, 600, (192, 93))
    assert structure.criterion.shape == (600, 5)
    assert np.all(np.count_nonzero(structure.criterion, axis=1) == 1)
    assert np.array_equal(unfolded_a21(structure), lp.a21.toarray())


def assert_structure_is_the_fold(lp):
    """The build's factors, and the structure made of them, are the reference fold's bytes."""
    fold, expand = reference_fold(lp.a21)
    for name in FACTOR_ARRAYS:
        assert_same_bytes(getattr(lp.a21_factors, name), getattr(fold, name), name)
    structure = unit_structure(lp)
    for name in ("b", "criterion", "nz", "group", "sign", "row_nz", "row_group"):
        assert_same_bytes(getattr(structure, name), getattr(fold, name), name)
    for part in ("indptr", "indices", "data"):
        assert_same_bytes(getattr(structure.expand, part), getattr(expand, part), part)


@pytest.mark.parametrize("variant", ["demo", "floor66", "refined"])
def test_newton_structure_of_the_build_factors_is_the_fold(variant):
    assert_structure_is_the_fold(balanced_lp(demo_variant(variant)))


def test_newton_structure_of_random_build_factors_is_the_fold():
    # Seeds 142, 248 and 261 (beyond this range) hold l columns equal by
    # coincidence, which the fold groups and the factors do not.
    for seed in range(100):
        assert_structure_is_the_fold(random_block_instance(seed)[-1])


def test_plain_a21_takes_identity_factors():
    system = random_kkt(np.random.default_rng(45))
    structure = ipm._NewtonStructure(system)
    assert np.array_equal(structure.nz, np.arange(system.n1))
    assert np.array_equal(structure.group, structure.nz) and np.all(structure.sign == 1.0)
    assert np.array_equal(structure.row_nz, np.arange(system.m2))
    assert np.array_equal(structure.row_group, structure.row_nz)
    assert np.array_equal(structure.b, system.a21.toarray())
    assert structure.criterion.shape == (system.m2, 0) and structure.split == system.n1
    assert np.array_equal(structure.expand.toarray(), np.eye(system.m2))
    # a plain matrix is kept as given, with its stored zeros and duplicate halves
    a21, _ = folded_a21(np.random.default_rng(46), 12, 6)
    kept = A21Factors.from_matrix(a21).matrix
    assert kept.nnz == a21.nnz and np.array_equal(kept.data, a21.data)


@pytest.mark.parametrize("seed", [None, 2, 4], ids=["demo", "no-dav-criterion", "no-zero-rows"])
def test_newton_structure_products_match_full_matrix(seed):
    lp = demo_lp() if seed is None else random_block_instance(seed)[-1]
    structure = unit_structure(lp)
    if seed == 2:
        assert structure.rows.size == 0 and lp.num_zero_rows > 0
    elif seed == 4:
        assert lp.num_zero_rows == 0 and structure.rows.size > 0
    else:
        assert lp.num_zero_rows > 0 and lp.n2 > 0 and structure.rows.size > 0
    assert structure.nz.size < lp.n1   # some columns of A21 are all zero
    full = lp.matrix()
    rng = np.random.default_rng(5)
    x = rng.standard_normal(lp.num_variables)
    y = rng.standard_normal(lp.num_rows)
    for product, expected in ((structure.matvec(x), full @ x), (structure.rmatvec(y), full.T @ y)):
        assert np.linalg.norm(product - expected) <= 1e-12 * np.linalg.norm(expected)


def scale_columns(matrix, scale):
    """``matrix @ diag(scale)`` on the sparsity pattern of ``matrix``."""
    return sp.csr_matrix((matrix.data * scale[matrix.indices], matrix.indices, matrix.indptr),
                         shape=matrix.shape)


class SparseProductFactorization(_SchurFactorization):
    """Reference: F_R, G_RR and M' = T^T M T by sparse-sparse products of the transformed blocks.

    A11, F_R, D1 and A21's column map are each multiplied by T, which holds
    only 0 and 1, so each transformed block is exact.  Every cell of M' is
    so the same sum of the same products, in the same order, as in
    ``_SchurFactorization``.  The factoring of M' and the back-solves are
    inherited.
    """

    def __init__(self, system, structure):
        self.system = system
        self.structure = st = structure
        self.quadrant = q = invert_voxelwise_quadrant(system.d2, system.d4, system.num_zero_rows)
        self.inv_d3 = 1.0 / system.d3
        a12_rows = st.a12[st.rows]
        self.f_rows = st.a11_rows.copy()
        folded = (scale_columns(a12_rows, q.xr) @ st.expand[system.num_zero_rows:]).toarray()
        self.f_rows[:, st.nz] -= st.to_columns(folded.T).T[:, st.group] * st.sign
        g_rows = (scale_columns(a12_rows, -q.xx) @ a12_rows.T.tocsr()).toarray()
        g_rows[np.diag_indices_from(g_rows)] += system.d3[st.rows]
        self.g_chol = scipy.linalg.cho_factor(g_rows)[0]
        self._factor_m(ipm._work_pair(st))

    def transformed_m(self):
        """M' in full, both triangles."""
        st, system, q = self.structure, self.system, self.quadrant
        t = ipm._aperture_transform(st.n1, st.nb)
        a11_rest = st.a11_rest @ t
        m = scale_columns(a11_rest.T.tocsr(), self.inv_d3[st.rest]) @ a11_rest.toarray()
        f = (t.T @ self.f_rows.T).T
        m += f.T @ scipy.linalg.cho_solve((self.g_chol, False), f)
        m += (t.T @ sp.diags(system.d1) @ t).toarray()
        d = np.concatenate([q.aa, q.rr])
        gram = np.zeros((st.k, st.k))
        if st.b.size:
            group_d = np.bincount(st.row_group, weights=d[st.row_nz], minlength=st.b.shape[0])
            scaled = st.b * np.sqrt(group_d)[:, None]
            gram[:st.split, :st.split] = scipy.linalg.blas.dsyrk(1.0, scaled.T, trans=0)
        gram[:, st.split:] = st.to_columns(st.expand_t @ (st.criterion * d[:, None]))
        gram = np.triu(gram) + np.triu(gram, 1).T
        spread = sp.csr_matrix((st.sign, (st.group, st.nz)), shape=(st.k, st.n1)) @ t
        m += spread.T.tocsr() @ (gram @ spread.toarray())
        return m

    def _fill_m(self, buffer, scratch):
        st = self.structure
        nb = st.nb
        m = self.transformed_m()
        out, band, coupling, _ = st.work_parts(buffer)
        buffer.fill(0.0)
        band[1] = np.diagonal(m[:nb, :nb])
        band[0, 1:] = np.diagonal(m[:nb, :nb], 1)
        coupling[...] = m[np.arange(nb)[:, None], nb + st.coupling_cols]
        out[...] = m[nb:, nb:]
        return band, coupling, out


def dense_row_system(rng):
    """A11 with dense rows 2 and 8 among sparse rows sharing cells; A12 touches the odd rows.

    Off R the rows are 0, 2, ..., 22: the first dense row is not last, and
    sparse rows follow each dense one.  Entries span six decades, so the
    order of a cell's sum shows in its rounding.  The dense rows have both
    signs and unstored zeros.
    """
    system = random_kkt(rng, n1=40, n2=12, m1=24, m2_zero=4)
    a11 = np.zeros((24, 40))
    for row in range(24):
        a11[row, rng.choice(4, size=3, replace=False)] = (rng.standard_normal(3)
                                                          * 10.0 ** rng.uniform(-3, 3, 3))
    for row in (2, 8):
        a11[row] = rng.standard_normal(40) * (rng.random(40) < 0.8)
    a12 = system.a12.toarray()
    a12[::2] = 0.0
    a12[1::2, 0] = 1.0
    return replace(system, a11=sp.csr_matrix(a11), a12=sp.csr_matrix(a12))


def logged_systems(lp, every):
    res = solve(lp, SolverSettings(log_kkt=True))
    return [system for system, _, _ in res.kkt_log[::2 * every]]


@pytest.mark.parametrize("case", ["demo", "empty-R", "no-dense-row", "two-dense-rows"])
def test_factorization_is_byte_equal_to_sparse_products(case):
    rng = np.random.default_rng(61)
    if case == "demo":
        systems = logged_systems(demo_lp(), every=6)
    elif case in ("empty-R", "no-dense-row"):
        systems = logged_systems(random_block_instance({"empty-R": 2, "no-dense-row": 5}[case])[-1],
                                 every=2)
    else:
        systems = [replace(dense_row_system(rng), d1=rng.uniform(0.2, 5.0, 40)) for _ in range(5)]
    structure = ipm._NewtonStructure(systems[0])
    assert (structure.nb > 0) == (case != "two-dense-rows")
    expected_dense = {"demo": [433], "empty-R": [], "no-dense-row": [], "two-dense-rows": [1, 4]}
    counts = np.diff(structure.a11_rest_ap.indptr)
    assert np.array_equal(np.flatnonzero(counts > ipm._SPARSE_ROW_ENTRIES), expected_dense[case])
    # every row from the first dense one on enters M_KK as a rank-1 term
    expected_rank1 = {"demo": [433], "empty-R": [], "no-dense-row": [],
                      "two-dense-rows": list(range(1, 12))}
    rank1 = np.arange(structure.rank1_from, counts.size)
    assert np.array_equal(rank1, expected_rank1[case])
    assert np.array_equal(structure.a11_rank1_rows,
                          structure.a11_rest_ap[rank1].toarray()[:, structure.nb:])
    if case == "empty-R":
        assert structure.rows.size == 0
    for system in systems:
        fact = _SchurFactorization(system, structure)
        ref = SparseProductFactorization(system, structure)
        # the assembled s-block, s-K coupling and M_KK (its upper triangle, which potrf reads)
        parts = fact._fill_m(*ipm._work_pair(structure))
        ref_parts = ref._fill_m(*ipm._work_pair(structure))
        for mine, theirs, name in zip(parts, ref_parts, ("band", "coupling", "M_KK")):
            if name == "M_KK":
                mine, theirs = np.triu(mine), np.triu(theirs)
            assert_same_bytes(np.ascontiguousarray(mine), np.ascontiguousarray(theirs), name)
        for mine, theirs in ((fact.f_rows, ref.f_rows), (fact.g_chol, ref.g_chol),
                             (np.triu(fact.m_chol), np.triu(ref.m_chol))):
            assert np.ascontiguousarray(mine).tobytes() == np.ascontiguousarray(theirs).tobytes()
        rhs = rng.standard_normal(system.order)
        assert fact.solve(rhs).tobytes() == ref.solve(rhs).tobytes()


def one_pair_per_row(matrix, nb, width):
    """Whether every row of ``matrix`` touches the first ``nb`` columns within one block of ``width``."""
    coo = matrix.tocoo()
    on_s = coo.col < nb
    rows, pairs = coo.row[on_s], coo.col[on_s] // width
    return np.unique(rows).size == np.unique(rows * (nb // width + 1) + pairs).size


@pytest.mark.parametrize("source", ["demo", "refined", "random"])
def test_leaf_aperture_coordinates_keep_each_leaf_pair_apart(source):
    # In y = [s | a, T, xi, alpha] with r = s, l = s + a, each row of A T reaches the s of one
    # leaf pair at most, M's s-block is tridiagonal in each pair, each s reaches its own
    # pair's a and its beam's T, and so does each leaf pair's W = L^-1 M_sK.
    rng = np.random.default_rng(83)
    lps = ([random_block_instance(seed)[-1] for seed in range(0, 40, 3)] if source == "random"
           else [balanced_lp(demo_variant(source))])
    for lp in lps:
        nb, width = lp.machine.num_bixels, lp.machine.bixels_per_row
        per_beam = lp.machine.leaf_pairs * width
        draw = lambda k: 10.0 ** rng.uniform(-3, 3, k)
        system = ipm._kkt_system(lp, draw(lp.num_variables), draw(lp.num_rows))
        structure = ipm._NewtonStructure(system)
        assert (structure.nb, structure.nk) == (nb, lp.n1 - nb)
        if source != "random":
            assert (nb, structure.nk) == (144, 157)
        t = ipm._aperture_transform(lp.n1, nb)
        a_t = lp.matrix()[:, :lp.n1] @ t
        assert one_pair_per_row(a_t, nb, width)
        assert a_t[lp.m1:, :nb].nnz == 0 and a_t[structure.rows, :nb].nnz == 0   # s drops out
        m = SparseProductFactorization(system, structure).transformed_m()
        rows, cols = np.nonzero(m[:nb, :nb])
        assert np.all((np.abs(rows - cols) <= 1) & (rows // width == cols // width))
        pair_cols = [np.append(np.arange(p * width, (p + 1) * width), nb + p * width // per_beam)
                     for p in range(nb // width)]
        for i in range(nb):   # K columns, as in the coupling's layout
            assert np.isin(np.flatnonzero(m[i, nb:]), structure.coupling_cols[i]).all()
            assert np.array_equal(structure.coupling_cols[i], pair_cols[i // width])
        w = scipy.linalg.solve_triangular(np.linalg.cholesky(m[:nb, :nb]), m[:nb, nb:], lower=True)
        for p, cols in enumerate(pair_cols):
            assert np.isin(np.flatnonzero(w[p * width:(p + 1) * width].any(axis=0)), cols).all()


def test_plain_or_machine_less_systems_have_no_leaf_pairs():
    lp = balanced_lp(demo_variant("demo"))
    system = ipm._kkt_system(lp, np.ones(lp.num_variables), np.ones(lp.num_rows))
    assert ipm._NewtonStructure(system).nb == 144
    for other in (replace(system, a21=lp.a21), replace(system, machine=None),
                  replace(system, a21=A21Factors.from_matrix(lp.a21))):
        structure = ipm._NewtonStructure(other)
        assert (structure.nb, structure.nk, structure.coupling_cols.shape) == (0, lp.n1, (0, 2))
    structure = ipm._NewtonStructure(random_kkt(np.random.default_rng(84)))
    assert structure.nb == 0 and structure.nk == structure.n1


def demo_leaf_pair_system(seed):
    lp = balanced_lp(demo_variant("demo"))
    rng = np.random.default_rng(seed)
    system = ipm._kkt_system(lp, 10.0 ** rng.uniform(-3, 3, lp.num_variables),
                             10.0 ** rng.uniform(-3, 3, lp.num_rows))
    return lp, system


@pytest.mark.parametrize("column", [0, 144, 290])   # an l, an r, a beam's T
def test_non_finite_leaf_pair_factorization_raises_value_error(column):
    # NaN in D1 reaches all three parts of M' (l), the band alone (r) or M_KK alone (T):
    # each is a ValueError, never a LinAlgError.
    lp, system = demo_leaf_pair_system(85)
    d1 = system.d1.copy()
    d1[column] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _SchurFactorization(replace(system, d1=d1))


def test_regularized_leaf_pair_factorization_solves_m_plus_eps_identity(monkeypatch):
    # The retry factors M' + eps T^T T, which is M + eps I in x1, with eps taken from the
    # largest magnitude of M' that the factorization reads.
    lp, system = demo_leaf_pair_system(86)
    structure = ipm._NewtonStructure(system)
    factor, calls = _SchurFactorization._factor, []

    def failing_once(self, *parts):
        calls.append(1)
        if len(calls) == 1:
            raise scipy.linalg.LinAlgError("injected")
        return factor(self, *parts)

    monkeypatch.setattr(_SchurFactorization, "_factor", failing_once)
    fact = _SchurFactorization(system, structure)
    assert fact.regularized and len(calls) == 2
    m_prime = SparseProductFactorization(system, structure).transformed_m()
    t = ipm._aperture_transform(lp.n1, structure.nb).toarray()
    t_inv = np.linalg.inv(t)
    m = t_inv.T @ m_prime @ t_inv
    eps = 1e-8 * (1.0 + np.abs(m_prime).max())
    rhs = np.random.default_rng(87).standard_normal(lp.n1)
    expected = np.linalg.solve(m + eps * np.eye(lp.n1), rhs)
    np.testing.assert_allclose(fact._m_solve(rhs), expected, rtol=1e-7,
                               atol=1e-9 * np.abs(expected).max())


def criterion_columns_by_csr(structure, d):
    """The criterion columns of M's Gram matrix of A21c by the CSR product ``[S | C]^T (C d)``."""
    return structure.to_columns(structure.expand_t @ (structure.criterion * d[:, None]))


@pytest.mark.parametrize("source", ["folded", "random", "refined"])
def test_criterion_columns_by_bincount_equal_the_csr_product(source):
    # Each bin sums its rows in the CSR product's order; d spans six decades, so
    # another order shows in the rounding.
    rng = np.random.default_rng(71)
    if source == "folded":   # rows of one group share the criterion column: S^T D C sums them
        structures = []
        for _ in range(5):
            system = random_kkt(rng, n1=11, n2=int(rng.integers(3, 12)), m1=4,
                                m2_zero=int(rng.integers(5, 8)))
            a21, _ = folded_a21(rng, system.m2, system.num_zero_rows)
            structures.append(ipm._NewtonStructure(with_a21(system, reference_fold(a21)[0])))
        assert all(np.bincount(st.sc_bin).max() > 2 for st in structures)
    elif source == "random":
        structures = [unit_structure(random_block_instance(seed)[-1]) for seed in range(10)]
        assert structures[3].criterion.shape == (0, 0)   # no voxelwise row at all
    else:
        structures = [unit_structure(balanced_lp(demo_variant("refined")))]
    assert all(np.bincount(st.c_col).max() > 2 for st in structures if st.c_col.size)
    for structure in structures:
        for _ in range(3):
            d = 10.0 ** rng.uniform(-3, 3, structure.expand.shape[0])
            assert_same_bytes(structure.criterion_columns(d),
                              criterion_columns_by_csr(structure, d))


@pytest.mark.parametrize("variant", [0, 3, "refined"])
def test_a_dx_from_the_back_solve_equals_the_product(monkeypatch, variant):
    # Each direction's ds = A dx - rp takes A21 dx1 from its back-solve: it must be
    # the bytes that A dx formed anew gives.
    lp = balanced_lp(demo_variant(variant)) if variant == "refined" else \
        random_block_instance(variant)[-1]
    matvec, checked = ipm._NewtonStructure.matvec, []

    def checking(self, x, a21_x1=None):
        out = matvec(self, x, a21_x1)
        if a21_x1 is not None:
            assert_same_bytes(a21_x1, self.a21_matvec(x[:self.n1]))
            assert_same_bytes(out, matvec(self, x))
            checked.append(x)
        return out

    monkeypatch.setattr(ipm._NewtonStructure, "matvec", checking)
    res = solve(lp, SolverSettings())
    assert res.converged and len(checked) == 2 * (res.iterations - 1)


def test_back_solve_rejects_a_non_finite_rhs():
    system = dense_row_system(np.random.default_rng(62))
    fact = _SchurFactorization(system)
    rhs = np.ones(system.order)
    rhs[0] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        fact.solve(rhs)


def singular_reduced_system():
    """E = 0 and F = [1 1] make M = F^T G^-1 F = [[1, 1], [1, 1]] singular."""
    return KKTSystem(a11=sp.csr_matrix([[1.0, 1.0]]), a12=sp.csr_matrix((1, 0)),
                     a21=sp.csr_matrix((0, 2)), a22=sp.csr_matrix((0, 0)),
                     d1=np.zeros(2), d2=np.zeros(0), d3=np.ones(1), d4=np.zeros(0),
                     num_zero_rows=0)


def test_schur_solve_singular_reduced_matrix_is_regularized():
    system = singular_reduced_system()
    delta, info = schur_solve(system, np.array([1.0, -1.0, 0.5]))
    assert info["regularized"]
    assert np.all(np.isfinite(delta))
    # The failed in-place potrf leaves a partial factor (its second pivot 0.0):
    # bumping that instead of M fails again, so M must be rebuilt first.
    fact = _SchurFactorization(system)
    m = np.ones((2, 2))
    m[np.diag_indices(2)] += 1e-8 * (1.0 + np.abs(np.triu(m)).max())
    expected = scipy.linalg.cho_factor(m)[0]
    assert fact.regularized
    # the factor is the upper triangle, all that potrf writes and potrs reads
    assert_same_bytes(np.triu(fact.m_chol), np.triu(expected))


def factored_parts(fact):
    """The factors a factorization keeps in its work buffer: ``m_chol``, and with leaf pairs ``s_band`` and ``w``."""
    return [fact.m_chol] + ([fact.s_band, fact.w] if fact.structure.nb else [])


def test_regularized_factorization_refills_a_shared_work_pair(monkeypatch):
    # A solve passes every factorization one work pair, filled by the one before: after
    # the failed factorization, M' is rebuilt there from scratch, as in a fresh pair.
    # The singular system's failed potrf leaves a partial factor of M_KK; on the demo,
    # each first attempt fails after factoring the band, W and S in the buffer.
    factor, calls = _SchurFactorization._factor, []

    def failing_after(self, *parts):
        chol = factor(self, *parts)
        calls.append(1)
        if len(calls) % 2:
            raise scipy.linalg.LinAlgError("injected")
        return chol

    for system in (singular_reduced_system(), demo_leaf_pair_system(88)[1]):
        leaf_pairs = system.machine is not None
        if leaf_pairs:
            monkeypatch.setattr(_SchurFactorization, "_factor", failing_after)
        fresh = _SchurFactorization(system)
        structure = fresh.structure
        work = ipm._work_pair(structure)
        for part, value in zip(structure.work_parts(work[0]), (7.0, -3.0, 5.0, 11.0)):
            part.fill(value)
        work[1].fill(-2.0)
        assert all(part.size for part in structure.work_parts(work[0])) == leaf_pairs
        shared = _SchurFactorization(system, structure, work)
        assert shared.regularized and fresh.regularized
        for mine, theirs, part in zip(factored_parts(shared), factored_parts(fresh),
                                      structure.work_parts(work[0])):
            assert np.shares_memory(mine, part)
            assert mine.tobytes(order="A") == theirs.tobytes(order="A")


def test_factorization_keeps_solving_after_later_ones_on_its_structure():
    for system in (random_kkt(np.random.default_rng(18)), demo_leaf_pair_system(89)[1]):
        rhs = np.random.default_rng(19).standard_normal(system.order)
        first = _SchurFactorization(system)
        assert (first.structure.nb > 0) == (system.machine is not None)
        expected = first.solve(rhs)
        work = ipm._work_pair(first.structure)
        for scale in (2.0, 3.0):
            _SchurFactorization(replace(system, d1=scale * system.d1), first.structure)
            _SchurFactorization(replace(system, d1=scale * system.d1), first.structure, work)
        assert first.solve(rhs).tobytes() == expected.tobytes()


def test_machine_less_systems_never_reach_the_band_routines(monkeypatch):
    # Without leaf pairs the band and the coupling are order-0 views of the work buffer,
    # and LAPACK's band routines must not run on them: they write into its other parts.
    def refuse(*args, **kwargs):
        raise AssertionError("a band LAPACK routine ran without leaf pairs")

    rng = np.random.default_rng(90)
    lp = balanced_lp(demo_variant("demo"))
    demo = ipm._kkt_system(lp, rng.uniform(0.5, 2.0, lp.num_variables),
                           rng.uniform(0.5, 2.0, lp.num_rows))
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", refuse)
    monkeypatch.setattr(scipy.linalg.lapack, "dtbtrs", refuse)
    for system in (random_kkt(rng), replace(demo, machine=None), replace(demo, a21=lp.a21)):
        fact = _SchurFactorization(system)
        assert fact.structure.nb == 0 and not fact.regularized
        rhs = rng.standard_normal(system.order)
        residual = system.assemble() @ fact.solve(rhs) - rhs
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)


def test_schur_factorization_is_freed_without_cyclic_gc():
    system = random_kkt(np.random.default_rng(17))
    gc.disable()
    try:
        fact = _SchurFactorization(system)
        ref = weakref.ref(fact)
        del fact
        assert ref() is None
    finally:
        gc.enable()


def test_schur_solve_empty_voxel_blocks():
    rng = np.random.default_rng(13)
    a11 = sp.csr_matrix(rng.standard_normal((4, 3)))
    system = KKTSystem(a11=a11, a12=sp.csr_matrix((4, 0)), a21=sp.csr_matrix((0, 3)),
                       a22=sp.csr_matrix((0, 0)), d1=rng.uniform(0.5, 2.0, 3),
                       d2=np.zeros(0), d3=rng.uniform(0.5, 2.0, 4), d4=np.zeros(0),
                       num_zero_rows=0)
    rhs = rng.standard_normal(7)
    delta, _ = schur_solve(system, rhs)
    assert np.allclose(system.assemble().toarray() @ delta, rhs, atol=1e-10)


def test_logged_solve_steps_match_dense_kkt():
    *_, lp = toy_dav_instance(
        num_voxels=8, volume=0.4,
        machine=make_machine(B=1, N=2, J=2, dt=0.5, rho=0.3, tau=0.02, t_max=60.0))
    res = solve(lp, SolverSettings(dose_tolerance_gy=1e-7, log_kkt=True))
    assert res.converged
    assert len(res.kkt_log) >= 2 * 5  # predictor + corrector per iteration
    for system, rhs, delta in res.kkt_log:
        full = system.assemble().toarray()
        # the step must satisfy the unreduced system; comparing against the
        # dense solution vector directly would only measure its conditioning
        residual = np.linalg.norm(full @ delta - rhs)
        assert residual <= 1e-8 * (1.0 + np.linalg.norm(rhs))
        dense = np.linalg.solve(full, rhs)
        rel = np.linalg.norm(delta - dense) / max(np.linalg.norm(dense), 1e-300)
        assert rel <= 1e-6


# --- full solves ----------------------------------------------------------------

def test_solve_builds_newton_structure_once(monkeypatch):
    built = []

    class CountingStructure(ipm._NewtonStructure):
        def __init__(self, system):
            built.append(system)
            super().__init__(system)

    monkeypatch.setattr(ipm, "_NewtonStructure", CountingStructure)
    *_, lp = toy_dav_instance(num_voxels=6, volume=0.4)
    for _ in range(2):
        built.clear()
        res = solve(lp, SolverSettings(dose_tolerance_gy=1e-6))
        assert res.converged
        assert res.iterations > 2
        assert len(built) == 1


def test_solve_allocates_one_work_pair(monkeypatch):
    # every factorization of a solve builds and factors M' in the same buffer, of
    # nk^2 + 2 nb + nb (J + 1) + k^2 entries, and one nk x nk product
    *_, lp = toy_dav_instance(num_voxels=6, volume=0.4)
    prepared = ipm.PreparedLP(lp)
    st = prepared.structure
    nb, nk, width = lp.machine.num_bixels, lp.n1 - lp.machine.num_bixels, lp.machine.bixels_per_row
    assert (st.nb, st.nk) == (nb, nk) and nb > 0
    allocate, allocated = ipm._work_pair, []
    monkeypatch.setattr(ipm, "_work_pair", lambda structure: allocated.append(allocate(structure))
                        or allocated[-1])
    factor_m, factored = _SchurFactorization._factor_m, []

    def recording(self, work):
        factor_m(self, work)
        factored.append((work, factored_parts(self)))

    monkeypatch.setattr(_SchurFactorization, "_factor_m", recording)
    res = solve(lp, SolverSettings(dose_tolerance_gy=1e-6), prepared=prepared)
    assert res.converged
    assert res.iterations > 2
    assert len(allocated) == 1
    buffer, product = allocated[0]
    assert buffer.shape == (nk * nk + 2 * nb + nb * (width + 1) + st.k * st.k,)
    assert product.shape == (nk, nk) and product.flags.f_contiguous
    assert len(factored) == res.iterations - 1
    for work, parts in factored:
        assert work is allocated[0] and len(parts) == 3
        for part, view in zip(parts, st.work_parts(buffer)):
            assert np.shares_memory(part, view) and not np.shares_memory(part, product)


def test_solve_never_forms_full_matrix(monkeypatch):
    # Every product with A goes through the Newton structure's blocks.
    def refuse(self):
        raise AssertionError("ipm.solve formed the whole constraint matrix")

    lp = demo_lp()
    monkeypatch.setattr(BlockLP, "matrix", refuse)
    res = solve(lp, SolverSettings())
    assert res.converged, res.message


def test_prepared_solve_builds_no_sparse_matrix(monkeypatch):
    # every per-iteration product is a plan of indices or calls scipy's CSR
    # kernels directly, past the dispatch of a sparse matrix's @ and dot
    lp = demo_lp()
    prepared = ipm.PreparedLP(lp)
    built = []
    construct = sp._base._spbase.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        construct(self, *args, **kwargs)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a prepared solve went through scipy.sparse's product dispatch")

    monkeypatch.setattr(sp._base._spbase, "__init__", counting)
    for name in ("__matmul__", "__rmatmul__", "dot"):
        monkeypatch.setattr(sp._base._spbase, name, refuse)
    res = solve(lp, SolverSettings(), prepared=prepared)
    assert res.converged, res.message
    assert built == []


def test_no_solve_path_forms_a21(monkeypatch, tmp_path):
    # A21 is formed from its factors only where the whole matrix is read:
    # dump_lp, BlockLP.matrix(), the partition report and other solvers.
    formed = []
    form = formulation.A21Factors.matrix.func

    def counting(self):
        formed.append(self)
        return form(self)

    counted = functools.cached_property(counting)
    counted.__set_name__(formulation.A21Factors, "matrix")
    monkeypatch.setattr(formulation.A21Factors, "matrix", counted)
    demo = ["--case", "demo:prostate_demo"]
    assert cli.main(["solve", *demo, "--out", str(tmp_path / "solve")]) == 0
    assert cli.main(["pareto", *demo, "--grid-order", "2", "--workers", "1",
                     "--out", str(tmp_path / "pareto")]) == 0
    lp = demo_lp()
    prepared = ipm.PreparedLP(lp)
    assert prepared.serves(lp.reweighted([0.2, 0.3, 0.5])) and not prepared.serves(demo_lp())
    assert formed == []
    assert lp.a21 is lp.reweighted([0.2, 0.3, 0.5]).a21   # formed once, shared
    assert len(formed) == 1


def test_pickled_prepared_case_solves_to_the_same_bytes():
    # A pool worker's case: a formed A21 stays out of it.
    case = load_case("demo:prostate_demo")
    prepared = mco.prepared_instance(case)
    prepared.lp.a21
    copy = pickle.loads(pickle.dumps(case))._prepared
    assert "matrix" not in copy.lp.a21_factors.__dict__
    lp = prepared.lp.reweighted([0.2, 0.3, 0.5])
    mine = solve(lp, case.solver_settings(), prepared=prepared)
    theirs = solve(copy.lp.reweighted([0.2, 0.3, 0.5]), case.solver_settings(), prepared=copy)
    assert mine.converged
    assert mine.x.tobytes() == theirs.x.tobytes()
    assert mine.dual.y.tobytes() == theirs.dual.y.tobytes()


def test_pickled_factors_hold_only_the_factors():
    # A21 travels to pool workers as its factors alone: no formed matrix and
    # none of the dose rows or voxel lists it was built from.
    case = load_case("demo:prostate_demo")
    prepared = mco.prepared_instance(case)
    factors = prepared.lp.a21_factors
    assert prepared.structure.expand is factors.expand
    formed = factors.matrix
    assert set(factors.__getstate__()) == {"shape", *FACTOR_ARRAYS}
    copy = pickle.loads(pickle.dumps(case))._prepared.lp.a21_factors
    assert set(copy.__dict__) == {"shape", *FACTOR_ARRAYS}
    for part in ("indptr", "indices", "data"):
        assert_same_bytes(getattr(copy.matrix, part), getattr(formed, part), part)


def history_bytes(res):
    fields = [[rec.primal_residual, rec.dual_residual, rec.gap_gy, rec.mu, rec.step_primal,
               rec.step_dual, rec.sigma, rec.regularized] for rec in res.history]
    return np.array(fields).tobytes() + res.x.tobytes() + res.dual.y.tobytes()


def test_prepared_start_factor_survives_a_sweep_on_its_structure():
    # Every solve factors M in the structure's workspace; the start
    # factorization keeps its own copy, so a cold solve after a restarted
    # sweep starts where one before it did, and where a fresh PreparedLP does.
    lp = demo_lp()
    prepared = ipm.PreparedLP(lp)
    before = solve(lp, SolverSettings(), prepared=prepared)
    assert before.converged and before.restart is not None
    grid = mco.weight_grid(lp.weights.size, 4)
    assert grid.shape[0] == 15
    for weights in grid:
        res = solve(lp.reweighted(weights), SolverSettings(), prepared=prepared,
                    start=before.restart)
        assert res.iterations > 0
    after = solve(lp, SolverSettings(), prepared=prepared)
    fresh = solve(lp, SolverSettings(), prepared=ipm.PreparedLP(lp))
    assert history_bytes(before) == history_bytes(after) == history_bytes(fresh)


@pytest.mark.parametrize("seed", [None, 0, 3, 90, 121], ids=["demo", "0", "3", "90-infeasible",
                                                           "121-numerical-failure"])
def test_restart_continues_its_solve_bit_for_bit(seed):
    lp = demo_lp() if seed is None else random_block_instance(seed)[-1]
    first = solve(lp, SolverSettings())
    start = first.restart
    again = solve(lp, SolverSettings(), start=start)
    assert start.iteration + again.iterations == first.iterations
    assert (again.status, again.message) == (first.status, first.message)
    assert again.x.tobytes() == first.x.tobytes()
    assert again.dual.y.tobytes() == first.dual.y.tobytes()

    def measured(res, skip):
        return [(rec.primal_residual, rec.dual_residual, rec.gap_gy, rec.mu)
                for rec in res.history[skip:]]

    assert measured(again, 0) == measured(first, start.iteration)
    assert again.history[0].mu == start.mu


def test_a_restart_is_shifted_to_a_new_objective_and_kept_as_it_was():
    # Grid point 0's restart, taken to another weight vector: the change of c goes into
    # new z and w arrays, so the dual residual keeps its value and the parent is not written.
    lp = demo_lp()
    prepared = ipm.PreparedLP(lp)
    grid = mco.weight_grid(lp.weights.size, 4)
    parent = solve(lp.reweighted(grid[0]), SolverSettings(), prepared=prepared).restart
    assert parent is not None and np.array_equal(parent.c, lp.reweighted(grid[0]).objective_vector)
    names = ("x", "s", "y", "z", "w", "c")
    before = {name: getattr(parent, name).tobytes() for name in names}
    up = np.flatnonzero(np.isfinite(lp.upper))

    def dual_residual(it, c):
        rd = c - prepared.structure.rmatvec(it.y) - it.z
        rd[up] += it.w
        return rd

    child = lp.reweighted(grid[9])
    c = child.objective_vector
    shifted = parent.shifted(c, up)
    assert shifted.c is c
    assert not np.array_equal(shifted.z, parent.z) and not np.array_equal(shifted.w, parent.w)
    c_scale = 1.0 + float(np.max(np.abs(c)))
    assert np.max(np.abs(dual_residual(shifted, c) - dual_residual(parent, parent.c))) \
        <= 1e-12 * c_scale
    for name in ("x", "s", "y"):
        assert getattr(shifted, name).tobytes() == before[name]
    assert np.all(shifted.z > 0) and np.all(shifted.w > 0)
    assert parent.shifted(parent.c.copy(), up) is parent   # the same c: used as it is

    # Two children solved from the parent start where the shifted start is, and leave it whole.
    first, second = (solve(other, SolverSettings(), prepared=prepared, start=parent)
                     for other in (child, lp.reweighted(grid[14])))
    assert first.converged and second.converged
    assert first.history[0].dual_residual \
        == float(np.max(np.abs(dual_residual(shifted, c)))) / c_scale
    assert {name: getattr(parent, name).tobytes() for name in names} == before


def max_step_of_part(values, deltas):
    """Largest step keeping values + step*deltas nonnegative; 1.0 if nothing shrinks."""
    shrinking = deltas < 0
    if not np.any(shrinking):
        return 1.0
    return float(np.min(values[shrinking] / -deltas[shrinking]))


def test_max_step_is_the_least_step_of_its_parts():
    rng = np.random.default_rng(71)
    for trial in range(300):
        sizes = rng.integers(0, 7, 3)
        sizes[trial % 3] = 0 if trial % 5 == 0 else sizes[trial % 3]   # an empty part
        values = [rng.uniform(0.1, 3.0, size) for size in sizes]
        deltas = [rng.standard_normal(size) * 10.0 ** rng.uniform(-2, 2) for size in sizes]
        if trial % 4 == 0:
            deltas[1] = np.abs(deltas[1])   # an all-nonnegative part
        expected = min(max_step_of_part(v, d) for v, d in zip(values, deltas))
        assert ipm._max_step(values, deltas) == expected
    # a step above 1.0 stands only when every part shrinks
    assert ipm._max_step([np.ones(2), np.ones(1)], [-np.full(2, 0.25), -np.full(1, 0.5)]) == 2.0
    assert ipm._max_step([np.ones(2), np.ones(0)], [-np.full(2, 0.25), np.ones(0)]) == 1.0


def least_ratio(parts, deltas):
    """The least ``value / -delta`` of each part by plain Python, 1.0 where nothing shrinks, least of all."""
    return min(min([value / -delta for value, delta in zip(part, d) if delta < 0], default=1.0)
               for part, d in zip(parts, deltas))


def test_step_lengths_are_the_least_ratios_of_the_pairs():
    rng = np.random.default_rng(72)
    for trial in range(200):
        # the up part is empty every third trial
        sizes = (rng.integers(1, 7), rng.integers(0, 7), 0 if trial % 3 == 0 else rng.integers(1, 4))
        gaps = [rng.uniform(0.1, 3.0, size) for size in sizes]
        duals = [rng.uniform(0.1, 3.0, size) for size in sizes]
        d_gaps = [rng.standard_normal(size) * 10.0 ** rng.uniform(-2, 2) for size in sizes]
        d_duals = [rng.standard_normal(size) * 10.0 ** rng.uniform(-2, 2) for size in sizes]
        if trial % 4 == 0:
            d_duals = [np.abs(part) for part in d_duals]   # no dual shrinks: capped at 1.0
        fraction = (1.0, 0.995)[trial % 2]
        expected = (min(1.0, fraction * least_ratio(gaps, d_gaps)),
                    min(1.0, fraction * least_ratio(duals, d_duals)))
        assert ipm._step_lengths(gaps, duals, (d_gaps, d_duals), fraction) == expected
        if trial % 4 == 0:
            assert expected[1] == fraction


def test_mean_complementarity_is_the_three_dot_formula():
    rng = np.random.default_rng(73)
    for sizes in [(3, 4, 2), (5, 0, 0), (2, 3, 0)]:
        gaps, duals = ([rng.uniform(0.0, 2.0, size) for size in sizes] for _ in range(2))
        old = float(np.dot(gaps[0], duals[0]) + np.dot(gaps[1], duals[1])
                    + np.dot(gaps[2], duals[2])) / sum(sizes)
        assert_same_bytes(np.float64(ipm._mean_complementarity(gaps, duals)), np.float64(old))
    # an all -0.0 sum stays -0.0, which a sum() started at 0 would turn into +0.0
    negative_zero = [np.array([-0.0]), np.array([-0.0]), np.array([-0.0])]
    mu = ipm._mean_complementarity(negative_zero, [np.ones(1)] * 3)
    assert_same_bytes(np.float64(mu), np.float64(-0.0))


def test_newton_step_direction_meets_its_pairs():
    lp = demo_lp()
    prepared = ipm.PreparedLP(lp)
    it = solve(lp, SolverSettings(), prepared=prepared).restart
    up = np.flatnonzero(np.isfinite(lp.upper))
    assert up.size and it is not None
    gaps, duals = [it.x - lp.lower, it.s, lp.upper[up] - it.x[up]], [it.z, it.y, it.w]
    rp = lp.rhs() - prepared.structure.matvec(it.x) + it.s
    rd = lp.objective_vector - prepared.structure.rmatvec(it.y) - it.z
    rd[up] += it.w
    timings = dict.fromkeys(("factorization", "back_solve"), 0.0)
    step = ipm._NewtonStep(lp, prepared.structure, ipm._work_pair(prepared.structure), up, gaps,
                           duals, rp, rd, timings, None)
    rc = [-g * v for g, v in zip(gaps, duals)]
    d_gaps, d_duals = step.direction(rc)
    dx = d_gaps[0]
    assert_same_bytes(d_gaps[1], prepared.structure.matvec(dx) - rp)
    assert_same_bytes(d_gaps[2], -dx[up])
    for i in (0, 2):   # the dual deltas formed from their pair's row
        product = duals[i] * d_gaps[i]
        assert np.allclose(product + gaps[i] * d_duals[i], rc[i], rtol=0.0,
                           atol=1e-12 * (np.abs(rc[i]) + np.abs(product)).max())


def test_solve_reports_phase_timings():
    *_, lp = toy_dav_instance(num_voxels=6, volume=0.4)
    start = time.perf_counter()
    res = solve(lp, SolverSettings(dose_tolerance_gy=1e-6))
    wall = time.perf_counter() - start
    assert res.converged
    assert set(res.timings) == {"structure", "factorization", "back_solve", "step"}
    assert all(value >= 0.0 for value in res.timings.values())
    assert sum(res.timings.values()) <= wall
    assert res.factored_order == lp.n1 - lp.machine.num_bixels   # the order of S


def test_minimal_lp():
    lp = raw_lp([[1.0]], [1.0], [1.0], [0.0], [np.inf])
    res = solve(lp, SolverSettings(dose_tolerance_gy=1e-6))
    assert res.converged
    assert res.x[0] == pytest.approx(1.0, abs=1e-6)
    assert res.gap_gy <= 1e-6
    assert np.array_equal(res.dual.w, np.zeros(1))


@pytest.mark.parametrize("c, upper", [([1.0, 2.0], [1.0, np.inf]), ([-1.0, 2.0], [1.0, np.inf]),
                                      ([1.0, 2.0], [np.inf, np.inf])], ids=["c0", "c1", "no_upper"])
def test_lp_without_rows_solves_to_the_highs_objective(c, upper):
    # only the box 0 <= x0 <= upper0, x1 >= 0 constrains x; with no finite upper bound
    # y and w are empty, and no Farkas ray exists
    lp = raw_lp(np.zeros((0, 2)), [], c, [0.0, 0.0], upper)
    res = solve(lp, SolverSettings(dose_tolerance_gy=1e-6))
    assert res.converged, res.message
    assert res.primal_residual == 0.0 and res.slack.shape == (0,)
    assert res.objective == pytest.approx(linprog_reference(lp).fun, abs=1e-6)


@pytest.mark.parametrize("action", ["error", "always"])
def test_unbounded_lp_without_rows_ends_in_a_named_overflow(action):
    # HiGHS calls this LP unbounded.  The solver has no unboundedness exit, so x1 grows
    # until the Newton diagonal's z / (x - lower) overflows: that ends the solve with
    # numerical_failure naming the overflow, and no warning, under either warning filter.
    lp = raw_lp(np.zeros((0, 2)), [], [-1.0, 1.0], [0.0, 0.0], [np.inf, np.inf])
    assert linprog_reference(lp).status == 3   # unbounded
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action, RuntimeWarning)
        res = solve(lp, SolverSettings())
    assert res.status == "numerical_failure"
    assert "overflow" in res.message, res.message
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_upper_bound_dual_lands_on_its_column():
    # min x0 - x1 + x2  s.t.  x0 + x1 + x2 >= 1,  0 <= x,  x1 <= 2: only the
    # middle column is bounded above, and its bound is active with dual 1.
    lp = raw_lp([[1.0, 1.0, 1.0]], [1.0], [1.0, -1.0, 1.0], [0.0, 0.0, 0.0],
                [np.inf, 2.0, np.inf])
    res = solve(lp, SolverSettings(dose_tolerance_gy=1e-9, feasibility_tolerance=1e-10))
    assert res.converged
    assert res.dual.w.shape == (3,)
    assert res.dual.w[0] == 0.0 and res.dual.w[2] == 0.0
    assert np.allclose(res.dual.w, [0.0, 1.0, 0.0], rtol=0.0, atol=1e-6)
    ref = linprog_reference(lp)
    assert np.allclose(res.dual.w, -ref.upper.marginals, rtol=0.0, atol=1e-6)


def test_weak_and_strong_duality_values():
    lp = raw_lp([[1.0]], [1.0], [1.0], [0.0], [np.inf])
    res = solve(lp, SolverSettings(dose_tolerance_gy=1e-8))
    # optimal pair: gap vanishes
    assert duality_gap_in_dose(lp, res.x, res.dual) == pytest.approx(0.0, abs=1e-7)
    # interior nonoptimal primal with a feasible dual: strictly positive gap
    interior = DualSolution(y=np.array([1.0]), z=np.array([0.0]), w=np.array([0.0]))
    assert duality_gap_in_dose(lp, np.array([2.0]), interior) == pytest.approx(1.0)


def test_toy_instance_matches_reference_to_microgray():
    *_, lp = toy_dav_instance(num_voxels=2, volume=0.5)
    ref = linprog_reference(lp)
    res = solve(lp, SolverSettings(dose_tolerance_gy=1e-8, feasibility_tolerance=1e-10))
    assert res.converged
    assert abs(res.objective - ref.fun) <= 1e-6


def test_oracle_equivalence_random_sample():
    count = 0
    for seed in range(12):
        *_, lp = random_block_instance(seed, max_voxels=30, max_bixels=12)
        ref = linprog_reference(lp)
        if ref.status != 0:
            continue
        res = solve(lp, SolverSettings(dose_tolerance_gy=1e-4))
        assert res.converged, f"seed {seed}: {res.status} ({res.message})"
        assert abs(res.objective - ref.fun) <= max(1e-6, 1e-4), f"seed {seed}"
        count += 1
    assert count >= 8


def test_gap_decreases_monotonically_late_run():
    *_, lp = toy_dav_instance(
        num_voxels=12, volume=0.4,
        machine=make_machine(B=1, N=2, J=3, dt=0.5, rho=0.3, tau=0.02, t_max=60.0))
    res = solve(lp, SolverSettings(dose_tolerance_gy=1e-8, feasibility_tolerance=1e-10))
    assert res.converged
    gaps = [rec.gap_gy for rec in res.history][-5:]
    assert len(gaps) == 5
    assert all(gaps[i + 1] <= gaps[i] for i in range(4))
    # step-to-boundary fraction respected throughout
    assert all(0.0 <= rec.step_primal <= 1.0 and 0.0 <= rec.step_dual <= 1.0
               for rec in res.history)


def test_solve_is_deterministic():
    *_, lp = toy_dav_instance(num_voxels=5, volume=0.3)
    a = solve(lp, SolverSettings())
    b = solve(lp, SolverSettings())
    assert a.objective == b.objective
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)


def test_infeasible_problem_not_reported_converged():
    # x >= 3 conflicts with the box x <= 1
    lp = raw_lp([[1.0]], [3.0], [1.0], [0.0], [1.0])
    ref = linprog_reference(lp)
    assert ref.status == 2
    res = solve(lp, SolverSettings(max_iterations=60))
    assert res.status == "infeasible", res.message


def test_infeasible_verdicts_agree_with_highs_on_random_instances():
    infeasible = 0
    for seed in range(300):
        *_, lp = random_block_instance(seed)
        ref = linprog_reference(lp)
        res = solve(lp, SolverSettings())
        if ref.status == 2:
            infeasible += 1
            assert res.status == "infeasible", f"seed {seed}: {res.status} ({res.message})"
            assert res.iterations <= 40, f"seed {seed}: {res.iterations} iterations"
        elif ref.status == 0:
            assert res.status != "infeasible", f"seed {seed}: {res.message}"
    assert infeasible >= 5


def test_contradictory_demo_bounds_certified_infeasible_and_named():
    # ptv_dav1 caps the top 1% tail at 63 Gy; a 66 Gy floor on the lower 50%
    # tail contradicts it by 3 Gy.
    case = load_case("demo:prostate_demo")
    criteria = CriterionSet(replace(c, hard_lower=66.0) if c.name == "ptv_dav50_floor" else c
                            for c in case.criteria)
    lp = build_weighted_instance(case.phantom, case.machine, case.dose_influence(),
                                 criteria, np.full(3, 1.0 / 3.0))
    res = solve(lp, case.solver_settings())
    assert res.status == "infeasible", res.message
    assert res.iterations <= 40
    assert "ptv_dav1 <= 63 Gy (multiplier" in res.message
    assert "ptv_dav50_floor >= 66 Gy (multiplier" in res.message
    assert res.message.count("must move >= 3.0 Gy") == 2
    assert res.message.count("(multiplier") == 2   # nothing else carries the ray

    # The certificate, checked from the returned duals with the explicit A^T:
    # y, z', w >= 0 with A^T y + z' - w = 0 and b.y + lower.z' - upper.w > 0.
    y, w = res.dual.y, res.dual.w
    atyw = lp.matrix().T @ y - w
    z_ray = np.maximum(-atyw, 0.0)
    norm = y.sum() + z_ray.sum() + w.sum()
    up = np.isfinite(lp.upper)
    value = (lp.rhs() @ y + lp.lower @ z_ray - lp.upper[up] @ w[up]) / norm
    assert np.all(y > 0) and np.all(w[up] > 0) and np.all(w[~up] == 0)
    assert np.max(atyw, initial=0.0) / norm <= 1e-8 < value


@pytest.mark.parametrize("count", [2.5, 2.0, True])
def test_max_iterations_must_be_an_int(count):
    with pytest.raises(ValueError, match="max_iterations must be an int"):
        SolverSettings(max_iterations=count)


def test_iteration_limit_status():
    *_, lp = toy_dav_instance(num_voxels=4, volume=0.5)
    res = solve(lp, SolverSettings(max_iterations=2))
    assert (res.status, res.message) == ("iteration_limit",
                                         "iteration limit reached before convergence")
    # the iterate at the limit is not an iteration of the solve: it is not recorded
    assert res.iterations == len(res.history) == 2


# phase: (the _SchurFactorization method that raises, at which of the solve's calls to
# it, the exception, the iteration it fails in).  Constructions count from iteration 0's
# factorization and back-solves from the least-squares y, so construction 3 is iteration
# 2's factorization and solve calls 4 and 5 are iteration 1's predictor and corrector.
_NEWTON_FAILURES = {"factorization": ("__init__", 3, scipy.linalg.LinAlgError, 2),
                    "predictor solve": ("solve", 4, ValueError, 1),
                    "corrector solve": ("solve", 5, ValueError, 1)}


@pytest.mark.parametrize("phase", list(_NEWTON_FAILURES))
def test_a_failed_newton_step_names_its_phase(monkeypatch, phase):
    method, failing_call, error, iteration = _NEWTON_FAILURES[phase]
    lp = demo_lp()
    prepared = ipm.PreparedLP(lp)
    clean = solve(lp, SolverSettings(), prepared=prepared)
    original = getattr(_SchurFactorization, method)
    calls = []

    def failing(self, *args):
        calls.append(method)
        if len(calls) == failing_call:
            raise error("injected")
        return original(self, *args)

    monkeypatch.setattr(_SchurFactorization, method, failing)
    res = solve(lp, SolverSettings(), prepared=prepared)
    assert (res.status, res.message) == ("numerical_failure", f"{phase} failed: injected")
    assert len(calls) == failing_call
    assert clean.iterations > iteration + 1
    assert res.history == clean.history[:iteration + 1]


def test_collapsed_steps_end_the_solve_at_the_iterate_they_left(monkeypatch):
    *_, lp = random_block_instance(0)
    clean = solve(lp, SolverSettings())
    monkeypatch.setattr(ipm, "_max_step", lambda values, deltas: 0.0)
    res = solve(lp, SolverSettings())
    assert (res.status, res.message) == ("numerical_failure", "step sizes collapsed")
    assert clean.converged and clean.iterations > 1
    assert res.iterations == 1 and res.history == clean.history[:1]


def test_a_non_finite_iterate_ends_the_solve_recorded(monkeypatch):
    # Each iteration calls _stepped 6 times for the predictor's trial point, then
    # 5 times for the update (x, s, y, z, w): call 29 is iteration 2's update of x.
    *_, lp = random_block_instance(0)
    clean = solve(lp, SolverSettings())
    original, calls = ipm._stepped, []

    def poisoned(value, step, delta):
        out = original(value, step, delta)
        calls.append(step)
        if len(calls) == 29:
            out[0] = np.nan
        return out

    monkeypatch.setattr(ipm, "_stepped", poisoned)
    res = solve(lp, SolverSettings())
    assert (res.status, res.message) == ("numerical_failure", "non-finite iterate")
    assert clean.converged and clean.iterations > 4
    assert res.iterations == len(res.history) == 4
    assert res.history[:3] == clean.history[:3]
    assert res.history[3].iteration == 3 and np.isnan(res.history[3].mu)


def test_result_residuals_reported():
    *_, lp = toy_dav_instance(num_voxels=3, volume=0.5)
    res = solve(lp, SolverSettings(dose_tolerance_gy=1e-6))
    assert res.converged
    assert res.primal_residual <= 1e-8
    assert res.dual_residual <= 1e-8
    assert res.slack.min() > 0
