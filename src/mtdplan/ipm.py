"""Primal-dual interior point solver exploiting the voxelwise block structure.

The LP solved is ``min c.x  s.t.  A x >= b,  lower <= x <= upper`` with
finite lower bounds throughout.  Each Mehrotra predictor-corrector
iteration reduces the Newton equations to the symmetric augmented system

    ( -Dx  A^T ) (dx)   (r1)
    (  A   Ds  ) (dy) = (r2)

with positive diagonals Dx (variable complementarity products) and Ds
(row-slack complementarity products).  Partitioned by voxelwise
dependence and rearranged so all voxel-sized blocks sit in one quadrant,
that quadrant is

    ( -D2   A22^T )            ( -D2   0     I    )
    ( A22   D4    )     =      (  0    D41   0    ) ,   A22 = [0 I]^T,
                               (  I    0     D42  )

whose inverse has the same sparsity and is formed explicitly from the
diagonals alone; applying it is elementwise scaling and adding of
vectors.  The Newton system is then solved through the Schur complement
of that quadrant.  It is symmetric quasi-definite,

    ( -E   F^T )       E = D1 + C11,  G = D3 - C22,  F = A11 - C12^T,
    (  F   G   ) ,

with E and G positive definite (C11, -C22 are positive semidefinite
products through the quadrant inverse).  Only the rows R of A12 that are
nonzero couple y1 to the voxel quadrant: outside R, G is D3 and F is A11.
On R (the tail-aggregation rows of a weighted-sum LP; it may be empty or
every row), with xx, xr, rr, aa the entries of the quadrant inverse,

    F_R = A11_R - A12_R diag(xr) A21_eta,   G_RR = D3_R + A12_R diag(-xx) A12_R^T,

with xx < 0, so G_RR is positive definite and Cholesky-factored; G^-1 is
1/D3 off R.  Eliminating dy1 leaves the positive definite matrix of
trajectory order n1

    M = D1 + A21^T diag(aa, rr) A21 + A11_~R^T D3_~R^-1 A11_~R + F_R^T G_RR^-1 F_R.

M is factored in leaf-aperture coordinates, as M' = T^T M T with
x1 = T y: each bixel's ``r`` becomes ``s`` and its ``l`` becomes
``s + a``, the aperture, and the rest of x1 stays (see
:func:`_aperture_transform`).  T holds only 0 and 1, so every block of
A T is exact, and since dose is ``P(l - r)`` each ``s`` drops out of
every dose-carrying row.  On the demo and the 8x-refined case, 3 beams
x 6 leaf pairs x 8 bixels, ``y = [s 144 | a 144, T 3, xi 6, alpha 4]``.
The s-block comes from D1 and the deliverability rows alone: tridiagonal
within each leaf pair and zero across them, factored by one banded
Cholesky (``pbtrf``).  Each ``s`` couples only to its own leaf pair's
apertures and its beam's T, so ``W = U^-T M_sK`` keeps that compact
layout, each leaf pair's ``W^T W`` is a small block, and the Schur
complement S = M_KK - W^T W of order 157 (n1 - 144) is factored by dense
Cholesky.  An LP without a machine, or a system given a plain A21, has
no leaf pairs, and then S is M.  Should a factorization fail, M + eps I
is factored instead, once, and flagged as ``regularized``; in y it is
M' + eps T^T T, which keeps the blocks.  A21 enters folded on both sides, in
the factors the LP build supplies (``formulation.A21Factors``):
A21 = A21c E, where A21c keeps one column per column group and E maps
each group back to its columns with their signs (d = P(l - r) pairs every
nonzero ``l`` column with its opposite ``r`` column; the demo's 301
columns fold to 98).  Each criterion on an ROI repeats that ROI's dose
rows, so A21c = [S b | C]: b holds the distinct dose rows, one per voxel
(the demo's 600 rows fold to 192, the 8x-refined case's 4116 to 1380),
S maps rows onto them with signs, and C, the K criterion (xi/alpha)
columns, has one entry per row; the factors also give [S | C] as CSR
(``A21Factors.expand``).  A system given a plain A21 takes its
identity factors: b is A21, S the identity and C empty.  With
D = diag(aa, rr) the voxel term is E^T (A21c^T D A21c) E,

    A21c^T D A21c = ( b^T diag(S^T D S) b   b^T S^T D C )
                    (      C^T D S b           C^T D C  ) ,

one dense ``syrk`` over the distinct rows, a rank-K product and a
diagonal.  Each column group is one column of A21 T, so each cell of
this Gram matrix lands on one cell of M_KK, with the product of its
groups' signs.  The criterion columns go by an
index plan built once per LP: ``S^T D C`` and ``C^T D C`` are one
``np.bincount`` each, every bin summed in ascending row order as the
sparse product ``[S | C]^T (D C)`` sums it, and ``b^T`` takes the first
to the trajectory groups.  The A11 term goes by an index
plan built once per LP: each pair of stored entries of a row of A11_~R
before the first dense row (more than ``_SPARSE_ROW_ENTRIES`` entries;
on the demo, the ``avg-cap`` row, which is last) is one term, summed
onto its cell by ``np.bincount``, and every row from the first dense one
on adds its rank-1 term over M_KK, the first by ``dger``; those rows,
like F_R, have no ``s``.
F_R and G_RR are CSR times a dense block of |R| columns.  Every cell of
M' is so the same sum of the same products, in ascending row order, as
the sparse products (A11_~R T)^T D3^-1 (A11_~R T), A12_R diag(xr) A21_eta
and A12_R diag(-xx) A12_R^T give, and an iteration builds no sparse
matrix.  Each solve allocates one flat work buffer, ``[M_KK | band |
coupling | Gram of A21c]``, each part a Fortran-ordered view of it, and
the A11 plan's keys are offsets into it.  M' is built there and
factored in place, by ``pbtrf``, ``tbtrs`` and ``potrf``, with no copy
and no fresh array; back-solves call ``potrs`` and the banded ``tbtrs``.
Each factor is checked for finiteness once, when it is made, and a
back-solve checks only its right-hand side.  A back-solve keeps the
``A21 dx1`` its bottom solve forms, and the step's ``ds = A dx - rp``
takes it from there rather than making another pass over ``b``.
``_NewtonStructure`` holds each block of A once per LP in the forms its
products need, and every product with A or A^T (start point, residuals,
back-solves) goes through those blocks; A itself is never formed.  Each
product with a CSR block calls scipy's ``csr_matvec``/``csr_matvecs``
kernel directly, the one its ``@`` ends in, without the dispatch.  Each
iteration costs O(voxels) in one BLAS call and scaling, plus one small
factorization.

Upper-bound duals ``w`` and gaps ``upper - x`` exist only on the columns
``up`` with a finite upper bound (the xi caps of a weighted-sum LP);
they enter Dx, the dual residual and the Newton rhs by scatter-adding at
``up``.  ``DualSolution.w`` is expanded to full length, zero off ``up``.

An iterate is a :class:`Restart`: ``x``, the row slacks ``s`` and the
duals ``y``, ``z`` and ``w``.  Each iteration measures its iterate once
(the residuals, their scaled norms, ``mu`` and the gap), decides from
those whether to stop, and otherwise steps to a new iterate; no array of
an iterate is ever written into.  A solve starts at a least-squares
point: ``x_ls`` and ``y_ls`` are damped minimum-norm solves of
``A x ~ b`` and ``A^T y ~ c`` through the factorization of the
unit-diagonal system, then shifted strictly inside the box and the
positive orthant.  Everything there but ``y_ls`` leaves ``c`` alone, so a
:class:`PreparedLP` holds the structure, that factorization and ``x_ls``
for every LP that differs only in ``c`` (the plans of one weight sweep);
each solve then does one back-solve for ``y_ls``.  A solve may instead
start at an iterate of an earlier solve of the same constraints.  Every
solve records one, with its ``iteration`` and ``mu``: its first iterate
with ``mu`` at most ``_RESTART_MU_FRACTION`` (0.1) of its starting
``mu``, past the short steps that leave the least-squares point, and the
``c`` it was measured under.  With only ``c`` changed, that iterate's
primal part is exactly as feasible as it was.  A start from another
objective is shifted first (:meth:`Restart.shifted`): the change of
``c`` goes into ``z`` where it is positive and into ``w`` where it is
negative, so the dual residual is also as it was, and ``z`` and ``w``
stay strictly positive.

Each measured iterate, as its complementary pairs ``gaps`` = [x - lower,
s, upper - x on ``up``] and ``duals`` = [z, y, w], goes to one routine,
``verdict`` in :func:`solve`, which checks in order: lost strict
positivity past the first iterate and the iteration limit, both of which
end the solve before the iterate is recorded, then ``converged``, a
non-finite ``mu`` or gap, and ``infeasible``.  Otherwise a ``_NewtonStep``
factors its system and gives directions ``(d_gaps, d_duals)``, along which
``_step_lengths`` steps.  Only the step's own failures end a solve
elsewhere: a factorization or back-solve that raises, and collapsed steps.

It stops with ``converged`` once primal and dual residuals are below the
feasibility tolerance and the duality gap - which is expressed in the
same Gy-weighted scale as the objective - certifies the objective value
to within the dose tolerance (default 1 cGy).

It stops with ``infeasible`` only on a checked Farkas certificate: row
multipliers y >= 0, lower-bound multipliers z' >= 0 and upper-bound
multipliers w >= 0 with A^T y + z' - w = 0 and b.y + lower.z' - upper.w > 0,
which no x can satisfy.  Every iteration forms one from the dual
iterate at no extra mat-vec cost: A^T y - w is c - rd - z, z' is its
negative part; a ray with positive 1-norm is scaled to 1.  The solve stops
when the ray's remaining violation max(A^T y - w, 0) is at most the
feasibility tolerance and its value exceeds it; both numbers go into the
message.  The message then names the hard bounds, and the deliverability
rows of A11, whose multipliers are at least 1e-3 of the largest.  For
each bound it gives value / multiplier: the bound must move at least
that many Gy before this ray stops certifying infeasibility.  The check
only reads the iterate, so solves it does not stop are unchanged.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .fileio import write_csv
from .formulation import A21Factors, BlockLP
from .phantom import MachineModel

_STEP_FLOOR = 1e-13
_REGULARIZATION = 1e-10   # added to every complementarity diagonal
_CENTERING_POWER = 3.0    # Mehrotra sigma = (mu_aff/mu)**power
_RESTART_MU_FRACTION = 0.1   # the restart iterate is the first with mu <= this * mu0
_SPARSE_ROW_ENTRIES = 16  # a row of A11 with more stored entries enters M as a rank-1 term


@dataclass
class SolverSettings:
    dose_tolerance_gy: float = 0.01
    max_iterations: int = 200
    step_fraction: float = 0.995
    feasibility_tolerance: float = 1e-8
    log_kkt: bool = False              # retain per-iteration systems (tests)

    def __post_init__(self):
        # Written so that NaN fails.
        if not 0.0 < self.dose_tolerance_gy < np.inf:
            raise ValueError("dose_tolerance_gy must be finite and > 0")
        count = self.max_iterations
        if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
            raise ValueError("max_iterations must be an int")
        if not count >= 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")
        if not 0.0 < self.feasibility_tolerance < np.inf:
            raise ValueError("feasibility_tolerance must be finite and > 0")


@dataclass(frozen=True)
class KKTSystem:
    """One augmented Newton system in the four-block partition.

    ``d1``/``d2`` hold the variable complementarity diagonals for the
    trajectory-sized and voxelwise columns, ``d3``/``d4`` the slack
    diagonals for the corresponding row groups; ``num_zero_rows`` splits
    ``d4`` conformally with A22 = [0 I]^T.  ``a21`` is A21 as the LP build
    emits it, in its factors, or a plain matrix.  ``machine``, the LP's,
    gives M the leaf-aperture coordinates where they are exact
    (:func:`_aperture_bixels`); without one M is factored as it is.
    """

    a11: sp.csr_matrix
    a12: sp.csr_matrix
    a21: A21Factors | sp.csr_matrix
    a22: sp.csr_matrix
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    d4: np.ndarray
    num_zero_rows: int
    machine: MachineModel | None = None

    @property
    def n1(self) -> int:
        return self.a11.shape[1]

    @property
    def n2(self) -> int:
        return self.a22.shape[1]

    @property
    def m1(self) -> int:
        return self.a11.shape[0]

    @property
    def m2(self) -> int:
        return self.a21.shape[0]

    @property
    def order(self) -> int:
        return self.n1 + self.n2 + self.m1 + self.m2

    @property
    def a21_factors(self) -> A21Factors:
        """The factors of A21: as given, or the identity factors of a plain matrix."""
        return self.a21 if isinstance(self.a21, A21Factors) else A21Factors.from_matrix(self.a21)

    def assemble(self) -> sp.csr_matrix:
        """Full augmented matrix in the original (x1, x2, y1, y2) ordering."""
        n1, n2, m1, m2 = self.n1, self.n2, self.m1, self.m2
        a21 = self.a21_factors.matrix
        blocks = [
            [-sp.diags(self.d1) if n1 else None, None, self.a11.T, a21.T],
            [None, -sp.diags(self.d2) if n2 else None, self.a12.T, self.a22.T],
            [self.a11, self.a12, sp.diags(self.d3) if m1 else None, None],
            [a21, self.a22, None, sp.diags(self.d4) if m2 else None],
        ]
        return sp.bmat(blocks, format="csr")


@dataclass(frozen=True)
class QuadrantInverse:
    """Explicit inverse of the voxelwise quadrant [[-D2, A22^T], [A22, D4]].

    With A22 = [0 I]^T the quadrant splits into the decoupled max/min-dose
    diagonal D41 and independent 2x2 pairs [[-d2_i, 1], [1, d42_i]] whose
    determinant -(1 + d2_i*d42_i) never vanishes for positive diagonals.
    Application costs one multiply-add per component.
    """

    xx: np.ndarray   # x2 <- x2 rhs   ( -d42/e )
    xr: np.ndarray   # x2 <- eta-row rhs, also eta-row <- x2 ( 1/e )
    rr: np.ndarray   # eta-row <- eta-row rhs ( d2/e )
    aa: np.ndarray   # max/min rows ( 1/d41 )

    def apply(self, rx2: np.ndarray, ry_zero: np.ndarray, ry_eta: np.ndarray):
        dx2 = self.xx * rx2 + self.xr * ry_eta
        dy_zero = self.aa * ry_zero
        dy_eta = self.xr * rx2 + self.rr * ry_eta
        return dx2, dy_zero, dy_eta

    def to_matrix(self) -> sp.csr_matrix:
        """Dense-structure sparse form, ordered (x2, zero rows, eta rows)."""
        n2 = self.xx.size
        mz = self.aa.size
        size = 2 * n2 + mz
        x2 = np.arange(n2)
        eta = n2 + mz + x2
        zero = n2 + np.arange(mz)
        rows = np.concatenate([x2, x2, eta, eta, zero])
        cols = np.concatenate([x2, eta, x2, eta, zero])
        vals = np.concatenate([self.xx, self.xr, self.xr, self.rr, self.aa])
        return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def invert_voxelwise_quadrant(d2: np.ndarray, d4: np.ndarray, num_zero_rows: int) -> QuadrantInverse:
    """Closed-form inverse of the voxelwise quadrant from its diagonals."""
    d2 = np.asarray(d2, dtype=float)
    d4 = np.asarray(d4, dtype=float)
    d41 = d4[:num_zero_rows]
    d42 = d4[num_zero_rows:]
    if d42.shape != d2.shape:
        raise ValueError("eta-row diagonal must be conformal with D2")
    assert np.all(d2 > 0) and np.all(d4 > 0), "complementarity diagonals must be positive"
    e = 1.0 + d2 * d42
    return QuadrantInverse(xx=-d42 / e, xr=1.0 / e, rr=d2 / e, aa=1.0 / d41)


def _cho_factor(matrix: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of ``matrix`` by LAPACK ``potrf``, as ``cho_factor`` makes it.

    A Fortran-ordered ``matrix`` is factored in place and returned, also
    when ``potrf`` fails, which leaves a partial factor behind; any other
    is copied first.  ``matrix`` is checked for finiteness, and so is the
    factor, once, here: every entry of the upper factor enters a later
    pivot, so a non-finite entry shows on the diagonal.  :func:`_cho_solve`
    then checks only its right-hand side.
    """
    factor, info = scipy.linalg.lapack.dpotrf(np.asarray_chkfinite(matrix), lower=False,
                                              clean=False, overwrite_a=True)
    if info > 0:
        raise scipy.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if not np.isfinite(np.diagonal(factor)).all():
        raise ValueError("array must not contain infs or NaNs")
    return factor


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LAPACK ``potrs`` against a factor from :func:`_cho_factor`, as ``cho_solve`` does it."""
    if not rhs.shape[0]:   # R empty: the potrs wrapper rejects an empty system
        return np.zeros(rhs.shape)
    return scipy.linalg.lapack.dpotrs(factor, np.asarray_chkfinite(rhs), lower=False)[0]


def _csr_dot(matrix: sp.csr_matrix, dense: np.ndarray) -> np.ndarray:
    """``matrix @ dense`` for a dense vector or C-ordered matrix of the right shape.

    Calls scipy's own kernel, ``csr_matvec`` or ``csr_matvecs``, the one
    ``@`` ends in, without its dispatch: each entry is the same sum, in the
    same order.  The kernels trust the shapes, so callers pass operands
    built to fit.
    """
    rows, cols = matrix.shape
    if dense.ndim == 1:
        out = np.zeros(rows)
        _sparsetools.csr_matvec(rows, cols, matrix.indptr, matrix.indices, matrix.data, dense, out)
    else:
        out = np.zeros((rows, dense.shape[1]))
        _sparsetools.csr_matvecs(rows, cols, dense.shape[1], matrix.indptr, matrix.indices,
                                 matrix.data, dense, out)
    return out


def _row_pairs(indptr: np.ndarray, rows: np.ndarray):
    """Entry pairs ``(e, f)`` of every two stored entries of one row of a CSR matrix.

    Only the rows ``rows`` (a mask) are paired.  The pairs are ordered by
    row, then ``e``, then ``f``.
    """
    counts = np.diff(indptr)
    entry_row = np.repeat(np.arange(counts.size), counts)
    reps = np.where(rows, counts, 0)[entry_row]
    left = np.repeat(np.arange(entry_row.size), reps)
    first = np.cumsum(reps) - reps   # the first pair of each entry
    right = indptr[entry_row[left]] + np.arange(left.size) - first[left]
    return left, right


def _aperture_bixels(machine: MachineModel | None, factors: A21Factors) -> int:
    """The bixel count ``nb`` of M's leaf-aperture coordinates, or 0 where they are not exact.

    The coordinates are ``r = s``, ``l = s + a``.  They are exact where
    A21's factors fold every live ``l`` column alone with its ``r`` column
    at the opposite sign, as the LP build's factors do: then each ``s``
    column of A21 is a sum of exact negatives and drops out.  A system
    without a machine, or with a plain A21 (whose identity factors fold
    no column), has none.
    """
    n1 = factors.shape[1]
    if machine is None or 2 * machine.num_bixels > n1:
        return 0
    nb = machine.num_bixels
    group, sign = np.full(n1, -1), np.zeros(n1)
    group[factors.nz], sign[factors.nz] = factors.group, factors.sign
    sizes = np.bincount(factors.group, minlength=1)
    l_group, r_group = group[:nb], group[nb:2 * nb]
    alone = (sign[:nb] == -sign[nb:2 * nb]) & (sizes[np.maximum(l_group, 0)] == 2)
    return nb if np.all((l_group == r_group) & ((l_group < 0) | alone)) else 0


def _aperture_transform(n1: int, nb: int) -> sp.csr_matrix:
    """T with ``x1 = T y`` for ``y = [s | a | the rest]``: ``r = s``, ``l = s + a``, the rest as is.

    T holds only 0 and 1, so ``A T`` is exact: each ``s`` entry is the sum
    of an ``l`` entry and an ``r`` entry, each ``a`` entry an ``l`` entry.
    ``s`` is ``r`` and not ``l`` because ``l >= r``: a closed bixel has
    ``r`` at its bound, so ``d_r`` is the larger diagonal of D1, often by
    orders of magnitude late in a solve.  With ``r = s`` it stays on the
    s diagonal, and the coupling and a's diagonal take the small ``d_l``;
    with ``l = s`` they would take ``d_r``, and eliminating ``s`` would
    subtract ``d_r^2 / (d_l + d_r)`` from ``d_r``, cancelling away the rest
    of a's diagonal.
    """
    bixel, rest = np.arange(nb), np.arange(2 * nb, n1)
    rows = np.concatenate([bixel, bixel, nb + bixel, rest])
    cols = np.concatenate([bixel, nb + bixel, bixel, rest])
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n1, n1))


class _NewtonStructure:
    """The part of every Newton system of one LP that the diagonals leave alone.

    Holds A21 once, folded on both sides, as the system's A21 factors give
    it (see the module docstring); nothing here searches for the fold.
    Columns: the nonzero columns ``nz`` fall into groups,
    ``A21[:, nz] = A21c[:, group] * sign``; the demo's 301 columns fold to
    98 (188 nonzero: 90 opposite pairs and 8 singles), the 8x-refined
    case's to 144 (280: 136 pairs and 8 singles).  Rows: the ``split``
    trajectory groups come before the criterion columns C (the 5 xi/alpha
    columns on both cases).  The rows ``row_nz`` with a nonzero trajectory
    part map onto the rows of ``b`` with signs, so A21c = [S b | C] with S
    the signed membership; ``expand`` is [S | C], the factors' own.
    The demo's 600 rows fold to 192, the refined case's 4116 to 1380.
    ``b`` and C are dense: ``b`` is the ``syrk`` operand, and at its 28 %
    fill on the refined case dense products measure faster than CSR ones.
    ``expand`` is CSR with its transpose.

    M is factored in the leaf-aperture coordinates ``y = [s | K]``, ``K =
    [a, T, xi, alpha]``, of order ``nb`` and ``nk`` (144 and 157 on the
    demo and the refined case; ``nb`` is 0 where they are not exact, see
    :func:`_aperture_bixels`, and then K is all of x1).  M' = T^T M T has
    three parts: the s-block, tridiagonal and block-diagonal over the leaf
    pairs, kept in LAPACK's upper band storage; the s-K coupling, where
    each ``s`` reaches only its own leaf pair's ``a`` and its beam's T,
    kept compact as ``nb x (J + 1)`` with the K index of each entry in
    ``coupling_cols``; and M_KK, dense.  ``gram_cells``, ``gram_index``
    and ``gram_sign`` scatter the Gram matrix of A21c into M_KK's upper
    triangle in its memory order: with leaf pairs, one cell per pair of
    groups, since each group is one column of ``A21 T``.  The ``c_*`` and
    ``sc_*`` arrays give its criterion columns (:meth:`criterion_columns`).
    ``w_cells`` and ``w_cell_of`` take each leaf pair's ``W^T W`` to M_KK.
    Also held:
    A12 as CSR with its transpose, and A11 split on the rows ``R`` that A12
    touches.  The rows ``R`` are dense; the back-solves swap in ``F``'s.
    A12's rows ``R`` are kept on the columns ``a12_cols`` they touch, as
    CSR and dense, with ``expand``'s eta rows there, transposed: the
    operands of F_R and G_RR.  The rest of A11, where ``G`` is D3 and ``F``
    is A11, is CSR with its transpose, and ``a11_rest_ap`` is it times T;
    its term of M' has an index plan (:meth:`a11_gram`): the entry pairs of
    the rows before the first dense row, and the rows from it on as dense
    vectors on K.  A22 = [0 I]^T is a shift onto the eta rows.  ``matvec``
    and ``rmatvec`` apply A and A^T from these blocks, in x.  Built once
    per LP and only read after; memory linear in the voxel count.
    """

    def __init__(self, system: KKTSystem):
        factors = system.a21_factors
        self.n1 = n1 = factors.shape[1]
        self.nz, self.group, self.sign = factors.nz, factors.group, factors.sign
        self.row_nz, self.row_group = factors.row_nz, factors.row_group
        self.b, self.criterion = factors.b, factors.criterion
        self.split = self.b.shape[1]
        self.k = self.split + self.criterion.shape[1]
        self.expand = factors.expand
        self.expand_t = self.expand.T.tocsr()
        self.nb = nb = _aperture_bixels(system.machine, factors)
        self.nk = nk = n1 - nb
        self.k_columns = np.concatenate([np.arange(nb), np.arange(2 * nb, n1)])   # x1 less r: l for a
        machine = system.machine
        self.pair_width = J = machine.bixels_per_row if nb else 1
        per_beam = machine.leaf_pairs * J if nb else 1
        # Each s row's coupling columns: its leaf pair's a, then its beam's T.
        bixel = np.arange(nb)
        self.coupling_cols = np.column_stack([(bixel // J * J)[:, None] + np.arange(J),
                                              nb + bixel // per_beam])
        self.own_aperture = (bixel, bixel % J)   # (s_i, a_i) in the compact coupling
        self.work_shapes = ((nk, nk), (2, nb), self.coupling_cols.shape, (self.k, self.k))
        c1, c2 = np.triu_indices(J + 1)
        pair_cols = self.coupling_cols[::J]
        self.w_upper = (c1, c2)
        self.w_cells, self.w_cell_of = np.unique((pair_cols[:, c1] + pair_cols[:, c2] * nk).ravel(),
                                                 return_inverse=True)
        # A21's columns in y: s drops out, and a's column is l's.
        kept = (self.nz < nb) | (self.nz >= 2 * nb)
        k_col = np.where(self.nz < nb, self.nz, self.nz - nb)[kept]
        k_group, k_sign = self.group[kept], self.sign[kept]
        # the pairs a <= b by b, then a: M_KK's upper cells in its Fortran order
        upper_b, upper_a = np.tril_indices(k_col.size)
        low = np.minimum(k_group[upper_a], k_group[upper_b])
        high = np.maximum(k_group[upper_a], k_group[upper_b])
        self.gram_cells = k_col[upper_b] * nk + k_col[upper_a]   # in m.T, M_KK's memory order
        self.gram_index = low + high * self.k   # (low, high) in Fortran order
        self.gram_sign = k_sign[upper_a] * k_sign[upper_b]
        # criterion_columns' index plan: C's entries (one per row) in row order, and on the
        # rows S maps, those entries times the row's sign, binned by (row group, C column)
        self.c_row, self.c_col = np.nonzero(self.criterion)
        assert np.all(np.diff(self.c_row) > 0), "C has one entry per row"
        self.c_value = self.criterion[self.c_row, self.c_col]
        column_of = np.full(self.criterion.shape[0], -1)
        column_of[self.c_row] = self.c_col
        sc_col = column_of[self.row_nz]
        mapped = sc_col >= 0
        self.sc_row, sc_col = self.row_nz[mapped], sc_col[mapped]
        # exact: a sign of +-1 commutes with the rounding of C d
        self.sc_value = factors.row_sign[mapped] * self.criterion[self.sc_row, sc_col]
        self.sc_bin = self.row_group[mapped] * self.criterion.shape[1] + sc_col

        self.a12 = sp.csr_matrix(system.a12)
        self.a12_t = self.a12.T.tocsr()
        touched = np.diff(self.a12.indptr) > 0
        self.rows = np.flatnonzero(touched)
        self.rest = np.flatnonzero(~touched)
        a12_rows = self.a12[self.rows]
        self.a12_cols = np.unique(a12_rows.indices)
        self.a12_rows = a12_rows[:, self.a12_cols]
        self.a12_rows_dense_t = self.a12_rows.T.toarray()
        self.expand_eta_t = self.expand[system.num_zero_rows + self.a12_cols].T.tocsr()
        a11 = sp.csr_matrix(system.a11)
        self.m1, self.num_zero_rows = a11.shape[0], system.num_zero_rows
        self.a11_rows = a11[self.rows].toarray()
        self.a11_rest = a11[self.rest]
        self.a11_rest_t = self.a11_rest.T.tocsr()
        a11_ap = a11 @ _aperture_transform(n1, nb)
        a11_ap.sort_indices()
        assert not a11_ap[self.rows][:, :nb].nnz, "s drops out of the rows R"
        self.a11_rest_ap = a11_ap[self.rest]
        self._plan_a11_gram()

    def _plan_a11_gram(self) -> None:
        """Index plan of :meth:`a11_gram`, vectorized over the rows of ``a11_rest_ap``.

        Every pair of stored entries of a row before the first dense row is
        one term, in row order, and the terms are summed onto their cells
        by ``np.bincount``.  A cell's key is its offset in the work buffer
        (:func:`_work_pair`), whose M_KK, band and coupling come first in
        that order, each in its memory order.  Every row from the first
        dense one on is kept dense on K, for its rank-1 term: it has no ``s``.
        """
        rest, nb, nk, J = self.a11_rest_ap, self.nb, self.nk, self.pair_width
        counts = np.diff(rest.indptr)
        dense = np.flatnonzero(counts > _SPARSE_ROW_ENTRIES)
        self.rank1_from = int(dense[0]) if dense.size else counts.size
        self.entry_row = np.repeat(np.arange(counts.size), counts)
        left, right = _row_pairs(rest.indptr, np.arange(counts.size) < self.rank1_from)
        upper = rest.indices[left] <= rest.indices[right]   # all that the factorization reads
        left, right = left[upper], right[upper]
        self.term_left, self.term_right = left, rest.data[right]
        i, j = rest.indices[left], rest.indices[right]
        keys = (i - nb) + (j - nb) * nk
        band = j < nb
        assert np.all((j[band] - i[band] <= 1) & (j[band] // J == i[band] // J)), \
            "the s-block is tridiagonal in each leaf pair"
        keys[band] = nk * nk + 1 + i[band] + j[band]   # (1 + i - j, j) of the (2, nb) band
        cross = (i < nb) & ~band
        ci, cj = i[cross], j[cross] - nb
        column = np.where(cj < nb, cj - ci // J * J, J)
        assert np.all((column >= 0) & (self.coupling_cols[ci, np.minimum(column, J)] == cj)), \
            "each s reaches only its leaf pair's a and its beam's T"
        keys[cross] = nk * nk + 2 * nb + ci + column * nb
        self.head_cells, self.head_cell_of = np.unique(keys, return_inverse=True)
        rank1 = rest[self.rank1_from:]
        assert not rank1[:, :nb].nnz, "the dense rows have no s"
        self.a11_rank1_rows = np.ascontiguousarray(rank1.toarray()[:, nb:])

    def a11_gram(self, w: np.ndarray, buffer: np.ndarray, out: np.ndarray, scratch: np.ndarray):
        """``A11_rest'^T diag(w) A11_rest'`` into the work buffer ``buffer``, zeroed first.

        Each cell is summed over the rows in order.  ``out``, M_KK's view
        of ``buffer``, and ``scratch`` are Fortran-ordered.  The bincount
        sums go to their cells' offsets in ``buffer``; the band and the
        coupling take only those.  The first row from the first dense one
        on goes first, by ``dger`` into ``out``: one product per cell, so
        each cell is ``0.0 + p`` with ``p = (a_ri w_r) a_rk``, fused or not,
        and never ``-0.0``.  The bincount sums ``h`` of the rows before it go
        on top, which gives ``h + p`` exactly, as in row order.  Each later
        row adds its rank-1 term, formed in ``scratch``.  Off a sparse row's
        cells that term is ``+-0.0``, which leaves a cell unchanged:
        ``-0.0`` never appears.
        """
        scaled = self.a11_rest_ap.data * w[self.entry_row]   # a_ri w_r
        terms = scaled[self.term_left] * self.term_right   # (a_ri w_r) a_rk
        weighted = self.a11_rank1_rows * w[self.rank1_from:, None]   # a_ri w_r
        buffer.fill(0.0)
        if weighted.shape[0]:
            scipy.linalg.blas.dger(1.0, weighted[0], self.a11_rank1_rows[0], a=out, overwrite_a=True)
        buffer[self.head_cells] += np.bincount(self.head_cell_of, weights=terms,
                                               minlength=self.head_cells.size)
        for scaled_row, dense in zip(weighted[1:], self.a11_rank1_rows[1:]):
            out += np.multiply(scaled_row[:, None], dense, out=scratch)

    def work_parts(self, buffer: np.ndarray) -> list[np.ndarray]:
        """M_KK, band, coupling and Gram of A21c: Fortran-ordered views of ``buffer``, in that order."""
        starts = itertools.accumulate((rows * cols for rows, cols in self.work_shapes), initial=0)
        return [buffer[start:start + rows * cols].reshape((rows, cols), order="F")
                for start, (rows, cols) in zip(starts, self.work_shapes)]

    def criterion_columns(self, d: np.ndarray) -> np.ndarray:
        """``A21c^T diag(d) C``, the criterion columns of the Gram matrix of A21c.

        ``S^T D C``, which ``b^T`` takes to the trajectory groups, and the
        diagonal ``C^T D C`` are one ``np.bincount`` each.  Each bin sums its
        rows in ascending order, as ``to_columns(expand_t @ (C * d))`` does;
        C has one entry per row, so that product's other terms are zeros.
        """
        groups, width = self.b.shape[0], self.criterion.shape[1]
        s_dc = np.bincount(self.sc_bin, weights=self.sc_value * d[self.sc_row],
                           minlength=groups * width).reshape(groups, width)
        out = np.zeros((self.k, width))
        out[:self.split] = self.b.T @ s_dc
        out[self.split + np.arange(width), np.arange(width)] = np.bincount(
            self.c_col, weights=self.c_value * (self.c_value * d[self.c_row]), minlength=width)
        return out

    def to_columns(self, folded: np.ndarray) -> np.ndarray:
        """``[b^T f_S; f_C]``: takes ``[S | C]^T X`` to ``A21c^T X`` for a vector or matrix X."""
        groups = self.b.shape[0]
        return np.concatenate([self.b.T @ folded[:groups], folded[groups:]])

    def a21_matvec(self, v: np.ndarray) -> np.ndarray:
        """``A21 @ v``: gather ``v`` onto the column groups, apply ``b``, expand the rows."""
        grouped = np.bincount(self.group, weights=self.sign * v[self.nz], minlength=self.k)
        return _csr_dot(self.expand, np.concatenate([self.b @ grouped[:self.split],
                                                     grouped[self.split:]]))

    def a21_rmatvec(self, u: np.ndarray) -> np.ndarray:
        """``A21^T @ u``: fold the rows, apply ``b^T``, then a signed scatter to ``nz``."""
        out = np.zeros(self.n1)
        out[self.nz] = self.sign * self.to_columns(_csr_dot(self.expand_t, u))[self.group]
        return out

    def a11_matvec(self, v: np.ndarray, rows_r: np.ndarray) -> np.ndarray:
        """``A11 @ v`` with the rows ``R`` replaced by ``rows_r`` (A11's own or F's)."""
        out = np.empty(self.m1)
        out[self.rest] = _csr_dot(self.a11_rest, v)
        out[self.rows] = rows_r @ v
        return out

    def a11_rmatvec(self, u: np.ndarray, rows_r: np.ndarray) -> np.ndarray:
        """``A11^T @ u`` with the rows ``R`` replaced by ``rows_r`` (A11's own or F's)."""
        return _csr_dot(self.a11_rest_t, u[self.rest]) + rows_r.T @ u[self.rows]

    def matvec(self, x: np.ndarray, a21_x1: np.ndarray | None = None) -> np.ndarray:
        """``A @ x``; A22 = [0 I]^T adds ``x2`` to the eta rows.

        ``a21_x1``, if given, is ``A21 @ x1``, and no pass over ``b`` forms it again.
        """
        x1, x2 = x[:self.n1], x[self.n1:]
        out = np.concatenate([self.a11_matvec(x1, self.a11_rows) + _csr_dot(self.a12, x2),
                              self.a21_matvec(x1) if a21_x1 is None else a21_x1])
        out[self.m1 + self.num_zero_rows:] += x2
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``A^T @ y``; A22^T takes the eta rows of ``y2`` onto ``x2``."""
        y1, y2 = y[:self.m1], y[self.m1:]
        return np.concatenate([self.a11_rmatvec(y1, self.a11_rows) + self.a21_rmatvec(y2),
                               _csr_dot(self.a12_t, y1) + y2[self.num_zero_rows:]])


def _work_pair(structure: _NewtonStructure) -> tuple[np.ndarray, np.ndarray]:
    """The flat work buffer of M' (:meth:`_NewtonStructure.work_parts`) and one ``nk x nk`` product."""
    size = sum(rows * cols for rows, cols in structure.work_shapes)
    return np.empty(size), np.empty((structure.nk, structure.nk), order="F")


class _SchurFactorization:
    """Factorization of one augmented system, reusable across right-hand sides.

    Holds the closed-form quadrant inverse, the Cholesky factor of ``G`` on
    the rows ``R`` and the factorization of ``M = E + F^T G^-1 F`` (see the
    module docstring) in the leaf-aperture coordinates, as M' = T^T M T:
    ``s_band``, the banded factor U of the s-block, ``w`` = U^-T M_sK in the
    compact coupling layout, and ``m_chol``, the factor of
    S = M_KK - W^T W.  Without leaf pairs S is M.  ``structure`` is the
    LP's :class:`_NewtonStructure`; a standalone factorization builds its
    own.  M' is built in the buffer of ``work``, a pair from
    :func:`_work_pair`, and factored there in place: ``m_chol``,
    ``s_band`` and ``w`` are views of it.  Without one, the factorization
    allocates its own.  :func:`solve` passes every factorization the same
    pair, so each overwrites ``m_chol``, ``s_band`` and ``w`` of the one
    before.
    """

    def __init__(self, system: KKTSystem, structure: _NewtonStructure | None = None,
                 work: tuple[np.ndarray, np.ndarray] | None = None):
        self.system = system
        self.structure = st = structure if structure is not None else _NewtonStructure(system)
        mz = system.num_zero_rows
        self.quadrant = q = invert_voxelwise_quadrant(system.d2, system.d4, mz)
        d3 = system.d3
        self.inv_d3 = 1.0 / d3

        # Outside R:  G = D3 and F = A11.  On R:
        #   F_R = A11_R - A12_R diag(xr) A21_eta,  G_RR = D3_R + A12_R diag(-xx) A12_R^T
        # Both products are CSR times a dense block of |R| columns, summing
        # over the eta rows in ascending order.
        self.f_rows = st.a11_rows.copy()
        xr, xx = q.xr[st.a12_cols, None], q.xx[st.a12_cols, None]
        # F order, as a transposed sparse product's dense result: BLAS may
        # round differently by operand layout.
        folded_t = np.asfortranarray(_csr_dot(st.expand_eta_t, st.a12_rows_dense_t * xr))
        self.f_rows[:, st.nz] -= st.to_columns(folded_t).T[:, st.group] * st.sign
        g_rows = _csr_dot(st.a12_rows, st.a12_rows_dense_t * -xx).T
        g_rows[np.diag_indices_from(g_rows)] += d3[st.rows]
        self.g_chol = _cho_factor(g_rows)
        self._factor_m(work if work is not None else _work_pair(st))

    def _factor_m(self, work: tuple[np.ndarray, np.ndarray]) -> None:
        """Factor M' from :meth:`_fill_m`, once more regularized should that fail.

        The regularized M is M + eps I in x1, which is M' + eps T^T T in y:
        ``2 eps`` on the s diagonal, ``eps`` at each (s_i, a_i) and ``eps``
        on M_KK's diagonal, so the blocks keep their shape.  ``eps`` is
        1e-8 (1 + the largest magnitude the factorization reads in M': the
        band, the coupling and M_KK's upper triangle).  The failed attempt
        left partial factors in place, so M' is filled again first.
        """
        self.regularized = False
        try:
            self.m_chol = self._factor(*self._fill_m(*work))
        except scipy.linalg.LinAlgError:
            self.regularized = True
            band, coupling, m = self._fill_m(*work)
            eps = 1e-8 * (1.0 + max(np.abs(np.triu(m)).max(), np.abs(band).max(initial=0.0),
                                    np.abs(coupling).max(initial=0.0)))
            band[1] += 2.0 * eps
            coupling[self.structure.own_aperture] += eps
            m[np.diag_indices_from(m)] += eps
            self.m_chol = self._factor(band, coupling, m)

    def _fill_m(self, buffer: np.ndarray, scratch: np.ndarray):
        """M' = T^T M T as ``(band, coupling, M_KK)``, each cell summed as the sparse products sum it.

        M' = T^T D1 T + A21'^T diag(aa, rr) A21' + A11_rest'^T D3_rest^-1 A11_rest'
        + F_R'^T G_RR^-1 F_R', with ' for a block times T.  ``s`` drops out of
        A21', of F_R' and of the dense rows of A11_rest', so those land on
        M_KK alone; the A11 terms of the sparse rows land on all three
        parts.  T^T D1 T adds ``d_l + d_r`` on the s diagonal, ``d_l`` at
        (s_i, a_i) and the rest of D1 (``d_l`` on a) on M_KK's diagonal.
        All parts are views of the work buffer ``buffer``, and ``scratch``
        takes a product.
        With A21c = [S b | C] the A21 term's Gram matrix of A21c is
          [ b^T diag(S^T D S) b   b^T (S^T D C) ]
          [        .                C^T D C     ],
        one dsyrk over b's distinct rows and the two bincounts of
        :meth:`_NewtonStructure.criterion_columns`, scattered into the
        upper triangle only, which is all that potrf (upper) reads.
        Cell (i, j) of the Fortran-ordered M_KK is entry ``i + j nk`` of the
        row-major ``m.T``, where the scatters go.
        numpy forms the Fortran-ordered F_K^T (G^-1 F_K) as the transposed
        ``gemm``, whose cells are the same sums in the same order.
        """
        st, q, d1, nb = self.structure, self.quadrant, self.system.d1, self.structure.nb
        m, band, coupling, gram = st.work_parts(buffer)
        st.a11_gram(self.inv_d3[st.rest], buffer, m, scratch)
        f_k = self.f_rows[:, st.k_columns]   # F_R T on K; its s columns are 0
        m += np.matmul(f_k.T, _cho_solve(self.g_chol, f_k), out=scratch)
        flat = m.T.reshape(-1)
        flat[::st.nk + 1] += d1[st.k_columns]
        band[1] += d1[:nb] + d1[nb:2 * nb]
        coupling[st.own_aperture] += d1[:nb]
        if st.gram_cells.size:
            d = np.concatenate([q.aa, q.rr])
            if st.b.size:
                group_d = np.bincount(st.row_group, weights=d[st.row_nz], minlength=st.b.shape[0])
                scaled = st.b * np.sqrt(group_d)[:, None]
                gram[:st.split, :st.split] = scipy.linalg.blas.dsyrk(1.0, scaled.T, trans=0)
            gram[:, st.split:] = st.criterion_columns(d)
            flat[st.gram_cells] += st.gram_sign * gram.reshape(-1, order="F")[st.gram_index]
        return band, coupling, m

    def _factor(self, band: np.ndarray, coupling: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The factor of S = M_KK - W^T W, after the s-block's banded factor and W.

        The band and the coupling are checked for finiteness first, so a
        non-finite M' raises ``ValueError`` and not ``LinAlgError``; M_KK
        is checked with S.  ``dpbtrf`` factors the whole tridiagonal
        s-block at once: it is block-diagonal over the leaf pairs, so U is,
        and W = U^-T M_sK keeps each row's compact columns.  Each leaf
        pair's W^T W, of order J + 1, is subtracted from S's upper cells.
        """
        st = self.structure
        if st.nb:   # on an order-0 view, dpbtrf and dtbtrs write into the buffer's other parts
            np.asarray_chkfinite(band), np.asarray_chkfinite(coupling)
            self.s_band, info = scipy.linalg.lapack.dpbtrf(band, overwrite_ab=True)
            if info > 0:
                raise scipy.linalg.LinAlgError(
                    f"{info}-th leading minor of the s-block is not positive definite")
            self.w = scipy.linalg.lapack.dtbtrs(self.s_band, coupling, trans="T", overwrite_b=True)[0]
            blocks = self.w.T.reshape(st.pair_width + 1, -1, st.pair_width)   # (c, pair, j)
            products = np.matmul(blocks.transpose(1, 0, 2), blocks.transpose(1, 2, 0))
            m.T.reshape(-1)[st.w_cells] -= np.bincount(
                st.w_cell_of, weights=products[:, st.w_upper[0], st.w_upper[1]].ravel(),
                minlength=st.w_cells.size)
        return _cho_factor(m)

    def _m_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``M^-1 rhs`` as ``T M'^-1 T^T rhs``, by block elimination of the s-block."""
        st, nb = self.structure, self.structure.nb
        k_rhs = rhs[st.k_columns]
        if not nb:   # _factor made no s_band: band routines on order-0 views write elsewhere
            return _cho_solve(self.m_chol, k_rhs)
        z = scipy.linalg.lapack.dtbtrs(self.s_band, (rhs[:nb] + rhs[nb:2 * nb])[:, None],
                                       trans="T")[0][:, 0]
        k_rhs -= np.bincount(st.coupling_cols.ravel(), weights=(self.w * z[:, None]).ravel(),
                             minlength=st.nk)
        y_k = _cho_solve(self.m_chol, k_rhs)
        y_s = scipy.linalg.lapack.dtbtrs(
            self.s_band, (z - np.sum(self.w * y_k[st.coupling_cols], axis=1))[:, None])[0][:, 0]
        return np.concatenate([y_s + y_k[:nb], y_s, y_k[nb:]])

    def _g_solve(self, v: np.ndarray) -> np.ndarray:
        out = v * self.inv_d3
        out[self.structure.rows] = _cho_solve(self.g_chol, v[self.structure.rows])
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the full augmented system for one (x1, x2, y1, y2) rhs.

        Keeps ``A21 @ dx1``, which the bottom solve forms, as ``a21_dx1``:
        ``A @ dx`` takes it instead of another pass over ``b``.
        """
        system, st = self.system, self.structure
        n1, n2, m1 = system.n1, system.n2, system.m1
        mz = system.num_zero_rows
        rx1 = rhs[:n1]
        rx2 = rhs[n1:n1 + n2]
        ry1 = rhs[n1 + n2:n1 + n2 + m1]
        ry2 = rhs[n1 + n2 + m1:]
        ry_zero = ry2[:mz]
        ry_eta = ry2[mz:]

        # top rhs minus TR * Qinv * bottom rhs
        qx2, qy_zero, qy_eta = self.quadrant.apply(rx2, ry_zero, ry_eta)
        g_x1 = rx1 - st.a21_rmatvec(np.concatenate([qy_zero, qy_eta]))
        g_y1 = ry1 - _csr_dot(st.a12, qx2)

        # top solve: [[-E, F^T], [F, G]] (dx1, dy1) = (g_x1, g_y1)
        f_t_g = st.a11_rmatvec(self._g_solve(g_y1), self.f_rows)
        dx1 = self._m_solve(f_t_g - g_x1)
        dy1 = self._g_solve(g_y1 - st.a11_matvec(dx1, self.f_rows))

        # bottom solve: Qinv * (bottom rhs - BL * top)
        ux2 = rx2 - _csr_dot(st.a12_t, dy1)
        self.a21_dx1 = st.a21_matvec(dx1)
        uy2 = ry2 - self.a21_dx1
        dx2, dy_zero, dy_eta = self.quadrant.apply(ux2, uy2[:mz], uy2[mz:])
        return np.concatenate([dx1, dx2, dy1, dy_zero, dy_eta])


def schur_solve(system: KKTSystem, rhs: np.ndarray):
    """One-shot structured solve of the augmented system.

    Returns ``(delta, info)`` where ``info`` carries the relative
    residual of the unreduced system and whether a regularized fallback
    factorization was needed.
    """
    rhs = np.asarray(rhs, dtype=float)
    fact = _SchurFactorization(system)
    delta = fact.solve(rhs)
    full = system.assemble()
    residual = np.linalg.norm(full @ delta - rhs) / max(np.linalg.norm(rhs), 1e-300)
    return delta, {"relative_residual": float(residual), "regularized": fact.regularized}


def _kkt_system(lp: BlockLP, dx: np.ndarray, ds: np.ndarray) -> KKTSystem:
    """The augmented system of ``lp`` with variable diagonal ``dx`` and slack diagonal ``ds``."""
    return KKTSystem(a11=lp.a11, a12=lp.a12, a21=lp.a21_factors, a22=lp.a22,
                     d1=dx[:lp.n1], d2=dx[lp.n1:], d3=ds[:lp.m1], d4=ds[lp.m1:],
                     num_zero_rows=lp.num_zero_rows, machine=lp.machine)


class PreparedLP:
    """The part of solving an LP that its objective leaves alone.

    Holds ``lp``, the LP it was prepared from, with its
    :class:`_NewtonStructure`, the factorization of its unit-diagonal
    system and ``x_ls``, the least-squares solve of ``A x ~ b`` through it
    (see :func:`solve`).  Any LP sharing ``lp``'s constraint arrays and
    bounds, such as ``lp.reweighted(w)``, may be solved with it.
    ``timings`` holds the seconds each part took, by the phases of
    ``SolveResult.timings``.
    """

    def __init__(self, lp: BlockLP):
        self.timings = dict.fromkeys(("structure", "factorization", "back_solve"), 0.0)
        self.lp = lp
        system = _kkt_system(lp, np.ones(lp.num_variables), np.ones(lp.num_rows))
        with _timed(self.timings, "structure"):
            self.structure = _NewtonStructure(system)
        with _timed(self.timings, "factorization"):
            self.ones_fact = _SchurFactorization(system, self.structure)
        with _timed(self.timings, "back_solve"):
            self.x_ls = self.ones_fact.solve(np.concatenate([np.zeros(lp.num_variables),
                                                             lp.rhs()]))[:lp.num_variables]

    def serves(self, lp: BlockLP) -> bool:
        """Whether ``lp`` holds the very constraint arrays and bounds this was prepared from."""
        return all(getattr(self.lp, name) is getattr(lp, name)
                   for name in ("a11", "a12", "a21_factors", "a22", "b1", "b2", "lower", "upper"))

    def least_squares_start(self, c: np.ndarray, timings: dict[str, float]) -> Restart:
        """The least-squares point for the objective ``c`` (see the module docstring).

        Its one back-solve, for ``y_ls``, is timed into ``timings``.
        """
        lp, structure = self.lp, self.structure
        with _timed(timings, "back_solve"):
            y_ls = self.ones_fact.solve(np.concatenate([c, np.zeros(lp.num_rows)]))[lp.num_variables:]
        margin = np.minimum(0.1 * (1.0 + np.abs(self.x_ls)), 0.25 * (lp.upper - lp.lower))
        x = np.clip(self.x_ls, lp.lower + margin, lp.upper - margin)
        z_hat = c - structure.rmatvec(y_ls)
        dz = 0.1 * (1.0 + _mean_abs(z_hat))
        s_hat = structure.matvec(x) - lp.rhs()
        return Restart(x=x, s=np.maximum(s_hat, 0.1 * (1.0 + _mean_abs(s_hat))),
                       y=np.maximum(y_ls, 0.0) + 0.1 * (1.0 + _mean_abs(y_ls)),
                       z=np.maximum(z_hat, 0.0) + dz,
                       w=np.maximum(-z_hat[np.isfinite(lp.upper)], 0.0) + dz, c=c)


def _mean_abs(v: np.ndarray) -> float:
    """``mean(|v|)``, rounded as ``np.mean`` rounds it, and 0 for an LP without rows."""
    return float(np.sum(np.abs(v))) / max(v.size, 1)


@dataclass(frozen=True)
class Restart:
    """An iterate of a solve: ``x``, the row slacks ``s``, the duals ``y``, ``z`` and ``w``.

    ``w`` is on the columns with a finite upper bound, and ``c`` is the
    objective the iterate was measured under.  :func:`solve` steps from
    one iterate to a new one and never writes into an array of one, so an
    iterate it hands out, ``SolveResult.restart``, stays as it was taken,
    to start other solves of the same constraints from, under any
    objective (see :meth:`shifted`).  ``iteration`` and ``mu`` say where
    in its solve a restart was taken.
    """

    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w: np.ndarray
    c: np.ndarray
    iteration: int = 0
    mu: float = 0.0

    def shifted(self, c: np.ndarray, up: np.ndarray) -> Restart:
        """This iterate for the objective ``c``, with the same dual residual.

        With ``dc = c - self.c``, ``z`` takes ``dc`` where it is positive
        and ``w`` (on ``up``) takes ``-dc`` where it is negative, so
        ``c - A^T y - z + w`` keeps its value and both stay strictly
        positive.  A column where ``dc < 0`` without a finite upper bound
        has no ``w``, and its residual takes ``dc``.  ``x``, ``s`` and
        ``y`` are this iterate's own arrays; ``z`` and ``w`` are new ones.
        Under this iterate's own objective it is returned as it is.
        """
        if np.array_equal(c, self.c):
            return self
        dc = c - self.c
        return replace(self, z=self.z + np.maximum(dc, 0.0),
                       w=self.w - np.minimum(dc[up], 0.0), c=c)


@dataclass(frozen=True)
class IterationRecord:
    """State at the start of one iteration.

    ``step_primal``, ``step_dual``, ``sigma`` and ``regularized`` describe
    the step that produced this iterate; at iteration 0, ``regularized``
    refers to the starting-point factorization (False after a restart).
    """

    iteration: int
    primal_residual: float
    dual_residual: float
    gap_gy: float
    mu: float
    step_primal: float
    step_dual: float
    sigma: float
    regularized: bool


@dataclass(frozen=True)
class DualSolution:
    y: np.ndarray   # row duals (>= rows)
    z: np.ndarray   # lower-bound duals
    w: np.ndarray   # upper-bound duals (zero where the bound is infinite)


@dataclass
class SolveResult:
    status: str  # "converged" | "iteration_limit" | "infeasible" | "numerical_failure"
    x: np.ndarray
    dual: DualSolution
    slack: np.ndarray
    objective: float
    gap_gy: float
    primal_residual: float
    dual_residual: float
    iterations: int
    history: list[IterationRecord] = field(default_factory=list)
    kkt_log: list = field(default_factory=list)
    message: str = ""
    timings: dict[str, float] = field(default_factory=dict)   # seconds per phase
    factored_order: int = 0   # order of the dense Cholesky factor, of S: n1 less the bixel count
    restart: Restart | None = None   # the first iterate with mu <= 0.1 mu0, if any

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _dual_objective(b: np.ndarray, lower: np.ndarray, upper_up: np.ndarray,
                    y: np.ndarray, z: np.ndarray, w_up: np.ndarray) -> float:
    """``b.y + lower.z - upper.w``, with ``upper`` and ``w`` on the columns with a finite upper bound."""
    return float(np.dot(b, y)) + float(np.dot(lower, z)) - float(np.dot(upper_up, w_up))


def duality_gap_in_dose(lp: BlockLP, x: np.ndarray, dual: DualSolution) -> float:
    """Primal-minus-dual objective in the Gy-weighted objective scale."""
    up = np.flatnonzero(np.isfinite(lp.upper))
    return float(np.dot(lp.objective_vector, x)) - _dual_objective(lp.rhs(), lp.lower, lp.upper[up],
                                                                   dual.y, dual.z, dual.w[up])


def _conflict_report(lp: BlockLP, y: np.ndarray, z_ray: np.ndarray, w: np.ndarray,
                     up: np.ndarray, value: float) -> str:
    """Name the hard bounds and deliverability rows that carry a Farkas ray.

    Takes the normalized ray: row multipliers ``y``, lower-bound
    multipliers ``z_ray`` and upper-bound multipliers ``w`` on ``up``.  A
    hard bound's multiplier is that of its xi column on the bound's side.
    Every bound and deliverability row whose multiplier is at least 1e-3
    of the largest is named.  Moving one bound by ``d`` Gy changes the
    ray's value by its multiplier times ``d``, so the ray keeps certifying
    infeasibility until that bound alone has moved ``value / multiplier``
    Gy: a lower bound on the move that bound needs.
    """
    w_full = np.zeros(z_ray.size)
    w_full[up] = w
    carriers = []   # (multiplier, name, whether it is a hard bound in Gy)
    for criterion, cols in zip(lp.criteria, lp.columns):
        if criterion.hard_lower is not None:
            carriers.append((z_ray[cols.xi], f"{criterion.describe()} >= {criterion.hard_lower:g} Gy",
                             True))
        elif criterion.hard_upper is not None:
            carriers.append((w_full[cols.xi], f"{criterion.describe()} <= {criterion.hard_upper:g} Gy",
                             True))
    carriers += [(y[i], f"deliverability row {lp.row_labels1[i]}", False)
                 for i in range(lp.num_deliverability_rows)]
    largest = max((multiplier for multiplier, _, _ in carriers), default=0.0)
    named = [f"{name} (multiplier {multiplier:.2g}"
             + (f", must move >= {value / multiplier:.1f} Gy)" if in_gy else ")")
             for multiplier, name, in_gy in carriers if multiplier >= 1e-3 * largest > 0.0]
    return "conflict: " + ("; ".join(named) or "no hard bound or deliverability row carries the ray")


def _max_step(values: list[np.ndarray], deltas: list[np.ndarray]) -> float:
    """Largest step keeping every part ``values[i] + step * deltas[i]`` nonnegative.

    Part by part: the least ``value / -delta`` over the shrinking
    components is minus the largest ``value / delta``, exactly, and a
    least or largest over the parts is exact too.  A part with no
    shrinking component, an empty one included, allows a step of 1.0 and
    no more.
    """
    step = np.inf
    for value, delta in zip(values, deltas):
        shrinking = (delta < 0).nonzero()[0]
        step = min(step, -(value.take(shrinking) / delta.take(shrinking)).max()
                   if shrinking.size else 1.0)
    return float(step)


def _stepped(value: np.ndarray, step: float, delta: np.ndarray) -> np.ndarray:
    """``value + step * delta`` in one new array: the product's array takes the sum, which commutes."""
    out = step * delta
    out += value
    return out


def _mean_complementarity(gaps: list[np.ndarray], duals: list[np.ndarray]) -> float:
    """``mu``: the mean of the products ``gaps[i] * duals[i]`` over the three pairs."""
    (g0, g1, g2), (v0, v1, v2) = gaps, duals
    return float(np.dot(g0, v0) + np.dot(g1, v1) + np.dot(g2, v2)) / (g0.size + g1.size + g2.size)


def _step_lengths(gaps, duals, d, fraction: float) -> tuple[float, float]:
    """``fraction`` of the largest steps of ``gaps`` and ``duals`` along ``d``, each at most 1."""
    return (min(1.0, fraction * _max_step(gaps, d[0])),
            min(1.0, fraction * _max_step(duals, d[1])))


class _NewtonStep:
    """The Newton system of a measured iterate's pairs and residuals, factored once."""

    def __init__(self, lp: BlockLP, structure, work, up, gaps, duals, rp, rd, timings, kkt_log):
        # An unbounded LP's gaps grow until this overflows: FloatingPointError, whatever
        # the warning filters, which ends the solve in numerical_failure naming it.
        with np.errstate(over="raise"):
            dx_diag = duals[0] / gaps[0]
            dx_diag[up] += duals[2] / gaps[2]
        dx_diag += _REGULARIZATION
        system = _kkt_system(lp, dx_diag, gaps[1] / duals[1] + _REGULARIZATION)
        with _timed(timings, "factorization"):
            self.fact = _SchurFactorization(system, structure, work)
        self.up, self.gaps, self.duals, self.rp, self.rd = up, gaps, duals, rp, rd
        self.timings, self.kkt_log = timings, kkt_log

    def direction(self, rc: list[np.ndarray]):
        """``(d_gaps, d_duals)`` for the targets ``rc`` of the pairs' products ``v dg + g dv``."""
        g, v = self.gaps, self.duals
        r1 = self.rd - rc[0] / g[0]
        r1[self.up] += rc[2] / g[2]
        rhs = np.concatenate([r1, self.rp + rc[1] / v[1]])
        with _timed(self.timings, "back_solve"):
            delta = self.fact.solve(rhs)
        if self.kkt_log is not None:
            self.kkt_log.append((self.fact.system, rhs, delta))
        dx, dy = delta[:g[0].size], delta[g[0].size:]
        d_gaps = [dx, self.fact.structure.matvec(dx, self.fact.a21_dx1) - self.rp, -dx[self.up]]
        return d_gaps, [(rc[0] - v[0] * dx) / g[0], dy, (rc[2] - v[2] * d_gaps[2]) / g[2]]


@contextlib.contextmanager
def _timed(timings: dict[str, float], phase: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[phase] += time.perf_counter() - start


def solve(lp: BlockLP, settings: SolverSettings | None = None, prepared: PreparedLP | None = None,
          start: Restart | None = None) -> SolveResult:
    """Solve a block-partitioned LP with the structured interior point method.

    ``prepared`` is a :class:`PreparedLP` of an LP sharing ``lp``'s
    constraints; without one, the solve prepares ``lp`` itself.  With
    ``start`` the iteration begins at that restart iterate, shifted to
    ``lp``'s objective (:meth:`Restart.shifted`), otherwise at the
    least-squares point.  ``SolveResult.timings`` sums the solve's
    wall time by phase: building the per-LP Newton structure, the
    factorizations, the back-solves, and ``step`` for everything else
    (starting point, residuals, step lengths and updates).  A given
    ``prepared`` was timed when it was built, not here.
    """
    begin = time.perf_counter()
    timings = dict.fromkeys(("structure", "factorization", "back_solve"), 0.0)
    if prepared is None:
        prepared = PreparedLP(lp)
        timings.update(prepared.timings)
    elif not prepared.serves(lp):
        raise ValueError("prepared for an LP with other constraints or bounds")
    structure = prepared.structure
    work = _work_pair(structure)   # every factorization of this solve builds and factors M' here
    settings = settings or SolverSettings()
    b, c, lower = lp.rhs(), lp.objective_vector, lp.lower
    up = np.flatnonzero(np.isfinite(lp.upper))   # the only columns with an upper-bound dual
    upper_up = lp.upper[up]
    b_scale = 1.0 + float(np.max(np.abs(b))) if b.size else 1.0
    c_scale = 1.0 + float(np.max(np.abs(c)))
    history: list[IterationRecord] = []
    kkt_log: list = []

    def result(status: str, it: Restart, measured: tuple[float, float, float],
               message: str = "") -> SolveResult:
        """The result at ``it``, with its scaled residual norms and gap as measured."""
        step = time.perf_counter() - begin - sum(timings.values())
        rel_p, rel_d, gap = measured
        w_full = np.zeros_like(it.x)
        w_full[up] = it.w
        return SolveResult(status=status, x=it.x.copy(),
                           dual=DualSolution(y=it.y.copy(), z=it.z.copy(), w=w_full),
                           slack=it.s.copy(), objective=float(np.dot(c, it.x)),
                           gap_gy=gap, primal_residual=rel_p, dual_residual=rel_d,
                           iterations=len(history), history=history,
                           kkt_log=kkt_log, message=message,
                           timings=dict(timings, step=max(step, 0.0)), factored_order=structure.nk,
                           restart=restart)

    def verdict(iteration: int, it: Restart, gaps: list[np.ndarray], duals: list[np.ndarray],
                rd: np.ndarray, measured: tuple[float, float, float]):
        """How the solve ends at the measured iterate ``it``: ``(status, message, mu)``.

        ``status`` is None to step on; the checks go in the module
        docstring's order.  An iterate past the first that lost positivity,
        or one at the limit, is not an iteration of the solve: its ``mu`` is
        None, not measured, and the solve ends without recording it in the
        history or taking it as the restart.  Every other iterate is
        recorded with its ``mu``.
        """
        rel_p, rel_d, gap = measured
        # Each step must keep its iterate strictly inside; fmin skips NaN, as any(part <= 0) does.
        if iteration and any(np.fmin.reduce(part, initial=np.inf) <= 0 for part in gaps + duals):
            return "numerical_failure", "lost strict positivity", None
        if iteration == settings.max_iterations:
            return "iteration_limit", "iteration limit reached before convergence", None
        mu = _mean_complementarity(gaps, duals)
        if rel_p <= settings.feasibility_tolerance and rel_d <= settings.feasibility_tolerance \
                and gap <= settings.dose_tolerance_gy:
            return "converged", "", mu
        if not np.isfinite(mu) or not np.isfinite(gap):
            return "numerical_failure", "non-finite iterate", mu
        # Farkas ray from the dual iterate: A^T y - w is c - rd - z, and z'
        # takes up its negative part (see the module docstring).
        atyw = c - rd - it.z
        z_ray = np.maximum(-atyw, 0.0)
        norm = float(np.sum(it.y) + np.sum(z_ray) + np.sum(it.w))
        if norm > 0:   # no ray without rows or finite upper bounds, where norm can be 0
            violation = float(np.max(atyw, initial=0.0)) / norm
            value = _dual_objective(b, lower, upper_up, it.y, z_ray, it.w) / norm
            if violation <= settings.feasibility_tolerance < value:
                return ("infeasible",
                        f"Farkas ray with violation {violation:.1e} and value {value:.3e}; "
                        + _conflict_report(lp, it.y / norm, z_ray / norm, it.w / norm, up, value), mu)
        return None, "", mu

    it = prepared.least_squares_start(c, timings) if start is None else start.shifted(c, up)
    regularized = start is None and prepared.ones_fact.regularized
    sigma = alpha_p = alpha_d = 0.0
    restart = None
    for iteration in range(settings.max_iterations + 1):
        # The iterate, measured once: its three complementary pairs, the residuals
        # b - A x + s and c - A^T y - z + w, their scaled max norms and the gap.
        gaps, duals = [it.x - lower, it.s, upper_up - it.x[up]], [it.z, it.y, it.w]
        rp = b - structure.matvec(it.x) + it.s
        rd = c - structure.rmatvec(it.y) - it.z
        rd[up] += it.w
        dual_obj = _dual_objective(b, lower, upper_up, it.y, it.z, it.w)
        measured = rel_p, rel_d, gap = (float(np.max(np.abs(rp), initial=0.0)) / b_scale,
                                        float(np.max(np.abs(rd))) / c_scale,
                                        float(np.dot(c, it.x)) - dual_obj)
        status, message, mu = verdict(iteration, it, gaps, duals, rd, measured)
        if mu is not None:   # an iteration of the solve: recorded
            if iteration == 0:
                mu0 = mu
            elif restart is None and mu <= _RESTART_MU_FRACTION * mu0:
                restart = replace(it, iteration=iteration, mu=mu)
            history.append(IterationRecord(iteration=iteration, primal_residual=rel_p,
                                           dual_residual=rel_d, gap_gy=gap, mu=mu,
                                           step_primal=alpha_p, step_dual=alpha_d,
                                           sigma=sigma, regularized=regularized))
        if status is not None:
            return result(status, it, measured, message)

        # One Newton step; a failure in any phase ends the solve, named by its phase.
        phase = "factorization"
        try:
            step = _NewtonStep(lp, structure, work, up, gaps, duals, rp, rd, timings,
                               kkt_log if settings.log_kkt else None)
            regularized = step.fact.regularized
            phase = "predictor solve"  # affine scaling
            d_gaps_a, d_duals_a = affine = step.direction([-g * v for g, v in zip(gaps, duals)])
            ap, ad = _step_lengths(gaps, duals, affine, 1.0)
            # The trial point is (x - lower) + ap*dx, which rounds unlike the update's (x + a*dx) - lower.
            mu_aff = _mean_complementarity([_stepped(g, ap, dg) for g, dg in zip(gaps, d_gaps_a)],
                                           [_stepped(v, ad, dv) for v, dv in zip(duals, d_duals_a)])
            sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** _CENTERING_POWER, 0.0, 0.999)) \
                if mu > 0 else 0.0
            phase = "corrector solve"  # centering + second order
            corrector = step.direction([sigma * mu - g * v - dg * dv for g, v, dg, dv
                                        in zip(gaps, duals, d_gaps_a, d_duals_a)])
        except (scipy.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
            return result("numerical_failure", it, measured, f"{phase} failed: {exc}")
        alpha_p, alpha_d = _step_lengths(gaps, duals, corrector, settings.step_fraction)
        if alpha_p < _STEP_FLOOR and alpha_d < _STEP_FLOOR:
            return result("numerical_failure", it, measured, "step sizes collapsed")
        (dx, ds, _), (dz, dy, dw) = corrector
        it = Restart(x=_stepped(it.x, alpha_p, dx), s=_stepped(it.s, alpha_p, ds),
                     y=_stepped(it.y, alpha_d, dy), z=_stepped(it.z, alpha_d, dz),
                     w=_stepped(it.w, alpha_d, dw), c=c)


def write_iteration_log(path, history) -> None:
    write_csv(path, [f.name for f in fields(IterationRecord)], map(astuple, history))


def time_newton_solve(system: KKTSystem, rhs: np.ndarray, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of one full structured Newton solve.

    Each repeat builds the per-LP Newton structure as well as the
    factorization, as a solve's first iteration does.
    """
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fact = _SchurFactorization(system)
        fact.solve(rhs)
        best = min(best, time.perf_counter() - start)
    return best
